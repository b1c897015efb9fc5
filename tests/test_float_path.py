"""The float path on mpmath's ``libmp`` kernels.

``LogLinear.to_float``, ``cli._float_str``, ``eisenstein._mixed_term`` and
``oracle.e1`` call the kernels with the precision and rounding passed in.
These tests pin their bits and texts to mpmath's object layer under
``workprec`` (kept here as the reference), and run them from three
threads at once, which a global working precision would not survive.
``oracle.e1``'s continued fraction is pinned the same way at z up to about 200
and at the display bits of ``--digits`` 30 and 60 (152 and 272): a wrong
partial numerator gives wrong bits, a depth too shallow falls back to the
same bits, and its enclosure holds ``mpmath.e1`` at 2,000 bits.
The ``coeffs`` stream's float text of a tail, one ``libmp`` product of the
cached log p, is ``report.coefficient.to_float``'s text at every tail key
of the test matrix.  The stream's mixed-term cutoff reads no global
precision either, and ``coefficient_records`` runs from three threads at
once: each call builds its own table of local data over the shared caches.
"""

import inspect
import json
import random
import sys
import threading
from fractions import Fraction

import mpmath

import cmeis.oracle
import cmeis.verify
from cmeis.cli import _display_bits, _float_str, _tail, coefficient_records, main
from cmeis.eisenstein import _index_report, _LocalTable, _mixed_term, _z_constants
from cmeis.exact import LogLinear, _log_prime, factor, is_prime
from cmeis.field import Setup, _half_slice, prime_ideals_above
from cmeis.genus import genus_char_prime
from cmeis.oracle import _e1_depth, _e1_enclosure, _e1_fraction, e1


def _to_float_reference(value, precision):
    with mpmath.mp.workprec(precision):
        total = mpmath.mpf(0)
        for p, c in value.terms().items():
            total += mpmath.mpf(c.numerator) / c.denominator * mpmath.log(p)
        return +total


def _float_str_reference(x, digits):
    return "0" if x == 0 else mpmath.nstr(x, digits, strip_zeros=False)


def _e1_reference(x, precision):
    with mpmath.mp.workprec(precision + 32):
        val = mpmath.e1(mpmath.mpf(x))
    with mpmath.mp.workprec(precision):
        return +val


def _random_prime(rng, bound):
    n = rng.randint(2, bound)
    while not is_prime(n):
        n += 1
    return n


def _random_coefficient(rng):
    # mostly small fractions; some numerators wider than every precision below,
    # which the first rounding step of to_float rounds
    size = rng.choice((10, 10**6, 2**400))
    num = rng.choice((-1, 1)) * rng.randint(1, size)
    return Fraction(num, rng.randint(1, rng.choice((1, 30, 10**6))))


def test_to_float_text_matches_the_object_path():
    rng = random.Random(2812)
    for precision in (53, 128, 152, 272):
        for digits in (1, 5, 30, 60):
            for _ in range(200):
                terms = rng.randint(1, 3)
                value = LogLinear(
                    {_random_prime(rng, 10**6): _random_coefficient(rng) for _ in range(terms)}
                )
                got, want = value.to_float(precision), _to_float_reference(value, precision)
                assert got._mpf_ == want._mpf_, (value, precision)
                text = _float_str_reference(want, digits)
                assert _float_str(got, digits) == text, (value, digits)
    assert LogLinear.zero().to_float(53) == 0 and _float_str(0, 5) == "0"


def test_tail_float_is_the_coefficient_text():
    # one report per tail key (P's p, 2 nu, rho) of every matrix pair at trace <= 20,
    # at the display bits of 1, 30 and 60 digits; at 53 bits the 60-digit text shows
    # every bit of the product, so a product rounded the wrong way shows too
    cases = [(d, _display_bits(d)) for d in (1, 30, 60)] + [(60, 53)]
    for pair in cmeis.verify.TEST_MATRIX:
        setup = Setup(*pair)
        table, reports = _LocalTable(setup), {}
        for m in range(1, 21):
            for x, factors in _half_slice(setup, m):
                report = _index_report(table, m, x, factors)
                key = (report.reflex and report.reflex.p, report.two_nu, report.rho)
                reports.setdefault(key, report)
        assert len(reports) > 1, pair
        for report in reports.values():
            for digits, bits in cases:
                want = _float_str(report.coefficient.to_float(bits), digits)
                assert _tail(report, digits, bits)[2] == want, (pair, report, digits, bits)


def _e1_cases(seed, count):
    """(z, precision) pairs, z up to about 200; half are wider than a float, as in _mixed_term."""
    rng = random.Random(seed)
    for _ in range(count):
        precision = rng.choice((53, 69, 128, 144, 152, 272))
        z = rng.uniform(0, 200)
        if rng.random() < 0.5:
            with mpmath.mp.workprec(precision + 16):
                z = mpmath.mpf(z) * mpmath.pi / 3
        yield z, precision


def _e1_disagreements(cases):
    return [(z, p) for z, p in cases if e1(z, p)._mpf_ != _e1_reference(z, p)._mpf_]


def _through_the_fraction(z, precision):
    return _e1_fraction(mpmath.mpf(z, prec=precision + 32)._mpf_, precision) is not None


_CASES = list(_e1_cases(2813, 400))


def test_e1_matches_the_object_path():
    assert _e1_disagreements(_CASES) == []
    assert _e1_disagreements([(1e-12, 53), (1, 53), (79.5, 53)]) == []
    # 152 and 272 bits are the display bits of --digits 30 and 60
    for precision in (152, 272):
        cases = [(z, p) for z, p in _CASES if p == precision]
        assert sum(_through_the_fraction(z, p) for z, p in cases) > len(cases) / 2


def test_e1_with_a_wrong_coefficient_disagrees(monkeypatch):
    # the partial numerator (k+1)^2 as (k+1)(k+2): the enclosure is as narrow,
    # so the rounding test passes and certifies wrong bits
    source = inspect.getsource(cmeis.oracle._e1_enclosure)
    assert "(k + 1) ** 2" in source
    namespace = dict(vars(cmeis.oracle))
    exec(source.replace("(k + 1) ** 2", "(k + 1) * (k + 2)"), namespace)
    monkeypatch.setattr(cmeis.oracle, "_e1_enclosure", namespace["_e1_enclosure"])
    wrong = _e1_disagreements(_CASES)
    assert len(wrong) == sum(_through_the_fraction(z, p) for z, p in _CASES) > 0
    assert cmeis.verify._e1_quadrature(random.Random(0)) == "e1 vs quadrature at x=20"


def test_e1_too_shallow_falls_back_to_the_same_bits(monkeypatch):
    monkeypatch.setattr(cmeis.oracle, "_e1_depth", lambda z, precision: 3)
    assert not any(_through_the_fraction(z, p) for z, p in _CASES)
    assert _e1_disagreements(_CASES) == []


def test_e1_enclosure_contains_the_value():
    # against mpmath.e1 at 2,000 bits; each width is below 2^-(precision+20) relative
    for z, precision in ((9.2, 53), (30.7, 53), (26.1, 152), (60.3, 152), (140.9, 152),
                         (46.4, 272), (199.6, 272)):
        x = mpmath.mpf(z)
        low, high = _e1_enclosure(x._mpf_, precision, _e1_depth(z, precision))
        with mpmath.mp.workprec(2000):
            value = mpmath.e1(x)
            low, high = mpmath.mpf(low), mpmath.mpf(high)
            assert low < value < high, (z, precision)
            assert high - low < value * mpmath.mpf(2) ** -(precision + 20), (z, precision)


def _wrong_answers_under_threads(jobs, calls):
    """Run each job in its own thread, ``calls`` times, switching threads every 10 us.

    The expected answers come from one thread first, which also grows
    mpmath's constant memos (pi, log 2, Euler's constant) to the largest
    precision used, so the threads only read them.
    """
    expected = [job() for job in jobs]
    wrong = [0] * len(jobs)

    def worker(i):
        for _ in range(calls):
            if jobs[i]() != expected[i]:
                wrong[i] += 1

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return wrong


def test_float_text_is_thread_safe():
    value = LogLinear({2: Fraction(3, 7), 1009: Fraction(-5, 3), 99991: 4})
    jobs = [lambda b=b: _float_str(value.to_float(b), 30) for b in (53, 152, 4000)]
    assert _wrong_answers_under_threads(jobs, 3000) == [0, 0, 0]


def test_mixed_term_is_thread_safe():
    # (-3,-7), D = 21: x = 7 at trace 1 has rho = 2
    # each job builds its z constants too, as every coefficient_records call does
    jobs = [
        lambda b=b: _mixed_term(21, 1, 7, 2, _z_constants(21, 1.0, 0.9, b), b)._mpf_
        for b in (53, 152, 400)
    ]
    assert _wrong_answers_under_threads(jobs, 1000) == [0, 0, 0]


def test_e1_fraction_is_thread_safe():
    # the mixed term above has z = 2.98, below every precision/6: these z take the fraction
    cases = ((30, 53), (60, 152), (140, 272))
    assert all(_through_the_fraction(z, b) for z, b in cases)
    jobs = [lambda z=z, b=b: e1(z, b)._mpf_ for z, b in cases]
    assert _wrong_answers_under_threads(jobs, 1000) == [0, 0, 0]


def test_coefficient_records_is_thread_safe():
    # three pairs at once, each call with its own tables, over caches emptied first,
    # so the threads fill the shared lru caches (log p among them) together
    pairs = ((-3, -7), (-7, -23), (-8, -11))
    want = [list(coefficient_records(Setup(*pair), 12)) for pair in pairs]
    for cache in (prime_ideals_above, genus_char_prime, factor, _log_prime):
        cache.cache_clear()
    got = [None] * len(pairs)

    def worker(i):
        got[i] = list(coefficient_records(Setup(*pairs[i]), 12))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(pairs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


def test_mixed_cutoff_ignores_the_global_precision():
    # at 4 bits the cutoff 10^-7 and the term 9.3801e-8 at m = 2, x = 18 round to one
    # value, which would admit the term; the cutoff compares at 53 bits whatever mp.prec is
    setup = Setup(-3, -8)
    want = list(coefficient_records(setup, 3, 1.9, 1.47, 5))
    assert len(want) == 43
    with mpmath.mp.workprec(4):
        assert list(coefficient_records(setup, 3, 1.9, 1.47, 5)) == want


def test_log_prime_computes_each_prime_once(capsys):
    # one trace-60 run asks for log p at ~1,400 primes, all at one precision:
    # the cache must keep every one of them
    _log_prime.cache_clear()
    assert main(["coeffs", "--d1", "-7", "--d2", "-23", "--trace-max", "60"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    primes = {p for r in records for p in r["a_alpha"]}
    info = _log_prime.cache_info()
    assert info.misses == info.currsize == len(primes) > 1 << 10
