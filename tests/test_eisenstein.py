import hashlib
import math
import random
import re
from fractions import Fraction

import mpmath
import pytest

import cmeis.eisenstein as eisenstein
from cmeis.cli import _display_bits, _float_str, _mixed_ranges, coefficient_records
from cmeis.eisenstein import (
    DegreeReport,
    _index_report,
    _LocalTable,
    arakelov_degree,
    assemble_derivative,
    coherent_ratio_check,
    constant_term,
    holomorphic_coefficient,
    mixed_coefficient,
    trace_degree,
)
from cmeis.exact import InvariantError, LogLinear, factor, padic_val
from cmeis.field import (
    FElem,
    Setup,
    _half_slice,
    _slice_ideal,
    element_valuation,
    enumerate_trace_slice,
    prime_ideals_above,
    principal_ideal,
    support,
)
from cmeis.genus import diff_set, genus_char_prime, norm_ideal_count
from cmeis.oracle import class_number, e1
from cmeis.verify import SUITES, TEST_MATRIX

S37 = Setup(-3, -7)
S34 = Setup(-3, -4)
ALPHA_X1 = FElem(Fraction(1, 2), Fraction(1, 42))  # trace-1 slice, x = 1


# ---------------------------------------------------------------------------
# local Whittaker data: (value0, deriv_coeff) from the one kernel, at sqrt(D) * alpha


def _sums(setup, alpha, prm):
    gen = alpha.times_sqrtD(setup.D)
    t = padic_val(gen.a * gen.a - setup.D * gen.b * gen.b, prm.p)
    return eisenstein._local_sums(setup, gen, prm, t)


def test_local_sums_unramified_trivial():
    (inert2,) = prime_ideals_above(S37, 2)
    assert _sums(S37, ALPHA_X1, inert2) == (1, 0)


def test_local_sums_ramified_outside_index():
    # P7 divides the different but not alpha * different: the derivative
    # carries only the |D|^(-s/2) factor, 1 * log 7
    (ram7,) = prime_ideals_above(S37, 7)
    assert _sums(S37, ALPHA_X1, ram7) == (1, 1)


def test_local_sums_at_obstruction():
    _, minus = prime_ideals_above(S37, 5)
    assert _sums(S37, ALPHA_X1, minus) == (0, -1)  # -(1/2) * 2 * log 5


def _local_sums_case(setup, alpha, prm, eps, t):
    assert genus_char_prime(setup, prm) == eps
    assert element_valuation(setup, alpha.times_sqrtD(setup.D), prm) == t
    return _sums(setup, alpha, prm)


def test_local_sums_center_and_derivative():
    # the center value is sum eps^r and the derivative f * sum r eps^r at
    # an unramified prime, for r = 0..t
    plus, _ = prime_ideals_above(S37, 5)
    assert _local_sums_case(S37, ALPHA_X1, plus, -1, 0) == (1, 0)
    # (-3, -7), m = 4, x = 4: the inert prime above 2 (residue degree 2)
    (inert2,) = prime_ideals_above(S37, 2)
    alpha = FElem(2, Fraction(4, 42))
    assert _local_sums_case(S37, alpha, inert2, 1, 2) == (3, 6)  # 6 * log 2


def test_local_sums_rejects_pole():
    bad = FElem(Fraction(1, 10), Fraction(1, 10))  # pole above 5
    gen = bad.times_sqrtD(S37.D)
    polar = [
        prm
        for prm in prime_ideals_above(S37, 5)
        if element_valuation(S37, gen, prm) < 0
    ]
    assert polar
    with pytest.raises(ValueError):
        _sums(S37, bad, polar[0])


def test_local_factors_match_local_sums():
    # the assembly's one pass over the places gives the kernel's derivative at
    # the obstruction place and -4 times every other place's center value
    cases = 0
    for pair in TEST_MATRIX:
        s = Setup(*pair)
        for m in range(1, 9):
            for e in enumerate_trace_slice(s, m):
                if len(diff_set(s, _slice_ideal(s, m, e.x, e.factors))) != 1:
                    continue
                place, deriv_coeff, scalar = eisenstein._local_factors(s, e.alpha)
                assert _sums(s, e.alpha, place) == (0, deriv_coeff)
                others = [
                    _sums(s, e.alpha, prm)[0]
                    for p, _ in factor((m * m * s.D - e.x * e.x) // 4)
                    for prm in prime_ideals_above(s, p)
                    if prm != place
                ]
                assert scalar == -4 * math.prod(others)
                cases += 1
    assert cases > 1000


def test_assembly_values_each_place_from_its_one_factorization(monkeypatch):
    # past element_valuation and its cache, the assembly's kernel gives the same ord at
    # every place above every prime of N(sqrt(D) * alpha), x of both signs; on 2 inert,
    # ramified and split, and whether or not the index has a single obstruction place
    real, seen = eisenstein._place_valuation, []

    def recording(D, a, b, c, t, prm):
        k = real(D, a, b, c, t, prm)
        seen.append((prm, k))
        return k

    monkeypatch.setattr(eisenstein, "_place_valuation", recording)
    signs = set()
    for s in (S37, S34, Setup(-7, -23)):
        for m in range(1, 9):
            for e in enumerate_trace_slice(s, m):
                seen.clear()
                try:
                    eisenstein._local_factors(s, e.alpha)
                except ValueError as exc:
                    assert str(exc) == "assembly needs a single obstruction prime"
                gen = e.alpha.times_sqrtD(s.D)
                places = [
                    prm
                    for p, _ in factor(abs(gen.norm(s.D).numerator))
                    for prm in prime_ideals_above(s, p)
                ]
                assert [prm for prm, _ in seen] == places
                assert all(k == element_valuation(s, gen, prm) for prm, k in seen), (s, m, e.x)
                signs.add((e.x > 0) - (e.x < 0))
    assert signs == {-1, 0, 1}


def test_identity_check_takes_no_valuation_through_the_cache():
    # element_valuation's lru_cache missed on every call of this sweep: the check
    # must not reach it again
    element_valuation.cache_clear()
    assert SUITES["eisenstein"]["degree-coefficient-identity"](random.Random(0)) is None
    assert element_valuation.cache_info().misses == 0


# ---------------------------------------------------------------------------
# holomorphic coefficients


def test_coefficient_example_x1():
    # ord at the obstruction prime of alpha*P*D is 2, rho of the rest is 1
    assert holomorphic_coefficient(S37, 1, 1) == LogLinear({5: 4})


def test_coefficient_example_half():
    # alpha = 1/2: m = 1, x = 0
    assert holomorphic_coefficient(S34, 1, 0) == LogLinear({3: 4})


def test_coefficient_vanishes_for_long_diff():
    # (-4, -7), trace 3, x = 0: obstructions above 3 (twice) and 7
    s = Setup(-4, -7)
    report = arakelov_degree(s, 3, 0)
    assert len(report.diff) == 3
    assert holomorphic_coefficient(s, 3, 0) == LogLinear.zero()
    assert report.coefficient.is_zero and report.degree.is_zero
    assert report.nu == 0 and report.reflex is None


def test_coefficient_vanishes_outside_dual():
    # m = 1, x = 2: x - mD is odd, so sqrt(D)*alpha = (2 + sqrt(21))/2 is not integral
    alpha = FElem(Fraction(1, 2), Fraction(2, 42))
    assert alpha.is_totally_positive(S37.D)
    assert not alpha.times_sqrtD(S37.D).is_integral(S37.D)
    assert holomorphic_coefficient(S37, 1, 2) == LogLinear.zero()
    assert arakelov_degree(S37, 1, 2) == DegreeReport((), None, 0, 0)


def test_coefficient_takes_no_imaginary_parts():
    # independence from the imaginary parts is structural: the exact code
    # path has nowhere to accept them
    import inspect

    params = inspect.signature(holomorphic_coefficient).parameters
    assert list(params) == ["setup", "m", "x"]


def test_coefficient_rejects_wrong_signature():
    # totally negative (m = -1, x = 1), zero, and mixed (x^2 = 25 > 21)
    for m, x in ((-1, 1), (0, 0), (1, 5), (1, -5)):
        with pytest.raises(ValueError, match="expected a nonzero totally positive element"):
            holomorphic_coefficient(S37, m, x)


# ---------------------------------------------------------------------------
# degrees


def _times4(degree):
    return LogLinear({p: 4 * c for p, c in degree.terms().items()})


def test_degree_example_x1():
    report = arakelov_degree(S37, 1, 1)
    assert report.degree == LogLinear({5: 1})
    assert report.nu == 1
    assert report.reflex.p == 5 and report.reflex.kind == "split_minus"
    assert report.coefficient == _times4(report.degree)


# (count, sha256) of the lines "m x diff reflex nu degree coefficient" (reprs
# of the report's values) over the half slices m <= 8, recorded from the
# report that stored nu, degree and coefficient as Fraction and LogLinear and
# read them off the ideal; the report now comes from the sieve's factors
_REPORT_GOLDEN = {
    (-3, -7): (84, "6f6968761dcd25c1cbf24fb835df94303a917e035ea460699d25ae1ff607accc"),
    (-4, -7): (99, "aa165db8aba96b0c3a84f940136df8f719e8e831456ca8dff6a7fd346fe96f15"),
    (-8, -11): (173, "4346b1288f5444bea95410987aac92c91f990a900e994e557107a557eff0db4b"),
    (-7, -23): (230, "75ef0875a6d8789f4b89f271de17d9b1fb43b58b1428869277380d467cf7c66e"),
}


@pytest.mark.parametrize("pair", sorted(_REPORT_GOLDEN))
def test_degree_report_golden(pair):
    s, lines = Setup(*pair), []
    table = _LocalTable(s)
    for m in range(1, 9):
        for x, factors in _half_slice(s, m):
            r = _index_report(table, m, x, factors)
            lines.append(f"{m} {x} {r.diff!r} {r.reflex!r} {r.nu} {r.degree!r} {r.coefficient!r}")
            assert type(r.nu) is Fraction and r.coefficient == _times4(r.degree)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == _REPORT_GOLDEN[pair]


def test_degree_example_d34_x2():
    # alpha = 1/2 + (2/24) sqrt(12): m = 1, x = 2
    report = arakelov_degree(S34, 1, 2)
    assert report.degree == LogLinear({2: 1})
    assert [q.p for q in report.diff] == [2]


def test_trace_degree_values():
    assert trace_degree(S37, 1) == LogLinear({3: 2, 5: 2})
    assert trace_degree(S34, 1) == LogLinear({2: 2, 3: 1})
    assert trace_degree(Setup(-4, -7), 1) == LogLinear({3: 6, 7: 1})
    assert trace_degree(S37, 2) == LogLinear({3: 6, 5: 6, 17: 2})


def _index(x):
    (e,) = [e for e in enumerate_trace_slice(S37, 1) if e.x == x]
    return e


# a broken input to each closed-form invariant, the call that must catch it, and
# its message; each raises InvariantError, never a bare assert, so with the source
# guard of tests/test_imports.py it holds under python -O too
_SABOTAGE = {
    "coherent_ratio_check": (
        "norm_ideal_count", lambda *args: 0,
        lambda: coherent_ratio_check(S37, 1, -3, arakelov_degree(S37, 1, -3)),
        "coherent center value disagrees with 4 * rho",
    ),
    "assemble_derivative": (
        "_ARCH_PRODUCT", 4,  # (-2i)^2 with its sign flipped
        lambda: assemble_derivative(S37, _index(1).alpha),
        "coefficient must be nonnegative",
    ),
}


@pytest.mark.parametrize("sabotage", _SABOTAGE)
def test_coherent_ratio_and_assembly_checks_survive_optimize(monkeypatch, sabotage):
    attr, broken, call, message = _SABOTAGE[sabotage]
    monkeypatch.setattr(eisenstein, attr, broken)
    with pytest.raises(InvariantError, match=re.escape(message)):
        call()


# ---------------------------------------------------------------------------
# assembly identities


def test_assembly_matches_closed_form_x1():
    assert assemble_derivative(S37, ALPHA_X1) == LogLinear({5: 4})


def test_assembly_identity_on_slices(monkeypatch):
    # the closed form reads the slice's factors first; the assembly then runs
    # with no ideal factorization and no report of the closed form to read
    cases = []
    for s in (S37, S34, Setup(-4, -7), Setup(-7, -23)):
        table = _LocalTable(s)
        for m in (1, 2, 3, 4, 5):
            for e in enumerate_trace_slice(s, m):
                report = _index_report(table, m, e.x, e.factors)
                cases.append((s, e.alpha, report, support(s, e.alpha)))
    assert {report.reflex is None for *_, report, _ in cases} == {True, False}

    def refuse(*args):
        raise AssertionError("the assembly must not read the closed form's ideal data")

    for name in ("principal_ideal", "_slice_ideal", "_index_report", "_line_sieve"):
        monkeypatch.setattr(eisenstein, name, refuse)
    for s, alpha, report, spt in cases:
        if report.reflex is None:
            with pytest.raises(ValueError, match="single obstruction prime"):
                assemble_derivative(s, alpha)
            continue
        assembled = assemble_derivative(s, alpha)
        assert assembled == report.coefficient
        assert assembled == _times4(report.degree)
        assert set(assembled.terms()) == spt


def test_assembly_rejects_long_diff():
    s = Setup(-4, -7)
    alpha = FElem(Fraction(3, 2), 0)
    with pytest.raises(ValueError):
        assemble_derivative(s, alpha)


def test_coherent_ratio_check_x1():
    # the coherent value -scalar is 4 = 4 * rho at x = 1, and the identity holds there
    _, minus = prime_ideals_above(S37, 5)
    place, _, scalar = eisenstein._local_factors(S37, ALPHA_X1)
    assert (place, -scalar) == (minus, 4) and coherent_ratio_check(S37, 1, 1, arakelov_degree(S37, 1, 1))


def test_coherent_ratio_check_takes_one_assembly_pass(monkeypatch):
    # the derivative and the coherent value come from one _local_factors call per index
    indices = [
        e.alpha
        for s in (Setup(*pair) for pair in TEST_MATRIX[:3])
        for m in range(1, 6)
        for e in enumerate_trace_slice(s, m)
        if len(diff_set(s, _slice_ideal(s, m, e.x, e.factors))) == 1
    ]
    real, calls = eisenstein._local_factors, []
    monkeypatch.setattr(eisenstein, "_local_factors", lambda s, a: calls.append(a) or real(s, a))
    assert SUITES["eisenstein"]["coherent-ratio"](random.Random(0)) is None
    assert calls == indices and len(calls) == 193


# ---------------------------------------------------------------------------
# mixed-signature coefficients


def _sigma(alpha, D, l):
    """sigma_l((a + b*sqrt(D))/c), l in {1, 2}, at the working precision."""
    u = mpmath.mpf(alpha.a) / alpha.c
    v = mpmath.mpf(alpha.b) / alpha.c
    return u + v * mpmath.sqrt(D) if l == 1 else u - v * mpmath.sqrt(D)


def test_mixed_coefficient_against_quadrature():
    alpha = FElem(Fraction(1, 2), Fraction(-5, 42))
    v1 = 0.75
    got = mixed_coefficient(S37, 1, -5, v1, 1.0, 80)
    with mpmath.mp.workprec(120):
        sigma = abs(_sigma(alpha, S37.D, 1))
        x = 4 * mpmath.pi * sigma * v1
        direct = mpmath.quad(lambda u: mpmath.exp(-u * x) / u, [1, mpmath.inf])
        # rho(alpha * different) = 2 here: norm -5 splits over the minus prime
        from cmeis.field import principal_ideal
        from cmeis.genus import norm_ideal_count

        rho = norm_ideal_count(S37, principal_ideal(S37, alpha.times_sqrtD(S37.D)))
        assert abs(got - 2 * rho * direct) < mpmath.mpf("1e-18")


def test_mixed_coefficient_zero_cases():
    # x = 9: norm 15 has an odd exponent at the chi = -1 prime over 3
    assert mixed_coefficient(S37, 1, 9, 1.0, 1.0, 60) == 0
    # x = 7: norm 7 sits over the split-in-K ramified prime, rho = 2
    assert mixed_coefficient(S37, 1, 7, 1.0, 1.0, 60) > 0
    with pytest.raises(ValueError):
        mixed_coefficient(S37, 1, 1, 1.0, 1.0, 53)  # ALPHA_X1 is totally positive


def test_nonpositive_imaginary_part_is_rejected_whatever_the_value():
    # x = 9 has rho = 0, x = 8 has x - mD odd and x = 7 reads only v2:
    # both imaginary parts are checked before any of that
    for x, v1, v2 in ((9, -1.0, -1.0), (8, -1.0, -1.0), (7, -1.0, 1.0), (7, 1.0, -1.0)):
        with pytest.raises(ValueError, match="must be positive"):
            mixed_coefficient(S37, 1, x, v1, v2, 53)


def _mixed_reference(setup, m, x, v1, v2, precision):
    """mixed_coefficient rebuilt from the FElem alpha = m/2 + (x/(2D)) sqrt(D)."""
    alpha = FElem(Fraction(m, 2), Fraction(x, 2 * setup.D))
    gen = alpha.times_sqrtD(setup.D)
    if not gen.is_integral(setup.D):
        return mpmath.mpf(0)
    rho = norm_ideal_count(setup, principal_ideal(setup, gen))
    l, v_l = (1, v1) if alpha.embedding_sign(setup.D, 1) < 0 else (2, v2)
    with mpmath.mp.workprec(precision + 16):
        mag = abs(_sigma(alpha, setup.D, l))
        return +(2 * rho * e1(4 * mpmath.pi * mag * mpmath.mpf(v_l), precision))


def test_mixed_coefficient_bit_identical_to_felem_reference():
    # the slice coordinates give the same bits as the FElem embedding, on both
    # sides of the totally positive range and at both parities of x
    rng = random.Random(20121)
    kinds = {"zero": 0, "nonzero": 0}
    for d1, d2 in TEST_MATRIX:
        setup = Setup(d1, d2)
        for _ in range(3):
            m = rng.randint(-3, 6)
            base = math.isqrt(m * m * setup.D) + 1 + rng.randrange(12)
            v1, v2 = rng.choice(((0.5, 1.25), (1.0, 0.75), (2.0, 0.1)))
            precision = rng.choice((53, 80, 128))
            for x in (base, base + 1, -base, -base - 1):
                got = mixed_coefficient(setup, m, x, v1, v2, precision)
                assert got == _mixed_reference(setup, m, x, v1, v2, precision), (setup, m, x)
                kinds["zero" if got == 0 else "nonzero"] += 1
    assert min(kinds.values()) > 0, kinds


def test_coeffs_stream_matches_the_mixed_reference():
    # coefficient_records emits the constant term, then trace by trace with x strictly
    # increasing, and its mixed records are exactly the x of the scan range whose FElem
    # reference, rounded to 53 bits, clears the display cutoff, each with that
    # reference's text: v1 != v2 both ways tells the embeddings apart
    digits = 30
    bits = _display_bits(digits)
    with mpmath.mp.workprec(53):
        cutoff = mpmath.mpf(10) ** -(digits + 2)
    for pair in ((-3, -7), (-4, -7), (-7, -23)):
        setup = Setup(*pair)
        for v1, v2 in ((0.3, 2.5), (2.5, 0.3), (1, 1)):
            records = list(coefficient_records(setup, 2, v1, v2, digits))
            assert records[0][:2] == ("0", "0")
            indices = [(int(r[0]), int(r[1])) for r in records[1:]]
            assert indices == sorted(indices) and len(set(indices)) == len(indices)
            got = {
                (m, x): r[7]
                for (m, x), r in zip(indices, records[1:])
                if x * x > m * m * setup.D
            }
            want = {}
            for m, scan in enumerate(_mixed_ranges(setup.D, 2, min(v1, v2), digits), 1):
                for x in [-x for x in scan] + list(scan):
                    ref = _mixed_reference(setup, m, x, v1, v2, bits)
                    with mpmath.mp.workprec(53):
                        if abs(+ref) >= cutoff:
                            want[m, x] = _float_str(ref, digits)
            assert got == want and want, (pair, v1, v2)


def test_fourier_coefficient_mixed_outside_inverse_different():
    # m = 1, x = -6 and 6: sqrt(D) * alpha = (x + sqrt(21))/2 is not integral (x - mD odd),
    # on either side of the totally positive range
    for x, sign in ((-6, 1), (6, 2)):
        alpha = FElem(Fraction(1, 2), Fraction(x, 42))
        assert alpha.embedding_sign(S37.D, sign) < 0 < alpha.embedding_sign(S37.D, 3 - sign)
        assert mixed_coefficient(S37, 1, x, 1.0, 1.0, 53) == 0


def test_totally_positive_index_with_cancelling_valuations():
    # sqrt(D) * alpha = (-21 + 11*sqrt(21))/5 has valuations +1 and -1 above
    # 5 although its norm is prime to 5: alpha is outside the inverse different,
    # and its trace 22/5 gives the closed form no (m, x)
    alpha = FElem(Fraction(11, 5), Fraction(-1, 5))
    assert alpha.is_totally_positive(S37.D)
    assert alpha.trace() == Fraction(22, 5)
    assert not principal_ideal(S37, alpha.times_sqrtD(S37.D)).is_integral
    with pytest.raises(ValueError, match="outside the inverse different"):
        assemble_derivative(S37, alpha)


# ---------------------------------------------------------------------------
# constant term


def test_constant_term_class_number_value():
    # Lambda(0) = (2 h1 / w1)(2 h2 / w2) = 1/3 for (-3, -7)
    h1, h2 = class_number(-3), class_number(-7)
    lam = Fraction(2 * h1, S37.w1) * Fraction(2 * h2, S37.w2)
    assert lam == Fraction(1, 3)
    with mpmath.mp.workprec(160):
        t = mpmath.mpf(5)
        scaling = constant_term(S37, t, t, 128) - constant_term(S37, 1, 1, 128)
        expected = 2 * mpmath.mpf(lam.numerator) / lam.denominator * mpmath.log(t)
        assert abs(scaling - expected) < mpmath.mpf(2) ** -96


def test_constant_term_at_unit_v():
    # log(v1 v2) drops out at v = 1, leaving -2 Lambda'(0)
    from cmeis.oracle import lambda_at_zero

    c1 = lambda_at_zero(-3, 128)
    c2 = lambda_at_zero(-7, 128)
    with mpmath.mp.workprec(160):
        lam_prime = (
            c1.completed_derivative * c2.l_value
            + c1.l_value * c2.completed_derivative
        )
        got = constant_term(S37, 1, 1, 128)
        assert abs(got + 2 * lam_prime) < mpmath.mpf(2) ** -100


def test_constant_term_rejects_bad_v():
    with pytest.raises(ValueError):
        constant_term(S37, 0, 1, 128)

