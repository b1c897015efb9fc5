import dataclasses
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cmeis.eisenstein
import cmeis.field
from cmeis.eisenstein import _index_report, _LocalTable, _one_index_report
from cmeis.exact import InvariantError, factor, hilbert_symbol, is_prime, padic_val
from cmeis.field import (
    FElem,
    FIdealFactored,
    FPrimeIdeal,
    Setup,
    SetupError,
    _half_slice,
    _invariant_diagonal,
    _line_sieve,
    _slice_ideal,
    element_valuation,
    enumerate_trace_slice,
    local_invariants,
    prime_ideals_above,
    principal_ideal,
    support,
)
from cmeis.exact import OO
from cmeis.verify import SUITES, TEST_MATRIX, _ideal_report


def _norm(ideal):
    """The absolute norm of a factored ideal, a positive rational."""
    return math.prod(Fraction(prm.norm) ** e for prm, e in ideal.entries)


def _conjugate(ideal):
    """The Galois conjugate of a factored ideal: the two split primes above each p swap."""
    return FIdealFactored.from_pairs((prm.conjugate(), e) for prm, e in ideal.entries)


# ---------------------------------------------------------------------------
# setup validation


def test_setup_accepts_matrix():
    for d1, d2 in TEST_MATRIX:
        s = Setup(d1, d2)
        assert s.D == d1 * d2 > 0


def test_setup_unit_counts():
    assert Setup(-3, -7).w1 == 6
    assert Setup(-4, -7).w1 == 4
    assert Setup(-7, -8).w1 == 2
    assert Setup(-3, -4).w2 == 4


def test_setup_keeps_D_out_of_repr_eq_and_hash():
    # D is computed once and kept on the instance; what a Setup shows and compares is unchanged
    s, twin = Setup(-3, -7), Setup(-3, -7)
    assert s.D == 21  # read on s alone
    assert repr(s) == "Setup(d1=-3, d2=-7)"
    assert s == twin and hash(s) == hash(twin) and {s: 1}[twin] == 1
    assert s != Setup(-7, -3) and Setup(-7, -3).D == 21
    moved = dataclasses.replace(s, d2=-4)
    assert moved == Setup(-3, -4) and moved.D == 12 and repr(moved) == "Setup(d1=-3, d2=-4)"
    assert dataclasses.replace(s) == s
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.d1 = -4


@pytest.mark.parametrize(
    "d1,d2",
    [
        (-3, -9),  # -9 not fundamental
        (-3, -12),  # -12 not fundamental (-12/4 = -3 = 1 mod 4)
        (-3, -21),  # gcd 3
        (-4, -8),  # gcd 4
        (3, -7),  # positive
        (-3, 5),
        (-5, -7),  # -5 = 3 mod 4, not a discriminant
    ],
)
def test_setup_rejects(d1, d2):
    with pytest.raises(SetupError):
        Setup(d1, d2)


# ---------------------------------------------------------------------------
# splitting


def test_prime_splitting_examples():
    s = Setup(-3, -7)
    plus, minus = prime_ideals_above(s, 5)
    assert plus.kind == "split_plus" and minus.kind == "split_minus"
    (ram,) = prime_ideals_above(s, 3)
    assert ram.kind == "ramified" and ram.norm == 3
    (inert,) = prime_ideals_above(s, 2)  # 21 = 5 mod 8
    assert inert.kind == "inert" and inert.norm == 4


# ---------------------------------------------------------------------------
# valuations and principal ideals


def test_valuation_examples():
    s = Setup(-3, -7)
    beta = FElem(Fraction(1, 2), Fraction(1, 2))  # (1 + sqrt(21))/2, norm -5
    plus, minus = prime_ideals_above(s, 5)
    assert element_valuation(s, beta, plus) == 0
    assert element_valuation(s, beta, minus) == 1
    (ram3,) = prime_ideals_above(s, 3)
    assert element_valuation(s, FElem(0, 1), ram3) == 1  # sqrt(21)
    one = FElem(1, 0)
    for p in (2, 3, 5, 7):
        for prm in prime_ideals_above(s, p):
            assert element_valuation(s, one, prm) == 0


def test_valuation_rejects_zero():
    s = Setup(-3, -7)
    (prm,) = prime_ideals_above(s, 3)
    with pytest.raises(ValueError):
        element_valuation(s, FElem(0, 0), prm)


def test_principal_ideal_examples():
    s = Setup(-3, -7)
    beta = FElem(Fraction(1, 2), Fraction(1, 2))
    ideal = principal_ideal(s, beta)
    assert len(ideal.entries) == 1
    prm, e = ideal.entries[0]
    assert (prm.p, prm.kind, e) == (5, "split_minus", 1)
    assert principal_ideal(s, FElem(1, 0)).entries == ()
    sqrt21 = principal_ideal(s, FElem(0, 1))
    assert {(q.p, q.kind, e) for q, e in sqrt21.entries} == {
        (3, "ramified", 1),
        (7, "ramified", 1),
    }


def test_principal_ideal_norms_random():
    rng = random.Random(7)
    for d1, d2 in TEST_MATRIX:
        s = Setup(d1, d2)
        for _ in range(40):
            u = Fraction(rng.randint(-30, 30), rng.randint(1, 20))
            v = Fraction(rng.randint(-30, 30), rng.randint(1, 20))
            beta = FElem(u, v)
            if beta.is_zero:
                continue
            assert _norm(principal_ideal(s, beta)) == abs(beta.norm(s.D))


def test_principal_ideal_keeps_primes_cancelling_in_the_norm():
    # sqrt(D) * alpha = (-21 + 11*sqrt(21))/5 has norm -2100/25 = -84, a
    # 5-adic unit, but valuations +1 and -1 at the two primes above 5
    s = Setup(-3, -7)
    gen = FElem(Fraction(11, 5), Fraction(-1, 5)).times_sqrtD(s.D)
    ideal = principal_ideal(s, gen)
    above5 = prime_ideals_above(s, 5)
    assert sorted(ideal.ord_at(prm) for prm in above5) == [-1, 1]
    assert _norm(ideal) == abs(gen.norm(s.D))


def test_principal_ideal_matches_element_valuation_random():
    # every prime of (a^2 - D b^2) * c, checked one by one
    rng = random.Random(11)
    for d1, d2 in TEST_MATRIX:
        s = Setup(d1, d2)
        for _ in range(40):
            c = rng.choice([1, 2, 5, 6, 15, 35, 77, rng.randint(1, 200)])
            beta = FElem.from_triple(rng.randint(-300, 300), rng.randint(-30, 30), c)
            if beta.is_zero:
                continue
            ideal = principal_ideal(s, beta)
            a, b = beta.a, beta.b
            expected = {
                prm: element_valuation(s, beta, prm)
                for p, _ in factor(abs(a * a - s.D * b * b) * beta.c)
                for prm in prime_ideals_above(s, p)
            }
            assert {prm: e for prm, e in expected.items() if e} == dict(ideal.entries)


def test_different_ideal():
    # the different of F/Q is (sqrt(D)), of norm D
    sqrt_d = FElem(0, 1)
    s = Setup(-3, -7)
    d = principal_ideal(s, sqrt_d)
    assert {(q.p, e) for q, e in d.entries} == {(3, 1), (7, 1)}
    s34 = Setup(-3, -4)
    d34 = principal_ideal(s34, sqrt_d)
    assert {(q.p, e) for q, e in d34.entries} == {(2, 2), (3, 1)}
    for d1, d2 in TEST_MATRIX:
        s = Setup(d1, d2)
        assert _norm(principal_ideal(s, sqrt_d)) == s.D


# ---------------------------------------------------------------------------
# trace slices


def test_trace_slice_examples():
    s = Setup(-3, -7)
    elems = enumerate_trace_slice(s, 1)
    assert [e.x for e in elems] == [-3, -1, 1, 3]
    # the (p, e) pairs of n(x) = (21 - x^2)/4 = 3, 5, 5, 3
    assert [e.factors for e in elems] == [((3, 1),), ((5, 1),), ((5, 1),), ((3, 1),)]
    s34 = Setup(-3, -4)
    elems34 = enumerate_trace_slice(s34, 1)
    assert [e.x for e in elems34] == [-2, 0, 2]
    assert [e.factors for e in elems34] == [((2, 1),), ((3, 1),), ((2, 1),)]


@st.composite
def _slice_indices(draw):
    """(setup, m, x) for an integral ((x + m*sqrt(D))/2): an admissible slice
    index or, half the time, any nonzero element of either sign (m <= 0
    included, as on the mixed-signature path); often scaled by a common
    factor g so that primes dividing gcd(x, m) get exercised."""
    s = Setup(*draw(st.sampled_from(TEST_MATRIX)))
    if draw(st.booleans()):
        m0 = draw(st.integers(1, 12))
        xmax = math.isqrt(m0 * m0 * s.D - 1)
        first = -xmax + (xmax - m0 * s.D) % 2
        x0 = first + 2 * draw(st.integers(0, (xmax - first) // 2))
    else:
        m0 = draw(st.integers(-12, 12))
        x0 = 2 * draw(st.integers(-300, 300)) + m0 * s.D % 2
        assume(m0 or x0)
    g = draw(st.sampled_from((1, 1, 2, 3, 4, 5, 7, 8, 23, 25)))
    return s, g * m0, g * x0


# (-7, -23): D = 161 = 1 mod 8, so 2 splits; 2 | gcd(x, m) and 5 | gcd(x, m)
@example((Setup(-7, -23), 1, 1))
@example((Setup(-7, -23), 2, 6))
@example((Setup(-7, -23), 4, 12))
@example((Setup(-7, -23), 5, 5))
@example((Setup(-3, -11), 2, 2))
# mixed-signature indices, |x| > |m|*sqrt(D), m <= 0 included
@example((Setup(-7, -23), -1, 15))
@example((Setup(-7, -23), 1, -15))
@example((Setup(-3, -11), -2, -14))
@example((Setup(-7, -23), 0, 2))
# the p-part p^t of the content: odd p with e = 2t and with e > 2t; at p = 2
# t stopped by x/2^t = m/2^t (mod 2), and t = 3; x = 0, m = 0, m < 0
@example((Setup(-3, -7), 5, 15))
@example((Setup(-3, -7), 5, 5))
@example((Setup(-7, -23), 4, 8))
@example((Setup(-7, -23), 4, 0))
@example((Setup(-7, -23), 8, 24))
@example((Setup(-7, -23), 0, 10))
@example((Setup(-7, -23), -2, 30))
@settings(max_examples=600, deadline=None)
@given(_slice_indices())
def test_slice_ideal_matches_principal_ideal(index):
    s, m, x = index
    n = abs(m * m * s.D - x * x) // 4
    gen = FElem(Fraction(x, 2), Fraction(m, 2))
    ideal = principal_ideal(s, gen)
    assert _slice_ideal(s, m, x, factor(n)) == ideal
    # the closed form's one-index sieve, x of either sign, m <= 0 included: its (p, e)
    # pairs are factor(n)'s and build the ideal, and the report it reads off them from
    # the integers alone is the one diff_set and norm_ideal_count read off the ideal
    ((_, factors),) = _line_sieve(s, m, range(x, x + 1, 2))
    assert factors == list(factor(n))
    assert _one_index_report(s, m, x) == _ideal_report(s, ideal)


def _mirror_holds(s, m, x):
    n = abs(m * m * s.D - x * x) // 4
    return _conjugate(_slice_ideal(s, m, x, factor(n))) == _slice_ideal(s, m, -x, factor(n))


# (-7, -23): 2 splits in F; 2 | gcd(x, m), 5 | gcd(x, m), 3 | gcd(x, m)
@example((Setup(-7, -23), 1, 1))
@example((Setup(-7, -23), 2, 6))
@example((Setup(-7, -23), 4, 12))
@example((Setup(-7, -23), 5, 5))
@example((Setup(-7, -23), 6, 30))
@example((Setup(-3, -11), 2, 2))
@settings(max_examples=300, deadline=None)
@given(_slice_indices())
def test_slice_ideal_mirror(index):
    # the ideal at -x is the Galois conjugate of the one at x
    assert _mirror_holds(*index)


def test_slice_ideal_mirror_can_fail(monkeypatch):
    # a conjugation that leaves split_plus and split_minus in place must fail the
    # mirror property, and an ideal at -x that is the one at x, unconjugated, must
    # fail the field suite's comparison with principal_ideal
    monkeypatch.setattr(FPrimeIdeal, "conjugate", lambda self: self)
    assert not _mirror_holds(Setup(-7, -23), 1, 1)
    monkeypatch.setattr(
        cmeis.verify, "_slice_ideal", lambda s, m, x, factors: _slice_ideal(s, m, abs(x), factors)
    )
    assert SUITES["field"]["trace-slice-invariants"](random.Random(0))


def test_slice_invariants_check_the_rule_at_negative_x(monkeypatch):
    # the split side swapped at x < 0 alone: the check builds the ideal at each index,
    # so it fails; a check that conjugated the x >= 0 ideal never saw x < 0
    def swapped_below_zero(s, m, x, factors):
        ideal = _slice_ideal(s, m, x, factors)
        return _conjugate(ideal) if x < 0 else ideal

    for module in (cmeis.field, cmeis.verify):
        monkeypatch.setattr(module, "_slice_ideal", swapped_below_zero)
    detail = SUITES["field"]["trace-slice-invariants"](random.Random(0))
    assert detail == "slice invariants failed at x=-1, m=1, Setup(d1=-3, d2=-7)"


def test_slice_ideal_checksum_can_fail():
    # a factor list that claims a split p past the content of (x + m sqrt(D))/2
    # = p^t (u + w sqrt(D))/2 must name the prime where sqrt(D) = -u/w: in
    # Q(sqrt(21)) 37 splits but does not divide n(1) = 5 at m = 1, and at m = 5
    # the claimed 5 divides w; in Q(sqrt(161)) 2 splits, and at m = 2, x = 0
    # the content is 1 and w = 2 is even; the reports' integer rule checks the same
    for setup, m, x, factors in (
        (Setup(-3, -7), 1, 1, [(37, 1)]),
        (Setup(-3, -7), 5, 1, [(5, 1), (131, 1)]),
        (Setup(-7, -23), 2, 0, [(2, 1), (7, 1), (23, 1)]),
    ):
        with pytest.raises(InvariantError, match="not in exactly one root class"):
            _slice_ideal(setup, m, x, factors)
        with pytest.raises(InvariantError, match="not in exactly one root class"):
            _index_report(_LocalTable(setup), m, x, factors)


def test_local_rule_guards_can_fail(monkeypatch):
    # an odd exponent at an inert prime (2 in Q(sqrt(21))) fails both rules; an obstruction
    # place of residue degree 2, which only a wrong chi at an inert prime makes, fails the report
    s = Setup(-3, -7)
    with pytest.raises(InvariantError, match="odd norm valuation at an inert prime"):
        _slice_ideal(s, 1, 1, [(2, 1)])
    with pytest.raises(InvariantError, match="odd norm valuation at an inert prime"):
        _index_report(_LocalTable(s), 1, 1, [(2, 1)])
    monkeypatch.setattr(
        cmeis.eisenstein, "genus_char_prime", lambda setup, prm: -1 if prm.kind == "inert" else 1
    )
    with pytest.raises(InvariantError, match="obstruction primes have residue degree 1"):
        _index_report(_LocalTable(s), 1, 1, [(2, 2)])


def test_swapped_root_fails_the_slice_checks(monkeypatch):
    # the other root of D at odd p swaps split_plus and split_minus on the Hensel
    # check path alone: the trace line reads each split prime's side off the index
    root = cmeis.field.sqrt_mod_prime_power
    monkeypatch.setattr(
        cmeis.field, "sqrt_mod_prime_power",
        lambda D, p, k: root(D, p, k) if p == 2 else p**k - root(D, p, k),
    )
    principal_ideal.cache_clear()
    element_valuation.cache_clear()
    try:
        detail = SUITES["field"]["trace-slice-invariants"](random.Random(0))
        assert detail == "slice invariants failed at x=-1, m=1, Setup(d1=-3, d2=-7)"
        detail = SUITES["eisenstein"]["coherent-ratio"](random.Random(0))
        assert detail == "coherent ratio failed at x=-1, m=1, Setup(d1=-3, d2=-7)"
    finally:
        principal_ideal.cache_clear()
        element_valuation.cache_clear()


_SIEVE_CASES = [(pair, range(1, 41)) for pair in TEST_MATRIX] + [
    ((-191, -239), range(1, 4)),
    ((-3, -479), range(1, 4)),
    ((-479, -719), (4,)),  # sqrt(max n) ~ 1173 > 997: some rest is composite
]


def test_sieved_half_slice_matches_factor(monkeypatch):
    # the sieve gives factor's (p, e) pairs of |m^2 D - x^2|/4, taken from (m, x), in order
    setups = [(Setup(*pair), ms) for pair, ms in _SIEVE_CASES]
    rests = []
    monkeypatch.setattr(cmeis.field, "factor", lambda n: rests.append(n) or factor(n))
    for s, ms in setups:
        for m in ms:
            for x, factors in _half_slice(s, m):
                assert factors == list(factor((m * m * s.D - x * x) // 4)), (s, m, x)
    # only a rest past 997^2 can be composite, and only then does the sieve call factor
    assert rests and all(r > 997**2 and not is_prime(r) for r in rests)


def test_trace_slice_rejects_bad_m():
    with pytest.raises(ValueError):
        enumerate_trace_slice(Setup(-3, -7), 0)


# ---------------------------------------------------------------------------
# local invariants


def test_support_example():
    s = Setup(-3, -7)
    alpha = FElem(Fraction(1, 2), Fraction(1, 42))
    assert support(s, alpha) == {5}


def test_support_odd_and_product_formula():
    for d1, d2 in TEST_MATRIX[:4]:
        s = Setup(d1, d2)
        for m in (1, 2, 3):
            for e in enumerate_trace_slice(s, m):
                signs = local_invariants(s, e.alpha)
                spt = support(s, e.alpha)
                assert len(spt) % 2 == 1
                assert spt == {pl for pl, sign in signs.items() if sign == -1} - {OO}
                # every sign off these places is +1: this is the full product formula
                assert math.prod(signs.values()) == 1


@st.composite
def _totally_positive_indices(draw):
    """(setup, alpha) for alpha = m/2 + (x/(2D)) sqrt(D) on a trace-m slice,
    often scaled by a common factor so that gcd(x, m) carries primes."""
    s = Setup(*draw(st.sampled_from(TEST_MATRIX)))
    m = draw(st.integers(1, 12))
    xmax = math.isqrt(m * m * s.D - 1)
    first = -xmax + (xmax - m * s.D) % 2
    x = first + 2 * draw(st.integers(0, (xmax - first) // 2))
    g = draw(st.sampled_from((1, 1, 2, 3, 5, 7, 23)))
    return s, FElem.from_triple(g * m * s.D, g * x, 2 * s.D)


@settings(max_examples=300, deadline=None)
@given(_totally_positive_indices())
def test_local_invariants_match_pairwise_symbols(index):
    s, alpha = index
    diag = _invariant_diagonal(s, alpha)
    signs = local_invariants(s, alpha)
    for pl, sign in signs.items():
        pairwise = math.prod(
            hilbert_symbol(diag[i], diag[j], pl) for i in range(4) for j in range(i + 1, 4)
        )
        assert sign == pairwise * hilbert_symbol(-1, -1, pl)
    assert signs[OO] == -1
    assert math.prod(signs.values()) == 1
    assert support(s, alpha) == {pl for pl, sign in signs.items() if sign == -1} - {OO}


def test_local_invariant_rejects_mixed():
    s = Setup(-3, -7)
    with pytest.raises(ValueError):
        support(s, FElem(Fraction(1, 2), Fraction(-5, 42)))


# ---------------------------------------------------------------------------
# factored ideals


def test_ideal_algebra():
    s = Setup(-3, -7)
    plus, minus = prime_ideals_above(s, 5)
    a = FIdealFactored.from_pairs([(plus, 2), (minus, 1)])
    b = FIdealFactored.from_pairs([(minus, -1)])
    ab = FIdealFactored.from_pairs(a.entries + b.entries)
    assert ab.ord_at(minus) == 0
    assert ab.ord_at(plus) == 2
    assert _norm(a) == 125
    assert not b.is_integral
    assert a.times(plus, -2).ord_at(plus) == 0


def test_times_matches_from_pairs_on_slice_ideals():
    # an entry's exponent changes in place (and goes at 0); a new prime is merged in
    cancelled = 0
    for pair in TEST_MATRIX:
        s = Setup(*pair)
        for m in (1, 2, 3, 4, 5, 6):
            for e in enumerate_trace_slice(s, m):
                ideal = _slice_ideal(s, m, e.x, e.factors)
                entries = ideal.entries
                prms = {prm for prm, _ in entries}
                prms.update(prm for q in (2, 3, 5, 7) for prm in prime_ideals_above(s, q))
                for prm in prms:
                    e_prm = ideal.ord_at(prm)
                    for k in {1, -1, 2, -e_prm}:
                        got = ideal.times(prm, k)
                        assert got == FIdealFactored.from_pairs(entries + ((prm, k),))
                    cancelled += e_prm != 0
    assert cancelled


def _felem_mul(a: FElem, b: FElem, D: int) -> FElem:
    return FElem(a.u * b.u + a.v * b.v * D, a.u * b.v + a.v * b.u)


def test_split_valuation_powers_and_conjugation():
    s = Setup(-3, -7)
    plus, minus = prime_ideals_above(s, 5)
    base = FElem(Fraction(1), Fraction(1))  # 1 + sqrt(21), above 5: (0, 1)
    assert element_valuation(s, base, plus) == 0
    assert element_valuation(s, base, minus) == 1
    beta = base
    for k in range(1, 6):
        assert element_valuation(s, beta, minus) == k
        assert element_valuation(s, beta, plus) == 0
        # conjugation swaps the two primes above a split rational prime
        conj = FElem.from_triple(beta.a, -beta.b, beta.c)
        assert element_valuation(s, conj, plus) == k
        assert element_valuation(s, conj, minus) == 0
        # rational scaling shifts both valuations together
        scaled = FElem(beta.u * 25, beta.v * 25)
        assert element_valuation(s, scaled, plus) == 2
        assert element_valuation(s, scaled, minus) == k + 2
        beta = _felem_mul(beta, base, s.D)


# ---------------------------------------------------------------------------
# FElem against the rational definitions u + v*sqrt(D)


def _triple(elem):
    """(a, b, c) with elem = (a + b*sqrt(D))/c, c > 0 and gcd(a, b, c) = 1."""
    c = math.lcm(elem.u.denominator, elem.v.denominator)
    return int(elem.u * c), int(elem.v * c), c


def test_felem_canonical_form():
    half = FElem(Fraction(1, 2), Fraction(1, 2))
    for other in (FElem(Fraction(2, 4), Fraction(2, 4)), FElem(Fraction(-3, -6), Fraction(5, 10))):
        assert other == half and hash(other) == hash(half)
    assert _triple(half) == (1, 1, 2)
    assert FElem(Fraction(1, 2), Fraction(1, 3)) != FElem(Fraction(1, 3), Fraction(1, 2))
    assert _triple(FElem(Fraction(-1, 6), Fraction(5, -4))) == (-2, -15, 12)
    assert _triple(FElem(0, 0)) == (0, 0, 1)
    # the stored triple is the canonical one, however the element was built
    assert FElem.from_triple(2, 2, 4) == half and hash(FElem.from_triple(-2, -2, -4)) == hash(half)
    built = (FElem(Fraction(-1, 6), Fraction(5, -4)), FElem.from_triple(6, -9, -3), FElem.from_triple(0, 0, -7))
    for elem in (half, *built):
        assert (elem.a, elem.b, elem.c) == _triple(elem) and elem.c > 0


_rationals = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**4))


def _reference_sigma(u: Fraction, v: Fraction, D: int, l: int, precision: int):
    """sigma_l(u + v*sqrt(D)) in mpmath, apart from FElem."""
    with mpmath.mp.workprec(precision):
        s = mpmath.sqrt(D) if l == 1 else -mpmath.sqrt(D)
        return mpmath.mpf(u.numerator) / u.denominator + mpmath.mpf(v.numerator) / v.denominator * s


@example(Setup(-3, -7), Fraction(0), Fraction(-1, 42))
@example(Setup(-3, -7), Fraction(-5, 2), Fraction(0))
@example(Setup(-7, -23), Fraction(0), Fraction(0))
@example(Setup(-7, -23), Fraction(1, 2), Fraction(-1, 22))
@settings(max_examples=400, deadline=None)
@given(st.sampled_from([Setup(*pair) for pair in TEST_MATRIX]), _rationals, _rationals)
def test_felem_matches_rational_definitions(s, u, v):
    D = s.D
    elem = FElem(u, v)
    assert (elem.u, elem.v) == (u, v)
    assert elem.is_zero == (u == 0 and v == 0)
    assert elem.trace() == 2 * u
    assert elem.norm(D) == u * u - D * v * v
    assert FElem.from_triple(elem.a, -elem.b, elem.c) == FElem(u, -v)
    assert elem.times_sqrtD(D) == FElem(v * D, u)
    a, b = 2 * u, 2 * v
    integral = a.denominator == 1 and b.denominator == 1 and (a - b * D) % 2 == 0
    assert elem.is_integral(D) == integral
    for l in (1, 2):
        sigma = _reference_sigma(u, v, D, l, 200)
        with mpmath.mp.workprec(200):
            root = mpmath.sqrt(D) if l == 1 else -mpmath.sqrt(D)
            assert mpmath.mpf(elem.a) / elem.c + mpmath.mpf(elem.b) / elem.c * root == sigma
        assert elem.embedding_sign(D, l) == (sigma > 0) - (sigma < 0)


def _rational_valuation(s, beta, prm):
    """ord of beta at prm from u and v: clear denominators, then split/norm."""
    p = prm.p
    if prm.kind != "split_plus" and prm.kind != "split_minus":
        t = padic_val(beta.norm(s.D), p)
        return t // 2 if prm.kind == "inert" else t
    den = math.lcm(beta.u.denominator, beta.v.denominator)
    a, b = int(beta.u * den), int(beta.v * den)
    t = padic_val(a * a - s.D * b * b, p)
    return cmeis.field._split_valuation(s.D, a, b, t, prm) - padic_val(den, p)


@example(Setup(-7, -23), Fraction(1, 4), Fraction(3, 4))  # 2 splits, 2 in both denominators
@example(Setup(-3, -7), Fraction(25), Fraction(25))
@settings(max_examples=300, deadline=None)
@given(st.sampled_from([Setup(*pair) for pair in TEST_MATRIX]), _rationals, _rationals)
def test_element_valuation_matches_rational_clearing(s, u, v):
    assume(u or v)
    beta = FElem(u, v)
    ps = {2, 3, 5, 7} | {p for p, _ in factor(abs(beta.norm(s.D).numerator))}
    for p in ps:
        for prm in prime_ideals_above(s, p):
            assert element_valuation(s, beta, prm) == _rational_valuation(s, beta, prm)


# (setup, u, v) -> _invariant_diagonal, recorded from the Fraction implementation
_DIAGONALS = [
    ((-3, -7), Fraction(1, 2), Fraction(1, 42), (1, 20, 3, 60)),
    ((-3, -7), Fraction(2), Fraction(2, 21), (4, 80, 12, 240)),
    ((-3, -4), Fraction(1), Fraction(0), (2, 24, 6, 72)),
    ((-7, -23), Fraction(3, 2), Fraction(17, 322), (3, 3480, 21, 24360)),
    ((-7, -23), Fraction(5, 2), Fraction(-31, 322), (5, 15320, 35, 107240)),
    ((-8, -11), Fraction(7, 3), Fraction(-1, 5), (42, 40009200, 336, 320073600)),
    ((-4, -11), Fraction(1, 2), Fraction(3, 44), (1, 8, 4, 32)),
]


@pytest.mark.parametrize("pair,u,v,expected", _DIAGONALS)
def test_invariant_diagonal_golden(pair, u, v, expected):
    assert _invariant_diagonal(Setup(*pair), FElem(u, v)) == expected


# the per-place signs at the _DIAGONALS inputs, recorded from the per-place implementation
_SIGNS = [
    {OO: -1, 2: 1, 3: 1, 5: -1},
    {OO: -1, 2: 1, 3: 1, 5: -1},
    {OO: -1, 2: 1, 3: -1},
    {OO: -1, 2: 1, 3: 1, 5: -1, 7: 1, 29: 1},
    {OO: -1, 2: 1, 5: 1, 7: 1, 383: -1},
    {OO: -1, 2: -1, 3: 1, 5: 1, 7: 1, 11: 1, 433: 1},
    {OO: -1, 2: -1},
]


@pytest.mark.parametrize(
    "pair,u,v,expected", [row[:3] + (signs,) for row, signs in zip(_DIAGONALS, _SIGNS)]
)
def test_local_invariants_golden(pair, u, v, expected):
    s, alpha = Setup(*pair), FElem(u, v)
    assert local_invariants(s, alpha) == expected
    assert support(s, alpha) == {pl for pl, sign in expected.items() if sign == -1} - {OO}
