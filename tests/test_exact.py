import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmeis.exact import (
    OO,
    LogLinear,
    factor,
    hasse_invariant,
    hilbert_symbol,
    is_prime,
    kronecker,
    padic_val,
    sqrt_mod_prime_power,
)

nonzero_ints = st.integers(min_value=-(10**9), max_value=10**9).filter(lambda n: n != 0)
small_rationals = st.fractions(
    min_value=-30, max_value=30, max_denominator=30
).filter(lambda q: q != 0)


# ---------------------------------------------------------------------------
# factorization


def test_factor_examples():
    assert factor(3375) == ((3, 3), (5, 3))
    assert factor(1) == ()
    assert factor(-1728) == factor(1728) == ((2, 6), (3, 3))


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor(0)


@settings(max_examples=300, deadline=None)
@given(nonzero_ints)
def test_factor_roundtrip(n):
    f = factor(n)
    assert math.prod(p**e for p, e in f) == abs(n)
    assert all(is_prime(p) and e >= 1 for p, e in f)
    primes = [p for p, _ in f]
    assert primes == sorted(set(primes))


def test_is_prime_matches_trial_division():
    # below 1009^2 the small-prime loop decides alone; past it Miller-Rabin does
    def by_trial(n):
        return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))

    for n in [*range(-2, 5000), *range(1009**2 - 100, 1009**2 + 100)]:
        assert is_prime(n) == by_trial(n)


def test_factor_large_semiprime():
    p, q = 10**6 + 3, 10**6 + 33  # both prime, beyond the small-prime sieve
    assert dict(factor(p * q)) == {p: 1, q: 1}
    assert dict(factor(p * p * q)) == {p: 2, q: 1}


# ---------------------------------------------------------------------------
# kronecker


def test_kronecker_examples():
    # squares mod 5 are {1, 4}; 21 = 1, -3 = 2 mod 5
    assert kronecker(21, 5) == 1
    assert kronecker(-3, 5) == -1
    for a in (-7, -1, 0, 2, 9, 100):
        assert kronecker(a, 1) == 1


def test_kronecker_against_euler_criterion():
    for p in (3, 5, 7, 11, 13, 17, 101):
        for a in range(1, p):
            expected = 1 if pow(a, (p - 1) // 2, p) == 1 else -1
            assert kronecker(a, p) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(-500, 500), st.integers(-500, 500), st.integers(-500, 500))
def test_kronecker_multiplicative(a, b, n):
    if (a * b, n) == (0, 0) or (a, n) == (0, 0) or (b, n) == (0, 0):
        return
    assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


# ---------------------------------------------------------------------------
# hilbert symbol


def test_hilbert_examples():
    assert hilbert_symbol(-1, -1, OO) == -1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(2, 3, 2) == -1
    for place in (OO, 2, 3, 5, 97):
        assert hilbert_symbol(1, Fraction(7, 3), place) == 1


def _search_solvable(a: int, b: int, p: int, k: int) -> bool:
    # primitive solution of z^2 = a x^2 + b y^2 mod p^k
    mod = p**k
    squares = {}
    for z in range(mod):
        squares.setdefault(z * z % mod, []).append(z)
    for x in range(mod):
        for y in range(mod):
            rhs = (a * x * x + b * y * y) % mod
            for z in squares.get(rhs, ()):
                if x % p or y % p or z % p:
                    return True
    return False


@pytest.mark.parametrize(
    "a,b,p,k",
    [
        (-1, -1, 2, 5),
        (2, 3, 2, 5),
        (1, -1, 2, 5),
        (3, 5, 2, 5),
        (-2, 5, 2, 5),
        (2, 5, 3, 3),
        (3, 5, 3, 3),
        (3, 3, 3, 3),
        (-3, 7, 3, 3),
        (5, 11, 5, 3),
        (5, 5, 5, 3),
        (10, 15, 5, 3),
        (7, -7, 7, 3),
        (7, 3, 7, 3),
    ],
)
def test_hilbert_against_search(a, b, p, k):
    assert (hilbert_symbol(a, b, p) == 1) == _search_solvable(a, b, p, k)


@settings(max_examples=150, deadline=None)
@given(small_rationals, small_rationals, small_rationals)
def test_hilbert_square_invariance_and_bimultiplicativity(a, b, c):
    for place in (OO, 2, 3, 5, 7):
        assert hilbert_symbol(a, b * c * c, place) == hilbert_symbol(a, b, place)
        assert hilbert_symbol(a, b, place) == hilbert_symbol(b, a, place)
        assert hilbert_symbol(a, b * c, place) == hilbert_symbol(
            a, b, place
        ) * hilbert_symbol(a, c, place)


@settings(max_examples=150, deadline=None)
@given(small_rationals, small_rationals)
def test_hilbert_product_formula(a, b):
    places = {OO, 2}
    for x in (a, b):
        places.update(p for p, _ in factor(abs(x.numerator)))
        places.update(p for p, _ in factor(x.denominator))
    assert math.prod(hilbert_symbol(a, b, pl) for pl in places) == 1


def test_hasse_examples():
    for place in (OO, 2, 3, 5):
        assert hasse_invariant([1, 1, 1, 1], place) == 1
    assert hasse_invariant([-1, -1], OO) == -1
    assert hasse_invariant([2, 3], 2) == -1
    # permutation invariance
    assert hasse_invariant([2, 3, 5], 2) == hasse_invariant([5, 2, 3], 2)


@settings(max_examples=200, deadline=None)
@given(st.lists(small_rationals, min_size=1, max_size=5))
def test_hasse_matches_pairwise_product(diag):
    # the prefix-product form against the defining prod_{i<j} (a_i, a_j)
    for place in (OO, 2, 3, 5, 7, 11):
        pairwise = math.prod(
            hilbert_symbol(diag[i], diag[j], place)
            for i in range(len(diag))
            for j in range(i + 1, len(diag))
        )
        assert hasse_invariant(diag, place) == pairwise


# ---------------------------------------------------------------------------
# square roots mod p^k


def test_sqrt_examples():
    assert sqrt_mod_prime_power(21, 5, 1) == 1
    assert sqrt_mod_prime_power(21, 5, 2) == 11
    for D, p, k in ((21, 5, 4), (33, 2, 7), (161, 5, 3), (88, 3, 5)):
        r = sqrt_mod_prime_power(D, p, k)
        assert (r * r - D) % p**k == 0


def test_sqrt_canonical_choice():
    # odd p: lift of the least nonnegative root mod p
    assert sqrt_mod_prime_power(21, 5, 3) % 5 == 1
    # p = 2: the root congruent to 1 mod 4, coherent down the tower
    for k in range(3, 10):
        r = sqrt_mod_prime_power(17, 2, k)
        assert r % 4 == 1
        assert sqrt_mod_prime_power(17, 2, k + 1) % 2**k == r


def test_sqrt_rejects_nonresidue():
    with pytest.raises(ValueError):
        sqrt_mod_prime_power(2, 5, 1)  # 2 is not a square mod 5
    with pytest.raises(ValueError):
        sqrt_mod_prime_power(5, 2, 3)  # 5 != 1 mod 8


# ---------------------------------------------------------------------------
# LogLinear


def test_loglinear_zero_and_terms():
    assert LogLinear.zero().is_zero and LogLinear({}) == LogLinear.zero()
    t = LogLinear({5: 2, 3: Fraction(4, 2)})
    assert not t.is_zero and t == LogLinear({3: 2, 5: 2})
    assert list(t.terms().items()) == [(3, 2), (5, 2)]  # keys increase, as printed
    assert LogLinear({3: Fraction(1, 2)}).terms() == {3: Fraction(1, 2)}


def test_loglinear_to_float():
    t = LogLinear({3: 2, 5: 2})  # = 2 log 15
    with mpmath.mp.workprec(128):
        expected = 2 * mpmath.log(15)
        assert abs(t.to_float(128) - expected) < mpmath.mpf(2) ** -120
    assert str(t.to_float(64))[:12] == "5.4161004022"


def test_loglinear_validates_keys():
    with pytest.raises(ValueError):
        LogLinear({4: 1})


def test_loglinear_drops_zero_coefficients():
    assert LogLinear({3: 0, 5: 1}) == LogLinear({5: 1})
    assert hash(LogLinear({3: 0})) == hash(LogLinear.zero())


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.sampled_from([2, 3, 5, 7, 11]), small_rationals, max_size=4),
    st.dictionaries(st.sampled_from([2, 3, 5, 7, 11]), small_rationals, max_size=4),
)
def test_loglinear_equality_matches_floats(d1, d2):
    t1, t2 = LogLinear(d1), LogLinear(d2)
    assert (t1 == t2) == (t2 == t1)
    rebuilt = LogLinear(dict(reversed(list(d1.items()))))
    assert rebuilt == t1 and hash(rebuilt) == hash(t1)
    assert (t1 == t2) == (abs(t1.to_float(128) - t2.to_float(128)) < mpmath.mpf(2) ** -90)


def test_padic_val():
    assert padic_val(Fraction(9, 5), 3) == 2
    assert padic_val(Fraction(9, 5), 5) == -1
    assert padic_val(48, 2) == 4
    with pytest.raises(ValueError):
        padic_val(0, 3)
