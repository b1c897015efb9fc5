import math
from fractions import Fraction

from cmeis.exact import kronecker
from cmeis.field import (
    FElem,
    FIdealFactored,
    Setup,
    prime_ideals_above,
    principal_ideal,
)
from cmeis.genus import (
    diff_set,
    genus_char_prime,
    norm_ideal_count,
    prime_multiplicity,
)


def _ideal(setup, *parts):
    pairs = []
    for p, kind, e in parts:
        match = [q for q in prime_ideals_above(setup, p) if q.kind == kind]
        assert len(match) == 1
        pairs.append((match[0], e))
    return FIdealFactored.from_pairs(pairs)


# ---------------------------------------------------------------------------
# the character


def test_genus_char_prime_examples():
    s = Setup(-3, -7)
    plus, minus = prime_ideals_above(s, 5)
    assert genus_char_prime(s, plus) == genus_char_prime(s, minus) == kronecker(-3, 5) == -1
    (ram3,) = prime_ideals_above(s, 3)
    assert genus_char_prime(s, ram3) == kronecker(-7, 3) == -1
    s34 = Setup(-3, -4)
    (ram2,) = prime_ideals_above(s34, 2)
    assert genus_char_prime(s34, ram2) == kronecker(-3, 2) == -1
    # inert primes split in the biquadratic extension
    (inert,) = prime_ideals_above(s, 2)
    assert genus_char_prime(s, inert) == 1


# ---------------------------------------------------------------------------
# obstruction sets


def _index_ideal(setup, alpha):
    return principal_ideal(setup, alpha.times_sqrtD(setup.D))


def test_diff_set_examples():
    s = Setup(-3, -7)
    alpha = FElem(Fraction(1, 2), Fraction(1, 42))
    diff = diff_set(s, _index_ideal(s, alpha))
    assert [(q.p, q.kind) for q in diff] == [(5, "split_minus")]
    s34 = Setup(-3, -4)
    alpha0 = FElem(Fraction(1, 2), Fraction(0))
    diff34 = diff_set(s34, _index_ideal(s34, alpha0))
    assert [(q.p, q.kind) for q in diff34] == [(3, "ramified")]


def test_diff_set_even_for_mixed_signature():
    # chi((sqrt(D)*alpha)) is the product of the signs of sqrt(D)*alpha, so
    # with one archimedean obstruction the finite set has even length
    s = Setup(-3, -7)
    assert diff_set(s, _index_ideal(s, FElem(Fraction(1, 2), Fraction(-5, 42)))) == ()
    for d1, d2 in ((-3, -7), (-4, -7), (-7, -8)):
        s = Setup(d1, d2)
        D = s.D
        for m in (1, 2, 3):
            x = math.isqrt(m * m * D) + 1
            for sx in range(x, x + 40):
                if sx % 2 != (m * D) % 2:
                    continue
                alpha = FElem(Fraction(m, 2), Fraction(sx, 2 * D))
                assert alpha.embedding_sign(D, 1) * alpha.embedding_sign(D, 2) < 0
                assert len(diff_set(s, _index_ideal(s, alpha))) % 2 == 0


# ---------------------------------------------------------------------------
# rho


def test_norm_ideal_count_examples():
    s = Setup(-3, -7)
    assert norm_ideal_count(s, FIdealFactored()) == 1
    five = _ideal(s, (5, "split_plus", 1), (5, "split_minus", 1))
    assert norm_ideal_count(s, five) == 0
    sq = _ideal(s, (5, "split_minus", 2))
    assert norm_ideal_count(s, sq) == 1
    assert norm_ideal_count(s, _ideal(s, (5, "split_minus", -1))) == 0


# ---------------------------------------------------------------------------
# per-prime multiplicities


def test_prime_multiplicity_examples():
    s = Setup(-3, -7)
    ideal = _ideal(s, (5, "split_minus", 1))
    assert prime_multiplicity(s, ideal, 5) == 2
    # split in the first imaginary field
    assert prime_multiplicity(s, ideal, 37) == 0
    s34 = Setup(-3, -4)
    sqrt3_ideal = _ideal(s34, (3, "ramified", 1))
    assert prime_multiplicity(s34, sqrt3_ideal, 3) == 2
    assert prime_multiplicity(s34, _ideal(s34, (3, "ramified", -1)), 3) == 0
