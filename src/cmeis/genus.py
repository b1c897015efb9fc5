"""Genus character of the biquadratic extension and ideal-counting data.

K = Q(sqrt(d1), sqrt(d2)) is quadratic over F = Q(sqrt(d1*d2)) and
unramified at every finite prime because gcd(d1, d2) = 1.  The attached
quadratic character chi of F is evaluated through base change:
chi(P) = kronecker(d_i, N(P)) for either i with residue characteristic
not dividing d_i; when both choices are legal they agree, and the code
asserts that for free.

Every function here works on ideals of F, prime or factored, never on
elements.

rho(b) counts integral ideals of K with relative norm b: the local factor
at P is e+1 when chi(P) = +1 and (1 if e even else 0) when chi(P) = -1,
and 0 whenever b has a pole.  ``norm_ideal_count`` is the one production
copy of that rule.  The check path keeps one deliberately literal copy:
the center values of the finite Whittaker functions, which
``eisenstein._local_sums`` sums term by term.
"""

from __future__ import annotations

from functools import lru_cache

from .exact import InvariantError, kronecker
from .field import FIdealFactored, FPrimeIdeal, Setup, prime_ideals_above

__all__ = [
    "diff_set",
    "genus_char_ideal",
    "genus_char_prime",
    "norm_ideal_count",
    "prime_multiplicity",
]


@lru_cache(maxsize=1 << 14)
def genus_char_prime(setup: Setup, prm: FPrimeIdeal) -> int:
    """chi at a prime of F: +1 if it splits in K, -1 if inert."""
    vals = {
        kronecker(d, prm.norm)
        for d in (setup.d1, setup.d2)
        if d % prm.p != 0
    }
    if len(vals) != 1:
        raise InvariantError("base-change character values disagree")
    return vals.pop()


def genus_char_ideal(setup: Setup, ideal: FIdealFactored) -> int:
    out = 1
    for prm, e in ideal.entries:
        if e % 2:
            out *= genus_char_prime(setup, prm)
    return out


def diff_set(setup: Setup, ideal: FIdealFactored) -> tuple[FPrimeIdeal, ...]:
    """Obstruction primes of the factored ideal alpha * (different).

    These are the primes with chi = -1 at which the ideal has odd
    valuation, in ``sort_key`` order.  For totally positive alpha the
    local space fails to represent alpha exactly there and the set has
    odd length; the ideal need not be integral.
    """
    return tuple(
        prm
        for prm, e in ideal.entries
        if e % 2 and genus_char_prime(setup, prm) == -1
    )


def norm_ideal_count(setup: Setup, ideal: FIdealFactored) -> int:
    """Number of integral ideals of K with relative norm the given ideal."""
    if not ideal.is_integral:
        return 0
    out = 1
    for prm, e in ideal.entries:
        out *= e + 1 if genus_char_prime(setup, prm) == 1 else 1 - e % 2
        if out == 0:
            return 0
    return out


def prime_multiplicity(setup: Setup, ideal: FIdealFactored, p: int) -> int:
    """sum over primes P above p of ord_P(ideal * P) * rho(ideal / P).

    The Kronecker guard is the reflex prime condition: p must split in
    neither imaginary field, or the sum is zero.  It is also zero unless
    the ideal is integral: a pole of the ideal is a pole of every
    ideal / P, where rho is 0.
    """
    if kronecker(setup.d1, p) == 1 or kronecker(setup.d2, p) == 1:
        return 0
    total = 0
    for prm in prime_ideals_above(setup, p):
        total += (ideal.ord_at(prm) + 1) * norm_ideal_count(setup, ideal.times(prm, -1))
    return total
