"""Genus character of the biquadratic extension and ideal-counting data.

K = Q(sqrt(d1), sqrt(d2)) is quadratic over F = Q(sqrt(d1*d2)) and
unramified at every finite prime because gcd(d1, d2) = 1.  The attached
quadratic character chi of F is evaluated through base change:
chi(P) = kronecker(d_i, N(P)) for either i with residue characteristic
not dividing d_i; when both choices are legal they agree, and the code
asserts that for free.

Every function here but one works on ideals of F, prime or factored,
never on elements.

rho(b) counts integral ideals of K with relative norm b: the local factor
at P is e+1 when chi(P) = +1 and (1 if e even else 0) when chi(P) = -1,
and 0 whenever b has a pole.  ``norm_ideal_count`` applies that rule to
an ideal, for the checks alone.  The production path (``coeffs`` and
``trace_degree``) applies it to the line sieve's integers, in
``eisenstein._index_report``, with chi from ``genus_char_prime``.  The
check path keeps one more, deliberately literal, copy: the center values of the finite Whittaker
functions, which ``eisenstein._local_sums`` sums term by term.

``trace_product`` is the exception: Gross and Zagier's product over the
divisors of the trace, on rational integers alone, an ideal-free check
of ``trace_degree`` that only ``verify`` calls, so not in ``__all__``.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .exact import InvariantError, LogLinear, factor, kronecker
from .field import FIdealFactored, FPrimeIdeal, Setup, prime_ideals_above

__all__ = [
    "diff_set",
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


def _rational_genus_char(setup: Setup, q: int) -> int:
    """eps(q) at a rational prime q: (d1/q) if q does not divide d1, else (d2/q)."""
    return kronecker(setup.d1, q) if setup.d1 % q else kronecker(setup.d2, q)


def trace_product(setup: Setup, m: int) -> LogLinear:
    """Sum over d | m, gcd(d, D) = 1, of (d2/d) * P_(m/d), as a prime-log map.

    P_k sums log F((k^2 D - x^2)/4) over x^2 < k^2 D, x = kD (mod 2), both
    signs, with F(n) = prod_{n1 n2 = n} n1^eps(n2), eps the completely
    multiplicative genus character of rational integers
    (``_rational_genus_char``), over every divisor n1 of each n.  Gross and
    Zagier (On singular moduli, J. reine angew. Math. 355, 1985) show
    J(d1, d2)^(8/(w1 w2)) = +/- prod_x F: P_1 is the trace-1 degree.  For
    m > 1 the trace-m degree is observed, not derived, at every m <= 20 on
    ``TEST_MATRIX`` (180 cases, ``gross-zagier-trace-m``), either order.
    """
    D, total = setup.D, {}
    for d in range(1, m + 1):
        if m % d or math.gcd(d, D) != 1:
            continue
        k = m // d  # each d gives its own k, so each P_k is taken once per call
        kkD, chi_d = k * k * D, kronecker(setup.d2, d)
        xmax = math.isqrt(kkD - 1)
        xmax -= (xmax - k * D) % 2
        for x in range(-xmax, xmax + 1, 2):
            pairs = factor((kkD - x * x) // 4)
            for exps in itertools.product(*(range(a + 1) for _, a in pairs)):
                # n1 = prod q^b and n2 = n/n1, so eps(n2) = prod eps(q)^(a - b)
                sign = chi_d * math.prod(
                    _rational_genus_char(setup, q) ** (a - b) for (q, a), b in zip(pairs, exps)
                )
                for (q, _), b in zip(pairs, exps):
                    if b:
                        total[q] = total.get(q, 0) + sign * b
    return LogLinear(total)
