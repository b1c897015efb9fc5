"""Exact arithmetic foundations.

Integer factorization, quadratic residue symbols (Kronecker, Hilbert,
Hasse), Hensel-lifted square roots modulo prime powers, and ``LogLinear``:
an exact sum ``sum_p c_p * log p`` with rational ``c_p``, built once from
integers and then only compared, printed or turned into a float.
Everything downstream (ideal arithmetic, genus characters, Fourier
coefficients, Arakelov degrees) is built on these primitives and is
tested by exact equality, never by float tolerance.

All functions are pure; the only state is a handful of memo caches on
immutable keys.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath.libmp import from_int, fzero, mpf_add, mpf_div, mpf_log, mpf_mul, round_nearest

__all__ = [
    "OO",
    "InvariantError",
    "LogLinear",
    "factor",
    "hasse_invariant",
    "hilbert_symbol",
    "is_prime",
    "kronecker",
    "sqrt_mod_prime_power",
]

# The archimedean place, usable wherever a rational prime is expected.
OO = float("inf")


class InvariantError(AssertionError):
    """A violated internal invariant, raised explicitly so ``python -O`` keeps it."""


def _small_primes(limit: int = 1000) -> tuple[int, ...]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return tuple(i for i in range(limit + 1) if sieve[i])


_SMALL_PRIMES = _small_primes()

# Deterministic Miller-Rabin witness set, valid far beyond any integer
# this library will ever see (certified below 3.3 * 10^24).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=1 << 16)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if p * p > n:  # no prime factor up to sqrt(n)
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of composite odd n, found by Brent's cycle walk.

    The (y0, c) parameters are swept deterministically so repeated runs
    factor the same integer the same way.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2 + c, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                k += m
                g = math.gcd(q, n)
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


def _factor_positive(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # anything left is free of small factors: primality-test, else rho-split
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        g = _pollard_brent(m)
        stack.append(g)
        stack.append(m // g)
    return out


@lru_cache(maxsize=1 << 16)
def factor(n: int) -> tuple[tuple[int, int], ...]:
    """The (p, e) pairs of |n| for a nonzero integer n, p strictly increasing."""
    if n == 0:
        raise ValueError("cannot factor 0")
    return tuple(sorted(_factor_positive(abs(n)).items()))


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n) with the standard conventions at 2, -1, 0."""
    if n == 0:
        if a == 0:
            raise ValueError("kronecker(0, 0) is undefined")
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    # n odd positive: Jacobi via reciprocity
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _int_val(m: int, p: int) -> int:
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def padic_val(x: Fraction | int, p: int) -> int:
    """ord_p of a nonzero rational."""
    if isinstance(x, int):
        if x == 0:
            raise ValueError("valuation of 0")
        return _int_val(x, p)
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of 0")
    return _int_val(x.numerator, p) - _int_val(x.denominator, p)


def _square_class_rep(x) -> int:
    # numerator * denominator is in the same square class as the rational
    if not isinstance(x, int):
        x = Fraction(x)
        x = x.numerator * x.denominator
    if x == 0:
        raise ValueError("hilbert symbol needs nonzero arguments")
    return x


def _local_symbol(alpha: int, u: int, beta: int, v: int, p: int) -> int:
    """(p^alpha u, p^beta v) at the prime p, for units u, v (mod p, or mod 8 at p = 2).

    The closed-form case analysis: Legendre symbols of the units at odd
    p, by Euler's criterion, and the (u-1)/2 and (u^2-1)/8 invariants
    mod 8 at p = 2.  Only the parities of alpha and beta matter.
    """
    if p != 2:
        s = 1
        if alpha % 2 and beta % 2 and p % 4 == 3:
            s = -s
        if beta % 2 and pow(u, (p - 1) // 2, p) != 1:
            s = -s
        if alpha % 2 and pow(v, (p - 1) // 2, p) != 1:
            s = -s
        return s
    eps_u = (u - 1) // 2 % 2
    eps_v = (v - 1) // 2 % 2
    omega_u = (u * u - 1) // 8 % 2
    omega_v = (v * v - 1) // 8 % 2
    e = eps_u * eps_v + alpha * omega_v + beta * omega_u
    return -1 if e % 2 else 1


def hilbert_symbol(a, b, place) -> int:
    """Hilbert symbol (a, b) at a rational place (prime or OO).

    +1 iff z^2 = a x^2 + b y^2 has a nontrivial solution over the
    completion: the Hasse invariant of the form <a, b>.
    """
    return hasse_invariant((a, b), place)


def hasse_invariant(diag, place) -> int:
    """Hasse invariant prod_{i<j} (a_i, a_j) of a diagonal quadratic form.

    At OO the symbol (a_i, a_j) is -1 iff both entries are negative, so
    with k negative entries the invariant is (-1)^(k(k-1)/2).  At a prime
    the symbol is bimultiplicative, so the product equals
    prod_j (a_1 * ... * a_{j-1}, a_j): n - 1 ``_local_symbol``s instead
    of n(n-1)/2.  Each entry is split in the same pass into its
    valuation and its unit, reduced mod p (mod 8 at 2), and the prefix
    is carried as the sum of the valuations and the product of the units.
    """
    if not diag:
        raise ValueError("empty diagonal")
    if place == OO:
        k = sum(_square_class_rep(x) < 0 for x in diag)
        return -1 if k % 4 > 1 else 1
    p = int(place)
    modulus = 8 if p == 2 else p
    s = 1
    alpha = u = None  # the prefix: its valuation and its unit
    for x in diag:
        a, beta = _square_class_rep(x), 0
        while a % p == 0:
            a //= p
            beta += 1
        v = a % modulus
        if alpha is None:
            alpha, u = beta, v
        else:
            s *= _local_symbol(alpha, u, beta, v, p)
            alpha, u = alpha + beta, u * v % modulus
    return s


def _tonelli_shanks(n: int, p: int) -> int:
    """A square root of n modulo the odd prime p; requires (n|p) = 1."""
    n %= p
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while kronecker(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r


@lru_cache(maxsize=1 << 14)
def sqrt_mod_prime_power(D: int, p: int, k: int) -> int:
    """Canonical r with r^2 = D mod p^k.

    For odd p the result is the Hensel lift of the least nonnegative root
    mod p; for p = 2 (which needs D = 1 mod 8) it is the lift with
    r = 1 mod 4.  The canonical choice pins the labels of the two prime
    ideals above a split prime, so it must be deterministic across runs.
    """
    if k < 1:
        raise ValueError("precision exponent must be >= 1")
    if p == 2:
        if D % 8 != 1:
            raise ValueError(f"no square root of {D} mod powers of 2")
        # lift one level past k: mod 2^k there are two roots = 1 mod 4, and
        # only the extra step selects the reduction of the 2-adic root
        r = 1
        for j in range(3, k + 1):
            # r^2 = D mod 2^j; bump by 2^(j-1) when the next binary digit is off
            if ((r * r - D) >> j) % 2:
                r += 1 << (j - 1)
        return r % 2**k
    if kronecker(D, p) != 1:
        raise ValueError(f"no square root of {D} mod {p}^{k}")
    r0 = _tonelli_shanks(D, p)
    r0 = min(r0, p - r0)
    r, mod = r0, p
    while mod < p**k:
        mod = min(mod * mod, p**k)
        # Newton step x -> (x^2 + D)/(2x), stays = r0 mod p
        r = (r + D * pow(r, -1, mod)) * pow(2, -1, mod) % mod
    return r % p**k


@lru_cache(maxsize=None)
def _log_prime(p: int, precision: int) -> tuple:
    """log p as a raw ``libmp`` mpf at ``precision`` bits, rounded to nearest."""
    return mpf_log(from_int(p), precision, round_nearest)


class LogLinear:
    """Exact value of the form sum_p c_p * log p.

    Keys are rational primes, coefficients are nonzero rationals; the zero
    value stores nothing.  A value is built once, then compared, printed
    or turned into a float, by ``to_float`` alone.  Equality is exact
    coefficient equality -- by linear independence of {log p} over Q this
    coincides with equality of the real numbers represented.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data: dict[int, Fraction] = {}
        if terms:
            for p, c in dict(terms).items():
                c = Fraction(c)
                if c == 0:
                    continue
                if not is_prime(p):
                    raise ValueError(f"LogLinear key {p} is not prime")
                data[int(p)] = c
        self._terms = dict(sorted(data.items()))

    @classmethod
    def _unchecked(cls, data: dict[int, Fraction]) -> "LogLinear":
        # for callers whose keys are primes by construction: no primality test
        out = cls.__new__(cls)
        out._terms = dict(sorted((p, c) for p, c in data.items() if c != 0))
        return out

    @classmethod
    def zero(cls) -> "LogLinear":
        return cls()

    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        return isinstance(other, LogLinear) and self._terms == other._terms

    def __hash__(self) -> int:
        # the frozen SingularModuliReport hashes its two LogLinear fields
        return hash(tuple(self._terms.items()))

    def to_float(self, precision: int):
        """Evaluate as an mpmath float with log p at the given bit precision.

        Each step is a ``libmp`` kernel at ``precision``, rounding to
        nearest: the numerator of c_p rounded, divided by the denominator,
        times log p, added to the total in key order.  Those are the steps
        of mpmath's ``mpf`` operators under ``workprec(precision)``, so the
        bits are the same, but no global precision is set: any thread may
        call this.
        """
        prec, rnd = precision, round_nearest
        total = fzero
        for p, c in self._terms.items():
            term = mpf_div(from_int(c.numerator, prec, rnd), from_int(c.denominator), prec, rnd)
            total = mpf_add(total, mpf_mul(term, _log_prime(p, prec), prec, rnd), prec, rnd)
        return mpmath.mp.make_mpf(total)

    def __repr__(self) -> str:
        if not self._terms:
            return "LogLinear(0)"
        body = " + ".join(f"({c})*log{p}" for p, c in self._terms.items())
        return f"LogLinear({body})"
