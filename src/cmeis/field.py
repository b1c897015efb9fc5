"""Exact arithmetic in the real quadratic field F = Q(sqrt(D)), D = d1*d2.

A ``Setup`` fixes two coprime negative fundamental discriminants d1, d2;
then D = d1*d2 is a positive fundamental discriminant, F = Q(sqrt(D)) has
ring of integers Z[(D+sqrt(D))/2], and the different of F/Q is the
principal ideal (sqrt(D)).

Elements (``FElem``, the check paths' representation) are integer
triples (a, b, c) meaning (a + b*sqrt(D))/c, with c > 0 and gcd 1, built
from rationals u + v*sqrt(D).  Prime ideals carry their splitting data;
fractional ideals are kept in factored form throughout, so no class-group
machinery is ever needed.

Trace-slice parametrization.  The dual lattice of the integers under the
trace form is (1/sqrt(D)) * O_F, so its elements with trace m and both
real embeddings positive are exactly

    alpha = m/2 + (x/(2D)) * sqrt(D),   x = m*D (mod 2),  x^2 < m^2*D:

writing sqrt(D)*alpha = (x + m*sqrt(D))/2, integrality forces x integral
of the displayed parity, trace(alpha) = m, and total positivity is
|x| < m*sqrt(D).  The attached integral ideal is (sqrt(D)*alpha), of
absolute norm n(x) = (m^2*D - x^2)/4.  The slice factors it from the
integers (m, x) alone.  Along one trace n(x) is a quadratic in x, so an
odd p divides it only for x in its root classes mod p (x = 0 when
p | m*D, x = +/-m*r at split p, r a root of D mod p, none at inert
p not dividing m), on either side of m*sqrt(D): one sieve call per trace
line serves the slice and the mixed-signature x > m*sqrt(D), of norm
(x^2 - m^2*D)/4, dividing each small p out at those indices only, as in
the quadratic sieve.  The sieve yields (x, factors), the (p, e) pairs
of each n(x); the production path reads each index's report from them
(``eisenstein._index_report``) and builds no ideal.  ``_slice_ideal``
builds the ideal from the same pairs, for ``verify``'s checks alone
(``trace-degree-two-paths`` and two ``field`` checks): e/2 at
inert p, e at ramified p, and at split p t to both primes above it and
the other e - 2t to the one prime P where sqrt(D) = -x/m, p^t the
p-part of the content of (x + m*sqrt(D))/2 (after Gross-Zagier, On
singular moduli): the index names P.  The slice factors only x >= 0:
x -> -x is the Galois conjugation of F, so n(-x) = n(x) and the ideal
at -x is the conjugate of the one at x (the split primes swap).  A
single index, of either sign, is a one-element range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .exact import (
    _SMALL_PRIMES,
    OO,
    InvariantError,
    factor,
    hasse_invariant,
    hilbert_symbol,
    is_prime,
    kronecker,
    padic_val,
    sqrt_mod_prime_power,
)

__all__ = [
    "FElem",
    "FIdealFactored",
    "FPrimeIdeal",
    "Setup",
    "SetupError",
    "TraceSliceElement",
    "element_valuation",
    "enumerate_trace_slice",
    "local_invariants",
    "prime_ideals_above",
    "principal_ideal",
    "support",
]


class SetupError(ValueError):
    """Invalid discriminant pair or run setting."""


def _is_fundamental_discriminant(d: int) -> bool:
    if d == 0 or d == 1:
        return False
    if d % 4 == 1:
        return all(e == 1 for _, e in factor(d))
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and all(e == 1 for _, e in factor(m))
    return False


def _unit_count(d: int) -> int:
    if d == -3:
        return 6
    if d == -4:
        return 4
    return 2


@dataclass(frozen=True)
class Setup:
    """A coprime pair of negative fundamental discriminants."""

    d1: int
    d2: int

    def __post_init__(self):
        for d in (self.d1, self.d2):
            if d >= 0:
                raise SetupError(f"discriminant {d} is not negative")
            if not _is_fundamental_discriminant(d):
                raise SetupError(f"{d} is not a fundamental discriminant")
        if math.gcd(self.d1, self.d2) != 1:
            raise SetupError(f"gcd({self.d1}, {self.d2}) != 1")
        D = self.d1 * self.d2
        if math.isqrt(D) ** 2 == D:
            raise SetupError(f"D = {D} is a perfect square")

    @cached_property
    def D(self) -> int:
        # kept in the instance dict, outside the fields: repr, == and hash see d1, d2 alone
        return self.d1 * self.d2

    @property
    def w1(self) -> int:
        return _unit_count(self.d1)

    @property
    def w2(self) -> int:
        return _unit_count(self.d2)


class FElem:
    """(a + b*sqrt(D))/c in canonical form: integers with c > 0, gcd(a, b, c) = 1.

    ``FElem(u, v)`` builds u + v*sqrt(D) from rationals (c, the lcm of the
    denominators, leaves gcd 1 already), and ``.u``, ``.v`` read them back;
    equality, hashing and every method run on the triple.
    """

    __slots__ = ("a", "b", "c")

    def __init__(self, u, v):
        u, v = Fraction(u), Fraction(v)
        c = math.lcm(u.denominator, v.denominator)
        self.a = u.numerator * (c // u.denominator)
        self.b = v.numerator * (c // v.denominator)
        self.c = c

    @classmethod
    def from_triple(cls, a: int, b: int, c: int) -> "FElem":
        """(a + b*sqrt(D))/c for integers a, b and c != 0."""
        g = math.gcd(a, b, c) if c > 0 else -math.gcd(a, b, c)
        out = cls.__new__(cls)
        out.a, out.b, out.c = a // g, b // g, c // g
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, FElem) and (self.a, self.b, self.c) == (other.a, other.b, other.c)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c))

    def __repr__(self) -> str:
        return f"FElem(u={self.u!r}, v={self.v!r})"

    @property
    def u(self) -> Fraction:
        return Fraction(self.a, self.c)

    @property
    def v(self) -> Fraction:
        return Fraction(self.b, self.c)

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def trace(self) -> Fraction:
        return Fraction(2 * self.a, self.c)

    def norm(self, D: int) -> Fraction:
        return Fraction(self.a * self.a - D * self.b * self.b, self.c * self.c)

    def times_sqrtD(self, D: int) -> "FElem":
        return FElem.from_triple(self.b * D, self.a, self.c)

    def embedding_sign(self, D: int, l: int) -> int:
        """Exact sign of sigma_l, l in {1, 2}, sigma_1 = (a + b*sqrt(D))/c."""
        a, b = self.a, self.b if l == 1 else -self.b
        if b == 0:
            return (a > 0) - (a < 0)
        sign = 1 if b > 0 else -1
        if a * sign >= 0 or b * b * D > a * a:  # b*sqrt(D) carries the sign
            return sign
        return -sign

    def is_totally_positive(self, D: int) -> bool:
        return self.embedding_sign(D, 1) > 0 and self.embedding_sign(D, 2) > 0

    def is_integral(self, D: int) -> bool:
        # 2u and 2v integral forces c | 2; at c = 2, a = 2u and b = 2v
        return self.c == 1 or (self.c == 2 and (self.a - self.b * D) % 2 == 0)


_KIND_ORDER = {"split_plus": 0, "split_minus": 1, "inert": 2, "ramified": 3}
_CONJUGATE_KIND = {"split_plus": "split_minus", "split_minus": "split_plus"}


@dataclass(frozen=True)
class FPrimeIdeal:
    """Prime of F above p, with its splitting kind.

    For split p, F_P = Q_p; "split_plus" sends sqrt(D) to the p-adic root
    of D that is r mod p, r the least root of D mod p (mod 4 at p = 2,
    r = 1), so it is (p, sqrt(D) - r) at odd p; "split_minus" is its
    conjugate.  Each lift sqrt_mod_prime_power(D, p, k) reduces to r.
    """

    p: int
    kind: str

    @property
    def norm(self) -> int:
        return self.p * self.p if self.kind == "inert" else self.p

    @property
    def residue_degree(self) -> int:
        return 2 if self.kind == "inert" else 1

    @property
    def ramification(self) -> int:
        return 2 if self.kind == "ramified" else 1

    def sort_key(self):
        return (self.p, _KIND_ORDER[self.kind])

    def conjugate(self) -> "FPrimeIdeal":
        """The Galois conjugate: the two split primes swap, the others stay."""
        kind = _CONJUGATE_KIND.get(self.kind)
        return self if kind is None else FPrimeIdeal(self.p, kind)

    def __repr__(self) -> str:
        tag = {"split_plus": "+", "split_minus": "-", "inert": "", "ramified": "r"}
        return f"P{self.p}{tag[self.kind]}"


@lru_cache(maxsize=1 << 14)
def prime_ideals_above(setup: Setup, p: int) -> tuple[FPrimeIdeal, ...]:
    """Dedekind splitting of a rational prime in F, driven by (D|p)."""
    sym = kronecker(setup.D, p)
    if sym == 1:
        return (FPrimeIdeal(p, "split_plus"), FPrimeIdeal(p, "split_minus"))
    if sym == -1:
        return (FPrimeIdeal(p, "inert"),)
    return (FPrimeIdeal(p, "ramified"),)


@dataclass(frozen=True)
class FIdealFactored:
    """Fractional ideal in factored form; empty factorization is O_F."""

    entries: tuple[tuple[FPrimeIdeal, int], ...] = ()

    @staticmethod
    def from_pairs(pairs) -> "FIdealFactored":
        merged: dict[FPrimeIdeal, int] = {}
        for prm, e in pairs:
            merged[prm] = merged.get(prm, 0) + e
        cleaned = tuple(
            sorted(
                ((prm, e) for prm, e in merged.items() if e != 0),
                key=lambda t: t[0].sort_key(),
            )
        )
        return FIdealFactored(cleaned)

    def ord_at(self, prm: FPrimeIdeal) -> int:
        for q, e in self.entries:
            if q == prm:
                return e
        return 0

    def times(self, prm: FPrimeIdeal, e: int = 1) -> "FIdealFactored":
        """The ideal times prm^e.

        An entry of prm has its exponent changed in place, and goes when
        that reaches 0; only a new prime goes through ``from_pairs``.
        """
        for i, (q, f) in enumerate(self.entries):
            if q == prm:
                kept = ((prm, f + e),) if f + e else ()
                return FIdealFactored(self.entries[:i] + kept + self.entries[i + 1:])
        return FIdealFactored.from_pairs(self.entries + ((prm, e),))

    @property
    def is_integral(self) -> bool:
        return all(e >= 0 for _, e in self.entries)

    def rational_primes(self) -> tuple[int, ...]:
        return tuple(sorted({prm.p for prm, _ in self.entries}))

    def __repr__(self) -> str:
        if not self.entries:
            return "(1)"
        return " * ".join(f"{prm!r}^{e}" if e != 1 else f"{prm!r}" for prm, e in self.entries)


def _split_valuation(D: int, a: int, b: int, t: int, prm: FPrimeIdeal) -> int:
    """min(ord_p(a +/- b*r), t) at a split prime, t = ord_p(a^2 - D*b^2).

    r is the canonical root lifted to p^(t+2); the cap is exact because the
    split valuations of the integral a + b*sqrt(D) are nonnegative, sum t.
    """
    if t == 0:
        return 0
    pk = prm.p ** (t + 2)
    r = sqrt_mod_prime_power(D, prm.p, t + 2)
    res = (a + b * r) % pk if prm.kind == "split_plus" else (a - b * r) % pk
    return t if res == 0 else min(padic_val(res, prm.p), t)


def _place_valuation(D: int, a: int, b: int, c: int, t: int, prm: FPrimeIdeal) -> int:
    """ord of (a + b*sqrt(D))/c at a prime of F above p, given t = ord_p(a^2 - D*b^2).

    The integral a + b*sqrt(D) has valuation t/2 at an inert prime, t at
    a ramified one, and ``_split_valuation`` at a split one; then the
    denominator c comes off, twice at a ramified prime.  No cache: the
    caller already has t.
    """
    if prm.kind == "inert":
        if t % 2:
            raise InvariantError("odd norm valuation at an inert prime")
        val = t // 2
    elif prm.kind == "ramified":
        val = t
    else:
        val = _split_valuation(D, a, b, t, prm)
    return val - prm.ramification * padic_val(c, prm.p) if c > 1 else val


@lru_cache(maxsize=1 << 16)
def element_valuation(setup: Setup, beta: FElem, prm: FPrimeIdeal) -> int:
    """ord of beta = (a + b*sqrt(D))/c at a prime of F.

    Takes t = ord_p(a^2 - D*b^2) off the norm and hands it to
    ``_place_valuation``, whose rule ``eisenstein._local_factors`` also
    calls with the t of its own factorization, past this cache.
    """
    if beta.is_zero:
        raise ValueError("valuation of 0")
    a, b = beta.a, beta.b
    t = padic_val(a * a - setup.D * b * b, prm.p)  # nonzero: D is not a square
    return _place_valuation(setup.D, a, b, beta.c, t, prm)


@lru_cache(maxsize=1 << 15)
def principal_ideal(setup: Setup, beta: FElem) -> FIdealFactored:
    """Factor the principal fractional ideal (beta).

    The candidate primes are those of the reduced norm and the split
    primes of c: at a split p | c the valuations at P and its conjugate
    can cancel in the norm, which then shows no p although (beta) has it.
    An inert or ramified p has one prime above it, so the norm shows it.
    """
    if beta.is_zero:
        raise ValueError("(0) is not a fractional ideal")
    nrm = beta.norm(setup.D)
    ps = {p for p, _ in factor(abs(nrm.numerator))}
    # nrm.denominator divides c^2, so its primes are among c's
    ps.update(
        p for p, _ in factor(beta.c)
        if nrm.denominator % p == 0 or kronecker(setup.D, p) == 1
    )
    pairs = []
    for p in sorted(ps):
        checksum = 0
        for prm in prime_ideals_above(setup, p):
            e = element_valuation(setup, beta, prm)
            checksum += e * prm.residue_degree
            if e:
                pairs.append((prm, e))
        if checksum != padic_val(nrm, p):
            raise InvariantError("valuations disagree with the norm")
    return FIdealFactored.from_pairs(pairs)


@dataclass(frozen=True)
class TraceSliceElement:
    """One term of the trace-m slice of the dual lattice."""

    alpha: FElem
    x: int
    factors: tuple[tuple[int, int], ...]  # the sieve's (p, e) pairs of n(x), p increasing


def _slice_ideal(setup: Setup, m: int, x: int, factors) -> FIdealFactored:
    """The integral ((x + m*sqrt(D))/2), whatever its signs, from its norm's factors.

    ``factors`` are the (p, e) pairs of n = |x^2 - m^2*D|/4, p increasing.
    An inert p takes e/2 and a ramified p takes e.  At a split p the
    element is p^t * (u + w*sqrt(D))/2 with t as large as it can be:
    p^t | x and p^t | m, and at p = 2 also u = w (mod 2), so that the
    quotient stays integral.  Both primes above p take t.  The quotient
    lies in at most one of them, the P where sqrt(D) = s = -u/w (mod q,
    q = p, or 4 at p = 2), so when e > 2t, p must not divide w and s
    must be a root of D mod q.  The other e - 2t then go to split_plus
    when s is the least root (2s < q, see ``FPrimeIdeal``) and to
    split_minus otherwise.  No root of D is looked up.  The entries come
    out in sort_key order.  ``eisenstein._index_report`` applies the same
    rule on its own code, so that ``trace_degree`` and the sums on these
    ideals differ in code, and the ``field`` checks compare this ideal,
    at every index and x < 0 included, with ``principal_ideal``.
    """
    D = setup.D
    entries = []
    for p, e in factors:
        prms = prime_ideals_above(setup, p)
        kind = prms[0].kind
        if kind == "inert":
            if e % 2:
                raise InvariantError("odd norm valuation at an inert prime")
            entries.append((prms[0], e // 2))
        elif kind == "ramified":
            entries.append((prms[0], e))
        else:
            u, w, t = x, m, 0
            while u % p == 0 and w % p == 0 and (p > 2 or (u - w) % 4 == 0):
                u, w, t = u // p, w // p, t + 1
            beyond = [0, 0]  # the exponents past t at split_plus, split_minus
            if e > 2 * t:
                q = 4 if p == 2 else p
                s = -u * pow(w, -1, q) % q if w % p else None  # sqrt(D) = s mod P
                if s is None or (s * s - D) % q:
                    raise InvariantError("x is not in exactly one root class of a split prime")
                beyond[2 * s > q] = e - 2 * t
            for prm, f in zip(prms, beyond):
                if t or f:
                    entries.append((prm, t + f))
    return FIdealFactored(tuple(entries))


def _line_sieve(setup: Setup, m: int, xs: range):
    """Yield (x, factors) for x in xs, a step-2 range of either sign, or one index.

    The nonzero norms n(x) = |m^2*D - x^2|/4 of the range are factored
    in one sieve: the 2-part comes off each by bit arithmetic, and each
    odd prime p <= min(sqrt(max n), 997) is divided out only at the
    indices of its root classes mod p (see the module docstring; any
    root r = sqrt_mod_prime_power(D, p, 1) gives a split p's +/-m*r).  What
    is left of each n(x) is 1 or prime, unless n > 997^2, when a composite
    rest goes to ``factor``.  ``factors`` is the list of (p, e) pairs of
    n(x), p increasing; a caller that needs n(x) reads it from (m, x).
    """
    D = setup.D
    x0, mmD = xs.start, m * m * D
    ns = [abs(mmD - x * x) // 4 for x in xs]
    rest, factors = [], []
    for n in ns:
        e = (n & -n).bit_length() - 1
        rest.append(n >> e)
        factors.append([(2, e)] if e else [])
    bound = min(math.isqrt(max(ns, default=0)), _SMALL_PRIMES[-1])
    for p in _SMALL_PRIMES[1:]:
        if p > bound:
            break
        if (m * D) % p == 0:
            classes = (0,)
        elif prime_ideals_above(setup, p)[0].kind == "inert":
            continue
        else:
            c = m * sqrt_mod_prime_power(D, p, 1) % p
            classes = (c, p - c)
        half = (p + 1) // 2  # 1/2 mod p: x = x0 + 2i is in class c at i = (c - x0)/2
        for c in classes:
            for i in range((c - x0) * half % p, len(ns), p):
                v, e = rest[i], 0
                while v % p == 0:
                    v //= p
                    e += 1
                if e:
                    rest[i] = v
                    factors[i].append((p, e))
    for v, fs in zip(rest, factors):
        if v > 1:
            fs.extend([(v, 1)] if is_prime(v) else factor(v))
    yield from zip(xs, factors)


def _half_slice(setup: Setup, m: int):
    """``_line_sieve``'s (x, factors) on the trace-m slice for x >= 0; x -> -x conjugates the ideal."""
    if m < 1:
        raise ValueError("trace must be a positive integer")
    mmD = m * m * setup.D
    return _line_sieve(setup, m, range(mmD % 2, math.isqrt(mmD - 1) + 1, 2))


def enumerate_trace_slice(setup: Setup, m: int) -> list[TraceSliceElement]:
    """All totally positive alpha in the trace dual with trace m, by x.

    n(-x) = n(x), so the element at -x takes the sieve's pairs of x.  No
    ideal is built: a check that reads one calls ``_slice_ideal``.
    """
    half = [(x, tuple(fs)) for x, fs in _half_slice(setup, m)]
    D = setup.D
    return [
        TraceSliceElement(FElem.from_triple(m * D, x, 2 * D), x, fs)
        for x, fs in [(-x, fs) for x, fs in reversed(half) if x] + half
    ]


def _invariant_diagonal(setup: Setup, alpha: FElem) -> tuple[int, ...]:
    """Diagonal of Tr(alpha t^2) + Tr(-d1 * alpha t^2), as square classes.

    For beta = (a + b*sqrt(D))/c of nonzero trace, the Gram matrix of
    t -> Tr(beta * t^2) in the basis {1, sqrt(D)} diagonalizes by congruence
    to (2a/c, 2D(a^2 - D*b^2)/(a*c)), i.e. (2*b0, 2*D*N(beta)/b0); each entry
    is kept as the integer num*den/gcd^2 of its square class.
    """
    if alpha.is_zero or not alpha.is_totally_positive(setup.D):
        raise ValueError("local invariants need a totally positive element")
    D, c, out = setup.D, alpha.c, []
    for a, b in ((alpha.a, alpha.b), (-setup.d1 * alpha.a, -setup.d1 * alpha.b)):
        for num, den in ((2 * a, c), (2 * D * (a * a - D * b * b), a * c)):
            g = math.gcd(num, den)
            out.append(num * den // (g * g))
    return tuple(out)


def _diagonal_signs(diag: tuple[int, ...]) -> dict:
    """``local_invariants`` of a diagonal, read from the diagonal alone.

    The sign at a place is the Hasse invariant there times (-1,-1), and
    (-1,-1) is +1 at every odd prime, so the symbol is taken at OO and 2 only.
    """
    primes = {2}
    for entry in diag:
        primes.update(p for p, _ in factor(abs(entry)))
    signs = {pl: hasse_invariant(diag, pl) * hilbert_symbol(-1, -1, pl) for pl in (OO, 2)}
    for p in sorted(primes - {2}):
        signs[p] = hasse_invariant(diag, p)
    return signs


def local_invariants(setup: Setup, alpha: FElem) -> dict:
    """Obstruction sign of representing alpha at OO, 2 and the diagonal's primes.

    The four-dimensional rational form Tr(alpha * x * xbar) on the
    biquadratic algebra splits as Tr(alpha t^2) + Tr(-alpha d1 t^2); the
    sign at a place is the Hasse invariant of that diagonal times (-1,-1)
    there.  At an odd prime dividing no entry the diagonal is a unit form
    and both factors are +1, so the keys (OO first, then the primes in
    increasing order) are the only places where a sign can be -1, and the
    product of the values is the full product formula: +1.  The signs
    depend on alpha only through ``_invariant_diagonal``, which reads a, c
    and N(alpha); conjugation keeps all three, so alpha and its conjugate
    share them (``_diagonal_signs``).
    """
    return _diagonal_signs(_invariant_diagonal(setup, alpha))


def support(setup: Setup, alpha: FElem) -> set[int]:
    """Finite places where the local obstruction sign is -1.

    For totally positive alpha the sign at OO is -1 (the diagonal is
    positive definite, and (-1,-1) is -1 there), so by the product formula
    the set is finite and of odd cardinality.
    """
    signs = local_invariants(setup, alpha)
    return {pl for pl, sign in signs.items() if sign == -1} - {OO}
