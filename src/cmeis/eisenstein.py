"""Local Whittaker data and the coefficient/degree identities.

The object of interest is the weight-1 Hilbert Eisenstein series attached
to the genus character; its value at the symmetry center vanishes, and
the derivative there has an exact Fourier expansion.  Every coefficient
indexed by a totally positive element is a rational multiple of log p for
a single prime p and is represented exactly as a ``LogLinear``.

Coefficients are computed through two deliberately disjoint paths:

* the closed form 2 * ord * rho * log p attached to the unique
  obstruction prime (``arakelov_degree``, whose coefficient is also
  ``holomorphic_coefficient``) at alpha = m/2 + (x/(2D)) sqrt(D), read
  straight off the (q, e) pairs that the line sieve
  (``field._line_sieve``) finds in the norm of sqrt(D) * alpha, by Gross
  and Zagier's local rule (``_index_report``), with no ideal built,
* a product-rule assembly of finite local Whittaker values and the one
  local derivative (``assemble_derivative``) on the ``FElem`` alpha:
  literal finite sums at the primes of the norm, factored once, each
  place valued from its prime's exponent there by the check paths' rule
  ``field._place_valuation`` (no cache), the obstruction prime found as
  the one center value 0, no ideal built.  Each archimedean value is -2i.
  One integer kernel, ``_local_sums``, takes the two sums at a place;
  the assembly multiplies the center values as integers and builds one
  ``LogLinear``, the derivative at the obstruction prime times the rest.

The matching Arakelov degree of the zero-dimensional CM locus is one
quarter of the coefficient; ``trace_degree`` sums the reports of a trace
slice and also recomputes the sum through the per-prime multiplicity
sums on the ideals ``field._slice_ideal`` builds from the same pairs, a
cross-check on other code.  Both sums walk only the half slice x >= 0
(``field._half_slice``), with weight 2 for x > 0 and 1 for x = 0, since
the index at -x carries the Galois conjugate ideal and the same degree
and multiplicities.

Derivative convention: the finite Whittaker derivative at s = 0 is taken
in the variable for which the coefficient identities above hold, i.e.

    deriv0 = (1/2) ord_P(D) log N(P) * value0  +  log N(P) * sum r*eps^r.

When chi(alpha * different) = -1 this collapses to
-(1/2) * ord_P(alpha * P * different) * log N(P), which is the value the
product rule needs: times the archimedean constant (-2i)^2 = -4 it makes
every holomorphic coefficient nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath.libmp import (
    from_int,
    mpf_abs,
    mpf_div,
    mpf_mul,
    mpf_mul_int,
    mpf_pi,
    mpf_sqrt,
    mpf_sub,
    round_nearest,
)

from .exact import InvariantError, LogLinear, factor, padic_val
from .field import (
    FElem,
    FPrimeIdeal,
    Setup,
    _half_slice,
    _line_sieve,
    _place_valuation,
    _slice_ideal,
    prime_ideals_above,
    principal_ideal,
)
from .genus import genus_char_prime, norm_ideal_count, prime_multiplicity
from .oracle import e1, lambda_at_zero

__all__ = [
    "DegreeReport",
    "arakelov_degree",
    "assemble_derivative",
    "coherent_ratio_check",
    "constant_term",
    "holomorphic_coefficient",
    "mixed_coefficient",
    "trace_degree",
]

# the two archimedean center values of a totally positive index: (-2i)^2
_ARCH_PRODUCT = -4


def _local_sums(setup: Setup, gen: FElem, prm: FPrimeIdeal, t: int) -> tuple[int, int]:
    """(value0, deriv_coeff) at a finite prime, for gen = sqrt(D) * alpha.

    ``t`` is ord_p(a^2 - D*b^2) for gen = (a + b*sqrt(D))/c, from the
    caller's factorization of the norm; ``field._place_valuation`` turns it
    into k = ord_P(gen).  With eps = chi(P), value0 is the norm-count sum
    sum_{r=0..k} eps^r and deriv_coeff the coefficient of log p in the
    derivative of the module convention above.  Both sums are taken term
    by term, not in closed form, because this path is the independent check.
    """
    k = _place_valuation(setup.D, gen.a, gen.b, gen.c, t, prm)
    if k < 0:
        raise ValueError("alpha has a pole against the inverse different here")
    eps = genus_char_prime(setup, prm)
    value = weighted = 0
    for r in range(k + 1):
        term = eps**r
        value += term
        weighted += r * term
    # (1/2) ord_P(D): nonzero only at ramified primes, where ord_P(D) = 2 ord_p(D)
    half_different = padic_val(setup.D, prm.p) if prm.kind == "ramified" else 0
    return value, prm.residue_degree * (half_different * value + weighted)


def holomorphic_coefficient(setup: Setup, m: int, x: int) -> LogLinear:
    """Coefficient of the totally positive index alpha = m/2 + (x/(2D)) sqrt(D).

    The closed form: zero unless x = mD (mod 2), i.e. sqrt(D)*alpha is
    integral, and the obstruction set is a single prime P; then
    2 * ord_P(alpha*P*D) * rho(alpha*D/P) * log p.  Independent of the
    imaginary parts by construction: no v enters.
    """
    return arakelov_degree(setup, m, x).coefficient


def _z_constants(D: int, v1, v2, precision: int):
    """The parts of ``_mixed_term``'s z that no term changes: sqrt(D), 4 pi, v1 and v2.

    Each is rounded to nearest at precision + 16 bits, the working
    precision of ``_mixed_term``: a run builds them once, for every term.
    """
    wp, rnd = precision + 16, round_nearest
    return (
        mpf_sqrt(from_int(D), wp, rnd),
        mpf_mul_int(mpf_pi(wp, rnd), 4, wp, rnd),
        mpmath.mpf(v1, prec=wp, rounding=rnd)._mpf_,
        mpmath.mpf(v2, prec=wp, rounding=rnd)._mpf_,
    )


def _mixed_term(D: int, m: int, x: int, rho: int, constants, precision: int):
    """2 rho * e1(4 pi |sigma| v), sigma the negative embedding of m/2 + (x/(2D)) sqrt(D).

    That is the first, with v = v1, for x < 0, the second, with v = v2, for
    x > 0.  ``constants`` is ``_z_constants(D, v1, v2, precision)``.
    ``libmp`` kernels at precision + 16 bits, rounding to nearest, take the
    steps of mpmath's ``mpf`` operators under that ``workprec``: the same
    bits, with no global precision set.
    """
    sqrt_D, four_pi, v1, v2 = constants
    wp, rnd = precision + 16, round_nearest
    half_m = mpf_div(from_int(m, wp, rnd), from_int(2), wp, rnd)
    x_part = mpf_div(from_int(abs(x), wp, rnd), from_int(2 * D), wp, rnd)
    sigma = mpf_sub(half_m, mpf_mul(x_part, sqrt_D, wp, rnd), wp, rnd)
    z = mpf_mul(four_pi, mpf_abs(sigma, wp, rnd), wp, rnd)
    z = mpf_mul(z, v1 if x < 0 else v2, wp, rnd)
    value = e1(mpmath.mp.make_mpf(z), precision)._mpf_
    return mpmath.mp.make_mpf(mpf_mul_int(value, 2 * rho, wp, rnd))


def mixed_coefficient(setup: Setup, m: int, x: int, v1, v2, precision: int):
    """Coefficient of the index alpha = m/2 + (x/(2D)) sqrt(D) of mixed signature.

    The signature is mixed when x^2 > m^2 D.  The value is 0 unless x - mD
    is even, i.e. sqrt(D) * alpha = (x + m sqrt(D))/2 is integral, and is
    else 2 rho * e1(4 pi |sigma_l| v_l), where l is the embedding at which
    alpha is negative (1 for x < 0, 2 for x > 0); it decays to 0 as v_l grows.
    rho is the report of a one-index line sieve at x, the value from ``_mixed_term``.
    """
    D = setup.D
    if x * x <= m * m * D:
        raise ValueError("expected a mixed-signature element")
    if v1 is None or v2 is None or not (v1 > 0 and v2 > 0):
        raise ValueError("imaginary parts must be positive")
    if (x - m * D) % 2:
        return mpmath.mpf(0)
    rho = _one_index_report(setup, m, x).rho
    if not rho:
        return mpmath.mpf(0)
    return _mixed_term(D, m, x, rho, _z_constants(D, v1, v2, precision), precision)


def constant_term(setup: Setup, v1, v2, precision: int):
    """Constant coefficient: -2 Lambda'(0) + Lambda(0) log(v1 v2).

    Lambda is the product of the two completed odd Dirichlet L-functions;
    values and derivatives come from the analytic oracle.
    """
    if v1 is None or v2 is None or not (v1 > 0 and v2 > 0):
        raise ValueError("imaginary parts must be positive")
    L1 = lambda_at_zero(setup.d1, precision)
    L2 = lambda_at_zero(setup.d2, precision)
    with mpmath.mp.workprec(precision + 16):
        lam = L1.l_value * L2.l_value
        lam_prime = (
            L1.completed_derivative * L2.l_value + L1.l_value * L2.completed_derivative
        )
        return +(-2 * lam_prime + lam * mpmath.log(mpmath.mpf(v1) * mpmath.mpf(v2)))


@dataclass(frozen=True)
class DegreeReport:
    """Degree of the CM locus at one index, with the matching coefficient.

    Stores integers only: the obstruction set ``diff``, its one prime
    ``reflex`` (None for the empty locus), ``two_nu`` = ord_P(alpha*P*D)
    (0 for the empty locus) and ``rho`` = rho(alpha*D/P).  With no single
    P, ``rho`` is rho(alpha*D), which is 0 unless the obstruction set is
    empty; that happens only at mixed signature, where the coefficient is
    2 rho * e1(...) (``mixed_coefficient``).  ``nu`` (the common length of the local
    rings), ``degree`` = nu * rho * log p and ``coefficient`` = 4 * degree
    are derived on access; both are zero for the empty locus.
    """

    diff: tuple[FPrimeIdeal, ...]
    reflex: FPrimeIdeal | None
    two_nu: int
    rho: int

    @property
    def nu(self) -> Fraction:
        return Fraction(self.two_nu, 2)

    def _log_p(self, c: Fraction) -> LogLinear:
        return LogLinear.zero() if self.reflex is None else LogLinear._unchecked({self.reflex.p: c})

    @property
    def degree(self) -> LogLinear:
        return self._log_p(Fraction(self.two_nu * self.rho, 2))

    @property
    def coefficient(self) -> LogLinear:
        return self._log_p(Fraction(2 * self.two_nu * self.rho))


class _LocalTable(dict):
    """q -> (kind, chi, primes above q) for one ``Setup``, filled as the primes come.

    kind is the splitting of q in F, chi the genus character at a prime
    above q (``genus_char_prime``; both primes above a split q have norm
    q and share it).  A run builds one table and reads it at every index:
    a ``coeffs`` stream, a trace degree, one setup of a check's sweep.
    It keeps every prime of its run, with no bound, as the ``tails`` and
    ``diffs`` tables of ``cli._records`` keep their keys, and is not
    shared between runs or threads.
    """

    __slots__ = ("setup",)

    def __init__(self, setup: Setup):
        super().__init__()
        self.setup = setup

    def __missing__(self, q: int):
        prms = prime_ideals_above(self.setup, q)
        entry = self[q] = (prms[0].kind, genus_char_prime(self.setup, prms[0]), prms)
        return entry


def _index_report(table: _LocalTable, m: int, x: int, factors) -> DegreeReport:
    """The report of the index (m, x), of either signature, from the (q, e) pairs of its norm.

    ``factors`` are the pairs of n = |m^2*D - x^2|/4, q increasing, as the
    line sieve finds them.  Gross and Zagier's local rule (On singular
    moduli, 1985) gives the exponent k of (x + m*sqrt(D))/2 at each place
    above q: e/2 at inert q; e at ramified q; at split q, t at both places
    and the other e - 2t at the one where sqrt(D) = s = -u/w (mod q, or
    mod 4 at q = 2), split_minus if 2s > q (or 4), else split_plus.  Here
    (x + m*sqrt(D))/2 = q^t (u + w*sqrt(D))/2 with t as large as it can
    be, as in ``field._slice_ideal``, whose copy of the rule is the check
    paths'.  A place with chi = +1 multiplies rho by k + 1; one with
    chi = -1 and k odd is an obstruction place.  The ``FPrimeIdeal``s of
    the report are the table's, taken for the obstruction places alone.
    """
    D = table.setup.D
    obstruction, rho = [], 1
    for q, e in factors:
        kind, chi, prms = table[q]
        if kind == "inert":
            if e % 2:
                raise InvariantError("odd norm valuation at an inert prime")
            places = ((prms[0], e // 2),)
        elif kind == "ramified":
            places = ((prms[0], e),)
        else:
            u, w, t = x, m, 0
            while u % q == 0 and w % q == 0 and (q > 2 or (u - w) % 4 == 0):
                u, w, t = u // q, w // q, t + 1
            plus = minus = t
            if e > 2 * t:
                r = 4 if q == 2 else q
                s = -u * pow(w, -1, r) % r if w % q else None  # sqrt(D) = s at that place
                if s is None or (s * s - D) % r:
                    raise InvariantError("x is not in exactly one root class of a split prime")
                if 2 * s > r:
                    minus += e - 2 * t
                else:
                    plus += e - 2 * t
            places = ((prms[0], plus), (prms[1], minus))
        for prm, k in places:
            if chi == 1:
                rho *= k + 1
            elif k % 2:
                obstruction.append((prm, k))
    if len(obstruction) != 1:
        diff = tuple(prm for prm, _ in obstruction)
        return DegreeReport(diff, None, 0, 0 if diff else rho)
    prm, k = obstruction[0]
    if prm.residue_degree != 1:
        raise InvariantError("obstruction primes have residue degree 1")
    # rho(alpha*D/P): P's own factor is 1 (chi(P) = -1, even exponent left)
    return DegreeReport((prm,), prm, k + 1, rho)


def _one_index_report(setup: Setup, m: int, x: int) -> DegreeReport:
    """``_index_report`` of (m, x), x of either sign, from a one-index line sieve."""
    ((_, factors),) = _line_sieve(setup, m, range(x, x + 1, 2))
    return _index_report(_LocalTable(setup), m, x, factors)


def arakelov_degree(setup: Setup, m: int, x: int) -> DegreeReport:
    """Length- and automorphism-weighted point count at alpha = m/2 + (x/(2D)) sqrt(D).

    Needs m >= 1 and x^2 < m^2 D.  The report is empty unless x = mD
    (mod 2) and the ideal alpha * (different), whose local data
    ``_index_report`` reads off the line sieve's factors, has one
    obstruction prime P: then the locus lies in characteristic p,
    each local ring of length nu = (1/2) ord_P(alpha*P*D), and

        degree = nu * rho(alpha*D/P) * log p,

    while the coefficient is the closed form 4 * degree.
    """
    if m < 1 or x * x >= m * m * setup.D:
        raise ValueError("expected a nonzero totally positive element")
    if (x - m * setup.D) % 2:
        return DegreeReport((), None, 0, 0)
    return _one_index_report(setup, m, x)


def trace_degree(setup: Setup, m: int) -> LogLinear:
    """Degree of the trace-m CM locus, computed two ways and compared.

    (a) sum of per-index degrees over the trace slice (``_index_report``);
    (b) one half of the double sum of per-prime multiplicities, on the
        ideals ``field._slice_ideal`` builds from the same factors.
    Both walk the half slice x >= 0 and weight each index 2 for x > 0 and
    1 for x = 0: the index at -x has the Galois conjugate ideal, and
    degrees and multiplicities depend only on norms and chi, which the
    conjugation keeps.  The two must agree exactly, else InvariantError;
    the common value is returned.
    """
    total_a: dict[int, int] = {}  # twice path (a), sum of weight * two_nu * rho
    total_b: dict[int, int] = {}  # twice path (b)
    table = _LocalTable(setup)
    for x, factors in _half_slice(setup, m):
        weight = 2 if x else 1
        report = _index_report(table, m, x, factors)
        if report.reflex is not None:
            p = report.reflex.p
            total_a[p] = total_a.get(p, 0) + weight * report.two_nu * report.rho
        ideal = _slice_ideal(setup, m, x, factors)
        for p in ideal.rational_primes():
            total_b[p] = total_b.get(p, 0) + weight * prime_multiplicity(setup, ideal, p)
    degree = LogLinear._unchecked({p: Fraction(c, 2) for p, c in total_a.items()})
    if degree != LogLinear._unchecked({p: Fraction(c, 2) for p, c in total_b.items()}):
        raise InvariantError("slice decomposition disagrees with multiplicity sums")
    return degree


def _local_factors(setup: Setup, alpha: FElem) -> tuple[FPrimeIdeal, int, int]:
    """(place, deriv_coeff, scalar): the obstruction place, its derivative, the other values.

    Finite values are 1 off the primes of N(sqrt(D) * alpha); the obstruction
    place is the unique one where sum_{r<=k} chi(P)^r = 0 (chi(P) = -1, k odd).
    sqrt(D) * alpha = (a + b*sqrt(D))/c is built once and its norm factored
    once; ``_local_sums`` runs at every prime p of the norm, both split
    primes included, with t = ord_p(a^2 - D*b^2), the norm's exponent plus
    2 ord_p(c).  The nonzero center values multiply as integers, with the
    archimedean (-2i)^2 (``scalar``); the obstruction place keeps its
    coefficient of log p (``deriv_coeff``).
    """
    if alpha.is_zero or not alpha.is_totally_positive(setup.D):
        raise ValueError("expected a nonzero totally positive element")
    gen = alpha.times_sqrtD(setup.D)
    if not gen.is_integral(setup.D):
        raise ValueError("index is outside the inverse different")
    zeros, scalar = [], _ARCH_PRODUCT
    norm = (gen.a * gen.a - setup.D * gen.b * gen.b) // (gen.c * gen.c)  # exact: gen is integral
    for p, e in factor(abs(norm)):
        t = e + 2 * padic_val(gen.c, p)  # ord_p(a^2 - D*b^2)
        for prm in prime_ideals_above(setup, p):
            value, deriv_coeff = _local_sums(setup, gen, prm, t)
            if value:
                scalar *= value
            else:
                zeros.append((prm, deriv_coeff))
    if len(zeros) != 1:
        raise ValueError("assembly needs a single obstruction prime")
    return (*zeros[0], scalar)


def assemble_derivative(setup: Setup, alpha: FElem) -> LogLinear:
    """Center derivative of one coefficient by the product rule.

    Requires a single obstruction prime P: only the term with the
    derivative at P survives, so the result is the local derivative at P
    times all the other center values (finite and archimedean).  Nothing
    is shared with the closed form: every factor is the literal finite sum.
    """
    place, deriv_coeff, scalar = _local_factors(setup, alpha)
    coeff = deriv_coeff * scalar
    if coeff < 0:
        raise InvariantError("coefficient must be nonnegative")
    return LogLinear._unchecked({place.p: Fraction(coeff)})


def coherent_ratio_check(setup: Setup, m: int, x: int, report: DegreeReport) -> bool:
    """Exact identity at alpha = m/2 + (x/(2D)) sqrt(D): derivative = nu * log p * coherent value.

    ``report`` is the index's ``arakelov_degree`` report, from the line
    sieve the caller walks: the obstruction prime P, 2 nu and rho.  One
    ``_local_factors`` pass on the ``FElem`` alpha (the literal sums of
    ``_local_sums``, which find P on their own as the center value 0)
    gives the derivative at P and the other center values; the identity
    fails if that place is not the report's P.  The section twisted at P has center value -1 there, so
    the coherent value is minus the product of the others, asserted
    against 4 * rho of ``principal_ideal``.  The assembled derivative,
    nu * (coherent value) and the closed form 4 * nu * rho are then
    compared as integer multiples of log p.
    """
    if report.reflex is None:
        raise ValueError("identity needs a single obstruction prime")
    prm = report.reflex
    alpha = FElem(Fraction(m, 2), Fraction(x, 2 * setup.D))
    try:
        place, deriv_coeff, scalar = _local_factors(setup, alpha)
    except ValueError:  # no single obstruction place in the assembly
        return False
    if place != prm:
        return False
    coherent = -scalar
    ideal = principal_ideal(setup, alpha.times_sqrtD(setup.D))
    if coherent != 4 * norm_ideal_count(setup, ideal.times(prm, -1)):
        raise InvariantError("coherent center value disagrees with 4 * rho")
    # twice each coefficient of log p: assembly, nu * coherent value, closed form
    return 2 * deriv_coeff * scalar == report.two_nu * coherent == 4 * report.two_nu * report.rho
