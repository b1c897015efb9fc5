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
  off the ideal the line sieve (``field._line_sieve``) factors from (m, x),
* a product-rule assembly of finite local Whittaker values and the one
  local derivative (``assemble_derivative``) on the ``FElem`` alpha:
  literal finite sums at the primes of the norm, valued by the check
  paths' ``element_valuation``, the obstruction prime found as the one
  center value 0, no ideal built.  Each archimedean value is -2i.
  One integer kernel, ``_local_sums``, takes the two sums at a place;
  the assembly multiplies the center values as integers and builds one
  ``LogLinear``, the derivative at the obstruction prime times the rest.

The matching Arakelov degree of the zero-dimensional CM locus is one
quarter of the coefficient; ``trace_degree`` sums a trace slice and also
recomputes it through the per-prime multiplicity sums as a cross-check.
Both sums walk only the half slice x >= 0 (``field._half_slice``), with
weight 2 for x > 0 and 1 for x = 0, since the index at -x carries the
Galois conjugate ideal and the same degree and multiplicities.

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
    FIdealFactored,
    FPrimeIdeal,
    Setup,
    _half_slice,
    _line_sieve,
    element_valuation,
    prime_ideals_above,
    principal_ideal,
)
from .genus import diff_set, genus_char_prime, norm_ideal_count, prime_multiplicity
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


def _local_sums(setup: Setup, gen: FElem, prm: FPrimeIdeal) -> tuple[int, int]:
    """(value0, deriv_coeff) at a finite prime, for gen = sqrt(D) * alpha.

    With t = ord_P(gen) and eps = chi(P), value0 is the norm-count sum
    sum_{r=0..t} eps^r and deriv_coeff the coefficient of log p in the
    derivative of the module convention above.  Both sums are taken term
    by term, not in closed form, because this path is the independent check.
    """
    t = element_valuation(setup, gen, prm)
    if t < 0:
        raise ValueError("alpha has a pole against the inverse different here")
    eps = genus_char_prime(setup, prm)
    value = weighted = 0
    for r in range(t + 1):
        term = eps**r
        value += term
        weighted += r * term
    # (1/2) ord_P(D): nonzero only at ramified primes, where ord_P(D) = 2 ord_p(D)
    half_different = padic_val(setup.D, prm.p) if prm.kind == "ramified" else 0
    return value, prm.residue_degree * (half_different * value + weighted)


def _index_ideal(setup: Setup, m: int, x: int) -> FIdealFactored:
    """The integral ideal ((x + m*sqrt(D))/2), x of either sign, from a one-index line sieve."""
    ((_, _, ideal),) = _line_sieve(setup, m, range(x, x + 1, 2))
    return ideal


def holomorphic_coefficient(setup: Setup, m: int, x: int) -> LogLinear:
    """Coefficient of the totally positive index alpha = m/2 + (x/(2D)) sqrt(D).

    The closed form: zero unless x = mD (mod 2), i.e. sqrt(D)*alpha is
    integral, and the obstruction set is a single prime P; then
    2 * ord_P(alpha*P*D) * rho(alpha*D/P) * log p.  Independent of the
    imaginary parts by construction: no v enters.
    """
    return arakelov_degree(setup, m, x).coefficient


def _mixed_term(D: int, m: int, x: int, rho: int, v, precision: int):
    """2 rho * e1(4 pi |sigma| v), |sigma| the negative embedding of m/2 + (|x|/(2D)) sqrt(D).

    ``libmp`` kernels at precision + 16 bits, rounding to nearest, take the
    steps of mpmath's ``mpf`` operators under that ``workprec``: the same
    bits, with no global precision set.
    """
    wp, rnd = precision + 16, round_nearest
    half_m = mpf_div(from_int(m, wp, rnd), from_int(2), wp, rnd)
    x_part = mpf_div(from_int(abs(x), wp, rnd), from_int(2 * D), wp, rnd)
    sigma = mpf_sub(half_m, mpf_mul(x_part, mpf_sqrt(from_int(D), wp, rnd), wp, rnd), wp, rnd)
    z = mpf_mul(mpf_mul_int(mpf_pi(wp, rnd), 4, wp, rnd), mpf_abs(sigma, wp, rnd), wp, rnd)
    z = mpf_mul(z, mpmath.mpf(v, prec=wp, rounding=rnd)._mpf_, wp, rnd)
    value = e1(mpmath.mp.make_mpf(z), precision)._mpf_
    return mpmath.mp.make_mpf(mpf_mul_int(value, 2 * rho, wp, rnd))


def mixed_coefficient(setup: Setup, m: int, x: int, v1, v2, precision: int):
    """Coefficient of the index alpha = m/2 + (x/(2D)) sqrt(D) of mixed signature.

    The signature is mixed when x^2 > m^2 D.  The value is 0 unless x - mD
    is even, i.e. sqrt(D) * alpha = (x + m sqrt(D))/2 is integral, and is
    else 2 rho * e1(4 pi |sigma_l| v_l), where l is the embedding at which
    alpha is negative (1 for x < 0, 2 for x > 0); it decays to 0 as v_l grows.
    rho comes from the line sieve at x, the value from ``_mixed_term``.
    """
    D = setup.D
    if x * x <= m * m * D:
        raise ValueError("expected a mixed-signature element")
    if v1 is None or v2 is None or not (v1 > 0 and v2 > 0):
        raise ValueError("imaginary parts must be positive")
    if (x - m * D) % 2:
        return mpmath.mpf(0)
    rho = norm_ideal_count(setup, _index_ideal(setup, m, x))
    return _mixed_term(D, m, x, rho, v1 if x < 0 else v2, precision) if rho else mpmath.mpf(0)


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
    and ``rho`` = rho(alpha*D/P), both 0 for the empty locus.  ``nu`` (the
    common length of the local rings), ``degree`` = nu * rho * log p and
    ``coefficient`` = 4 * degree are derived on access; both are zero for
    the empty locus.
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


def _degree_report(setup: Setup, ideal: FIdealFactored) -> DegreeReport:
    """``arakelov_degree`` of the index whose ideal alpha * (different) is ``ideal``.

    Takes the line sieve's integral ideal.  Finds the obstruction set, its
    one prime P, ord_P(ideal) + 1 and rho of the ideal less P's entry;
    builds no ``LogLinear`` or ``Fraction``.
    """
    diff = diff_set(setup, ideal)
    if len(diff) != 1:
        return DegreeReport(diff, None, 0, 0)
    prm = diff[0]
    if prm.residue_degree != 1:
        raise InvariantError("obstruction primes have residue degree 1")
    # rho(ideal / P): P's own factor is 1 (chi(P) = -1, even exponent left)
    rest = FIdealFactored(tuple(entry for entry in ideal.entries if entry[0] != prm))
    return DegreeReport(diff, prm, ideal.ord_at(prm) + 1, norm_ideal_count(setup, rest))


def arakelov_degree(setup: Setup, m: int, x: int) -> DegreeReport:
    """Length- and automorphism-weighted point count at alpha = m/2 + (x/(2D)) sqrt(D).

    Needs m >= 1 and x^2 < m^2 D.  The report is empty unless x = mD
    (mod 2) and the ideal alpha * (different), read off the line sieve,
    has one obstruction prime P: then the locus lies in characteristic p,
    each local ring of length nu = (1/2) ord_P(alpha*P*D), and

        degree = nu * rho(alpha*D/P) * log p,

    while the coefficient is the closed form 4 * degree.
    """
    if m < 1 or x * x >= m * m * setup.D:
        raise ValueError("expected a nonzero totally positive element")
    if (x - m * setup.D) % 2:
        return DegreeReport((), None, 0, 0)
    return _degree_report(setup, _index_ideal(setup, m, x))


def trace_degree(setup: Setup, m: int) -> LogLinear:
    """Degree of the trace-m CM locus, computed two ways and compared.

    (a) sum of per-index degrees over the trace slice;
    (b) one half of the double sum of per-prime multiplicities.
    Both walk the half slice x >= 0 and weight each index 2 for x > 0 and
    1 for x = 0: the index at -x has the Galois conjugate ideal, and
    degrees and multiplicities depend only on norms and chi, which the
    conjugation keeps.  The two must agree exactly, else InvariantError;
    the common value is returned.
    """
    total_a: dict[int, int] = {}  # twice path (a), sum of weight * two_nu * rho
    total_b: dict[int, int] = {}  # twice path (b)
    for x, _, ideal in _half_slice(setup, m):
        weight = 2 if x else 1
        report = _degree_report(setup, ideal)
        if report.reflex is not None:
            p = report.reflex.p
            total_a[p] = total_a.get(p, 0) + weight * report.two_nu * report.rho
        for p in ideal.rational_primes():
            total_b[p] = total_b.get(p, 0) + weight * prime_multiplicity(setup, ideal, p)
    degree = LogLinear._unchecked({p: Fraction(c, 2) for p, c in total_a.items()})
    if degree != LogLinear._unchecked({p: Fraction(c, 2) for p, c in total_b.items()}):
        raise InvariantError("slice decomposition disagrees with multiplicity sums")
    return degree


def _local_factors(setup: Setup, alpha: FElem) -> tuple[FPrimeIdeal, int, int]:
    """(place, deriv_coeff, scalar): the obstruction place, its derivative, the other values.

    Finite values are 1 off the primes of N(sqrt(D) * alpha); the obstruction
    place is the unique one where sum_{r<=t} chi(P)^r = 0 (chi(P) = -1, t odd).
    sqrt(D) * alpha is built once, ``_local_sums`` runs at every prime of
    its norm, both split primes included, and the nonzero center values
    multiply as integers, with the archimedean (-2i)^2 (``scalar``); the
    obstruction place keeps its coefficient of log p (``deriv_coeff``).
    """
    if alpha.is_zero or not alpha.is_totally_positive(setup.D):
        raise ValueError("expected a nonzero totally positive element")
    gen = alpha.times_sqrtD(setup.D)
    if not gen.is_integral(setup.D):
        raise ValueError("index is outside the inverse different")
    zeros, scalar = [], _ARCH_PRODUCT
    norm = (gen.a * gen.a - setup.D * gen.b * gen.b) // (gen.c * gen.c)  # exact: gen is integral
    for p in factor(abs(norm)).primes():
        for prm in prime_ideals_above(setup, p):
            value, deriv_coeff = _local_sums(setup, gen, prm)
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


def coherent_ratio_check(setup: Setup, m: int, x: int) -> bool:
    """Exact identity at alpha = m/2 + (x/(2D)) sqrt(D): derivative = nu * log p * coherent value.

    The ``arakelov_degree`` report, read off the line sieve, gives the
    obstruction prime P, 2 nu and rho.  One ``_local_factors`` pass on the
    ``FElem`` alpha (the literal sums of ``_local_sums``, which find P on
    their own as the center value 0) gives the derivative at P and the
    other center values; the identity fails if that place is not the
    report's P.  The section twisted at P has center value -1 there, so
    the coherent value is minus the product of the others, asserted
    against 4 * rho of ``principal_ideal``.  The assembled derivative,
    nu * (coherent value) and the closed form 4 * nu * rho are then
    compared as integer multiples of log p.
    """
    report = arakelov_degree(setup, m, x)
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
