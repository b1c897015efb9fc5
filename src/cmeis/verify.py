"""Cross-module invariant suites.

``SUITES`` maps each suite to its checks, in run order.  A check takes a
seeded ``random.Random`` and returns the detail of its first failure, or
None.  ``run_suites`` gives each suite one rng and yields ``(suite, name,
detail)`` as each check ends: ``detail`` is None on a pass and
``"<Type>: <message>"`` for a check that raises.  The CLI ``verify``
writes, and flushes, each check's line when the check ends.  The
``eisenstein`` and ``oracle`` checks, and ``splitting-degree-sum``,
``trace-slice-invariants``, ``support-odd-and-matches``,
``zeta-convolution``, ``chi-invariant-under-norms`` and
``gross-zagier-trace-m``, sweep fixed ranges and draw nothing from
theirs, so every seed runs the same sweep there; only the other
``arith``, ``field`` and ``genus`` checks draw from the rng.
``trace-degree-two-paths`` and ``gross-zagier-trace-m`` check the one
path of ``eisenstein.trace_degree``, which compares nothing itself.
Tier-1 runs every suite clean once, through the CLI, and one fault per
check; the tests share ``TEST_MATRIX``, and the counting helpers are
private to this module.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath

from . import eisenstein, genus, oracle
from .exact import (
    OO,
    LogLinear,
    factor,
    hilbert_symbol,
    is_prime,
    kronecker,
    padic_val,
    sqrt_mod_prime_power,
)
from .field import (
    FElem,
    FIdealFactored,
    Setup,
    _half_slice,
    _is_fundamental_discriminant,
    _slice_ideal,
    _unit_count,
    element_valuation,
    enumerate_trace_slice,
    local_invariants,
    prime_ideals_above,
    principal_ideal,
    support,
)

__all__ = ["SUITES", "TEST_MATRIX", "run_suites"]

# The full matrix of discriminant pairs exercised end to end.
TEST_MATRIX = (
    (-3, -7),
    (-3, -4),
    (-4, -7),
    (-3, -8),
    (-7, -8),
    (-3, -11),
    (-4, -11),
    (-8, -11),
    (-7, -23),
)


def _setups() -> list[Setup]:
    return [Setup(d1, d2) for d1, d2 in TEST_MATRIX]


def _random_nonzero_rational(rng: random.Random, height: int = 30) -> Fraction:
    num = rng.randint(-height, height)
    while num == 0:
        num = rng.randint(-height, height)
    return Fraction(num, rng.randint(1, height))


# ---------------------------------------------------------------------------


def _factor_roundtrip(rng: random.Random) -> str | None:
    for _ in range(10_000):
        n = rng.randint(-(10**12), 10**12)
        if n == 0:
            continue
        f = factor(n)
        if (
            math.prod(p**e for p, e in f) != abs(n)
            or not all(is_prime(p) and e >= 1 for p, e in f)
            or any(p >= q for (p, _), (q, _) in zip(f, f[1:]))
        ):
            return f"factor round-trip failed at {n}"
    return None


def _hilbert_bimultiplicative(rng: random.Random) -> str | None:
    places = [OO, 2, 3, 5, 7, 11, 13]
    for _ in range(300):
        a = _random_nonzero_rational(rng)
        b = _random_nonzero_rational(rng)
        c = _random_nonzero_rational(rng)
        for place in places:
            if hilbert_symbol(a, b * c * c, place) != hilbert_symbol(a, b, place):
                return f"square invariance failed: {a}, {b}, {c} at {place}"
            lhs = hilbert_symbol(a, b * c, place)
            rhs = hilbert_symbol(a, b, place) * hilbert_symbol(a, c, place)
            if lhs != rhs:
                return f"bimultiplicativity failed: {a}, {b}, {c} at {place}"
    return None


def _hilbert_product_formula(rng: random.Random) -> str | None:
    for _ in range(300):
        a = _random_nonzero_rational(rng)
        b = _random_nonzero_rational(rng)
        relevant = {OO, 2}
        for x in (a, b):
            relevant.update(p for p, _ in factor(abs(x.numerator)))
            relevant.update(p for p, _ in factor(x.denominator))
        prod = 1
        for place in relevant:
            prod *= hilbert_symbol(a, b, place)
        if prod != 1:
            return f"product formula failed for ({a}, {b})"
    return None


def _sqrt_mod_prime_power(rng: random.Random) -> str | None:
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7, 11, 13, 17, 101])
        k = rng.randint(1, 6)
        d = rng.randint(2, 4000)
        if p == 2:
            d = 8 * d + 1
        elif kronecker(d, p) != 1:
            continue
        r = sqrt_mod_prime_power(d, p, k)
        if (r * r - d) % p**k != 0:
            return f"sqrt failed: D={d}, p={p}, k={k}"
        if sqrt_mod_prime_power(d, p, k + 1) % p**k != r:
            return f"sqrt lift not coherent: D={d}, p={p}, k={k}"
    return None


def _loglinear_exactness(rng: random.Random) -> str | None:
    # exact equality agrees with 128-bit floats on a random pair and on a pair
    # equal by construction: t1 rebuilt in reverse key order with a zero term
    small_primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    for _ in range(300):
        t1 = LogLinear(
            {rng.choice(small_primes): _random_nonzero_rational(rng, 40) for _ in range(3)}
        )
        t2 = LogLinear(
            {rng.choice(small_primes): _random_nonzero_rational(rng, 40) for _ in range(3)}
        )
        spare = next(p for p in small_primes if p not in t1.terms())
        rebuilt = LogLinear({**dict(reversed(t1.terms().items())), spare: 0})
        for u in (t2, rebuilt):
            gap = abs(t1.to_float(128) - u.to_float(128))
            if (t1 == u) != (gap < mpmath.mpf(2) ** -90):
                return f"equality vs 128-bit floats disagree: {t1} vs {u}"
    return None


# ---------------------------------------------------------------------------


def _splitting_degree_sum(rng: random.Random) -> str | None:
    for setup in _setups():
        for p in range(2, 501):
            if not is_prime(p):
                continue
            total = sum(
                prm.ramification * prm.residue_degree
                for prm in prime_ideals_above(setup, p)
            )
            if total != 2:
                return f"sum e*f != 2 at p={p} for {setup}"
    return None


def _valuation_norm_compatible(rng: random.Random) -> str | None:
    setups = _setups()
    for _ in range(1000):
        setup = rng.choice(setups)
        u, v = _random_nonzero_rational(rng, 40), _random_nonzero_rational(rng, 40)
        # a third rational and a third rational multiples of sqrt(D)
        beta = rng.choice((FElem(u, v), FElem(u, 0), FElem(0, v)))
        nrm = beta.norm(setup.D)
        ps = {p for n in (abs(nrm.numerator), nrm.denominator) for p, _ in factor(n)}
        for p in ps:
            got = sum(
                prm.residue_degree * element_valuation(setup, beta, prm)
                for prm in prime_ideals_above(setup, p)
            )
            if got != padic_val(nrm, p):
                return f"valuations vs norm failed for {beta} at {p}"
    return None


def _ideal_report(setup: Setup, ideal: FIdealFactored) -> eisenstein.DegreeReport:
    """The report of an index read off its ideal by ``diff_set`` and ``norm_ideal_count``."""
    diff = genus.diff_set(setup, ideal)
    if len(diff) != 1:
        rho = 0 if diff else genus.norm_ideal_count(setup, ideal)
        return eisenstein.DegreeReport(diff, None, 0, rho)
    (prm,) = diff
    k = ideal.ord_at(prm)
    rest = ideal.times(prm, -k)  # the ideal less P's entry
    return eisenstein.DegreeReport(diff, prm, k + 1, genus.norm_ideal_count(setup, rest))


def _trace_slice_invariants(rng: random.Random) -> str | None:
    # the sieve's ideal, built at each index (x < 0 too, not conjugated from x > 0), and
    # its integer report (what coeffs prints), each against the principal ideal of sqrt(D) * alpha
    for setup in _setups():
        table = eisenstein._LocalTable(setup)
        for m in range(1, 11):
            elems = enumerate_trace_slice(setup, m)
            xs = [e.x for e in elems]
            if xs != sorted(xs) or sorted(-x for x in xs) != xs:
                return f"slice not symmetric/sorted at m={m}, {setup}"
            for e in elems:
                gen = e.alpha.times_sqrtD(setup.D)
                ideal = principal_ideal(setup, gen)
                if (
                    e.alpha.trace() != m
                    or not e.alpha.is_totally_positive(setup.D)
                    or not gen.is_integral(setup.D)
                    or _slice_ideal(setup, m, e.x, e.factors) != ideal
                ):
                    return f"slice invariants failed at x={e.x}, m={m}, {setup}"
                report = eisenstein._index_report(table, m, e.x, e.factors)
                if report != _ideal_report(setup, ideal):
                    return (
                        f"slice report disagrees with the principal ideal at x={e.x}, m={m}, {setup}"
                    )
    return None


def _support_odd_and_matches(rng: random.Random) -> str | None:
    for setup in _setups():
        for m in range(1, 9):
            for e in enumerate_trace_slice(setup, m):
                signs = local_invariants(setup, e.alpha)
                spt = {pl for pl, sign in signs.items() if sign == -1} - {OO}
                if len(spt) % 2 == 0:
                    return f"even support at x={e.x}, m={m}, {setup}"
                diff = genus.diff_set(setup, _slice_ideal(setup, m, e.x, e.factors))
                if len(diff) == 1 and {diff[0].p} != spt:
                    return f"support vs obstruction prime mismatch at x={e.x}, m={m}, {setup}"
                # every sign off these places is +1: this is the full product formula
                if math.prod(signs.values()) != 1:
                    return f"invariant product formula failed at x={e.x}, m={m}, {setup}"
    return None


# ---------------------------------------------------------------------------


def _ideal_patterns(setup: Setup, p: int, a: int):
    """All local ideals above p of absolute norm p^a, as entry tuples."""
    prms = prime_ideals_above(setup, p)
    if len(prms) == 2:
        plus, minus = prms
        return [
            tuple(
                pair
                for pair in ((plus, i), (minus, a - i))
                if pair[1] != 0
            )
            for i in range(a + 1)
        ]
    (prm,) = prms
    if prm.kind == "inert":
        return [((prm, a // 2),)] if a % 2 == 0 else []
    return [((prm, a),)]


def _norm_count_sum(setup: Setup, n: int, spf: list[int]) -> int:
    """Sum of rho over all integral ideals of absolute norm n."""
    parts: list[tuple[int, int]] = []
    while n > 1:
        p = spf[n]
        a = 0
        while n % p == 0:
            n //= p
            a += 1
        parts.append((p, a))
    total_patterns: list[tuple] = [()]
    for p, a in parts:
        local = _ideal_patterns(setup, p, a)
        if not local:
            return 0
        total_patterns = [t + l for t in total_patterns for l in local]
    return sum(
        genus.norm_ideal_count(setup, FIdealFactored.from_pairs(pat))
        for pat in total_patterns
    )


def _spf_sieve(n_max: int) -> list[int]:
    spf = list(range(n_max + 1))
    for i in range(2, int(n_max**0.5) + 1):
        if spf[i] == i:
            for j in range(i * i, n_max + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def _dirichlet_convolve(f: list[int], g: list[int]) -> list[int]:
    n_max = len(f) - 1
    out = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        fd = f[d]
        if fd:
            for m in range(d, n_max + 1, d):
                out[m] += fd * g[m // d]
    return out


def _zeta_convolution(rng: random.Random) -> str | None:
    zeta_max = 10_000
    spf = _spf_sieve(zeta_max)
    for setup in _setups():
        one = [0] + [1] * zeta_max
        chi1 = [0] + [kronecker(setup.d1, n) for n in range(1, zeta_max + 1)]
        chi2 = [0] + [kronecker(setup.d2, n) for n in range(1, zeta_max + 1)]
        chid = [0] + [kronecker(setup.D, n) for n in range(1, zeta_max + 1)]
        rhs = _dirichlet_convolve(_dirichlet_convolve(one, chi1), _dirichlet_convolve(chi2, chid))
        for n in range(1, zeta_max + 1):
            if _norm_count_sum(setup, n, spf) != rhs[n]:
                return f"norm-count sum vs convolution at n={n}, {setup}"
    return None


def _rho_multiplicative(rng: random.Random) -> str | None:
    setups = _setups()
    for _ in range(300):
        setup = rng.choice(setups)
        p1, p2 = rng.sample([2, 3, 5, 7, 11, 13, 17, 19], 2)
        # exponent 0 at one prime above a split p leaves its conjugate alone
        a = FIdealFactored.from_pairs(
            [(prm, rng.randint(0, 3)) for prm in prime_ideals_above(setup, p1)]
        )
        b = FIdealFactored.from_pairs(
            [(prm, rng.randint(0, 3)) for prm in prime_ideals_above(setup, p2)]
        )
        lhs = genus.norm_ideal_count(setup, FIdealFactored.from_pairs(a.entries + b.entries))
        rhs = genus.norm_ideal_count(setup, a) * genus.norm_ideal_count(setup, b)
        if lhs != rhs:
            return f"rho not multiplicative on {a}, {b}"
    return None


def _chi_invariant_under_norms(rng: random.Random) -> str | None:
    # a rational q split in both K_i splits completely in K, so chi is +1 at each
    # prime of F above it: the chi that coeffs reads through _LocalTable
    for setup in _setups():
        split_both = [
            q for q in range(2, 200)
            if is_prime(q) and kronecker(setup.d1, q) == kronecker(setup.d2, q) == 1
        ][:3]
        for q in split_both:
            for prm in prime_ideals_above(setup, q):
                if genus.genus_char_prime(setup, prm) != 1:
                    return f"chi changed by split norm ideal ({q}) at {prm}"
    return None


def _gross_zagier_trace_m(rng: random.Random) -> str | None:
    # Gross and Zagier's product over the divisors of m, on rational integers alone
    for setup, m in [*((s, m) for s in _setups() for m in range(1, 21)), (Setup(-191, -239), 1)]:
        if genus.trace_product(setup, m) != eisenstein.trace_degree(setup, m):
            return f"trace-{m} product disagrees with the trace-{m} degree for {setup}"
    return None


# ---------------------------------------------------------------------------


def _degree_coefficient_identity(rng: random.Random) -> str | None:
    # closed form from the slice's factors (the report coeffs prints), assembly from valuations,
    # and a Hilbert-symbol support of exactly {P}, so no prime reaches outside the obstruction;
    # x and -x share a Hasse diagonal, so each line takes the support once per |x|
    for setup in _setups():
        table = eisenstein._LocalTable(setup)
        for m in range(1, 21):
            supports: dict[int, set[int]] = {}
            line = f"m={m}, {setup}"
            for e in enumerate_trace_slice(setup, m):
                rep = eisenstein._index_report(table, m, e.x, e.factors)
                if len(rep.diff) % 2 == 0:
                    return f"even obstruction set at x={e.x}, {line}"
                if len(rep.diff) > 1:
                    if not rep.coefficient.is_zero:
                        return f"split index nonzero at x={e.x}, {line}"
                    continue
                # coefficient = 4 * degree by DegreeReport's construction
                if rep.coefficient != eisenstein.assemble_derivative(setup, e.alpha):
                    return f"4*degree != coefficient at x={e.x}, {line}"
                spt = supports.get(abs(e.x))
                if spt is None:
                    spt = supports[abs(e.x)] = support(setup, e.alpha)
                if spt != {rep.reflex.p}:
                    return f"degree support outside obstruction at x={e.x}, {line}"
    return None


def _trace_degree_two_paths(rng: random.Random) -> str | None:
    # trace_degree against half the double sum of per-prime multiplicities on the ideals
    # _slice_ideal builds from the half slice's pairs, weight 2 for x > 0 (conjugate at -x)
    for setup in _setups():
        for m in range(1, 21):
            total: dict[int, int] = {}  # twice the degree
            for x, factors in _half_slice(setup, m):
                ideal = _slice_ideal(setup, m, x, factors)
                for p in ideal.rational_primes():
                    weighted = (2 if x else 1) * genus.prime_multiplicity(setup, ideal, p)
                    total[p] = total.get(p, 0) + weighted
            sums = LogLinear({p: Fraction(c, 2) for p, c in total.items()})
            if eisenstein.trace_degree(setup, m) != sums:
                return f"trace degree disagrees with the multiplicity sums at m={m}, {setup}"
    return None


def _coherent_ratio(rng: random.Random) -> str | None:
    for setup in _setups()[:3]:
        table = eisenstein._LocalTable(setup)
        for m in range(1, 6):
            for e in enumerate_trace_slice(setup, m):
                report = eisenstein._index_report(table, m, e.x, e.factors)
                if report.reflex is None:
                    continue
                if not eisenstein.coherent_ratio_check(setup, m, e.x, report):
                    return f"coherent ratio failed at x={e.x}, m={m}, {setup}"
    return None


def _mixed_coefficient_decay(rng: random.Random) -> str | None:
    setup = _setups()[0]
    # m = 1, x = -5: alpha = 1/2 - (5/(2D)) sqrt(D), negative at the first embedding
    prev = None
    for v in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 100.0, 800.0):
        val = eisenstein.mixed_coefficient(setup, 1, -5, v, 1.0, 80)
        if prev is not None and not val < prev:
            return f"mixed coefficient not decreasing at v={v}"
        prev = val
    if not prev < mpmath.mpf("1e-50"):
        return "mixed coefficient does not vanish at large v"
    return None


def _constant_term_scaling(rng: random.Random) -> str | None:
    precision = 128
    for setup in _setups()[:4]:
        lam = (
            Fraction(2 * oracle.class_number(setup.d1), setup.w1)
            * Fraction(2 * oracle.class_number(setup.d2), setup.w2)
        )
        with mpmath.mp.workprec(precision):
            a_11 = eisenstein.constant_term(setup, 1, 1, precision)
            t = mpmath.mpf(3)
            a_tt = eisenstein.constant_term(setup, t, t, precision)
            lamf = mpmath.mpf(lam.numerator) / lam.denominator
            gap = abs(a_tt - a_11 - 2 * lamf * mpmath.log(t))
        if gap > mpmath.mpf(2) ** (-precision + 40):
            return f"constant-term scaling off by {mpmath.nstr(gap, 5)}"
    return None


# ---------------------------------------------------------------------------


def _brute_class_count(d: int) -> int:
    count = 0
    b_parity = d % 2
    amax = int((abs(d) / 3) ** 0.5) + 1
    for a in range(1, amax + 1):
        for b in range(-a, a + 1):
            if (b - b_parity) % 2:
                continue
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (abs(b) == a or a == c):
                continue
            if math.gcd(math.gcd(a, abs(b)), c) == 1:
                count += 1
    return count


def _class_count_brute_force(rng: random.Random) -> str | None:
    for d in range(-3, -201, -1):
        if not _is_fundamental_discriminant(d):
            continue
        if len(oracle.class_reps(d)) != _brute_class_count(d):
            return f"class count mismatch at d={d}"
    return None


def _class_poly_certificate(rng: random.Random) -> str | None:
    # the absolute bound 2^-(prec/2) holds at the height precision, not at any override
    for d in (-3, -4, -7, -8, -11, -23, -47):
        prec = oracle._height_precision(d)
        coeffs = oracle.hilbert_class_poly(d, prec)
        with mpmath.mp.workprec(prec + 48):
            for form in oracle.class_reps(d):
                j = oracle.j_value(form, prec)
                val = abs(mpmath.polyval(coeffs[::-1], j))
                if val > mpmath.mpf(2) ** (-(prec // 2)):
                    return f"class poly residual too big at d={d}"
    return None


def _e1_quadrature(rng: random.Random) -> str | None:
    # E1(x) = e^(-x) * integral_0^inf e^(-s)/(x + s) ds (u = 1 + s/x): a smooth
    # integrand at every x, where the defining one narrows to width 1/x; 20, 40
    # and 80 reach oracle.e1's continued fraction, the smaller x its Taylor path
    with mpmath.mp.workprec(120):
        for x in ("0.1", "0.5", "1", "2", "5", "10", "20", "40", "80"):
            xx = mpmath.mpf(x)
            integral = mpmath.quad(lambda s: mpmath.exp(-s) / (xx + s), [0, mpmath.inf])
            direct = mpmath.exp(-xx) * integral
            value = oracle.e1(xx, 100)
            if abs(value - direct) > direct * mpmath.mpf(2) ** -90:
                return f"e1 vs quadrature at x={x}"
            if not value < mpmath.exp(-xx) / xx:
                return f"e1 bound violated at x={x}"
    return None


def _chi_l_value(chi: list[int]) -> Fraction:
    # L(0) = sum_a chi(a) (1/2 - a/|d|), for chi(a) at 0 <= a < |d|
    fd = len(chi)
    return Fraction(sum(c * (fd - 2 * a) for a, c in enumerate(chi)), 2 * fd)


def _l_value_class_number(rng: random.Random) -> str | None:
    for d in range(-3, -201, -1):
        if not _is_fundamental_discriminant(d):
            continue
        chi = [kronecker(d, a) for a in range(-d)]
        if _chi_l_value(chi) != Fraction(2 * oracle.class_number(d), _unit_count(d)):
            return f"exact L(0) != 2h/w at d={d}"
    return None


def _l_derivative_chowla_selberg(rng: random.Random) -> str | None:
    # Hurwitz: L'(0) = sum_a chi(a) log Gamma(a/|d|) - L(0) log|d|, against
    # lambda_at_zero's Chowla-Selberg sum over the CM points of the h forms.  Over
    # this sweep the gap read at most 2^-(precision + 28) relative to max(1, |L'(0)|),
    # most of it the rounding of up to 198 log Gamma values at precision + 32 bits;
    # the tolerance 2^-(precision + 20) leaves a factor 2^8 above that
    precision = 96
    for d in range(-3, -201, -1):
        if not _is_fundamental_discriminant(d):
            continue
        fd = -d
        chi = [kronecker(d, a) for a in range(fd)]
        l0 = _chi_l_value(chi)
        center = oracle.lambda_at_zero(d, precision)
        with mpmath.mp.workprec(precision + 32):
            gamma_sum = mpmath.fsum(
                c * mpmath.loggamma(mpmath.mpf(a) / fd) for a, c in enumerate(chi) if c
            )
            reference = gamma_sum - l0.numerator * mpmath.log(fd) / l0.denominator
            gap = abs(center.l_derivative - reference)
            if gap > max(1, abs(reference)) * mpmath.mpf(2) ** -(precision + 20):
                return f"L'(0) off the log Gamma sum by {mpmath.nstr(gap, 5)} at d={d}"
        if center.l_value_exact != l0:
            return f"L(0) != the chi sum at d={d}"
    return None


SUITES = {
    "arith": {
        "factor-roundtrip": _factor_roundtrip,
        "hilbert-bimultiplicative": _hilbert_bimultiplicative,
        "hilbert-product-formula": _hilbert_product_formula,
        "sqrt-mod-prime-power": _sqrt_mod_prime_power,
        "loglinear-exactness": _loglinear_exactness,
    },
    "field": {
        "splitting-degree-sum": _splitting_degree_sum,
        "valuation-norm-compatible": _valuation_norm_compatible,
        "trace-slice-invariants": _trace_slice_invariants,
        "support-odd-and-matches": _support_odd_and_matches,
    },
    "genus": {
        "zeta-convolution": _zeta_convolution,
        "rho-multiplicative": _rho_multiplicative,
        "chi-invariant-under-norms": _chi_invariant_under_norms,
        "gross-zagier-trace-m": _gross_zagier_trace_m,
    },
    "eisenstein": {
        "degree-coefficient-identity": _degree_coefficient_identity,
        "trace-degree-two-paths": _trace_degree_two_paths,
        "coherent-ratio": _coherent_ratio,
        "mixed-coefficient-decay": _mixed_coefficient_decay,
        "constant-term-scaling": _constant_term_scaling,
    },
    "oracle": {
        "class-count-brute-force": _class_count_brute_force,
        "class-poly-certificate": _class_poly_certificate,
        "e1-quadrature": _e1_quadrature,
        "l-value-class-number": _l_value_class_number,
        "l-derivative-chowla-selberg": _l_derivative_chowla_selberg,
    },
}


def run_suites(names, seed: int = 0):
    for suite in names:
        rng = random.Random((seed, suite).__repr__())
        for name, check in SUITES[suite].items():
            try:
                detail = check(rng)
            except Exception as exc:  # a check that raises has failed
                detail = f"{type(exc).__name__}: {exc}"
            yield suite, name, detail
