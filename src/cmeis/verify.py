"""Cross-module invariant suites.

Each suite function takes a seeded ``random.Random`` and returns a list
of ``CheckResult``; the CLI ``verify`` subcommand runs them.  Failures
carry enough detail to name the violated invariant.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
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
    _invariant_diagonal,
    _is_fundamental_discriminant,
    element_valuation,
    enumerate_trace_slice,
    local_invariant,
    prime_ideals_above,
    principal_ideal,
    support,
)

__all__ = ["CheckResult", "SUITES", "TEST_MATRIX", "run_suites"]

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


@dataclass
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str = ""


class _Recorder:
    def __init__(self, suite: str):
        self.suite = suite
        self.results: list[CheckResult] = []

    def check(self, name: str, ok: bool, detail: str = ""):
        self.results.append(CheckResult(self.suite, name, bool(ok), "" if ok else detail))


def _random_nonzero_rational(rng: random.Random, height: int = 30) -> Fraction:
    num = rng.randint(-height, height)
    while num == 0:
        num = rng.randint(-height, height)
    return Fraction(num, rng.randint(1, height))


# ---------------------------------------------------------------------------


def suite_arith(rng: random.Random):
    rec = _Recorder("arith")

    ok = True
    detail = ""
    for _ in range(10_000):
        n = rng.randint(-(10**12), 10**12)
        if n == 0:
            continue
        f = factor(n)
        if f.value() != n or not all(is_prime(p) for p, _ in f):
            ok, detail = False, f"factor round-trip failed at {n}"
            break
    rec.check("factor-roundtrip", ok, detail)

    places = [OO, 2, 3, 5, 7, 11, 13]
    ok = True
    detail = ""
    for _ in range(300):
        a = _random_nonzero_rational(rng)
        b = _random_nonzero_rational(rng)
        c = _random_nonzero_rational(rng)
        for place in places:
            if hilbert_symbol(a, b * c * c, place) != hilbert_symbol(a, b, place):
                ok, detail = False, f"square invariance failed: {a}, {b}, {c} at {place}"
                break
            lhs = hilbert_symbol(a, b * c, place)
            rhs = hilbert_symbol(a, b, place) * hilbert_symbol(a, c, place)
            if lhs != rhs:
                ok, detail = False, f"bimultiplicativity failed: {a}, {b}, {c} at {place}"
                break
        if not ok:
            break
    rec.check("hilbert-bimultiplicative", ok, detail)

    ok = True
    detail = ""
    for _ in range(300):
        a = _random_nonzero_rational(rng)
        b = _random_nonzero_rational(rng)
        relevant = {OO, 2}
        for x in (a, b):
            relevant.update(factor(abs(x.numerator)).primes())
            relevant.update(factor(x.denominator).primes())
        prod = 1
        for place in relevant:
            prod *= hilbert_symbol(a, b, place)
        if prod != 1:
            ok, detail = False, f"product formula failed for ({a}, {b})"
            break
    rec.check("hilbert-product-formula", ok, detail)

    ok = True
    detail = ""
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
            ok, detail = False, f"sqrt failed: D={d}, p={p}, k={k}"
            break
        if sqrt_mod_prime_power(d, p, k + 1) % p**k != r:
            ok, detail = False, f"sqrt lift not coherent: D={d}, p={p}, k={k}"
            break
    rec.check("sqrt-mod-prime-power", ok, detail)

    small_primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    ok = True
    detail = ""
    for _ in range(300):
        t1 = LogLinear(
            {rng.choice(small_primes): _random_nonzero_rational(rng, 40) for _ in range(3)}
        )
        t2 = LogLinear(
            {rng.choice(small_primes): _random_nonzero_rational(rng, 40) for _ in range(3)}
        )
        if (t1 + t2) - t2 != t1 or t1 - t1 != LogLinear.zero():
            ok, detail = False, "module laws failed"
            break
        r = _random_nonzero_rational(rng, 12)
        if (t1 + t2).scale(r) != t1.scale(r) + t2.scale(r):
            ok, detail = False, "scaling is not linear"
            break
        gap = abs(t1.to_float(128) - t2.to_float(128))
        if (t1 == t2) != (gap < mpmath.mpf(2) ** -90):
            ok, detail = False, f"equality vs 128-bit floats disagree: {t1} vs {t2}"
            break
    rec.check("loglinear-exactness", ok, detail)

    return rec.results


# ---------------------------------------------------------------------------


def suite_field(rng: random.Random):
    rec = _Recorder("field")
    setups = _setups()

    ok = True
    detail = ""
    for setup in setups:
        for p in range(2, 501):
            if not is_prime(p):
                continue
            total = sum(
                prm.ramification * prm.residue_degree
                for prm in prime_ideals_above(setup, p)
            )
            if total != 2:
                ok, detail = False, f"sum e*f != 2 at p={p} for {setup}"
                break
        if not ok:
            break
    rec.check("splitting-degree-sum", ok, detail)

    ok = True
    detail = ""
    for _ in range(1000):
        setup = rng.choice(setups)
        beta = FElem(_random_nonzero_rational(rng, 40), _random_nonzero_rational(rng, 40))
        nrm = beta.norm(setup.D)
        ps = set(factor(abs(nrm.numerator)).primes()) | set(factor(nrm.denominator).primes())
        for p in ps:
            got = sum(
                prm.residue_degree * element_valuation(setup, beta, prm)
                for prm in prime_ideals_above(setup, p)
            )
            if got != padic_val(nrm, p):
                ok, detail = False, f"valuations vs norm failed for {beta} at {p}"
                break
        if not ok:
            break
    rec.check("valuation-norm-compatible", ok, detail)

    ok = True
    detail = ""
    for setup in setups:
        for m in range(1, 11):
            elems = enumerate_trace_slice(setup, m)
            xs = [e.x for e in elems]
            if xs != sorted(xs) or sorted(-x for x in xs) != xs:
                ok, detail = False, f"slice not symmetric/sorted for {setup}, m={m}"
                break
            for e in elems:
                gen = e.alpha.times_sqrtD(setup.D)
                if (
                    e.alpha.trace() != m
                    or not e.alpha.is_totally_positive(setup.D)
                    or not gen.is_integral(setup.D)
                    or e.ideal.norm() != e.n
                    or e.ideal != principal_ideal(setup, gen)
                ):
                    ok, detail = False, f"slice invariants failed at x={e.x}, {setup}"
                    break
            if not ok:
                break
        if not ok:
            break
    rec.check("trace-slice-invariants", ok, detail)

    ok = True
    detail = ""
    for setup in setups:
        for m in range(1, 9):
            for e in enumerate_trace_slice(setup, m):
                spt = support(setup, e.alpha)
                if len(spt) % 2 == 0:
                    ok, detail = False, f"even support for x={e.x}, {setup}"
                    break
                diff = genus.diff_set(setup, e.ideal)
                if len(diff) == 1 and {diff[0].p} != spt:
                    ok, detail = False, f"support vs obstruction prime mismatch at x={e.x}"
                    break
                # product over all places: away from the diagonal's primes
                # every invariant is +1, so this finite product must close up
                diag = _invariant_diagonal(setup, e.alpha)
                places: set = {2, OO}
                for entry in diag:
                    places.update(factor(abs(entry)).primes())
                prod = 1
                for pl in places:
                    prod *= local_invariant(setup, e.alpha, pl)
                if prod != 1:
                    ok, detail = False, f"invariant product formula failed at x={e.x}"
                    break
            if not ok:
                break
        if not ok:
            break
    rec.check("support-odd-and-matches", ok, detail)

    return rec.results


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


def suite_genus(rng: random.Random):
    rec = _Recorder("genus")
    setups = _setups()

    zeta_max = 10_000
    spf = _spf_sieve(zeta_max)
    ok = True
    detail = ""
    for setup in setups:
        one = [0] + [1] * zeta_max
        chi1 = [0] + [kronecker(setup.d1, n) for n in range(1, zeta_max + 1)]
        chi2 = [0] + [kronecker(setup.d2, n) for n in range(1, zeta_max + 1)]
        chid = [0] + [kronecker(setup.D, n) for n in range(1, zeta_max + 1)]
        rhs = _dirichlet_convolve(_dirichlet_convolve(one, chi1), _dirichlet_convolve(chi2, chid))
        for n in range(1, zeta_max + 1):
            if _norm_count_sum(setup, n, spf) != rhs[n]:
                ok, detail = False, f"norm-count sum vs convolution at n={n}, {setup}"
                break
        if not ok:
            break
    rec.check("zeta-convolution", ok, detail)

    ok = True
    detail = ""
    for _ in range(300):
        setup = rng.choice(setups)
        p1, p2 = rng.sample([2, 3, 5, 7, 11, 13, 17, 19], 2)
        a = FIdealFactored.from_pairs(
            [(prm, rng.randint(1, 3)) for prm in prime_ideals_above(setup, p1)]
        )
        b = FIdealFactored.from_pairs(
            [(prm, rng.randint(1, 3)) for prm in prime_ideals_above(setup, p2)]
        )
        lhs = genus.norm_ideal_count(setup, a * b)
        rhs = genus.norm_ideal_count(setup, a) * genus.norm_ideal_count(setup, b)
        if lhs != rhs:
            ok, detail = False, f"rho not multiplicative on {a}, {b}"
            break
    rec.check("rho-multiplicative", ok, detail)

    ok = True
    detail = ""
    for setup in setups:
        split_both = [
            q
            for q in range(2, 200)
            if is_prime(q)
            and kronecker(setup.d1, q) == 1
            and kronecker(setup.d2, q) == 1
        ][:3]
        for q in split_both:
            qideal = FIdealFactored.from_pairs(
                [(prm, 1) for prm in prime_ideals_above(setup, q)]
            )
            for _ in range(20):
                p = rng.choice([2, 3, 5, 7, 11, 13])
                b = FIdealFactored.from_pairs(
                    [(prm, rng.randint(0, 2)) for prm in prime_ideals_above(setup, p)]
                )
                if genus.genus_char_ideal(setup, b * qideal) != genus.genus_char_ideal(
                    setup, b
                ):
                    ok, detail = False, f"chi changed by split norm ideal ({q}) on {b}"
                    break
            if not ok:
                break
        if not ok:
            break
    rec.check("chi-invariant-under-norms", ok, detail)

    ok = True
    detail = ""
    for setup in setups:
        for m in range(1, 11):
            for e in enumerate_trace_slice(setup, m):
                diff = genus.diff_set(setup, e.ideal)
                if len(diff) % 2 == 0:
                    ok, detail = False, f"even obstruction set at x={e.x}, {setup}"
                    break
                if len(diff) == 1:
                    prm = diff[0]
                    reduced = e.ideal.times(prm, -1)
                    expected = genus.norm_ideal_count(setup, reduced)
                    ells = set(e.ideal.rational_primes()) | {prm.p}
                    prod = 1
                    for ell in sorted(ells):
                        prod *= genus.orbital_value(setup, e.alpha, ell, prm)
                    if prod != expected:
                        ok, detail = False, f"orbital product != rho at x={e.x}, {setup}"
                        break
            if not ok:
                break
        if not ok:
            break
    rec.check("orbital-product", ok, detail)

    return rec.results


# ---------------------------------------------------------------------------


def suite_eisenstein(rng: random.Random):
    rec = _Recorder("eisenstein")
    setups = _setups()

    ok = True
    detail = ""
    for setup in setups:
        for m in range(1, 21):
            for e in enumerate_trace_slice(setup, m):
                rep = eisenstein.arakelov_degree(setup, e.alpha)
                if len(rep.diff) % 2 == 0:
                    ok, detail = False, f"even obstruction set at x={e.x}, m={m}, {setup}"
                    break
                if len(rep.diff) > 1:
                    if not (rep.degree.is_zero and rep.coefficient.is_zero):
                        ok, detail = False, f"nonzero at split index x={e.x}, {setup}"
                        break
                    continue
                assembled = eisenstein.assemble_derivative(setup, e.alpha)
                if rep.degree.scale(4) != assembled or rep.coefficient != assembled:
                    ok, detail = False, f"4*degree != coefficient at x={e.x}, m={m}, {setup}"
                    break
                spt = support(setup, e.alpha)
                if set(rep.degree.terms()) - spt:
                    ok, detail = False, f"degree support outside obstruction at x={e.x}"
                    break
            if not ok:
                break
        if not ok:
            break
    rec.check("degree-coefficient-identity", ok, detail)

    ok = True
    detail = ""
    for setup in setups:
        for m in range(1, 21):
            try:
                eisenstein.trace_degree(setup, m)  # asserts both paths agree
            except AssertionError:
                ok, detail = False, f"trace degree paths split at m={m}, {setup}"
                break
        if not ok:
            break
    rec.check("trace-degree-two-paths", ok, detail)

    ok = True
    detail = ""
    for setup in setups[:3]:
        for m in range(1, 6):
            for e in enumerate_trace_slice(setup, m):
                if len(genus.diff_set(setup, e.ideal)) != 1:
                    continue
                if not eisenstein.coherent_ratio_check(setup, e.alpha):
                    ok, detail = False, f"coherent ratio failed at x={e.x}, m={m}, {setup}"
                    break
            if not ok:
                break
        if not ok:
            break
    rec.check("coherent-ratio", ok, detail)

    ok = True
    detail = ""
    setup = setups[0]
    mixed = FElem(Fraction(1, 2), Fraction(-5, 2 * setup.D))
    prev = None
    for v in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 100.0, 800.0):
        val = eisenstein.mixed_coefficient(setup, mixed, v, 1.0, 80)
        if prev is not None and not val < prev:
            ok, detail = False, f"mixed coefficient not decreasing at v={v}"
            break
        prev = val
    if ok and not prev < mpmath.mpf("1e-50"):
        ok, detail = False, "mixed coefficient does not vanish at large v"
    rec.check("mixed-coefficient-decay", ok, detail)

    ok = True
    detail = ""
    precision = 128
    for setup in setups[:4]:
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
            ok, detail = False, f"constant-term scaling off by {mpmath.nstr(gap, 5)}"
            break
    rec.check("constant-term-scaling", ok, detail)

    return rec.results


# ---------------------------------------------------------------------------


def suite_oracle(rng: random.Random):
    rec = _Recorder("oracle")

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

    ok = True
    detail = ""
    for d in range(-3, -201, -1):
        if not _is_fundamental_discriminant(d):
            continue
        if len(oracle.class_reps(d)) != _brute_class_count(d):
            ok, detail = False, f"class count mismatch at d={d}"
            break
    rec.check("class-count-brute-force", ok, detail)

    ok = True
    detail = ""
    for d in (-3, -4, -7, -8, -11, -23, -47):
        prec = oracle.class_poly_start_precision(d)
        coeffs = oracle.hilbert_class_poly(d, prec)
        with mpmath.mp.workprec(prec + 48):
            for form in oracle.class_reps(d):
                j = oracle.j_value(form, prec)
                val = abs(oracle.poly_eval(coeffs, j))
                if val > mpmath.mpf(2) ** (-(prec // 2)):
                    ok, detail = False, f"class poly residual too big at d={d}"
                    break
        if not ok:
            break
    rec.check("class-poly-certificate", ok, detail)

    ok = True
    detail = ""
    with mpmath.mp.workprec(120):
        for x in ("0.1", "0.5", "1", "2", "5", "10"):
            xx = mpmath.mpf(x)
            direct = mpmath.quad(lambda u: mpmath.exp(-u * xx) / u, [1, mpmath.inf])
            if abs(oracle.e1(xx, 100) - direct) > mpmath.mpf("1e-12"):
                ok, detail = False, f"e1 vs quadrature at x={x}"
                break
            if not oracle.e1(xx, 100) < mpmath.exp(-xx) / xx:
                ok, detail = False, f"e1 bound violated at x={x}"
                break
    rec.check("e1-quadrature", ok, detail)

    ok = True
    detail = ""
    for d in range(-3, -201, -1):
        if not _is_fundamental_discriminant(d):
            continue
        h = oracle.class_number(d)
        w = 6 if d == -3 else 4 if d == -4 else 2
        center = oracle.lambda_at_zero(d, 96)
        if center.l_value_exact != Fraction(2 * h, w):
            ok, detail = False, f"exact L(0) != 2h/w at d={d}"
            break
        with mpmath.mp.workprec(96):
            if abs(center.l_value - mpmath.mpf(2 * h) / w) > mpmath.mpf("1e-9"):
                ok, detail = False, f"float L(0) drifted at d={d}"
                break
    rec.check("l-value-class-number", ok, detail)

    return rec.results


SUITES = {
    "arith": suite_arith,
    "field": suite_field,
    "genus": suite_genus,
    "eisenstein": suite_eisenstein,
    "oracle": suite_oracle,
}


def run_suites(names, seed: int = 0) -> list[CheckResult]:
    results = []
    for name in names:
        rng = random.Random((seed, name).__repr__())
        results.extend(SUITES[name](rng))
    return results
