"""Independent floating-point verification layer.

Reduced binary quadratic forms and class numbers, modular j-values by two
independent routes, integer class polynomials with a rounding
certificate, exact integer resultants, the exponential integral, and
central values/derivatives of odd Dirichlet L-functions.  L'(0) is the
Chowla-Selberg sum over the CM points, with route one's integer eta
product; no log Gamma is taken here (``verify`` checks L'(0) against
the log Gamma sum).  E1 is a certified continued fraction on Python
integers where that pays, and ``libmp.mpf_e1`` elsewhere.

The two j routes share only the point q = e^(2 pi i tau), and both run
on Python integers; mpmath gives the nome, sqrt(-d), the final division
and the agreement check.  Route one takes E4 and the eta-product from
Jacobi theta sums at the nome e^(i pi tau), as Gaussian integers at 32
guard bits past the working precision, with O(sqrt N) products.  Route
two sums the integer q-series of j (one table, grown in place from the
differential equation E4 theta(j) + E6 j = 0) in fixed point, binned by
the root of unity q / |q|, within (|j q| + 1/8) units of the working
precision before the division by q.

Nothing in here touches the exact ideal-theoretic pipeline except through
the single reconciliation ``singular_moduli_check``, which compares the
factored resultant of two class polynomials against the trace-1 degree.
Floats are mpmath reals under explicit working-precision contexts
(``e1`` passes its precision to ``libmp`` instead); every rounding step
that matters carries a certificate (two-route agreement for j, distance
< 1/4 for class-polynomial coefficients) and raises ``PrecisionError``
instead of degrading silently, or, for E1, falls back to ``mpf_e1``.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import mpmath
from mpmath.libmp import (
    from_man_exp,
    mpf_add,
    mpf_div,
    mpf_e1,
    mpf_exp,
    mpf_mul,
    mpf_neg,
    mpf_pos,
    mpf_sub,
    round_ceiling,
    round_floor,
    round_nearest,
    to_fixed,
    to_float,
)

from .exact import InvariantError, LogLinear, _small_primes
from .field import Setup, SetupError, _is_fundamental_discriminant, _unit_count

__all__ = [
    "LFunctionCenter",
    "PrecisionError",
    "ReducedForm",
    "SingularModuliReport",
    "class_number",
    "class_reps",
    "e1",
    "hilbert_class_poly",
    "j_value",
    "lambda_at_zero",
    "resultant",
    "singular_moduli_check",
]


class PrecisionError(ArithmeticError):
    """A certified rounding or agreement check failed; retry with more bits."""


# ---------------------------------------------------------------------------
# binary quadratic forms


@dataclass(frozen=True, order=True)
class ReducedForm:
    """Primitive reduced form a x^2 + b xy + c y^2 of negative discriminant."""

    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


def class_reps(d: int) -> list[ReducedForm]:
    """One reduced form per class of discriminant d (d < 0 fundamental)."""
    if d >= 0 or not _is_fundamental_discriminant(d):
        raise ValueError(f"{d} is not a negative fundamental discriminant")
    forms = []
    bmax = math.isqrt(-d // 3)
    for b in range(d % 2, bmax + 1, 2):
        m = (b * b - d) // 4
        for a in range(max(b, 1), math.isqrt(m) + 1):
            if m % a:
                continue
            c = m // a
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            forms.append(ReducedForm(a, b, c))
            if 0 < b < a < c:
                forms.append(ReducedForm(a, -b, c))
    return sorted(forms)


def class_number(d: int) -> int:
    return len(class_reps(d))


# ---------------------------------------------------------------------------
# q-series with integer coefficients

def _divisor_sigmas(N: int) -> tuple[list[int], list[int]]:
    """sigma_3(n) and sigma_5(n) for 0 <= n <= N, from one divisor sieve."""
    s3, s5 = [0] * (N + 1), [0] * (N + 1)
    for dd in range(1, N + 1):
        for mult in range(dd, N + 1, dd):
            s3[mult] += dd**3
            s5[mult] += dd**5
    return s3, s5


# cs[i] = integer coefficient of q^(i-1) of the modular j-function; every
# request slices it, and ``_j_coeffs`` grows it in place, under the lock,
# to the longest one
_J_SERIES: list[int] = [1]
_J_SERIES_LOCK = threading.Lock()


def _extend_j_series(cs: list[int], N: int) -> None:
    """Append to cs, the leading q-series coefficients of j, up to cs[N].

    From E4 theta(j) + E6 j = 0 (theta = q d/dq; Zagier 2008), for i >= 1:
    i cs[i] = -sum_{t=1..i} (240 sigma_3(t) (i-1-t) - 504 sigma_5(t)) cs[i-t].
    The division by i is exact over Z; a remainder raises ``InvariantError``
    and leaves cs at the coefficients before it.
    """
    s3, s5 = _divisor_sigmas(N)
    high = [240 * s for s in s3]  # the weight's slope in i
    low = [-240 * s3[t] * (t + 1) - 504 * s5[t] for t in range(N + 1)]  # the weight at i = 0
    for i in range(len(cs), N + 1):
        back = cs[i - 1 :: -1]  # cs[i - t] for t = 1..i
        acc = i * sum(map(mul, high[1 : i + 1], back)) + sum(map(mul, low[1 : i + 1], back))
        c, rem = divmod(-acc, i)
        if rem:
            raise InvariantError(f"j-series recurrence leaves a remainder at q^{i - 1}")
        cs.append(c)


def _j_coeffs(N: int) -> tuple[int, ...]:
    """The first N + 1 coefficients of j's q-series, cs[0] = 1 at q^-1.

    They do not depend on where the series is truncated, so every N is
    sliced off the one module table, grown first if it is shorter.
    """
    if len(_J_SERIES) <= N:
        with _J_SERIES_LOCK:
            _extend_j_series(_J_SERIES, N)
    return tuple(_J_SERIES[: N + 1])


def _series_length(log_inv_q: float, bits: int) -> int:
    # the first N of 16, 20, 24, ... with e^(4 pi sqrt(N)) |q|^N below
    # 2^-(bits + 24); the j-series coefficients grow like e^(4 pi sqrt(n))
    target = -(bits + 24) * math.log(2)
    n = 16
    while 4 * math.pi * math.sqrt(n) - n * log_inv_q > target:
        n += 4
    return n


# Route one works on Gaussian integers (re, im) at a scale 2^scale.


def _gmul(x, y, scale: int):
    """x y at the scale 2^scale, each part floored (three products)."""
    (a, b), (c, d) = x, y
    ac, bd = a * c, b * d
    return (ac - bd) >> scale, ((a + b) * (c + d) - ac - bd) >> scale


def _eighth_power(x, scale: int):
    """x^8 at the scale 2^scale, by three squarings (two products each)."""
    for _ in range(3):
        a, b = x
        x = ((a + b) * (a - b)) >> scale, (a * b) >> (scale - 1)
    return x


def _theta_sums(r, log_inv_r: float, scale: int):
    """theta3, theta4 and T = sum_{n>=0} r^(n(n+1)) at the nome r.

    theta3 = 1 + 2 sum_{n>=1} r^(n^2) and theta4 = 1 + 2 sum_{n>=1}
    (-1)^n r^(n^2).  r and the sums are Gaussian integers at the scale
    2^scale; the sums stop once |r|^(n^2) < 2^-scale, which takes O(sqrt N)
    products where the q-series of j takes N terms.
    """
    one = 1 << scale
    terms = math.isqrt(int(scale * math.log(2) / log_inv_r)) + 1
    even_re = even_im = odd_re = odd_im = 0
    tri_re, tri_im = one, 0
    rn = power = (one, 0)  # r^n; r^(n(n-1)), then r^(n^2), then r^(n(n+1))
    for n in range(1, terms + 1):
        rn = _gmul(rn, r, scale)
        power = _gmul(power, rn, scale)
        if n % 2:
            odd_re += power[0]
            odd_im += power[1]
        else:
            even_re += power[0]
            even_im += power[1]
        power = _gmul(power, rn, scale)
        tri_re += power[0]
        tri_im += power[1]
    theta3 = one + 2 * (even_re + odd_re), 2 * (even_im + odd_im)
    theta4 = one + 2 * (even_re - odd_re), 2 * (even_im - odd_im)
    return theta3, theta4, (tri_re, tri_im)


def _theta_e4_eta(r, log_inv_r: float, scale: int):
    """E4(q) and prod_{n>=1} (1 - q^n)^3 at q = r^2, from ``_theta_sums``.

    theta2 = 2 r^(1/4) T, so theta2^8 = 256 q T^8 has no fractional
    power.  Then 2 E4 = theta2^8 + theta3^8 + theta4^8, and theta2 theta3
    theta4 = 2 eta^3 gives T theta3 theta4 = prod (1 - q^n)^3.  All
    Gaussian integers at the scale 2^scale, as r is.
    """
    theta3, theta4, tri = _theta_sums(r, log_inv_r, scale)
    q8 = _gmul(_gmul(r, r, scale), _eighth_power(tri, scale), scale)
    (a, b), (c, d) = _eighth_power(theta3, scale), _eighth_power(theta4, scale)
    e4 = (256 * q8[0] + a + c) >> 1, (256 * q8[1] + b + d) >> 1
    return e4, _gmul(_gmul(tri, theta3, scale), theta4, scale)


def _fixed_point_series(coeffs, q, period: int, bits: int):
    """sum_i coeffs[i] q^i on Python integers, as an mpc at the current precision.

    Write q = rho zeta with rho = |q|.  At a CM point tau has real part
    -b/(2a), so zeta^a = (-1)^b, and with period = a the terms c_i rho^i
    are real: they go into period bins by i mod period, times the sign of
    zeta^period to the power i div period, and the bins take period
    Gaussian multiply-adds by zeta^k.  The rounding of q leaves
    +-zeta^period = 1 + delta, |delta| about period units of 2^-bits; each
    bin also sums its terms times i div period, and delta times those
    sums gives the exact powers of q to first order in delta.

    Everything is an integer at the scale 2^W, W = bits + (bits of the
    largest coefficient) + 8: q's parts truncated, rho = isqrt(|q|^2) and
    zeta = q / rho floored.  Before each step rho is cut to the size of
    the current power, so the operands shrink as rho^i does, and the sum
    stops once the power is 0.

    Error bound: |q| <= e^(-pi sqrt 3) for a reduced form, so each power
    of rho is off by less than 2 units of 2^-W, and the bins, tails
    included, by less than 4 (sum c_i) 2^-W.  zeta^k is off by less than
    5k/rho units, and the bin's factor rho^k takes that to less than
    5 sum_i i c_i rho^(i-1) < 2^15 units; the second order in delta is
    below 2^-(2 bits - 32).  That is below 2^-(bits + 3) while sum c_i <
    7.75 max c_i, as holds for every N <= 2048 (7.72 at 2048).  The conversion to mpc
    rounds each part to the working precision, so the result is within
    (|sum| + 1/8) 2^-bits of the exact sum at this q.
    Against a (2 bits + 400)-bit reference the whole error measured at
    most 0.86 units of 2^-bits, over every form of 22 discriminants from
    -3 to -2351 at their start precisions; without the first-order step
    it reached 2.4 units at -15 and -39.
    """
    scale = bits + max(c.bit_length() for c in coeffs) + 8
    one = 1 << scale
    q_re = int(mpmath.ldexp(q.real, scale))
    q_im = int(mpmath.ldexp(q.imag, scale))
    rho = math.isqrt(q_re * q_re + q_im * q_im)
    if not rho:
        return mpmath.mpc(coeffs[0])  # every power past q^0 is 0 at this scale
    z_re, z_im = (q_re << scale) // rho, (q_im << scale) // rho
    zetas = [(one, 0)]  # zeta^k for k = 0..period
    for _ in range(period):
        zetas.append(_gmul(zetas[-1], (z_re, z_im), scale))
    flip = zetas[-1][0] < 0  # zeta^period is -1
    bins, laps = [0] * period, [0] * period
    bins[0] = coeffs[0] << scale
    power = one
    for i in range(1, len(coeffs)):
        cut = max(scale - power.bit_length() - 4, 0)
        power = power * (rho >> cut) >> (scale - cut)
        if not power:
            break
        lap, k = divmod(i, period)
        term = -coeffs[i] * power if flip and lap % 2 else coeffs[i] * power
        bins[k] += term
        laps[k] += lap * term
    acc_re = acc_im = lap_re = lap_im = 0
    for (w_re, w_im), b, lap in zip(zetas, bins, laps):
        acc_re += w_re * b
        acc_im += w_im * b
        lap_re += w_re * lap
        lap_im += w_im * lap
    d_re, d_im = zetas[-1]  # delta = +-zeta^period - 1
    if flip:
        d_re, d_im = -d_re, -d_im
    d_re -= one
    acc_re += (d_re * lap_re - d_im * lap_im) >> scale
    acc_im += (d_re * lap_im + d_im * lap_re) >> scale
    return mpmath.mpc(mpmath.ldexp(acc_re, -2 * scale), mpmath.ldexp(acc_im, -2 * scale))


def j_value(form: ReducedForm, precision: int):
    """j at the CM point of the form, with a two-route agreement check.

    Route one: j = E4^3 / (q prod (1 - q^n)^24), both factors from the
    Jacobi theta sums at the nome r = e^(i pi tau) (``_theta_e4_eta``);
    this is j = 32 (theta2^8 + theta3^8 + theta4^8)^3 / (theta2 theta3
    theta4)^8 and takes O(sqrt N) products.  E4, the eta product and the
    theta sums are near 1 in size, so they are Gaussian integers at the
    scale 2^(work + 32), and the tiny factor q enters only in the final
    mpmath division.  Against the same steps at 3 work bits, those integer
    steps added at most 2.7e-7 units of 2^-work relative to max(1, |j|),
    over every form of -3, -4, -7, -23, -191, -479 and -719.  Route two:
    the integer q-series of j, from its differential equation, summed in
    fixed point (``_fixed_point_series``, within (|j q| + 1/8) 2^-work
    before the division by q).  The two must agree to 2^(16 - precision)
    = 2^64 units of 2^-work relatively, else ``PrecisionError``.  Route
    one is returned.
    """
    if precision < 64:
        raise ValueError("precision must be at least 64 bits")
    d = form.discriminant
    if d >= 0:
        raise ValueError("form must have negative discriminant")
    work = precision + 48
    with mpmath.mp.workprec(work):
        rtd = mpmath.sqrt(-d)
        log_inv_q = float(mpmath.pi * rtd / form.a)
        r = mpmath.exp(
            mpmath.mpc(-mpmath.pi * rtd, -mpmath.pi * form.b) / (2 * form.a)
        )
        q = r * r
        scale = work + 32
        r_fixed = int(mpmath.ldexp(r.real, scale)), int(mpmath.ldexp(r.imag, scale))
        e4, eta3 = _theta_e4_eta(r_fixed, log_inv_q / 2, scale)
        e4_cube = _gmul(_gmul(e4, e4, scale), e4, scale)
        eta24 = _eighth_power(eta3, scale)
        j_quotient = mpmath.mpc(*e4_cube) / (q * mpmath.mpc(*eta24))
        coeffs = _j_coeffs(_series_length(log_inv_q, work))
        j_series = _fixed_point_series(coeffs, q, form.a, work) / q
        tol = mpmath.mpf(2) ** (16 - precision)
        if abs(j_quotient - j_series) > tol * max(1, abs(j_quotient)):
            raise PrecisionError(
                f"j-value routes disagree for {form} at {precision} bits"
            )
        return +j_quotient


def _height_precision(d: int) -> int:
    # the height bound for the class polynomial of d, with a generous guard
    weight = sum(1.0 / f.a for f in class_reps(d))
    est = 3.5 * math.pi * math.sqrt(-d) * weight / math.log(2)
    return max(128, math.ceil(est) + 64)


def class_poly_start_precision(d: int) -> int:
    """Initial working precision for the class polynomial of d.

    ``_height_precision`` unless CMEIS_PRECISION_BITS overrides the
    start; the retry loop doubles on any certificate failure, up to twice
    the height bound, so the constant is not critical.
    """
    env = os.environ.get("CMEIS_PRECISION_BITS")
    if env:
        try:
            return max(int(env), 64)
        except ValueError:
            raise SetupError(f"CMEIS_PRECISION_BITS={env!r} is not an integer") from None
    return _height_precision(d)


def _times_monic(coeffs, low):
    """coeffs * (X^k + low[k-1] X^(k-1) + ... + low[0]), ascending lists."""
    out = [mpmath.mpc(0)] * len(low) + coeffs
    for i, c in enumerate(coeffs):
        for k, lk in enumerate(low):
            out[i + k] += lk * c
    return out


# d -> (the lowest precision that certified it, its class polynomial)
_CLASS_POLYS: dict[int, tuple[int, list[int]]] = {}


def hilbert_class_poly(d: int, precision: int) -> list[int]:
    """Monic integer class polynomial of d, ascending coefficients.

    Every coefficient must round to an integer from within 1/4 (real and
    imaginary distance), else ``PrecisionError`` -- the caller retries at
    doubled precision.  A conjugate pair of forms (a, +-b, c) takes one
    j-value and contributes X^2 - 2 Re(j) X + |j|^2.  Once certified, the
    polynomial is kept per d and a fresh copy is returned for any request
    at that precision or above; a lower request recomputes, so it can
    still fail.  A result not monic of degree h, or unlike the certified
    one, is an ``InvariantError``.
    """
    known = _CLASS_POLYS.get(d)
    if known is not None and known[0] <= precision:
        return list(known[1])
    forms = class_reps(d)
    with mpmath.mp.workprec(precision + 48):
        coeffs = [mpmath.mpc(1)]
        for form in forms:
            if form.b < 0:
                continue  # the conjugate of (a, -b, c), taken with it
            j = j_value(form, precision)
            if 0 < form.b < form.a < form.c:
                low = [j.real * j.real + j.imag * j.imag, -2 * j.real]
            else:
                low = [-j]
            coeffs = _times_monic(coeffs, low)
        out = []
        for c in coeffs:
            nearest = mpmath.nint(c.real)
            if abs(c.imag) >= 0.25 or abs(c.real - nearest) >= 0.25:
                raise PrecisionError(
                    f"class polynomial coefficient for d={d} failed to round"
                )
            out.append(int(nearest))
    if out[-1] != 1 or len(out) != len(forms) + 1:
        raise InvariantError(
            f"class polynomial for d={d} is not monic of degree {len(forms)}"
        )
    if known is not None and known[1] != out:
        raise InvariantError(f"two certified class polynomials for d={d} differ")
    _CLASS_POLYS[d] = (precision, out)
    return list(out)


# ---------------------------------------------------------------------------
# resultants over Z


def _strip(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pseudo_rem(A: list[int], B: list[int]) -> list[int]:
    """lc(B)^(degA - degB + 1) * A mod B, all over Z (ascending lists)."""
    A = list(A)
    dB = len(B) - 1
    lb = B[-1]
    e = len(A) - len(B) + 1
    while True:
        _strip(A)
        dA = len(A) - 1
        if not A or dA < dB:
            break
        top = A[-1]
        A = [lb * c for c in A]
        shift = dA - dB
        for j, bj in enumerate(B):
            A[shift + j] -= top * bj
        e -= 1
    _strip(A)
    return [c * lb**e for c in A] if e > 0 else A


def resultant(P, Q) -> int:
    """Exact resultant of integer polynomials (subresultant sequence).

    Convention: Res(P, Q) = lc(P)^deg(Q) * prod Q(alpha) over the roots
    alpha of P, so Res(X, X + c) = c.  Swapping arguments costs
    (-1)^(deg P * deg Q).
    """
    A = _strip([int(c) for c in P])
    B = _strip([int(c) for c in Q])
    if not A or not B:
        raise ValueError("resultant of the zero polynomial")
    if len(A) == 1 and len(B) == 1:
        return 1
    if len(A) == 1:
        return A[0] ** (len(B) - 1)
    if len(B) == 1:
        return B[0] ** (len(A) - 1)
    s = 1
    if len(A) < len(B):
        if (len(A) - 1) % 2 and (len(B) - 1) % 2:
            s = -s
        A, B = B, A
    g, h = 1, 1
    while True:
        dA, dB = len(A) - 1, len(B) - 1
        delta = dA - dB
        if dA % 2 and dB % 2:
            s = -s
        R = _pseudo_rem(A, B)
        if not R:
            return 0
        A = B
        denom = g * h**delta
        B = [c // denom for c in R]
        g = A[-1]
        if delta == 0:
            pass
        elif delta == 1:
            h = g
        else:
            h = g**delta // h ** (delta - 1)
        if len(B) - 1 == 0:
            dA = len(A) - 1
            return s * (B[0] ** dA // h ** (dA - 1))


# ---------------------------------------------------------------------------
# special functions


def e1(x, precision: int):
    """Exponential integral E1(x) = integral_1^inf e^(-u x) du/u, x > 0.

    x is taken at precision + 32 bits, to nearest, and the value is E1 there
    rounded to ``precision`` bits, to nearest; no global precision is set.

    From x = precision/6 up to where ``libmp``'s ``mpf_e1`` (the kernel
    under ``mpmath.e1``) would switch to its asymptotic series, the value
    comes from the contracted continued fraction

        E1(x) = e^(-x) / T_0,  T_k = x + 2k+1 - (k+1)^2 / T_(k+1),

    run backward from a depth n on Python integers in fixed point
    (``_e1_enclosure``).  Every tail T_k lies in [x + k, x + 2k+1].  The
    upper end holds as T_(k+1) > 0.  The lower end holds for every
    approximant of T_k (T_N replaced by x + 2N+1, for N > k), because
    t >= x + k+1 gives x + 2k+1 - (k+1)^2 / t >= x + k, so it holds for
    their limit T_k.  T_0 grows with T_n, so the tails x + n and x + 2n+1,
    with each integer step rounded away from its bound, enclose T_0; the
    exponential at precision + 40 bits, rounded down and one unit up,
    brackets e^(-x) to within ``mpf_exp``'s own error, far inside the
    widening below.

    The rounding test: the enclosure, widened by 2^-(precision+24)
    relative, must round to one ``precision``-bit value at both ends.  Then
    E1(x) is that far from every rounding boundary, and ``mpf_e1`` at
    precision + 32 bits, off by about one of its own units, rounds to the
    same bits.  Where the test fails, and outside that range of x, the
    value is ``mpf_e1`` at precision + 32 bits rounded to ``precision``.
    """
    x = mpmath.mpf(x, prec=precision + 32, rounding=round_nearest)
    if x <= 0:
        raise ValueError("E1 needs a positive argument")
    val = _e1_fraction(x._mpf_, precision)
    if val is None:
        val = mpf_pos(mpf_e1(x._mpf_, precision + 32, round_nearest), precision, round_nearest)
    return mpmath.mp.make_mpf(val)


def _e1_depth(z: float, precision: int) -> int:
    """Continued-fraction depth for E1(z) to about 2^-(precision+24) relative.

    Once n > z the tails contract the enclosure by about e^(-4 sqrt(z n)),
    which gives n = L^2/(16 z) for L = (precision+24) ln 2; z + L in place
    of L covers the first steps.
    """
    log_width = (precision + 24) * math.log(2)
    return int((log_width + z) ** 2 / (16 * z)) + 4


def _e1_enclosure(x, precision: int, n: int):
    """Bounds (low, high) on E1 of the positive mpf ``x`` at precision + 40 bits, at depth n."""
    frac = precision + 48
    one, sq = 1 << frac, 2 * frac
    lo = to_fixed(x, frac)  # x in [lo, lo + 1] / 2^frac
    # the tail x + n and the lower end of x give the least T_0, x + 2n+1 and
    # the upper end the largest; each division rounds away from its bound
    t_lo, t_hi = lo + n * one, lo + 1 + (2 * n + 1) * one
    for k in range(n - 1, -1, -1):
        c, q = (2 * k + 1) * one, (k + 1) ** 2 << sq
        t_lo = lo + c + (-q // t_lo)
        t_hi = lo + 1 + c - q // t_hi
    wp = precision + 40
    exp_lo = mpf_exp(mpf_neg(x), wp, round_floor)
    exp_hi = from_man_exp(exp_lo[1] + 1, exp_lo[2])
    return (
        mpf_div(exp_lo, from_man_exp(t_hi, -frac), wp, round_floor),
        mpf_div(exp_hi, from_man_exp(t_lo, -frac), wp, round_ceiling),
    )


def _e1_fraction(x, precision: int):
    """E1 of the positive mpf ``x`` at ``precision`` bits from the continued fraction, or None.

    None outside precision/6 <= x < A + 1, where A is the integer part
    past which ``mpf_e1`` at precision + 32 bits sums its asymptotic
    series (about x short terms; below it, its Taylor series at 2x extra
    bits is what the fraction saves), and when the rounding test fails.
    """
    z = to_float(x)
    if not precision / 6 <= z < int((precision + 52) * 0.693) + 11:
        return None
    low, high = _e1_enclosure(x, precision, _e1_depth(z, precision))
    wp, widen = precision + 40, from_man_exp(1, -(precision + 24))
    low = mpf_sub(low, mpf_mul(low, widen), wp, round_floor)
    high = mpf_add(high, mpf_mul(high, widen), wp, round_ceiling)
    low, high = (mpf_pos(end, precision, round_nearest) for end in (low, high))
    return low if low == high else None


# ---------------------------------------------------------------------------
# L-function center values


@dataclass(frozen=True)
class LFunctionCenter:
    """L(0), L'(0) and the completed Lambda'(0) for one odd chi.

    Lambda(0) = L(0), so ``l_value`` is the completed value too.
    """

    discriminant: int
    l_value_exact: Fraction
    l_value: object
    l_derivative: object
    completed_derivative: object


def lambda_at_zero(d: int, precision: int) -> LFunctionCenter:
    """Center values of the odd quadratic L-function of discriminant d.

    L(0) = 2h/w, from the h reduced forms of ``class_reps``.  L'(0) comes
    from the Chowla-Selberg formula (Zagier, The 1-2-3 of Modular Forms,
    2008): with y = sqrt|d|/(2a) at the CM point of a form (a, b, c),

        sum_Q log(y^6 |Delta(tau_Q)|) = -6h log(4 pi sqrt|d|)
                                        + 3w sum_a chi(a) log Gamma(a/|d|),

    and L'(0) = sum_a chi(a) log Gamma(a/|d|) - L(0) log|d| (Hurwitz).
    |Delta| = |q| |prod (1 - q^n)^3|^8, log|q| = -2 pi y, and the terms in
    log|d| cancel, so

        3w L'(0) = 6h log(2 pi) - 6 log(prod a) - pi sqrt|d| sum 1/a
                   + 4 sum_Q log |prod (1 - q^n)^3|^2.

    The eta product comes from ``_theta_e4_eta`` at the nome of each form,
    once per conjugate pair (a, +-b, c), as Gaussian integers.  The terms
    reach h pi sqrt|d| and cancel, so the sum runs at precision + 40 +
    log2(h pi sqrt|d|) bits; L'(0) is then rounded to precision + 32.

    Error bound: within half a unit in the last place of that
    (precision + 32)-bit value plus 2^-(precision + 40).  Against the log
    Gamma sum at 2 precision + 64 bits it held for every fundamental d
    from -3 to -200 at precision 64, 96, 128, 160, 192 and 256, and for
    26 d from -247 to -2351 at 64, 128 and 192.  The log Gamma sum at
    precision + 32 bits was off by 2.8 to 35 times as much at each d.

    The completed function is |d|^(s/2) Gamma_R(s+1) L(s), whence

        Lambda(0)  = L(0),
        Lambda'(0) = L'(0) + L(0) (log|d| - log pi - gamma)/2 - L(0) log 2.
    """
    forms = class_reps(d)
    h, w, fd = len(forms), _unit_count(d), -d
    l0 = Fraction(2 * h, w)
    work = precision + 40 + math.ceil(math.log2(h * math.pi * math.sqrt(fd)))
    scale = work + 8
    inv_a = sum(Fraction(1, f.a) for f in forms)
    with mpmath.mp.workprec(work):
        pi, rtd = mpmath.pi, mpmath.sqrt(fd)
        eta = mpmath.mpf(0)  # sum_Q log |prod (1 - q^n)^3|^2
        for form in forms:
            if form.b < 0:
                continue  # the conjugate of (a, -b, c), taken with it
            r = mpmath.exp(mpmath.mpc(-pi * rtd, -pi * form.b) / (2 * form.a))
            r_fixed = int(mpmath.ldexp(r.real, scale)), int(mpmath.ldexp(r.imag, scale))
            _, (x, y) = _theta_e4_eta(r_fixed, float(pi * rtd) / (2 * form.a), scale)
            term = mpmath.log(mpmath.ldexp(x * x + y * y, -2 * scale))
            eta += 2 * term if 0 < form.b < form.a < form.c else term
        l1 = (
            6 * h * mpmath.log(2 * pi)
            - 6 * mpmath.log(math.prod(f.a for f in forms))
            - pi * rtd * inv_a.numerator / inv_a.denominator
            + 4 * eta
        ) / (3 * w)
    with mpmath.mp.workprec(precision + 32):
        l1 = +l1
        l0f = mpmath.mpf(l0.numerator) / l0.denominator
        lam1 = l1 + l0f * (
            (mpmath.log(fd) - mpmath.log(mpmath.pi) - mpmath.euler) / 2 - mpmath.log(2)
        )
        return LFunctionCenter(d, l0, +l0f, l1, +lam1)


# ---------------------------------------------------------------------------
# the reconciliation report


@dataclass(frozen=True)
class SingularModuliReport:
    """Both sides of the resultant/trace-degree identity, never silently asserted."""

    d1: int
    d2: int
    h1: int
    h2: int
    resultant_abs: int
    factorization: tuple[tuple[int, int], ...]
    scale: Fraction
    degree_side: LogLinear
    resultant_side: LogLinear
    ok: bool
    precision_used: int


def singular_moduli_check(setup: Setup) -> SingularModuliReport:
    """Compare the trace-1 degree against the scaled factored resultant.

    The classical statement: the norm of the difference of the two CM
    j-values, raised to 8/(w1 w2), has the same prime-log vector as the
    trace-1 Arakelov degree.  The scale 8/(w1 w2) was calibrated on the
    two hand-checkable pairs and is frozen here; the report carries both
    sides so a mismatch is visible rather than fatal.  A zero resultant or
    a cofactor past the Gross-Zagier bound is an ``InvariantError``.
    """
    from .eisenstein import trace_degree

    prec = max(class_poly_start_precision(setup.d1), class_poly_start_precision(setup.d2))
    # a failure that recurs at every precision ends at the first attempt at
    # twice the larger height bound, or at the 12th attempt
    last = 2 * max(_height_precision(setup.d1), _height_precision(setup.d2))
    for attempt in range(12):
        try:
            h_poly_1 = hilbert_class_poly(setup.d1, prec)
            h_poly_2 = hilbert_class_poly(setup.d2, prec)
            break
        except PrecisionError:
            if prec >= last or attempt == 11:
                raise PrecisionError("class polynomials failed at every precision tried") from None
            prec *= 2
    res = resultant(h_poly_1, h_poly_2)
    if res == 0:
        raise InvariantError(
            f"class polynomials of {setup.d1} and {setup.d2} share a root"
        )
    # Gross-Zagier: every prime of the resultant is at most |d1 d2| / 4,
    # so trial division up to that bound is a complete factorization
    bound = abs(setup.d1 * setup.d2) // 4
    rest = abs(res)
    fac = []
    for p in _small_primes(bound):
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if e:
            fac.append((p, e))
    if rest != 1:
        raise InvariantError(
            f"resultant for ({setup.d1}, {setup.d2}) leaves a {rest.bit_length()}-bit"
            f" cofactor with no prime factor up to the Gross-Zagier bound {bound}"
        )
    scale = Fraction(8, setup.w1 * setup.w2)
    resultant_side = LogLinear({p: scale * e for p, e in fac})
    degree_side = trace_degree(setup, 1)
    return SingularModuliReport(
        d1=setup.d1,
        d2=setup.d2,
        h1=len(h_poly_1) - 1,
        h2=len(h_poly_2) - 1,
        resultant_abs=abs(res),
        factorization=tuple(fac),
        scale=scale,
        degree_side=degree_side,
        resultant_side=resultant_side,
        ok=degree_side == resultant_side,
        precision_used=prec,
    )
