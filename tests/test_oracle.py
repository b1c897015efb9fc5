import hashlib
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import cmeis.oracle as oracle
from cmeis.cli import main
from cmeis.exact import InvariantError, kronecker
from cmeis.field import Setup
from cmeis.oracle import (
    PrecisionError,
    ReducedForm,
    class_number,
    class_poly_start_precision,
    class_reps,
    e1,
    hilbert_class_poly,
    j_value,
    lambda_at_zero,
    resultant,
    singular_moduli_check,
)

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# reduced forms


def test_class_reps_examples():
    assert class_reps(-3) == [ReducedForm(1, 1, 1)]
    assert class_reps(-4) == [ReducedForm(1, 0, 1)]
    reps23 = class_reps(-23)
    assert len(reps23) == 3
    assert set(reps23) == {ReducedForm(1, 1, 6), ReducedForm(2, -1, 3), ReducedForm(2, 1, 3)}


def test_class_reps_rejects_non_fundamental():
    for d in (-9, -12, -100, 5, 0):
        with pytest.raises(ValueError):
            class_reps(d)


def test_class_reps_are_reduced_and_primitive():
    for d in (-23, -47, -71, -84, -163):
        for f in class_reps(d):
            assert f.discriminant == d
            assert abs(f.b) <= f.a <= f.c
            if abs(f.b) == f.a or f.a == f.c:
                assert f.b >= 0
            assert math.gcd(math.gcd(f.a, abs(f.b)), f.c) == 1


def test_known_class_numbers():
    known = {-3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -19: 1, -23: 3, -47: 5, -71: 7, -163: 1}
    for d, h in known.items():
        assert class_number(d) == h


# ---------------------------------------------------------------------------
# j-values


def test_j_special_values():
    with mpmath.mp.workprec(200):
        j3 = j_value(ReducedForm(1, 1, 1), 128)
        assert abs(j3) < mpmath.mpf(2) ** -100
        j4 = j_value(ReducedForm(1, 0, 1), 128)
        assert abs(j4 - 1728) < mpmath.mpf(10) ** -20
        j7 = j_value(ReducedForm(1, 1, 2), 128)
        assert abs(j7 + 3375) < mpmath.mpf(10) ** -20


def test_j_rejects_low_precision():
    with pytest.raises(ValueError):
        j_value(ReducedForm(1, 1, 1), 32)


def test_j_series_constants():
    from cmeis.oracle import _j_coeffs

    cs = _j_coeffs(64)
    assert cs[0] == 1  # q^-1
    assert cs[1] == 744
    assert cs[2] == 196884
    assert cs[3] == 21493760


def test_j_coeffs_slice_matches_fresh_recurrence():
    from cmeis.oracle import _extend_j_series, _j_coeffs

    # the slice comes from the module table, grown past 96 first; the fresh
    # table grows in place in two steps
    _j_coeffs(128)
    fresh = [1]
    _extend_j_series(fresh, 40)
    _extend_j_series(fresh, 96)
    assert _j_coeffs(96) == tuple(fresh)
    assert len(_j_coeffs(96)) == 97


def test_j_table_golden():
    from cmeis.oracle import _j_coeffs

    cs = _j_coeffs(1024)
    digest = hashlib.sha256(repr(cs).encode()).hexdigest()
    assert digest == "7aaa88d82687855db20a544d1f7075b2f283558a0a686dd1f004f52d711ccfc6"
    assert cs[4:12] == (  # OEIS A000521
        864299970,
        20245856256,
        333202640600,
        4252023300096,
        44656994071935,
        401490886656000,
        3176440229784420,
        22567393309593600,
    )


def _nome(form):
    # r = e^(i pi tau) at the root tau of the form, and log(1/|r|)
    rtd = mpmath.sqrt(-form.discriminant)
    r = mpmath.exp(mpmath.mpc(-mpmath.pi * rtd, -mpmath.pi * form.b) / (2 * form.a))
    return r, float(mpmath.pi * rtd / (2 * form.a))


def _theta_e4_eta_mpc(r, log_inv_r, bits):
    # route one's E4 and eta^3 at 32 guard bits, as j_value forms them, back in mpmath
    from cmeis.oracle import _theta_e4_eta

    scale = bits + 32
    fixed = int(mpmath.ldexp(r.real, scale)), int(mpmath.ldexp(r.imag, scale))
    return [
        mpmath.mpc(mpmath.ldexp(re, -scale), mpmath.ldexp(im, -scale))
        for re, im in _theta_e4_eta(fixed, log_inv_r, scale)
    ]


def test_theta_eta_matches_literal_product():
    from cmeis.oracle import _series_length

    # theta2 theta3 theta4 = 2 eta^3, i.e. T theta3 theta4 = prod (1 - q^n)^3
    prec = 256
    form = ReducedForm(2, 1, 3)  # a non-real q, discriminant -23
    with mpmath.mp.workprec(prec + 48):
        r, log_inv_r = _nome(form)
        q = r * r
        literal = mpmath.mpc(1)
        qn = mpmath.mpc(1)
        for _ in range(_series_length(2 * log_inv_r, prec + 48)):
            qn *= q
            literal *= 1 - qn
        _, eta3 = _theta_e4_eta_mpc(r, log_inv_r, prec + 48)
        cube = literal * literal * literal
        assert abs(eta3 - cube) <= mpmath.mpf(2) ** (16 - prec) * abs(cube)


def test_theta_e4_matches_divisor_sum():
    # E4 vanishes at the root of (1, 1, 1), so the tolerance is absolute
    prec = 256
    for form in (ReducedForm(2, 1, 3), ReducedForm(1, 1, 1), ReducedForm(3, 2, 5)):
        with mpmath.mp.workprec(prec):
            r, log_inv_r = _nome(form)
            e4, _ = _theta_e4_eta_mpc(r, log_inv_r, prec)
        with mpmath.mp.workprec(2 * prec):
            q = mpmath.mpc(r) * r  # the same r, squared at twice the precision
            reference = mpmath.mpc(1)
            qn = mpmath.mpc(1)
            for n in range(1, 2 * prec):
                qn *= q
                reference += 240 * sum(k**3 for k in range(1, n + 1) if n % k == 0) * qn
            assert abs(e4 - reference) <= mpmath.mpf(2) ** (8 - prec) * max(1, abs(reference))


@pytest.mark.parametrize("d", [-3, -4, -15, -719, -2351])
def test_fixed_point_series_within_its_bound(d):
    from cmeis.oracle import _fixed_point_series, _j_coeffs, _series_length

    # the docstring bound: (|sum| + 1/8) units of 2^-work; the largest a
    # of -719 and -2351 gives the longest series, and at -15 the terms past
    # q^a are large enough that the first-order step in delta keeps the bound;
    # 64 bits past work put the reference's own error under 1e-19 units of 2^-work
    work = class_poly_start_precision(d) + 48
    for form in class_reps(d):
        with mpmath.mp.workprec(work):
            r, log_inv_r = _nome(form)
            q = r * r
            coeffs = _j_coeffs(_series_length(2 * log_inv_r, work))
            got = _fixed_point_series(coeffs, q, form.a, work)
        hi = work + 64
        with mpmath.mp.workprec(hi):
            reference = mpmath.mpc(0)
            for c in reversed(_j_coeffs(_series_length(2 * log_inv_r, hi))):
                reference = reference * q + c
            bound = (abs(reference) + mpmath.mpf(1) / 8) * mpmath.mpf(2) ** -work
            assert abs(got - reference) <= bound, form


@pytest.mark.parametrize("d", [-3, -4, -23, -191, -719])
def test_j_value_matches_kleinj(d):
    # a third route, mpmath's own Klein j, at twice the precision
    precision = class_poly_start_precision(d)
    for form in class_reps(d):
        if form.b < 0:
            continue
        j = j_value(form, precision)
        with mpmath.mp.workprec(2 * precision):
            tau = mpmath.mpc(-form.b, mpmath.sqrt(-d)) / (2 * form.a)
            reference = 1728 * mpmath.kleinj(tau)
            tol = mpmath.mpf(2) ** (16 - precision) * max(1, abs(reference))
            assert abs(j - reference) <= tol, form


def test_j_value_where_q_is_below_the_fixed_point_scale():
    # at 64 bits (CMEIS_PRECISION_BITS can start there) the a = 1 form of
    # -2351 has |q| near 2^-219, below route two's scale of 2^-187
    form = ReducedForm(1, 1, 588)
    j = j_value(form, 64)
    with mpmath.mp.workprec(128):
        reference = 1728 * mpmath.kleinj(mpmath.mpc(-1, mpmath.sqrt(2351)) / 2)
        assert abs(j - reference) <= mpmath.mpf(2) ** (16 - 64) * abs(reference)


# ---------------------------------------------------------------------------
# class polynomials


def test_hilbert_class_poly_examples():
    assert hilbert_class_poly(-3, 128) == [0, 1]
    assert hilbert_class_poly(-7, 128) == [3375, 1]
    assert hilbert_class_poly(-4, 128) == [-1728, 1]
    h23 = hilbert_class_poly(-23, class_poly_start_precision(-23))
    assert h23 == [12771880859375, -5151296875, 3491750, 1]


def test_hilbert_class_poly_certificate_rejects_low_precision():
    from cmeis.oracle import PrecisionError

    # 16 classes, coefficients beyond 120 digits: 64 bits cannot round them
    with pytest.raises(PrecisionError):
        hilbert_class_poly(-471, 64)
    coeffs = hilbert_class_poly(-471, class_poly_start_precision(-471))
    assert len(coeffs) == class_number(-471) + 1 == 17


@pytest.mark.parametrize("d", [-23, -47, -71, -191])
def test_conjugate_pairs_match_product_over_all_forms(monkeypatch, d):
    monkeypatch.setattr(oracle, "_CLASS_POLYS", {})
    prec = class_poly_start_precision(d)
    forms = class_reps(d)
    assert any(f.b < 0 for f in forms)  # conjugate pairs; the principal form is ambiguous
    with mpmath.mp.workprec(prec + 48):
        coeffs = [mpmath.mpc(1)]
        for form in forms:
            j = j_value(form, prec)
            shifted = [mpmath.mpc(0)] + coeffs
            coeffs = [shifted[i] - (j * coeffs[i] if i < len(coeffs) else 0) for i in range(len(shifted))]
        literal = [int(mpmath.nint(c.real)) for c in coeffs]
        assert all(abs(c - n) < 0.25 for c, n in zip(coeffs, literal))
    assert hilbert_class_poly(d, prec) == literal


def test_memo_below_the_certified_precision_still_fails(monkeypatch):
    monkeypatch.setattr(oracle, "_CLASS_POLYS", {})
    start = class_poly_start_precision(-471)
    coeffs = hilbert_class_poly(-471, start)
    with pytest.raises(PrecisionError):
        hilbert_class_poly(-471, 64)
    assert hilbert_class_poly(-471, start) == coeffs


def test_memo_returns_copies_without_new_j_values(monkeypatch):
    monkeypatch.setattr(oracle, "_CLASS_POLYS", {})
    prec = class_poly_start_precision(-47)
    first = hilbert_class_poly(-47, prec)
    expected = list(first)
    first.append(7)

    def no_j_value(*args):
        raise AssertionError("j_value called for a remembered class polynomial")

    monkeypatch.setattr(oracle, "j_value", no_j_value)
    for request in (prec, prec, 2 * prec):
        got = hilbert_class_poly(-47, request)
        assert got == expected
        got[0] += 1


# ---------------------------------------------------------------------------
# resultants


def _sylvester_det(P, Q):
    # fraction-free determinant of the Sylvester matrix, as an oracle
    P, Q = list(P), list(Q)
    n, m = len(P) - 1, len(Q) - 1
    size = n + m
    if size == 0:
        return 1
    rows = []
    for i in range(m):
        row = [0] * size
        for k, c in enumerate(reversed(P)):
            row[i + k] = c
        rows.append(row)
    for i in range(n):
        row = [0] * size
        for k, c in enumerate(reversed(Q)):
            row[i + k] = c
        rows.append(row)
    mat = [[Fraction(c) for c in row] for row in rows]
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if mat[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, size):
            factor = mat[r][col] * inv
            if factor:
                for c in range(col, size):
                    mat[r][c] -= factor * mat[col][c]
    assert det.denominator == 1
    return int(det)


def test_resultant_examples():
    assert resultant([0, 1], [3375, 1]) == 3375
    assert resultant([1, 2, 1], [1, 2, 1]) == 0
    assert resultant([0, 1], [-1728, 1]) == -1728


def test_resultant_against_sylvester():
    rng = random.Random(11)
    for _ in range(120):
        P = [rng.randint(-9, 9) for _ in range(rng.randint(2, 5))]
        Q = [rng.randint(-9, 9) for _ in range(rng.randint(2, 5))]
        if not any(P) or not any(Q):
            continue
        while P and P[-1] == 0:
            P.pop()
        while Q and Q[-1] == 0:
            Q.pop()
        if len(P) == 1 and len(Q) == 1:
            continue
        assert resultant(P, Q) == _sylvester_det(P, Q), (P, Q)


def test_resultant_swap_sign():
    P, Q = [3, 1, 2], [-1, 0, 1, 4]
    assert resultant(P, Q) == (-1) ** (2 * 3) * resultant(Q, P)
    P2, Q2 = [1, 1], [2, 0, 0, 1]
    assert resultant(P2, Q2) == (-1) ** (1 * 3) * resultant(Q2, P2)


# ---------------------------------------------------------------------------
# special functions


def test_e1_reference_value():
    val = e1(1, 100)
    with mpmath.mp.workprec(120):
        assert abs(val - mpmath.mpf("0.21938393439552027367716377546")) < mpmath.mpf(
            "1e-25"
        )


def test_e1_bounds_and_monotone():
    with mpmath.mp.workprec(80):
        grid = [mpmath.mpf(q) / 4 for q in range(1, 60)]
        vals = [e1(x, 64) for x in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        for x, v in zip(grid, vals):
            assert v < mpmath.exp(-x) / x


def test_e1_rejects_nonpositive():
    with pytest.raises(ValueError):
        e1(0, 64)
    with pytest.raises(ValueError):
        e1(-2, 64)


# ---------------------------------------------------------------------------
# L-functions


def test_l_values_exact():
    assert lambda_at_zero(-3, 96).l_value_exact == Fraction(1, 3)
    assert lambda_at_zero(-4, 96).l_value_exact == Fraction(1, 2)
    assert lambda_at_zero(-23, 96).l_value_exact == Fraction(3)


def test_l_derivative_against_mpmath_dirichlet():
    for d in (-3, -4, -7, -8, -23):
        chi = [kronecker(d, a) for a in range(-d)]
        with mpmath.mp.workprec(160):
            reference = mpmath.dirichlet(0, chi, 1)
            got = lambda_at_zero(d, 96).l_derivative
            assert abs(got - reference) < mpmath.mpf(2) ** -80


def test_l_derivative_against_hurwitz_numeric():
    # independent route: L(s) = |d|^-s sum chi(a) zeta(s, a/|d|),
    # differentiated by central differences at high working precision
    for d in (-3, -4, -7, -11):
        fd = -d
        with mpmath.mp.workprec(300):

            def ell(s, fd=fd, d=d):
                return mpmath.mpf(fd) ** (-s) * sum(
                    kronecker(d, a) * mpmath.zeta(s, mpmath.mpf(a) / fd)
                    for a in range(1, fd)
                    if kronecker(d, a)
                )

            h = mpmath.mpf(2) ** -60
            numeric = (ell(h) - ell(-h)) / (2 * h)
            assert abs(lambda_at_zero(d, 128).l_derivative - numeric) < mpmath.mpf(
                "1e-25"
            )


def test_completed_derivative_assembly():
    # Lambda(s) = |d|^(s/2) GammaR(s+1) L(s); compare against mpmath pieces
    d = -7
    with mpmath.mp.workprec(320):

        def lam(s):
            gamma_r = mpmath.pi ** (-(s + 1) / 2) * mpmath.gamma((s + 1) / 2)
            ell = mpmath.mpf(-d) ** (-s) * sum(
                kronecker(d, a) * mpmath.zeta(s, mpmath.mpf(a) / -d)
                for a in range(1, -d)
                if kronecker(d, a)
            )
            return mpmath.mpf(-d) ** (s / 2) * gamma_r * ell

        h = mpmath.mpf(2) ** -60
        numeric = (lam(h) - lam(-h)) / (2 * h)
        center = lambda_at_zero(d, 160)
        assert abs(center.completed_derivative - numeric) < mpmath.mpf("1e-35")
        assert abs(center.l_value - lam(mpmath.mpf(0))) < mpmath.mpf("1e-40")


# ---------------------------------------------------------------------------
# the reconciliation


def test_singular_moduli_frozen_pairs():
    rep = singular_moduli_check(Setup(-3, -7))
    assert rep.resultant_abs == 3375
    assert rep.degree_side.terms() == {3: Fraction(2), 5: Fraction(2)}
    assert rep.ok
    rep34 = singular_moduli_check(Setup(-3, -4))
    assert rep34.resultant_abs == 1728
    assert rep34.degree_side.terms() == {2: Fraction(2), 3: Fraction(1)}
    assert rep34.ok


def test_singular_moduli_scale():
    rep = singular_moduli_check(Setup(-3, -7))
    assert rep.scale == Fraction(2, 3)
    rep47 = singular_moduli_check(Setup(-4, -7))
    assert rep47.scale == Fraction(1)
    assert rep47.resultant_abs == 5103  # |1728 + 3375| = 3^6 * 7


def test_singular_moduli_large_class_number_with_retry(monkeypatch):
    # class number 16 and a 126-digit resultant; the forced 64-bit start
    # must fail the rounding certificate and double until it clears
    monkeypatch.setenv("CMEIS_PRECISION_BITS", "64")
    rep = singular_moduli_check(Setup(-4, -471))
    assert rep.ok
    assert rep.h2 == 16
    assert rep.precision_used > 64
    primes = [p for p, _ in rep.factorization]
    assert max(primes) < 471  # supported primes stay below |d1*d2|/4
    assert primes == sorted(primes)


def test_precision_env_override(monkeypatch):
    monkeypatch.setenv("CMEIS_PRECISION_BITS", "96")
    assert class_poly_start_precision(-23) == 96
    monkeypatch.delenv("CMEIS_PRECISION_BITS")
    assert class_poly_start_precision(-23) >= 128


def test_singular_moduli_rejects_a_prime_above_the_bound(monkeypatch):
    # Gross-Zagier bounds the primes of Res by |d1 d2| / 4 = 5 here
    monkeypatch.setattr(oracle, "resultant", lambda P, Q: -3375 * 7)
    with pytest.raises(InvariantError, match=r"\(-3, -7\) leaves a 3-bit cofactor"):
        singular_moduli_check(Setup(-3, -7))


def test_singular_moduli_bound_is_inclusive():
    rep = singular_moduli_check(Setup(-3, -479))
    assert rep.ok
    assert rep.factorization[-1][0] == 359 == 3 * 479 // 4


_class_reps = oracle.class_reps
_divisor_sigmas = oracle._divisor_sigmas
_theta_sums = oracle._theta_sums
_j_coeffs = oracle._j_coeffs


def _bumped_sigmas(N):
    s3, s5 = _divisor_sigmas(N)
    s3[1] += 1
    return s3, s5


def _theta4_as_theta3(*args):
    # theta4 with the sign of its odd terms flipped is theta3
    theta3, _, tri = _theta_sums(*args)
    return theta3, theta3, tri


def _j_at_2_1_3():
    return j_value(ReducedForm(2, 1, 3), 128)


# a broken oracle step, the call that must catch it, and the error it raises; each
# is raised explicitly, never a bare assert, so with the source guard of
# tests/test_imports.py it holds under python -O too
_SABOTAGE = {
    "resultant": (
        "resultant", lambda P, Q: 0, lambda: singular_moduli_check(Setup(-3, -7)),
        InvariantError, "share a root",
    ),
    "class_reps": (
        "class_reps", lambda d: _class_reps(d) + [ReducedForm(1, -1, 2)],
        lambda: hilbert_class_poly(-7, 128), InvariantError, "not monic of degree 2",
    ),
    "sigma3": (
        "_divisor_sigmas", _bumped_sigmas, lambda: oracle._extend_j_series([1], 64),
        InvariantError, "remainder at q^6",
    ),
    "theta4": (
        "_theta_sums", _theta4_as_theta3, _j_at_2_1_3, PrecisionError, "j-value routes disagree",
    ),
    "j_coeffs": (
        "_j_coeffs", lambda N: (1, 745) + _j_coeffs(N)[2:], _j_at_2_1_3,
        PrecisionError, "j-value routes disagree",
    ),
}


@pytest.mark.parametrize("sabotage", _SABOTAGE)
def test_oracle_checks_survive_optimize(monkeypatch, sabotage):
    attr, broken, call, error, message = _SABOTAGE[sabotage]
    monkeypatch.setattr(oracle, attr, broken)
    monkeypatch.setattr(oracle, "_CLASS_POLYS", {})  # so class_reps builds its polynomial again
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_exhausted_retry_is_one_precision_failure(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "_CLASS_POLYS", {})
    tried = []

    def failing_j_value(form, precision):
        tried.append(precision)
        raise PrecisionError(f"forced at {precision} bits")

    monkeypatch.setattr(oracle, "j_value", failing_j_value)
    assert main(["singular-moduli", "--d1", "-3", "--d2", "-7"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "precision failure: class polynomials failed at every precision tried"
    ]
    # the cap: the first attempt at twice the height bound of -3 and -7, 128
    assert tried == [128, 256]


def test_recurring_disagreement_stops_at_twice_the_height(monkeypatch, capsys):
    # the j_coeffs sabotage fails at every precision; -719's height bound
    # is 2,626 bits, so the second attempt is the last
    monkeypatch.setattr(oracle, "_CLASS_POLYS", {})
    coeffs = oracle._j_coeffs
    monkeypatch.setattr(oracle, "_j_coeffs", lambda N: (1, 745) + coeffs(N)[2:])
    tried = []
    real_j_value = oracle.j_value

    def recorded_j_value(form, precision):
        tried.append(precision)
        return real_j_value(form, precision)

    monkeypatch.setattr(oracle, "j_value", recorded_j_value)
    assert main(["singular-moduli", "--d1", "-4", "--d2", "-719"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "precision failure: class polynomials failed at every precision tried"
    ]
    assert tried == [2626, 5252]


def test_oracle_pass_in_one_process_prints_the_recorded_bytes(monkeypatch, capsys):
    # every singular-moduli op of perfbench's oracle workload, in its
    # order: later pairs reuse the class polynomials of earlier ones, and
    # (s, -479) and (s, -719) run at 1,999 and 2,626 bits
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())["workload_ops"]
    pairs = [(-191, -239), (-239, -311), (-311, -191)]
    pairs += [(s, d) for d in (-479, -719) for s in (-3, -4, -7, -8, -11)]
    monkeypatch.setattr(oracle, "_CLASS_POLYS", {})
    calls = []
    real_j_value = oracle.j_value

    def counted_j_value(form, precision):
        calls.append(form)
        return real_j_value(form, precision)

    monkeypatch.setattr(oracle, "j_value", counted_j_value)
    for d1, d2 in pairs:
        argv = ["singular-moduli", "--d1", str(d1), "--d2", str(d2)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == expected[" ".join(argv)], argv
    # one j per conjugate pair, one class polynomial per discriminant
    discriminants = {d for pair in pairs for d in pair}
    assert len(calls) == sum((class_number(d) + 1) // 2 for d in discriminants)
    assert len([key for key in expected if key.startswith("singular-moduli")]) == len(pairs)
