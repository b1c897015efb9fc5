"""Command-line front end.

Subcommands:

* ``coeffs``           stream coefficient records (JSON lines or CSV)
* ``degree``           the trace-m degree as an exact prime-log map
* ``singular-moduli``  both sides of the resultant reconciliation
* ``verify``           run the cross-module invariant suites

Exit codes: 0 success, 1 verification failure or violated invariant,
2 usage or setup error, 3 precision failure.  All rational values are
emitted as reduced fraction strings and maps are keyed by primes in
increasing order, so emitted JSON re-serializes byte-identically.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from mpmath.libmp import (
    from_int,
    mpf_abs,
    mpf_cmp,
    mpf_mul_int,
    mpf_pow_int,
    round_nearest,
    to_str,
)

from .eisenstein import (
    _index_report,
    _LocalTable,
    _mixed_term,
    _z_constants,
    constant_term,
    trace_degree,
)
from .exact import InvariantError, LogLinear, _log_prime
from .field import FPrimeIdeal, Setup, SetupError, _line_sieve
from .oracle import PrecisionError, singular_moduli_check
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3

# most values of x, over all traces, the mixed-signature scan may be asked to walk
_MAX_MIXED_SCAN = 10**5


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _loglinear_map(value: LogLinear) -> dict[str, str]:
    return {str(p): str(c) for p, c in sorted(value.terms().items())}


def _float_str(x, digits: int) -> str:
    """x to ``digits`` significant digits, "0" for zero: ``nstr(x, digits, strip_zeros=False)``.

    So 3.29 at 1 digit is "3." where plain ``nstr`` gives "3.0".  Calls
    ``libmp.to_str``, the kernel under ``nstr``, on the mpf's raw tuple;
    it reads no global precision.
    """
    if x == 0:
        return "0"
    return to_str(x._mpf_, digits, strip_zeros=False)


def _display_bits(digits: int) -> int:
    return max(128, 4 * digits + 32)


def _ratio_text(a: int, b: int) -> str:
    """a/b in lowest terms as ``str(Fraction(a, b))`` prints it, for b > 0."""
    g = math.gcd(a, b)
    return str(a // g) if g == b else f"{a // g}/{b // g}"


def _diff_text(primes) -> str:
    return "[" + ",".join(f'{{"p":{q.p},"kind":"{q.kind}"}}' for q in primes) + "]"


def _tail(report, digits, bits):
    """The a_alpha, deg_X, float and nu texts: a function of (P's p, 2 nu, rho) alone.

    The float is the coefficient 2 * 2nu * rho * log p as one ``libmp``
    product of the cached log p at ``bits``, rounded to nearest: the one
    rounding ``LogLinear.to_float`` makes of a one-prime integer
    coefficient, so the text is that of ``report.coefficient``.  Here
    2 nu >= 2 and rho >= 1, so the product is never zero.
    """
    nu = _ratio_text(report.two_nu, 2)
    if report.reflex is None:
        return "{}", "{}", "0", nu
    p, count = report.reflex.p, report.two_nu * report.rho  # degree = count/2 * log p
    value = mpf_mul_int(_log_prime(p, bits), 2 * count, bits, round_nearest)
    return (
        f'{{"{p}":"{2 * count}"}}',
        f'{{"{p}":"{_ratio_text(count, 2)}"}}',
        to_str(value, digits, strip_zeros=False),
        nu,
    )


def _numeric_record(D, m, x, float_text):
    """The record of the constant or a mixed term: empty diff and maps, nu 0."""
    alpha = (_ratio_text(m, 2), _ratio_text(x, 2 * D))
    return (str(m), str(x), *alpha, "[]", "{}", "{}", float_text, "0")


def _bound_clears(c, z, digits):
    """Whether c e^(-z)/z >= cutoff/2, cutoff = 10^-(digits+2) the display cutoff, in floats.

    With c >= 2 rho this bounds the mixed term 2 rho E1(z), since
    E1(z) < e^(-z)/z for z > 0 (Abramowitz and Stegun 5.1.20).  The factor
    2 below the cutoff is far above the float error in z (about 1e-13)
    and in the 53-bit test that keeps a record.
    """
    return math.log(c) - z - math.log(z) >= -(digits + 2) * math.log(10) - math.log(2)


def _mixed_ranges(D, trace_max, v, digits):
    """The x-range of the mixed scan at each trace 1..trace_max, v = min(v1, v2).

    At trace m the scan walks x > m sqrt(D), x = mD (mod 2).  Each term at
    +/-x is 2 rho E1(z), z = 4 pi sigma v, n = (x^2 - m^2 D)/4, so it is
    at most M(x) = 8n e^(-z)/z: rho <= d(n)^2 <= 4n, and E1(z) < e^(-z)/z
    for z > 0 (Abramowitz and Stegun 5.1.20).  M falls for good once the
    bound 2x/(x^2 - m^2 D) - 2 pi v/sqrt(D) on d log M/dx is negative (its
    first term falls with x).  The range stops at the first such x with
    M(x) below half the display cutoff (``_bound_clears`` at c = 8n);
    nothing is factored.  ``_mixed_records`` screens each term by the same
    test with the exact 2 rho in place of 8n.  More than
    ``_MAX_MIXED_SCAN`` values of x in all is a ``SetupError``.
    """
    sqrt_D = math.sqrt(D)
    slope = 2 * math.pi * v / sqrt_D  # dz/dx
    left = _MAX_MIXED_SCAN
    for m in range(1, trace_max + 1):
        mmD = m * m * D
        x = math.isqrt(mmD - 1) + 1  # the first x with x^2 > m^2 D ...
        x = start = x + (x - m * D) % 2  # ... and (x + m sqrt(D))/2 integral
        while True:
            four_n = x * x - mmD
            if 2 * x < slope * four_n:  # then z > 1
                z = slope * four_n / (x + m * sqrt_D)  # slope * (x - m sqrt(D))
                if not _bound_clears(2 * four_n, z, digits):
                    break
            x, left = x + 2, left - 1
            if left < 0:
                raise SetupError(
                    f"imaginary parts too small: more than {_MAX_MIXED_SCAN} values of x to scan"
                )
        yield range(start, x, 2)


def _may_clear(D, m, x, rho, v, digits):
    """The screen of the mixed term at (m, x) with its side's v: ``_bound_clears`` at c = 2 rho.

    z = 4 pi |sigma| v is taken in floats as ``_mixed_ranges`` takes it.
    """
    sqrt_D = math.sqrt(D)
    z = 2 * math.pi * v / sqrt_D * (x * x - m * m * D) / (abs(x) + m * sqrt_D)
    return _bound_clears(2 * rho, z, digits)


def _mixed_records(D, m, x, rho, v1, v2, constants, digits, bits, cutoff):
    """The 0-2 records of the mixed-signature pair -x, x at trace m, rho != 0, -x first.

    The index at -x has the conjugate ideal and the same rho.  A side's
    term is valued only when ``_may_clear`` passes at its v: the stop test
    of ``_mixed_ranges`` with the exact 2 rho in place of its bound 8n, so
    a term it skips is below half the cutoff.  The term reads only |x| and
    its v, so with v1 == v2 it is screened and valued once.  ``constants``
    is ``_z_constants(D, v1, v2, bits)``.  A valued term is kept when
    |value| >= ``cutoff`` = 10^-(digits+2), both rounded to 53 bits in
    ``libmp``: no global precision is read.
    """

    def term(sx, v):
        if _may_clear(D, m, sx, rho, v, digits):
            return _mixed_term(D, m, sx, rho, constants, bits)
        return None

    low = term(-x, v1)
    high = low if v1 == v2 else term(x, v2)
    return [
        _numeric_record(D, m, sx, _float_str(value, digits))
        for sx, value in ((-x, low), (x, high))
        if value is not None and mpf_cmp(mpf_abs(value._mpf_, 53, round_nearest), cutoff) >= 0
    ]


def coefficient_records(setup, trace_max, v1=None, v2=None, digits=30):
    """An iterator over the emitted records in order, one trace m at a time.

    Each record is the tuple of its nine field texts, in the order of the
    CSV columns.  The constant term (m = 0) comes first when imaginary
    parts are given, then each trace 1 <= m <= trace_max with x
    increasing, so the mixed-signature records at -x precede the slice.
    One sieve call per trace line factors each x >= 0 of the slice and,
    with imaginary parts, of the ``_mixed_ranges`` scan after it; its
    (q, e) pairs give each report (``eisenstein._index_report``), read
    with one table of local data per call.  Every slice element has a
    record, the one at -x the Galois mirror of x's, sharing its tail (the
    a_alpha, deg_X, float and nu texts, built once per (P's p, 2 nu, rho)
    by ``_tail``) and the diff texts built once per obstruction set; a
    mixed term has one when it clears the display cutoff.  Bad or too
    small imaginary parts are a ``SetupError`` here, before the first record.
    No trace's end is computed before that trace: with imaginary parts a
    first ``_mixed_ranges`` walk, storing nothing, raises its
    ``SetupError`` here, and the stream takes its ends from a second.
    """
    if (v1 is None) != (v2 is None):
        raise SetupError("v1 and v2 must be given together")
    if v1 is not None and not all(0 < v < math.inf for v in (v1, v2)):
        raise SetupError("imaginary parts must be positive and finite")
    if v1 is None:  # the slice alone: x^2 < m^2 D
        stops = (math.isqrt(m * m * setup.D - 1) + 1 for m in range(1, trace_max + 1))
    else:
        walk = setup.D, trace_max, min(v1, v2), digits
        for _ in _mixed_ranges(*walk):  # raises before the first record, or not at all
            pass
        stops = (xs.stop for xs in _mixed_ranges(*walk))
    return _records(setup, v1, v2, digits, stops)


def _records(setup, v1, v2, digits, stops):
    bits = _display_bits(digits)
    cutoff = mpf_pow_int(from_int(10), -(digits + 2), 53, round_nearest)
    D = setup.D
    constants = None if v1 is None else _z_constants(D, v1, v2, bits)
    table = _LocalTable(setup)
    tails = {}  # (p, 2 nu, rho) -> tail; few distinct keys recur
    # report.diff -> its diff texts at x and at -x.  For (-7, -23) there are 2,648 /
    # 6,991 / 26,160 obstruction sets by trace 60 / 100 / 200, against 3,427 /
    # 8,295 / 28,545 tail keys: this table grows as ``tails`` does
    diffs = {}

    if v1 is not None:
        yield _numeric_record(D, 0, 0, _float_str(constant_term(setup, v1, v2, bits), digits))
    for m, stop in enumerate(stops, 1):
        m_text, u, mmD = str(m), _ratio_text(m, 2), m * m * D
        below, above = [], []  # the records at x < 0, by |x|, and at x >= 0, by x
        for x, factors in _line_sieve(setup, m, range(mmD % 2, stop, 2)):
            report = _index_report(table, m, x, factors)
            if x * x > mmD:  # the first mixed x is the next one of the slice's parity
                if report.rho:  # rho(alpha*D): 0 at most x, the obstruction set even there
                    for rec in _mixed_records(
                        D, m, x, report.rho, v1, v2, constants, digits, bits, cutoff
                    ):
                        (below if rec[1][0] == "-" else above).append(rec)
                continue
            key = (report.reflex and report.reflex.p, report.two_nu, report.rho)
            tail = tails.get(key)
            if tail is None:
                tail = tails[key] = _tail(report, digits, bits)
            diff = diffs.get(report.diff)
            if diff is None:
                # the conjugate index: the split primes swap their kinds
                mirror = sorted((q.conjugate() for q in report.diff), key=FPrimeIdeal.sort_key)
                diff = diffs[report.diff] = (_diff_text(report.diff), _diff_text(mirror))
            x_text, v = str(x), _ratio_text(x, 2 * D)
            above.append((m_text, x_text, u, v, diff[0], *tail))
            if x:
                below.append((m_text, "-" + x_text, u, "-" + v, diff[1], *tail))
        yield from reversed(below)
        yield from above


# one record as a JSON line; every field text is already JSON-safe
_JSON_LINE = (
    '{"m":%s,"x":%s,"alpha":["%s","%s"],"diff":%s,"a_alpha":%s,"deg_X":%s,'
    '"a_alpha_float":"%s","nu":"%s"}\n'
)


def _emit_json(records, out) -> None:
    for rec in records:
        out.write(_JSON_LINE % rec)


def _emit_csv(records, out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ("m", "x", "alpha_u", "alpha_v", "diff", "a_alpha", "deg_X", "a_alpha_float", "nu")
    )
    writer.writerows(records)


def _cmd_coeffs(args) -> int:
    setup = Setup(args.d1, args.d2)
    records = coefficient_records(
        setup, args.trace_max, v1=args.v1, v2=args.v2, digits=args.digits
    )
    if args.format == "json":
        _emit_json(records, sys.stdout)
    else:
        _emit_csv(records, sys.stdout)
    return EXIT_OK


def _cmd_degree(args) -> int:
    setup = Setup(args.d1, args.d2)
    value = trace_degree(setup, args.m)
    bits = _display_bits(args.digits)
    obj = {
        "d1": args.d1,
        "d2": args.d2,
        "m": args.m,
        "deg_T": _loglinear_map(value),
        "deg_T_float": _float_str(value.to_float(bits), args.digits),
    }
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")
    return EXIT_OK


def _cmd_singular_moduli(args) -> int:
    setup = Setup(args.d1, args.d2)
    report = singular_moduli_check(setup)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # resultants can exceed the default digit cap
    try:
        resultant_text = str(report.resultant_abs)
    finally:
        sys.set_int_max_str_digits(limit)
    obj = {
        "d1": report.d1,
        "d2": report.d2,
        "h1": report.h1,
        "h2": report.h2,
        "resultant_abs": resultant_text,
        "resultant_factorization": {str(p): str(e) for p, e in report.factorization},
        "scale": str(report.scale),
        "degree_side": _loglinear_map(report.degree_side),
        "resultant_side": _loglinear_map(report.resultant_side),
        "precision_bits": report.precision_used,
        "pass": report.ok,
    }
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")
    return EXIT_OK if report.ok else EXIT_VERIFY


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for suite, name, detail in run_suites(names, seed=args.seed):
        sys.stdout.write(f"{'ok' if detail is None else 'FAIL'} {suite}.{name}\n")
        sys.stdout.flush()  # a piped reader sees each check as it ends
        if detail is not None:
            failed = True
            sys.stderr.write(
                json.dumps(
                    {"suite": suite, "invariant": name, "detail": detail}, separators=(",", ":")
                )
                + "\n"
            )
    return EXIT_VERIFY if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmeis",
        description=(
            "Exact Fourier coefficients of the derived Hilbert Eisenstein series "
            "for a pair of imaginary quadratic discriminants, the matching "
            "Arakelov degrees, and a singular-moduli cross-check."
        ),
        epilog=(
            "Exit codes: 0 success, 1 verification failure or violated invariant, "
            "2 usage/setup error, 3 precision failure.  CMEIS_PRECISION_BITS "
            "overrides the starting precision of the floating-point oracle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--d1", type=int, required=True, help="first negative fundamental discriminant")
    common.add_argument("--d2", type=int, required=True, help="second negative fundamental discriminant")
    floats = argparse.ArgumentParser(add_help=False)  # for the commands that print floats
    floats.add_argument(
        "--digits", type=_positive_int, default=30, help="significant digits for floats (default 30)"
    )

    p_coeffs = sub.add_parser("coeffs", parents=[common, floats], help="stream coefficient records")
    p_coeffs.add_argument("--trace-max", type=_positive_int, required=True, metavar="M")
    p_coeffs.add_argument("--v1", type=float, default=None, help="first imaginary part")
    p_coeffs.add_argument("--v2", type=float, default=None, help="second imaginary part")
    p_coeffs.add_argument("--format", choices=("json", "csv"), default="json")
    p_coeffs.set_defaults(func=_cmd_coeffs)

    p_degree = sub.add_parser("degree", parents=[common, floats], help="trace-m Arakelov degree")
    p_degree.add_argument("--m", type=_positive_int, required=True)
    p_degree.set_defaults(func=_cmd_degree)

    p_sm = sub.add_parser(
        "singular-moduli", parents=[common], help="resultant vs degree reconciliation"
    )
    p_sm.set_defaults(func=_cmd_singular_moduli)

    p_verify = sub.add_parser("verify", help="run invariant suites")
    p_verify.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that quit early (``| head``) shows up here
        return code
    except BrokenPipeError:  # not an error; also silence the exit-time flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except SetupError as exc:
        sys.stderr.write(f"setup error: {exc}\n")
        return EXIT_USAGE
    except PrecisionError as exc:
        sys.stderr.write(f"precision failure: {exc}\n")
        return EXIT_PRECISION
    except InvariantError as exc:
        sys.stderr.write(json.dumps({"invariant": str(exc)}, separators=(",", ":")) + "\n")
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
