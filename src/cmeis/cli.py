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

import mpmath

from .eisenstein import (
    _degree_report,
    _mixed_rho,
    constant_term,
    mixed_coefficient,
    trace_degree,
)
from .exact import InvariantError, LogLinear, factor
from .field import FPrimeIdeal, Setup, SetupError, _half_slice
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
    if x == 0:
        return "0"
    return mpmath.nstr(x, digits, strip_zeros=False)


def _display_bits(digits: int) -> int:
    return max(128, 4 * digits + 32)


def _ratio_text(a: int, b: int) -> str:
    """a/b in lowest terms as ``str(Fraction(a, b))`` prints it, for b > 0."""
    g = math.gcd(a, b)
    return str(a // g) if g == b else f"{a // g}/{b // g}"


def _diff_text(primes) -> str:
    return "[" + ",".join(f'{{"p":{q.p},"kind":"{q.kind}"}}' for q in primes) + "]"


def _tail(report, digits, bits):
    """The a_alpha, deg_X, float and nu texts: a function of (P's p, 2 nu, rho) alone."""
    nu = _ratio_text(report.two_nu, 2)
    if report.reflex is None:
        return "{}", "{}", _float_str(0, digits), nu
    p, count = report.reflex.p, report.two_nu * report.rho  # degree = count/2 * log p
    return (
        f'{{"{p}":"{2 * count}"}}',
        f'{{"{p}":"{_ratio_text(count, 2)}"}}',
        _float_str(report.coefficient.to_float(bits), digits),
        nu,
    )


def _numeric_record(D, m, x, float_text):
    """The record of the constant or a mixed term: empty diff and maps, nu 0."""
    alpha = (_ratio_text(m, 2), _ratio_text(x, 2 * D))
    return (str(m), str(x), *alpha, "[]", "{}", "{}", float_text, "0")


def _mixed_records(setup, m, v1, v2, digits, bits):
    """Nonzero mixed-signature records at trace m, in the order of the scan.

    Trace fixes only a line in the lattice, so the scan walks outward in
    |x| (-x, then x) and stops once a divisor-count bound on the coefficient
    falls below the display cutoff (the terms decay like exp(-c|x|)).
    """
    D = setup.D
    cutoff = mpmath.mpf(10) ** (-(digits + 2))
    with mpmath.mp.workprec(bits):
        sqrt_D = mpmath.sqrt(D)
    x = math.isqrt(m * m * D - 1) + 1  # the first x with x^2 > m^2 D ...
    x += (x - m * D) % 2  # ... and (x + m sqrt(D))/2 integral
    records = []
    while True:
        n = (x * x - m * m * D) // 4
        with mpmath.mp.workprec(bits):
            sigma = (x * sqrt_D / D - m) / 2  # |negative embedding|
            divisors = 1
            for _, e in factor(n):
                divisors *= e + 1
            # rho is at most the squared divisor count of the norm
            bound = 2 * divisors**2 * mpmath.exp(-4 * mpmath.pi * sigma * min(v1, v2))
        if bound < cutoff:
            break
        if _mixed_rho(setup, m, x):  # shared by -x and x; 0 for most x
            for sx in (-x, x):
                value = mixed_coefficient(setup, m, sx, v1, v2, bits)
                if abs(value) < cutoff:
                    continue
                records.append(_numeric_record(D, m, sx, _float_str(value, digits)))
        x += 2
    return records


def coefficient_records(setup, trace_max, v1=None, v2=None, digits=30):
    """Yield the emitted records in order, one trace m at a time.

    Each record is the tuple of its nine field texts, in the order of the
    CSV columns.  Always one record per trace-slice element for
    1 <= m <= trace_max: each pair x, -x is factored and reported once, and
    the record at -x is the Galois mirror of the one at x, sharing its
    tail (the a_alpha, deg_X, float and nu texts).  Tails are built once
    per key (P's p, 2 nu, rho) of the integer report.  With imaginary
    parts given, also the constant term (m = 0) and the mixed-signature
    terms whose numeric size clears the display cutoff.
    """
    if (v1 is None) != (v2 is None):
        raise ValueError("v1 and v2 must be given together")
    bits = _display_bits(digits)
    D = setup.D
    tails = {}  # (p, 2 nu, rho) -> tail; few distinct keys recur

    if v1 is not None:
        yield _numeric_record(D, 0, 0, _float_str(constant_term(setup, v1, v2, bits), digits))
    for m in range(1, trace_max + 1):
        m_text, u = str(m), _ratio_text(m, 2)
        below, per_m = [], []
        for x, _, ideal in _half_slice(setup, m):
            report = _degree_report(setup, ideal)
            key = (report.reflex and report.reflex.p, report.two_nu, report.rho)
            tail = tails.get(key)
            if tail is None:
                tail = tails[key] = _tail(report, digits, bits)
            x_text, v = str(x), _ratio_text(x, 2 * D)
            per_m.append((m_text, x_text, u, v, _diff_text(report.diff), *tail))
            if x:
                # the conjugate index: the split primes swap their kinds
                diff = sorted((q.conjugate() for q in report.diff), key=FPrimeIdeal.sort_key)
                below.append((m_text, "-" + x_text, u, "-" + v, _diff_text(diff), *tail))
        per_m[:0] = reversed(below)
        if v1 is not None:
            per_m.extend(_mixed_records(setup, m, v1, v2, digits, bits))
            per_m.sort(key=lambda r: int(r[1]))
        yield from per_m


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
    if (args.v1 is None) != (args.v2 is None):
        raise SetupError("--v1 and --v2 must be given together")
    if args.v1 is not None:
        if not all(math.isfinite(v) and v > 0 for v in (args.v1, args.v2)):
            raise SetupError("imaginary parts must be positive and finite")
        # the mixed scan stops no earlier than sigma* = ln(2/cutoff)/(4 pi min(v1, v2)),
        # which is about sqrt(D) * sigma* values of x per trace, whatever m is
        log_ratio = math.log(2) + (args.digits + 2) * math.log(10)
        sigma = log_ratio / (4 * math.pi * min(args.v1, args.v2))
        scan = args.trace_max * math.sqrt(setup.D) * sigma
        if scan > _MAX_MIXED_SCAN:
            raise SetupError(
                f"imaginary parts too small: the mixed-signature scan needs about {scan:.3g} "
                f"values of x (at most {_MAX_MIXED_SCAN} per run)"
            )
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
        "deg_T_float": _float_str(0 if value.is_zero else value.to_float(bits), args.digits),
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
    results = run_suites(names, seed=args.seed)
    failed = False
    for res in results:
        status = "ok" if res.ok else "FAIL"
        sys.stdout.write(f"{status} {res.suite}.{res.name}\n")
        if not res.ok:
            failed = True
            sys.stderr.write(
                json.dumps(
                    {"suite": res.suite, "invariant": res.name, "detail": res.detail},
                    separators=(",", ":"),
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
    common.add_argument(
        "--digits", type=_positive_int, default=30, help="significant digits for floats (default 30)"
    )

    p_coeffs = sub.add_parser("coeffs", parents=[common], help="stream coefficient records")
    p_coeffs.add_argument("--trace-max", type=_positive_int, required=True, metavar="M")
    p_coeffs.add_argument("--v1", type=float, default=None, help="first imaginary part")
    p_coeffs.add_argument("--v2", type=float, default=None, help="second imaginary part")
    p_coeffs.add_argument("--format", choices=("json", "csv"), default="json")
    p_coeffs.set_defaults(func=_cmd_coeffs)

    p_degree = sub.add_parser("degree", parents=[common], help="trace-m Arakelov degree")
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
