"""Output checks for benchmark ops, independent of the program's exit codes.

Each timed op is judged on the bytes it printed: the checks below parse
that output and re-derive what must hold, because the CLI can exit 0
while reporting a failed reconciliation (``singular-moduli`` prints
``"pass": false`` with exit code 0).
"""

from __future__ import annotations

import csv
import hashlib
import json
from fractions import Fraction

CSV_HEADER = ["m", "x", "alpha_u", "alpha_v", "diff", "a_alpha", "deg_X", "a_alpha_float", "nu"]
RECORD_KEYS = {"m", "x", "alpha", "diff", "a_alpha", "deg_X", "a_alpha_float", "nu"}


class CheckError(ValueError):
    """The output of an op violates an invariant the benchmark checks."""


def op_key(argv) -> str:
    """The key of an op in the expected-hash table."""
    return " ".join(argv)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _flag(argv, name, default=None):
    if name in argv:
        return argv[argv.index(name) + 1]
    return default


def _fraction_map(obj, what) -> dict[int, Fraction]:
    if not isinstance(obj, dict):
        raise CheckError(f"{what} is not a map")
    try:
        return {int(p): Fraction(c) for p, c in obj.items()}
    except (TypeError, ValueError) as exc:
        raise CheckError(f"{what} holds a malformed entry: {exc}") from None


def _check_degree_identity(a_alpha, deg_x, where) -> None:
    a = _fraction_map(a_alpha, "a_alpha")
    d = _fraction_map(deg_x, "deg_X")
    for p in a.keys() | d.keys():
        if a.get(p, Fraction(0)) != 4 * d.get(p, Fraction(0)):
            raise CheckError(f"a_alpha != 4 * deg_X at prime {p} ({where})")


def _check_coeffs_json(argv, lines) -> int:
    trace_max = int(_flag(argv, "--trace-max"))
    for i, line in enumerate(lines):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CheckError(f"record {i} is not JSON: {exc}") from None
        if not isinstance(rec, dict) or set(rec) != RECORD_KEYS:
            raise CheckError(f"record {i} does not have the v1 record fields")
        if not 0 <= rec["m"] <= trace_max:
            raise CheckError(f"record {i} has trace {rec['m']} outside 0..{trace_max}")
        _check_degree_identity(rec["a_alpha"], rec["deg_X"], f"record {i}")
    return len(lines)


def _check_coeffs_csv(argv, lines) -> int:
    rows = list(csv.reader(lines))
    if not rows or rows[0] != CSV_HEADER:
        raise CheckError("CSV header is missing or wrong")
    trace_max = int(_flag(argv, "--trace-max"))
    for i, row in enumerate(rows[1:]):
        if len(row) != len(CSV_HEADER):
            raise CheckError(f"CSV row {i} has {len(row)} fields")
        if not 0 <= int(row[0]) <= trace_max:
            raise CheckError(f"CSV row {i} has trace {row[0]} outside 0..{trace_max}")
        try:
            a_alpha, deg_x = json.loads(row[5]), json.loads(row[6])
        except json.JSONDecodeError as exc:
            raise CheckError(f"CSV row {i} holds a malformed map: {exc}") from None
        _check_degree_identity(a_alpha, deg_x, f"CSV row {i}")
    return len(rows) - 1


def _single_object(lines) -> dict:
    if len(lines) != 1:
        raise CheckError(f"expected one JSON line, got {len(lines)}")
    try:
        obj = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise CheckError("output is not a JSON object")
    return obj


def _check_pair(argv, obj) -> None:
    if obj.get("d1") != int(_flag(argv, "--d1")) or obj.get("d2") != int(_flag(argv, "--d2")):
        raise CheckError("output is for another discriminant pair")


def _check_degree(argv, lines) -> int:
    obj = _single_object(lines)
    _check_pair(argv, obj)
    if obj.get("m") != int(_flag(argv, "--m")):
        raise CheckError("output is for another trace")
    _fraction_map(obj.get("deg_T"), "deg_T")
    return 1


def _check_singular_moduli(argv, lines) -> int:
    obj = _single_object(lines)
    _check_pair(argv, obj)
    if obj.get("pass") is not True:
        raise CheckError(f"reconciliation reports pass = {obj.get('pass')!r}")
    degree_side = _fraction_map(obj.get("degree_side"), "degree_side")
    resultant_side = _fraction_map(obj.get("resultant_side"), "resultant_side")
    if degree_side != resultant_side:
        raise CheckError("degree_side != resultant_side")
    factorization = _fraction_map(obj.get("resultant_factorization"), "resultant_factorization")
    product = 1
    for p, e in factorization.items():
        product *= p ** int(e)
    if str(product) != obj.get("resultant_abs"):
        raise CheckError("resultant_factorization does not multiply to resultant_abs")
    scale = Fraction(obj.get("scale", "0"))
    if resultant_side != {p: scale * e for p, e in factorization.items()}:
        raise CheckError("resultant_side != scale * resultant_factorization")
    return 1


def _check_verify(argv, lines) -> int:
    if not lines:
        raise CheckError("verify printed no invariant")
    for line in lines:
        if not line.startswith("ok "):
            raise CheckError(f"verify line is not ok: {line!r}")
    return len(lines)


def check_output(argv, text: str) -> int:
    """Check an op's stdout; return its item count or raise ``CheckError``.

    Items are output records for ``coeffs`` and ``degree``, reconciled
    pairs for ``singular-moduli`` and reported invariants for ``verify``.
    """
    if text and not text.endswith("\n"):
        raise CheckError("output does not end with a newline")
    lines = text.splitlines()
    command = argv[0]
    if command == "coeffs":
        if _flag(argv, "--format", "json") == "csv":
            return _check_coeffs_csv(argv, lines)
        return _check_coeffs_json(argv, lines)
    if command == "degree":
        return _check_degree(argv, lines)
    if command == "singular-moduli":
        return _check_singular_moduli(argv, lines)
    if command == "verify":
        return _check_verify(argv, lines)
    raise CheckError(f"no check for command {command!r}")


def judge(argv, exit_code, text: str, expected_sha) -> tuple[int, str | None]:
    """(items, error) for one op; ``error`` is None only for a correct op.

    An op fails on a nonzero exit code, on output that fails its check,
    and on output whose sha256 differs from the expected one.
    """
    try:
        items = check_output(argv, text)
    except (ValueError, TypeError, KeyError) as exc:  # CheckError, or output too malformed to check
        return 0, str(exc) or type(exc).__name__
    if exit_code != 0:
        return 0, f"exit code {exit_code}"
    if expected_sha is None:
        return 0, "no expected hash for this op"
    if sha256(text) != expected_sha:
        return 0, "output hash differs from the expected one"
    return items, None
