import csv
import dataclasses
import hashlib
import inspect
import io
import json
import math
import os
import random
import select
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cmeis.cli
import cmeis.eisenstein
import cmeis.field
import cmeis.genus
import cmeis.oracle
import cmeis.verify
from cmeis.cli import coefficient_records, main
from cmeis.eisenstein import (
    arakelov_degree,
    holomorphic_coefficient,
    mixed_coefficient,
    trace_degree,
)
from cmeis.exact import OO, InvariantError, LogLinear, factor, is_prime, padic_val
from cmeis.field import (
    FElem,
    FIdealFactored,
    Setup,
    _half_slice,
    _invariant_diagonal,
    _place_valuation,
    _slice_ideal,
    element_valuation,
    enumerate_trace_slice,
    principal_ideal,
)
from cmeis.genus import norm_ideal_count
from cmeis.oracle import PrecisionError
from cmeis.verify import SUITES, TEST_MATRIX

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_PATH = ROOT / "docs" / "coefficient-record-schema-v1.json"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeffs_example_records(capsys):
    code, out, _ = _run(capsys, "coeffs", "--d1", "-3", "--d2", "-7", "--trace-max", "1")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 4
    assert [r["x"] for r in records] == [-3, -1, 1, 3]
    assert [r["a_alpha"] for r in records] == [
        {"3": "4"},
        {"5": "4"},
        {"5": "4"},
        {"3": "4"},
    ]
    for r in records:
        # the coefficient map is four times the degree map, entrywise
        assert set(r["a_alpha"]) == set(r["deg_X"])
        for p, c in r["a_alpha"].items():
            assert int(c) == 4 * int(r["deg_X"][p])
        assert r["alpha"][0] == "1/2"


def _matrix_coeffs_runs(capsys, *extra):
    """(args, stdout) of ``coeffs`` at trace 6 on every matrix pair, with and
    without imaginary parts (the constant and mixed records)."""
    for d1, d2 in TEST_MATRIX:
        for v in ((), ("--v1", "0.9", "--v2", "1.1")):
            args = ("coeffs", "--d1", str(d1), "--d2", str(d2), "--trace-max", "6", *v)
            code, out, _ = _run(capsys, *args, *extra)
            assert code == 0
            yield args, out


def test_coeffs_json_roundtrip_byte_identical(capsys):
    # each line is one template filled with field texts: it must be the
    # canonical compact JSON of the record it encodes
    kinds, seen = set(), set()
    for _, out in _matrix_coeffs_runs(capsys):
        for line in out.splitlines():
            assert json.dumps(json.loads(line), separators=(",", ":")) == line
            record = json.loads(line)
            kinds.update(q["kind"] for q in record["diff"])
            if record["m"] == 0:
                seen.add("constant")
            elif record["nu"] != "0":
                seen.add("located")
            else:  # {} maps; an empty locus prints the float 0, a mixed term does not
                seen.add("empty" if record["a_alpha_float"] == "0" else "mixed")
                assert record["a_alpha"] == record["deg_X"] == {}
            seen.add("empty diff" if record["diff"] == [] else "diff")
    # inert primes have chi = +1, so they never enter an obstruction set
    assert kinds == {"split_plus", "split_minus", "ramified"}
    assert seen == {"constant", "located", "empty", "mixed", "empty diff", "diff"}


def test_coeffs_csv_agrees_with_json(capsys):
    for args, json_out in _matrix_coeffs_runs(capsys):
        code, csv_out, _ = _run(capsys, *args, "--format", "csv")
        assert code == 0
        json_records = [json.loads(line) for line in json_out.splitlines()]
        reader = csv.DictReader(io.StringIO(csv_out))
        csv_records = list(reader)
        assert len(csv_records) == len(json_records)
        for jr, cr in zip(json_records, csv_records):
            assert int(cr["m"]) == jr["m"]
            assert int(cr["x"]) == jr["x"]
            assert [cr["alpha_u"], cr["alpha_v"]] == jr["alpha"]
            assert json.loads(cr["diff"]) == jr["diff"]
            assert json.loads(cr["a_alpha"]) == jr["a_alpha"]
            assert json.loads(cr["deg_X"]) == jr["deg_X"]
            assert cr["a_alpha_float"] == jr["a_alpha_float"]
            assert cr["nu"] == jr["nu"]


def test_coeffs_with_v_emits_constant_and_mixed(capsys):
    code, out, _ = _run(
        capsys, "coeffs", "--d1", "-3", "--d2", "-7", "--trace-max", "1",
        "--v1", "1", "--v2", "1",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records[0]["m"] == 0 and records[0]["x"] == 0
    mixed = [r for r in records if r["m"] == 1 and abs(r["x"]) > 4]
    assert mixed, "expected mixed-signature records"
    assert all(r["a_alpha"] == {} and r["diff"] == [] for r in mixed)
    assert all(float(r["a_alpha_float"]) > 0 for r in mixed)


def test_output_is_deterministic(capsys):
    args = (
        "coeffs", "--d1", "-7", "--d2", "-8", "--trace-max", "3",
        "--v1", "1.25", "--v2", "2.5",
    )
    _, first, _ = _run(capsys, *args)
    _, second, _ = _run(capsys, *args)
    assert first == second


def test_records_validate_against_published_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text())
    validator = jsonschema.Draft202012Validator(schema)
    code, out, _ = _run(
        capsys, "coeffs", "--d1", "-7", "--d2", "-8", "--trace-max", "2",
        "--v1", "2", "--v2", "0.5",
    )
    assert code == 0
    for line in out.splitlines():
        validator.validate(json.loads(line))


def test_trace_max_zero_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--d1", "-3", "--d2", "-7", "--trace-max", "0"])
    assert exc.value.code == 2


def test_digits_is_refused_where_no_float_is_printed(capsys):
    # singular-moduli prints integers only, so --digits is not one of its flags
    with pytest.raises(SystemExit) as exc:
        main(["singular-moduli", "--d1", "-3", "--d2", "-7", "--digits", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --digits 5" in capsys.readouterr().err
    for argv in (["coeffs", "--trace-max", "1"], ["degree", "--m", "1"]):
        code, out, _ = _run(capsys, *argv, "--d1", "-3", "--d2", "-7", "--digits", "5")
        assert code == 0 and out


def test_bad_setup_is_exit_2(capsys):
    code, _, err = _run(capsys, "degree", "--d1", "-9", "--d2", "-7", "--m", "1")
    assert code == 2
    assert "setup error" in err


def test_mismatched_v_flags(capsys):
    code, _, err = _run(
        capsys, "coeffs", "--d1", "-3", "--d2", "-7", "--trace-max", "1", "--v1", "1"
    )
    assert code == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize("flag", ["--v1", "--v2"])
def test_imaginary_part_not_positive_and_finite_is_exit_2(capsys, flag, value):
    other = "--v2" if flag == "--v1" else "--v1"
    code, out, err = _run(
        capsys, "coeffs", "--d1", "-3", "--d2", "-7", "--trace-max", "1",
        f"{flag}={value}", f"{other}=1",
    )
    assert code == 2
    assert out == ""
    assert "setup error" in err


def test_tiny_imaginary_part_is_a_setup_error():
    # the mixed scan would need ~1e301 values of x per trace: refuse up front
    argv = ["coeffs", "--d1", "-3", "--d2", "-7", "--trace-max", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "cmeis.cli", *argv, "--v1", "1e-300", "--v2", "1e-300"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("setup error: imaginary parts too small")


def test_mixed_scan_cap_counts_every_trace():
    # about 7,500 values of x per trace is admitted at trace 1 but not 20 times over
    argv = ["coeffs", "--d1", "-7", "--d2", "-23", "--trace-max", "20"]
    proc = subprocess.run(
        [sys.executable, "-m", "cmeis.cli", *argv, "--v1", "0.01", "--v2", "0.01"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("setup error: imaginary parts too small")


def test_mixed_scan_cap_is_an_exact_count(capsys, monkeypatch):
    # a cap of the run's own count of x admits it byte for byte; one less refuses it
    # before any output, the CSV header included
    argv = ("coeffs", "--d1", "-7", "--d2", "-23", "--trace-max", "3", "--v1", "1", "--v2", "0.9")
    total = sum(map(len, cmeis.cli._mixed_ranges(161, 3, 0.9, 30)))
    want = {fmt: _run(capsys, *argv, "--format", fmt) for fmt in ("json", "csv")}
    monkeypatch.setattr(cmeis.cli, "_MAX_MIXED_SCAN", total)
    for fmt, run in want.items():
        assert run[0] == 0 and run[1]
        assert _run(capsys, *argv, "--format", fmt) == run
    monkeypatch.setattr(cmeis.cli, "_MAX_MIXED_SCAN", total - 1)
    for fmt in want:
        code, out, err = _run(capsys, *argv, "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith("setup error: imaginary parts too small")


# at (-191, -239) one step in x moves the decay exponent by only ~0.05, so the record at
# x = 786 (n = 2^8 * 5^2 * 17, value 0.00139 against the cutoff 0.001) comes after x = 768,
# where n is prime and the divisor-count bound 2 d(n)^2 e^(-4 pi sigma v) is below the cutoff
LATE_RECORD_ARGV = (
    "coeffs", "--d1", "-191", "--d2", "-239", "--trace-max", "2",
    "--v1", "1.7", "--v2", "0.9", "--digits", "1",
)


def _divisor_count_ranges(D, trace_max, v, digits):
    """The scan ranges of the old stop: the first x whose own divisor-count bound is below the cutoff."""
    ranges = []
    for m in range(1, trace_max + 1):
        x = math.isqrt(m * m * D - 1) + 1
        x += (x - m * D) % 2
        start = x
        while True:
            divisors = math.prod(e + 1 for _, e in factor((x * x - m * m * D) // 4))
            sigma = (x / math.sqrt(D) - m) / 2
            if 2 * divisors**2 * math.exp(-4 * math.pi * sigma * v) < 10.0 ** -(digits + 2):
                break
            x += 2
        ranges.append(range(start, x, 2))
    return ranges


def test_mixed_scan_keeps_a_late_record(capsys, monkeypatch):
    def xs_at_trace_2():
        code, out, _ = _run(capsys, *LATE_RECORD_ARGV)
        assert code == 0
        return {r["x"] for r in map(json.loads, out.splitlines()) if r["m"] == 2}

    assert {766, 786} <= xs_at_trace_2()
    # the old stop drops it
    monkeypatch.setattr(cmeis.cli, "_mixed_ranges", _divisor_count_ranges)
    xs = xs_at_trace_2()
    assert 766 in xs and 786 not in xs


# (pair, trace_max, v1, v2, _mixed_term calls or None): every pair of the matrix with
# v1 < v2, v1 > v2 and v1 == v2, a wide v ratio, and an op whose sides part far
SCREEN_CASES = [
    *(
        (pair, 3, v1, v2, None)
        for pair in TEST_MATRIX
        for v1, v2 in ((0.9, 1.1), (1.1, 0.9), (1.0, 1.0))
    ),
    ((-3, -7), 3, 0.3, 2.5, None),
    ((-191, -239), 2, 1.7, 0.9, 2291),  # 3,424 with every term valued
]

# screens that are wrong, each made from the real one and the case's v1, v2
SCREEN_FAULTS = {
    "other-side-v": lambda real, v1, v2: (
        lambda D, m, x, rho, v, digits: real(D, m, x, rho, v2 if x < 0 else v1, digits)
    ),
    "threshold-16x": lambda real, v1, v2: (
        lambda D, m, x, rho, v, digits: real(D, m, x, rho / 16, v, digits)
    ),
}


def _mixed_stream(case, screen):
    """The JSON lines of a case with ``cli._may_clear`` replaced by screen, and its term count."""
    pair, trace_max, v1, v2, _ = case
    real_term, valued, out = cmeis.cli._mixed_term, [], io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cmeis.cli, "_may_clear", screen)
        patch.setattr(
            cmeis.cli, "_mixed_term", lambda *args: valued.append(args) or real_term(*args)
        )
        cmeis.cli._emit_json(coefficient_records(Setup(*pair), trace_max, v1, v2), out)
    return out.getvalue(), len(valued)


def _keep_every_term(*args):
    return True


@pytest.mark.parametrize("case", SCREEN_CASES, ids=lambda case: repr(case[:4]))
def test_mixed_screen_loses_no_record(case):
    # a term skipped by the screen is below half the cutoff: the stream is byte for byte
    # that of a walk that values every term of the scan range with rho != 0
    screened, calls = _mixed_stream(case, cmeis.cli._may_clear)
    assert screened == _mixed_stream(case, _keep_every_term)[0]
    if case[4] is not None:
        assert calls == case[4]


@pytest.mark.parametrize("fault", sorted(SCREEN_FAULTS))
def test_mixed_screen_faults_lose_a_record(fault):
    # each fault makes test_mixed_screen_loses_no_record fail on some case
    def loses(case):
        screen = SCREEN_FAULTS[fault](cmeis.cli._may_clear, case[2], case[3])
        return _mixed_stream(case, screen)[0] != _mixed_stream(case, _keep_every_term)[0]

    assert any(map(loses, SCREEN_CASES))


@pytest.mark.parametrize("pair", [*TEST_MATRIX, (-191, -239)])
def test_mixed_lines_match_the_check_path(pair):
    # over every x of the scan range, m = 1..3: the ideal of the sieve's factors is the
    # principal ideal of (x + m sqrt(D))/2 built prime by prime, and the rho that coeffs
    # reads off the factors is the product of the Whittaker center values at the primes of n
    setup, nonzero = Setup(*pair), 0
    table = cmeis.eisenstein._LocalTable(setup)
    for m, xs in enumerate(cmeis.cli._mixed_ranges(setup.D, 3, 1.0, 30), 1):
        assert len(xs) > 10
        for x, factors in cmeis.field._line_sieve(setup, m, xs):
            gen = FElem.from_triple(x, m, 2)
            ideal = principal_ideal(setup, gen)
            assert cmeis.field._slice_ideal(setup, m, x, factors) == ideal, (pair, m, x)
            centers, norm = 1, gen.a * gen.a - setup.D * gen.b * gen.b
            for p, _ in factor(abs(m * m * setup.D - x * x) // 4):
                for prm in cmeis.field.prime_ideals_above(setup, p):
                    centers *= cmeis.eisenstein._local_sums(setup, gen, prm, padic_val(norm, p))[0]
            rho = cmeis.eisenstein._index_report(table, m, x, factors).rho
            assert rho == norm_ideal_count(setup, ideal) == centers, (pair, m, x)
            nonzero += centers != 0
    assert nonzero


# the fault goes in before cmeis.cli binds the names it imports
_BROKEN_RUN = """
import sys
import cmeis.field
%s
from cmeis.cli import main
sys.exit(main(sys.argv[1:]))
"""

# (fault, argv, message): a line sieve whose factor lists claim a split prime the
# index does not name, past the content of (x + m sqrt(D))/2 = p^t (u + w sqrt(D))/2:
# 37, which splits in Q(sqrt(21)) and divides no n(x) at trace 1, and 5 at trace 5,
# which divides m and not x = 1, so it stays in w; and a resultant with a prime 7
# past the Gross-Zagier bound |d1 d2| / 4 = 5
_INVARIANT_FAULTS = (
    (
        "sieve = cmeis.field._line_sieve\n"
        "cmeis.field._line_sieve = lambda s, m, xs: ((x, fs + [(37, 1)]) for x, fs in sieve(s, m, xs))",
        ["coeffs", "--d1", "-3", "--d2", "-7", "--trace-max", "1"],
        "x is not in exactly one root class of a split prime",
    ),
    (
        "sieve = cmeis.field._line_sieve\n"
        "cmeis.field._line_sieve = lambda s, m, xs: ((x, [(5, 1)] + fs) for x, fs in sieve(s, m, xs))",
        ["degree", "--d1", "-3", "--d2", "-7", "--m", "5"],
        "x is not in exactly one root class of a split prime",
    ),
    (
        "import cmeis.oracle\ncmeis.oracle.resultant = lambda P, Q: -3375 * 7",
        ["singular-moduli", "--d1", "-3", "--d2", "-7"],
        "resultant for (-3, -7) leaves a 3-bit cofactor with no prime factor up to"
        " the Gross-Zagier bound 5",
    ),
)


def test_degree_table_script_smoke():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "degree_table.py"), "--max-trace", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("match: True") == 9
    assert "match: False" not in proc.stdout


def test_violated_invariant_is_exit_1_with_json():
    for fault, argv, message in _INVARIANT_FAULTS:
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _BROKEN_RUN % fault, *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == ['{"invariant":"%s"}' % message]


def test_verify_reports_a_check_that_raises_as_its_fail(monkeypatch, capsys):
    # one more at p = 5 from the assembly's valuation kernel, which raises ValueError under
    # degree-coefficient-identity, and from principal_ideal's element_valuation, which
    # raises InvariantError under trace-slice-invariants; each is that check's FAIL, and
    # the later checks still run
    for module, attr, broken, suite, check, detail in (
        (cmeis.eisenstein, "_place_valuation",
         lambda D, a, b, c, t, prm: _place_valuation(D, a, b, c, t, prm) + (prm.p == 5),
         "eisenstein", "degree-coefficient-identity",
         "ValueError: assembly needs a single obstruction prime"),
        (cmeis.field, "element_valuation",
         lambda setup, beta, prm: element_valuation(setup, beta, prm) + (prm.p == 5),
         "field", "trace-slice-invariants",
         "InvariantError: valuations disagree with the norm"),
    ):
        monkeypatch.setattr(module, attr, broken)
        principal_ideal.cache_clear()
        try:
            code, out, err = _run(capsys, "verify", "--suite", suite)
        finally:
            monkeypatch.undo()
            principal_ideal.cache_clear()
        assert code == 1
        statuses = {line.split()[1]: line.split()[0] for line in out.splitlines()}
        assert list(statuses) == [f"{suite}.{name}" for name in SUITES[suite]]
        assert statuses[f"{suite}.{check}"] == "FAIL"
        line = {"suite": suite, "invariant": check, "detail": detail}
        assert line in [json.loads(text) for text in err.splitlines()]
        assert "Traceback" not in err


def test_degree_command(capsys, monkeypatch):
    code, out, _ = _run(capsys, "degree", "--d1", "-3", "--d2", "-7", "--m", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["deg_T"] == {"3": "2", "5": "2"}
    assert obj["deg_T_float"].startswith("5.41610040220442")
    code, out, _ = _run(capsys, "degree", "--d1", "-3", "--d2", "-4", "--m", "1")
    obj = json.loads(out)
    assert obj["deg_T"] == {"2": "2", "3": "1"}
    assert obj["deg_T_float"].startswith("2.4849066497880")
    # a zero degree: LogLinear's zero float prints as "0"
    monkeypatch.setattr(cmeis.cli, "trace_degree", lambda setup, m: LogLinear())
    code, out, _ = _run(capsys, "degree", "--d1", "-3", "--d2", "-7", "--m", "1")
    assert (code, out) == (0, '{"d1":-3,"d2":-7,"m":1,"deg_T":{},"deg_T_float":"0"}\n')


def test_coeffs_streams_before_a_later_failure(capsys, monkeypatch):
    original = cmeis.cli._line_sieve

    def failing(setup, m, xs):
        if m == 2:
            raise PrecisionError("injected at trace 2")
        return original(setup, m, xs)

    monkeypatch.setattr(cmeis.cli, "_line_sieve", failing)
    code, out, err = _run(capsys, "coeffs", "--d1", "-3", "--d2", "-7", "--trace-max", "2")
    assert code == 3
    assert "injected at trace 2" in err
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["m"], r["x"]) for r in records] == [(1, -3), (1, -1), (1, 1), (1, 3)]


def test_slice_stream_computes_no_later_trace_end_first(monkeypatch):
    # without imaginary parts each trace's end x^2 < m^2 D is taken as that trace
    # comes, so the first record costs one isqrt however large trace_max is
    calls = []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def isqrt(self, n):
            calls.append(n)
            return math.isqrt(n)

    monkeypatch.setattr(cmeis.cli, "math", CountingMath())
    first = next(coefficient_records(Setup(-3, -7), 10**5))
    assert first[:2] == ("1", "-3")
    assert calls == [21 - 1]


def test_non_integer_precision_bits_is_a_setup_error(capsys, monkeypatch):
    monkeypatch.setenv("CMEIS_PRECISION_BITS", "abc")
    code, out, err = _run(capsys, "singular-moduli", "--d1", "-3", "--d2", "-7")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("setup error: CMEIS_PRECISION_BITS")


def test_coeffs_into_a_closed_pipe_is_quiet():
    # like `cmeis coeffs ... | head -1`: the reader leaves after one line
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = ["coeffs", "--d1", "-7", "--d2", "-23", "--trace-max", "20"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "cmeis.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert json.loads(proc.stdout.readline())["m"] == 1
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def _refuse(patch, names, path):
    for name in names:

        def refuse(*args, name=name):
            raise AssertionError(f"{name} on the {path} path")

        for module in (cmeis.cli, cmeis.eisenstein, cmeis.field, cmeis.genus):
            if name in vars(module):
                patch.setattr(module, name, refuse)


def test_slice_path_skips_the_felem_factorization(monkeypatch):
    # coeffs, degree and the closed forms read each index's local data from integers only,
    # and never reach the check paths' valuation kernel; coeffs, with or without the mixed
    # walk, builds no ideal and reads none back
    setup = Setup(-7, -23)
    principal_ideal.cache_clear()
    element_valuation.cache_clear()
    want = list(coefficient_records(setup, 5)), list(coefficient_records(setup, 2, v1=1, v2=1))
    with monkeypatch.context() as patch:
        _refuse(patch, ("_place_valuation",), "production")
        with monkeypatch.context() as coeffs_patch:
            _refuse(coeffs_patch, ("_slice_ideal", "diff_set", "norm_ideal_count"), "coeffs")
            got = list(coefficient_records(setup, 5)), list(coefficient_records(setup, 2, v1=1, v2=1))
        assert got == want
        trace_degree(setup, 5)
        for m in range(1, 6):
            for e in enumerate_trace_slice(setup, m):
                arakelov_degree(setup, m, e.x)
                holomorphic_coefficient(setup, m, e.x)
        mixed_coefficient(setup, 1, -15, 1.0, 1.0, 53)
    assert principal_ideal.cache_info().misses == 0
    assert element_valuation.cache_info().misses == 0


def test_slice_path_factors_no_norm_one_by_one():
    # the half slice's sieve factors every n(x) at trace <= 20, so factor sees none
    setup = Setup(-7, -23)
    factor.cache_clear()
    list(coefficient_records(setup, 20))
    assert factor.cache_info().misses == 0


def test_coeffs_builds_each_report_and_tail_once(capsys, monkeypatch):
    # one report per half-slice index, shared with the mirror at -x; one float (a
    # libmp product of log p) per tail key (P's p, 2 nu, rho) with a prime P; and
    # the two diff texts, at x and at -x, once per obstruction set of the run
    setup = Setup(-7, -23)
    real_report, real_mul, real_diff = (
        cmeis.cli._index_report, cmeis.cli.mpf_mul_int, cmeis.cli._diff_text
    )
    reports, floats, diff_texts = [], [], []

    def counting_report(table, m, x, factors):
        reports.append(real_report(table, m, x, factors))
        return reports[-1]

    monkeypatch.setattr(cmeis.cli, "_index_report", counting_report)
    monkeypatch.setattr(cmeis.cli, "mpf_mul_int", lambda *a: floats.append(a) or real_mul(*a))
    monkeypatch.setattr(cmeis.cli, "_diff_text", lambda d: diff_texts.append(d) or real_diff(d))
    code, out, _ = _run(capsys, "coeffs", "--d1", "-7", "--d2", "-23", "--trace-max", "20")
    assert code == 0
    half = [x for m in range(1, 21) for x, _ in _half_slice(setup, m)]
    assert len(reports) == len(half)
    assert len(out.splitlines()) == 2 * len(half) - half.count(0)
    keys = {(r.reflex.p, r.two_nu, r.rho) for r in reports if r.reflex}
    assert 1 < len(floats) == len(keys) < len(reports)
    diffs = {r.diff for r in reports}
    assert 1 < len(diffs) < len(reports) and len(diff_texts) == 2 * len(diffs)


def test_local_table_looks_each_prime_up_once(monkeypatch):
    # one coefficient_records run keeps every prime it meets in its one table, with no
    # bound: each distinct prime, with and without --v1/--v2, is looked up exactly once
    setup = Setup(-7, -23)
    real_above = cmeis.eisenstein.prime_ideals_above
    looked_up = []
    monkeypatch.setattr(
        cmeis.eisenstein,
        "prime_ideals_above",
        lambda s, q: looked_up.append(q) or real_above(s, q),
    )
    for v, primes in (((), 1904), ((1.0, 0.9), 2125)):
        looked_up.clear()
        for _ in coefficient_records(setup, 60, *v):
            pass
        assert len(looked_up) == len(set(looked_up)) == primes


def test_mixed_scan_factors_each_pair_once(monkeypatch):
    # the ideal at -x is the conjugate of the one at x: one sieve call per trace factors
    # each x >= 0 of the line once, slice and scan range, and one report reads rho off
    # its factors; factor sees only a composite rest above 997^2, and a term is valued
    # at most once per side, only for a mixed pair with rho != 0 that passes the screen
    setup = Setup(-7, -23)
    real_report, real_term, real_factor = (
        cmeis.cli._index_report, cmeis.cli._mixed_term, cmeis.field.factor
    )
    factored, reports, valued, rests = [], {}, [], []

    def report(t, m, x, factors):
        factored.append((m, x))
        result = reports[m, x] = real_report(t, m, x, factors)
        return result

    monkeypatch.setattr(cmeis.cli, "_index_report", report)
    monkeypatch.setattr(
        cmeis.cli,
        "_mixed_term",
        lambda D, m, x, *rest: valued.append((m, x)) or real_term(D, m, x, *rest),
    )
    monkeypatch.setattr(cmeis.field, "factor", lambda n: rests.append(n) or real_factor(n))
    scans = cmeis.cli._mixed_ranges(setup.D, 3, 0.9, 30)
    line = [
        (m, x)
        for m, xs in enumerate(scans, 1)
        for x in range(m * m * setup.D % 2, xs.stop, 2)
    ]
    records = list(coefficient_records(setup, 3, 1.0, 0.9))
    assert factored == line
    mixed = {(m, x) for m, x in line if x * x > m * m * setup.D}
    assert all((m, abs(x)) in mixed and reports[m, abs(x)].rho for m, x in valued)
    # the screen skips 41 of the 288 terms that the scan range holds with rho != 0
    assert len(set(valued)) == len(valued) == 247
    assert any(int(r[1]) ** 2 > int(r[0]) ** 2 * setup.D for r in records)
    # with v1 == v2 the term at -x serves x too: it reads only |x| and its v, so the
    # terms valued at -x with v = 0.9 are the mirrors of those valued at x with v2 = 0.9
    positive = [(m, -x) for m, x in valued if x > 0]
    valued.clear()
    for _ in coefficient_records(setup, 3, 0.9, 0.9):
        pass
    assert positive and valued == positive
    # one index whose rest is composite and above 997^2: n = (2600^2 - 4*161)/4 = 1163*1453
    assert list(cmeis.field._line_sieve(setup, 2, range(2600, 2602, 2))) == [
        (2600, [(1163, 1), (1453, 1)])
    ]
    # the constant term's discriminant checks factor d1 and d2; the sieve's rests are > 0
    rests = [n for n in rests if n > 0]
    assert rests and all(n > 997**2 and not is_prime(n) for n in rests)


def test_coeffs_sieves_each_trace_once(monkeypatch):
    # one _line_sieve call per trace line, with and without the mixed-signature scan
    setup, real_sieve, calls = Setup(-7, -23), cmeis.cli._line_sieve, []
    monkeypatch.setattr(
        cmeis.cli, "_line_sieve", lambda s, m, xs: calls.append(m) or real_sieve(s, m, xs)
    )
    for trace_max, v in ((3, (1.0, 0.9)), (20, ())):
        calls.clear()
        for _ in coefficient_records(setup, trace_max, *v):
            pass
        assert calls == list(range(1, trace_max + 1))


def test_production_path_reads_no_hensel_lift(monkeypatch):
    # coeffs, its mixed walk and degree factor each split prime by the content
    # rule alone: the Hensel-lift valuation belongs to the check paths
    setup = Setup(-7, -23)

    def run():
        return (
            list(coefficient_records(setup, 20)),
            list(coefficient_records(setup, 3, v1=0.9, v2=1.1)),
            trace_degree(setup, 2),
        )

    want = run()
    assert (len(want[0]), len(want[1])) == (2664, 312)

    def lift(*args):
        raise AssertionError("_split_valuation on the production path")

    monkeypatch.setattr(cmeis.field, "_split_valuation", lift)
    assert run() == want
    # nor a root of D, but for the sieve's class table: odd p <= 997, mod p
    root = cmeis.field.sqrt_mod_prime_power

    def table_root(D, p, k):
        if k > 1 or p > 997:
            raise AssertionError(f"sqrt_mod_prime_power({D}, {p}, {k}) on the production path")
        return root(D, p, k)

    monkeypatch.setattr(cmeis.field, "sqrt_mod_prime_power", table_root)
    assert run() == want


def test_missing_imaginary_part_is_a_value_error():
    setup = Setup(-3, -7)
    with pytest.raises(ValueError, match="must be positive"):
        cmeis.eisenstein.constant_term(setup, 1, None, 128)
    with pytest.raises(ValueError, match="must be positive"):
        cmeis.eisenstein.mixed_coefficient(setup, 1, 9, None, 1, 53)
    with pytest.raises(ValueError, match="given together"):
        list(coefficient_records(setup, 1, v1=1.0))


def test_singular_moduli_command(capsys):
    code, out, _ = _run(capsys, "singular-moduli", "--d1", "-3", "--d2", "-7")
    assert code == 0
    obj = json.loads(out)
    assert obj["resultant_abs"] == "3375"
    assert obj["resultant_factorization"] == {"3": "3", "5": "3"}
    assert obj["degree_side"] == obj["resultant_side"] == {"3": "2", "5": "2"}
    assert obj["pass"] is True


def _patch_singular_moduli_report(monkeypatch, **changes):
    original = cmeis.cli.singular_moduli_check

    def patched(setup):
        return dataclasses.replace(original(setup), **changes)

    monkeypatch.setattr(cmeis.cli, "singular_moduli_check", patched)


def test_singular_moduli_mismatch_is_exit_1(capsys, monkeypatch):
    _patch_singular_moduli_report(monkeypatch, degree_side=LogLinear({3: 2}), ok=False)
    code, out, _ = _run(capsys, "singular-moduli", "--d1", "-3", "--d2", "-7")
    assert code == 1
    obj = json.loads(out)
    assert obj["pass"] is False
    assert obj["degree_side"] != obj["resultant_side"]


def test_singular_moduli_prints_long_resultant(capsys, monkeypatch):
    _patch_singular_moduli_report(monkeypatch, resultant_abs=10**5000)
    limit = sys.get_int_max_str_digits()
    code, out, _ = _run(capsys, "singular-moduli", "--d1", "-3", "--d2", "-7")
    assert code == 0
    assert json.loads(out)["resultant_abs"] == "1" + "0" * 5000
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("suite", SUITES)
def test_verify_suite_passes(capsys, suite):
    # every check holds on correct code; test_verify_check_can_fail shows each can fail
    code, out, err = _run(capsys, "verify", "--suite", suite, "--seed", "0")
    assert (code, err) == (0, "")
    assert out.splitlines() == [f"ok {suite}.{name}" for name in SUITES[suite]]
    if suite == "eisenstein":
        # the benchmark's verify ops, one per seed, each expect these bytes: the suite
        # draws nothing from its seed, so a renamed or reordered check fails them all
        ops = json.loads((ROOT / "perfbench" / "expected.json").read_text())["workload_ops"]
        prefix = "verify --suite eisenstein --seed "
        recorded = [sha for key, sha in ops.items() if key.startswith(prefix)]
        assert recorded == [hashlib.sha256(out.encode()).hexdigest()] * 8


def test_verify_reports_injected_fault(capsys, monkeypatch):
    # break one exact count (rho of the unit ideal) and expect the named invariant
    # on stderr, with the detail of the count it breaks, not of an exception
    original = cmeis.genus.norm_ideal_count

    def corrupted(setup, ideal):
        value = original(setup, ideal)
        return value if ideal.entries else value + 1

    monkeypatch.setattr(cmeis.genus, "norm_ideal_count", corrupted)
    code, out, err = _run(capsys, "verify", "--suite", "genus", "--seed", "42")
    assert code == 1
    failures = [json.loads(line) for line in err.splitlines()]
    (detail,) = [f["detail"] for f in failures if f["invariant"] == "zeta-convolution"]
    assert detail == "norm-count sum vs convolution at n=1, Setup(d1=-3, d2=-7)"


def test_verify_writes_each_line_as_its_check_ends(monkeypatch):
    # the second check starts after the first one's FAIL line and stderr JSON are written
    out, err, seen = io.StringIO(), io.StringIO(), []
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    monkeypatch.setitem(SUITES, "arith", {
        "first": lambda rng: "first broke",
        "second": lambda rng: seen.append(
            (out.getvalue().count("\n"), err.getvalue().count("\n"))
        ),
    })
    assert main(["verify", "--suite", "arith"]) == 1
    assert seen == [(1, 1)]
    assert out.getvalue() == "FAIL arith.first\nok arith.second\n"
    assert json.loads(err.getvalue()) == {
        "suite": "arith", "invariant": "first", "detail": "first broke"
    }


# a verify run whose second check waits for a line on stdin and whose third reports
# that it ran
_PIPED_VERIFY = """
import sys
import cmeis.verify
cmeis.verify.SUITES["arith"] = {
    "first": lambda rng: None,
    "second": lambda rng: sys.stdin.readline() and None,
    "third": lambda rng: sys.stderr.write("third ran") and None,
}
from cmeis.cli import main
sys.exit(main(["verify", "--suite", "arith"]))
"""


def test_verify_into_a_closed_pipe_ends_at_the_next_line():
    # like `cmeis verify | head -1`: the first line arrives while the second check runs,
    # the reader leaves, and the second check's line ends the run, quietly, with exit 0
    proc = subprocess.Popen(
        [sys.executable, "-c", _PIPED_VERIFY],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    try:
        assert select.select([proc.stdout], [], [], 60)[0], "no line while a check runs"
        assert proc.stdout.readline() == b"ok arith.first\n"
        proc.stdout.close()
        proc.stdin.write(b"\n")
        proc.stdin.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()


# Each sabotaged dependency must make the named check return a failure.
_prime_multiplicity = cmeis.eisenstein.prime_multiplicity
_local_factors = cmeis.eisenstein._local_factors
_hasse_invariant = cmeis.field.hasse_invariant
_hilbert_symbol = cmeis.field.hilbert_symbol
_sqrt_mod_prime_power = cmeis.verify.sqrt_mod_prime_power
_prime_ideals_above = cmeis.verify.prime_ideals_above
_genus_char_prime = cmeis.genus.genus_char_prime
_class_reps = cmeis.oracle.class_reps
_hilbert_class_poly = cmeis.oracle.hilbert_class_poly
_class_number = cmeis.oracle.class_number
_rational_genus_char = cmeis.genus._rational_genus_char


def _loglinear_keeping_zeros(terms):
    out = LogLinear(terms)
    out._terms = dict(sorted((p, Fraction(c)) for p, c in dict(terms).items()))
    return out


FAULTS = {
    "factor-roundtrip": ("arith", cmeis.verify, "factor", lambda n: ()),
    "hilbert-bimultiplicative": (
        "arith", cmeis.verify, "hilbert_symbol",
        lambda a, b, place: _hilbert_symbol(a, b + 1, place),
    ),
    "hilbert-product-formula": (
        "arith", cmeis.verify, "hilbert_symbol",
        lambda a, b, place: _hilbert_symbol(a, b, place) * (-1 if place == 2 else 1),
    ),
    "sqrt-mod-prime-power": (
        "arith", cmeis.verify, "sqrt_mod_prime_power",
        lambda D, p, k: _sqrt_mod_prime_power(D, p, k) + 1,
    ),
    "loglinear-exactness": ("arith", cmeis.verify, "LogLinear", _loglinear_keeping_zeros),
    "splitting-degree-sum": (
        "field", cmeis.verify, "prime_ideals_above",
        lambda setup, p: _prime_ideals_above(setup, p)[:1],
    ),
    "valuation-norm-compatible": (
        "field", cmeis.verify, "element_valuation",
        lambda setup, beta, prm: element_valuation(setup, beta, prm) + 1,
    ),
    "trace-slice-invariants": (
        "field", cmeis.verify, "principal_ideal", lambda setup, gen: FIdealFactored()
    ),
    "support-odd-and-matches": (
        "field", cmeis.field, "hasse_invariant",
        lambda diag, place: _hasse_invariant(diag[:-1], place),
    ),
    "rho-multiplicative": (
        "genus", cmeis.genus, "norm_ideal_count",
        lambda setup, ideal: norm_ideal_count(setup, ideal) + 1,
    ),
    "chi-invariant-under-norms": (
        "genus", cmeis.genus, "genus_char_prime",
        lambda setup, prm: -1 if prm.kind == "split_plus" else _genus_char_prime(setup, prm),
    ),
    # eps flipped at 2 in the product's own sum
    "gross-zagier-trace-1": (
        "genus", cmeis.genus, "_rational_genus_char",
        lambda setup, q: _rational_genus_char(setup, q) * (-1 if q == 2 else 1),
    ),
    "degree-coefficient-identity": (
        "eisenstein", cmeis.eisenstein, "assemble_derivative",
        lambda setup, alpha: LogLinear.zero(),
    ),
    "coherent-ratio": (
        "eisenstein", cmeis.eisenstein, "_local_factors",
        lambda setup, alpha: (lambda p, d, s: (p, d + 1, s))(*_local_factors(setup, alpha)),
    ),
    "trace-degree-two-paths": (
        "eisenstein", cmeis.eisenstein, "prime_multiplicity",
        lambda *args: _prime_multiplicity(*args) + 1,
    ),
    "mixed-coefficient-decay": ("eisenstein", cmeis.eisenstein, "mixed_coefficient", lambda *args: 1),
    "constant-term-scaling": (
        "eisenstein", cmeis.eisenstein, "constant_term", lambda setup, v1, v2, precision: v1
    ),
    "class-count-brute-force": ("oracle", cmeis.oracle, "class_reps", lambda d: _class_reps(d)[1:]),
    "class-poly-certificate": (
        "oracle", cmeis.oracle, "hilbert_class_poly",
        lambda d, precision: [c + (i == 0) for i, c in enumerate(_hilbert_class_poly(d, precision))],
    ),
    "e1-quadrature": ("oracle", cmeis.oracle, "e1", lambda x, precision: 0),
    "l-value-class-number": ("oracle", cmeis.oracle, "class_number", lambda d: _class_number(d) + 1),
}
# the text each failure's detail must contain: the violated invariant
FAULT_DETAILS = {
    "factor-roundtrip": "factor round-trip failed",
    "hilbert-bimultiplicative": "bimultiplicativity failed",
    "hilbert-product-formula": "product formula failed",
    "sqrt-mod-prime-power": "sqrt failed",
    "loglinear-exactness": "equality vs 128-bit floats disagree",
    "splitting-degree-sum": "sum e*f != 2",
    "valuation-norm-compatible": "valuations vs norm failed",
    "trace-slice-invariants": "slice invariants failed",
    "rho-multiplicative": "rho not multiplicative",
    "chi-invariant-under-norms": "chi changed by split norm ideal",
    "gross-zagier-trace-1": "trace-1 product disagrees with the trace-1 degree for Setup(d1=-4, d2=-7)",
    "trace-degree-two-paths": "multiplicity sums",
    "support-odd-and-matches": "support vs obstruction prime mismatch",
    "degree-coefficient-identity": "4*degree != coefficient",
    "coherent-ratio": "coherent ratio failed",
    "mixed-coefficient-decay": "not decreasing",
    "constant-term-scaling": "constant-term scaling off",
    "class-count-brute-force": "class count mismatch",
    "class-poly-certificate": "class poly residual too big",
    "e1-quadrature": "e1 vs quadrature",
    "l-value-class-number": "exact L(0) != 2h/w",
}


@pytest.mark.parametrize("check", FAULTS)
def test_verify_check_can_fail(monkeypatch, capsys, check):
    suite, module, attr, broken = FAULTS[check]
    monkeypatch.setattr(module, attr, broken)
    detail = SUITES[suite][check](random.Random(0))
    assert detail
    assert FAULT_DETAILS[check] in detail
    # through the CLI, with the suite cut to the broken check: its FAIL line and JSON
    monkeypatch.setitem(SUITES, suite, {check: SUITES[suite][check]})
    code, out, err = _run(capsys, "verify", "--suite", suite)
    assert (code, out) == (1, f"FAIL {suite}.{check}\n")
    (failure,) = [json.loads(line) for line in err.splitlines()]
    assert (failure["suite"], failure["invariant"]) == (suite, check) and failure["detail"]


def test_every_verify_check_has_a_fault():
    # zeta-convolution's fault is test_verify_reports_injected_fault
    assert set(FAULTS) | {"zeta-convolution"} == {name for checks in SUITES.values() for name in checks}


def test_factor_roundtrip_checks_order_and_exponents(monkeypatch):
    # the right product of primes, but out of order or with an exponent 0 pair: the
    # callers read factor's pairs as sorted (p, e) with e >= 1, so the check must fail
    check = SUITES["arith"]["factor-roundtrip"]
    reversed_pairs = lambda n: factor(n)[::-1]
    zero_at_2 = lambda n: ((2, 0),) + factor(n) if n % 2 else factor(n)
    for broken in (reversed_pairs, zero_at_2):
        monkeypatch.setattr(cmeis.verify, "factor", broken)
        assert "factor round-trip failed" in check(random.Random(0))


# Faults in the local rule of rho, in chi and in the index ideal: each (name, broken)
# pair is patched in every module that holds the name, and each listed check must fail
# (a raise counts).  The rule of rho has two production copies, on ideals and on the
# sieve's integers, so its fault goes into both.
_norm_ideal_count = cmeis.genus.norm_ideal_count
_principal_ideal = cmeis.field.principal_ideal
_index_report = cmeis.eisenstein._index_report


def _rho_plus_one_at_5(table, m, x, factors):
    report = _index_report(table, m, x, factors)
    return dataclasses.replace(report, rho=report.rho + any(q == 5 for q, _ in factors))


LOCAL_RULE_FAULTS = {
    "rho-plus-one-at-5": (
        (
            ("norm_ideal_count",
             lambda setup, ideal: _norm_ideal_count(setup, ideal) + (5 in ideal.rational_primes())),
            ("_index_report", _rho_plus_one_at_5),
        ),
        ("zeta-convolution", "rho-multiplicative", "degree-coefficient-identity",
         "trace-degree-two-paths", "coherent-ratio"),
    ),
    "chi-negated-at-11": (
        (("genus_char_prime",
          lambda setup, prm: _genus_char_prime(setup, prm) * (-1 if prm.p == 11 else 1)),),
        ("zeta-convolution", "degree-coefficient-identity", "trace-degree-two-paths"),
    ),
    "ideal-conjugated-at-5": (
        (("principal_ideal",
          lambda setup, gen: FIdealFactored.from_pairs(
              (prm.conjugate() if prm.p == 5 else prm, e)
              for prm, e in _principal_ideal(setup, gen).entries
          )),),
        ("trace-slice-invariants", "coherent-ratio"),
    ),
}


@pytest.mark.parametrize("fault", LOCAL_RULE_FAULTS)
def test_local_rule_faults_fail_their_checks(monkeypatch, fault):
    patches, names = LOCAL_RULE_FAULTS[fault]
    modules = (cmeis.cli, cmeis.eisenstein, cmeis.exact, cmeis.field, cmeis.genus,
               cmeis.oracle, cmeis.verify)
    for attr, broken in patches:
        for module in modules:
            if attr in vars(module):
                monkeypatch.setattr(module, attr, broken)
    checks = {name: check for suite in SUITES.values() for name, check in suite.items()}
    for name in names:
        try:
            detail = checks[name](random.Random(0))
        except Exception as exc:  # a check that raises has failed, as in run_suites
            detail = f"{type(exc).__name__}: {exc}"
        assert detail, name


def _mutate_index_report(monkeypatch, old, new):
    # a broken copy of the integer rule: its own source with one edit, run in its module
    source = inspect.getsource(_index_report)
    assert source.count(old) == 1
    namespace = dict(vars(cmeis.eisenstein))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(cmeis.eisenstein, "_index_report", namespace["_index_report"])


# faults in the integer rule alone, each with the first failure of trace-slice-invariants:
# _slice_ideal keeps its own copy of the rule, so only the report's comparison with the
# Hensel-lifted principal ideal sees them.  With t forced to 0 the whole of e goes to one
# side; at (-3,-7), m = 5, x = -15 the quotient (-3 + sqrt(21))/2 lies in neither prime
# above 5, and the rule's own root-class check raises (a raise fails a check).
INTEGER_RULE_FAULTS = {
    "t-forced-to-0": (
        ("u, w, t = u // q, w // q, t + 1", "u, w, t = u // q, w // q, 0"),
        "InvariantError: x is not in exactly one root class of a split prime",
    ),
    "split-side-swapped": (
        ("if 2 * s > r:", "if 2 * s < r:"),
        "slice report disagrees with the principal ideal at x=-1, m=1, Setup(d1=-3, d2=-7)",
    ),
    "eps-flipped-at-5": (
        None,
        "slice report disagrees with the principal ideal at x=-1, m=1, Setup(d1=-3, d2=-7)",
    ),
}


@pytest.mark.parametrize("fault", INTEGER_RULE_FAULTS)
def test_integer_rule_faults_fail_the_slice_check(monkeypatch, fault):
    edit, want = INTEGER_RULE_FAULTS[fault]
    if edit is None:
        # chi as the report's table reads it (the rule's own eps), and nowhere else
        monkeypatch.setattr(
            cmeis.eisenstein, "genus_char_prime",
            lambda setup, prm: _genus_char_prime(setup, prm) * (-1 if prm.p == 5 else 1),
        )
    else:
        _mutate_index_report(monkeypatch, *edit)
    try:
        detail = SUITES["field"]["trace-slice-invariants"](random.Random(0))
    except InvariantError as exc:
        detail = f"InvariantError: {exc}"
    assert detail == want


def test_gross_zagier_check_reads_the_sieve_integers(monkeypatch, capsys):
    # one exponent + 2 in the (q, e) pairs of one index at trace 1, which both of
    # trace_degree's paths read: only the product, which factors n itself, sees it
    # ((-3,-7), x = 3: n = 3, the ramified 3 with eps = -1, so 2 nu goes from 2 to 4)
    real_sieve = cmeis.field._line_sieve

    def bumped(setup, m, xs):
        out = list(real_sieve(setup, m, xs))
        if m == 1:
            x, ((q, e), *rest) = out[-1]
            out[-1] = (x, [(q, e + 2), *rest])
        return iter(out)

    check = SUITES["genus"]["gross-zagier-trace-1"]
    with monkeypatch.context() as patch:
        patch.setattr(cmeis.field, "_line_sieve", bumped)
        assert check(random.Random(0)) == (
            "trace-1 product disagrees with the trace-1 degree for Setup(d1=-3, d2=-7)"
        )
    # the exponent at P + 2 in the integer rule's report alone: trace_degree's multiplicity
    # path disagrees, and the check fails through the command line too
    _fault_at_trace(monkeypatch, 1, _bump_obstruction_exponent)
    code, out, err = _run(capsys, "verify", "--suite", "genus")
    assert code == 1 and "FAIL genus.gross-zagier-trace-1" in out.splitlines()
    assert "slice decomposition disagrees with multiplicity sums" in err


def test_class_poly_certificate_ignores_the_precision_override(monkeypatch):
    # the override moves where singular_moduli_check starts, not the check's precision
    monkeypatch.setenv("CMEIS_PRECISION_BITS", "64")
    check = SUITES["oracle"]["class-poly-certificate"]
    assert check(random.Random(0)) is None
    monkeypatch.setattr(cmeis.oracle, "hilbert_class_poly", FAULTS["class-poly-certificate"][3])
    assert "class poly residual too big at d=-3" in check(random.Random(0))


def _bump_obstruction_exponent(report):
    # the exponent at P two higher: 2 nu = ord_P + 1 with it
    return dataclasses.replace(report, two_nu=report.two_nu + 2)


def _conjugate_report(report):
    # split_plus and split_minus swapped at P
    prm = report.reflex.conjugate()
    return dataclasses.replace(report, diff=(prm,), reflex=prm)


def _fault_at_trace(monkeypatch, trace, fault):
    def faulty(table, m, x, factors):
        report = _index_report(table, m, x, factors)
        return fault(report) if m == trace and report.reflex else report

    monkeypatch.setattr(cmeis.eisenstein, "_index_report", faulty)


def test_degree_identity_reads_the_slice_factorization(monkeypatch, capsys):
    # one exponent off in the report coeffs prints, read off the slice's factors, at trace 13 only
    _fault_at_trace(monkeypatch, 13, _bump_obstruction_exponent)
    detail = SUITES["eisenstein"]["degree-coefficient-identity"](random.Random(0))
    assert detail and "4*degree != coefficient" in detail and "m=13" in detail
    # the closed form of coherent-ratio reads the same report: one exponent off,
    # or split_plus and split_minus swapped, at trace 3 only
    where = "coherent ratio failed at x=-13, m=3, Setup(d1=-3, d2=-7)"
    line = json.dumps(
        {"suite": "eisenstein", "invariant": "coherent-ratio", "detail": where},
        separators=(",", ":"),
    )
    for fault in (_bump_obstruction_exponent, _conjugate_report):
        _fault_at_trace(monkeypatch, 3, fault)
        assert SUITES["eisenstein"]["coherent-ratio"](random.Random(0)) == where
        code, out, err = _run(capsys, "verify", "--suite", "eisenstein")
        assert code == 1 and "FAIL eisenstein.coherent-ratio" in out.splitlines()
        assert line in err.splitlines() and "Traceback" not in err


def test_support_check_catches_a_broken_product_formula(monkeypatch):
    # each failure names x, m and the setup
    check = SUITES["field"]["support-odd-and-matches"]
    with monkeypatch.context() as patch:
        patch.setattr(*FAULTS["support-odd-and-matches"][1:])
        assert check(random.Random(0)) == (
            "support vs obstruction prime mismatch at x=-1, m=1, Setup(d1=-3, d2=-7)"
        )
    # a wrong sign at OO leaves the finite support alone; only the product shows it
    monkeypatch.setattr(
        cmeis.field, "hilbert_symbol",
        lambda a, b, place: 1 if place == OO else _hilbert_symbol(a, b, place),
    )
    assert check(random.Random(0)) == (
        "invariant product formula failed at x=-3, m=1, Setup(d1=-3, d2=-7)"
    )


def _split_index_report(table, m, x, factors):
    # a single-prime report passed off as one with three obstruction primes
    rep = _index_report(table, m, x, factors)
    return dataclasses.replace(rep, diff=rep.diff * 3) if rep.reflex else rep


def _no_obstruction_report(table, m, x, factors):
    return dataclasses.replace(_index_report(table, m, x, factors), diff=())


# each failure of the identity check, a fault that brings it out, and the first index it names
IDENTITY_FAULTS = {
    "even obstruction set": (cmeis.eisenstein, "_index_report", _no_obstruction_report, "x=-3, m=1"),
    "split index nonzero": (cmeis.eisenstein, "_index_report", _split_index_report, "x=-3, m=1"),
    "4*degree != coefficient": FAULTS["degree-coefficient-identity"][1:] + ("x=-3, m=1",),
    # the support half: one Hasse invariant short, with the per-line memo of signs in place
    "degree support outside obstruction": (
        cmeis.field, "hasse_invariant",
        lambda diag, place: _hasse_invariant(diag[:-1], place), "x=-1, m=1",
    ),
}


@pytest.mark.parametrize("failure", IDENTITY_FAULTS)
def test_identity_failure_names_the_index(monkeypatch, failure):
    module, attr, broken, where = IDENTITY_FAULTS[failure]
    monkeypatch.setattr(module, attr, broken)
    detail = SUITES["eisenstein"]["degree-coefficient-identity"](random.Random(0))
    assert detail == f"{failure} at {where}, Setup(d1=-3, d2=-7)"


def test_identity_check_signs_each_diagonal_once_per_line(monkeypatch):
    # x and -x share a Hasse diagonal: each trace line takes its signs once per |x|
    setup = Setup(-7, -23)
    expected, indices = [], 0
    for m in range(1, 21):
        line = {}
        for e in enumerate_trace_slice(setup, m):
            if len(cmeis.genus.diff_set(setup, _slice_ideal(setup, m, e.x, e.factors))) == 1:
                diag = _invariant_diagonal(setup, e.alpha)
                assert line.setdefault(abs(e.x), diag) == diag
                indices += 1
        expected += line.values()
    calls = []
    real = cmeis.field._diagonal_signs
    monkeypatch.setattr(cmeis.field, "_diagonal_signs", lambda diag: calls.append(diag) or real(diag))
    monkeypatch.setattr(cmeis.verify, "_setups", lambda: [setup])
    assert SUITES["eisenstein"]["degree-coefficient-identity"](random.Random(0)) is None
    assert sorted(calls) == sorted(expected)
    assert 2 * len(calls) < indices + 20
