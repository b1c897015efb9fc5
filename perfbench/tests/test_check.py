"""Fault injection for the benchmark's output checks, and its bookkeeping.

Run with: python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import random
from array import array
from pathlib import Path

import pytest

import run
from check import CheckError, check_output, judge, op_key, sha256
from cmeis.cli import main as cli_main
from spans import Tracer
from speed import REFERENCE_S, SpeedProbe

BENCH = Path(__file__).resolve().parents[1]


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli_main(argv) == 0
    return buf.getvalue()


COEFFS = ["coeffs", "--d1", "-3", "--d2", "-7", "--trace-max", "2"]
COEFFS_CSV = COEFFS + ["--format", "csv"]
SINGULAR = ["singular-moduli", "--d1", "-3", "--d2", "-7"]
VERIFY = ["verify", "--suite", "eisenstein", "--seed", "0"]


def _failed(argv, text, exit_code=0):
    items, error = judge(argv, exit_code, text, sha256(text))
    return error is not None


@pytest.mark.parametrize("argv", [COEFFS, COEFFS_CSV, SINGULAR])
def test_real_output_passes(argv):
    text = _cli(argv)
    items, error = judge(argv, 0, text, sha256(text))
    assert error is None and items >= 1


def test_coefficient_not_four_times_degree_fails():
    lines = _cli(COEFFS).splitlines()
    rec = json.loads(lines[0])
    (p, c), = rec["a_alpha"].items()
    rec["a_alpha"] = {p: str(int(c) + 1)}
    lines[0] = json.dumps(rec, separators=(",", ":"))
    assert _failed(COEFFS, "\n".join(lines) + "\n")


def test_coefficient_not_four_times_degree_fails_in_csv():
    real = _cli(COEFFS_CSV)
    text = real.replace('"{""3"":""4""}"', '"{""3"":""3""}"', 1)
    assert text != real
    assert _failed(COEFFS_CSV, text)


def test_pass_false_fails_despite_exit_code_zero():
    obj = json.loads(_cli(SINGULAR))
    obj["pass"] = False
    assert _failed(SINGULAR, json.dumps(obj) + "\n", exit_code=0)


def test_unequal_sides_fail_even_when_pass_is_true():
    obj = json.loads(_cli(SINGULAR))
    obj["degree_side"] = {"3": "2", "5": "1"}
    assert _failed(SINGULAR, json.dumps(obj) + "\n")


def test_verify_fail_line_fails():
    text = "ok eisenstein.degree-coefficient-identity\nFAIL eisenstein.trace-degree-two-paths\n"
    assert _failed(VERIFY, text)
    assert not _failed(VERIFY, text.replace("FAIL", "ok"))


def test_hash_mismatch_and_exit_code_fail():
    text = _cli(COEFFS)
    assert judge(COEFFS, 0, text, sha256(text + " "))[1] is not None
    assert judge(COEFFS, 0, text, None)[1] is not None
    assert judge(COEFFS, 1, text, sha256(text))[1] is not None


def test_unknown_command_is_rejected():
    with pytest.raises(CheckError):
        check_output(["bogus"], "x\n")


def test_failed_op_counts_in_pass_ratio():
    times = {"seconds": 1.0, "first_output_s": 0.5, "ref_seconds": 1.0, "ref_first_output_s": 0.5}
    ok = {**times, "items": 10, "error": None}
    bad = {**times, "items": 0, "error": "pass = False"}
    child = {"setup_s": 0.1, "ref_setup_s": 0.1, "ops": [ok, bad], "peak_rss_mb": 20.0}
    crashed = {"ops": [["verify"]], "report": None, "error": "exit code 1"}
    metrics = run.end_to_end_metrics([[{"ops": [], "report": child}, crashed]])
    assert metrics["pass_ratio"] == pytest.approx(1 / 3)
    assert metrics["items_per_s"] == 5.0


def test_every_drawable_op_has_an_expected_hash():
    table = json.loads((BENCH / "expected.json").read_text())
    known = table["fingerprint"].keys() | table["workload_ops"].keys()
    for seed in range(64):
        for make in run.WORKLOADS.values():
            for argv in make(random.Random(seed)):
                assert op_key(argv) in known
    assert {op_key(a) for a in run.fingerprint_ops()} == table["fingerprint"].keys()


def test_benchmark_json_names_the_metrics_and_workloads():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.names = ["outer", "inner"]
    tracer.name = array("i", [0, 1, 1])
    tracer.parent = array("l", [-1, 0, 0])
    tracer.op = array("i", [0, 0, 0])
    tracer.start = array("d", [0.0, 1.0, 3.0])
    tracer.end = array("d", [10.0, 2.0, 5.0])
    layers = tracer.layer_times()
    assert layers["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 7.0}
    assert layers["inner"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}


def test_malformed_output_is_a_failed_op_not_a_crash():
    assert _failed(COEFFS, '{"m": "one"}\n')
    assert _failed(COEFFS_CSV, ",".join(["m"] * 9) + "\n")
    assert _failed(SINGULAR, "[]\n")


def test_reference_seconds_scale_with_probe_speed():
    probe = SpeedProbe()
    probe.at = [0.0, 1.0, 2.0, 3.0]
    probe.took = [REFERENCE_S, REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S]
    # half the interval at reference speed, half at half speed; probe time removed
    expected = (2.0 - 3 * REFERENCE_S) * 0.75
    assert probe.reference_seconds(1.0, 3.0) == pytest.approx(expected)
    # an interval holding no probe uses the probes before it
    assert probe.reference_seconds(3.5, 4.0) == pytest.approx(0.5 * 0.75)
