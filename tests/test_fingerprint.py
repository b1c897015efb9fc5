"""Byte-identical CLI output over the acceptance matrix.

``perfbench/run.py --check-fingerprint`` runs every ``coeffs``, ``degree``
and ``singular-moduli`` op of the behaviour fingerprint in a fresh
interpreter and compares the sha256 of its stdout with the recorded one
in ``perfbench/expected.json``.  All 81 mixed-signature ops and the
trace-60 op of (-7, -23) are checked here against the same file's ``workload_ops``.
The harness's own tests and its span tracer run here too, so a change that
deletes a name the tracer wraps fails in this suite.
"""

import hashlib
import itertools
import json
import subprocess
import sys
from pathlib import Path

from cmeis.cli import main
from cmeis.verify import TEST_MATRIX

ROOT = Path(__file__).resolve().parent.parent


def test_cli_output_matches_fingerprint():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--check-fingerprint"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "MISMATCH" not in proc.stdout


def test_mixed_signature_output_matches_workload_ops(capsys):
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())["workload_ops"]
    # every pair at every v1, v2 in {0.9, 1, 1.1}: v1 != v2 tells the embeddings apart
    for d1, d2 in TEST_MATRIX:
        for v1, v2 in itertools.product(("0.9", "1", "1.1"), repeat=2):
            argv = ["coeffs", "--d1", str(d1), "--d2", str(d2), "--trace-max", "3"]
            argv += ["--v1", v1, "--v2", v2]
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == expected[" ".join(argv)], argv


def test_trace_60_output_matches_workload_ops(capsys):
    # high traces and the 2-adic splits of D = 161: the Galois mirror at its widest
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())["workload_ops"]
    argv = ["coeffs", "--d1", "-7", "--d2", "-23", "--trace-max", "60"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == expected[" ".join(argv)]


def test_perfbench_self_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench/tests", "-q"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


_TRACED_OP = """
import json, sys
sys.path[:0] = ["perfbench", "src"]
from spans import Tracer
tracer = Tracer()
tracer.install()
code = tracer.run_op(0, %r)
print(json.dumps({"code": code, "summary": tracer.summary()}))
"""
_TRACED_DEGREE = _TRACED_OP % (["degree", "--d1", "-3", "--d2", "-7", "--m", "1"],)


def test_span_tracer_wraps_every_target():
    # install() looks up every TARGETS name, summary() every CACHED lru_cache
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_DEGREE],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert result["summary"]["layers"]["eisenstein.trace_degree"]["calls"] == 1


def test_span_tracer_counts_the_mixed_records():
    # the tracer adds the length of each cli._mixed_records result to mixed_emitted:
    # that is every printed record of mixed signature, x^2 > m^2 D
    argv = ["coeffs", "--d1", "-3", "--d2", "-7", "--trace-max", "2", "--v1", "1", "--v2", "0.9"]
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_OP % (argv,)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *lines, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert result["code"] == 0
    records = [json.loads(line) for line in lines]
    mixed = sum(r["x"] ** 2 > r["m"] ** 2 * 21 for r in records)
    assert 0 < mixed == result["summary"]["counters"]["mixed_emitted"]
