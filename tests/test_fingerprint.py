"""Byte-identical CLI output over the acceptance matrix.

``perfbench/run.py --check-fingerprint`` runs every ``coeffs``, ``degree``
and ``singular-moduli`` op of the behaviour fingerprint in a fresh
interpreter and compares the sha256 of its stdout with the recorded one
in ``perfbench/expected.json``.
"""

import subprocess
import sys
from pathlib import Path

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
