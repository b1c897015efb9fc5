"""One fresh interpreter of a benchmark run.

Usage (started by run.py, not by hand):
    python3 perfbench/child.py '<json spec>'

The spec names the ops (CLI argv lists), the monotonic time at which the
benchmark started this interpreter, and whether to trace.  The interpreter
imports ``cmeis.cli`` and builds a ``Setup`` (that is the set-up time),
then runs each op through ``cmeis.cli.main`` with stdout sent to a file,
judges the output, and prints one JSON report as its last stdout line.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from check import judge, op_key, sha256
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent


class _FirstLineClock:
    """Text stream that notes when the first complete line is written."""

    def __init__(self, fh):
        self._fh = fh
        self.first_line_at = None

    def write(self, text):
        if self.first_line_at is None and "\n" in text:
            self.first_line_at = time.perf_counter()
        return self._fh.write(text)

    def __getattr__(self, name):
        return getattr(self._fh, name)


def _run_ops(spec, run_op, probe=None) -> list[dict]:
    """Run, time and judge each op; ``probe`` (a SpeedProbe) also gives
    each time in reference seconds."""
    if spec["record"]:
        table = None
    else:
        expected = json.loads((HERE / "expected.json").read_text())
        table = {**expected["fingerprint"], **expected["workload_ops"]}
    out_path = Path(spec["out_dir"]) / "op.out"
    real_stdout = sys.stdout
    reports = []
    for index, argv in enumerate(spec["ops"]):
        error = None
        if probe:
            probe.burst()
        with open(out_path, "w") as fh, probe or contextlib.nullcontext():
            clock = _FirstLineClock(fh)
            sys.stdout = clock
            t0 = time.perf_counter()
            try:
                exit_code = run_op(index, argv)
            except SystemExit as exc:
                exit_code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # an op that raises is a failed op, not a crash
                exit_code = None
                error = f"raised {type(exc).__name__}: {exc}"
                traceback.print_exc()
            finally:
                t1 = time.perf_counter()
                sys.stdout = real_stdout
        first = clock.first_line_at
        text = out_path.read_text()
        # when recording the expected hashes, only the output checks apply
        expected_sha = sha256(text) if table is None else table.get(op_key(argv))
        items, check_error = judge(argv, exit_code, text, expected_sha)
        reports.append(
            {
                "argv": argv,
                "seconds": t1 - t0,
                "first_output_s": None if first is None else first - t0,
                "ref_seconds": probe.reference_seconds(t0, t1) if probe else None,
                "ref_first_output_s": (
                    probe.reference_seconds(t0, first) if probe and first is not None else None
                ),
                "exit_code": exit_code,
                "sha256": sha256(text),
                "items": items,
                "error": error or check_error,
            }
        )
    out_path.unlink()
    return reports


def main() -> None:
    spec = json.loads(sys.argv[1])
    import cmeis.cli
    from cmeis.field import Setup

    Setup(*spec["setup_pair"])
    setup_s = time.monotonic() - spec["t_spawn"]
    # Set-up is too short to sample inside; the speed just after it stands in.
    probe = SpeedProbe()
    probe.burst()
    report = {"setup_s": setup_s, "ref_setup_s": setup_s * probe.recent_speed()}

    import mpmath.libmp

    report["mpmath_backend"] = mpmath.libmp.BACKEND
    report["ops"] = []
    if spec["ops"]:
        if spec["trace"]:
            from spans import Tracer

            # no speed probe here: its snippet would land in the spans' self times
            tracer = Tracer()
            tracer.install()
            report["ops"] = _run_ops(spec, tracer.run_op)
            tracer.write(spec["spans_path"])
            report["trace"] = tracer.summary()
        else:
            report["ops"] = _run_ops(spec, lambda index, argv: cmeis.cli.main(argv), probe)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
