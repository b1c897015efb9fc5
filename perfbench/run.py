#!/usr/bin/env python3
"""Benchmark of the ``cmeis`` command line, end to end and layer by layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload slice --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --check-fingerprint
    python3 perfbench/run.py --record-expected

A run draws its ops (CLI argv lists) from the seed and repeats passes
over them.  A pass runs each op through ``cmeis.cli.main`` in a fresh
interpreter, so every op starts with cold caches, as a one-shot CLI user
does; the ``oracle`` workload runs all its ops in one interpreter per
pass.  Only one interpreter runs at a time.  Times are in reference
seconds: wall time scaled by a speed probe that runs beside each op (see
``speed.py``).  Every op's output is checked and hashed (see
``check.py``); a wrong answer is a failed op.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced one (see ``spans.py``).

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record of the run
(environment, seed, argv lists, timings, hashes) goes to
``.perfbench_out/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import op_key

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
EXPECTED = BENCH / "expected.json"

# The acceptance matrix of discriminant pairs (README, cmeis.verify.TEST_MATRIX).
MATRIX = ((-3, -7), (-3, -4), (-4, -7), (-3, -8), (-7, -8), (-3, -11), (-4, -11), (-8, -11), (-7, -23))
SLICE_TRACE = 20
LONG_SLICE = (-7, -23, 60)
DEGREE_TRACES = range(1, SLICE_TRACE + 1)
DEGREE_OPS = 3
MIXED_TRACE = 3
MIXED_V = ("0.9", "1", "1.1")  # 3 x 3 combinations, one per matrix pair
# Prime discriminants of class numbers 13, 15, 19 (paired with each other)
# and 25, 31 (paired twice with a class-number-1 partner each), so every
# class polynomial is requested more than once in a pass.
ORACLE_TRIANGLE = ((-191, -239), (-239, -311), (-311, -191))
ORACLE_LARGE = (-479, -719)
ORACLE_PARTNERS = (-3, -4, -7, -8, -11)
VERIFY_SEEDS = 8

# The oracle workload runs its pairs in one interpreter, as
# scripts/degree_table.py does, so a per-discriminant memo would show;
# the others start one interpreter per op, as a one-shot CLI user does.
SHARED_INTERPRETER = {"oracle"}
SETUP_SAMPLES_PER_PASS = 8
# A run kills what is still running this long after it started, so it
# always ends within three minutes.
RUN_DEADLINE_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("first_output_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
)

PER_LAYER = (
    ("exact.factor.calls", "count"),
    ("exact.factor.self_s", "s"),
    ("exact.factor.hit_ratio", "ratio"),
    ("exact.LogLinear.to_float.self_s", "s"),
    ("field.enumerate_trace_slice.items", "count"),
    ("field.enumerate_trace_slice.self_s", "s"),
    ("field.principal_ideal.calls", "count"),
    ("field.principal_ideal.self_s", "s"),
    ("field.principal_ideal.hit_ratio", "ratio"),
    ("field.element_valuation.calls", "count"),
    ("field.element_valuation.self_s", "s"),
    ("field.element_valuation.hit_ratio", "ratio"),
    ("field.support.self_s", "s"),
    ("genus.norm_ideal_count.self_s", "s"),
    ("genus.genus_char_prime.hit_ratio", "ratio"),
    ("genus.prime_multiplicity.self_s", "s"),
    ("eisenstein.arakelov_degree.calls", "count"),
    ("eisenstein.arakelov_degree.self_s", "s"),
    ("eisenstein.arakelov_degree.nonzero_ratio", "ratio"),
    ("eisenstein.holomorphic_coefficient.calls_per_degree", "ratio"),
    ("eisenstein.trace_degree.self_s", "s"),
    ("eisenstein.assemble_derivative.self_s", "s"),
    ("eisenstein.mixed_coefficient.calls", "count"),
    ("eisenstein.mixed_coefficient.self_s", "s"),
    ("eisenstein.mixed.emit_ratio", "ratio"),
    ("eisenstein.constant_term.self_s", "s"),
    ("oracle.e1.calls", "count"),
    ("oracle.e1.self_s", "s"),
    ("oracle.lambda_at_zero.self_s", "s"),
    ("oracle.j_value.calls", "count"),
    ("oracle.j_value.self_s", "s"),
    ("oracle.hilbert_class_poly.calls", "count"),
    ("oracle.hilbert_class_poly.self_s", "s"),
    ("oracle.hilbert_class_poly.precision_errors", "count"),
    ("oracle.hilbert_class_poly.repeat_ratio", "ratio"),
    ("oracle.class_poly.bits_ratio", "ratio"),
    ("oracle.resultant.self_s", "s"),
    ("oracle.resultant.bits", "bits"),
    ("cli.coefficient_records.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


# -- workloads ---------------------------------------------------------------


def _coeffs(d1, d2, trace_max, *extra):
    return ["coeffs", "--d1", str(d1), "--d2", str(d2), "--trace-max", str(trace_max), *extra]


def _degree(d1, d2, m):
    return ["degree", "--d1", str(d1), "--d2", str(d2), "--m", str(m)]


def _singular_moduli(d1, d2):
    return ["singular-moduli", "--d1", str(d1), "--d2", str(d2)]


def _verify(seed):
    return ["verify", "--suite", "eisenstein", "--seed", str(seed)]


def slice_ops(rng):
    """The exact production path: every matrix pair at trace 20 (one as CSV),
    (-7, -23) at trace 60, and a few trace degrees; the oracle stays idle."""
    csv_pair = rng.choice(MATRIX)
    ops = [_coeffs(*LONG_SLICE)]
    for pair in MATRIX:
        extra = ("--format", "csv") if pair == csv_pair else ()
        ops.append(_coeffs(*pair, SLICE_TRACE, *extra))
    for _ in range(DEGREE_OPS):
        ops.append(_degree(*rng.choice(MATRIX), rng.choice(DEGREE_TRACES)))
    return ops


def mixed_ops(rng):
    """Every matrix pair at a small trace with seed-drawn imaginary parts:
    the mixed-signature walk, where oracle.e1 dominates.

    Each (v1, v2) combination goes to one pair, so the seed moves the
    imaginary parts without moving the pass's total size much.
    """
    combos = [(v1, v2) for v1 in MIXED_V for v2 in MIXED_V]
    rng.shuffle(combos)
    return [
        _coeffs(*pair, MIXED_TRACE, "--v1", v1, "--v2", v2) for pair, (v1, v2) in zip(MATRIX, combos)
    ]


def oracle_ops(rng):
    """singular-moduli on pairs whose class polynomials recur within the pass.

    The order is fixed: the ops share one interpreter, and the j-series
    caches make an op's cost depend on the ops before it.
    """
    partners = rng.sample(ORACLE_PARTNERS, 2 * len(ORACLE_LARGE))
    ops = [_singular_moduli(*pair) for pair in ORACLE_TRIANGLE]
    for i, d in enumerate(ORACLE_LARGE):
        ops += [_singular_moduli(partners[2 * i], d), _singular_moduli(partners[2 * i + 1], d)]
    return ops


def verify_ops(rng):
    """The disjoint check paths of the eisenstein invariant suite."""
    return [_verify(rng.randrange(VERIFY_SEEDS))]


WORKLOADS = {"slice": slice_ops, "mixed": mixed_ops, "oracle": oracle_ops, "verify": verify_ops}


def fingerprint_ops():
    """The behaviour fingerprint: the acceptance matrix through every output command."""
    ops = []
    for pair in MATRIX:
        ops += [
            _coeffs(*pair, SLICE_TRACE),
            _coeffs(*pair, SLICE_TRACE, "--format", "csv"),
            _degree(*pair, 1),
            _degree(*pair, SLICE_TRACE),
            _singular_moduli(*pair),
        ]
    return ops


def op_space():
    """Every op a workload can draw, for any seed."""
    ops = [_coeffs(*LONG_SLICE)]
    for pair in MATRIX:
        ops += [_coeffs(*pair, SLICE_TRACE), _coeffs(*pair, SLICE_TRACE, "--format", "csv")]
        ops += [_degree(*pair, m) for m in DEGREE_TRACES]
        ops += [
            _coeffs(*pair, MIXED_TRACE, "--v1", v1, "--v2", v2) for v1 in MIXED_V for v2 in MIXED_V
        ]
    ops += [_singular_moduli(*pair) for pair in ORACLE_TRIANGLE]
    ops += [_singular_moduli(s, d) for d in ORACLE_LARGE for s in ORACLE_PARTNERS]
    ops += [_verify(seed) for seed in range(VERIFY_SEEDS)]
    return ops


# -- child interpreters ------------------------------------------------------


def _setup_pair(ops):
    for argv in ops:
        if "--d1" in argv:
            return [int(argv[argv.index("--d1") + 1]), int(argv[argv.index("--d2") + 1])]
    return list(MATRIX[0])


def spawn(ops, *, deadline, trace=False, record=False, spans_path=None):
    """Run ``ops`` in one fresh interpreter; return its report and wall time.

    The interpreter is killed at ``deadline`` (a ``time.monotonic()``
    value).  The report is None when the interpreter crashed, timed out
    or printed no report; ``error`` then says why.
    """
    # Bytecode is cached inside the checkout, so set-up time is that of an
    # installed package, whatever the caller's environment says.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=str(OUT / "pycache"),
    )
    spec = {
        "ops": ops,
        "setup_pair": _setup_pair(ops),
        "trace": trace,
        "record": record,
        "out_dir": str(OUT),
        "spans_path": str(spans_path) if spans_path else None,
    }
    spec["t_spawn"] = t0 = time.monotonic()
    timeout = max(1.0, deadline - t0)
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return {"ops": ops, "report": None, "error": f"killed after {timeout:.0f} s", "stderr": err[-2000:]}
    except BaseException:  # interrupted: leave no interpreter behind
        proc.kill()
        proc.wait()
        raise
    wall = time.monotonic() - t0
    lines = out.splitlines()
    try:
        report = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        report = None
    if report is None:
        return {"ops": ops, "report": None, "error": f"exit code {proc.returncode}", "stderr": err[-2000:]}
    return {"ops": ops, "report": report, "wall_s": wall, "stderr": err[-2000:]}


def _child_ops(result) -> list[dict]:
    """Per-op records of one interpreter; one that crashed fails every op."""
    if result["report"] is None:
        return [
            {"argv": argv, "seconds": 0.0, "first_output_s": None, "ref_seconds": 0.0,
             "ref_first_output_s": None, "items": 0, "error": "interpreter: " + result["error"]}
            for argv in result["ops"]
        ]
    return result["report"]["ops"]


def _pass_ops(children) -> list[dict]:
    return [op for child in children for op in _child_ops(child)]


# -- environment -------------------------------------------------------------


def environment(backend) -> dict:
    sources = sorted((ROOT / "src" / "cmeis").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            git_sha = None
    # src_sha256 names the code where there is no git checkout to ask
    return {
        "python": platform.python_version(),
        "mpmath_backend": backend,
        "nproc": os.cpu_count(),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


# -- metrics -----------------------------------------------------------------


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def end_to_end_metrics(passes, clock="ref_") -> dict:
    """The end-to-end metrics of an untraced run (a list of passes).

    Times are in reference seconds (see ``speed.py``); ``clock=""`` gives
    them in wall seconds instead.  ``items_per_s`` takes each op's median
    time and item count over the passes, so a noisy moment in one pass
    moves it less than a mean would.
    """
    children = [child for children in passes for child in children]
    setup = [child["report"][clock + "setup_s"] for child in children if child["report"]]
    ops_by_pass = [_pass_ops(children) for children in passes]
    items = seconds = 0.0
    for runs in zip(*ops_by_pass):
        items += statistics.median(op["items"] for op in runs)
        seconds += statistics.median(op[clock + "seconds"] for op in runs)
    done = [op for ops in ops_by_pass for op in ops]
    first = [op[clock + "first_output_s"] for op in done if op[clock + "first_output_s"] is not None]
    rss = [
        max(child["report"]["peak_rss_mb"] for child in children if child["report"])
        for children in passes
        if any(child["report"] for child in children)
    ]
    failed = sum(op["error"] is not None for op in done)
    return {
        "setup_s": statistics.median(setup) if setup else 0.0,
        "items_per_s": _ratio(items, seconds),
        "first_output_s": statistics.median(first) if first else 0.0,
        "peak_rss_mb": statistics.median(rss) if rss else 0.0,
        "pass_ratio": 1 - failed / len(done),
    }


def merge_traces(summaries) -> dict:
    """One trace summary from those of several interpreters of a pass."""
    merged = {"layers": {}, "errors": [], "caches": {}, "counters": {}}
    for summary in summaries:
        for name, layer in summary["layers"].items():
            into = merged["layers"].setdefault(name, dict.fromkeys(layer, 0))
            for key, value in layer.items():
                into[key] += value
        merged["errors"] += summary["errors"]
        for name, info in summary["caches"].items():
            into = merged["caches"].setdefault(name, dict.fromkeys(info, 0))
            for key, value in info.items():
                into[key] += value
        for name, value in summary["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, type(value)()) + value
    return merged


def per_layer_metrics(summary, overhead) -> dict:
    layers = summary["layers"]
    counters = summary["counters"]

    def calls(name):
        return layers[name]["calls"] if name in layers else 0

    def self_s(name):
        return layers[name]["self_s"] if name in layers else 0.0

    def hit_ratio(name):
        info = summary["caches"][name]
        return _ratio(info["hits"], info["hits"] + info["misses"])

    precision_errors = sum(
        count
        for name, kind, count in summary["errors"]
        if name == "oracle.hilbert_class_poly" and kind == "PrecisionError"
    )
    bits_ratios = counters["class_poly_bits_ratios"]
    resultant_bits = counters["resultant_bits"]
    values = {
        "exact.factor.calls": calls("exact.factor"),
        "exact.factor.self_s": self_s("exact.factor"),
        "exact.factor.hit_ratio": hit_ratio("exact.factor"),
        "exact.LogLinear.to_float.self_s": self_s("exact.LogLinear.to_float"),
        "field.enumerate_trace_slice.items": counters["slice_items"],
        "field.enumerate_trace_slice.self_s": self_s("field.enumerate_trace_slice"),
        "field.principal_ideal.calls": calls("field.principal_ideal"),
        "field.principal_ideal.self_s": self_s("field.principal_ideal"),
        "field.principal_ideal.hit_ratio": hit_ratio("field.principal_ideal"),
        "field.element_valuation.calls": calls("field.element_valuation"),
        "field.element_valuation.self_s": self_s("field.element_valuation"),
        "field.element_valuation.hit_ratio": hit_ratio("field.element_valuation"),
        "field.support.self_s": self_s("field.support"),
        "genus.norm_ideal_count.self_s": self_s("genus.norm_ideal_count"),
        "genus.genus_char_prime.hit_ratio": hit_ratio("genus.genus_char_prime"),
        "genus.prime_multiplicity.self_s": self_s("genus.prime_multiplicity"),
        "eisenstein.arakelov_degree.calls": calls("eisenstein.arakelov_degree"),
        "eisenstein.arakelov_degree.self_s": self_s("eisenstein.arakelov_degree"),
        "eisenstein.arakelov_degree.nonzero_ratio": _ratio(
            counters["nonzero_degrees"], calls("eisenstein.arakelov_degree")
        ),
        "eisenstein.holomorphic_coefficient.calls_per_degree": _ratio(
            calls("eisenstein.holomorphic_coefficient"), calls("eisenstein.arakelov_degree")
        ),
        "eisenstein.trace_degree.self_s": self_s("eisenstein.trace_degree"),
        "eisenstein.assemble_derivative.self_s": self_s("eisenstein.assemble_derivative"),
        "eisenstein.mixed_coefficient.calls": calls("eisenstein.mixed_coefficient"),
        "eisenstein.mixed_coefficient.self_s": self_s("eisenstein.mixed_coefficient"),
        "eisenstein.mixed.emit_ratio": _ratio(
            counters["mixed_emitted"], calls("eisenstein.mixed_coefficient")
        ),
        "eisenstein.constant_term.self_s": self_s("eisenstein.constant_term"),
        "oracle.e1.calls": calls("oracle.e1"),
        "oracle.e1.self_s": self_s("oracle.e1"),
        "oracle.lambda_at_zero.self_s": self_s("oracle.lambda_at_zero"),
        "oracle.j_value.calls": calls("oracle.j_value"),
        "oracle.j_value.self_s": self_s("oracle.j_value"),
        "oracle.hilbert_class_poly.calls": calls("oracle.hilbert_class_poly"),
        "oracle.hilbert_class_poly.self_s": self_s("oracle.hilbert_class_poly"),
        "oracle.hilbert_class_poly.precision_errors": precision_errors,
        "oracle.hilbert_class_poly.repeat_ratio": _ratio(
            counters["class_poly_repeats"], calls("oracle.hilbert_class_poly")
        ),
        "oracle.class_poly.bits_ratio": statistics.mean(bits_ratios) if bits_ratios else 0.0,
        "oracle.resultant.self_s": self_s("oracle.resultant"),
        "oracle.resultant.bits": statistics.mean(resultant_bits) if resultant_bits else 0,
        "cli.coefficient_records.self_s": self_s("cli.coefficient_records"),
        "trace.overhead_ratio": overhead,
    }
    return values


# -- runs --------------------------------------------------------------------


def _groups(workload, ops) -> list[list]:
    """The ops of one pass, grouped by the interpreter that runs them."""
    return [ops] if workload in SHARED_INTERPRETER else [[op] for op in ops]


def _op_seconds(children) -> float:
    return sum(op["seconds"] for op in _pass_ops(children))


def run_workload(workload, seed, seconds, trace) -> dict:
    """One benchmark run; returns the full record of it."""
    ops = WORKLOADS[workload](random.Random(seed))
    groups = _groups(workload, ops)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "ops": ops,
        "loadavg_start": os.getloadavg(),
    }
    deadline = time.monotonic() + RUN_DEADLINE_S
    spawn([], deadline=deadline)  # untimed: fills the bytecode cache before any timing
    if trace:
        spans = OUT / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        # Each group runs untraced, then traced, so that the two runs of the
        # same ops are as close in time as they can be.
        untraced, traced = [], []
        for i, group in enumerate(groups):
            untraced.append(spawn(group, deadline=deadline))
            spans_path = spans / f"{workload}-seed{seed}-{i}.json.gz"
            traced.append(spawn(group, trace=True, spans_path=spans_path, deadline=deadline))
        passes = [untraced, traced]
        metrics = None
        if all(child["report"] for child in untraced + traced):
            summary = merge_traces(child["report"]["trace"] for child in traced)
            metrics = per_layer_metrics(summary, _op_seconds(traced) / _op_seconds(untraced))
        units = dict(PER_LAYER)
    else:
        # Passes repeat until the next would end after ``seconds``.  Set-up-only
        # interpreters top each pass up to SETUP_SAMPLES_PER_PASS set-up samples.
        passes, durations = [], []
        probes = max(0, SETUP_SAMPLES_PER_PASS - len(groups))
        t_start = time.monotonic()
        while True:
            t0 = time.monotonic()
            passes.append(
                [spawn([], deadline=deadline) for _ in range(probes)]
                + [spawn(group, deadline=deadline) for group in groups]
            )
            durations.append(time.monotonic() - t0)
            if time.monotonic() - t_start + statistics.median(durations) > seconds:
                break
        metrics = end_to_end_metrics(passes)
        record["wall_metrics"] = end_to_end_metrics(passes, clock="")
        units = dict(END_TO_END)
    done = [op for children in passes for op in _pass_ops(children)]
    failed = sum(op["error"] is not None for op in done)
    reports = [child["report"] for children in passes for child in children if child["report"]]
    record.update(
        environment=environment(reports[0]["mpmath_backend"] if reports else None),
        passes=passes,
        attempted=len(done),
        failed=failed,
        correct=failed == 0 and metrics is not None,
        metrics=metrics,
        units=units,
    )
    return record


def _save(record) -> Path:
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = OUT / "results" / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-{stamp}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def _print_summary(record, path) -> None:
    print(
        f"{record['workload']}: seed {record['seed']}, trace {record['trace']}, "
        f"{len(record['passes'])} passes, {record['attempted']} ops, {record['failed']} failed"
    )
    for op in (op for children in record["passes"] for op in _pass_ops(children)):
        if op["error"] is not None:
            print(f"  FAILED {op_key(op['argv'])}: {op['error']}")
    env = record["environment"]
    print(
        f"  python {env['python']}, mpmath backend {env['mpmath_backend']}, nproc {env['nproc']}, "
        f"git {env['git_sha']}, src lines {env['src_lines']}, load {record['loadavg_start']}"
    )
    if record["metrics"]:
        wall = record.get("wall_metrics", {})
        for name, value in record["metrics"].items():
            line = f"  {name:<52} {value:>14.6g} {record['units'][name]}"
            if name in wall and wall[name] != value:
                line += f"   (wall clock: {wall[name]:.6g})"
            print(line)
    print(f"  record: {path.relative_to(ROOT)}")


def _result_line(records, prefix) -> str:
    metrics = {}
    for record in records:
        for name, value in (record["metrics"] or {}).items():
            key = f"{record['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": record["units"][name]}
    return json.dumps(
        {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": metrics,
        }
    )


# -- fingerprint -------------------------------------------------------------


def check_fingerprint() -> int:
    ops = fingerprint_ops()
    result = spawn(ops, deadline=time.monotonic() + 600)
    failures = [op for op in _child_ops(result) if op["error"] is not None]
    for op in failures:
        print(f"MISMATCH {op_key(op['argv'])}: {op['error']}")
    print(f"fingerprint: {len(ops) - len(failures)}/{len(ops)} ops match")
    return 1 if failures else 0


def record_expected() -> int:
    """Rewrite expected.json from the program as it is now (checks still apply)."""
    fingerprint = fingerprint_ops()
    keys = {op_key(argv) for argv in fingerprint}
    ops = fingerprint + [argv for argv in op_space() if op_key(argv) not in keys]
    done = _child_ops(spawn(ops, record=True, deadline=time.monotonic() + 1800))
    bad = [op for op in done if op["error"] is not None]
    for op in bad:
        print(f"FAILED {op_key(op['argv'])}: {op['error']}")
    if bad:
        return 1
    hashes = {op_key(op["argv"]): op["sha256"] for op in done}
    table = {
        "fingerprint": {k: v for k, v in hashes.items() if k in keys},
        "workload_ops": {k: v for k, v in hashes.items() if k not in keys},
    }
    EXPECTED.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(hashes)} hashes to {EXPECTED.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-fingerprint", action="store_true")
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "cmeis" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no cmeis sources under {ROOT / 'src'}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    if args.record_expected:
        return record_expected()
    if args.check_fingerprint:
        return check_fingerprint()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, args.trace)
        _print_summary(record, _save(record))
        records.append(record)
    print(_result_line(records, prefix=args.workload == "all"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
