"""Spans around the public functions of each ``cmeis`` layer.

The tracer replaces each listed function, in every ``cmeis`` module that
holds a reference to it, by a wrapper that records one span (name,
start, end, parent span, op) per call.  Spans are kept in flat arrays in
memory and written out once, after the last op.  Nothing in ``cmeis``
itself is changed on disk.
"""

from __future__ import annotations

import gzip
import importlib
import json
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute) of every function a span is recorded around.
TARGETS = (
    ("cmeis.exact", "factor"),
    ("cmeis.exact", "LogLinear.to_float"),
    ("cmeis.field", "enumerate_trace_slice"),
    ("cmeis.field", "principal_ideal"),
    ("cmeis.field", "element_valuation"),
    ("cmeis.field", "support"),
    ("cmeis.genus", "norm_ideal_count"),
    ("cmeis.genus", "genus_char_prime"),
    ("cmeis.genus", "prime_multiplicity"),
    ("cmeis.eisenstein", "arakelov_degree"),
    ("cmeis.eisenstein", "holomorphic_coefficient"),
    ("cmeis.eisenstein", "trace_degree"),
    ("cmeis.eisenstein", "assemble_derivative"),
    ("cmeis.eisenstein", "mixed_coefficient"),
    ("cmeis.eisenstein", "constant_term"),
    ("cmeis.oracle", "e1"),
    ("cmeis.oracle", "lambda_at_zero"),
    ("cmeis.oracle", "j_value"),
    ("cmeis.oracle", "hilbert_class_poly"),
    ("cmeis.oracle", "resultant"),
    ("cmeis.oracle", "singular_moduli_check"),
    ("cmeis.cli", "coefficient_records"),
    # private, wrapped only to count the mixed records it emits
    ("cmeis.cli", "_mixed_records"),
)

MODULES = (
    "cmeis",
    "cmeis.exact",
    "cmeis.field",
    "cmeis.genus",
    "cmeis.eisenstein",
    "cmeis.oracle",
    "cmeis.verify",
    "cmeis.cli",
)

# spans whose arguments or results feed a counter (see Tracer._observe)
OBSERVED = frozenset(
    (
        "field.enumerate_trace_slice",
        "eisenstein.arakelov_degree",
        "cli._mixed_records",
        "oracle.hilbert_class_poly",
        "oracle.resultant",
    )
)

# lru_cache-wrapped targets whose cache_info() gives a hit ratio
CACHED = ("exact.factor", "field.principal_ideal", "field.element_valuation", "genus.genus_char_prime")


def span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('cmeis.')}.{attr}"


class Tracer:
    """Span recorder; ``install`` wraps the targets, ``summary`` aggregates."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("l")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_op = -1
        self.errors: Counter = Counter()
        self.originals: dict[str, object] = {}
        # counters read at the layer boundaries
        self.slice_items = 0
        self.nonzero_degrees = 0
        self.mixed_emitted = 0
        self.class_poly_seen: set[int] = set()
        self.class_poly_repeats = 0
        self.class_poly_bits_ratios: list[float] = []
        self.resultant_bits: list[int] = []

    # -- recording -----------------------------------------------------

    def _observe(self, name, args, result):
        if name == "field.enumerate_trace_slice":
            self.slice_items += len(result)
        elif name == "eisenstein.arakelov_degree":
            self.nonzero_degrees += result.reflex is not None
        elif name == "cli._mixed_records":
            self.mixed_emitted += len(result)
        elif name == "oracle.hilbert_class_poly":
            self.class_poly_bits_ratios.append(
                max(abs(c).bit_length() for c in result) / args[1]
            )
        elif name == "oracle.resultant":
            self.resultant_bits.append(abs(result).bit_length())

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack = self.start, self.end, self.stack
        observed = name in OBSERVED
        class_poly = name == "oracle.hilbert_class_poly"

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            starts.append(0.0)
            ends.append(0.0)
            if class_poly:
                if args[0] in self.class_poly_seen:
                    self.class_poly_repeats += 1
                self.class_poly_seen.add(args[0])
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                ends[i] = perf_counter()
                starts[i] = t0
                stack.pop()
            if observed:
                self._observe(name, args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> None:
        """Wrap every target in every ``cmeis`` module that refers to it."""
        modules = [importlib.import_module(m) for m in MODULES]
        for module_name, attr in TARGETS:
            name = span_name(module_name, attr)
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self.originals[name] = original
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            self.originals[name] = original
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        self._main = self._wrap("cli.main", importlib.import_module("cmeis.cli").main)

    def run_op(self, index: int, argv):
        """Run one op through ``cli.main`` under a root span for op ``index``."""
        self.current_op = index
        return self._main(argv)

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as columns of one gzipped JSON object.

        Times are integer nanoseconds from the first span's start; a span's
        parent and op are indices (-1 for none).
        """
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "op": self.op.tolist(),
                    "start_ns": [round((t - t0) * 1e9) for t in self.start],
                    "end_ns": [round((t - t0) * 1e9) for t in self.end],
                },
                fh,
                separators=(",", ":"),
            )

    def layer_times(self) -> dict:
        """Calls, total seconds and self seconds per span name.

        A span's self time is its duration minus the durations of its
        direct child spans.
        """
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        layers = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            layer = layers[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            layer["calls"] += 1
            layer["total_s"] += dur
            layer["self_s"] += dur - child[i]
        return layers

    def summary(self) -> dict:
        """Per-layer calls, total and self seconds, errors and counters."""
        caches = {}
        for name in CACHED:
            info = self.originals[name].cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses}
        return {
            "spans": len(self.name),
            "layers": self.layer_times(),
            "errors": [[k[0], k[1], v] for k, v in sorted(self.errors.items())],
            "caches": caches,
            "counters": {
                "slice_items": self.slice_items,
                "nonzero_degrees": self.nonzero_degrees,
                "mixed_emitted": self.mixed_emitted,
                "class_poly_repeats": self.class_poly_repeats,
                "class_poly_bits_ratios": self.class_poly_bits_ratios,
                "resultant_bits": self.resultant_bits,
            },
        }
