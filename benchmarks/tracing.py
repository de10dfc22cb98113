"""Span tracing of shardlab's layers, installed from outside the library.

`Tracer.install` replaces every name a shardlab module binds to one of the
traced functions (for example `polyshard_sim.encode_at_node`, which is the
object `lcc.encode_at_node`) by a wrapper that records one span per call:
name, start, end and parent span. `uninstall` puts the originals back, so
untraced measurements run the library exactly as shipped. A traced name
that the library no longer defines is skipped and reports 0 calls.

Spans stay in memory until `write_spans` is called at the end of a run.
"""

from __future__ import annotations

import importlib
import inspect
import json
from time import perf_counter

# Modules whose namespaces are scanned for bindings of traced functions.
MODULES = (
    "field_poly",
    "lcc",
    "decoder",
    "adversary",
    "polyshard_sim",
    "threshold_analysis",
    "cli",
)

# (home module, function name) for every wrapped library function. The span
# name is "<module>.<function>".
FUNCTIONS = (
    ("field_poly", "solve_linear"),
    ("field_poly", "matrix_rank"),
    ("field_poly", "nullspace_basis"),
    ("field_poly", "lagrange_interpolate"),
    ("lcc", "encode_at_node"),
    ("lcc", "build_coded_poly"),
    ("lcc", "compose_verification"),
    ("decoder", "rs_decode"),
    ("decoder", "recover_outputs"),
    ("adversary", "forge_versions"),
    ("adversary", "assign_versions"),
    ("adversary", "corrupt_results"),
    ("polyshard_sim", "propose_blocks"),
    ("threshold_analysis", "proof_params"),
    ("threshold_analysis", "build_system"),
    ("threshold_analysis", "unique_decodability"),
)

# (module, class, method) for wrapped methods.
METHODS = (("polyshard_sim", "Simulation", "chain_divergence"),)

# Counters kept next to the spans; each repeats exactly for a fixed input.
COUNTERS = (
    "elim_cells",
    "D_cells",
    "rs_decode.attempted",
    "rs_decode.recovered",
    "rs_decode.corrected",
    "rs_decode.corrected_adversarial",
)


def _cells(matrix) -> int:
    return getattr(matrix, "nrows", 0) * getattr(matrix, "ncols", 0)


def _count_elimination(tracer, args, result):
    tracer.counters["elim_cells"] += _cells(args[0]) if args else 0


def _count_decode(tracer, args, result):
    counters = tracer.counters
    counters["rs_decode.attempted"] += 1
    if getattr(result, "recovered", False):
        counters["rs_decode.recovered"] += 1
    corrected = getattr(result, "error_positions", frozenset())
    counters["rs_decode.corrected"] += len(corrected)
    counters["rs_decode.corrected_adversarial"] += len(corrected & tracer.adversarial)


def _count_system(tracer, args, result):
    tracer.counters["D_cells"] += _cells(getattr(args[0], "D", None)) if args else 0


HOOKS = {
    "field_poly.solve_linear": _count_elimination,
    "field_poly.matrix_rank": _count_elimination,
    "field_poly.nullspace_basis": _count_elimination,
    "decoder.rs_decode": _count_decode,
    "threshold_analysis.unique_decodability": _count_system,
}


class _Span:
    """Context manager for a span opened by the benchmark's own calls."""

    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer._open(self.name)

    def __exit__(self, *exc):
        self.tracer._close(self.index)


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent, child_s],
    where child_s is the time covered by its direct children."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.adversarial: frozenset[int] = frozenset()
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        for key in self.counters:
            self.counters[key] = 0

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, 0.0])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = perf_counter()
        span = self.spans[index]
        span[2] = end
        self.stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += end - span[1]

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every binding of the traced functions in shardlab's modules."""
        modules = {m: importlib.import_module(f"shardlab.{m}") for m in MODULES}
        for home, fname in FUNCTIONS:
            original = getattr(modules[home], fname, None)
            if original is None:
                continue
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    # a binding may already hold the benchmark's decode
                    # observer, which stays inside the span
                    if callable(value) and inspect.unwrap(value) is original:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, self._wrap(f"{home}.{fname}", value))
        for home, cls_name, method in METHODS:
            cls = getattr(modules[home], cls_name, None)
            original = getattr(cls, method, None) if cls is not None else None
            if original is None:
                continue
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{home}.{method}", original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for name, start, end, _parent, child in self.spans:
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for index, (name, start, end, parent, _child) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": None if parent < 0 else parent,
                }) + "\n")
