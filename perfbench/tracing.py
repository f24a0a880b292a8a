"""Spans and counters recorded at ghzsim's public bindings, for the traced run.

Each public function is wrapped where its caller looks it up: `ghzsim.cli`
imports with `from .x import y`, so the cli names are patched there, while
`scattering` and `circuit` look up `reflection_coeffs` as a module global and
both modules call `numpy.polynomial.hermite.hermgauss` as an attribute.
Private helpers are not wrapped; they may be renamed or removed.

A span is (name, start, end, parent, op id). Self time is a span's duration
minus the part of it covered by its children. Spans opened by a worker thread
with no open span of its own take the op's innermost main-thread span as
parent.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import threading
import time
from collections import defaultdict

# (module, attribute, span name); a metric whose bindings are absent is missing
BINDINGS = (
    ("numpy.polynomial.hermite", "hermgauss", "scattering.hermgauss"),
    ("ghzsim.scattering", "reflection_coeffs", "scattering.reflection_coeffs"),
    ("ghzsim.circuit", "reflection_coeffs", "scattering.reflection_coeffs"),
    ("ghzsim.cli", "average_efficiency", "scattering.average_efficiency"),
    ("ghzsim.cli", "run_analyzer", "circuit.run_analyzer"),
    ("ghzsim.cli", "classification_distribution", "circuit.classify"),
    ("ghzsim.cli", "classify", "circuit.classify"),
    ("ghzsim.cli", "conclusive_probability", "circuit.classify"),
    ("ghzsim.cli", "make_network", "network.make_network"),
    ("ghzsim.cli", "feed_photon", "network.feed_photon"),
    ("ghzsim.cli", "bell_swap", "network.swap"),
    ("ghzsim.cli", "ghz_swap", "network.swap"),
    ("ghzsim.cli", "ghz_state", "states"),
    ("ghzsim.cli", "bell_state", "states"),
    ("ghzsim.cli", "fidelity", "states"),
    ("ghzsim.cli", "main", "cli.main"),
)

LAYERS = {
    "scattering": ("scattering.hermgauss", "scattering.reflection_coeffs",
                   "scattering.average_efficiency"),
    "circuit": ("circuit.run_analyzer", "circuit.classify"),
    "network": ("network.make_network", "network.feed_photon", "network.swap"),
}

_SCAT, _CIRC, _NET = LAYERS["scattering"], LAYERS["circuit"], LAYERS["network"]
# per-layer metric -> (unit, what it needs: span names whose bindings must
# exist, "count:<attr>" for counters read off a binding's arguments or result);
# every value is per pass of the workload's op list
METRICS = {
    "scattering.hermgauss.calls": ("count", ("scattering.hermgauss",)),
    "scattering.hermgauss.nodes": ("count", ("scattering.hermgauss", "count:hermgauss")),
    "scattering.hermgauss.self_ms": ("ms", ("scattering.hermgauss",)),
    "scattering.reflection_coeffs.calls": ("count", ("scattering.reflection_coeffs",)),
    "scattering.reflection_coeffs.omegas": ("count", ("scattering.reflection_coeffs",
                                                      "count:reflection_coeffs")),
    "scattering.reflection_coeffs.self_ms": ("ms", ("scattering.reflection_coeffs",)),
    "scattering.average_efficiency.calls": ("count", ("scattering.average_efficiency",)),
    "scattering.average_efficiency.self_ms": ("ms", ("scattering.average_efficiency",)),
    "scattering.self_ms": ("ms", _SCAT),
    "circuit.run_analyzer.calls": ("count", ("circuit.run_analyzer",)),
    "circuit.run_analyzer.self_ms": ("ms", ("circuit.run_analyzer",)),
    "circuit.live_branches": ("count", ("circuit.run_analyzer",)),
    "circuit.branch_mb": ("MB", ("circuit.run_analyzer",)),
    "circuit.records": ("count", ("circuit.run_analyzer", "count:run_analyzer")),
    "circuit.conclusive_frac": ("ratio", ("circuit.run_analyzer", "count:run_analyzer")),
    "circuit.classify.self_ms": ("ms", ("circuit.classify",)),
    "circuit.shots": ("count", ("circuit.run_analyzer", "count:run_analyzer")),
    "circuit.mc_shot_us": ("us", ("circuit.run_analyzer", "count:run_analyzer")),
    "circuit.self_ms": ("ms", _CIRC),
    "network.feed_photon.calls": ("count", ("network.feed_photon",)),
    "network.feed_photon.self_ms": ("ms", ("network.feed_photon",)),
    "network.branches": ("count", ("network.swap", "count:bell_swap", "count:ghz_swap")),
    "network.swap.self_ms": ("ms", ("network.swap",)),
    "network.outcomes": ("count", ("network.swap", "count:bell_swap", "count:ghz_swap")),
    "network.self_ms": ("ms", _NET),
    "states.self_ms": ("ms", ("states",)),
    "cli.main.self_ms": ("ms", ("cli.main",)),
    "cli.output_bytes": ("bytes", ("cli.main",)),
    "trace.overhead_frac": ("ratio", ()),
}


class Tracer:
    """Installs wrappers, records spans and counters while `active`."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        self.active = False
        self.op_id = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._patched: list[tuple] = []
        self.last_analyzer_call: tuple | None = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span in BINDINGS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.add(span)
                continue
            setattr(module, attr, self._wrap(original, span, attr))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, span: str, attr: str):
        count = getattr(self, f"_count_{attr}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
            record = [span, time.perf_counter(), 0.0, parent, self.op_id]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            with self._lock:
                self.counts[f"{span}.calls"] += 1
                if count is not None:
                    try:
                        count(args, kwargs, result, record[2] - record[1])
                    except (AttributeError, IndexError, KeyError, TypeError):
                        # the binding's signature or result changed shape
                        self.missing.add(f"count:{attr}")
            return result

        return wrapper

    # -- counters taken at the wrappers (called under the lock) ------------

    def _count_hermgauss(self, args, kwargs, result, duration):
        self.counts["scattering.hermgauss.nodes"] += int(args[0] if args else kwargs["deg"])

    def _count_reflection_coeffs(self, args, kwargs, result, duration):
        omega = args[1] if len(args) > 1 else kwargs["omega"]
        omegas = math.prod(getattr(omega, "shape", ()))  # 1 for a scalar
        self.counts["scattering.reflection_coeffs.omegas"] += omegas

    def _count_run_analyzer(self, args, kwargs, result, duration):
        self.counts["circuit.records"] += len(result)
        self.counts["circuit.conclusive"] += sum(1 for r in result if r.conclusive)
        config = args[1] if len(args) > 1 else kwargs["config"]
        if config.enumeration == "monte-carlo":
            self.counts["circuit.shots"] += kwargs.get("shots", args[2] if len(args) > 2 else 0)
            self.counts["circuit.mc_seconds"] += duration
        self.last_analyzer_call = (args, kwargs)

    def _count_bell_swap(self, args, kwargs, result, duration):
        self.counts["network.branches"] += len(args[0].branches)
        self.counts["network.outcomes"] += len(result)

    _count_ghz_swap = _count_bell_swap

    # -- results ------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list] = defaultdict(list)
    for record in spans:
        if record[3] >= 0:
            children[record[3]].append((record[1], record[2]))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer, passes: int, extra: dict) -> dict:
    """Per-pass per-layer metrics; a value of None marks a missing metric.

    `extra` carries what the benchmark measures outside the wrappers
    (branch counts from final_branches, output bytes, tracing overhead); a
    None there also marks the metric missing.
    """
    self_ms: dict[str, float] = defaultdict(float)
    for record, own in zip(tracer.spans, self_times(tracer.spans)):
        self_ms[record[0]] += own * 1e3
    counts = tracer.counts
    values: dict = {}
    for span in {b[2] for b in BINDINGS}:
        values[f"{span}.calls"] = counts.get(f"{span}.calls", 0.0) / passes
        values[f"{span}.self_ms"] = self_ms.get(span, 0.0) / passes
    for key in ("scattering.hermgauss.nodes", "scattering.reflection_coeffs.omegas",
                "circuit.records", "circuit.shots", "network.branches", "network.outcomes"):
        values[key] = counts.get(key, 0.0) / passes
    records = counts.get("circuit.records", 0.0)
    values["circuit.conclusive_frac"] = (counts.get("circuit.conclusive", 0.0) / records
                                         if records else 0.0)
    shots = counts.get("circuit.shots", 0.0)
    values["circuit.mc_shot_us"] = (counts.get("circuit.mc_seconds", 0.0) / shots * 1e6
                                    if shots else 0.0)
    for layer, spans in LAYERS.items():
        values[f"{layer}.self_ms"] = sum(values[f"{s}.self_ms"] for s in spans)
    values.update(extra)
    out = {}
    for name, (unit, needs) in METRICS.items():
        absent = tracer.missing.intersection(needs) or values.get(name) is None
        out[name] = {"value": None if absent else values[name], "unit": unit}
    return out
