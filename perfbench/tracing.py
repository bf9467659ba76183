"""Per-layer tracing from outside the program.

Each public function in ``TABLE`` is wrapped at the module attribute its
callers look it up by, so no code under ``src/`` changes.  A span wrapper
records (name, start, end, parent span, op id) into flat arrays kept in
memory; a count wrapper only bumps a counter, for functions called once per
element (a span each would cost more than the work).  Self time is a span's
duration minus its children's, so the self times of all spans in an op add
up to the op's root span, which is ``cli.main``.

A table entry whose module or attribute is missing at the measured commit
is reported as absent rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable, Iterable, TextIO

SPAN = "span"
COUNT = "count"

# (layer metric, module under slicekit, attribute looked up by callers, kind)
TABLE: tuple[tuple[str, str, str, str], ...] = (
    ("cli.cmd", "cli", "main", SPAN),
    ("cli.cmd", "cli", "cmd_products", SPAN),
    ("cli.cmd", "cli", "cmd_leader_follower", SPAN),
    ("cli.cmd", "cli", "cmd_certify", SPAN),
    ("cli.writers", "cli", "write_slice_log", SPAN),
    ("cli.writers", "cli", "write_event_log", SPAN),
    ("cli.writers", "cli", "write_certificate", SPAN),
    ("cli.writers", "cli", "write_trajectory_csv", SPAN),
    ("cli.writers", "cli", "write_positions_csv", SPAN),
    ("cli.writers", "slice_engine", "read_slice_log", SPAN),
    ("generators.random_product_sequence", "cli", "random_product_sequence", SPAN),
    ("matrix_core.validate_update", "slice_engine", "validate_update", SPAN),
    ("matrix_core.spectral_radius", "cli", "spectral_radius", SPAN),
    ("slice_engine.push", "slice_engine", "push", SPAN),
    ("slice_engine.push", "ddf_sim", "push", SPAN),
    ("bounds", "slice_engine", "slice_norm_bound", COUNT),
    ("bounds", "certifier", "slice_norm_bound", COUNT),
    ("bounds", "certifier", "log_slice_norm_gap", COUNT),
    ("bounds", "bounds", "slice_norm_gap", COUNT),
    ("certifier.search_case3", "cli", "search_case3", SPAN),
    ("certifier.certify_case3", "certifier", "certify_case3", COUNT),
    ("certifier.case3_length_cap", "certifier", "case3_length_cap", COUNT),
    ("certifier.bound_trace", "certifier", "bound_trace", SPAN),
    ("ddf_sim.run_leader_follower", "cli", "run_leader_follower", SPAN),
    ("ddf_sim.step_motion", "ddf_sim", "step_motion", SPAN),
    ("ddf_sim.build_update", "ddf_sim", "build_update", SPAN),
    ("ddf_sim.neighbors", "ddf_sim", "neighbors", SPAN),
    ("ddf_sim.lf_step", "ddf_sim", "lf_step", SPAN),
)


def _push_outcome(result) -> Iterable[str]:
    _, events = result
    if events[0].kind.value != "skipped":
        yield "slice_engine.push.useful"
    for ev in events:
        if ev.slice is not None:
            yield "slice_engine.slices"


def _certify_case3_outcome(result) -> Iterable[str]:
    if result.certified:
        yield "certifier.certify_case3.useful"


def _build_update_outcome(result) -> Iterable[str]:
    yield f"ddf_sim.updates.{result[1].update_kind.value}"


# Counters derived from a wrapped call's return value.  A return value of
# another shape (a later refactor) is counted as ``<layer>.unparsed``.
OUTCOMES: dict[str, Callable[[object], Iterable[str]]] = {
    "slice_engine.push": _push_outcome,
    "certifier.certify_case3": _certify_case3_outcome,
    "ddf_sim.build_update": _build_update_outcome,
}

UPDATE_KINDS = ("idle", "no_neighbors", "stochastic_update", "sub_stochastic_update")
SPAN_LAYERS = tuple(dict.fromkeys(layer for layer, _, _, kind in TABLE if kind == SPAN))


class Tracer:
    """Spans and counters for the traced ops of one run (single thread)."""

    def __init__(self) -> None:
        self.layer_id = {name: i for i, name in enumerate(SPAN_LAYERS)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter[str] = Counter()
        self.ops = 0
        self._stack = [-1]
        self._installed: list[tuple[object, str, object]] = []
        self.present: list[tuple[str, object, str, str]] = []
        self.absent: list[str] = []
        for layer, module_name, attr, kind in TABLE:
            try:
                module = importlib.import_module(f"slicekit.{module_name}")
                getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"slicekit.{module_name}.{attr}")
                continue
            self.present.append((layer, module, attr, kind))

    # -- recording ---------------------------------------------------------

    def _span(self, layer: str, fn: Callable) -> Callable:
        lid = self.layer_id[layer]
        outcome = OUTCOMES.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.name)
            self.name.append(lid)
            self.parent.append(self._stack[-1])
            self.op.append(self.ops)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if outcome is not None:
                self._count_outcome(layer, outcome, result)
            return result

        return wrapper

    def _counter(self, layer: str, fn: Callable) -> Callable:
        key = f"{layer}.calls"
        outcome = OUTCOMES.get(layer)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if outcome is not None:
                self._count_outcome(layer, outcome, result)
            return result

        return wrapper

    def _count_outcome(self, layer: str, outcome: Callable, result: object) -> None:
        try:
            for key in outcome(result):
                self.counts[key] += 1
        except (AttributeError, IndexError, TypeError, ValueError):
            self.counts[f"{layer}.unparsed"] += 1

    def install(self) -> None:
        """Wrap every present table entry; call before a traced op."""
        for layer, module, attr, kind in self.present:
            original = getattr(module, attr)
            make = self._span if kind == SPAN else self._counter
            setattr(module, attr, make(layer, original))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        """Restore the original functions and close the op."""
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()
        self.ops += 1

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span duration minus the durations of its children, seconds."""
        duration = [e - s for s, e in zip(self.start, self.end)]
        self_time = list(duration)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                self_time[parent] -= duration[idx]
        return self_time

    def root_durations(self) -> list[float]:
        """Duration of each op's root span (``cli.main``), in op order."""
        return [e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0]

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-op means of every per-layer metric, as (value, unit)."""
        ops = max(self.ops, 1)
        self_time = self.self_times()
        ms: Counter[str] = Counter()
        spans: Counter[str] = Counter()
        for lid, t in zip(self.name, self_time):
            ms[SPAN_LAYERS[lid]] += t * 1e3
            spans[SPAN_LAYERS[lid]] += 1
        c = self.counts

        def frac(useful: str, calls: float) -> float:
            return c[useful] / calls if calls else 0.0

        out: dict[str, tuple[float, str]] = {}
        for layer in SPAN_LAYERS:
            out[f"{layer}.ms"] = (ms[layer] / ops, "ms")
        for layer in ("matrix_core.validate_update", "matrix_core.spectral_radius", "slice_engine.push"):
            out[f"{layer}.calls"] = (spans[layer] / ops, "count")
        out["slice_engine.push.useful_frac"] = (
            frac("slice_engine.push.useful", spans["slice_engine.push"]), "ratio")
        out["slice_engine.slices"] = (c["slice_engine.slices"] / ops, "count")
        out["bounds.calls"] = (c["bounds.calls"] / ops, "count")
        out["certifier.certify_case3.calls"] = (c["certifier.certify_case3.calls"] / ops, "count")
        out["certifier.certify_case3.useful_frac"] = (
            frac("certifier.certify_case3.useful", c["certifier.certify_case3.calls"]), "ratio")
        out["certifier.case3_length_cap.calls"] = (c["certifier.case3_length_cap.calls"] / ops, "count")
        for kind in UPDATE_KINDS:
            out[f"ddf_sim.updates.{kind}"] = (c[f"ddf_sim.updates.{kind}"] / ops, "count")
        return out

    def write_spans(self, fh: TextIO) -> None:
        """One CSV row per span: op, span id, parent id, layer, start, end."""
        fh.write("op,span,parent,layer,start_s,end_s\n")
        for idx, (lid, s, e, p, op) in enumerate(
            zip(self.name, self.start, self.end, self.parent, self.op)
        ):
            fh.write(f"{op},{idx},{p},{SPAN_LAYERS[lid]},{s:.9f},{e:.9f}\n")
