"""Per-layer tracing for the benchmark's traced runs.

Each layer is one module of the package, measured from outside: its public
functions are replaced, at the names their callers bind, by wrappers that
time every call.  Calls made about once per channel draw or per design point
become spans (id, name, start, end, parent) kept in memory; calls made once
per trial, or many times per threshold, are rolled up into counts and busy
time.  A layer's self time is its calls' duration minus the time covered by
the wrapped calls they make.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict


class Tracer:
    """Spans and per-layer aggregates of the wrapped calls."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self._stack: list[list] = []  # frames: [time in wrapped child calls, span id]
        self._depth: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self.reset()

    def reset(self) -> None:
        """Start a new tally of the aggregates; recorded spans are kept."""
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, layer: str, fn, span: bool, on_result=None):
        stack, depth = self._stack, self._depth

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent else None
            span_id = parent_id
            if span:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            depth[layer] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                depth[layer] -= 1
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                if depth[layer] == 0:  # nested calls of one layer count once
                    self.calls[layer] += 1
                    self.busy[layer] += duration
                self.self_time[layer] += duration - frame[0]
                if span:
                    self.spans.append((span_id, layer, start, end, parent_id))
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"], "spans": self.spans}, fh)


def _count_experiment(counts, result) -> None:
    counts["harness.points"] += len(result.config.sweep)
    counts["harness.row_trials"] += sum(row.trials for row in result.rows)


def _count_samples(counts, result) -> None:
    counts["scenario.complex_normal.samples"] += result.size
    counts["scenario.complex_normal.bytes_computed"] += result.nbytes


def _count_fallback(counts, result) -> None:
    counts["energy_detector.mc_fallbacks"] += int(result.mc_fallback)


def _count_qclp(counts, result) -> None:
    counts["ed_gains.qclp_iterations"] += result.iterations


def _count_waterfill(counts, result) -> None:
    counts["np_gains.waterfill_iterations"] += result.iterations


# (module[:class], attribute, layer, record spans, result hook).  The
# attribute is the name the callers look up: the CLI binds the config and
# harness entry points, the harness binds the scenario draws by name, and
# every other layer is reached through its module.
PATCHES = (
    ("mimofusion.cli", "main", "cli.main", True, None),
    ("mimofusion.cli", "load_packaged_experiment", "config.load", True, None),
    ("mimofusion.cli", "load_experiment", "config.load", True, None),
    ("mimofusion.cli", "run_experiment", "harness.run_experiment", True, _count_experiment),
    ("mimofusion.harness", "resolve_gains", "harness.resolve_gains", True, None),
    ("mimofusion.harness", "derive_rng", "scenario.derive_rng", False, None),
    ("mimofusion.harness", "complex_normal", "scenario.complex_normal", False, _count_samples),
    ("mimofusion.harness", "sample_channel", "scenario.sample_channel", True, None),
    ("mimofusion.np_detector:NpTestContext", "build", "np_detector.context_build", True, None),
    ("mimofusion.np_detector:SingleAntennaContext", "build", "np_detector.context_build", True,
     None),
    ("mimofusion.np_detector", "threshold_for_pfa", "np_detector.closed_form", False, None),
    ("mimofusion.np_detector", "pd_closed_form", "np_detector.closed_form", False, None),
    ("mimofusion.np_detector", "single_antenna_pd", "np_detector.closed_form", False, None),
    ("mimofusion.np_detector", "snr_asymptotic", "np_detector.closed_form", False, None),
    ("mimofusion.lmmse", "mse_closed_form", "lmmse", False, None),
    ("mimofusion.energy_detector", "ed_threshold_for_pfa", "energy_detector.threshold", True,
     _count_fallback),
    ("mimofusion.energy_detector", "weighted_chi2_tail", "energy_detector.tail", False, None),
    ("mimofusion.energy_detector", "deflection_exact", "energy_detector.deflection", False, None),
    ("mimofusion.energy_detector", "single_antenna_deflection", "energy_detector.deflection",
     False, None),
    ("mimofusion.ed_gains", "solve_qclp", "ed_gains.solve_qclp", True, _count_qclp),
    ("mimofusion.np_gains", "waterfill", "np_gains.waterfill", True, _count_waterfill),
    ("mimofusion.np_gains", "single_antenna_optimal_gains", "np_gains.single_antenna_gains",
     True, None),
)


def _owner(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def install(tracer: Tracer):
    """Wrap every patched name; return a function that restores the originals."""
    saved = []
    for target, attr, layer, span, hook in PATCHES:
        owner = _owner(target)
        raw = owner.__dict__[attr]
        saved.append((owner, attr, raw))
        # a classmethod is wrapped bound to its class and stored back as static
        wrapped = tracer.wrap(layer, getattr(owner, attr), span, hook)
        setattr(owner, attr, staticmethod(wrapped) if isinstance(raw, classmethod) else wrapped)

    def restore() -> None:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)

    return restore


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of the calls traced since the last reset."""
    calls, busy, self_time, counts = tracer.calls, tracer.busy, tracer.self_time, tracer.counts
    thresholds = calls["energy_detector.threshold"]
    tail_evals = calls["energy_detector.tail"]
    return {
        "scenario.derive_rng.calls": calls["scenario.derive_rng"],
        "scenario.derive_rng.busy_s": busy["scenario.derive_rng"],
        "scenario.complex_normal.calls": calls["scenario.complex_normal"],
        "scenario.complex_normal.busy_s": busy["scenario.complex_normal"],
        "scenario.complex_normal.samples": counts["scenario.complex_normal.samples"],
        "scenario.complex_normal.bytes_computed": counts["scenario.complex_normal.bytes_computed"],
        "scenario.sample_channel.calls": calls["scenario.sample_channel"],
        "scenario.sample_channel.busy_s": busy["scenario.sample_channel"],
        "harness.run_experiment.busy_s": busy["harness.run_experiment"],
        "harness.self_s": self_time["harness.run_experiment"],
        "harness.points": counts["harness.points"],
        "harness.row_trials": counts["harness.row_trials"],
        "harness.resolve_gains.busy_s": busy["harness.resolve_gains"],
        "np_detector.context_build.calls": calls["np_detector.context_build"],
        "np_detector.context_build.busy_s": busy["np_detector.context_build"],
        "np_detector.closed_form.busy_s": busy["np_detector.closed_form"],
        "lmmse.busy_s": busy["lmmse"],
        "energy_detector.threshold.calls": thresholds,
        "energy_detector.threshold.busy_s": busy["energy_detector.threshold"],
        "energy_detector.tail_evals": tail_evals,
        "energy_detector.tail_evals_per_threshold": tail_evals / thresholds if thresholds else 0.0,
        "energy_detector.mc_fallbacks": counts["energy_detector.mc_fallbacks"],
        "energy_detector.deflection.busy_s": busy["energy_detector.deflection"],
        "ed_gains.solve_qclp.calls": calls["ed_gains.solve_qclp"],
        "ed_gains.solve_qclp.busy_s": busy["ed_gains.solve_qclp"],
        "ed_gains.qclp_iterations": counts["ed_gains.qclp_iterations"],
        "np_gains.waterfill.calls": calls["np_gains.waterfill"],
        "np_gains.waterfill.busy_s": busy["np_gains.waterfill"],
        "np_gains.waterfill_iterations": counts["np_gains.waterfill_iterations"],
        "np_gains.single_antenna_gains.busy_s": busy["np_gains.single_antenna_gains"],
        "config.load.calls": calls["config.load"],
        "config.load.busy_s": busy["config.load"],
        "cli.main.busy_s": busy["cli.main"],
        "cli.self_s": self_time["cli.main"],
    }
