"""Outside-in span tracer for the juntalab package.

Every target below is wrapped from outside the package: a function is
rebound in every ``juntalab.*`` module namespace that holds the same object
(``state_learn`` and ``state_test`` import some functions by name), and a
method is replaced on its class. No file of the package changes. A target
that no longer exists is reported as absent instead of failing, so the
tracer keeps working when a refactor deletes or moves code.

Spans are kept in memory as ``[name, start, end, parent, counts]`` and
summarised once the traced grid has finished. The traced pass runs the grid
with one thread, so one stack gives every span its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

import numpy as np

CELL = "cli.cell"
RUN = "cli.run_experiment"
MEASURE = "state_learn.SimulatedStateAccess.measure_chunk"


def _sample_outcomes_counts(arguments: dict) -> dict:
    codes = np.asarray(arguments["codes"])
    keys = codes.astype(np.int64) @ (3 ** np.arange(codes.shape[1], dtype=np.int64))
    return {"rows": codes.shape[0], "groups": int(np.unique(keys).size)}


def _supports_count(arguments: dict) -> dict:
    # The argument may be a generator; the function iterates it once, so a
    # list built here is an equivalent argument that can also be counted.
    supports = list(arguments["supports"])
    arguments["supports"] = supports
    return {"supports": len(supports)}


def _copies_count(arguments: dict) -> dict:
    return {"copies": len(arguments["basis_codes"])}


def _points_count(arguments: dict) -> dict:
    return {"points": int(np.size(arguments["values"]))}


def _samples_count(arguments: dict) -> dict:
    return {"samples": int(arguments["count"])}


# "module.function" or "module.Class.method" -> counter read from the call's
# arguments before the span starts (None: calls and time only).
TARGETS = {
    RUN: None,
    "shadows.born_probabilities": None,
    "shadows.sample_outcomes": _sample_outcomes_counts,
    "shadows.estimates_for_supports": _supports_count,
    MEASURE: _copies_count,
    "state_learn.learn_junta_state": None,
    "state_learn.threshold_pauli": None,
    "state_learn.psd_project": None,
    "jacobi.eigh_hermitian": None,
    "jacobi.eigvalsh_hermitian": None,
    "state_test.local_tomography": None,
    "state_test.FrobeniusCertifier.__call__": None,
    "state_test.test_junta": None,
    "qstate.pauli_tensor": None,
    "qstate.DensityMatrix.__init__": None,
    "qstate.trace_distance": None,
    "qstate.pauli_expand": None,
    "qstate.pauli_tensor_to_matrix": None,
    "hypercube.walsh_hadamard": _points_count,
    "hypercube.tv_distance": None,
    "dist_learn.SimulatedSampler.draw": _samples_count,
    "dist_learn.empirical_relative_spectrum": None,
    "dist_learn.learn_junta_from_spectrum": None,
    "dist_learn.random_junta_distribution": None,
    "qac0.circuit_unitary": None,
    "qac0.choi_state_full": None,
    "qac0.concentration_search": None,
    "qac0.removal_pauli_mass_shift": None,
    "qac0.random_circuit": None,
}

# Copies drawn inside these spans are summed from their measure_chunk children.
COPIES_FROM_CHILDREN = ("state_test.local_tomography", "state_test.FrobeniusCertifier.__call__")

# The per-layer metrics one traced pass reports, with their units.
PER_LAYER = {
    "cli.run_experiment.wall_s": "s",
    "cli.cell.p50_ms": "ms",
    "cli.cell.p90_ms": "ms",
    "shadows.born_probabilities.calls": "count",
    "shadows.born_probabilities.self_s": "s",
    "shadows.sample_outcomes.calls": "count",
    "shadows.sample_outcomes.rows": "count",
    "shadows.sample_outcomes.groups": "count",
    "shadows.sample_outcomes.self_s": "s",
    "shadows.born_cache.hit_ratio": "fraction",
    "shadows.estimates_for_supports.calls": "count",
    "shadows.estimates_for_supports.supports": "count",
    "shadows.estimates_for_supports.self_s": "s",
    "state_learn.SimulatedStateAccess.measure_chunk.copies": "count",
    "state_learn.SimulatedStateAccess.measure_chunk.self_s": "s",
    "state_learn.learn_junta_state.self_s": "s",
    "state_learn.threshold_pauli.self_s": "s",
    "state_learn.psd_project.calls": "count",
    "state_learn.psd_project.self_s": "s",
    "jacobi.eigh_hermitian.calls": "count",
    "jacobi.eigh_hermitian.self_s": "s",
    "jacobi.eigvalsh_hermitian.calls": "count",
    "jacobi.eigvalsh_hermitian.self_s": "s",
    "state_test.local_tomography.calls": "count",
    "state_test.local_tomography.copies": "count",
    "state_test.local_tomography.self_s": "s",
    "state_test.FrobeniusCertifier.__call__.calls": "count",
    "state_test.FrobeniusCertifier.__call__.copies": "count",
    "state_test.FrobeniusCertifier.__call__.self_s": "s",
    "state_test.test_junta.self_s": "s",
    "qstate.pauli_tensor.calls": "count",
    "qstate.pauli_tensor.self_s": "s",
    "qstate.DensityMatrix.__init__.calls": "count",
    "qstate.DensityMatrix.__init__.self_s": "s",
    "qstate.trace_distance.calls": "count",
    "qstate.trace_distance.self_s": "s",
    "qstate.pauli_expand.self_s": "s",
    "qstate.pauli_tensor_to_matrix.self_s": "s",
    "hypercube.walsh_hadamard.calls": "count",
    "hypercube.walsh_hadamard.points": "count",
    "hypercube.walsh_hadamard.self_s": "s",
    "hypercube.tv_distance.self_s": "s",
    "dist_learn.SimulatedSampler.draw.samples": "count",
    "dist_learn.SimulatedSampler.draw.self_s": "s",
    "dist_learn.empirical_relative_spectrum.self_s": "s",
    "dist_learn.learn_junta_from_spectrum.self_s": "s",
    "dist_learn.random_junta_distribution.self_s": "s",
    "qac0.circuit_unitary.calls": "count",
    "qac0.circuit_unitary.self_s": "s",
    "qac0.choi_state_full.calls": "count",
    "qac0.choi_state_full.self_s": "s",
    "qac0.concentration_search.self_s": "s",
    "qac0.removal_pauli_mass_shift.self_s": "s",
    "qac0.random_circuit.self_s": "s",
    "trace.coverage_frac": "fraction",
    "trace.overhead_frac": "fraction",
}


class Tracer:
    """Span recorder; ``install`` wraps the targets in the loaded package."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.absent: list[str] = []
        self.absent_counters: set[str] = set()

    def wrap(self, name: str, fn, counter=None):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = None
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    counts = counter(bound.arguments)
                    args, kwargs = bound.args, bound.kwargs
                except KeyError:  # the argument was renamed: count nothing
                    self.absent_counters.add(name)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, counts]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> "Tracer":
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "juntalab" or key.startswith("juntalab."))]
        for name, counter in TARGETS.items():
            module_name, *path = name.split(".")
            try:
                owner = importlib.import_module(f"juntalab.{module_name}")
                for attr in path[:-1]:
                    owner = getattr(owner, attr)
                original = inspect.getattr_static(owner, path[-1])
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            traced = self.wrap(name, original, counter)
            if isinstance(owner, type):
                setattr(owner, path[-1], traced)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
        cli = importlib.import_module("juntalab.cli")
        runners = getattr(cli, "CELL_RUNNERS", None)
        if runners is None:
            self.absent.append(CELL)
        else:
            for command, runner in runners.items():
                runners[command] = self.wrap(CELL, runner)
        return self

    def summary(self) -> dict:
        """Calls, inclusive and self seconds, and summed counts per span name."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        copies = [0] * len(spans)
        for index in range(len(spans) - 1, -1, -1):  # children come after parents
            name, start, end, parent, counts = spans[index]
            if name == MEASURE and counts:
                copies[index] += counts["copies"]
            if parent >= 0:
                child_time[parent] += end - start
                copies[parent] += copies[index]
        table: dict[str, dict] = {}
        for index, (name, start, end, _, counts) in enumerate(spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
            for key, value in (counts or {}).items():
                row[key] = row.get(key, 0) + value
            if name in COPIES_FROM_CHILDREN:
                row["copies"] = row.get("copies", 0) + copies[index]
        cells = [(end - start) * 1e3 for name, start, end, _, _ in spans if name == CELL]
        return {
            "spans": table,
            "cell_ms": cells,
            "absent": sorted(self.absent),
            "absent_counters": sorted(self.absent_counters),
        }


def layer_metrics(summaries: list[dict], traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metric values from the summaries of one run's traced passes.

    Times and counts are medians over the passes; cell percentiles pool the
    cells of every pass. A metric of an absent target or counter reads 0.
    """
    def median_of(target: str, field: str) -> float:
        return statistics.median(s["spans"].get(target, {}).get(field, 0) for s in summaries)

    values: dict[str, float] = {}
    for metric in PER_LAYER:
        target, _, field = metric.rpartition(".")
        if target in TARGETS:
            values[metric] = median_of(target, field)
    run_wall = values["cli.run_experiment.wall_s"] = median_of(RUN, "total_s")
    cells = sorted(ms for s in summaries for ms in s["cell_ms"])
    values["cli.cell.p50_ms"] = float(np.percentile(cells, 50)) if cells else 0.0
    values["cli.cell.p90_ms"] = float(np.percentile(cells, 90)) if cells else 0.0
    groups = values["shadows.sample_outcomes.groups"]
    values["shadows.born_cache.hit_ratio"] = (
        1.0 - values["shadows.born_probabilities.calls"] / groups if groups else 0.0
    )
    covered = statistics.median(
        sum(row["self_s"] for name, row in s["spans"].items() if not name.startswith("cli."))
        for s in summaries
    )
    values["trace.coverage_frac"] = covered / run_wall if run_wall else 0.0
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return values
