"""juntalab benchmark: the grid runner on fixed workloads, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

The load is a closed loop with one client: one grid run at a time, each in a
fresh child interpreter (``child.py``) that imports juntalab and calls
``juntalab.cli.main(["run", spec, "--threads", N, "--out", path])``, as a
user's CLI invocation does. The loop runs passes in pairs until ``--seconds``
have gone by, then reports medians over the passes.

* ``--trace 0`` pairs a ``--threads 1`` pass with a ``--threads 2`` pass and
  reports the end-to-end metrics.
* ``--trace 1`` pairs an untraced ``--threads 1`` pass with a traced one, whose
  spans (see ``tracer.py``) give the per-layer metrics.
* ``--workload all`` runs both on every workload and prints every metric.

Correctness gate: the records of every pass in one invocation must be
byte-identical (replay is deterministic at any thread count and under the
tracer). On a mismatch the result line says ``"correct": false`` and the exit
code is 1. The last line of standard output is the JSON result.

Times leave out CPU time the hypervisor stole from this machine while they
ran (``/proc/stat``), divided over the CPUs the pass kept busy: on a shared
virtual machine steal swings run to run by tens of percent, and on a machine
that counts none the times are plain wall times. Every child runs with one
BLAS thread. NOTES.md gives the reasons and measurements for both.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from child import stolen_seconds
from tracer import PER_LAYER, layer_metrics

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().with_name("child.py")
# Every invocation ends well inside the 180 s it is allowed.
DEADLINE_S = 170.0
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "cells/s",
    "cells_per_s_t2": "cells/s",
    "peak_rss_mb": "MiB",
    "success_rate": "fraction",
    "ok_rate": "fraction",
}


@dataclass(frozen=True)
class Workload:
    """One grid spec (its seed is the benchmark's) and the paper's guarantee."""

    command: str
    grid: dict
    trials: int
    guarantee: Callable[[dict, dict], bool]  # (parameters, metrics) of one record

    def spec(self, seed: int) -> dict:
        return {"command": self.command, "grid": self.grid, "trials": self.trials, "seed": seed}


WORKLOADS = {
    # Born distributions dominate: 3^6 = 729 bases, so the Born cache misses.
    "learn-state-n6": Workload(
        "learn-state", {"n": [6], "k": [2], "eps": [0.25], "delta": [0.1]}, 2,
        lambda p, m: m["trace_distance"] <= math.sqrt(2) * p["eps"],
    ),
    # Dense 2^20 cube arrays; no quantum layer runs (the control workload).
    "learn-dist-n20": Workload(
        "learn-dist", {"n": [20], "k": [3], "eps": [0.2], "delta": [0.1]}, 12,
        lambda p, m: m["tv_exact"] <= p["eps"],
    ),
    # Many short collections over 81 bases: the Born cache hits and the
    # per-basis-group sampling loop and estimation over all supports dominate.
    "test-state-frob-n4": Workload(
        "test-state",
        {"n": [4], "k": [1], "eps": [0.1], "delta": [0.1],
         "certifier": ["frobenius"], "case": ["close", "far"]},
        3,
        lambda p, m: m["correct"] is True,
    ),
    # Choi-state construction and Pauli tensors; n + a + 1 stays within
    # MAX_FULL_CHOI_CIRCUIT_QUBITS = 5 so no cell errors.
    "qac0-analyze": Workload(
        "qac0-analyze", {"n": [3], "a": [1], "depth": [1, 2, 3]}, 200,
        lambda p, m: m["concentration_residual"] <= 1e-10,
    ),
}

# pass kind -> (threads, traced)
PASSES = {"t1": (1, False), "t2": (2, False), "traced": (1, True)}


class BenchError(RuntimeError):
    """A child failed to run its pass; the benchmark prints no result."""


@dataclass
class Pass:
    kind: str
    setup_s: float
    wall_s: float  # grid time, steal left out
    stolen_s: float  # steal during the grid, summed over CPUs
    rss_mib: float
    digest: str
    records: bytes
    facts: dict
    trace: dict | None


def unstolen(wall: float, stolen: float, busy: int) -> float:
    """Wall time less the steal that fell on the ``busy`` CPUs the work kept running.

    Steal on a CPU the work left idle is not the work's; capping the
    correction at half the wall time bounds the error that misattribution
    could cause.
    """
    return max(wall - stolen / busy, wall / 2)


class Runner:
    """Runs child passes for one invocation inside a scratch directory."""

    def __init__(self, workdir: Path, started: float) -> None:
        self.workdir = workdir
        self.deadline = started + DEADLINE_S
        self.count = 0
        self.env = {**os.environ, **BLAS_THREADS}

    def run(self, kind: str, spec_path: Path) -> Pass:
        threads, traced = PASSES[kind]
        self.count += 1
        records = self.workdir / f"records-{self.count}.jsonl"
        result = self.workdir / f"result-{self.count}.json"
        command = [sys.executable, str(CHILD), str(spec_path), str(records), str(result),
                   "--threads", str(threads)] + (["--trace"] if traced else [])
        spawned, steal_spawned = time.monotonic(), stolen_seconds()
        try:
            proc = subprocess.run(command, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{kind} pass passed the {DEADLINE_S:.0f} s deadline") from exc
        if proc.returncode != 0 or not result.is_file():
            raise BenchError(f"{kind} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        payload = json.loads(result.read_text())
        if payload["exit"] not in (0, 2):  # 2: some records hold errors, counted below
            raise BenchError(f"juntalab run exited {payload['exit']}:\n{proc.stderr[-2000:]}")
        data = records.read_bytes()
        records.unlink()
        result.unlink()
        busy = min(threads, len(os.sched_getaffinity(0)))
        return Pass(
            kind=kind,
            setup_s=unstolen(payload["ready"] - spawned, payload["steal_ready"] - steal_spawned, 1),
            wall_s=unstolen(payload["wall_s"], payload["steal_s"], busy),
            stolen_s=payload["steal_s"],
            rss_mib=payload["peak_rss_kib"] / 1024.0,
            digest=hashlib.sha256(data).hexdigest(),
            records=data,
            facts={key: payload[key] for key in ("python", "numpy", "blas")},
            trace=payload.get("trace"),
        )

    def loop(self, spec_path: Path, kinds: tuple[str, ...], seconds: float) -> list[Pass]:
        """Pairs of passes, one of each kind in turn, for about ``seconds``.

        A pair is not started when it would likely end more than half a pair
        after ``seconds``, so a run overshoots by at most that much.
        """
        passes: list[Pass] = []
        start = now = time.monotonic()
        pair_s = 0.0
        while not passes or now - start + pair_s / 2 < seconds:
            passes.extend(self.run(kind, spec_path) for kind in kinds)
            pair_s, now = time.monotonic() - now, time.monotonic()
        return passes


def record_stats(workload: Workload, data: bytes) -> tuple[int, int, int]:
    """(records, records with status ok, records meeting the paper's guarantee)."""
    records = [json.loads(line) for line in data.decode().splitlines() if line.strip()]
    ok = [r for r in records if r["status"] == "ok"]
    met = sum(bool(workload.guarantee(r["parameters"], r["metrics"])) for r in ok)
    return len(records), len(ok), met


def end_to_end(workload: Workload, passes: list[Pass]) -> dict:
    jobs, ok, met = record_stats(workload, passes[0].records)

    def rates(kind: str) -> list[float]:
        return [jobs / p.wall_s for p in passes if p.kind == kind]

    return {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "cells_per_s": statistics.median(rates("t1")),
        "cells_per_s_t2": statistics.median(rates("t2")),
        "peak_rss_mb": statistics.median(p.rss_mib for p in passes if p.kind == "t1"),
        "success_rate": met / jobs,
        "ok_rate": ok / jobs,
    }


def per_layer(passes: list[Pass]) -> dict:
    traced = [p for p in passes if p.kind == "traced"]
    untraced = [p for p in passes if p.kind == "t1"]
    return layer_metrics(
        [p.trace for p in traced],
        statistics.median(p.wall_s for p in traced),
        statistics.median(p.wall_s for p in untraced),
    )


def print_layer_table(passes: list[Pass]) -> None:
    """Span self times of the last traced pass, largest first, with their shares."""
    trace = [p for p in passes if p.kind == "traced"][-1].trace
    spans = trace["spans"]
    wall = sum(row["self_s"] for row in spans.values())
    print(f"  {'span':<48} {'calls':>8} {'self_s':>10} {'share':>7}")
    for name, row in sorted(spans.items(), key=lambda item: -item[1]["self_s"]):
        print(f"  {name:<48} {row['calls']:>8} {row['self_s']:>10.4f} {row['self_s'] / wall:>7.1%}")
    if trace["absent"] or trace["absent_counters"]:
        print(f"  absent targets: {trace['absent']}; absent counters: {trace['absent_counters']}")


def measure(runner: Runner, name: str, seed: int, seconds: float, kinds: tuple[str, ...]) -> list[Pass]:
    workload = WORKLOADS[name]
    spec_path = runner.workdir / f"{name}.json"
    spec_path.write_text(json.dumps(workload.spec(seed)))
    passes = runner.loop(spec_path, kinds, seconds)
    counts = ", ".join(f"{kind} x{sum(p.kind == kind for p in passes)}" for kind in kinds)
    stolen = sum(p.stolen_s for p in passes)
    print(f"{name}: seed {seed}, passes {counts}, records sha256 {passes[0].digest}, "
          f"hypervisor steal {stolen:.2f} CPU-s during grids")
    return passes


def check_digests(passes: list[Pass]) -> bool:
    digests = {(p.kind, p.digest) for p in passes}
    if len({digest for _, digest in digests}) == 1:
        return True
    for kind, digest in sorted(digests):
        print(f"  MISMATCH {kind}: {digest}")
    return False


def tally(workloads: list[str], runs: dict[str, list[Pass]]) -> tuple[int, int]:
    """(records attempted, records with status != ok) over every pass."""
    attempted = failed = 0
    for name in workloads:
        for p in runs[name]:
            jobs, ok, _ = record_stats(WORKLOADS[name], p.records)
            attempted += jobs
            failed += jobs - ok
    return attempted, failed


def with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def print_metrics(values: dict, units: dict) -> None:
    for name, unit in units.items():
        print(f"  {name:<54} {values[name]:>14.6g} {unit}")


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "juntalab" / "cli.py").is_file():
        print(f"no juntalab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workdir, started)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        if args.workload == "all":
            plan = [("t1", "t2"), ("t1", "traced")]
        else:
            plan = [("t1", "traced") if args.trace else ("t1", "t2")]
        runs: dict[str, list[Pass]] = {name: [] for name in names}
        metrics: dict[str, dict] = {name: {} for name in names}
        correct = True
        for name in names:
            for kinds in plan:
                passes = measure(runner, name, args.seed, args.seconds, kinds)
                runs[name] += passes
                if "traced" in kinds:
                    values, units = per_layer(passes), PER_LAYER
                    print_layer_table(passes)
                else:
                    values, units = end_to_end(WORKLOADS[name], passes), END_TO_END
                print_metrics(values, units)
                metrics[name].update(with_units(values, units))
            correct &= check_digests(runs[name])
        facts = runs[names[0]][0].facts
        print(f"machine: nproc {len(os.sched_getaffinity(0))}, python {facts['python']}, "
              f"numpy {facts['numpy']}, "
              f"BLAS {facts['blas']}, " + ", ".join(f"{k}={v}" for k, v in BLAS_THREADS.items()))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another invocation is still using it
            pass

    attempted, failed = tally(names, runs)
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} records)")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics if args.workload == "all" else metrics[names[0]],
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
