"""Experiment driver and command-line interface.

Grid experiments are replayable: every cell/trial derives its own integer
seed from (master seed, cell index, trial index), records are canonically
ordered and serialized with sorted keys, and no wall-clock data enters the
record stream, so reruns give byte-identical output at any ``--threads``:
min(threads, jobs, usable CPUs) workers, this process and forked children
that pickle their records into a pipe (serial without ``os.fork``).
Each single-run command is one call of its grid runner in ``CELL_RUNNERS``
with the loaded truth file (or, where the truth is optional, the instance
planted from ``--seed``), so it prints the metrics a grid record would hold
for that truth plus ``elapsed_ms``, the wall time of the whole call; its
``--out`` file leaves the timing out.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import math
import os
import pickle
import signal
import sys
import time
from collections.abc import Hashable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, dist_learn, qac0, qstate, shadows, state_learn, state_test
from .hypercube import (
    degree,
    fourier_transform,
    load_distribution,
    mask_to_variables,
    require_fields,
    tv_distance,
)

ARTIFACT_VERSION = f"juntalab-{__version__}"


def _derive_seed(*parts: int) -> int:
    words = np.random.SeedSequence([int(p) for p in parts]).generate_state(2)
    return int(words[0]) << 32 | int(words[1])


def frobenius_merit(truth, approx, scale_qubits: int) -> float:
    """Dimension-scaled squared Frobenius error 2^scale_qubits * ||a - b||_F^2."""
    return float(2**scale_qubits * qstate.frobenius_distance(truth, approx) ** 2)


def support_recovered(truth: qstate.DensityMatrix, words: np.ndarray) -> bool:
    """Whether the learned packed Pauli words (ascending) are exactly the
    truth's words with a coefficient above 1e-12 in magnitude."""
    exact = np.flatnonzero(np.abs(qstate.pauli_tensor(truth)) > 1e-12)
    return np.array_equal(exact, words)


# ---------------------------------------------------------------------------
# Runners: one metrics dict per (parameters, seed), fully deterministic. With
# no truth they plant the instance from the seed and add what needs it
# (planted variables, test-state correctness); single-run commands pass the
# loaded distribution, state or circuit as ``truth``.
# ---------------------------------------------------------------------------


def _run_learn_dist(params: dict, seed: int, truth=None) -> dict:
    k = int(params["k"])
    eps, delta = float(params["eps"]), float(params["delta"])
    c = float(params.get("c", dist_learn.DEFAULT_C))
    planted = {}
    if truth is None:
        instance_rng = np.random.default_rng([seed, 0])
        truth, variables = dist_learn.random_junta_distribution(int(params["n"]), k, instance_rng)
        planted["planted_variables"] = list(variables)
    sampler = dist_learn.SimulatedSampler(truth, _derive_seed(seed, 1))
    result = dist_learn.learn_junta_distribution(sampler, k, eps, delta, c)
    T = sampler.samples_used
    return {
        "T": T,
        "tv_exact": tv_distance(result.distribution, truth),
        "surviving_sets": [list(mask_to_variables(int(m), truth.n)) for m in result.surviving_masks],
        "junta_variables": list(result.distribution.variables),
        **planted,
    }


def _planted_junta_state(n: int, k: int, rng: np.random.Generator):
    variables = tuple(sorted(int(v) + 1 for v in rng.choice(n, size=k, replace=False)))
    block = qstate.random_density_matrix(k, rng) if k else qstate.DensityMatrix(np.ones((1, 1)))
    return qstate.embed_on(block, variables, n), variables


def _run_learn_state(params: dict, seed: int, truth=None) -> dict:
    k = int(params["k"])
    eps, delta = float(params["eps"]), float(params["delta"])
    c = float(params.get("c", state_learn.DEFAULT_C))
    planted = {}
    if truth is None:
        truth, variables = _planted_junta_state(int(params["n"]), k, np.random.default_rng([seed, 0]))
        planted["planted_variables"] = list(variables)
    access = shadows.SimulatedStateAccess(truth, _derive_seed(seed, 1))
    result = state_learn.learn_junta_state(
        access, k, eps, delta, c, basis_seed=_derive_seed(seed, 2)
    )
    return {
        "T": access.copies_used,
        "trace_distance": qstate.trace_distance(result.psd_projected, truth),
        "frobenius_merit": frobenius_merit(truth, result.matrix, truth.n),
        "support_recovered": support_recovered(truth, result.words),
        **planted,
    }


def _run_test_state(params: dict, seed: int, truth=None) -> dict:
    k = int(params["k"])
    eps, delta = float(params["eps"]), float(params["delta"])
    certifier = str(params.get("certifier", "frobenius"))
    want = None
    if truth is None:
        n, case = int(params["n"]), str(params.get("case", "close"))
        if case == "close":
            truth, _ = _planted_junta_state(n, k, np.random.default_rng([seed, 0]))
            want = state_test.JUNTA_CLOSE
        elif case == "far":
            amplitudes = np.zeros(1 << n)
            amplitudes[0] = 1.0
            truth = qstate.DensityMatrix.pure(amplitudes)
            want = state_test.JUNTA_FAR
        else:
            raise ValueError(f"unknown case {case!r}")
    access = shadows.SimulatedStateAccess(truth, _derive_seed(seed, 1))
    if certifier not in ("oracle", "frobenius"):
        raise ValueError(f"unknown certifier {certifier!r}")
    metrics = state_test.test_junta(
        access, k, eps, delta, oracle=truth if certifier == "oracle" else None,
        seed=_derive_seed(seed, 3), certifier_seed=_derive_seed(seed, 2),
    )
    if want is not None:
        metrics["correct"] = metrics["decision"] == want
    return metrics


def _run_shadows_bench(params: dict, seed: int, truth=None) -> dict:
    total, k = int(params["T"]), int(params.get("k", 2))
    if truth is None:
        truth = qstate.random_density_matrix(int(params["n"]), np.random.default_rng([seed, 0]))
    access = shadows.SimulatedStateAccess(truth, _derive_seed(seed, 1))
    words, values = shadows.estimate_lowdeg(access.collect(total, _derive_seed(seed, 2)), access.n, k)
    errors = np.abs(values - qstate.pauli_tensor(truth).reshape(-1)[words])
    return {
        "T": total,
        "k": k,
        "max_abs_error": float(errors.max()),
        "rms_error": math.sqrt(float(np.mean(errors**2))),
    }


def _run_address(params: dict, seed: int, truth=None) -> dict:
    d, k = int(params["D"]), int(params["k"])
    f = qac0.address_function(d)
    return {
        "degree": degree(fourier_transform(f)),
        "distance": qac0.boolean_distance_to_junta(f, k),
        "lower_bound": ((1 << d) - k) / (1 << (d + 1)),
    }


def _planted_circuit(params: dict, seed: int, default_depth: int) -> qac0.Qac0Circuit:
    depth = int(params.get("depth", default_depth))
    return qac0.random_circuit(
        int(params["n"]), int(params["a"]), depth, np.random.default_rng([seed, 0])
    )


def _run_qac0_analyze(params: dict, seed: int, truth=None) -> dict:
    circuit = truth if truth is not None else _planted_circuit(params, seed, default_depth=2)
    cone = qac0.light_cone(circuit, circuit.output_qubit)
    metrics = {
        "size": circuit.size,
        "depth": circuit.depth,
        "light_cone": list(cone),
        "cone_size": len(cone),
    }
    arity = int(params.get("arity", 3))
    if arity < 1:
        raise ValueError("arity threshold must be at least 1")
    if circuit.total_qubits <= qac0.MAX_FULL_CHOI_CIRCUIT_QUBITS:
        full = qstate.pauli_tensor(qac0.choi_state_full(circuit))
        best, residual = qac0.concentration_search(full, len(cone) + 1)
        mass, removed = qac0.removal_pauli_mass_shift(circuit, arity, full)
        metrics.update(
            concentration_K=list(best),
            concentration_residual=residual,
            removal_mass_shift=mass,
            removed_gates=removed,
        )
    return metrics


def _run_qac0_learn(params: dict, seed: int, truth=None) -> dict:
    eps, delta = float(params["eps"]), float(params["delta"])
    c = float(params.get("c", state_learn.DEFAULT_C))
    circuit = truth if truth is not None else _planted_circuit(params, seed, default_depth=1)
    choi = qac0.choi_state_with_ancilla(circuit)
    access = shadows.SimulatedStateAccess(choi, _derive_seed(seed, 1))
    result = state_learn.learn_qac0_choi(
        access, circuit.size, circuit.depth, circuit.a, eps, delta, c,
        basis_seed=_derive_seed(seed, 2),
    )
    return {
        "T": access.copies_used,
        "junta_arity": result.junta_arity,
        "frobenius_merit": frobenius_merit(choi, result.matrix, circuit.n),
        "trace_distance": qstate.trace_distance(result.psd_projected, choi),
    }


CELL_RUNNERS = {
    "learn-dist": _run_learn_dist,
    "learn-state": _run_learn_state,
    "test-state": _run_test_state,
    "shadows-bench": _run_shadows_bench,
    "address-distance": _run_address,
    "qac0-analyze": _run_qac0_analyze,
    "qac0-learn": _run_qac0_learn,
}

# command -> the grid parameters its runner reads; a spec naming any other is refused.
GRID_PARAMETERS = {
    "learn-dist": {"n", "k", "eps", "delta", "c"},
    "learn-state": {"n", "k", "eps", "delta", "c"},
    "test-state": {"n", "k", "eps", "delta", "certifier", "case"},
    "shadows-bench": {"n", "T", "k"},
    "address-distance": {"D", "k"},
    "qac0-analyze": {"n", "a", "depth", "arity"},
    "qac0-learn": {"n", "a", "depth", "eps", "delta", "c"},
}


# ---------------------------------------------------------------------------
# Experiment spec, records, runner, curves.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    command: str
    grid: dict
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.command not in CELL_RUNNERS:
            raise ValueError(f"unknown experiment command {self.command!r}")
        if not self.grid:
            raise ValueError("field 'grid' must name at least one parameter, got {}")
        for name, values in self.grid.items():
            if name not in GRID_PARAMETERS[self.command]:
                raise ValueError(f"command {self.command!r} reads no grid parameter {name!r}")
            if not isinstance(values, list) or not values:
                raise ValueError(f"grid parameter {name!r} must be a nonempty list, got {values!r}")
        if self.trials < 1:
            raise ValueError(f"field 'trials' must be at least 1, got {self.trials}")

    @classmethod
    def from_dict(cls, payload: dict, source="experiment spec") -> "ExperimentSpec":
        require_fields(payload, ("command", "grid"), source)
        unknown = sorted(set(payload) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"{source}: unknown field {', '.join(map(repr, unknown))}")
        for name, kind, label in (("command", str, "a string"), ("grid", dict, "an object"),
                                  ("trials", int, "an integer"), ("seed", int, "an integer")):
            value = payload.get(name)
            if name in payload and (not isinstance(value, kind) or isinstance(value, bool)):
                raise ValueError(f"{source}: field {name!r} must be {label}, got {json.dumps(value)}")
        if payload.get("seed", 0) < 0:
            raise ValueError(f"{source}: field 'seed' must be a nonnegative integer, got {payload['seed']}")
        try:
            return cls(
                command=payload["command"],
                grid=dict(payload["grid"]),
                trials=payload.get("trials", 1),
                seed=payload.get("seed", 0),
            )
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None

    def cells(self) -> list[dict]:
        keys = sorted(self.grid)
        return [dict(zip(keys, combo)) for combo in itertools.product(*(self.grid[k] for k in keys))]


def run_experiment(spec: ExperimentSpec, threads: int = 1) -> list[dict]:
    """One record per (cell, trial); failures are recorded, never raised.
    A record is the dict ``json_line`` serializes.

    Job j runs in worker j % min(threads, jobs, usable CPUs); worker 0 is this
    process, the others are forked children that pickle their records into a
    pipe (ChildProcessError if one fails). Output order is (cell, then trial).
    """
    runner = CELL_RUNNERS[spec.command]
    cells = spec.cells()
    jobs = [(ci, ti) for ci in range(len(cells)) for ti in range(spec.trials)]

    def work(job: tuple[int, int]) -> dict:
        ci, ti = job
        params = cells[ci]
        seed = _derive_seed(spec.seed, ci, ti)
        record = {"command": spec.command, "cell": ci, "trial": ti, "parameters": params,
                  "seed": seed, "version": ARTIFACT_VERSION}
        try:
            return {**record, "status": "ok", "metrics": runner(params, seed)}
        except Exception as exc:  # recorded per cell, grid keeps going
            return {**record, "status": "error", "metrics": {}, "error": repr(exc)}

    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    workers = max(1, min(threads, len(jobs), len(cpus))) if hasattr(os, "fork") else 1
    children = {}  # pid -> (worker index, read end of its pipe), until reaped
    try:
        for index in range(1, workers):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:  # os._exit: never unwind into the caller or flush its buffers
                try:
                    with os.fdopen(write, "wb") as pipe:
                        pickle.dump([work(job) for job in jobs[index::workers]], pipe)
                except BaseException:
                    os._exit(1)
                os._exit(0)
            os.close(write)
            children[pid] = index, os.fdopen(read, "rb")
        records = [work(job) for job in jobs[::workers]]
        for pid, (index, pipe) in list(children.items()):
            with pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if status:
                raise ChildProcessError(f"worker {index} of {workers} failed: wait status {status}")
            records += pickle.loads(payload)
    finally:
        for pid, (_, pipe) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    records.sort(key=lambda r: (r["cell"], r["trial"]))
    return records


def json_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def load_records(path) -> list[dict]:
    """The records of a JSON-lines file, each checked for the fields and
    types that ``emit_curve`` reads; ``metrics`` defaults to ``{}``."""
    records = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        source = f"{path} line {number}"
        payload = require_fields(
            json.loads(line), ("command", "cell", "trial", "parameters", "seed", "status"), source,
            ("cell", "trial", "seed"),
        )
        for name in ("parameters", "metrics"):
            if not isinstance(payload.get(name, {}), dict):
                got = json.dumps(payload[name])
                raise ValueError(f"{source}: field {name!r} must be an object, got {got}")
        payload.setdefault("metrics", {})
        records.append(payload)
    return records


def emit_curve(records, x_param: str, y_metric: str, q: float | None = None) -> str:
    """CSV with one row per x value: the metric's mean, or its quantile at
    ``q`` when given, and the trial count."""
    usable = [r for r in records if r["status"] == "ok"]
    if not usable:
        raise ValueError("no successful records selected")
    commands = {r["command"] for r in usable}
    if len(commands) != 1:
        raise ValueError(f"records mix commands {sorted(commands)}")
    groups: dict = {}
    for record in usable:
        if x_param not in record["parameters"]:
            raise ValueError(f"records missing parameter {x_param!r}")
        if y_metric not in record["metrics"]:
            raise ValueError(f"records missing metric {y_metric!r}")
        x_value, y_value = record["parameters"][x_param], record["metrics"][y_metric]
        where = f"record (cell {record['cell']}, trial {record['trial']})"
        if not isinstance(y_value, (int, float)):
            raise ValueError(f"metric {y_metric!r} of {where} is not a number: {json.dumps(y_value)}")
        if not isinstance(x_value, Hashable):
            raise ValueError(f"parameter {x_param!r} of {where} is not hashable: {json.dumps(x_value)}")
        groups.setdefault(x_value, []).append(float(y_value))
    try:
        x_values = sorted(groups)
    except TypeError:
        kinds = " and ".join(sorted({type(x).__name__ for x in groups}))
        raise ValueError(f"parameter {x_param!r} mixes {kinds} values, which do not sort") from None
    lines = [f"{x_param},{y_metric}_{'mean' if q is None else 'quantile'},count"]
    for x_value in x_values:
        values = groups[x_value]
        agg = float(np.mean(values)) if q is None else float(np.quantile(values, q))
        lines.append(f"{x_value},{agg!r},{len(values)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Single-run command handlers.
# ---------------------------------------------------------------------------


def _cmd_single(args) -> int:
    """One call of the command's runner on the loaded truth (or on the
    instance planted from ``--seed`` when there is none), plus ``elapsed_ms``."""
    truth = args.load(args.truth) if getattr(args, "truth", None) else None
    declared = getattr(args, "n", None)
    if truth is not None and declared is not None and declared != truth.n:
        raise ValueError(f"--n {declared} does not match the truth file ({truth.n} variables)")
    start = time.perf_counter()
    metrics = CELL_RUNNERS[args.runner](vars(args), args.seed, truth)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    print(json.dumps({**metrics, "elapsed_ms": elapsed_ms}, sort_keys=True))
    if args.out:
        Path(args.out).write_text(json.dumps(metrics, sort_keys=True) + "\n")
    return 0


def _cmd_qac0_choi(args) -> int:
    circuit = qac0.load_circuit(args.circuit)
    choi = (
        qac0.choi_state_full(circuit)
        if args.kind == "full"
        else qac0.choi_state_with_ancilla(circuit)
    )
    qstate.save_state(choi, args.out)
    print(json.dumps({"kind": args.kind, "qubits": choi.n, "out": args.out}))
    return 0


def _cmd_run(args) -> int:
    try:
        spec = ExperimentSpec.from_dict(json.loads(Path(args.spec).read_text()), args.spec)
    except (OSError, ValueError) as exc:
        print(f"invalid experiment spec: {exc}", file=sys.stderr)
        return 1
    if args.threads < 1:
        raise ValueError(f"--threads must be a positive integer, got {args.threads}")
    records = run_experiment(spec, threads=args.threads)
    lines = "".join(json_line(r) + "\n" for r in records)
    if args.out:
        Path(args.out).write_text(lines)
    else:
        print(lines, end="")
    failures = sum(r["status"] != "ok" for r in records)
    if failures:
        print(f"{failures}/{len(records)} records failed", file=sys.stderr)
        return 2
    return 0


def _parse_agg(text: str) -> float | None:
    """None for ``mean``, or the float of ``q<float>``, a quantile in [0, 1]."""
    if text == "mean":
        return None
    try:
        q = float(text[1:]) if text.startswith("q") else math.nan
    except ValueError:
        q = math.nan
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"--agg must be 'mean' or 'q<float>' with the float in [0, 1], got {text!r}")
    return q


def _cmd_curve(args) -> int:
    csv = emit_curve(load_records(args.records), args.x, args.y, _parse_agg(args.agg))
    if args.out:
        Path(args.out).write_text(csv)
    else:
        print(csv, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="juntalab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def single(p, runner: str, load=None):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        p.set_defaults(func=_cmd_single, runner=runner, load=load)
        return p

    def junta(name: str, summary: str, load, truth_help: str):
        p = single(sub.add_parser(name, help=summary), name, load)
        p.add_argument("--n", type=int, required=False)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--eps", type=float, required=True)
        p.add_argument("--delta", type=float, required=True)
        p.add_argument("--truth", required=True, help=truth_help)
        return p

    # default=argparse.SUPPRESS: an omitted flag leaves its key out, so the runner's default applies.
    p = junta("learn-dist", "learn a junta distribution from samples",
              load_distribution, "distribution JSON file")
    p.add_argument("--c", type=float, default=argparse.SUPPRESS)

    p = junta("learn-state", "learn a junta state from Pauli shadows",
              qstate.load_state, "state JSON file")
    p.add_argument("--c", type=float, default=argparse.SUPPRESS)

    p = junta("test-state", "test whether a state is close to a junta",
              qstate.load_state, "state JSON file")
    p.add_argument("--certifier", choices=("frobenius", "oracle"), default=argparse.SUPPRESS)

    qac0_parser = sub.add_parser("qac0", help="circuit Choi-state tooling")
    qac0_sub = qac0_parser.add_subparsers(dest="qac0_command", required=True)

    p = qac0_sub.add_parser("choi", help="write a circuit's Choi state")
    p.add_argument("--circuit", required=True)
    p.add_argument("--kind", choices=("sigma", "full"), default="sigma")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_qac0_choi)

    p = single(qac0_sub.add_parser("analyze", help="light cone and spectrum concentration"),
               "qac0-analyze", qac0.load_circuit)
    p.add_argument("--circuit", dest="truth", metavar="CIRCUIT", required=True)
    p.add_argument("--arity", type=int, default=argparse.SUPPRESS)

    p = single(qac0_sub.add_parser("learn", help="learn a circuit's Choi state"),
               "qac0-learn", qac0.load_circuit)
    p.add_argument("--circuit", dest="truth", metavar="CIRCUIT", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--c", type=float, default=argparse.SUPPRESS)

    shadows_parser = sub.add_parser("shadows", help="shadow estimation tooling")
    shadows_sub = shadows_parser.add_subparsers(dest="shadows_command", required=True)
    p = single(shadows_sub.add_parser("bench", help="estimation error against a known state"),
               "shadows-bench", qstate.load_state)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--k", type=int, default=argparse.SUPPRESS)
    p.add_argument("--truth", default=None)

    address_parser = sub.add_parser("address", help="address-function tooling")
    address_sub = address_parser.add_subparsers(dest="address_command", required=True)
    p = single(address_sub.add_parser("distance", help="exact distance to k-juntas"),
               "address-distance")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("run", help="run a grid experiment spec")
    p.add_argument("spec", help="experiment spec JSON file")
    p.add_argument("--threads", type=int, default=1, help="worker processes (default: 1)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("curve", help="aggregate records into a CSV curve")
    p.add_argument("--records", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--agg", default="mean", help="'mean' or 'q<float>' for a quantile")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_curve)

    return parser


def _keep_freed_arrays_mapped() -> None:
    """Keep freed arrays of up to 64 MiB, and 256 MiB of free top, in glibc's heap so that
    temporaries reuse mapped pages; set alone, the trim threshold pins mmap's at 128 KiB."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no glibc
        return
    mallopt(-3, 64 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


def _one_blas_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread: with its default threading, some processes
    stall about 64 ms on every 64 x 64 complex Cholesky. The setter is not a global symbol, so
    it is looked up in the library file; where the file or the setter is missing, nothing changes."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"):
        try:
            ctypes.CDLL(str(path)).scipy_openblas_set_num_threads64_(1)
        except (AttributeError, OSError, TypeError):
            pass


def main(argv=None) -> int:
    _keep_freed_arrays_mapped()
    _one_blas_thread()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
