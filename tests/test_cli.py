"""Experiment driver determinism, curves, and the command surface."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from juntalab import __version__, cli, dist_learn, qac0, qstate
from juntalab.cli import (
    CELL_RUNNERS,
    ExperimentSpec,
    _planted_junta_state,
    emit_curve,
    json_line,
    load_records,
    main,
    run_experiment,
)
from juntalab.qstate import save_state
import paulis


@pytest.fixture
def small_spec():
    return ExperimentSpec(
        command="learn-dist",
        grid={"n": [5], "k": [1, 2], "eps": [0.25], "delta": [0.1]},
        trials=2,
        seed=11,
    )


class TestRunExperiment:
    def test_record_count_matches_grid(self):
        spec = ExperimentSpec(
            command="address-distance",
            grid={"D": [1, 2], "k": [0, 1, 2]},
            trials=5,
            seed=0,
        )
        records = run_experiment(spec)
        assert len(records) == 2 * 3 * 5
        assert all(r["status"] == "ok" for r in records)

    def test_byte_identical_across_thread_counts(self, small_spec):
        first = run_experiment(small_spec, threads=1)
        second = run_experiment(small_spec, threads=4)
        assert [json_line(r) for r in first] == [json_line(r) for r in second]

    def test_replay_from_record_seed(self, small_spec):
        records = run_experiment(small_spec)
        record = records[-1]
        again = CELL_RUNNERS[record["command"]](record["parameters"], record["seed"])
        assert again == record["metrics"]

    def test_failures_recorded_not_raised(self):
        spec = ExperimentSpec(
            command="test-state",
            grid={"n": [4], "k": [1], "eps": [0.1], "delta": [0.2],
                  "case": ["nonsense"], "certifier": ["oracle"]},
            trials=1,
            seed=3,
        )
        records = run_experiment(spec)
        assert len(records) == 1
        assert records[0]["status"] == "error"
        assert "nonsense" in records[0]["error"]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(command="unknown", grid={"x": [1]}, trials=1, seed=0)
        with pytest.raises(ValueError):
            ExperimentSpec(command="learn-dist", grid={"n": []}, trials=1, seed=0)
        with pytest.raises(ValueError):
            ExperimentSpec(command="learn-dist", grid={"n": [4]}, trials=0, seed=0)


def _usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _counted_forks(monkeypatch, limit):
    """Patch os.fork to count its calls and refuse any past ``limit``."""
    calls, fork = [], os.fork

    def counted():
        calls.append(1)
        if len(calls) > limit:
            raise OSError(f"fork call {len(calls)} is past the limit of {limit}")
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerProcesses:
    @pytest.fixture
    def spec_path(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(
            {"command": "address-distance", "grid": {"D": [1, 2, 3], "k": [1]}, "seed": 0}
        ))
        return path

    def test_worker_count_is_capped_by_jobs_and_cpus(self, spec_path, tmp_path, monkeypatch):
        serial = tmp_path / "serial.jsonl"
        assert main(["run", str(spec_path), "--out", str(serial)]) == 0
        out = tmp_path / "out.jsonl"
        # (usable CPUs, os.sched_getaffinity present, os.fork present) -> forks for 3 jobs
        for cpus, affinity, fork, forks in ((64, True, True, 2), (1, True, True, 0),
                                           (2, False, True, 1), (64, True, False, 0)):
            with monkeypatch.context() as patch:
                _usable_cpus(patch, cpus)
                if not affinity:
                    patch.delattr(os, "sched_getaffinity")
                    patch.setattr(os, "cpu_count", lambda: cpus)
                calls = _counted_forks(patch, limit=2)
                if not fork:
                    patch.delattr(os, "fork")
                assert main(["run", str(spec_path), "--threads", "64", "--out", str(out)]) == 0
            assert len(calls) == forks
            assert out.read_bytes() == serial.read_bytes()
        _assert_no_child_left()

    def test_failed_worker_is_named_and_reaped(self, spec_path, monkeypatch, capsys):
        test_pid, runner = os.getpid(), CELL_RUNNERS["address-distance"]

        def dies_in_child(params, seed, truth=None):
            if os.getpid() != test_pid:
                os._exit(3)
            return runner(params, seed, truth)

        monkeypatch.setitem(CELL_RUNNERS, "address-distance", dies_in_child)
        _usable_cpus(monkeypatch, 2)
        assert main(["run", str(spec_path), "--threads", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: worker 1 of 2 failed: wait status 768\n"
        _assert_no_child_left()

    def test_interrupt_in_this_process_kills_the_children(self, monkeypatch):
        test_pid = os.getpid()

        def interrupted_here(params, seed, truth=None):
            if os.getpid() == test_pid:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setitem(CELL_RUNNERS, "address-distance", interrupted_here)
        _usable_cpus(monkeypatch, 3)
        spec = ExperimentSpec("address-distance", {"D": [1, 2, 3], "k": [1]}, trials=1, seed=0)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_experiment(spec, threads=3)
        assert time.monotonic() - start < 30
        _assert_no_child_left()

    def test_stdout_holds_each_record_once(self, spec_path):
        """A child that flushed the stdout buffer it inherited would print
        its content twice; the line printed first is still buffered when the
        workers fork."""
        src = Path(__file__).resolve().parents[1] / "src"
        path = [str(src), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        env.pop("PYTHONUNBUFFERED", None)  # it would flush the first line before the fork
        script = ("import sys; from juntalab.cli import main; print('first');"
                  f" sys.exit(main(['run', {str(spec_path)!r}, '--threads', '2']))")
        for argv in (["-m", "juntalab.cli", "run", str(spec_path), "--threads", "2"], ["-c", script]):
            done = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                                  env=env, timeout=60)
            assert done.returncode == 0, done.stderr
            spec = ExperimentSpec.from_dict(json.loads(spec_path.read_text()))
            lines = "".join(json_line(r) + "\n" for r in run_experiment(spec))
            assert done.stdout == ("first\n" if argv[0] == "-c" else "") + lines


class TestEmitCurve:
    def test_error_decreases_with_samples(self):
        spec = ExperimentSpec(
            command="shadows-bench",
            grid={"n": [2], "T": [500, 4000, 32000], "k": [1]},
            trials=4,
            seed=7,
        )
        records = run_experiment(spec)
        csv = emit_curve(records, "T", "max_abs_error")
        rows = [line.split(",") for line in csv.strip().splitlines()[1:]]
        values = [float(v) for _, v, _ in rows]
        assert [int(x) for x, _, _ in rows] == [500, 4000, 32000]
        assert values[0] > values[1] > values[2]
        assert all(c == "4" for _, _, c in rows)

    def test_quantile_of_constant_metric(self):
        spec = ExperimentSpec(
            command="address-distance", grid={"D": [1], "k": [1]}, trials=6, seed=0
        )
        records = run_experiment(spec)
        csv = emit_curve(records, "D", "distance", q=0.9)
        row = csv.strip().splitlines()[1].split(",")
        assert float(row[1]) == 0.25

    def test_empty_selection_errors(self):
        with pytest.raises(ValueError):
            emit_curve([], "T", "metric")

    @staticmethod
    def record(command):
        return {"command": command, "cell": 0, "trial": 0, "parameters": {"n": 4}, "seed": 1,
                "status": "ok", "metrics": {"tv_exact": 0.1}}

    def test_mixed_commands_error(self):
        a, b = self.record("learn-dist"), self.record("learn-state")
        with pytest.raises(ValueError):
            emit_curve([a, b], "n", "tv_exact")

    def test_missing_metric_errors(self):
        a = self.record("learn-dist")
        with pytest.raises(ValueError):
            emit_curve([a], "n", "nope")


class TestJsonLines:
    def test_round_trip(self, small_spec, tmp_path):
        records = run_experiment(small_spec)
        path = tmp_path / "records.jsonl"
        path.write_text("".join(json_line(r) + "\n" for r in records))
        back = load_records(path)
        assert back == records

    def test_record_has_no_timing(self, small_spec):
        record = run_experiment(small_spec)[0]
        payload = json.loads(json_line(record))
        assert "elapsed_ms" not in payload["metrics"]
        assert payload["version"].startswith("juntalab-")

    def test_version_spellings_agree(self):
        """The project's, the package's and the records' versions are one value."""
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
        assert pyproject["project"]["version"] == __version__
        assert cli.ARTIFACT_VERSION == f"juntalab-{__version__}"


class TestCommands:
    def test_learn_dist_command(self, tmp_path, capsys):
        truth, _ = dist_learn.random_junta_distribution(6, 2, np.random.default_rng(1))
        truth_path = tmp_path / "p.json"
        truth_path.write_text(json.dumps({"n": truth.n, "values": truth.values.tolist()}))
        before = truth_path.read_bytes()
        rc = main(
            [
                "learn-dist", "--k", "2", "--eps", "0.25", "--delta", "0.1",
                "--seed", "5", "--truth", str(truth_path),
                "--out", str(tmp_path / "res.json"),
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"T", "tv_exact", "elapsed_ms", "surviving_sets", "junta_variables"}
        assert payload["tv_exact"] <= 0.25
        stored = json.loads((tmp_path / "res.json").read_text())
        assert "elapsed_ms" not in stored
        assert truth_path.read_bytes() == before  # inputs never mutated

    def test_learn_state_command(self, tmp_path, capsys):
        truth = qstate.embed_on(
            qstate.random_density_matrix(1, np.random.default_rng(2)), (2,), 3
        )
        truth_path = tmp_path / "state.json"
        save_state(truth, truth_path)
        rc = main(
            [
                "learn-state", "--k", "1", "--eps", "0.3", "--delta", "0.1",
                "--seed", "4", "--truth", str(truth_path),
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "T", "trace_distance", "frobenius_merit", "support_recovered", "elapsed_ms",
        }
        assert payload["trace_distance"] <= 2**0.5 * 0.3

    def test_test_state_command(self, tmp_path, capsys):
        truth = qstate.embed_on(
            qstate.random_density_matrix(1, np.random.default_rng(3)), (1,), 3
        )
        truth_path = tmp_path / "state.json"
        save_state(truth, truth_path)
        rc = main(
            [
                "test-state", "--k", "1", "--eps", "0.15", "--delta", "0.1",
                "--seed", "2", "--truth", str(truth_path), "--certifier", "oracle",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["decision"] == "junta-close"
        assert len(payload["transcript"]) == 3

    def test_qac0_commands(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        circuit = qac0.random_circuit(2, 1, 2, rng)
        circuit_path = tmp_path / "circuit.json"
        circuit_path.write_text(json.dumps(paulis.circuit_json(circuit)))

        rc = main(["qac0", "choi", "--circuit", str(circuit_path),
                   "--out", str(tmp_path / "choi.json")])
        assert rc == 0
        capsys.readouterr()
        state = qstate.load_state(tmp_path / "choi.json")
        assert state.n == circuit.n + 1

        rc = main(["qac0", "analyze", "--circuit", str(circuit_path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["concentration_residual"] <= 1e-10
        assert payload["size"] == circuit.size

    def test_shadows_bench_command(self, capsys):
        rc = main(["shadows", "bench", "--n", "2", "--T", "5000", "--k", "1", "--seed", "9"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_abs_error"] < 0.1

    def test_address_command(self, capsys):
        rc = main(["address", "distance", "--D", "2", "--k", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload.pop("elapsed_ms") >= 0.0
        assert payload == {"degree": 3, "distance": 0.375, "lower_bound": 0.375}

    def test_run_command_exit_codes(self, tmp_path, capsys):
        spec = {"command": "address-distance", "grid": {"D": [1], "k": [0]},
                "trials": 1, "seed": 0}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        rc = main(["run", str(spec_path), "--out", str(tmp_path / "o.jsonl")])
        assert rc == 0

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"command": "unknown", "grid": {"x": [1]}}))
        assert main(["run", str(bad)]) == 1

        failing = {"command": "test-state",
                   "grid": {"n": [4], "k": [1], "eps": [0.1], "delta": [0.2],
                            "case": ["nonsense"], "certifier": ["oracle"]},
                   "trials": 1, "seed": 0}
        failing_path = tmp_path / "failing.json"
        failing_path.write_text(json.dumps(failing))
        assert main(["run", str(failing_path), "--out", str(tmp_path / "f.jsonl")]) == 2

    @pytest.mark.parametrize("threads", [0, -3])
    def test_run_rejects_threads_below_one(self, threads, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            {"command": "address-distance", "grid": {"D": [1], "k": [0]}, "seed": 0}
        ))
        assert main(["run", str(spec_path), "--threads", str(threads)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --threads must be a positive integer, got {threads}\n"

    def test_curve_command(self, tmp_path, capsys):
        spec = {"command": "address-distance", "grid": {"D": [1, 2], "k": [1]},
                "trials": 2, "seed": 0}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out_path = tmp_path / "records.jsonl"
        assert main(["run", str(spec_path), "--out", str(out_path)]) == 0
        rc = main(["curve", "--records", str(out_path), "--x", "D", "--y", "distance"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "D,distance_mean,count"
        assert len(lines) == 3

    CURVE_RECORDS = [
        {"command": "learn-dist", "cell": 0, "trial": trial, "seed": 1, "status": "ok",
         "parameters": {"n": 4, "grid_tag": [1, 2]},
         "metrics": {"T": 10 + trial, "recovered": trial == 0, "surviving_sets": [[], [1]], "name": "a"}}
        for trial in range(2)
    ]

    def curve(self, tmp_path, capsys, *argv, records=CURVE_RECORDS):
        path = tmp_path / "records.jsonl"
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
        rc = main(["curve", "--records", str(path), *argv])
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    def test_curve_rejects_non_numeric_metric(self, tmp_path, capsys):
        assert self.curve(tmp_path, capsys, "--x", "n", "--y", "surviving_sets") == (
            1, "", "error: metric 'surviving_sets' of record (cell 0, trial 0) is not a number: [[], [1]]\n"
        )
        assert self.curve(tmp_path, capsys, "--x", "n", "--y", "name") == (
            1, "", 'error: metric \'name\' of record (cell 0, trial 0) is not a number: "a"\n'
        )
        # Booleans count as 0 and 1.
        assert self.curve(tmp_path, capsys, "--x", "n", "--y", "recovered") == (
            0, "n,recovered_mean,count\n4,0.5,2\n", ""
        )

    def test_curve_rejects_unhashable_parameter(self, tmp_path, capsys):
        assert self.curve(tmp_path, capsys, "--x", "grid_tag", "--y", "T") == (
            1, "", "error: parameter 'grid_tag' of record (cell 0, trial 0) is not hashable: [1, 2]\n"
        )

    def test_curve_rejects_parameter_values_that_do_not_sort(self, tmp_path, capsys):
        records = [dict(record, parameters={"n": n}) for record, n in zip(self.CURVE_RECORDS, [4, "4"])]
        assert self.curve(tmp_path, capsys, "--x", "n", "--y", "T", records=records) == (
            1, "", "error: parameter 'n' mixes int and str values, which do not sort\n"
        )

    @pytest.mark.parametrize("agg", ["qx", "q", "q1.5", "qnan", "median"])
    def test_curve_rejects_malformed_agg(self, agg, tmp_path, capsys):
        want = f"error: --agg must be 'mean' or 'q<float>' with the float in [0, 1], got {agg!r}\n"
        assert self.curve(tmp_path, capsys, "--x", "n", "--y", "T", "--agg", agg) == (1, "", want)
        assert self.curve(tmp_path, capsys, "--x", "n", "--y", "T", "--agg", "q0.5") == (
            0, "n,T_quantile,count\n4,10.5,2\n", ""
        )


# (command, grid parameters, the same run's command line without its truth file)
ONE_PATH_CASES = [
    ("learn-dist", {"n": 6, "k": 2, "eps": 0.25, "delta": 0.1},
     ["learn-dist", "--n", "6", "--k", "2", "--eps", "0.25", "--delta", "0.1"]),
    ("learn-state", {"n": 3, "k": 1, "eps": 0.3, "delta": 0.1},
     ["learn-state", "--n", "3", "--k", "1", "--eps", "0.3", "--delta", "0.1"]),
    ("test-state", {"n": 3, "k": 1, "eps": 0.15, "delta": 0.1, "certifier": "frobenius"},
     ["test-state", "--n", "3", "--k", "1", "--eps", "0.15", "--delta", "0.1",
      "--certifier", "frobenius"]),
    ("qac0-analyze", {"n": 2, "a": 1, "depth": 2, "arity": 2},
     ["qac0", "analyze", "--arity", "2"]),
    ("qac0-learn", {"n": 2, "a": 1, "depth": 1, "eps": 0.5, "delta": 0.1},
     ["qac0", "learn", "--eps", "0.5", "--delta", "0.1"]),
    ("shadows-bench", {"n": 2, "T": 2000, "k": 1},
     ["shadows", "bench", "--n", "2", "--T", "2000", "--k", "1"]),
]


def save_planted_instance(command, params, seed, path):
    """Write the instance the grid runner plants for (params, seed)."""
    rng = np.random.default_rng([seed, 0])
    if command == "learn-dist":
        truth = dist_learn.random_junta_distribution(params["n"], params["k"], rng)[0]
        path.write_text(json.dumps({"n": truth.n, "values": truth.values.tolist()}))
    elif command in ("learn-state", "test-state"):
        save_state(_planted_junta_state(params["n"], params["k"], rng)[0], path)
    elif command == "shadows-bench":
        save_state(qstate.random_density_matrix(params["n"], rng), path)
    else:
        circuit = qac0.random_circuit(params["n"], params["a"], params["depth"], rng)
        path.write_text(json.dumps(paulis.circuit_json(circuit)))


@pytest.mark.parametrize("command,params,argv", ONE_PATH_CASES, ids=[c[0] for c in ONE_PATH_CASES])
def test_single_run_is_the_grid_runner_on_the_planted_truth(command, params, argv, tmp_path, capsys):
    seed = 12_345_678_901_234_567_890
    truth_path = tmp_path / "truth.json"
    save_planted_instance(command, params, seed, truth_path)
    truth_flag = "--circuit" if command.startswith("qac0") else "--truth"
    assert main([*argv, truth_flag, str(truth_path), "--seed", str(seed)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed.pop("elapsed_ms") >= 0.0
    expected = CELL_RUNNERS[command](params, seed)
    for planted_only in ("planted_variables", "correct"):
        expected.pop(planted_only, None)
    assert printed == expected


def test_test_state_certifier_defaults_to_frobenius_in_grid_and_command(tmp_path, capsys):
    """A grid cell and a command line that name no certifier both spend
    Frobenius certification copies, and agree."""
    params, seed = {"n": 3, "k": 1, "eps": 0.3, "delta": 0.1}, 5
    record = CELL_RUNNERS["test-state"](params, seed)
    assert record == CELL_RUNNERS["test-state"]({**params, "certifier": "frobenius"}, seed)
    assert record["certification_copies"] > 0
    truth_path = tmp_path / "truth.json"
    save_planted_instance("test-state", params, seed, truth_path)
    argv = ["test-state", "--k", "1", "--eps", "0.3", "--delta", "0.1", "--truth", str(truth_path)]
    assert main([*argv, "--seed", str(seed)]) == 0
    printed = json.loads(capsys.readouterr().out)
    printed.pop("elapsed_ms")
    record.pop("correct")
    assert printed == record


class TestLoadersNameMissingFields:
    def run_on(self, tmp_path, capsys, argv, name, payload):
        path = tmp_path / name
        path.write_text(payload)
        assert main([*argv, str(path)]) == 1
        return capsys.readouterr().err

    @pytest.mark.parametrize("field", ["command", "grid"])
    def test_experiment_spec(self, field, tmp_path, capsys):
        spec = {"command": "address-distance", "grid": {"D": [1], "k": [0]}, "seed": 0}
        del spec[field]
        err = self.run_on(tmp_path, capsys, ["run"], "spec.json", json.dumps(spec))
        assert "spec.json" in err and f"missing field '{field}'" in err

    @pytest.mark.parametrize("field, value", [("command", 5), ("grid", 5), ("trials", [2]), ("seed", None)])
    def test_experiment_spec_field_type(self, field, value, tmp_path, capsys):
        spec = {"command": "address-distance", "grid": {"D": [1], "k": [0]}, "trials": 1, "seed": 0}
        spec[field] = value
        err = self.run_on(tmp_path, capsys, ["run"], "spec.json", json.dumps(spec))
        assert err.startswith("invalid experiment spec: ") and "spec.json" in err
        assert f"field '{field}' must be" in err

    @pytest.mark.parametrize("field, value, want", [("out", "records.jsonl", "unknown field 'out'"),
                                                    ("seed", -1, "a nonnegative integer, got -1")])
    def test_experiment_spec_field_value(self, field, value, want, tmp_path, capsys):
        spec = {"command": "address-distance", "grid": {"D": [1], "k": [0]}, field: value}
        err = self.run_on(tmp_path, capsys, ["run"], "spec.json", json.dumps(spec))
        assert err.startswith("invalid experiment spec: ") and "spec.json" in err
        assert f"field '{field}'" in err and err.endswith(f"{want}\n")

    @pytest.mark.parametrize("field, value, want", [
        ("grid", {"D": 2}, "grid parameter 'D' must be a nonempty list, got 2"),
        ("grid", {"D": []}, "grid parameter 'D' must be a nonempty list, got []"),
        ("grid", {}, "field 'grid' must name at least one parameter, got {}"),
        ("trials", 0, "field 'trials' must be at least 1, got 0"),
    ], ids=["grid-value-not-list", "grid-value-empty", "grid-empty", "trials-zero"])
    def test_experiment_spec_grid_and_trials(self, field, value, want, tmp_path, capsys):
        spec = {"command": "address-distance", "grid": {"D": [1], "k": [0]}, field: value}
        err = self.run_on(tmp_path, capsys, ["run"], "spec.json", json.dumps(spec))
        assert err == f"invalid experiment spec: {tmp_path / 'spec.json'}: {want}\n"

    def test_experiment_spec_grid_parameter_no_runner_reads(self, tmp_path, capsys):
        grid = {"n": [6], "k": [1], "eps": [0.3], "delta": [0.1], "C": [1, 64]}
        spec = {"command": "learn-dist", "grid": grid, "seed": 1}
        err = self.run_on(tmp_path, capsys, ["run"], "spec.json", json.dumps(spec))
        want = "command 'learn-dist' reads no grid parameter 'C'"
        assert err == f"invalid experiment spec: {tmp_path / 'spec.json'}: {want}\n"

    def test_records(self, tmp_path, capsys):
        line = json.dumps({"cell": 0, "trial": 0, "parameters": {}, "seed": 1, "status": "ok"})
        err = self.run_on(tmp_path, capsys, ["curve", "--x", "n", "--y", "T", "--records"],
                          "records.jsonl", line + "\n")
        assert "records.jsonl line 1" in err and "'command'" in err

    @pytest.mark.parametrize("field", ["parameters", "metrics"])
    def test_records_field_type(self, field, tmp_path, capsys):
        record = {"command": "learn-dist", "cell": 0, "trial": 0, "parameters": {"n": 3},
                  "seed": 1, "status": "ok", "metrics": {"T": 3}}
        record[field] = 5
        err = self.run_on(tmp_path, capsys, ["curve", "--x", "n", "--y", "T", "--records"],
                          "records.jsonl", json.dumps(record) + "\n")
        assert err == f"error: {tmp_path / 'records.jsonl'} line 1: field '{field}' must be an object, got 5\n"

    def test_state(self, tmp_path, capsys):
        err = self.run_on(tmp_path, capsys,
                          ["learn-state", "--k", "1", "--eps", "0.3", "--delta", "0.1", "--truth"],
                          "state.json", json.dumps({"n": 1, "im": [[0, 0], [0, 0]]}))
        assert "state.json" in err and "'re'" in err

    def test_distribution(self, tmp_path, capsys):
        err = self.run_on(tmp_path, capsys,
                          ["learn-dist", "--k", "1", "--eps", "0.3", "--delta", "0.1", "--truth"],
                          "dist.json", json.dumps({"n": 2}))
        assert "dist.json" in err and "'values'" in err

    def test_distribution_values_type(self, tmp_path, capsys):
        err = self.run_on(tmp_path, capsys,
                          ["learn-dist", "--k", "1", "--eps", "0.3", "--delta", "0.1", "--truth"],
                          "dist.json", json.dumps({"n": 1, "values": {"a": 1}}))
        assert err == f"error: {tmp_path / 'dist.json'}: field 'values' must be a list of numbers\n"

    def test_distribution_n_type(self, tmp_path, capsys):
        err = self.run_on(tmp_path, capsys,
                          ["learn-dist", "--k", "1", "--eps", "0.3", "--delta", "0.1", "--truth"],
                          "dist.json", json.dumps({"n": [2], "values": [0.25] * 4}))
        assert err == f"error: {tmp_path / 'dist.json'}: field 'n' must be an integer, got [2]\n"

    def test_state_n_type(self, tmp_path, capsys):
        zeros = [[0, 0], [0, 0]]
        err = self.run_on(tmp_path, capsys,
                          ["learn-state", "--k", "1", "--eps", "0.3", "--delta", "0.1", "--truth"],
                          "state.json", json.dumps({"n": [1], "re": [[0.5, 0], [0, 0.5]], "im": zeros}))
        assert err == f"error: {tmp_path / 'state.json'}: field 'n' must be an integer, got [1]\n"

    @pytest.mark.parametrize("field, value", [("cell", [0]), ("trial", True), ("seed", 1.5)])
    def test_records_integer_fields(self, field, value, tmp_path, capsys):
        record = {"command": "learn-dist", "cell": 0, "trial": 0, "parameters": {"n": 3},
                  "seed": 1, "status": "ok", "metrics": {"T": 3}}
        record[field] = value
        err = self.run_on(tmp_path, capsys, ["curve", "--x", "n", "--y", "T", "--records"],
                          "records.jsonl", json.dumps(record) + "\n")
        got = json.dumps(value)
        assert err == f"error: {tmp_path / 'records.jsonl'} line 1: field '{field}' must be an integer, got {got}\n"

    @pytest.mark.parametrize("gate, field, value", [
        (None, "n", [2]), (None, "a", True), (0, "q", 1.0), (1, "target", [4]), (1, "controls", "23"),
    ])
    def test_circuit_integer_fields(self, gate, field, value, tmp_path, capsys):
        layer = (qac0.SingleQubitGate(1, np.eye(2)), qac0.ToffoliGate((2, 3), 4))
        payload = paulis.circuit_json(qac0.Qac0Circuit(2, 1, (layer,)))
        (payload if gate is None else payload["layers"][0][gate])[field] = value
        err = self.run_on(tmp_path, capsys, ["qac0", "analyze", "--circuit"],
                          "circuit.json", json.dumps(payload))
        source = tmp_path / "circuit.json"
        source = source if gate is None else f"{source} layer 0 gate {gate}"
        kind = "a list of integers" if field == "controls" else "an integer"
        assert err == f"error: {source}: field '{field}' must be {kind}, got {json.dumps(value)}\n"

    @pytest.mark.parametrize("layers", [5, [5]])
    def test_circuit_layers_type(self, layers, tmp_path, capsys):
        circuit = qac0.random_circuit(2, 1, 1, np.random.default_rng(0))
        payload = paulis.circuit_json(circuit)
        payload["layers"] = layers
        err = self.run_on(tmp_path, capsys, ["qac0", "analyze", "--circuit"],
                          "circuit.json", json.dumps(payload))
        assert err == f"error: {tmp_path / 'circuit.json'}: field 'layers' must be a list of lists of gates\n"

    def test_circuit(self, tmp_path, capsys):
        circuit = qac0.random_circuit(2, 1, 1, np.random.default_rng(0))
        payload = paulis.circuit_json(circuit)
        del payload["layers"][0][0]["type"]
        err = self.run_on(tmp_path, capsys, ["qac0", "analyze", "--circuit"],
                          "circuit.json", json.dumps(payload))
        assert "circuit.json layer 0 gate 0" in err and "'type'" in err
        del payload["sigma"]
        err = self.run_on(tmp_path, capsys, ["qac0", "analyze", "--circuit"],
                          "circuit.json", json.dumps(payload))
        assert "circuit.json" in err and "'sigma'" in err


    def complex_field_case(self, target, tmp_path):
        """(argv, file name, payload, the object holding its re/im, its source
        in messages) for a state file, a circuit's sigma or a circuit's gate."""
        if target == "state":
            payload = {"n": 1, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}
            argv = ["learn-state", "--k", "1", "--eps", "0.3", "--delta", "0.1", "--truth"]
            return argv, "state.json", payload, payload, tmp_path / "state.json"
        layer = (qac0.SingleQubitGate(1, np.eye(2)), qac0.ToffoliGate((2, 3), 4))
        payload = paulis.circuit_json(qac0.Qac0Circuit(2, 1, (layer,)))
        source = tmp_path / "circuit.json"
        if target == "sigma":
            holder, source = payload["sigma"], f"{source} sigma"
        else:
            holder, source = payload["layers"][0][0], f"{source} layer 0 gate 0"
        return ["qac0", "analyze", "--circuit"], "circuit.json", payload, holder, source

    @pytest.mark.parametrize("target", ["state", "sigma", "gate"])
    def test_im_shape_must_equal_re_shape(self, target, tmp_path, capsys):
        argv, name, payload, holder, source = self.complex_field_case(target, tmp_path)
        shape = np.shape(holder["re"])
        holder["im"] = [[0.0] * shape[1]]
        err = self.run_on(tmp_path, capsys, argv, name, json.dumps(payload))
        want = f"fields 're' and 'im' must be 2-D lists of one shape, got {shape} and {(1, shape[1])}"
        assert err == f"error: {source}: {want}\n"

    @pytest.mark.parametrize("target", ["state", "sigma", "gate"])
    def test_ragged_re_is_named(self, target, tmp_path, capsys):
        argv, name, payload, holder, source = self.complex_field_case(target, tmp_path)
        holder["re"][-1] = holder["re"][-1][:1]
        err = self.run_on(tmp_path, capsys, argv, name, json.dumps(payload))
        assert err == f"error: {source}: field 're' must be a rectangular list of numbers\n"

    @pytest.mark.parametrize("target", ["state", "gate"])
    def test_nan_entry_is_rejected(self, target, tmp_path, capsys):
        argv, name, payload, holder, _ = self.complex_field_case(target, tmp_path)
        holder["re"][0][1] = float("nan")
        err = self.run_on(tmp_path, capsys, argv, name, json.dumps(payload))
        assert "non-finite entry" in err

    @pytest.mark.parametrize("bad", ["0.25", True, None, {}], ids=["string", "boolean", "null", "object"])
    def test_distribution_values_must_be_numbers(self, bad, tmp_path, capsys):
        err = self.run_on(tmp_path, capsys,
                          ["learn-dist", "--k", "1", "--eps", "0.3", "--delta", "0.1", "--truth"],
                          "dist.json", json.dumps({"n": 2, "values": [0.25, 0.25, 0.25, bad]}))
        got = json.dumps(bad)
        assert err == f"error: {tmp_path / 'dist.json'}: field 'values' must hold numbers only, got {got}\n"

    @pytest.mark.parametrize("bad", ["0", False, None, {}], ids=["string", "boolean", "null", "object"])
    @pytest.mark.parametrize("target", ["state", "sigma", "gate"])
    def test_state_and_circuit_entries_must_be_numbers(self, target, bad, tmp_path, capsys):
        argv, name, payload, holder, source = self.complex_field_case(target, tmp_path)
        holder["im"][0][1] = bad
        err = self.run_on(tmp_path, capsys, argv, name, json.dumps(payload))
        assert err == f"error: {source}: field 'im' must hold numbers only, got {json.dumps(bad)}\n"

    def test_distribution_integer_past_float64_is_named(self, tmp_path, capsys):
        err = self.run_on(tmp_path, capsys,
                          ["learn-dist", "--k", "1", "--eps", "0.3", "--delta", "0.1", "--truth"],
                          "dist.json", '{"n": 1, "values": [1' + "0" * 340 + ', 0]}')
        want = f"field 'values' holds 1{'0' * 340}, past the float64 range"
        assert err == f"error: {tmp_path / 'dist.json'}: {want}\n"

    @pytest.mark.parametrize("target", ["state", "sigma", "gate"])
    def test_state_and_circuit_integer_past_float64_is_named(self, target, tmp_path, capsys):
        argv, name, payload, holder, source = self.complex_field_case(target, tmp_path)
        holder["re"][0][1] = -(10**340)
        err = self.run_on(tmp_path, capsys, argv, name, json.dumps(payload))
        assert err == f"error: {source}: field 're' holds {-(10**340)}, past the float64 range\n"

    @pytest.mark.parametrize("header, want", [
        (7, "header n=7 must equal a + 1 = 2, at most 10"),
        (1, "header n=1 must equal a + 1 = 2, at most 10"),
        ("2", 'field \'n\' must be an integer, got "2"'),
        (None, "missing field 'n'"),
    ], ids=["past-a", "below-a", "string", "missing"])
    def test_circuit_sigma_header_is_checked_against_a(self, header, want, tmp_path, capsys):
        argv, name, payload, holder, source = self.complex_field_case("sigma", tmp_path)
        if header is None:
            del holder["n"]
        else:
            holder["n"] = header
        err = self.run_on(tmp_path, capsys, argv, name, json.dumps(payload))
        assert err == f"error: {source}: {want}\n"

    def test_circuit_sigma_header_is_checked_against_body(self, tmp_path, capsys):
        argv, name, payload, holder, source = self.complex_field_case("sigma", tmp_path)
        holder["re"], holder["im"] = [[1, 0], [0, 0]], [[0, 0], [0, 0]]
        err = self.run_on(tmp_path, capsys, argv, name, json.dumps(payload))
        assert err == f"error: {source}: header n=2 needs shape (4, 4), body has (2, 2)\n"


ZERO_QUBIT_COMMANDS = {
    "learn-state": ["learn-state", "--k", "0", "--eps", "0.3", "--delta", "0.1", "--truth"],
    "test-state": ["test-state", "--k", "0", "--eps", "0.3", "--delta", "0.1", "--truth"],
    "shadows-bench": ["shadows", "bench", "--n", "0", "--T", "100", "--truth"],
}


@pytest.mark.parametrize("argv", ZERO_QUBIT_COMMANDS.values(), ids=ZERO_QUBIT_COMMANDS)
def test_zero_qubit_truth_is_refused(argv, tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"n": 0, "re": [[1]], "im": [[0]]}))
    assert main([*argv, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: measurement needs a state of at least 1 qubit, got 0\n"


@pytest.mark.parametrize("command, params", [
    ("learn-state", {"n": 0, "k": 0, "eps": 0.3, "delta": 0.1}),
    ("test-state", {"n": 0, "k": 0, "eps": 0.3, "delta": 0.1}),
    ("shadows-bench", {"n": 0, "T": 100}),
], ids=["learn-state", "test-state", "shadows-bench"])
def test_zero_qubit_planted_cell_is_refused(command, params):
    with pytest.raises(ValueError, match="^measurement needs a state of at least 1 qubit, got 0$"):
        CELL_RUNNERS[command](params, 1)


# Metrics of one cell per runner, as json.dumps(metrics, sort_keys=True)
# printed before spectra became index and value arrays; a change to any
# learner or tester path that moves a record shows here.
PINNED_RECORDS = [
    (
        "learn-dist", {"n": 10, "k": 3, "eps": 0.2, "delta": 0.1}, 4,
        '{"T": 22105, "junta_variables": [6, 9, 10], "planted_variables": [6, 9, 10], '
        '"surviving_sets": [[], [10], [9], [9, 10], [6], [6, 10], [6, 9, 10]], '
        '"tv_exact": 0.009980704723740219}',
    ),
    (
        "learn-state", {"n": 4, "k": 2, "eps": 0.3, "delta": 0.1}, 4,
        '{"T": 93087, "frobenius_merit": 0.00037449056923777806, "planted_variables": [3, 4], '
        '"support_recovered": true, "trace_distance": 0.017103692614631787}',
    ),
    (
        # Re-pinned when each tester stage became one collection.
        "test-state",
        {"n": 3, "k": 1, "eps": 0.1, "delta": 0.1, "certifier": "frobenius", "case": "close"}, 7,
        '{"best_K": [3], "certification_copies": 13481, "copies_used": 120971, "correct": true, '
        '"decision": "junta-close", "tomography_copies": 107490, "transcript": ['
        '{"K": [1], "statistic": 0.8799414863782804, "verdict": "far"}, '
        '{"K": [2], "statistic": 0.8802592945053166, "verdict": "far"}, '
        '{"K": [3], "statistic": 0.21721693411172519, "verdict": "close"}]}',
    ),
    (
        # Re-pinned when shadows-bench moved onto SimulatedStateAccess.collect.
        "shadows-bench", {"n": 3, "T": 2000, "k": 2}, 5,
        '{"T": 2000, "k": 2, "max_abs_error": 0.014433142218903485, "rms_error": 0.006920591145359596}',
    ),
]


@pytest.mark.parametrize("command,params,seed,expected", PINNED_RECORDS,
                         ids=[case[0] for case in PINNED_RECORDS])
def test_pinned_records(command, params, seed, expected):
    assert json.dumps(CELL_RUNNERS[command](params, seed), sort_keys=True) == expected


# command -> (tiny grid, sha256 of its records at seed 1 joined by newlines):
# every runner's records, byte for byte, across library changes.
PINNED_GRIDS = {
    "learn-dist": ({"n": [6], "k": [1, 2], "eps": [0.25], "delta": [0.1]},
                   "84c5e813931a4fd721a6a64c211c82fa5f21b361609bde9a92f497522ce15a33"),
    "learn-state": ({"n": [3], "k": [1], "eps": [0.3], "delta": [0.1]},
                    "f64b9717f7f85b8326561813916ccc6113461964e89459c9389bc58e3efb3f47"),
    "test-state": ({"n": [3], "k": [1], "eps": [0.3], "delta": [0.1], "case": ["close", "far"],
                    "certifier": ["oracle", "frobenius"]},
                   "09b6cfa20a8f162c6342de171eeb35e6dbe2c5f27df2de4e49b102a0d1ebd8c9"),
    "shadows-bench": ({"n": [3], "T": [2000]},
                      "0906cd73924bff124ed564933488f9598f52d105298813ef06b46b14a8348273"),
    "address-distance": ({"D": [1, 2], "k": [1]},
                         "4d63c82f894bb3f029e3943745612c2d796d91f8387756c9561e1d6532bb8622"),
    "qac0-analyze": ({"n": [2], "a": [1], "depth": [1, 2]},
                     "2c15795b5b3942b5696a4a23165582bc3130d2ca07a91bb804f4e3e1113afa8a"),
    "qac0-learn": ({"n": [2], "a": [1], "depth": [1], "eps": [0.5], "delta": [0.1]},
                   "a192fed2c8df862d0f58733fd2cbe48a3d883d24518fd6c03d9e76d657af85cc"),
}


@pytest.mark.filterwarnings("ignore:junta arity bound")
@pytest.mark.parametrize("command", sorted(CELL_RUNNERS))
def test_pinned_grid_records(command, monkeypatch):
    """At 1, 2 and 3 workers; three trials so that every worker has a job.
    Trial 0 of each cell is the record a one-trial grid holds."""
    grid, digest = PINNED_GRIDS[command]
    _usable_cpus(monkeypatch, 3)
    forks = _counted_forks(monkeypatch, limit=3)
    runs = []
    for workers in (1, 2, 3):
        records = run_experiment(ExperimentSpec(command, grid, trials=3, seed=1), threads=workers)
        assert all(record["status"] == "ok" for record in records)
        lines = "\n".join(json_line(record) for record in records if record["trial"] == 0)
        assert hashlib.sha256(lines.encode()).hexdigest() == digest
        assert len(forks) == workers * (workers - 1) // 2
        runs.append([json_line(record) for record in records])
    assert runs[0] == runs[1] == runs[2]


class ReadRecordingParams(dict):
    """Grid parameters that note every key read through ``[]`` or ``get``."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.filterwarnings("ignore:junta arity bound")
@pytest.mark.parametrize("command", sorted(CELL_RUNNERS))
def test_grid_parameters_are_the_keys_each_runner_reads(command):
    """``cli.GRID_PARAMETERS`` cannot drift from the runners: on its pinned
    grid's first cell, each runner reads exactly its listed names."""
    grid, _ = PINNED_GRIDS[command]
    params = ReadRecordingParams(ExperimentSpec(command, grid, trials=1, seed=1).cells()[0])
    CELL_RUNNERS[command](params, 1)
    assert params.read == cli.GRID_PARAMETERS[command]


def test_pinned_learn_dist_records_at_benchmark_size(monkeypatch):
    """The benchmark's n = 20, k = 3 cell beside n = 12 and k = 0, at 1 and
    2 workers: the dense truth, sampler, rounding and TV replay at 2^20."""
    grid = {"n": [12, 20], "k": [0, 3], "eps": [0.2], "delta": [0.1]}
    _usable_cpus(monkeypatch, 2)
    for workers in (1, 2):
        records = run_experiment(ExperimentSpec("learn-dist", grid, trials=1, seed=1), threads=workers)
        assert all(record["status"] == "ok" for record in records)
        lines = "\n".join(json_line(record) for record in records)
        assert hashlib.sha256(lines.encode()).hexdigest() == (
            "2fea885d065c6743863b72590e3cd144ff96c30c13b5df457724ea190ee68f5e"
        )


def test_pinned_qac0_analyze_records_at_benchmark_size(monkeypatch):
    """The benchmark's n = 3, a = 1 cells at depths 1-3, for arities 2-4, at
    1 and 2 workers: 5-qubit circuits with gates removed and with none."""
    grid = {"n": [3], "a": [1], "depth": [1, 2, 3], "arity": [2, 3, 4]}
    _usable_cpus(monkeypatch, 2)
    for workers in (1, 2):
        records = run_experiment(ExperimentSpec("qac0-analyze", grid, trials=3, seed=1), threads=workers)
        assert all(record["status"] == "ok" for record in records)
        assert {record["metrics"]["removed_gates"] > 0 for record in records} == {False, True}
        lines = "\n".join(json_line(record) for record in records)
        assert hashlib.sha256(lines.encode()).hexdigest() == (
            "ab0319376e7579ba19c5715b552436525596a0287b4fc101e3ef286907dd8be5"
        )


def test_qac0_analyze_cell_builds_each_choi_tensor_once(monkeypatch):
    """One Choi state and one Pauli tensor per cell, and a second of each
    only for the pruned circuit when gates were removed."""
    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    tensor = counted("pauli_tensor", qstate.pauli_tensor)
    monkeypatch.setattr(qstate, "pauli_tensor", tensor)
    monkeypatch.setattr(qac0, "pauli_tensor", tensor)
    monkeypatch.setattr(qac0, "choi_state_full", counted("choi_state_full", qac0.choi_state_full))
    nothing_removed = set()
    for seed in range(1, 5):
        for arity in (2, 3, 4):
            calls.update(pauli_tensor=0, choi_state_full=0)
            metrics = CELL_RUNNERS["qac0-analyze"]({"n": 3, "a": 1, "depth": 2, "arity": arity}, seed)
            builds = 1 if metrics["removed_gates"] == 0 else 2
            assert calls == {"pauli_tensor": builds, "choi_state_full": builds}
            nothing_removed.add(metrics["removed_gates"] == 0)
    assert nothing_removed == {False, True}


def test_qac0_analyze_checks_arity_above_the_full_choi_cap(tmp_path, capsys):
    """Arity 0 is refused on 7-qubit circuits too, which get no Choi state."""
    grid = {"n": [3, 5], "a": [1], "depth": [2], "arity": [0]}
    records = run_experiment(ExperimentSpec("qac0-analyze", grid, trials=1, seed=1))
    assert [(record["status"], record["error"]) for record in records] == [
        ("error", "ValueError('arity threshold must be at least 1')")
    ] * 2
    circuit = qac0.random_circuit(5, 1, 2, np.random.default_rng(4))
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(paulis.circuit_json(circuit)))
    assert main(["qac0", "analyze", "--circuit", str(path), "--arity", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: arity threshold must be at least 1\n"


def test_pinned_test_state_records_at_k0_and_k2():
    """The pinned test-state grid holds only k = 1; these are the empty
    subset (no tomography copies) and the pairs of n = 3, for both
    statistics and both cases."""
    grid = {"n": [3], "k": [0, 2], "eps": [0.3], "delta": [0.1], "case": ["close", "far"],
            "certifier": ["oracle", "frobenius"]}
    records = run_experiment(ExperimentSpec("test-state", grid, trials=1, seed=1))
    lines = "\n".join(json_line(record) for record in records)
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "4766d19bed28122940d0329a690e08dcc53c9518dd6b915e78e5a76ce5380a63"
    )


class TestHeapPolicy:
    """``main`` sets glibc's mmap and trim thresholds once, before it parses
    or dispatches, and runs the command where ``mallopt`` is missing."""

    ARGV = ["address", "distance", "--D", "2", "--k", "1"]

    def _dispatch_logged(self, monkeypatch, log):
        runner = CELL_RUNNERS["address-distance"]

        def logged(*args):
            log.append("dispatch")
            return runner(*args)

        monkeypatch.setitem(CELL_RUNNERS, "address-distance", logged)

    def test_sets_both_thresholds_before_dispatch(self, monkeypatch, capsys):
        log = []

        class Libc:
            def mallopt(self, param, value):
                log.append((param, value))
                return 1

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Libc())
        self._dispatch_logged(monkeypatch, log)
        assert main(self.ARGV) == 0
        assert log == [(-3, 64 << 20), (-1, 256 << 20), "dispatch"]

    @pytest.mark.parametrize("missing", ["no mallopt", "no library"])
    def test_runs_without_mallopt(self, missing, monkeypatch, capsys):
        def cdll(name):
            if missing == "no library":
                raise OSError("cannot open the C library")
            return object()

        log = []
        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        self._dispatch_logged(monkeypatch, log)
        assert main(self.ARGV) == 0
        assert log == ["dispatch"]
        assert "distance" in capsys.readouterr().out


class TestBlasThreads:
    """``main`` sets numpy's bundled OpenBLAS to one thread before it
    dispatches, through the setter in the library file, and runs the command
    where the file or the setter is missing."""

    ARGV = TestHeapPolicy.ARGV

    def _fake_numpy(self, monkeypatch, tmp_path, library: bool):
        # numpy.libs sits next to the numpy package directory.
        (tmp_path / "numpy.libs").mkdir()
        if library:
            (tmp_path / "numpy.libs" / "libscipy_openblas64_-0123abcd.so").touch()
        monkeypatch.setattr(cli.np, "__file__", str(tmp_path / "numpy" / "__init__.py"))

    def test_sets_one_thread_before_dispatch(self, monkeypatch, tmp_path, capsys):
        log = []

        class OpenBlas:
            def scipy_openblas_set_num_threads64_(self, count):
                log.append(("threads", count))

        def cdll(name):
            if name is None:
                raise OSError("no C library")
            log.append(Path(name).name)
            return OpenBlas()

        runner = CELL_RUNNERS["address-distance"]
        monkeypatch.setitem(CELL_RUNNERS, "address-distance", lambda *args: log.append("dispatch") or runner(*args))
        self._fake_numpy(monkeypatch, tmp_path, library=True)
        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert main(self.ARGV) == 0
        assert log == ["libscipy_openblas64_-0123abcd.so", ("threads", 1), "dispatch"]

    @pytest.mark.parametrize("library", [True, False], ids=["no setter", "no library file"])
    def test_runs_without_the_setter(self, library, monkeypatch, tmp_path, capsys):
        opened = []
        self._fake_numpy(monkeypatch, tmp_path, library)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: opened.append(name) or object())
        assert main(self.ARGV) == 0
        assert len([name for name in opened if name is not None]) == library  # None: the C library
        assert "distance" in capsys.readouterr().out
