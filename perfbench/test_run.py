"""Checks of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declaration_matches_the_code():
    bench = declared()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracer.PER_LAYER
    assert bench["command"][1:] == ["perfbench/run.py"] and bench["paths"] == ["perfbench"]


def test_one_command_emits_every_declared_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "3", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    bench = declared()
    assert set(result["metrics"]) == {w["name"] for w in bench["workloads"]}
    for emitted in result["metrics"].values():
        for metric in bench["end_to_end"] + bench["per_layer"]:
            assert emitted[metric["name"]]["unit"] == metric["unit"]
            assert isinstance(emitted[metric["name"]]["value"], (int, float))
        assert emitted["ok_rate"]["value"] == 1.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qac0-analyze", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_excludes_child_spans():
    t = tracer.Tracer()

    def inner():
        time.sleep(0.02)

    wrapped_inner = t.wrap("inner", inner)

    def outer():
        time.sleep(0.01)
        wrapped_inner()

    t.wrap("outer", outer)()
    spans = t.summary()["spans"]
    assert spans["outer"]["calls"] == spans["inner"]["calls"] == 1
    assert abs(spans["outer"]["self_s"] - (spans["outer"]["total_s"] - spans["inner"]["total_s"])) < 1e-9
    assert spans["inner"]["self_s"] == spans["inner"]["total_s"]


def test_missing_targets_are_reported_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.setitem(tracer.TARGETS, "jacobi.no_such_function", None)
    monkeypatch.setitem(tracer.TARGETS, "no_such_module.function", None)
    installed = tracer.Tracer().install()
    assert {"jacobi.no_such_function", "no_such_module.function"} <= set(installed.absent)
