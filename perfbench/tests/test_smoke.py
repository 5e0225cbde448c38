"""Smoke test of the campaign benchmark at a tiny size.

    python3 -m pytest perfbench/tests

Runs every workload with and without tracing on a few dozen queries and
checks that each metric declared in BENCHMARK.json is printed with its
unit, that the correctness gate rejects a faulty engine in place of the
clean target, and that the benchmark refuses to run without the sources.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def bench(monkeypatch):
    """perfbench/run.py as a module, shrunk to a tiny size."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", BENCH_DIR / "run.py")
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    monkeypatch.setattr(mod, "WORKLOADS", {
        name: replace(w, queries=40) for name, w in mod.WORKLOADS.items()})
    monkeypatch.setattr(mod, "SMALL_ITERATION", 40)
    monkeypatch.setattr(mod, "PANEL_SEEDS", 1)
    monkeypatch.setattr(mod, "REPEAT_QUERIES", 20)
    monkeypatch.setattr(mod, "SETUP_REPEATS", 1)
    monkeypatch.setenv("PYTHONPATH", "")
    return mod


def run_bench(bench, capsys, workload, trace):
    code = bench.main(["--workload", workload, "--seed", "smoke",
                       "--seconds", "0.2", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


def test_declared_workloads_exist(bench):
    assert list(bench.WORKLOADS) == [w["name"] for w in DECLARED["workloads"]]


@pytest.mark.parametrize("workload", [w["name"] for w in
                                      DECLARED["workloads"]])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(bench, capsys, workload,
                                               trace, section):
    code, result = run_bench(bench, capsys, workload, trace)
    assert code == 0 and result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in DECLARED[section]}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_gate_fails_on_a_faulty_target(bench, capsys, monkeypatch):
    faulty = replace(bench.WORKLOADS["builtin-vetted"],
                     target="builtin:drop-distinct")
    monkeypatch.setitem(bench.WORKLOADS, "builtin-vetted", faulty)
    code, result = run_bench(bench, capsys, "builtin-vetted", 0)
    assert code != 0
    assert result["correct"] is False and result["metrics"] == {}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fault-hunt",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
