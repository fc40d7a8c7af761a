"""Self-test of the benchmark: python3 -m pytest perfbench/test_perfbench.py

Runs every workload at tiny sizes, traced and untraced, and checks that
each metric BENCHMARK.json names is emitted with its unit; checks that a
wrong reference is counted as a failure; and confirms every pinned
reference without wordeq.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import refcheck  # noqa: E402
import workloads  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.3",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_reference_counts_as_failure(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from worker import Runner

    items = workloads.items("witnesses", tiny=True)
    refs = json.loads((HERE / "refs.json").read_text())
    wrong = items[0].id
    refs[wrong] = dict(refs[wrong], total_solutions=refs[wrong]["total_solutions"] + 1)
    runner = Runner(refs)
    runner.untraced_pass(items, [])
    assert runner.attempted == len(items)
    assert runner.failures == [wrong]
    assert refcheck.check_refs([items[0]], refs)


def test_refcheck_rejects_a_periodic_or_false_witness():
    item = workloads.Item("solve-121-a2-b8", "solve", ((1, 2, 1), 2, 8))
    ref = {"i": 1, "j": 2, "k": 1, "alphabet": 2, "bound": 8, "total_solutions": 0,
           "periodic_only": False, "nonperiodic": [{"x": "a", "y": "b", "u": "b", "v": "a"}]}
    assert refcheck.check_solver_ref(item, ref)
    ref["nonperiodic"] = [{"x": "a", "y": "aa", "u": "aa", "v": "a"}]
    assert refcheck.check_solver_ref(item, ref)


def test_pinned_references_hold_without_wordeq():
    refs = json.loads((HERE / "refs.json").read_text())
    assert refcheck.check_refs(workloads.all_items(), refs) == []


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "forcing", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
