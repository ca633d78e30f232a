"""Tests of the benchmark itself: every workload and its checks at smoke
sizes, the result format against BENCHMARK.json, and the output checks'
ability to fail.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_result_matches_contract(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = run_bench(tmp_path, "chains", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _dump(rows):
    return "lineworld-graph v1\nn=4\n" + "".join(f"{r}\n" for r in rows)


def test_check_graph_accepts_consistent_dump():
    dump = _dump(["0\t1\t2\t3", "1\t0\t0,2\t", "2\t1\t0,3\t0", "3\t1\t2\t"])
    assert workloads.check_graph(dump, (0, 2, 3)) is None


@pytest.mark.parametrize("rows, live, fragment", [
    (["0\t1\t2\t1", "1\t0\t0,2\t", "2\t1\t0,3\t", "3\t1\t2\t"], (0, 2, 3), "dead node"),
    (["0\t1\t1\t", "1\t0\t0,2\t", "2\t1\t0,3\t", "3\t1\t2\t"], (0, 2, 3), "stitched"),
    (["0\t1\t2\t", "1\t0\t0,2\t", "2\t1\t0,3\t", "3\t1\t2\t"], (0, 1, 2, 3), "live set"),
])
def test_check_graph_rejects(rows, live, fragment):
    assert fragment in workloads.check_graph(_dump(rows), live)


def test_failures_check_rejects_miscounted_rows():
    tasks = workloads.failures_route(1, smoke=True)
    cfg = tasks.configs[0]  # terminate at p = 0.1
    row = f"failures,256,8,2,0.100000,terminate,1,40,39,2,0,5.0,1.0,0.0,0.0,{cfg.seed}"
    assert "delivered + failed" in tasks.check_task(cfg, f"{workloads.FAILURES_HEADER}\n{row}\n")
    row = f"failures,256,8,2,0.100000,terminate,1,40,30,10,0,5.0,1.0,0.0,0.0,{cfg.seed}"
    assert "terminate failed fraction" in tasks.check_task(
        cfg, f"{workloads.FAILURES_HEADER}\n{row}\n")


def test_churn_rounds_end_with_their_leavers_dead():
    # otherwise the dangling-link check would have no dead node to catch
    tasks = workloads.churn(1, smoke=True)
    for rnd in tasks.rounds:
        assert rnd.leaving and not set(rnd.leaving) & set(rnd.live)
