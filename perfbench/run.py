"""lineworld benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload failures-route --seed 1 --seconds 20 --trace 0

Workloads: failures-route, failures-build, churn, chains (see NOTES.md).
Each measurement runs in a fresh single-threaded process (child.py) that
imports lineworld from ./src.  Prints a provenance line, one line per metric
with its unit, and as the last line one JSON object with the keys correct,
attempted, failed and metrics.

--trace 0  end-to-end metrics, tracing off: set-up time (median over
           SETUP_RUNS + 1 fresh processes); wall time of the task list and
           per-task p50 and p90, in reference-speed seconds, from each task's
           median over the passes; peak RSS; share of tasks without error.
--trace 1  per-layer metrics from one traced pass, next to one untraced
           pass of the same tasks; the spans go to perfbench/out/.
--smoke    the same workload and checks at tiny sizes, in seconds.

Exit status 0 when a result was printed; 2 when ./src/lineworld is missing;
1 when a workload process crashed or ran out of time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("failures-route", "failures-build", "churn", "chains")
SETUP_RUNS = 4  # set-up-only processes per --trace 0 run, besides the measuring one
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class ChildError(RuntimeError):
    pass


def run_child(args, mode: str, deadline: float, determinism: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if determinism:
        cmd.append("--determinism")
    if args.smoke:
        cmd.append("--smoke")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildError("out of time before starting a workload process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **SINGLE_THREAD},
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} process exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise ChildError(f"{mode} process exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def source_digest() -> str:
    """sha256 over ./src's Python files, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def per_task(passes: list[dict], prefix: str = "") -> tuple[float, list[float]]:
    """The growth time and each task's time, as medians over the passes, so
    that a burst of contention in one pass does not reach the metrics."""
    growth = statistics.median(p[prefix + "growth_s"] for p in passes)
    return growth, [statistics.median(ts) for ts in zip(*(p[prefix + "task_s"] for p in passes))]


def end_to_end(main: dict, setups: list[dict]) -> tuple[dict, dict, dict]:
    """End-to-end metrics but task_ok_frac, the same timings as measured,
    and sample counts."""
    passes = main["passes"]
    growth, task_s = per_task(passes, "ref_")
    raw_growth, raw_task_s = per_task(passes)
    setup_s = [s["setup_s"] for s in setups] + [main["setup_s"]]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (growth + sum(task_s), "s"),
        "task_s_p50": (statistics.median(task_s), "s"),
        "task_s_p90": (p90(task_s), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    raw = {"wall_s": raw_growth + sum(raw_task_s), "task_s_p50": statistics.median(raw_task_s),
           "task_s_p90": p90(raw_task_s)}
    samples = {"setup_s": len(setup_s), "passes": len(passes), "tasks": len(task_s),
               "speed_probe_s_median": statistics.median(
                   x for p in passes for x in p["probe_s"])}
    return metrics, raw, samples


def isolation(metrics: dict) -> str:
    """Shares of program self time, grouped as the isolation targets in NOTES.md."""
    self_s = {k[:-len(".self_s")]: v for k, (v, _) in metrics.items() if k.endswith(".self_s")}
    layers = [k[:-len(".self_frac")] for k in metrics if k.endswith(".self_frac")]
    program = sum(self_s[layer] for layer in layers) or 1.0
    groups = {
        "routing+adjacency": ("routing", "overlay.neighbors", "overlay.in_neighbors"),
        "construction": ("overlay.build", "overlay.build_binomial_presence",
                         "overlay.apply_node_failures", "overlay.apply_link_failures"),
        "dynamics+linkgen": ("dynamics", "linkgen"),
        **{layer: (layer,) for layer in layers},
    }
    return " ".join(f"{g}={sum(self_s[n] for n in names) / program:.3f}"
                    for g, names in groups.items())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = ap.parse_args()
    if not (ROOT / "src" / "lineworld" / "__init__.py").is_file():
        print(f"perfbench: no lineworld sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        n_setups = SETUP_RUNS if args.trace == 0 and not args.smoke else 1
        setups = [run_child(args, "setup", deadline, determinism=i == 0)
                  for i in range(n_setups)]
        main_run = run_child(args, "trace" if args.trace else "measure", deadline)
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    determinism = setups[0]["determinism"]
    failures = [e for pass_errors in main_run["failures"] for e in pass_errors]
    attempted = sum(len(p["task_s"]) for p in main_run["passes"])
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), **main_run["versions"],
        "git_commit": git_commit(), "src_sha256": source_digest(),
    }
    if args.trace:
        metrics = {k: tuple(v) for k, v in main_run["metrics"].items()}
        raw, unmeasured = {}, set(main_run["unmeasured"])
        provenance["samples"] = {"tasks": len(main_run["passes"][0]["task_s"]),
                                 "traced_passes": 1}
    else:
        metrics, raw, provenance["samples"] = end_to_end(main_run, setups)
        metrics["task_ok_frac"] = (1.0 - len(failures) / attempted, "ratio")
        unmeasured = set()
    print("provenance " + json.dumps(provenance))
    print("pass wall_s (measured) " + " ".join(
        f"{p['growth_s'] + sum(p['task_s']):.4f}" for p in main_run["passes"]))
    for name, (value, unit) in metrics.items():
        shown = "unmeasured (no calls)" if name in unmeasured else f"{value:.6g} {unit}"
        if name in raw:
            shown += f" at reference speed; {raw[name]:.6g} {unit} measured"
        print(f"metric {name} = {shown}")
    if args.trace:
        print("isolation " + isolation(metrics))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"provenance": provenance, **main_run["trace"]}))
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    if determinism:
        print(f"check failed: {determinism}")
    for err in failures[:20]:
        print(f"check failed: {err}")

    print(json.dumps({
        "correct": not failures and determinism is None,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
