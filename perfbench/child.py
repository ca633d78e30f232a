"""One workload process.  run.py starts a fresh one per measurement:

    python3 perfbench/child.py --workload churn --seed 1 --seconds 20 --mode measure

Modes:
  setup    set up, report the set-up time, then (with --determinism) run the
           determinism and CLI check;
  measure  set up, then run timed passes of the task list with tracing off
           until --seconds of timed work is done (at least one pass);
  trace    set up, run one untraced pass, then one traced pass.

The first pass's outputs are checked; every later pass must reproduce them
exactly.  The last line of standard output is one JSON object.
"""

import time

T0 = time.perf_counter()  # set-up time counts from the process's first line

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import lineworld  # noqa: E402

if not Path(lineworld.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"perfbench: imported lineworld from {lineworld.__file__}, not {ROOT / 'src'}")

import spans  # noqa: E402
import workloads  # noqa: E402


def task_failures(passes: list) -> list[list[str]]:
    """Per pass, the error of each failed task.  Pass 0 is checked; a later
    pass fails a task whose output differs from pass 0, or that failed there."""
    first = passes[0]
    out = []
    for k, p in enumerate(passes):
        errors = dict(first.errors)
        errors.update(p.errors)
        if k:
            for i, (a, b) in enumerate(zip(first.outputs, p.outputs)):
                if repr(a) != repr(b):
                    errors.setdefault(i, f"pass {k} output differs from pass 0")
            if p.final != first.final:
                errors.setdefault(len(p.outputs) - 1, f"pass {k} final graph differs")
        out.append([f"task {i}: {e}" for i, e in sorted(errors.items())])
    return out


def pass_report(p: workloads.Pass) -> dict:
    return {"growth_s": p.growth_s, "task_s": p.task_s, "probe_s": p.probe_s,
            "ref_growth_s": p.reference_growth_s, "ref_task_s": p.reference_task_s}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--determinism", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    setup_s = time.perf_counter() - T0
    report = {"setup_s": setup_s, "versions": {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__}}

    if args.mode == "setup":
        if args.determinism:
            report["determinism"] = workloads.determinism_check(args.seed)
    elif args.mode == "measure":
        passes = []
        while not passes or sum(p.wall_s for p in passes) < args.seconds:
            passes.append(wl.run(spans.NoTrace(), check=not passes))
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report["passes"] = [pass_report(p) for p in passes]
        report["failures"] = task_failures(passes)
    else:
        untraced = wl.run(spans.NoTrace(), check=True)
        tracer = spans.Tracer()
        with tracer.installed():
            traced = wl.run(tracer, check=False)
        metrics, unmeasured = spans.layer_metrics(
            tracer, wl.outcomes(traced.outputs), traced.reference_wall_s,
            untraced.reference_wall_s)
        report.update(
            passes=[pass_report(p) for p in (untraced, traced)],
            failures=task_failures([untraced, traced]),
            metrics=metrics, unmeasured=unmeasured, trace=tracer.dump())
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
