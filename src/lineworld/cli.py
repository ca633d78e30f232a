"""Command-line front end.

Subcommands: `build` (construct and dump a graph), `route` (build, route
one message, print the result), and `experiment {failures|distribution|
scaling|compare|chains|bounds}` (batch runs emitting CSV to --out or
stdout).  Exit status 0 on success (and for --help), 1 with one
`lineworld: error: ...` line on a bad command line, a configuration or I/O
error, or a graph too large to allocate.
"""

from __future__ import annotations

import argparse
import sys

from . import harness, overlay, routing
from .harness import ExperimentConfig


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x)


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(x for x in text.split(",") if x)


def _add_graph_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=2 ** 14, help="line size")
    p.add_argument("--links", type=int, default=14, help="long links per node")
    p.add_argument("--base", type=int, default=2, help="base b for deterministic schemes")
    p.add_argument("--dist", choices=["power1", "detbase", "powers", "bernoulli"],
                   default="power1", help="link distribution")
    p.add_argument("--seed", type=int, default=0, help="master seed")


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line like any other configuration error
    (`main` prints it and exits 1); subcommand parsers inherit this."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="lineworld", description="Line-embedded small-world overlay simulator")
    sub = top.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a graph and dump it")
    _add_graph_flags(b)
    b.add_argument("--out", default="-", help="dump path, - for stdout")

    r = sub.add_parser("route", help="route one message on a fresh graph")
    _add_graph_flags(r)
    r.add_argument("--src", type=int, required=True)
    r.add_argument("--dst", type=int, required=True)
    r.add_argument("--p-fail", type=float, default=0.0, help="node failure fraction")
    r.add_argument("--strategy", choices=["terminate", "restart", "backtrack"],
                   default="terminate")
    r.add_argument("--history", type=int, default=5)
    r.add_argument("--max-hops", type=int, default=None)
    r.add_argument("--sidedness", choices=["one", "two"], default="two")
    r.add_argument("--choice", choices=["live", "commit"], default="live",
                   help="pick the best live candidate, or commit blindly to the best")
    r.add_argument("--link-mode", choices=["directed", "symmetric"], default="symmetric")

    e = sub.add_parser("experiment", help="batch experiments emitting CSV")
    e.add_argument("kind", choices=sorted(harness.EXPERIMENTS))
    _add_graph_flags(e)
    e.add_argument("--p-grid", type=_float_list,
                   default=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9))
    e.add_argument("--strategy", type=_str_list, default=("terminate", "restart", "backtrack"),
                   help="comma-separated recovery strategies")
    e.add_argument("--history", type=int, default=5)
    e.add_argument("--trials", type=int, default=100)
    e.add_argument("--messages", type=int, default=100)
    e.add_argument("--max-hops", type=int, default=None)
    e.add_argument("--out", default="-", help="CSV path, - for stdout")
    e.add_argument("--workers", type=int, default=1)
    e.add_argument("--reps", type=int, default=10, help="repetitions (distribution/compare)")
    e.add_argument("--n-grid", type=_int_list, default=(), help="n sweep for scaling")
    e.add_argument("--l-grid", type=_int_list, default=(), help="links sweep for scaling")
    e.add_argument("--samples", type=int, default=10 ** 5, help="samples for chains")
    e.add_argument("--t-max", type=int, default=8, help="steps for chains")
    e.add_argument("--sidedness", choices=["one", "two"], default="two")
    e.add_argument("--choice", choices=["live", "commit"], default="live")
    e.add_argument("--link-mode", choices=["directed", "symmetric"], default=None,
                   help="override per-experiment default link traversal")
    e.add_argument("--failure-model", choices=["node", "link", "binomial"],
                   default="node", help="what the p grid degrades (failures runs)")
    e.add_argument("--policy", choices=["inverse_distance", "oldest"],
                   default="inverse_distance", help="churn replacement policy")
    return top


def cmd_build(args) -> int:
    cfg = ExperimentConfig(experiment="build", n=args.n, links=args.links,
                           base=args.base, dist=args.dist, seed=args.seed)
    rng = harness.trial_rng(args.seed, "build", 0)
    g = overlay.build(args.n, harness.make_distribution(cfg), rng)
    harness.emit(g.dump_text(), args.out)
    return 0


def cmd_route(args) -> int:
    cfg = ExperimentConfig(experiment="route", n=args.n, links=args.links,
                           base=args.base, dist=args.dist, seed=args.seed,
                           history=args.history)
    rng = harness.trial_rng(args.seed, "route", 0)
    g = overlay.build(args.n, harness.make_distribution(cfg), rng)
    if args.p_fail:
        overlay.apply_node_failures(g, args.p_fail, rng)
    res = routing.route(g, args.src, args.dst, routing.Sidedness(args.sidedness),
                        harness.make_strategy(args.strategy, cfg),
                        max_hops=args.max_hops, rng=rng,
                        probe=args.choice == "live",
                        symmetric=args.link_mode == "symmetric")
    print(f"status={res.status.value} hops={res.hops} backtracks={res.backtracks} "
          f"restarts={res.restarts} capped={res.capped}")
    print("path=" + ">".join(str(v) for v in res.path))
    return 0


def cmd_experiment(args) -> int:
    config = ExperimentConfig(
        experiment=args.kind, n=args.n, links=args.links, base=args.base,
        dist=args.dist, p_grid=args.p_grid, strategies=args.strategy,
        history=args.history, trials=args.trials, messages=args.messages,
        max_hops=args.max_hops, seed=args.seed,
        workers=args.workers, repetitions=args.reps, n_values=args.n_grid,
        link_values=args.l_grid, samples=args.samples, t_max=args.t_max,
        sidedness=args.sidedness, probe=args.choice == "live",
        link_mode=args.link_mode, failure_model=args.failure_model,
        policy=args.policy,
    )
    harness.emit(harness.run_experiment(config), args.out)
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "build":
            return cmd_build(args)
        if args.command == "route":
            return cmd_route(args)
        return cmd_experiment(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"lineworld: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
