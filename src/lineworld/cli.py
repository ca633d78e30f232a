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
from dataclasses import fields

from . import harness, overlay, routing
from .harness import CHOICES, ExperimentConfig


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x)


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(x for x in text.split(",") if x)


def _add_subcommand(sub, name: str, help: str) -> argparse.ArgumentParser:
    """A subcommand parser with the graph flags.  A flag the user leaves out
    is absent from the namespace, so `config_from_args` keeps the field's
    `ExperimentConfig` default."""
    p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
    p.add_argument("--n", type=int, help="line size")
    p.add_argument("--links", type=int, help="long links per node")
    p.add_argument("--base", type=int, help="base b for deterministic schemes")
    p.add_argument("--dist", choices=CHOICES["dist"], help="link distribution")
    p.add_argument("--seed", type=int, help="master seed")
    return p


def _add_routing_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--history", type=int)
    p.add_argument("--max-hops", type=int)
    p.add_argument("--sidedness", choices=CHOICES["sidedness"])
    p.add_argument("--choice", dest="probe", choices=["live", "commit"],
                   help="pick the best live candidate, or commit blindly to the best")
    p.add_argument("--link-mode", choices=CHOICES["link_mode"],
                   help="follow links one way or both; the default depends on the command")


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line like any other configuration error
    (`main` prints it and exits 1); subcommand parsers inherit this."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="lineworld", description="Line-embedded small-world overlay simulator")
    sub = top.add_subparsers(dest="command", required=True)

    b = _add_subcommand(sub, "build", "construct a graph and dump it")
    b.add_argument("--out", default="-", help="dump path, - for stdout")

    r = _add_subcommand(sub, "route", "route one message on a fresh graph")
    r.add_argument("--src", type=int, required=True)
    r.add_argument("--dst", type=int, required=True)
    r.add_argument("--p-fail", type=float, default=0.0, help="node failure fraction")
    r.add_argument("--strategy", choices=CHOICES["strategies"], default="terminate")
    _add_routing_flags(r)
    r.set_defaults(link_mode="symmetric")

    e = _add_subcommand(sub, "experiment", "batch experiments emitting CSV")
    e.add_argument("kind", choices=sorted(harness.EXPERIMENTS))
    _add_routing_flags(e)
    e.add_argument("--p-grid", type=_float_list)
    e.add_argument("--strategy", dest="strategies", type=_str_list, metavar="STRATEGY",
                   help="comma-separated recovery strategies")
    e.add_argument("--trials", type=int)
    e.add_argument("--messages", type=int)
    e.add_argument("--out", default="-", help="CSV path, - for stdout")
    e.add_argument("--workers", type=int)
    e.add_argument("--reps", dest="repetitions", type=int, metavar="REPS",
                   help="repetitions (distribution/compare)")
    e.add_argument("--n-grid", dest="n_values", type=_int_list, metavar="N_GRID",
                   help="n sweep for scaling")
    e.add_argument("--l-grid", dest="link_values", type=_int_list, metavar="L_GRID",
                   help="links sweep for scaling")
    e.add_argument("--samples", type=int, help="samples for chains")
    e.add_argument("--t-max", type=int, help="steps for chains")
    e.add_argument("--failure-model", choices=CHOICES["failure_model"],
                   help="what the p grid degrades (failures runs)")
    e.add_argument("--policy", choices=CHOICES["policy"], help="churn replacement policy")
    return top


def config_from_args(args: argparse.Namespace, experiment: str) -> ExperimentConfig:
    """The config of `experiment` that the parsed command line asks for:
    each flag given, or defaulted by its subcommand, sets the field of its
    name, and every other field keeps its dataclass default."""
    given = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
             if hasattr(args, f.name)}
    if "probe" in given:
        given["probe"] = given["probe"] == "live"
    return ExperimentConfig(experiment, **given)


def cmd_build(args) -> int:
    cfg = config_from_args(args, "build")
    rng = harness.trial_rng(cfg.seed, "build", 0)
    g = overlay.build(cfg.n, harness.make_distribution(cfg), rng)
    harness.emit(g.dump_text(), args.out)
    return 0


def cmd_route(args) -> int:
    cfg = config_from_args(args, "route")
    rng = harness.trial_rng(cfg.seed, "route", 0)
    g = overlay.build(cfg.n, harness.make_distribution(cfg), rng)
    if args.p_fail:
        overlay.apply_node_failures(g, args.p_fail, rng)
    res = routing.route(g, args.src, args.dst, routing.Sidedness(cfg.sidedness),
                        harness.make_strategy(args.strategy, cfg),
                        max_hops=cfg.max_hops, rng=rng, probe=cfg.probe,
                        symmetric=cfg.symmetric_links())
    print(f"status={res.status.value} hops={res.hops} backtracks={res.backtracks} "
          f"restarts={res.restarts} capped={res.capped}")
    print("path=" + ">".join(str(v) for v in res.path))
    return 0


def cmd_experiment(args) -> int:
    harness.emit(harness.run_experiment(config_from_args(args, args.kind)), args.out)
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        commands = {"build": cmd_build, "route": cmd_route, "experiment": cmd_experiment}
        return commands[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"lineworld: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
