"""Command-line front end.

Subcommands: `build` (construct and dump a graph), `route` (build, route
one message, print the result), and `experiment {failures|distribution|
scaling|compare|chains|bounds}` (batch runs emitting CSV to --out or
stdout).  Each command offers the flags of the config fields it can read,
and no other (`lineworld experiment <kind> --help` lists a kind's); its
config refuses one that its link law or strategy leaves unread.  Exit
status 0 on success (and for --help), 1 with one `lineworld: error: ...`
line on a bad command line, a configuration or I/O error, a graph too
large to allocate, a count too large for numpy's integers, or a worker
process that died.
"""

from __future__ import annotations

import argparse
import sys

from . import harness, overlay, routing
from .harness import CHOICES, ExperimentConfig


def _list_of(kind):
    """argparse type: a comma-separated list of `kind` values, as a tuple."""
    def parse(text: str) -> tuple:
        return tuple(kind(x) for x in text.split(",") if x)
    parse.__name__ = f"{kind.__name__} list"  # argparse names it in a bad value's error
    return parse


# config field -> (flag, argparse keywords); every parser takes its config
# flags from here, stored under the field's name
FLAGS = {
    "n": ("--n", dict(type=int, help="line size")),
    "links": ("--links", dict(type=int, help="long links per node")),
    "base": ("--base", dict(type=int, help="base b for deterministic schemes")),
    "dist": ("--dist", dict(choices=CHOICES["dist"], help="link distribution")),
    "seed": ("--seed", dict(type=int, help="master seed")),
    "history": ("--history", dict(type=int)),
    "max_hops": ("--max-hops", dict(type=int)),
    "sidedness": ("--sidedness", dict(choices=CHOICES["sidedness"])),
    "probe": ("--choice", dict(
        choices=["live", "commit"],
        help="pick the best live candidate, or commit blindly to the best")),
    "link_mode": ("--link-mode", dict(
        choices=CHOICES["link_mode"],
        help="follow links one way or both; the default depends on the command")),
    "p_grid": ("--p-grid", dict(type=_list_of(float))),
    "strategies": ("--strategy", dict(type=_list_of(str), metavar="STRATEGY",
                                      help="comma-separated recovery strategies")),
    "trials": ("--trials", dict(type=int)),
    "messages": ("--messages", dict(type=int)),
    "workers": ("--workers", dict(type=int)),
    "repetitions": ("--reps", dict(type=int, metavar="REPS", help="repetitions")),
    "n_values": ("--n-grid", dict(type=_list_of(int), metavar="N_GRID", help="n sweep")),
    "link_values": ("--l-grid", dict(type=_list_of(int), metavar="L_GRID", help="links sweep")),
    "samples": ("--samples", dict(type=int, help="samples per chain")),
    "t_max": ("--t-max", dict(type=int, help="chain steps")),
    "failure_model": ("--failure-model", dict(choices=CHOICES["failure_model"],
                                              help="what the p grid degrades")),
    "policy": ("--policy", dict(choices=CHOICES["policy"], help="churn replacement policy")),
}


def _add_parser(sub, name: str, flags=FLAGS, **kwargs):
    """A parser for command `name` with the `flags` of its COMMAND_FIELDS.  A
    flag the user leaves out is absent from the namespace, so
    `config_from_args` keeps the field's `ExperimentConfig` default."""
    p = sub.add_parser(name, argument_default=argparse.SUPPRESS, **kwargs)
    for field in harness.COMMAND_FIELDS[name]:
        flag, flag_kwargs = flags[field]
        p.add_argument(flag, dest=field, **flag_kwargs)
    return p


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line like any other configuration error
    (`main` prints it and exits 1) and takes no abbreviated flag; subcommand
    parsers inherit this."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="lineworld", description="Line-embedded small-world overlay simulator")
    sub = top.add_subparsers(dest="command", required=True)

    b = _add_parser(sub, "build", help="construct a graph and dump it")
    b.add_argument("--out", default="-", help="dump path, - for stdout")

    # one strategy name, kept as a list of one so that `validate` checks it
    r = _add_parser(sub, "route", FLAGS | {"strategies": ("--strategy", dict(
        type=lambda name: (name,), metavar="STRATEGY", help="recovery strategy"))},
        help="route one message on a fresh graph")
    r.add_argument("--src", type=int, required=True)
    r.add_argument("--dst", type=int, required=True)
    r.add_argument("--p-fail", type=float, default=0.0, help="node failure fraction")
    r.set_defaults(strategies=("terminate",))

    kinds = sub.add_parser("experiment", help="batch experiments emitting CSV").add_subparsers(
        dest="kind", required=True)
    for kind in sorted(harness.EXPERIMENTS):
        e = _add_parser(kinds, kind)
        e.add_argument("--out", default="-", help="CSV path, - for stdout")
    return top


def config_from_args(args: argparse.Namespace, experiment: str) -> ExperimentConfig:
    """The validated config of `experiment` that the parsed command line
    asks for: each flag given, or defaulted by its subcommand, sets the
    field of its name, and every other field keeps its dataclass default."""
    given = {field: getattr(args, field) for field in FLAGS if hasattr(args, field)}
    if "probe" in given:
        given["probe"] = given["probe"] == "live"
    config = ExperimentConfig(experiment, **given)
    config.validate()
    return config


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
                        harness.STRATEGIES[cfg.strategies[0]](cfg),
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
    except Exception as exc:
        # a worker process that dies breaks its pool; the pool's module is
        # imported only by a run that started one
        from concurrent.futures import BrokenExecutor
        if not isinstance(exc, (ValueError, OSError, MemoryError, OverflowError, BrokenExecutor)):
            raise
        # an exception without a message (a MemoryError()) names its type
        print(f"lineworld: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
