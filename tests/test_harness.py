"""Experiment orchestration: schemas, determinism, CLI plumbing."""

import argparse
import concurrent.futures
import math
import multiprocessing
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from lineworld import harness, routing
from lineworld.cli import build_parser, config_from_args, main
from lineworld.harness import (
    ExperimentConfig,
    FAILURES_HEADER,
    TrialStats,
    power_law_inclusion,
    run_experiment,
)
from lineworld.routing import Routes, Sidedness, Terminate


USABLE_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


def tiny(experiment, **kw):
    """A small config of `experiment`: `kw` over small sizes for the fields
    its run reads under `kw`'s link law."""
    defaults = dict(n=256, links=4, trials=3, messages=40,
                    p_grid=(0.0, 0.5), strategies=("terminate", "backtrack"),
                    repetitions=2, samples=2000, t_max=3, seed=9)
    unread = ExperimentConfig(experiment, **kw).unread()
    return ExperimentConfig(experiment=experiment,
                            **{k: v for k, v in defaults.items() if k not in unread} | kw)


def test_trial_stats_accounting():
    # two delivered routes (4 hops, 1 backtrack; 6 hops) and one capped failure
    s = TrialStats.of(Routes(delivered=np.array([True, True, False]), hops=np.array([4, 6, 9]),
                             backtracks=np.array([1, 0, 0]), restarts=np.array([0, 2, 5]),
                             capped=np.array([False, False, True])))
    assert s.delivered + s.failed == 3 and s.delivered == 2 and s.failed == 1 and s.capped == 1
    assert (s.hop_sum, s.hop_sq_sum, s.hop_max) == (10, 52, 6)
    assert (s.backtrack_sum, s.restart_sum) == (1, 2)  # over delivered routes only
    assert s.mean_hops == pytest.approx(5.0)
    assert s.std_hops == pytest.approx(1.0)
    assert s.failed / (s.delivered + s.failed) == pytest.approx(1 / 3)


def test_failures_csv_shape_and_no_failures_at_zero():
    out = run_experiment(tiny("failures"))
    lines = out.strip().split("\n")
    assert lines[0] == FAILURES_HEADER
    assert len(lines) == 1 + 2 * 2  # p values x strategies
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == len(FAILURES_HEADER.split(","))
        if cells[4] == "0.000000":
            assert cells[9] == "0"  # failed
            assert int(cells[8]) == 3 * 40  # delivered = trials*messages


def test_failures_deterministic_across_workers():
    base = tiny("failures")
    one = run_experiment(base)
    four = run_experiment(ExperimentConfig(**{**base.__dict__, "workers": 4}))
    assert one == four


def test_worker_pool_is_one_and_capped_at_cpu_count(monkeypatch):
    asked = []
    pool = concurrent.futures.ProcessPoolExecutor

    def recording_pool(max_workers, mp_context):
        asked.append((max_workers, mp_context.get_start_method()))
        return pool(max_workers, mp_context=mp_context)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    cfg = tiny("failures", trials=4)  # one job per trial: 4 jobs
    serial = run_experiment(cfg)
    assert asked == []
    assert run_experiment(replace(cfg, workers=64)) == serial
    cpus = min(USABLE_CPUS, 4)
    assert asked == ([(cpus, "fork")] if cpus > 1 else [])
    asked.clear()
    run_experiment(tiny("chains", workers=4))  # one cell, one trial: one job
    assert asked == []


@pytest.mark.parametrize("workers", ["1", "2"])
def test_trial_error_reaches_cli_unchanged_at_any_worker_count(capsys, workers):
    # the n=1 cell's build raises in whichever process runs it
    assert main(["experiment", "scaling", "--n-grid", "1,4", "--trials", "1", "--messages", "2",
                 "--workers", workers]) == 1
    assert capsys.readouterr().err == "lineworld: error: need at least 2 positions\n"


@pytest.mark.skipif(USABLE_CPUS < 2, reason="a pool needs two usable CPUs")
def test_dead_worker_ends_in_one_error_line(capsys, monkeypatch):
    parent, route_batch = os.getpid(), harness.route_batch

    def dies_in_a_worker(*args):
        if os.getpid() != parent:  # forked workers inherit this patch
            os._exit(1)
        return route_batch(*args)

    monkeypatch.setattr(harness, "route_batch", dies_in_a_worker)
    assert main(["experiment", *FAILURES_SMALL, "--trials", "2", "--workers", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("lineworld: error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert multiprocessing.active_children() == []


def test_failures_backtracking_beats_terminate():
    # the recovery ordering behind the failed-search curves
    cfg = ExperimentConfig(experiment="failures", n=2 ** 12, links=12,
                           trials=4, messages=250, p_grid=(0.3, 0.6),
                           strategies=("terminate", "backtrack"), seed=17)
    rows = [line.split(",") for line in run_experiment(cfg).strip().split("\n")[1:]]
    failed = {(r[4], r[5]): int(r[9]) for r in rows}
    for p in ("0.300000", "0.600000"):
        assert failed[(p, "backtrack")] < failed[(p, "terminate")]


def test_failures_seed_changes_output():
    a = run_experiment(tiny("failures"))
    b = run_experiment(tiny("failures", seed=10))
    assert a != b
    assert a == run_experiment(tiny("failures"))


def test_distribution_rows_normalized():
    out = run_experiment(tiny("distribution", n=256, links=4, repetitions=2))
    lines = out.strip().split("\n")
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 255
    ideal = sum(float(r[5]) for r in rows)
    derived = sum(float(r[6]) for r in rows)
    assert abs(ideal - 1.0) < 1e-9
    assert abs(derived - 1.0) < 1e-9


def test_scaling_deterministic_digit_cap():
    cfg = tiny("scaling", dist="detbase", base=2, n_values=(256,), trials=2,
               messages=200)
    out = run_experiment(cfg)
    row = out.strip().split("\n")[1].split(",")
    assert row[2] == "8"  # (b-1)*ceil(log2 256) nominal links
    assert int(row[9]) <= 8  # max hops observed <= log2 n


def test_scaling_detbase_base_beyond_n(capsys):
    # the widest base the table allows builds the base-64 graph: 1..63
    rows = {}
    for base in ("64", str(2 ** 63 - 1)):
        assert main(["experiment", "scaling", "--dist", "detbase", "--base", base,
                     "--n", "64", "--trials", "1", "--messages", "2"]) == 0
        rows[base] = capsys.readouterr().out.splitlines()[1].split(",")
        assert rows[base].pop(3) == base
    assert rows["64"] == rows[str(2 ** 63 - 1)]


def test_scaling_sweeps_grid():
    cfg = tiny("scaling", n_values=(64, 128), link_values=(1, 2), trials=2, messages=30)
    out = run_experiment(cfg)
    assert len(out.strip().split("\n")) == 1 + 4


def test_compare_zero_failures_at_p0():
    cfg = tiny("compare", n=128, links=4, p_grid=(0.0, 0.3),
               strategies=("terminate",), repetitions=2, messages=30)
    out = run_experiment(cfg)
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 2 * 2
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] in ("compare_ideal", "compare_heuristic")
        if cells[4] == "0.000000":
            assert cells[9] == "0"


def test_compare_deterministic():
    cfg = tiny("compare", n=128, links=4, p_grid=(0.2,), strategies=("terminate",),
               repetitions=2, messages=30)
    assert run_experiment(cfg) == run_experiment(cfg)


def test_compare_routes_every_strategy():
    # regression: only the first listed strategy used to be routed
    cfg = tiny("compare", n=128, links=4, p_grid=(0.0, 0.3), repetitions=2, messages=30)
    both = run_experiment(replace(cfg, strategies=("terminate", "backtrack")))
    rows = [line.split(",") for line in both.strip().split("\n")[1:]]
    assert len(rows) == 2 * 2 * 2  # strategies x p values x graphs
    assert [(r[4], r[5], r[0]) for r in rows] == [
        (p, s, label) for p in ("0.000000", "0.300000") for s in ("terminate", "backtrack")
        for label in ("compare_ideal", "compare_heuristic")]
    alone = run_experiment(replace(cfg, strategies=("terminate",))).strip().split("\n")[1:]
    assert [",".join(r) for r in rows if r[5] == "terminate"] == alone


def test_compare_heuristic_tracks_ideal():
    # the join-built overlay fails a bit more often but stays comparable
    cfg = ExperimentConfig(experiment="compare", n=2 ** 13, links=13,
                           repetitions=4, messages=1000, p_grid=(0.5,),
                           strategies=("terminate",), seed=79)
    out = run_experiment(cfg)
    fracs = {}
    for line in out.strip().split("\n")[1:]:
        cells = line.split(",")
        fracs[cells[0]] = int(cells[9]) / (int(cells[8]) + int(cells[9]))
    assert fracs["compare_heuristic"] >= fracs["compare_ideal"]
    assert fracs["compare_heuristic"] <= 2 * fracs["compare_ideal"]


def test_chains_rows():
    out = run_experiment(tiny("chains", n=8, samples=2000, t_max=3))
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 4
    assert float(lines[1].split(",")[4]) == 0.0


def test_bounds_sandwich_row():
    cfg = tiny("bounds", n=512, links=1, sidedness="one", trials=3, messages=60)
    out = run_experiment(cfg)
    row = out.strip().split("\n")[1].split(",")
    lower, sim, upper = float(row[4]), float(row[5]), float(row[6])
    assert lower <= sim <= upper


def test_power_law_inclusion_map():
    law = power_law_inclusion(64, 4)
    p = dict(zip(law.deltas.tolist(), law.probs.tolist()))
    assert p[1] == 1.0 and p[-1] == 1.0
    law.validate_two_sided()
    assert 2.0 < law.expected_size() < 10.0


def test_config_validation():
    with pytest.raises(ValueError):
        tiny("failures", p_grid=(0.5, 1.5)).validate()
    with pytest.raises(ValueError):
        tiny("failures", strategies=("warp",)).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="nope").validate()
    with pytest.raises(ValueError):
        tiny("failures", trials=0).validate()
    with pytest.raises(ValueError):
        ExperimentConfig("chains", n=8, samples=10, t_max=2, policy="bogus").validate()
    with pytest.raises(ValueError):
        ExperimentConfig("chains", n=8, samples=10, t_max=2, sidedness="three").validate()


@pytest.mark.parametrize("field", ["n", "links", "base", "history", "max_hops", "trials",
                                   "messages", "repetitions", "samples", "t_max", "n_values",
                                   "link_values"])
def test_config_rejects_counts_beyond_int64(field):
    # validation only: a rejected config never reaches an allocation; each
    # field is set on a kind, and `base` under a link law, that reads it
    largest = 2 ** 63 - 1
    grid = field in ("n_values", "link_values")
    kind = dict(history="failures", repetitions="distribution", samples="chains",
                t_max="chains").get(field, "scaling")
    law = dict(dist="detbase") if field == "base" else {}
    at_largest = tiny(kind, **law, **{field: (64, largest) if grid else largest})
    if field == "samples":  # so many samples draw more than a chains step may
        with pytest.raises(ValueError, match=r"more than 2\*\*28"):
            at_largest.validate()
    else:
        at_largest.validate()
    with pytest.raises(ValueError, match=r"must be <= 2\*\*63 - 1"):
        tiny(kind, **law, **{field: (64, largest + 1) if grid else largest + 1}).validate()


@pytest.mark.parametrize("experiment", ["build", "route"])
def test_run_experiment_rejects_names_without_a_runner(experiment):
    # "build" and "route" only name the CLI's rng streams
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment(ExperimentConfig(experiment, n=64))


def test_failure_model_variants():
    # link model: p is survival probability, immediate links always remain
    link_cfg = tiny("failures", failure_model="link", p_grid=(0.0, 1.0),
                    strategies=("terminate",))
    out = run_experiment(link_cfg)
    for line in out.strip().split("\n")[1:]:
        cells = line.split(",")
        assert cells[9] == "0"  # no failed routes: everyone is alive
    # binomial model: p is presence probability; p=0 yields no usable graph
    bin_cfg = tiny("failures", failure_model="binomial", p_grid=(0.0, 0.5),
                   strategies=("terminate",))
    lines = run_experiment(bin_cfg).strip().split("\n")
    empt = lines[1].split(",")
    assert empt[8] == "0" and empt[9] == str(3 * 40)  # every message fails
    half = lines[2].split(",")
    assert int(half[8]) + int(half[9]) == 3 * 40
    with pytest.raises(ValueError):
        tiny("failures", failure_model="cascade").validate()


@pytest.mark.parametrize("model,build_fn,graphs_per_trial", [
    ("node", "build", 1), ("link", "build", 1), ("binomial", "build_binomial_presence", 3),
])
def test_failures_build_one_graph_per_trial(monkeypatch, model, build_fn, graphs_per_trial):
    calls = {"build": 0, "build_binomial_presence": 0}
    for name in calls:
        def counting(*args, _name=name, _real=getattr(harness.overlay, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(harness.overlay, name, counting)
    cfg = tiny("failures", failure_model=model, trials=4, p_grid=(0.2, 0.5, 0.8))
    run_experiment(cfg)
    assert calls == {"build": 0, "build_binomial_presence": 0, build_fn: 4 * graphs_per_trial}


@pytest.mark.parametrize("experiment,model", [
    ("failures", "node"), ("failures", "link"), ("compare", "node"),
], ids=["node", "link", "compare"])
def test_failure_sets_nest_in_p(monkeypatch, experiment, model):
    # each graph's node-model dead set, or link-model surviving links, at
    # each p of each trial, recorded as routing sees them; p unsorted
    seen = {}
    route_batch = harness.route_batch

    def recording(g, strategy, rng, config):
        # the routing stream is trial_rng(seed, experiment, t, i, k)
        t, i, k = rng.bit_generator.seed_seq.entropy[2:5]
        links = [(u, v) for u in range(g.n) for v in g.long_links(u)]
        seen[t, grid[i], k] = set(np.flatnonzero(~g.alive)), Counter(links)
        return route_batch(g, strategy, rng, config)

    monkeypatch.setattr(harness, "route_batch", recording)
    grid = (0.5, 0.1, 0.9, 0.3)
    graphs = 2 if experiment == "compare" else 1
    # compare always takes node failures, and refuses a `failure_model`
    sizes = dict(repetitions=2) if experiment == "compare" else dict(trials=2,
                                                                     failure_model=model)
    run_experiment(tiny(experiment, p_grid=grid, strategies=("terminate",), **sizes))
    assert len(seen) == 2 * len(grid) * graphs
    for (t, p, k), (dead, links) in seen.items():
        # each node dies, and each of the 256 * 4 links survives, w.p. p
        frac, m = ((len(dead) / 256, 256) if model == "node"
                   else (sum(links.values()) / 1024, 1024))
        assert abs(frac - p) < 5 * math.sqrt(p * (1 - p) / m)
    for t, k in product((0, 1), range(graphs)):
        by_p = [seen[t, p, k] for p in sorted(grid)]
        for (dead, links), (more_dead, more_links) in zip(by_p, by_p[1:]):
            if model == "node":
                assert dead <= more_dead and links == more_links
            else:
                assert not dead and not more_dead
                assert not links - more_links  # links at p all survive at larger p
        # the grid's ends differ: the sets really change with p
        assert by_p[0] != by_p[-1]
    if experiment == "compare":  # the ideal and heuristic graphs fail apart
        assert all(seen[t, p, 0][0] != seen[t, p, 1][0] for t, p in product((0, 1), grid))


@pytest.mark.parametrize("config", [
    dict(experiment="failures", n=64, links=3, trials=2, messages=5, p_grid=(0.99,)),
    dict(experiment="failures", n=64, links=3, trials=2, messages=5, p_grid=(0.01,),
         failure_model="binomial"),
    dict(experiment="compare", n=4, links=1, repetitions=1, messages=2, p_grid=(0.9,)),
], ids=["node-failures", "binomial", "compare"])
def test_trials_without_two_live_nodes_fail_every_message(config):
    # these trials leave fewer than two live nodes, so no pair can be drawn
    for line in run_experiment(ExperimentConfig(**config, strategies=("terminate",))).split()[1:]:
        cells = line.split(",")
        trials, messages, delivered, failed = map(int, cells[6:10])
        assert delivered + failed == trials * messages


# a small config per kind; failures and compare route backtrack at a p where
# searches get stuck (0.5: at 0.3 none do under detbase), so that `history`
# matters, and bounds takes the least n (2^13 at one link, 2^14 at two)
# whose lower bound depends on `sidedness`
SMALL = {
    "failures": dict(n=64, links=2, trials=2, messages=10, p_grid=(0.5,),
                     strategies=("backtrack",)),
    "compare": dict(n=64, links=2, repetitions=1, messages=20, p_grid=(0.5,),
                    strategies=("backtrack",)),
    "scaling": dict(n=64, links=2, trials=2, messages=10),
    "bounds": dict(n=2 ** 14, links=2, trials=2, messages=10),
    "distribution": dict(n=32, links=2, repetitions=1),
    "chains": dict(n=8, samples=200, t_max=2),
}
# a valid value per field, other than its default and its value in any
# config below; `link_mode` takes the mode a kind does not default to
OTHER = dict(n=48, links=3, base=3, dist="bernoulli", p_grid=(0.6,), strategies=("restart",),
             history=1, trials=3, messages=7, max_hops=3, seed=5, repetitions=2,
             n_values=(32, 48), link_values=(1, 3), samples=300, t_max=3, sidedness="one",
             probe=False, failure_model="link", policy="oldest")
# the CSV columns that echo the config, or a p grid or strategy entry, back
ECHOED = {"experiment", "n", "links", "base", "dist", "p", "strategy", "trials", "messages",
          "sidedness", "samples", "seed"}


def _measured(csv):
    """The rows of `csv` without its ECHOED columns."""
    header, *rows = [line.split(",") for line in csv.splitlines()]
    keep = [i for i, name in enumerate(header) if name not in ECHOED]
    return [[row[i] for i in keep] for row in rows]


@pytest.mark.parametrize("kind", sorted(harness.EXPERIMENTS))
def test_experiment_fields_are_the_ones_that_change_its_csv(kind):
    # every field but `workers`, which must not change the CSV (see
    # test_failures_deterministic_across_workers), from SMALL's config and,
    # where the kind takes them, from a digit scheme's (which reads no links)
    # and from one without backtrack: a field the run reads changes a
    # measured column, and a field it does not read is refused, naming it
    *_, config_fields = harness.EXPERIMENTS[kind]
    smalls = [ExperimentConfig(kind, **SMALL[kind])]
    if "dist" in config_fields:
        smalls.append(replace(smalls[0], links=ExperimentConfig(kind).links, dist="detbase"))
    if "strategies" in config_fields:
        smalls.append(replace(smalls[0], strategies=("terminate",)))
    for small in smalls:
        measured, unread = _measured(run_experiment(small)), small.unread()
        for name in [f.name for f in fields(ExperimentConfig)
                     if f.name not in ("experiment", "workers")]:
            value = OTHER[name] if name != "link_mode" else (
                "directed" if small.symmetric_links() else "symmetric")
            assert value not in (getattr(small, name), getattr(ExperimentConfig(kind), name))
            if name in unread:
                with pytest.raises(ValueError, match=f"^{kind} does not use {name}[; ]"):
                    run_experiment(replace(small, **{name: value}))
            else:
                assert _measured(run_experiment(replace(small, **{name: value}))) != measured, (
                    small.dist, small.strategies, name)


def test_link_mode_defaults():
    assert tiny("failures").symmetric_links()
    assert tiny("compare").symmetric_links()
    assert not tiny("scaling").symmetric_links()
    assert not tiny("bounds").symmetric_links()
    assert tiny("scaling", link_mode="symmetric").symmetric_links()


def test_cli_build_and_route(tmp_path):
    out = tmp_path / "g.txt"
    assert main(["build", "--n", "64", "--links", "2", "--seed", "1",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("lineworld-graph v1\nn=64\n")
    assert main(["route", "--n", "64", "--links", "2", "--seed", "1",
                 "--src", "3", "--dst", "60"]) == 0


def test_cli_experiment_to_file(tmp_path):
    out = tmp_path / "rows.csv"
    rc = main(["experiment", "failures", "--n", "128", "--links", "3",
               "--trials", "2", "--messages", "20", "--p-grid", "0,0.4",
               "--strategy", "terminate", "--seed", "5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == FAILURES_HEADER
    assert len(lines) == 3


class _Captured(Exception):
    """Stops a CLI command at a patched call, once its arguments are recorded."""


def _capture(seen):
    def record(*args, **kwargs):
        seen.append((args, kwargs))
        raise _Captured
    return record


@pytest.mark.parametrize("kind", sorted(harness.EXPERIMENTS))
def test_cli_experiment_without_flags_runs_the_dataclass_defaults(monkeypatch, kind):
    seen = []
    monkeypatch.setattr(harness, "run_experiment", _capture(seen))
    if kind == "chains":  # refused: see test_cli_rejects_counts_below_one[chains_draws]
        assert main(["experiment", kind]) == 1 and not seen
        return
    with pytest.raises(_Captured):
        main(["experiment", kind])
    [((config,), _)] = seen
    assert config == ExperimentConfig(kind)


def test_cli_build_and_route_without_flags_use_the_dataclass_graph(monkeypatch):
    # recorded at the commit before the CLI stopped restating defaults
    graph = dict(n=2 ** 14, links=14, base=2, dist="power1", seed=0)
    configs, routes = [], []
    make_distribution = harness.make_distribution
    monkeypatch.setattr(harness, "make_distribution",
                        lambda cfg: configs.append(cfg) or make_distribution(cfg))
    monkeypatch.setattr(harness, "emit", lambda text, out: None)
    monkeypatch.setattr(routing, "route", _capture(routes))
    assert main(["build"]) == 0
    with pytest.raises(_Captured):
        main(["route", "--src", "1", "--dst", "2"])
    assert [cfg.experiment for cfg in configs] == ["build", "route"]
    for cfg in configs:
        assert {f: getattr(cfg, f) for f in graph} == graph
        assert {f: getattr(ExperimentConfig(cfg.experiment), f) for f in graph} == graph
    [((_, *args), kwargs)] = routes
    assert args == [1, 2, Sidedness.TWO_SIDED, Terminate()]
    assert {k: v for k, v in kwargs.items() if k != "rng"} == dict(
        max_hops=None, probe=True, symmetric=True)


# recorded by hand: the flags each experiment kind offers besides -h/--help
# and --out, one per config field that can change its CSV
GRAPH_FLAGS = {"--n", "--links", "--base", "--dist", "--seed"}
ROUTING_FLAGS = {"--history", "--max-hops", "--sidedness", "--choice", "--link-mode"}
EXPERIMENT_FLAGS = {
    "failures": GRAPH_FLAGS | ROUTING_FLAGS | {
        "--p-grid", "--strategy", "--trials", "--messages", "--workers", "--failure-model"},
    "compare": ROUTING_FLAGS | {
        "--n", "--links", "--seed", "--p-grid", "--strategy", "--messages",
        "--workers", "--reps", "--policy"},
    "scaling": GRAPH_FLAGS | {
        "--trials", "--messages", "--max-hops", "--sidedness", "--link-mode", "--workers",
        "--n-grid", "--l-grid"},
    "bounds": {"--n", "--links", "--seed", "--trials", "--messages", "--max-hops",
               "--sidedness", "--workers"},
    "distribution": {"--n", "--links", "--seed", "--workers", "--reps", "--policy"},
    "chains": {"--n", "--seed", "--sidedness", "--samples", "--t-max", "--workers"},
}

# flag -> (argument, field, value); each value differs from the field's default
FLAG_VALUES = {
    "--n": ("300", "n", 300),
    "--links": ("3", "links", 3),
    "--base": ("3", "base", 3),
    "--dist": ("powers", "dist", "powers"),
    "--seed": ("7", "seed", 7),
    "--p-grid": ("0.25,0.5", "p_grid", (0.25, 0.5)),
    "--strategy": ("restart,backtrack", "strategies", ("restart", "backtrack")),
    "--history": ("2", "history", 2),
    "--trials": ("4", "trials", 4),
    "--messages": ("6", "messages", 6),
    "--max-hops": ("9", "max_hops", 9),
    "--workers": ("2", "workers", 2),
    "--reps": ("3", "repetitions", 3),
    "--n-grid": ("64,128", "n_values", (64, 128)),
    "--l-grid": ("1,2", "link_values", (1, 2)),
    "--samples": ("50", "samples", 50),
    "--t-max": ("4", "t_max", 4),
    "--sidedness": ("one", "sidedness", "one"),
    "--choice": ("commit", "probe", False),
    "--link-mode": ("directed", "link_mode", "directed"),
    "--failure-model": ("link", "failure_model", "link"),
    "--policy": ("oldest", "policy", "oldest"),
}


def _subparsers(parser):
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _option_strings(parser):
    return {o for a in parser._actions for o in a.option_strings}


def test_cli_option_strings_are_unchanged():
    # build and route as recorded at the commit before the CLI stopped
    # restating defaults; each experiment kind offers its own flags
    help_flags = {"-h", "--help"}
    commands = _subparsers(build_parser())
    assert _option_strings(commands["build"]) == help_flags | GRAPH_FLAGS | {"--out"}
    assert _option_strings(commands["route"]) == help_flags | GRAPH_FLAGS | ROUTING_FLAGS | {
        "--strategy", "--src", "--dst", "--p-fail"}
    assert _option_strings(commands["experiment"]) == help_flags
    assert {kind: _option_strings(p) for kind, p in _subparsers(commands["experiment"]).items()} \
        == {kind: help_flags | flags | {"--out"} for kind, flags in EXPERIMENT_FLAGS.items()}


@pytest.mark.parametrize("kind", sorted(EXPERIMENT_FLAGS))
def test_cli_every_experiment_flag_sets_its_field(monkeypatch, kind):
    assert {field for _, field, _ in FLAG_VALUES.values()} == {
        f.name for f in fields(ExperimentConfig) if f.name != "experiment"}
    default = ExperimentConfig(kind)
    assert all(getattr(default, field) != value for _, field, value in FLAG_VALUES.values())
    seen, set_flags = [], set()
    monkeypatch.setattr(harness, "run_experiment", _capture(seen))
    # a digit scheme reads no --links or --l-grid, and scaling no --sidedness
    # under one, while the other laws read no --base: one argv per law that
    # gives every flag its law reads
    for dist in ("powers", "bernoulli"):
        flags = {flag: FLAG_VALUES[flag] for flag in sorted(EXPERIMENT_FLAGS[kind])}
        if "--dist" in flags:
            flags["--dist"] = (dist, "dist", dist)
        unread = ExperimentConfig(kind, **{f: v for _, f, v in flags.values()}).unread()
        flags = {flag: fv for flag, fv in flags.items() if fv[1] not in unread}
        argv = ["experiment", kind]
        for flag, (arg, _, _) in flags.items():
            argv += [flag, arg]
        with pytest.raises(_Captured):
            main(argv)
        [((config,), _)] = seen
        assert config == ExperimentConfig(kind, **{f: v for _, f, v in flags.values()})
        seen.clear()
        set_flags |= flags.keys()
    assert set_flags == EXPERIMENT_FLAGS[kind]


@pytest.mark.parametrize("kind", sorted(EXPERIMENT_FLAGS))
def test_cli_experiment_help_lists_exactly_its_flags(capsys, kind):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", kind, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == {"-h", "--help", "--out"} | EXPERIMENT_FLAGS[kind]


def _readme_commands():
    """Each `lineworld ...` command of README's CLI block, continuation
    lines joined, as an argv without the program name."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("lineworld ")]
    return [argv[1:] for argv in commands]


def test_readme_cli_commands_parse():
    # and each builds a config that validates, so none sets a refused field
    commands = _readme_commands()
    assert {argv[1] for argv in commands if argv[0] == "experiment"} == set(EXPERIMENT_FLAGS)
    assert {"build", "route"} <= {argv[0] for argv in commands}
    for argv in commands:
        args = build_parser().parse_args(argv)
        config_from_args(args, getattr(args, "kind", args.command))


@pytest.mark.parametrize("argv, refused, message", [
    pytest.param(["experiment", "scaling", "--dist", "detbase", "--n", "64", "--trials", "2",
                  "--messages", "20"], ["--l-grid", "1,2,3"],
                 "scaling does not use link_values under dist detbase; leave it at ()",
                 id="scaling_l_grid_detbase"),
    pytest.param(["experiment", "scaling", "--dist", "powers", "--n", "64", "--trials", "2",
                  "--messages", "20"], ["--sidedness", "one"],
                 "scaling does not use sidedness under dist powers; leave it at 'two'",
                 id="scaling_sidedness_powers"),
    pytest.param(["build", "--n", "64"], ["--base", "3"],
                 "build does not use base under dist power1; leave it at 2", id="build_base"),
    pytest.param(["build", "--n", "64", "--dist", "detbase"], ["--links", "5"],
                 "build does not use links under dist detbase; leave it at 14",
                 id="build_links_detbase"),
    pytest.param(["route", "--n", "64", "--src", "1", "--dst", "5", "--strategy", "restart"],
                 ["--history", "3"],
                 "route does not use history under strategy restart; leave it at 5",
                 id="route_history_restart"),
    pytest.param(["experiment", "failures", "--n", "64", "--links", "3", "--p-grid", "0.5",
                  "--trials", "1", "--messages", "2", "--dist", "bernoulli"], ["--base", "7"],
                 "failures does not use base under dist bernoulli; leave it at 2",
                 id="failures_base_bernoulli"),
])
def test_cli_refuses_a_flag_its_run_does_not_read(capsys, argv, refused, message):
    assert main(argv + refused) == 1
    captured = capsys.readouterr()
    assert captured.err == f"lineworld: error: {message}\n"
    assert captured.out == ""
    assert main(argv) == 0  # the same command without the refused flag runs


def test_cli_rejects_bad_config(capsys):
    rc = main(["experiment", "failures", "--p-grid", "0,1.5", "--n", "64"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--src", "70"],
    ["--src", "-1"],
    ["--src", "5", "--p-fail", "-0.5"],
    ["--src", "5", "--p-fail", "1.5"],
    ["--src", "5", "--max-hops", "0"],
], ids=["70", "-1", "p_fail_negative", "p_fail_above_one", "max_hops_zero"])
def test_cli_route_rejects_endpoint_off_the_line(capsys, argv):
    rc = main(["route", "--n", "64", "--links", "2", *argv, "--dst", "3"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("lineworld: error:")
    assert "path=" not in captured.out


FAILURES_SMALL = ["failures", "--n", "64", "--links", "2", "--trials", "1", "--messages", "2"]


@pytest.mark.parametrize("argv, message", [
    pytest.param(["distribution", "--n", "64", "--links", "2", "--reps", "0"],
                 "repetitions must be >= 1", id="repetitions"),
    pytest.param([*FAILURES_SMALL, "--messages", "0"], "messages must be >= 1", id="messages"),
    pytest.param(["chains", "--n", "8", "--samples", "0"], "samples must be >= 1", id="samples"),
    pytest.param([*FAILURES_SMALL, "--workers", "0"], "workers must be >= 1", id="workers"),
    pytest.param(["chains", "--n", "8", "--t-max", "-1"], "t_max must be >= 0", id="t_max"),
    pytest.param([*FAILURES_SMALL, "--max-hops", "0"], "max_hops must be >= 1", id="max_hops"),
    pytest.param(["distribution", "--n", "64", "--links", "0", "--reps", "1"],
                 "links must be >= 1", id="links"),
    pytest.param(["scaling", "--n", "16", "--dist", "bernoulli", "--links", "0",
                  "--trials", "1", "--messages", "2"], "links must be >= 1", id="links_scaling"),
    pytest.param(["scaling", "--n", "64", "--dist", "bernoulli", "--l-grid", "2,0",
                  "--trials", "1", "--messages", "2"], "link grid entries must be >= 1",
                 id="link_grid"),
    pytest.param(["chains", "--n", "0"], "n must be >= 1", id="n"),
    pytest.param(["scaling", "--n-grid", "0", "--trials", "1", "--messages", "2"],
                 "n grid entries must be >= 1", id="n_grid"),
    pytest.param([*FAILURES_SMALL, "--trials", "0"], "trials must be >= 1", id="trials"),
    pytest.param([*FAILURES_SMALL, "--workers", str(2 ** 63)], "workers must be <= 2**63 - 1",
                 id="workers_beyond_int64"),
    pytest.param([*FAILURES_SMALL, "--max-hops", str(2 ** 63)], "max_hops must be <= 2**63 - 1",
                 id="max_hops_beyond_int64"),
    pytest.param([*FAILURES_SMALL, "--p-grid", ","], "p grid and strategy list must not be empty",
                 id="p_grid_empty"),
    pytest.param([*FAILURES_SMALL, "--strategy", ","],
                 "p grid and strategy list must not be empty", id="strategy_empty"),
    pytest.param([*FAILURES_SMALL, "--p-grid", "0", "--strategy", "terminate", "--base", "0"],
                 "base must be >= 2", id="base"),
    pytest.param([*FAILURES_SMALL, "--p-grid", "0", "--strategy", "terminate", "--history", "0"],
                 "history must be >= 1", id="history"),
    pytest.param([*FAILURES_SMALL, "--p-grid", "0", "--strategy", "terminate", "--seed", "-1"],
                 "seed must be >= 0", id="seed_negative"),
    pytest.param([*FAILURES_SMALL, "--p-grid", "0", "--strategy", "terminate",
                  "--base", str(2 ** 63)], "base must be <= 2**63 - 1", id="base_beyond_int64"),
    pytest.param(["chains"], "chains would draw 100000 x 32768 uniforms per step, more than "
                 "2**28; lower --n or --samples", id="chains_draws"),
    pytest.param(["chains", "--n", "64", "--samples", str(2 ** 21 + 1)],
                 "chains would draw 2097153 x 128 uniforms per step, more than 2**28; lower "
                 "--n or --samples", id="chains_draws_just_beyond"),
])
def test_cli_rejects_counts_below_one(capsys, argv, message):
    # each case passes only flags its kind offers, so it reaches `validate`
    rc = main(["experiment", *argv])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"lineworld: error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["experiment", "failures", "--n", "abc"],
    ["route", "--n", "64", "--dst", "3"],
    ["frobnicate"],
    ["experiment"],
    ["build", "--n", str(2 ** 62)],
    ["route", "--n", "64", "--links", "2", "--src", "1", "--dst", "50", "--strat", "backtrack"],
    ["experiment", "chains", "--n", "8", "--samp", "200", "--t-max", "2"],
    ["route", "--n", "64", "--base", "0", "--history", "0", "--src", "1", "--dst", "50"],
    ["route", "--n", "64", "--history", "0", "--src", "1", "--dst", "50"],
    ["build", "--n", "64", "--base", "0"],
    ["experiment", "failures", "--n", "64", "--trials", "1", "--messages",
     "99999999999999999999"],
    ["experiment", "failures", "--n", "64", "--trials", "99999999999999999999", "--messages",
     "2"],
    ["experiment", "compare", "--n", "64", "--reps", "99999999999999999999", "--messages", "2"],
    ["route", "--n", "64", "--links", "2", "--src", "1", "--dst", "5", "--seed", "-3"],
], ids=["bad_int", "missing_src", "unknown_command", "missing_kind", "unallocatable_n",
        "abbreviated_flag", "abbreviated_experiment_flag", "route_base", "route_history",
        "build_base", "messages_beyond_int64", "trials_beyond_int64", "reps_beyond_int64",
        "route_seed_negative"])
def test_cli_errors_exit_1_with_one_line(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("lineworld: error:")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: lineworld experiment")


def test_cli_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "lineworld.cli", "experiment", "chains",
         "--n", "8", "--samples", "500", "--t-max", "2", "--seed", "3"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.startswith("experiment,n,sidedness,t,tv_distance")


def test_import_leaves_scipy_out():
    # A fresh interpreter: this one has already imported scipy.stats.  Only a
    # sweep that starts a process pool imports the pool's modules.
    proc = subprocess.run(
        [sys.executable, "-c", "import lineworld, lineworld.cli, sys; print(sorted("
         "m for m in sys.modules if m.split('.')[0] in "
         "('scipy', 'concurrent', 'multiprocessing')))"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
