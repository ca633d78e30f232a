"""Experiment orchestration: schemas, determinism, CLI plumbing."""

import argparse
import os
import subprocess
import sys
from dataclasses import fields, replace

import pytest

from lineworld import harness, routing
from lineworld.cli import build_parser, main
from lineworld.harness import (
    ExperimentConfig,
    FAILURES_HEADER,
    TrialStats,
    power_law_inclusion,
    run_experiment,
)
from lineworld.routing import RouteResult, Sidedness, Status, Terminate


def tiny(experiment, **kw):
    defaults = dict(n=256, links=4, trials=3, messages=40,
                    p_grid=(0.0, 0.5), strategies=("terminate", "backtrack"),
                    repetitions=2, samples=2000, t_max=3, seed=9)
    defaults.update(kw)
    return ExperimentConfig(experiment=experiment, **defaults)


def test_trial_stats_accounting():
    s = TrialStats()
    s.record(RouteResult(Status.DELIVERED, hops=4, backtracks=1))
    s.record(RouteResult(Status.DELIVERED, hops=6, backtracks=0))
    s.record(RouteResult(Status.FAILED, hops=9, capped=True))
    assert s.attempted == 3 and s.delivered == 2 and s.failed == 1 and s.capped == 1
    assert s.mean_hops == pytest.approx(5.0)
    assert s.std_hops == pytest.approx(1.0)
    assert s.failed / s.attempted == pytest.approx(1 / 3)


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
    pool = harness.ThreadPoolExecutor

    def recording_pool(max_workers):
        asked.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", recording_pool)
    cfg = tiny("failures", trials=1)  # 2 p values x 2 strategies: 4 jobs
    serial = run_experiment(cfg)
    assert asked == []
    assert run_experiment(replace(cfg, workers=64)) == serial
    cpus = os.cpu_count() or 1
    assert asked == ([cpus] if cpus > 1 else [])


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
    assert law.inclusion[1] == 1.0 and law.inclusion[-1] == 1.0
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


def test_cli_option_strings_are_unchanged():
    # recorded at the commit before the CLI stopped restating defaults
    graph = {"-h", "--help", "--n", "--links", "--base", "--dist", "--seed"}
    routing_flags = {"--strategy", "--history", "--max-hops", "--sidedness", "--choice",
                     "--link-mode"}
    expected = {
        "build": graph | {"--out"},
        "route": graph | routing_flags | {"--src", "--dst", "--p-fail"},
        "experiment": graph | routing_flags | {
            "--p-grid", "--trials", "--messages", "--out", "--workers", "--reps", "--n-grid",
            "--l-grid", "--samples", "--t-max", "--failure-model", "--policy"},
    }
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert {name: {o for a in p._actions for o in a.option_strings}
            for name, p in sub.choices.items()} == expected


def test_cli_every_experiment_flag_sets_its_field(monkeypatch):
    seen = []
    monkeypatch.setattr(harness, "run_experiment", _capture(seen))
    with pytest.raises(_Captured):
        main(["experiment", "scaling", "--n", "300", "--links", "3", "--base", "3",
              "--dist", "powers", "--seed", "7", "--p-grid", "0.25,0.5",
              "--strategy", "restart,backtrack", "--history", "2", "--trials", "4",
              "--messages", "6", "--max-hops", "9", "--workers", "2", "--reps", "3",
              "--n-grid", "64,128", "--l-grid", "1,2", "--samples", "50", "--t-max", "4",
              "--sidedness", "one", "--choice", "commit", "--link-mode", "directed",
              "--failure-model", "link", "--policy", "oldest"])
    expected = ExperimentConfig(
        "scaling", n=300, links=3, base=3, dist="powers", seed=7, p_grid=(0.25, 0.5),
        strategies=("restart", "backtrack"), history=2, trials=4, messages=6, max_hops=9,
        workers=2, repetitions=3, n_values=(64, 128), link_values=(1, 2), samples=50,
        t_max=4, sidedness="one", probe=False, link_mode="directed", failure_model="link",
        policy="oldest")
    [((config,), _)] = seen
    assert config == expected
    default = ExperimentConfig("scaling")
    assert all(getattr(expected, f.name) != getattr(default, f.name)
               for f in fields(ExperimentConfig) if f.name != "experiment")


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


@pytest.mark.parametrize("argv", [
    ["distribution", "--reps", "0"],
    ["failures", "--messages", "0"],
    ["chains", "--samples", "0"],
    ["failures", "--workers", "0"],
    ["chains", "--t-max", "-1"],
    ["failures", "--max-hops", "0"],
    ["distribution", "--links", "0", "--reps", "1"],
    ["scaling", "--n", "16", "--dist", "bernoulli", "--links", "0", "--messages", "2"],
    ["scaling", "--dist", "bernoulli", "--l-grid", "2,0", "--messages", "2"],
    ["chains", "--n", "0"],
    ["failures", "--links", "3", "--messages", "2", "--p-grid", ","],
    ["failures", "--links", "3", "--messages", "2", "--strategy", ","],
], ids=["repetitions", "messages", "samples", "workers", "t_max", "max_hops", "links",
        "links_scaling", "link_grid", "n", "p_grid_empty", "strategy_empty"])
def test_cli_rejects_counts_below_one(capsys, argv):
    # the case's own flags come last, so they override the fixed ones
    kind, *flags = argv
    rc = main(["experiment", kind, "--n", "64", "--links", "2", "--trials", "1", *flags])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("lineworld: error:")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["experiment", "failures", "--n", "abc"],
    ["route", "--n", "64", "--dst", "3"],
    ["frobnicate"],
    ["experiment"],
    ["build", "--n", str(2 ** 62)],
], ids=["bad_int", "missing_src", "unknown_command", "missing_kind", "unallocatable_n"])
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
    # A fresh interpreter: this one has already imported scipy.stats.
    proc = subprocess.run(
        [sys.executable, "-c", "import lineworld, sys; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
