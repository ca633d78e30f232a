"""Experiment orchestration: seeded batch runs emitting CSV.

Every experiment runs through one trial loop, `_sweep`.  A runner lists its
cells (a p value and strategy, an (n, links) pair, or a single cell) with
their configuration indices; `_sweep` runs each cell's trials on one
thread pool, each trial on its own rng stream derived from (master seed,
experiment code, configuration indices, trial index), and hands back each
cell's results in trial order.  The runner reduces them in that order and
formats its rows, so output bytes are identical for any worker count.
Statistics (hop mean/stddev, backtrack and restart means) are computed
over successful routes only.  README.md lists each experiment's CSV columns.
"""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from . import analysis, dynamics, linkgen, overlay, routing
from .linkgen import BernoulliOffsets, DeterministicBaseB, InversePowerLaw, PowersOfB
from .routing import Backtrack, RandomRestart, Sidedness, Terminate

EXP_CODES = {"failures": 1, "distribution": 2, "scaling": 3, "compare": 4,
             "chains": 5, "bounds": 6, "build": 7, "route": 8}

# name -> constructor from the config, for `dist` and each of `strategies`
DISTRIBUTIONS = {
    "power1": lambda c: InversePowerLaw(c.links),
    "detbase": lambda c: DeterministicBaseB(c.base),
    "powers": lambda c: PowersOfB(c.base),
    "bernoulli": lambda c: power_law_inclusion(c.n, c.links),
}
STRATEGIES = {
    "terminate": lambda c: Terminate(),
    "restart": lambda c: RandomRestart(),
    "backtrack": lambda c: Backtrack(c.history),
}

# field -> allowed values; `validate` and the CLI's `choices=` both read it
CHOICES = {
    "dist": tuple(DISTRIBUTIONS),
    "strategies": tuple(STRATEGIES),
    "sidedness": tuple(s.value for s in Sidedness),
    "link_mode": ("directed", "symmetric"),
    "failure_model": ("node", "link", "binomial"),
    "policy": tuple(p.value for p in dynamics.ReplacementPolicy),
}

FAILURES_HEADER = ("experiment,n,links,base,p,strategy,trials,messages,delivered,"
                   "failed,capped,mean_hops,std_hops,mean_backtracks,mean_restarts,seed")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n: int = 2 ** 14
    links: int = 14
    base: int = 2
    dist: str = "power1"
    p_grid: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    strategies: tuple[str, ...] = ("terminate", "restart", "backtrack")
    history: int = 5
    trials: int = 100
    messages: int = 100
    max_hops: int | None = None
    seed: int = 0
    workers: int = 1
    repetitions: int = 10
    n_values: tuple[int, ...] = ()
    link_values: tuple[int, ...] = ()
    samples: int = 10 ** 5
    t_max: int = 8
    sidedness: str = "two"
    probe: bool = True
    link_mode: str | None = None  # None: the per-experiment default
    failure_model: str = "node"
    policy: str = "inverse_distance"

    def symmetric_links(self) -> bool:
        """Failure experiments treat links as connections (usable both
        ways); scaling and bound validation keep the directed model the
        theory analyzes."""
        if self.link_mode is not None:
            return self.link_mode == "symmetric"
        return self.experiment in ("failures", "compare")

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for name in ("n", "links", "trials", "messages", "repetitions", "samples", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if any(ell < 1 for ell in self.link_values):
            raise ValueError("link grid entries must be >= 1")
        if self.t_max < 0:
            raise ValueError("t_max must be >= 0")
        if self.max_hops is not None and self.max_hops < 1:
            raise ValueError("max_hops must be >= 1")
        if not self.p_grid or not self.strategies:
            raise ValueError("p grid and strategy list must not be empty")
        if any(not 0.0 <= p <= 1.0 for p in self.p_grid):
            raise ValueError("p grid entries must lie in [0,1]")
        for name, allowed in CHOICES.items():
            given = getattr(self, name)
            if name == "link_mode" and given is None:
                continue
            for value in given if name == "strategies" else (given,):
                if value not in allowed:
                    raise ValueError(f"{name} must be one of {', '.join(allowed)}, not {value!r}")


@dataclass
class TrialStats:
    """Exact accumulators for one batch of routed messages."""

    delivered: int = 0
    failed: int = 0
    capped: int = 0
    hop_sum: int = 0
    hop_sq_sum: int = 0
    backtrack_sum: int = 0
    restart_sum: int = 0
    hop_max: int = 0

    def record(self, res: routing.RouteResult) -> None:
        if res.delivered:
            self.delivered += 1
            self.hop_sum += res.hops
            self.hop_sq_sum += res.hops * res.hops
            self.backtrack_sum += res.backtracks
            self.restart_sum += res.restarts
            self.hop_max = max(self.hop_max, res.hops)
        else:
            self.failed += 1
            if res.capped:
                self.capped += 1

    def merge(self, other: "TrialStats") -> None:
        self.delivered += other.delivered
        self.failed += other.failed
        self.capped += other.capped
        self.hop_sum += other.hop_sum
        self.hop_sq_sum += other.hop_sq_sum
        self.backtrack_sum += other.backtrack_sum
        self.restart_sum += other.restart_sum
        self.hop_max = max(self.hop_max, other.hop_max)

    @property
    def attempted(self) -> int:
        return self.delivered + self.failed

    @property
    def mean_hops(self) -> float:
        return self.hop_sum / self.delivered if self.delivered else float("nan")

    @property
    def std_hops(self) -> float:
        if not self.delivered:
            return float("nan")
        m = self.mean_hops
        return math.sqrt(max(0.0, self.hop_sq_sum / self.delivered - m * m))

    @property
    def stderr_hops(self) -> float:
        return self.std_hops / math.sqrt(self.delivered) if self.delivered else float("nan")


def _fmt(x: float) -> str:
    return "nan" if math.isnan(x) else f"{x:.6f}"


def trial_rng(seed: int, experiment: str, *indices: int) -> np.random.Generator:
    return np.random.default_rng([seed, EXP_CODES[experiment], *indices])


def make_distribution(config: ExperimentConfig) -> linkgen.LinkDistribution:
    return DISTRIBUTIONS[config.dist](config)


def power_law_inclusion(n: int, links: int) -> BernoulliOffsets:
    """Offset inclusion map of the multi-link inverse power-law scheme:
    each of `links` with-replacement draws picks offset d w.p.
    (1/|d|) / (2 H_{n-1}), so d is included w.p. 1-(1-q_d)**links."""
    h = linkgen.harmonic_number(n - 1)
    inclusion = {1: 1.0, -1: 1.0}
    for d in range(2, n):
        q = (1.0 / d) / (2.0 * h)
        p = 1.0 - (1.0 - q) ** links
        inclusion[d] = p
        inclusion[-d] = p
    return BernoulliOffsets(inclusion)


def make_strategy(name: str, config: ExperimentConfig) -> routing.RecoveryStrategy:
    return STRATEGIES[name](config)


def _sweep(config: ExperimentConfig, cells: list[tuple[tuple[int, ...], object]], count: int,
           task) -> list[list]:
    """Run `task(cell, t, rng)` for every `(indices, cell)` pair and t < count,
    rng being the stream of trial t under the cell's indices, on one pool of
    at most `config.workers` threads (and no more than there are CPUs).
    Returns each cell's results in trial order."""
    jobs = [(indices, cell, t) for indices, cell in cells for t in range(count)]

    def run(job):
        indices, cell, t = job
        return task(cell, t, trial_rng(config.seed, config.experiment, *indices, t))

    workers = min(config.workers, os.cpu_count() or 1)
    if workers <= 1:
        results = [run(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, jobs))
    return [results[i:i + count] for i in range(0, len(results), count)]


ONE_CELL = [((), None)]


def _total(parts) -> TrialStats:
    total = TrialStats()
    for st in parts:
        total.merge(st)
    return total


def route_batch(g: overlay.OverlayGraph, strategy: routing.RecoveryStrategy,
                rng: np.random.Generator, config: ExperimentConfig) -> TrialStats:
    """Route `config.messages` between uniformly chosen distinct live pairs.
    Scaling's deterministic schemes measure digit routing, which is
    one-sided greedy on them, so those cells route one-sided whatever
    `config.sidedness` says.  With fewer than two live nodes every message
    fails, and nothing is drawn."""
    live = g.live_sorted().tolist()
    if len(live) < 2:
        return TrialStats(failed=config.messages)
    stats = TrialStats()
    digits = config.experiment == "scaling" and config.dist in ("detbase", "powers")
    side = Sidedness.ONE_SIDED if digits else Sidedness(config.sidedness)
    symmetric = config.symmetric_links()
    for _ in range(config.messages):
        i = int(rng.integers(len(live)))
        j = int(rng.integers(len(live) - 1))
        if j >= i:
            j += 1
        stats.record(routing.route(g, live[i], live[j], side, strategy,
                                   max_hops=config.max_hops, rng=rng, probe=config.probe,
                                   symmetric=symmetric))
    return stats


# ---------------------------------------------------------------------------
# experiments


def _failed_graph(config: ExperimentConfig, p: float,
                  rng: np.random.Generator) -> overlay.OverlayGraph | None:
    """Fresh graph under the configured failure model.  For the node model
    p is the failure fraction; for link and binomial-presence models it is
    the survival/presence probability.  None when too few nodes exist."""
    dist = make_distribution(config)
    if config.failure_model == "binomial":
        try:
            return overlay.build_binomial_presence(config.n, p, dist, rng)
        except ValueError:
            return None
    g = overlay.build(config.n, dist, rng)
    if config.failure_model == "link":
        return overlay.apply_link_failures(g, p, rng)
    return overlay.apply_node_failures(g, p, rng)


def run_failures(config: ExperimentConfig) -> list[str]:
    """Failure sweep: fresh graph per trial under the configured failure
    model, routing between live pairs under each recovery strategy."""
    cells = [((pi, si), (p, strat_name)) for pi, p in enumerate(config.p_grid)
             for si, strat_name in enumerate(config.strategies)]

    def trial(cell, t, rng) -> TrialStats:
        p, strat_name = cell
        g = _failed_graph(config, p, rng)
        if g is None:
            return TrialStats(failed=config.messages)
        return route_batch(g, make_strategy(strat_name, config), rng, config)

    return [_failures_row(config, "failures", p, strat_name, _total(stats))
            for (_, (p, strat_name)), stats
            in zip(cells, _sweep(config, cells, config.trials, trial))]


def _failures_row(config: ExperimentConfig, experiment: str, p: float,
                  strategy: str, s: TrialStats) -> str:
    return ",".join([
        experiment, str(config.n), str(config.links), str(config.base),
        _fmt(p), strategy, str(config.trials), str(config.messages),
        str(s.delivered), str(s.failed), str(s.capped),
        _fmt(s.mean_hops), _fmt(s.std_hops),
        _fmt(s.backtrack_sum / s.delivered if s.delivered else float("nan")),
        _fmt(s.restart_sum / s.delivered if s.delivered else float("nan")),
        str(config.seed),
    ])


def build_by_joins(n: int, links: int, policy: dynamics.ReplacementPolicy,
                   rng: np.random.Generator) -> overlay.OverlayGraph:
    """Grow an overlay from empty by joining every position in random order."""
    g = overlay.OverlayGraph(n)
    for v in rng.permutation(n):
        dynamics.join(g, int(v), links, policy, rng)
    return g


def link_length_histogram(g: overlay.OverlayGraph) -> np.ndarray:
    """Normalized distribution of long-link lengths, index = length."""
    lengths = np.abs(g.sinks - np.arange(g.n)[:, None])[g.sinks != overlay.NO_NEIGHBOR]
    counts = np.bincount(lengths, minlength=g.n).astype(float)
    total = counts.sum()
    return counts / total if total else counts


def run_distribution(config: ExperimentConfig) -> list[str]:
    """Sequential-join construction fidelity: averaged link-length law of
    heuristic builds, against the exact inverse-distance law."""
    policy = dynamics.ReplacementPolicy(config.policy)
    [hists] = _sweep(config, ONE_CELL, config.repetitions, lambda _, r, rng: link_length_histogram(
        build_by_joins(config.n, config.links, policy, rng)))
    derived = np.mean(hists, axis=0)
    ideal = linkgen.ideal_length_distribution(config.n)
    return [",".join([
        "distribution", str(config.n), str(config.links), str(config.seed),
        str(d), f"{ideal[d]:.12f}", f"{derived[d]:.12f}",
        f"{abs(ideal[d] - derived[d]):.12f}",
    ]) for d in range(1, config.n)]


def run_scaling(config: ExperimentConfig) -> list[str]:
    """Hop-count sweeps on ideal failure-free graphs."""
    cells = [((ni, li), replace(config, n=n, links=ell))
             for ni, n in enumerate(config.n_values or (config.n,))
             for li, ell in enumerate(config.link_values or (config.links,))]

    def trial(cfg, t, rng) -> TrialStats:
        g = overlay.build(cfg.n, make_distribution(cfg), rng)
        return route_batch(g, Terminate(), rng, cfg)

    rows = []
    for (_, cfg), stats in zip(cells, _sweep(config, cells, config.trials, trial)):
        total = _total(stats)
        rows.append(",".join([
            "scaling", str(cfg.n), str(_nominal_links(cfg)), str(config.base), config.dist,
            str(config.trials), str(config.messages),
            _fmt(total.mean_hops), _fmt(total.stderr_hops),
            str(total.hop_max), str(config.seed),
        ]))
    return rows


def _nominal_links(config: ExperimentConfig) -> int:
    if config.dist in ("detbase", "powers"):
        return len(linkgen.scheme_distances(make_distribution(config), config.n))
    return config.links


def run_compare(config: ExperimentConfig) -> list[str]:
    """Ideal-built vs join-built overlays under node failures, each failed
    graph routed under every listed strategy in turn."""
    policy = dynamics.ReplacementPolicy(config.policy)
    labels = ("compare_ideal", "compare_heuristic")

    def rep(_, r, rng) -> list[TrialStats]:
        """Stats in row order: by p, then strategy, then graph."""
        ideal = overlay.build(config.n, InversePowerLaw(config.links), rng)
        grown = build_by_joins(config.n, config.links, policy, rng)
        out = {}
        for pi, p in enumerate(config.p_grid):
            for k, g in enumerate((ideal, grown)):
                g.alive[:] = True
                p_rng = trial_rng(config.seed, "compare", r, pi, k)
                overlay.apply_node_failures(g, p, p_rng)
                for si, strat_name in enumerate(config.strategies):
                    out[pi, si, k] = route_batch(g, make_strategy(strat_name, config),
                                                 p_rng, config)
        return [stats for _, stats in sorted(out.items())]

    [reps] = _sweep(config, ONE_CELL, config.repetitions, rep)
    cfg = replace(config, trials=config.repetitions)
    return [_failures_row(cfg, label, p, strat_name, _total(stats[i] for stats in reps))
            for i, (p, strat_name, label) in enumerate(
                product(config.p_grid, config.strategies, labels))]


def run_chains(config: ExperimentConfig) -> list[str]:
    """Chain-equivalence oracle: TV distance between point-chain and
    interval-chain marginals, per step."""
    inclusion = BernoulliOffsets(
        {d: 1.0 / abs(d) for d in range(-config.n, config.n + 1) if d != 0})
    side = Sidedness(config.sidedness)
    [[tv]] = _sweep(config, ONE_CELL, 1, lambda _, t, rng: analysis.chain_equivalence_tv(
        config.n, inclusion, side, config.t_max, config.samples, rng))
    return [",".join([
        "chains", str(config.n), config.sidedness, str(t), f"{v:.6f}",
        str(config.samples), str(config.seed),
    ]) for t, v in enumerate(tv)]


def run_bounds(config: ExperimentConfig) -> list[str]:
    """Bound sandwich: closed-form lower bound, simulated mean hops to a
    boundary target, and the drift-sum upper bound (single link)."""
    side = Sidedness(config.sidedness)
    lower = analysis.mean_lower_bound(config.n, side,
                                      power_law_inclusion(config.n, config.links))
    upper = (analysis.single_link_upper_bound(config.n - 1, 0)
             if config.links == 1 else float("nan"))

    def trial(_, t, rng) -> TrialStats:
        g = overlay.build(config.n, InversePowerLaw(config.links), rng)
        stats = TrialStats()
        for _ in range(config.messages):
            src = int(rng.integers(1, config.n))
            stats.record(routing.route(g, src, 0, side, Terminate(),
                                       max_hops=config.max_hops, probe=config.probe))
        return stats

    [stats] = _sweep(config, ONE_CELL, config.trials, trial)
    total = _total(stats)
    return [",".join([
        "bounds", str(config.n), str(config.links), config.sidedness,
        _fmt(lower), _fmt(total.mean_hops), _fmt(upper),
        str(config.trials), str(config.messages), str(config.seed),
    ])]


# experiment -> (CSV header, runner)
EXPERIMENTS = {
    "failures": (FAILURES_HEADER, run_failures),
    "compare": (FAILURES_HEADER, run_compare),
    "distribution": ("experiment,n,links,seed,distance,ideal,derived,abs_error",
                     run_distribution),
    "scaling": ("experiment,n,links,base,dist,trials,messages,mean_hops,"
                "stderr_hops,max_hops_observed,seed", run_scaling),
    "chains": ("experiment,n,sidedness,t,tv_distance,samples,seed", run_chains),
    "bounds": ("experiment,n,links,sidedness,lower_bound,sim_mean_hops,"
               "upper_bound,trials,messages,seed", run_bounds),
}


def run_experiment(config: ExperimentConfig) -> str:
    """Validate `config`, run its experiment and return the CSV text
    (header + rows)."""
    config.validate()
    header, runner = EXPERIMENTS[config.experiment]
    return "\n".join([header, *runner(config)]) + "\n"


def emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as f:
            f.write(text)
