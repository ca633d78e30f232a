"""Experiment orchestration: seeded batch runs emitting CSV.

Every experiment runs through one trial loop, `_sweep`.  A runner lists its
cells (an (n, links) pair, or a single cell) with their configuration
indices; `_sweep` runs each cell's trials, each on its own rng stream from
(master seed, experiment code, configuration indices, trial index), serially
with no pool or on a pool forked (POSIX) with no more processes than usable
CPUs or jobs, and hands back each cell's results in trial order.
The failures and compare sweeps share one trial body, `_p_grid_sweep`: a
runner hands it a graph builder and a failure model, and a trial builds its
graphs, then degrades them at every p through `overlay`'s failure injection,
replaying its stream so that failure sets nest in p, and routes them under
every strategy.  Runners reduce results in trial order, so output bytes are
identical for any worker count.  Statistics (hop mean/stddev, backtrack and
restart means) are computed over successful routes only.  README.md lists
each experiment's CSV columns.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, fields, replace
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
DIGIT_SCHEMES = ("detbase", "powers")  # the deterministic base-b link schemes
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

# count field -> least value; `validate` also holds each count, and each n and
# link grid entry (least 1), to COUNT_MAX, as past int64 no numpy array fits it
COUNT_FLOORS = dict(n=1, links=1, base=2, history=1, max_hops=1, trials=1, messages=1,
                    repetitions=1, samples=1, workers=1, t_max=0)
COUNT_MAX = 2 ** 63 - 1  # the largest int64
# the most uniforms a chains step may draw, samples x 2n of them (2 GiB)
CHAIN_DRAWS_MAX = 2 ** 28
_POOL_RUN = None  # the job runner of the last sweep that started a process pool

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
        """Failure experiments and `route` treat links as connections (usable
        both ways); scaling and bound validation keep the directed model the
        theory analyzes."""
        if self.link_mode is not None:
            return self.link_mode == "symmetric"
        return self.experiment in ("failures", "compare", "route")

    def unread(self) -> dict[str, str]:
        """Each field this config's run does not read -> why: '' if its command
        never does, else the link law or strategy list that leaves it unread."""
        law, plan = f" under dist {self.dist}", f" under strategy {','.join(self.strategies)}"
        digits = self.dist in DIGIT_SCHEMES
        # field -> (unread, why); the digit schemes link both ways at every
        # distance, so only link failures make them one-way
        rules = {"base": (not digits, law), "links": (digits, law), "link_values": (digits, law),
                 "sidedness": (digits and self.experiment == "scaling", law),  # routed one-sided
                 "link_mode": (digits and self.failure_model != "link", law),
                 "history": ("backtrack" not in self.strategies, plan)}
        return {name: why for name, (unread, why) in rules.items() if unread} | {
            f.name: "" for f in fields(self)[1:] if f.name not in COMMAND_FIELDS[self.experiment]}

    def validate(self) -> None:
        if self.experiment not in EXP_CODES:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        counts = [(name, getattr(self, name), least) for name, least in COUNT_FLOORS.items()]
        counts += [("n grid entries", v, 1) for v in self.n_values]
        counts += [("link grid entries", v, 1) for v in self.link_values]
        for name, value, least in counts:
            if value is None:  # max_hops: the default cap
                continue
            if value < least:
                raise ValueError(f"{name} must be >= {least}")
            if value > COUNT_MAX:
                raise ValueError(f"{name} must be <= 2**63 - 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
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
        unread = self.unread()
        for f in fields(self)[1:]:  # every field but `experiment`
            if f.name in unread and getattr(self, f.name) != f.default:
                raise ValueError(f"{self.experiment} does not use {f.name}{unread[f.name]}; "
                                 f"leave it at {f.default!r}")
        if self.experiment == "chains" and self.samples * 2 * self.n > CHAIN_DRAWS_MAX:
            raise ValueError(f"chains would draw {self.samples} x {2 * self.n} uniforms per "
                             "step, more than 2**28; lower --n or --samples")


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

    @classmethod
    def of(cls, routes: routing.Routes) -> "TrialStats":
        """Exact integer sums over a batch's outcome arrays."""
        hops = routes.hops[routes.delivered]
        return cls(delivered=hops.size, failed=routes.hops.size - hops.size,
                   capped=int(np.count_nonzero(routes.capped)), hop_sum=int(hops.sum()),
                   hop_sq_sum=int((hops * hops).sum()),
                   backtrack_sum=int(routes.backtracks[routes.delivered].sum()),
                   restart_sum=int(routes.restarts[routes.delivered].sum()),
                   hop_max=int(hops.max(initial=0)))

    @classmethod
    def total(cls, parts) -> "TrialStats":
        """Exact sums over `parts`, and their largest hop count."""
        parts = list(parts)
        sums = {f.name: sum(getattr(st, f.name) for st in parts) for f in fields(cls)}
        return cls(**sums | {"hop_max": max((st.hop_max for st in parts), default=0)})

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
    """Offset law of the multi-link inverse power-law scheme: each of
    `links` with-replacement draws picks offset d w.p. (1/|d|) / (2 H_{n-1}),
    so d is included w.p. 1-(1-q_d)**links; the unit offsets always are."""
    h = linkgen.harmonic_numbers(n - 1)[-1]
    d = np.arange(2, n)
    p = 1.0 - (1.0 - (1.0 / d) / (2.0 * h)) ** links
    return BernoulliOffsets(np.concatenate((-d[::-1], [-1, 1], d)),
                            np.concatenate((p[::-1], [1.0, 1.0], p)))


def _pool_run(i: int):
    return _POOL_RUN(i)


def _sweep(config: ExperimentConfig, cells: list[tuple[tuple[int, ...], object]], count: int,
           task) -> list[list]:
    """Run `task(cell, t, rng)` for every `(indices, cell)` pair and t < count,
    rng being the stream of trial t under the cell's indices; return each cell's
    results in trial order.  Jobs go by index to no more processes than
    `config.workers`, the CPUs this process may use or the jobs; they fork (POSIX)
    and inherit `_POOL_RUN`, closures and all.  A serial run imports and starts no pool."""
    global _POOL_RUN
    jobs = [(indices, cell, t) for indices, cell in cells for t in range(count)]

    def run(i):
        indices, cell, t = jobs[i]
        return task(cell, t, trial_rng(config.seed, config.experiment, *indices, t))

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(config.workers, cpus or 1, len(jobs))
    if workers <= 1:
        results = [run(i) for i in range(len(jobs))]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        _POOL_RUN = run
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            results = list(pool.map(_pool_run, range(len(jobs))))
    return [results[i:i + count] for i in range(0, len(results), count)]


ONE_CELL = [((), None)]


def route_batch(g: overlay.OverlayGraph, strategy: routing.RecoveryStrategy,
                rng: np.random.Generator, config: ExperimentConfig) -> TrialStats:
    """Route `config.messages` between uniformly chosen distinct live pairs.
    Scaling's deterministic schemes measure digit routing, which is
    one-sided greedy on them, so those cells route one-sided whatever
    `config.sidedness` says.  With fewer than two live nodes every message
    fails, and nothing is drawn."""
    live = g.live_sorted()
    if live.size < 2:
        return TrialStats(failed=config.messages)
    digits = config.experiment == "scaling" and config.dist in DIGIT_SCHEMES
    side = Sidedness.ONE_SIDED if digits else Sidedness(config.sidedness)
    # source i, then destination j of the others, per message: one
    # array-bounded draw gives the stream of one scalar draw per bound
    i, j = rng.integers(np.tile([live.size, live.size - 1], config.messages)).reshape(-1, 2).T
    j += j >= i
    return TrialStats.of(routing.route_many(
        g, live[i], live[j], side, strategy, config.max_hops, rng, config.probe,
        config.symmetric_links()))


# ---------------------------------------------------------------------------
# experiments


def _p_grid_sweep(config: ExperimentConfig, trials: int, labels, build, model: str) -> list[str]:
    """Rows by p, then strategy, then graph k, labelled `labels[k]`.
    Trial t visits p from high to low.  Under the node or link `model`,
    `build(rng)` draws its graphs once on the `_sweep` stream; at each p the
    stream is restored to where the build left it and `overlay` degrades the
    graphs in turn (the node model revives them first), so each graph's
    failure set nests in p.  The binomial model builds graph k at the i-th p
    on `trial_rng(seed, experiment, t, i, k)`, or none if too few nodes
    exist.  Every strategy then routes graph k on that stream in turn."""
    dist = make_distribution(config)

    def trial(_, t, rng) -> list[TrialStats]:
        graphs = [None] * len(labels) if model == "binomial" else build(rng)
        built = rng.bit_generator.state
        out = {}
        for i, p in sorted(enumerate(config.p_grid), key=lambda ip: -ip[1]):
            rng.bit_generator.state = built
            for k, g in enumerate(graphs):
                p_rng = trial_rng(config.seed, config.experiment, t, i, k)
                if model == "binomial":
                    try:
                        g = overlay.build_binomial_presence(config.n, p, dist, p_rng)
                    except ValueError:
                        g = None
                elif model == "link":
                    overlay.apply_link_failures(g, p, rng)
                else:
                    g.alive[:] = True
                    overlay.apply_node_failures(g, p, rng)
                for j, name in enumerate(config.strategies):
                    out[i, j, k] = (TrialStats(failed=config.messages) if g is None else
                                    route_batch(g, STRATEGIES[name](config), p_rng, config))
        return [stats for _, stats in sorted(out.items())]

    [per_trial] = _sweep(config, ONE_CELL, trials, trial)
    return [",".join([
        label, str(config.n), str(config.links), str(config.base),
        _fmt(p), strategy, str(trials), str(config.messages),
        str(s.delivered), str(s.failed), str(s.capped),
        _fmt(s.mean_hops), _fmt(s.std_hops),
        _fmt(s.backtrack_sum / s.delivered if s.delivered else float("nan")),
        _fmt(s.restart_sum / s.delivered if s.delivered else float("nan")),
        str(config.seed),
    ]) for (p, strategy, label), s in zip(product(config.p_grid, config.strategies, labels),
                                          map(TrialStats.total, zip(*per_trial)))]


def run_failures(config: ExperimentConfig) -> list[str]:
    """Failure sweep: each trial's graph is routed at every p under every
    strategy.  Failure sets nest in p; binomial presence, which decides
    where links may go, builds one graph per p."""
    return _p_grid_sweep(config, config.trials, ["failures"],
                         lambda rng: [overlay.build(config.n, make_distribution(config), rng)],
                         config.failure_model)


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
        total = TrialStats.total(stats)
        rows.append(",".join([
            "scaling", str(cfg.n), str(_nominal_links(cfg)), str(config.base), config.dist,
            str(config.trials), str(config.messages),
            _fmt(total.mean_hops), _fmt(total.stderr_hops),
            str(total.hop_max), str(config.seed),
        ]))
    return rows


def _nominal_links(config: ExperimentConfig) -> int:
    if config.dist in DIGIT_SCHEMES:
        return len(linkgen.scheme_distances(make_distribution(config), config.n))
    return config.links


def run_compare(config: ExperimentConfig) -> list[str]:
    """Ideal-built vs join-built overlays under node failures, each failed
    graph routed under every listed strategy in turn."""
    policy = dynamics.ReplacementPolicy(config.policy)
    return _p_grid_sweep(config, config.repetitions, ("compare_ideal", "compare_heuristic"),
                         lambda rng: (overlay.build(config.n, InversePowerLaw(config.links), rng),
                                      build_by_joins(config.n, config.links, policy, rng)),
                         "node")


def run_chains(config: ExperimentConfig) -> list[str]:
    """Chain-equivalence oracle: TV distance between point-chain and
    interval-chain marginals, per step."""
    d = np.delete(np.arange(-config.n, config.n + 1), config.n)  # every offset but 0
    inclusion = BernoulliOffsets(d, 1.0 / np.abs(d))
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
        src = rng.integers(1, np.full(config.messages, config.n))  # one scalar draw each
        return TrialStats.of(routing.route_many(g, src, np.zeros_like(src), side,
                                                max_hops=config.max_hops))

    [stats] = _sweep(config, ONE_CELL, config.trials, trial)
    total = TrialStats.total(stats)
    return [",".join([
        "bounds", str(config.n), str(config.links), config.sidedness,
        _fmt(lower), _fmt(total.mean_hops), _fmt(upper),
        str(config.trials), str(config.messages), str(config.seed),
    ])]


GRAPH_FIELDS = ("n", "links", "base", "dist", "seed")
ROUTING_FIELDS = ("history", "max_hops", "sidedness", "probe", "link_mode")

# experiment -> (CSV header, runner, the config fields that can change its
# CSV).  No node dies in scaling or bounds, so probing and committing route
# alike there.
EXPERIMENTS = {
    "failures": (FAILURES_HEADER, run_failures, GRAPH_FIELDS + ROUTING_FIELDS + (
        "p_grid", "strategies", "trials", "messages", "workers", "failure_model")),
    "compare": (FAILURES_HEADER, run_compare, ("n", "links", "seed") + ROUTING_FIELDS + (
        "p_grid", "strategies", "messages", "workers", "repetitions", "policy")),
    "distribution": ("experiment,n,links,seed,distance,ideal,derived,abs_error", run_distribution,
                     ("n", "links", "seed", "workers", "repetitions", "policy")),
    "scaling": ("experiment,n,links,base,dist,trials,messages,mean_hops,"
                "stderr_hops,max_hops_observed,seed", run_scaling, GRAPH_FIELDS + (
                    "trials", "messages", "max_hops", "sidedness", "link_mode", "workers",
                    "n_values", "link_values")),
    "chains": ("experiment,n,sidedness,t,tv_distance,samples,seed", run_chains,
               ("n", "seed", "sidedness", "samples", "t_max", "workers")),
    "bounds": ("experiment,n,links,sidedness,lower_bound,sim_mean_hops,"
               "upper_bound,trials,messages,seed", run_bounds,
               ("n", "links", "seed", "trials", "messages", "max_hops", "sidedness", "workers")),
}
# command -> the config fields it can read, and the CLI offers flags for
COMMAND_FIELDS = {"build": GRAPH_FIELDS, "route": GRAPH_FIELDS + ROUTING_FIELDS + ("strategies",),
                  **{kind: used for kind, (_, _, used) in EXPERIMENTS.items()}}


def run_experiment(config: ExperimentConfig) -> str:
    """Validate `config`, run its experiment and return the CSV text
    (header + rows)."""
    config.validate()
    if config.experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {config.experiment!r}")
    header, runner, _ = EXPERIMENTS[config.experiment]
    return "\n".join([header, *runner(config)]) + "\n"


def emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as f:
            f.write(text)
