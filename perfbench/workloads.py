"""The four benchmark workloads: seeded task lists, timed passes, output checks.

A workload drives lineworld only through its public entry points
(`harness.run_experiment`, `harness.build_by_joins`, `dynamics.join`,
`dynamics.leave`, `routing.route`) and reads graphs only through the
documented dump format.  Entry points are looked up on their module at call
time, so the wrappers that `spans.Tracer` installs are the ones called.

A task errs when it raises or when a check on its output fails.  A route
that the simulation reports as failed is a result of the science (a node
failure model kills nodes on purpose) and is never an error.
"""

from __future__ import annotations

import csv
import io
import math
import random
import statistics
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from lineworld import cli, dynamics, harness, routing
from lineworld.harness import ExperimentConfig

# Documented CSV schemas (README, "CSV schemas").
FAILURES_HEADER = ("experiment,n,links,base,p,strategy,trials,messages,delivered,"
                   "failed,capped,mean_hops,std_hops,mean_backtracks,mean_restarts,seed")
CHAINS_HEADER = "experiment,n,sidedness,t,tv_distance,samples,seed"
DUMP_HEADER = "lineworld-graph v1"

# Criterion 10: max TV below 0.02 at 100000 samples; the Monte-Carlo error
# scales as 1/sqrt(samples).
CHAIN_TV_LIMIT_AT_1E5 = 0.02

POLICY = dynamics.ReplacementPolicy.INVERSE_DISTANCE
TWO_SIDED = routing.Sidedness.TWO_SIDED


@dataclass
class Outcomes:
    """Route outcome counts, summed over a pass."""

    routes: int = 0
    delivered: int = 0
    hops: int = 0
    backtracks: int = 0
    restarts: int = 0
    capped: int = 0


PROBE_REF_S = 1e-3  # speed-probe time that defines the reference speed
PROBE_WINDOW = 4  # probes on each side of a task that give its local speed
_PROBE_KEYS = np.linspace(0.0, 1.0, 256)
_PROBE_LINE = np.arange(4096.0)


def speed_probe() -> float:
    """Seconds taken by a fixed piece of work that does not touch lineworld:
    interpreter steps with small numpy calls, then 1/d weights over a
    4096-element array.  Run just before each timed segment, it measures how
    fast the machine is at that moment."""
    t = time.perf_counter()
    acc, counts = 0, {}
    for i in range(200):
        acc += int(np.searchsorted(_PROBE_KEYS, _PROBE_KEYS[(i * 37) % 256]))
        counts[i % 31] = counts.get(i % 31, 0) + acc
    for i in range(12):
        cum = np.cumsum(1.0 / (np.abs(_PROBE_LINE - 300 * i) + 1.0))
        acc += int(np.searchsorted(cum, 0.5 * cum[-1]))
    return time.perf_counter() - t


@dataclass
class Pass:
    """One timed run of a workload's whole task list.

    Only the timed segments count: churn's growth and every task.  The
    untimed output checks between them are excluded.  `probe_s[i]` is the
    speed probe run just before task i, and `growth_probe_s` the one before
    the growth.  `outputs[i]` is task i's result, or the exception it raised.
    """

    task_s: list[float]
    probe_s: list[float]
    outputs: list
    growth_s: float = 0.0
    growth_probe_s: float = 0.0
    final: str | None = None  # churn: graph dump after the last round
    errors: dict[int, str] = field(default_factory=dict)  # task -> failed check

    @property
    def wall_s(self) -> float:
        return self.growth_s + sum(self.task_s)

    @property
    def reference_task_s(self) -> list[float]:
        """Task times in reference-speed seconds.

        Other tenants of a shared machine change its speed by a fifth or
        more within seconds.  Each measured time is scaled by PROBE_REF_S
        over the median of the speed probes taken around it.
        """
        w = PROBE_WINDOW
        return [t * PROBE_REF_S / statistics.median(self.probe_s[max(0, i - w):i + w + 1])
                for i, t in enumerate(self.task_s)]

    @property
    def reference_growth_s(self) -> float:
        growth_probe = statistics.median([self.growth_probe_s, *self.probe_s[:PROBE_WINDOW]])
        return self.growth_s * PROBE_REF_S / growth_probe

    @property
    def reference_wall_s(self) -> float:
        return self.reference_growth_s + sum(self.reference_task_s)


def _task_seeds(seed: int, count: int) -> list[int]:
    rnd = random.Random(seed)
    return [rnd.randrange(2 ** 31) for _ in range(count)]


def _call(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # a task that raises is counted, not fatal
        return exc


# ---------------------------------------------------------------------------
# experiment-call workloads: failures-route, failures-build, chains


class ExperimentTasks:
    """One task is one `harness.run_experiment` call on a fixed config."""

    def __init__(self, configs: list[ExperimentConfig]):
        self.configs = configs

    def run(self, tracer, check: bool) -> Pass:
        times, probes, outputs = [], [], []
        for cfg in self.configs:
            probes.append(speed_probe())
            with tracer.root("task"):
                t = time.perf_counter()
                outputs.append(_call(harness.run_experiment, cfg))
                times.append(time.perf_counter() - t)
        p = Pass(times, probes, outputs)
        if check:
            for i, (cfg, out) in enumerate(zip(self.configs, outputs)):
                err = (f"raised {out!r}" if isinstance(out, Exception)
                       else self.check_task(cfg, out))
                if err:
                    p.errors[i] = err
        return p

    def outcomes(self, outputs: list) -> Outcomes:
        return Outcomes()


def _csv_rows(text: str, header: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header {lines[:1]!r} is not the documented schema")
    return list(csv.DictReader(io.StringIO(text)))


def _per_delivered(row: dict, column: str) -> int:
    """Total over delivered routes of a mean column (0 when none delivered)."""
    delivered = int(row["delivered"])
    return round(float(row[column]) * delivered) if delivered else 0


class FailuresTasks(ExperimentTasks):
    def check_task(self, cfg: ExperimentConfig, text: str) -> str | None:
        try:
            rows = _csv_rows(text, FAILURES_HEADER)
        except ValueError as exc:
            return str(exc)
        if len(rows) != len(cfg.p_grid) * len(cfg.strategies):
            return f"{len(rows)} rows"
        for row in rows:
            routes = cfg.trials * cfg.messages
            delivered, failed = int(row["delivered"]), int(row["failed"])
            if delivered + failed != routes:
                return f"delivered + failed = {delivered + failed} != {routes}"
            if row["strategy"] == "terminate" and not failed / routes < float(row["p"]):
                return f"terminate failed fraction {failed / routes:.3f} >= p={row['p']}"
        return None

    def outcomes(self, outputs: list) -> Outcomes:
        o = Outcomes()
        for text in outputs:
            if isinstance(text, Exception):
                continue
            for row in _csv_rows(text, FAILURES_HEADER):
                o.routes += int(row["delivered"]) + int(row["failed"])
                o.delivered += int(row["delivered"])
                o.capped += int(row["capped"])
                o.hops += _per_delivered(row, "mean_hops")
                o.backtracks += _per_delivered(row, "mean_backtracks")
                o.restarts += _per_delivered(row, "mean_restarts")
        return o


class ChainsTasks(ExperimentTasks):
    def check_task(self, cfg: ExperimentConfig, text: str) -> str | None:
        try:
            rows = _csv_rows(text, CHAINS_HEADER)
        except ValueError as exc:
            return str(exc)
        if [int(r["t"]) for r in rows] != list(range(cfg.t_max + 1)):
            return "steps are not 0..t_max"
        tv = [float(r["tv_distance"]) for r in rows]
        limit = CHAIN_TV_LIMIT_AT_1E5 * math.sqrt(1e5 / cfg.samples)
        if tv[0] != 0.0 or not all(0.0 <= v <= 1.0 for v in tv):
            return f"tv out of range: {tv}"
        if max(tv) >= limit:
            return f"max tv {max(tv):.4f} >= {limit:.4f}"
        return None


def failures_route(seed: int, smoke: bool) -> FailuresTasks:
    """Node failures at p in {0.1, 0.5}; terminate, restart and backtrack in
    round-robin; many messages per graph so routing dominates."""
    n, links, messages, count = (2 ** 8, 8, 40, 6) if smoke else (2 ** 11, 11, 600, 102)
    combos = [(p, s) for p in (0.1, 0.5) for s in ("terminate", "restart", "backtrack")]
    return FailuresTasks([
        ExperimentConfig("failures", n=n, links=links, p_grid=(combos[i % 6][0],),
                         strategies=(combos[i % 6][1],), trials=1, messages=messages,
                         seed=s, failure_model="node", workers=1)
        for i, s in enumerate(_task_seeds(seed, count))])


def failures_build(seed: int, smoke: bool) -> FailuresTasks:
    """Three link-failure trials for every binomial-presence trial, 10
    messages each: construction does the work, routing almost none."""
    n, links, count = (2 ** 8, 8, 8) if smoke else (2 ** 12, 12, 100)
    return FailuresTasks([
        ExperimentConfig("failures", n=n, links=links, p_grid=(0.5,),
                         strategies=("terminate",), trials=1, messages=10, seed=s,
                         failure_model="binomial" if i % 4 == 3 else "link", workers=1)
        for i, s in enumerate(_task_seeds(seed, count))])


def chains(seed: int, smoke: bool) -> ChainsTasks:
    """Interval-chain oracle, two one-sided tasks for every two-sided one: no
    overlay and no routing work at all.  The faster one-sided tasks are the
    larger group, so p50 lies inside a group and not on the edge between
    them."""
    samples, count = (50, 6) if smoke else (250, 102)
    return ChainsTasks([
        ExperimentConfig("chains", n=16, t_max=8, samples=samples,
                         sidedness="two" if i % 3 == 2 else "one", seed=s, workers=1)
        for i, s in enumerate(_task_seeds(seed, count))])


# ---------------------------------------------------------------------------
# churn


@dataclass(frozen=True)
class Round:
    leaving: tuple[int, ...]
    joining: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    live: tuple[int, ...]  # expected live set after the round, sorted


class ChurnTasks:
    """Grow an overlay by joins (timed, not a task), then run rounds of
    leaves with repair, joins and backtrack routes.  One task is one round.
    The first round has no earlier leavers to rejoin, so it only leaves.

    The schedule is fixed in set-up from the seed: the benchmark tracks the
    live set itself, so it never reads the graph to choose its inputs.
    """

    def __init__(self, seed: int, n: int, links: int, rounds: int, churn: int,
                 routes: int):
        self.seed, self.n, self.links = seed, n, links
        rnd = random.Random(seed)
        live, dead = set(range(n)), set()
        self.rounds = []
        for _ in range(rounds):
            # Joiners come from positions that left in earlier rounds, so each
            # round ends with its own leavers dead and their links repaired.
            leaving = rnd.sample(sorted(live), churn)
            joining = rnd.sample(sorted(dead), min(churn, len(dead)))
            live.difference_update(leaving)
            live.update(joining)
            dead = (dead - set(joining)) | set(leaving)
            ordered = sorted(live)
            pairs = tuple(tuple(rnd.sample(ordered, 2)) for _ in range(routes))
            self.rounds.append(Round(tuple(leaving), tuple(joining), pairs, tuple(ordered)))

    def _round(self, g, r: int, rnd: Round):
        rng = np.random.default_rng([self.seed, 1, r])
        for v in rnd.leaving:
            dynamics.leave(g, v, True, rng)
        for v in rnd.joining:
            dynamics.join(g, v, self.links, POLICY, rng)
        results = [routing.route(g, s, d, TWO_SIDED, routing.Backtrack(5), rng=rng,
                                 probe=True, symmetric=True) for s, d in rnd.pairs]
        return tuple((res.delivered, res.hops, res.backtracks, res.restarts, res.capped)
                     for res in results)

    def run(self, tracer, check: bool) -> Pass:
        growth_probe = speed_probe()
        with tracer.root("growth"):
            t = time.perf_counter()
            g = harness.build_by_joins(self.n, self.links, POLICY,
                                       np.random.default_rng([self.seed, 0]))
            growth = time.perf_counter() - t
        times, probes, outputs, errors = [], [], [], {}
        for r, rnd in enumerate(self.rounds):
            probes.append(speed_probe())
            with tracer.root("task"):
                t = time.perf_counter()
                out = _call(self._round, g, r, rnd)
                times.append(time.perf_counter() - t)
            outputs.append(out)
            if isinstance(out, Exception):
                errors[r] = f"raised {out!r}"
            elif check:
                err = (check_graph(g.dump_text(), rnd.live)
                       or (None if all(o[0] for o in out) else "a route was not delivered"))
                if err:
                    errors[r] = err
        return Pass(times, probes, outputs, growth, growth_probe, final=g.dump_text(),
                    errors=errors)

    def outcomes(self, outputs: list) -> Outcomes:
        o = Outcomes()
        for out in outputs:
            if isinstance(out, Exception):
                continue
            for delivered, hops, backtracks, restarts, capped in out:
                o.routes += 1
                o.delivered += delivered
                o.capped += capped
                if delivered:
                    o.hops += hops
                    o.backtracks += backtracks
                    o.restarts += restarts
        return o


def check_graph(dump: str, live: tuple[int, ...]) -> str | None:
    """Check a dump: its live set is `live`, each live node's immediate
    sinks are its live predecessor and successor, and no live node holds a
    long link to a dead node."""
    lines = dump.splitlines()
    if lines[:1] != [DUMP_HEADER] or not lines[1].startswith("n="):
        return "bad dump header"
    n = int(lines[1][2:])
    alive, imm, longs = [False] * n, [""] * n, [""] * n
    for line in lines[2:]:
        pos, flag, imm_text, long_text = line.split("\t")
        u = int(pos)
        alive[u], imm[u], longs[u] = flag == "1", imm_text, long_text
    dumped_live = [u for u in range(n) if alive[u]]
    if tuple(dumped_live) != live:
        return "live set differs from the joins and leaves made"
    for i, u in enumerate(dumped_live):
        expect = dumped_live[max(i - 1, 0):i] + dumped_live[i + 1:i + 2]
        if imm[u] != ",".join(map(str, expect)):
            return f"node {u} stitched to {imm[u]!r}, expected {expect}"
        if longs[u] and not all(alive[int(v)] for v in longs[u].split(",")):
            return f"live node {u} keeps a link to a dead node"
    return None


def churn(seed: int, smoke: bool) -> ChurnTasks:
    """Joins and leaves mutate links and invalidate adjacency caches between
    routes, so writes run beside reads."""
    if smoke:
        return ChurnTasks(seed, n=2 ** 7, links=7, rounds=3, churn=4, routes=10)
    return ChurnTasks(seed, n=2 ** 11, links=11, rounds=100, churn=16, routes=100)


WORKLOADS = {
    "failures-route": failures_route,
    "failures-build": failures_build,
    "churn": churn,
    "chains": chains,
}


# ---------------------------------------------------------------------------
# determinism and CLI check


def determinism_check(seed: int) -> str | None:
    """A small failures config gives byte-identical CSV at workers=1 (twice),
    at workers=2, and through the CLI.  Uses threads: never call it from a
    timed process."""
    cfg = dict(experiment="failures", n=2 ** 8, links=8, p_grid=(0.0, 0.5),
               strategies=("terminate", "restart", "backtrack"), trials=4,
               messages=30, seed=seed)
    texts = [harness.run_experiment(ExperimentConfig(**cfg, workers=w)) for w in (1, 1, 2)]
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = cli.main(["experiment", "failures", "--n", "256", "--links", "8",
                           "--p-grid", "0,0.5", "--strategy", "terminate,restart,backtrack",
                           "--trials", "4", "--messages", "30", "--seed", str(seed),
                           "--workers", "1", "--out", "-"])
    texts.append(buf.getvalue())
    if status != 0:
        return f"cli exit status {status}"
    if len(set(texts)) != 1:
        return "CSV differs across workers=1, workers=2 and the CLI"
    return None
