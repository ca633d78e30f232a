"""The scratch pool that the trial path's large temporaries come from: no
result is a view of it, calls of different sizes that take its slots in
turn still match the references, and a trial allocates little beyond the
graph it builds."""

import copy
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from lineworld import harness, linkgen, routing
from lineworld.dynamics import ReplacementPolicy, join
from lineworld.harness import ExperimentConfig
from lineworld.linkgen import InversePowerLaw, sample_line_links
from lineworld.overlay import (
    apply_link_failures,
    apply_node_failures,
    build,
    build_binomial_presence,
)
from lineworld.routing import Backtrack, Sidedness, Terminate, route_many
from oracles import (
    reference_adjacency,
    reference_join,
    reference_line_links,
    reference_retain_links,
    reference_route,
)


def pooled(a: np.ndarray) -> bool:
    return any(np.shares_memory(a, slot) for slot in linkgen._POOL)


def test_results_are_not_pool_views():
    n, links = 2 ** 12, 12
    rng = np.random.default_rng(31)
    present = rng.random(n) < 0.5
    results = [sample_line_links(np.arange(n), n, links, rng),
               sample_line_links(np.flatnonzero(present), n, links, rng, present=present)]
    for g in (build(n, InversePowerLaw(links), rng),
              build_binomial_presence(n, 0.5, InversePowerLaw(links), rng)):
        results += [g.sinks, g.ages, g.alive, g.member]
        for symmetric in (False, True):
            results += g.adjacency(symmetric)
        apply_link_failures(g, 0.5, rng)
        results += [g.sinks, g.ages]
    assert all(slot.size for slot in linkgen._POOL)
    assert not any(map(pooled, results))


def assert_adjacency_matches_reference(g):
    for symmetric in (False, True):
        table, deg = g.adjacency(symmetric)
        indptr, indices = reference_adjacency(g, symmetric)
        assert np.array_equal(deg, np.diff(indptr))
        assert np.array_equal(table[np.arange(table.shape[1]) < deg[:, None]], indices)


@pytest.mark.parametrize("tail", (0, routing.ROUTE_CHUNK))
def test_interleaved_sizes_match_references(monkeypatch, tail):
    # each size's calls take the slots that the previous size's grew or left
    # alone; 2^5 stays below the pool's scale
    monkeypatch.setattr(routing, "SCALAR_TAIL", tail)
    rng = np.random.default_rng(32)
    for n in (2 ** 12, 2 ** 5, 2 ** 12):
        links = n.bit_length() - 1
        dist = InversePowerLaw(links)

        # link failures: the retain oracle on the uniforms they draw
        g = build(n, dist, rng)
        assert_adjacency_matches_reference(g)
        sinks, ages, replay = g.sinks.copy(), g.ages.copy(), copy.deepcopy(rng)
        apply_link_failures(g, 0.5, rng)
        want = reference_retain_links(sinks, ages, replay.random(g._clock)[ages] < 0.5)
        assert np.array_equal(g.sinks, want[0]) and np.array_equal(g.ages, want[1])
        assert_adjacency_matches_reference(g)

        # a binomial build: the rejection pass against the reference sampler
        replay = copy.deepcopy(rng)
        b = build_binomial_presence(n, 0.5, dist, rng)
        present = np.flatnonzero(replay.random(n) < 0.5)
        assert np.array_equal(b.sinks[present],
                              reference_line_links(present, n, links, replay, present=b.alive))
        assert_adjacency_matches_reference(b)

        # joins into the binomial graph's gaps
        for v in np.flatnonzero(~b.alive)[::max(1, n // 64)].tolist():
            ref, ref_rng = copy.deepcopy(b), copy.deepcopy(rng)
            join(b, v, links, ReplacementPolicy.INVERSE_DISTANCE, rng)
            reference_join(ref, v, links, ReplacementPolicy.INVERSE_DISTANCE, ref_rng)
            assert np.array_equal(b.sinks, ref.sinks) and np.array_equal(b.ages, ref.ages)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert_adjacency_matches_reference(b)

        # routes on the link-failed graph with dead nodes
        apply_node_failures(g, 0.3, rng)
        live = g.live_sorted()
        pairs = np.array([rng.choice(live, 2, replace=False) for _ in range(200)])
        alive = g.alive.tolist()
        for symmetric, probe, strategy in product((False, True), (True, False),
                                                  (Terminate(), Backtrack(5))):
            indptr, indices = reference_adjacency(g, symmetric)
            cands = [indices[indptr[u]:indptr[u + 1]].tolist() for u in range(n)]
            got = route_many(g, pairs[:, 0], pairs[:, 1], Sidedness.TWO_SIDED, strategy,
                             probe=probe, symmetric=symmetric)
            want = [reference_route(alive, cands, s, d, Sidedness.TWO_SIDED, strategy,
                                    routing.default_max_hops(n), None, probe)[:5]
                    for s, d in pairs.tolist()]
            assert list(zip(np.where(got.delivered, "delivered", "failed").tolist(),
                            got.hops.tolist(), got.backtracks.tolist(),
                            got.restarts.tolist(), got.capped.tolist())) == want


def test_lockstep_buffers_share_no_slot(monkeypatch):
    # the lockstep state, the candidate rows, their keys and the position
    # lookup are all live during an array step
    taken = []

    def recording(slot, shape, dtype=np.int64):
        taken.append(linkgen.scratch(slot, shape, dtype))
        return taken[-1]

    monkeypatch.setattr(routing, "scratch", recording)
    monkeypatch.setattr(routing, "SCALAR_TAIL", 0)
    rng = np.random.default_rng(34)
    g = apply_node_failures(build(2 ** 12, InversePowerLaw(12), rng), 0.3, rng)
    pairs = np.array([rng.choice(g.live_sorted(), 2, replace=False) for _ in range(200)])
    route_many(g, pairs[:, 0], pairs[:, 1], Sidedness.TWO_SIDED, Backtrack(5), symmetric=True)
    assert len(taken) == 4 and all(map(pooled, taken))
    assert not any(np.shares_memory(a, b) for a, b in combinations(taken, 2))


# The second trial's traced peak may exceed the graph's own arrays by this
# much.  Without the pool the trial peaked at 2.72 MiB, 1.19 MiB over them;
# with it, 0.20 MiB over them (seeds 1, 2, 3 and 33 alike)
TRIAL_MARGIN_BYTES = 1 << 19


def test_a_trial_allocates_little_beyond_its_graph(monkeypatch):
    config = ExperimentConfig("failures", n=2 ** 12, links=12, p_grid=(0.5,),
                              strategies=("terminate",), trials=1, messages=10, seed=33,
                              failure_model="link", workers=1)
    graphs = []
    route_batch = harness.route_batch

    def recording(g, *args):
        graphs.append(g)
        return route_batch(g, *args)

    monkeypatch.setattr(harness, "route_batch", recording)
    first = harness.run_experiment(config)  # grows the pool
    tracemalloc.start()
    try:
        assert harness.run_experiment(config) == first
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    g = graphs[-1]
    own = g.sinks.nbytes + g.ages.nbytes + sum(a.nbytes for adj in g._adjacency.values()
                                               for a in adj)
    assert peak <= own + TRIAL_MARGIN_BYTES, (peak, own)
