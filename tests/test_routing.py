"""Greedy stepping, recovery strategies, and digit routing as one-sided
greedy on the deterministic schemes."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lineworld import routing
from lineworld.linkgen import DeterministicBaseB, InversePowerLaw, PowersOfB
from lineworld.overlay import OverlayGraph, apply_link_failures, apply_node_failures, build
from lineworld.routing import (
    Backtrack,
    RandomRestart,
    Sidedness,
    Status,
    Terminate,
    default_max_hops,
    greedy_step,
    route,
    route_many,
)
from oracles import (
    base_digit_sum,
    base_digits_nonzero,
    parse_dump,
    reference_adjacency,
    reference_neighbors,
    reference_route,
)
from test_golden import GRAPHS

ONE = Sidedness.ONE_SIDED
TWO = Sidedness.TWO_SIDED


def line_graph(n, extra_links=()):
    """Line with hand-placed long links [(u, v), ...]."""
    g = OverlayGraph(n)
    g.alive[:] = g.member[:] = True
    for u in {u for u, _ in extra_links}:
        g.set_links(u, [v for w, v in extra_links if w == u])
    return g


def test_greedy_step_adjacent():
    g = line_graph(4)
    assert greedy_step(g, 1, 0, TWO) == 0
    assert greedy_step(g, 1, 0, ONE) == 0


def test_greedy_step_picks_closest():
    g = line_graph(16, [(10, 3), (10, 12)])
    assert greedy_step(g, 10, 0, TWO) == 3


def test_greedy_step_commits_to_dead_best():
    # the node never falls back to its second-best link
    g = line_graph(16, [(10, 3), (10, 12)])
    g.alive[3] = False
    assert greedy_step(g, 10, 0, TWO) is None
    assert g.alive[9]
    # probing the candidates first takes the best live one instead
    assert greedy_step(g, 10, 0, TWO, probe=True) == 9


def test_greedy_step_requires_strict_progress():
    # equal-distance neighbor on the far side is not progress
    g = line_graph(9, [(6, 2)])
    # from 6 to target 4: candidate 2 mirrors 6, immediate 5 is closer
    assert greedy_step(g, 6, 4, TWO) == 5
    g.alive[5] = False
    assert greedy_step(g, 6, 4, TWO, probe=True) is None


def test_greedy_step_one_sided_never_overshoots():
    g = line_graph(16, [(10, 3), (10, 1)])
    # one-sided toward 2: 1 would overshoot, 3 would not
    assert greedy_step(g, 10, 2, ONE) == 3
    assert greedy_step(g, 10, 4, ONE) == 9  # both links overshoot


def test_greedy_step_two_sided_tie_prefers_non_overshooting():
    g = line_graph(16, [(9, 2), (9, 6)])
    # target 4: candidates 2 and 6 both at distance 2; 6 is on cur's side
    assert greedy_step(g, 9, 4, TWO) == 6


def test_greedy_step_contract_violations():
    g = line_graph(8)
    with pytest.raises(ValueError):
        greedy_step(g, 3, 3, TWO)
    g.alive[3] = False
    with pytest.raises(ValueError):
        greedy_step(g, 3, 0, TWO)


def test_greedy_step_exclusion_picks_next_best():
    g = line_graph(16, [(10, 3), (10, 5)])
    assert greedy_step(g, 10, 0, TWO) == 3
    assert greedy_step(g, 10, 0, TWO, exclude={3}) == 5
    assert greedy_step(g, 10, 0, TWO, exclude={3, 5}) == 9
    assert greedy_step(g, 10, 0, TWO, exclude={3, 5, 9}) is None


def test_route_identity_and_single_edge():
    g = line_graph(2)
    assert route(g, 0, 0).hops == 0
    res = route(g, 1, 0)
    assert res.status is Status.DELIVERED and res.hops == 1


def test_route_rejects_dead_endpoints():
    g = line_graph(8)
    g.alive[7] = False
    with pytest.raises(ValueError, match="endpoint dead"):
        route(g, 0, 7)


@pytest.mark.parametrize("src,dst", [(8, 0), (0, 8), (-1, 3), (3, -1)])
def test_routers_reject_endpoints_off_the_line(src, dst):
    g = line_graph(8)
    with pytest.raises(ValueError, match=r"outside \[0, 8\)"):
        route(g, src, dst)


@pytest.mark.parametrize("max_hops", [0, -1])
def test_routers_reject_max_hops_below_one(max_hops):
    g = line_graph(8)
    with pytest.raises(ValueError, match="max_hops must be >= 1"):
        route(g, 0, 7, max_hops=max_hops)


def test_route_never_fails_without_failures():
    rng = np.random.default_rng(11)
    for dist in (InversePowerLaw(4), DeterministicBaseB(3), PowersOfB(2)):
        g = build(256, dist, rng)
        for _ in range(200):
            s, d = rng.integers(256, size=2)
            res = route(g, int(s), int(d), max_hops=300)
            assert res.status is Status.DELIVERED


def test_route_monotone_progress():
    rng = np.random.default_rng(12)
    g = build(512, InversePowerLaw(3), rng)
    for _ in range(100):
        s, d = rng.integers(512, size=2)
        res = route(g, int(s), int(d), TWO)
        gaps = [abs(x - int(d)) for x in res.path]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        res = route(g, int(s), int(d), ONE)
        side = 1 if int(s) >= int(d) else -1
        signed = [side * (x - int(d)) for x in res.path]
        assert all(a > b >= 0 for a, b in zip(signed, signed[1:]))


def test_route_hop_cap():
    g = line_graph(64)
    res = route(g, 63, 0, max_hops=10)
    assert res.status is Status.FAILED and res.capped


def test_terminate_fails_on_stuck():
    g = line_graph(16, [(10, 3)])
    g.alive[3] = False
    g.alive[9] = False
    res = route(g, 10, 0, TWO, Terminate(), probe=True)
    assert res.status is Status.FAILED and not res.capped


def test_random_restart_jumps_and_caps():
    g = line_graph(32, [(20, 5)])
    for u in range(1, 12):
        g.alive[u] = False
    rng = np.random.default_rng(13)
    res = route(g, 20, 12, TWO, RandomRestart(max_restarts=10), rng=rng, probe=True)
    assert res.restarts <= 10
    with pytest.raises(ValueError):
        route(g, 20, 12, TWO, RandomRestart())


def test_backtrack_takes_next_best():
    # dead end behind 8; recovery re-chooses from the predecessor
    g = line_graph(32, [(20, 8), (20, 12), (12, 2)])
    g.alive[7] = False
    res = route(g, 20, 0, TWO, Backtrack(history=5), probe=True)
    assert res.status is Status.DELIVERED
    assert res.backtracks == 1
    assert res.path == [20, 8, 20, 12, 2, 1, 0]
    assert res.hops == len(res.path) - 1


def test_backtrack_respects_history():
    g = line_graph(8)
    for u in range(1, 4):
        g.alive[u] = False
    res = route(g, 7, 0, TWO, Backtrack(history=2), probe=True)
    assert res.status is Status.FAILED
    # 7 -> 6 -> 5 -> 4 is stuck at dead 3; the trail backs up to 5 and 6 only
    assert res.backtracks == 2
    assert res.hops == 5


@pytest.mark.parametrize("h", [2, 3, 5])
def test_backtrack_history_counts_trail_nodes(h):
    # 30 -> 10 enters a dead-end run 10, 9, ..., 11 - h (10 - h is dead);
    # only 30's second choice, 20, links on to 0, so delivery needs backing
    # up exactly h visited nodes: the h - 1 run nodes above the bottom and 30
    g = line_graph(32, [(30, 10), (30, 20), (20, 0)])
    g.alive[10 - h] = False
    res = route(g, 30, 0, TWO, Backtrack(history=h), probe=True)
    trap = list(range(10, 10 - h, -1))
    assert res.status is Status.DELIVERED
    assert res.backtracks == h
    assert res.path == [30] + trap + trap[-2::-1] + [30, 20, 0]
    res = route(g, 30, 0, TWO, Backtrack(history=h - 1), probe=True)
    assert res.status is Status.FAILED and not res.capped
    assert res.backtracks == h - 1


def test_backtrack_bounded_work():
    rng = np.random.default_rng(14)
    g = build(2 ** 12, InversePowerLaw(12), rng)
    apply_node_failures(g, 0.85, rng)
    live = g.live_sorted()
    for _ in range(200):
        i, j = rng.integers(len(live), size=2)
        if i == j:
            continue
        res = route(g, live[int(i)], live[int(j)], TWO, Backtrack(), probe=True,
                    symmetric=True, max_hops=577)
        assert res.hops <= 577


def test_terminate_failed_fraction_below_p():
    n, ell, p = 2 ** 14, 14, 0.3
    rng = np.random.default_rng(15)
    g = build(n, InversePowerLaw(ell), rng)
    apply_node_failures(g, p, rng)
    live = g.live_sorted()
    fails = 0
    trials = 2000
    for _ in range(trials):
        i = int(rng.integers(len(live)))
        j = int(rng.integers(len(live) - 1))
        if j >= i:
            j += 1
        res = route(g, live[i], live[j], TWO, Terminate(), probe=True, symmetric=True)
        fails += not res.delivered
    assert fails / trials < p


def test_base_digits_nonzero():
    assert base_digits_nonzero(5, 2) == 2
    assert base_digits_nonzero(2 ** 9, 2) == 1
    assert base_digits_nonzero(26, 3) == 3  # 222 in base 3
    assert base_digits_nonzero(27, 3) == 1


def test_base_digit_sum():
    assert base_digit_sum(5, 2) == 2
    assert base_digit_sum(26, 3) == 6  # 222 in base 3
    assert base_digit_sum(27, 3) == 1
    assert base_digit_sum(49, 5) == 9  # 144 in base 5


def test_route_deterministic_examples():
    g = build(64, DeterministicBaseB(2), np.random.default_rng(0))
    assert route(g, 5, 0, ONE).hops == 2  # distance 101b
    assert route(g, 48, 16, ONE).hops == 1  # distance 2^5
    assert route(g, 0, 63, ONE).hops == base_digits_nonzero(63, 2)


def test_route_deterministic_digit_oracle_exhaustive():
    n, b = 2 ** 7, 2
    g = build(n, DeterministicBaseB(b), np.random.default_rng(0))
    for s in range(n):
        for d in range(n):
            if s == d:
                continue
            res = route(g, s, d, ONE)
            assert res.status is Status.DELIVERED
            assert res.hops == base_digits_nonzero(abs(s - d), b)


def test_route_deterministic_base3():
    n, b = 3 ** 4, 3
    g = build(n, DeterministicBaseB(b), np.random.default_rng(0))
    rng = np.random.default_rng(1)
    for _ in range(500):
        s, d = rng.integers(n, size=2)
        if s == d:
            continue
        assert route(g, int(s), int(d), ONE).hops == \
            base_digits_nonzero(abs(int(s) - int(d)), b)


def test_powers_routing_no_failures():
    n, b = 2 ** 9, 2
    g = build(n, PowersOfB(b), np.random.default_rng(0))
    rng = np.random.default_rng(2)
    for _ in range(2000):
        s, d = rng.integers(n, size=2)
        dist = abs(int(s) - int(d))
        if dist < 2:
            continue
        res = route(g, int(s), int(d), ONE)
        assert res.status is Status.DELIVERED
        assert res.hops == base_digit_sum(dist, b)  # one largest power of b per hop


def test_powers_routing_with_link_failures():
    n, b = 2 ** 9, 2
    rng = np.random.default_rng(3)
    g = build(n, PowersOfB(b), rng)
    apply_link_failures(g, 0.5, rng)
    for _ in range(500):
        s, d = rng.integers(n, size=2)
        if s == d:
            continue
        res = route(g, int(s), int(d), ONE, max_hops=4 * n)
        assert res.status is Status.DELIVERED  # immediate fallback always exists


def test_restart_leg_hops_accumulate():
    g = line_graph(32, [(20, 8)])
    g.alive[8] = False
    g.alive[19] = False
    rng = np.random.default_rng(4)
    res = route(g, 20, 0, TWO, RandomRestart(max_restarts=50), rng=rng, probe=True)
    if res.delivered:
        # hops counts legs only, not the random jumps themselves
        assert res.hops == len(res.path) - 1 - res.restarts


def outcome(res):
    """The fields of a RouteResult that `route_many` reports."""
    return res.delivered, res.hops, res.backtracks, res.restarts, res.capped


def outcomes(routes):
    return list(zip(routes.delivered.tolist(), routes.hops.tolist(),
                    routes.backtracks.tolist(), routes.restarts.tolist(),
                    routes.capped.tolist()))


# `SCALAR_TAIL` values that make `route_many` step only in arrays, or only
# with `route`'s scalar step; TAILS adds the default, which hands a batch of
# more messages over from one to the other
STEP_KERNELS = (0, routing.ROUTE_CHUNK)
TAILS = (0, routing.SCALAR_TAIL, routing.ROUTE_CHUNK)


@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("strategy", [Terminate(), Backtrack(1), Backtrack(5)],
                         ids=["terminate", "backtrack1", "backtrack5"])
def test_route_many_matches_route(monkeypatch, graph, strategy):
    """One batch per mode gives every message `route`'s outcome, on the
    golden route graphs under every sidedness x choice rule x link mode x
    max_hops in {None, 3}, with either step kernel and with the hand-over
    from one to the other; the last pair starts at its target."""
    make, seed = GRAPHS[graph]
    rng = np.random.default_rng(seed)
    g = make(rng)
    live = g.live_sorted()
    pairs = [rng.choice(live, 2, replace=False).tolist() for _ in range(40)] + [[live[0]] * 2]
    src, dst = np.array(pairs).T
    for side, probe, symmetric, max_hops in product(Sidedness, (True, False), (False, True),
                                                    (None, 3)):
        want = [outcome(route(g, s, d, side, strategy, max_hops, probe=probe,
                              symmetric=symmetric)) for s, d in pairs]
        for tail in TAILS:
            monkeypatch.setattr(routing, "SCALAR_TAIL", tail)
            assert outcomes(route_many(g, src, dst, side, strategy, max_hops, probe=probe,
                                       symmetric=symmetric)) == want


@pytest.mark.parametrize("graph", GRAPHS)
def test_route_many_restart_lands_alike_at_any_tail(monkeypatch, graph):
    """A restart batch draws the same landings, in the same order, whether
    its last messages finish in the array step or in the scalar one."""
    make, seed = GRAPHS[graph]
    rng = np.random.default_rng(seed)
    g = make(rng)
    src, dst = np.array([rng.choice(g.live_sorted(), 2, replace=False) for _ in range(40)]).T
    for side, probe, symmetric, max_hops in product(Sidedness, (True, False), (False, True),
                                                    (None, 3)):
        runs = []
        for tail in TAILS:
            monkeypatch.setattr(routing, "SCALAR_TAIL", tail)
            many = np.random.default_rng(seed)
            runs.append((outcomes(route_many(g, src, dst, side, RandomRestart(), max_hops,
                                             many, probe, symmetric)),
                         many.bit_generator.state))
        assert runs[1] == runs[0] and runs[2] == runs[0]


def test_route_many_trail_of_huge_history_matches_route():
    # a trail never holds more than max_hops moves, so its ring needs no more
    make, seed = GRAPHS["node-failed"]
    rng = np.random.default_rng(seed)
    g = make(rng)
    pairs = [rng.choice(g.live_sorted(), 2, replace=False).tolist() for _ in range(40)]
    src, dst = np.array(pairs).T
    for max_hops in (None, 3):
        many = route_many(g, src, dst, TWO, Backtrack(10 ** 12), max_hops, symmetric=True)
        assert outcomes(many) == [outcome(route(g, s, d, TWO, Backtrack(10 ** 12), max_hops,
                                                symmetric=True)) for s, d in pairs]


@pytest.mark.parametrize("graph", GRAPHS)
def test_route_many_restart_batch_of_one_matches_route(graph):
    # a larger batch draws its landings step by step across messages
    make, seed = GRAPHS[graph]
    rng = np.random.default_rng(seed)
    g = make(rng)
    pairs = [rng.choice(g.live_sorted(), 2, replace=False).tolist() for _ in range(20)]
    for side, probe, symmetric, max_hops in product(Sidedness, (True, False), (False, True),
                                                    (None, 3)):
        for s, d in pairs:
            one, many = np.random.default_rng(seed), np.random.default_rng(seed)
            want = outcome(route(g, s, d, side, RandomRestart(), max_hops, one, probe,
                                 symmetric))
            got = route_many(g, [s], [d], side, RandomRestart(), max_hops, many, probe,
                             symmetric)
            assert outcomes(got) == [want]
            assert one.bit_generator.state == many.bit_generator.state


@pytest.mark.parametrize("strategy", [Terminate(), Backtrack(5)], ids=["terminate", "backtrack5"])
def test_route_many_chunks_route_alike(monkeypatch, strategy):
    # chunks of 7 split the 40 pairs unevenly; every message still routes
    # alone, with either step kernel
    make, seed = GRAPHS["node-failed"]
    rng = np.random.default_rng(seed)
    g = make(rng)
    src, dst = np.array([rng.choice(g.live_sorted(), 2, replace=False) for _ in range(40)]).T
    for tail in STEP_KERNELS:
        monkeypatch.setattr(routing, "SCALAR_TAIL", tail)
        monkeypatch.setattr(routing, "ROUTE_CHUNK", STEP_KERNELS[1])
        whole = route_many(g, src, dst, TWO, strategy, symmetric=True)
        monkeypatch.setattr(routing, "ROUTE_CHUNK", 7)
        assert outcomes(route_many(g, src, dst, TWO, strategy, symmetric=True)) == outcomes(whole)


class Stretched:
    """A graph that declares `n` positions over a small graph's adjacency:
    the positions past the small graph's are dead and have no links."""

    def __init__(self, small, n):
        self.small, self.n = small, n
        self.alive = np.zeros(n, dtype=bool)
        self.alive[:small.n] = small.alive

    def adjacency(self, symmetric=False):
        return self.small.adjacency(symmetric)

    def neighbors(self, u, symmetric=False):
        return self.small.neighbors(u, symmetric)

    def live_sorted(self):
        return self.small.live_sorted()


@pytest.mark.parametrize("tail", TAILS[:2])
def test_route_many_backtracks_alike_on_a_long_line(monkeypatch, tail):
    """A backtrack batch routes alike on a 64-position graph and on the
    same graph declared n positions long.  Every row routes from 2 to 8 and
    backs up to 2.  At this n, exclusion keys (row * n + node) * n + sink
    would pass 2**63 inside row 2,331's range for node 2, so an int64 key
    of that form would wrap and that row would never find its exclusion."""
    n, row = 62_903_343, 2_331
    assert (row * n + 2) * n < 2 ** 63 < (row * n + 2) * n + n
    rng = np.random.default_rng(0)
    small = apply_node_failures(build(64, InversePowerLaw(2), rng), 0.5, rng)
    src, dst = np.full(4096, 2), np.full(4096, 8)
    monkeypatch.setattr(routing, "SCALAR_TAIL", tail)
    want, got = (route_many(g, src, dst, TWO, Backtrack(5), 200, symmetric=True)
                 for g in (small, Stretched(small, n)))
    assert want.backtracks[row] > 0
    for name, a in vars(want).items():
        assert np.array_equal(getattr(got, name), a), name


def test_route_many_checks_its_arguments():
    g = line_graph(8)
    g.alive[7] = False
    with pytest.raises(ValueError, match="endpoint dead"):
        route_many(g, [0, 1], [2, 7])
    with pytest.raises(ValueError, match=r"outside \[0, 8\)"):
        route_many(g, [0], [8])
    with pytest.raises(ValueError, match="max_hops must be >= 1"):
        route_many(g, [0], [3], max_hops=0)
    with pytest.raises(ValueError, match="RandomRestart needs an rng"):
        route_many(g, [0], [3], strategy=RandomRestart())
    assert outcomes(route_many(g, [], [])) == []


def test_route_many_without_candidates_fails_at_source():
    # positions live but off the line, with no links
    g = OverlayGraph(8)
    g.alive[:] = True
    assert outcomes(route_many(g, [0, 5], [3, 5])) == [(False, 0, 0, 0, False),
                                                      (True, 0, 0, 0, False)]
    assert outcome(route(g, 0, 3)) == (False, 0, 0, 0, False)


@pytest.mark.parametrize("bad", [[1.7], [True], np.array([5.0])], ids=["float", "bool", "array"])
def test_route_many_refuses_endpoints_that_are_not_integers(bad):
    # numpy would truncate 1.7 to 1 and route it, where `route` raises; an
    # empty batch of any dtype routes nothing
    g = line_graph(8)
    for src, dst in ((bad, [3]), ([3], bad)):
        with pytest.raises(ValueError, match="endpoints must be integers"):
            route_many(g, src, dst)
    assert outcomes(route_many(g, np.zeros(0), np.zeros(0, dtype=bool))) == []


def test_array_step_keys_pads_and_dead_sinks_apart(monkeypatch):
    """The array step on a 12-position graph whose one wide row pads every
    other row, with dead sinks on both sides of most targets: every live
    pair, the line's ends and neighbours included, routes as `route` routes
    it.  A pad keyed as position -1 wins two-sided toward 0 or 1 over
    farther sinks, and a dead sink keyed below 4n wins toward n - 1."""
    g = line_graph(12, [(0, 6), (0, 11), (2, 9), (5, 0), (5, 2), (5, 8), (5, 10), (5, 11),
                        (9, 1), (9, 3), (11, 4)])
    g.alive[[3, 7, 10]] = False
    assert (g.adjacency()[0] == -1).any(axis=1).sum() == 11
    pairs = [(s, d) for s in g.live_sorted().tolist() for d in g.live_sorted().tolist() if s != d]
    src, dst = np.array(pairs).T
    monkeypatch.setattr(routing, "SCALAR_TAIL", 0)
    for side, probe, symmetric, strategy in product(Sidedness, (True, False), (False, True),
                                                    (Terminate(), Backtrack(2))):
        want = [outcome(route(g, s, d, side, strategy, probe=probe, symmetric=symmetric))
                for s, d in pairs]
        assert outcomes(route_many(g, src, dst, side, strategy, probe=probe,
                                   symmetric=symmetric)) == want


@pytest.mark.parametrize("p_node", [0.1, 0.5])
def test_route_many_matches_reference_on_wide_rows(monkeypatch, p_node):
    """At n = 2^11 with 11 links the symmetric table is 30 to 34 wide, as in
    the failure sweeps: both step kernels route every mode as the reference
    router does."""
    n = 2 ** 11
    rng = np.random.default_rng(int(p_node * 10))
    g = apply_node_failures(build(n, InversePowerLaw(11), rng), p_node, rng)
    assert g.adjacency(True)[0].shape[1] >= 30
    pairs = np.array([rng.choice(g.live_sorted(), 2, replace=False) for _ in range(200)])
    indptr, indices = reference_adjacency(g, True)
    cands = [indices[indptr[u]:indptr[u + 1]].tolist() for u in range(n)]
    alive = g.alive.tolist()
    for side, probe, strategy in product(Sidedness, (True, False), (Terminate(), Backtrack(5))):
        want = [reference_route(alive, cands, s, d, side, strategy, default_max_hops(n), None,
                                probe)[:5] for s, d in pairs.tolist()]
        want = [(status == "delivered", *counts) for status, *counts in want]
        for tail in STEP_KERNELS:
            monkeypatch.setattr(routing, "SCALAR_TAIL", tail)
            assert outcomes(route_many(g, pairs[:, 0], pairs[:, 1], side, strategy,
                                       probe=probe, symmetric=True)) == want


@pytest.mark.parametrize("count", [2, 3, 2 ** 11 + 1, 2 ** 31 - 1])
def test_tiled_pair_draw_matches_scalar_draws(count):
    """The batch routers' pair draw: one `integers` call over the bounds
    [count, count - 1] * size takes the stream of one scalar call per bound,
    so drawing every pair first keeps routes that draw nothing themselves."""
    scalar, tiled = np.random.default_rng(count), np.random.default_rng(count)
    want = []
    for _ in range(300):
        i = int(scalar.integers(count))
        j = int(scalar.integers(count - 1))
        want.append((i, j + (j >= i)))
    i, j = tiled.integers(np.tile([count, count - 1], 300)).reshape(-1, 2).T
    assert list(zip(i.tolist(), (j + (j >= i)).tolist())) == want
    assert scalar.bit_generator.state == tiled.bit_generator.state
    # the bounds experiment's sources: one draw from [1, count) per message
    assert tiled.integers(1, np.full(300, count)).tolist() == [
        int(scalar.integers(1, count)) for _ in range(300)]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(8, 48), links=st.integers(1, 4), p_link=st.sampled_from([1.0, 0.4]),
       p_node=st.sampled_from([0.0, 0.3, 0.6]), cap=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_route_matches_reference(n, links, p_link, p_node, cap, seed):
    """`route` and `route_many` return what the brute-force router over the
    dump returns, in every mode, with the default hop cap and a small one;
    `route_many` with either step kernel."""
    rng = np.random.default_rng(seed)
    g = apply_link_failures(build(n, InversePowerLaw(links), rng), p_link, rng)
    apply_node_failures(g, p_node, rng)
    live = g.live_sorted()
    if live.size < 2:
        return
    pairs = [rng.choice(live, 2, replace=False).tolist() for _ in range(8)]
    dump = g.dump_text()
    alive, _, _ = parse_dump(dump)
    cands = {symmetric: reference_neighbors(dump, symmetric) for symmetric in (False, True)}
    strategies = [Terminate(), RandomRestart(2), RandomRestart(), Backtrack(1), Backtrack(5)]
    for side, probe, symmetric, strategy, max_hops in product(
            Sidedness, (True, False), (False, True), strategies, (None, cap)):
        expected = []
        for s, d in pairs:
            res = route(g, s, d, side, strategy, max_hops=max_hops,
                        rng=np.random.default_rng(seed), probe=probe, symmetric=symmetric)
            expect = reference_route(alive, cands[symmetric], s, d, side, strategy,
                                     max_hops or default_max_hops(n),
                                     np.random.default_rng(seed), probe)
            assert (res.status.value, res.hops, res.backtracks, res.restarts, res.capped,
                    res.path) == expect
            expected.append((expect[0] == "delivered", *expect[1:5]))
        # route_many routes the pairs as one batch, with either step kernel; a
        # restart batch draws its landings in another order, so it routes the
        # first pair alone
        for tail in STEP_KERNELS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(routing, "SCALAR_TAIL", tail)
                if isinstance(strategy, RandomRestart):
                    (s, d), = pairs[:1]
                    assert outcomes(route_many(g, [s], [d], side, strategy, max_hops,
                                               np.random.default_rng(seed), probe,
                                               symmetric)) == expected[:1]
                else:
                    src, dst = np.array(pairs).T
                    assert outcomes(route_many(g, src, dst, side, strategy, max_hops, None,
                                               probe, symmetric)) == expected
