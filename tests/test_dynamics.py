"""Churn maintenance: joins, departures, and the replacement heuristic."""

import math

import numpy as np
import pytest

from lineworld.dynamics import (
    ReplacementPolicy,
    _basin_owners,
    _request_redirects,
    join,
    leave,
    replacement_decision,
)
from lineworld.linkgen import InversePowerLaw
from lineworld.overlay import OverlayGraph, build
from lineworld.routing import Sidedness, greedy_step
from oracles import immediate_column, nearest_live


def small_graph(n=32, ell=3, seed=0):
    return build(n, InversePowerLaw(ell), np.random.default_rng(seed))


def test_basin_owners_matches_scalar_nearest_live():
    rng = np.random.default_rng(0)
    ties = 0
    for _ in range(300):
        n = int(rng.integers(2, 80))
        live = np.flatnonzero(rng.random(n) < rng.uniform(0.02, 0.9))
        if live.size == 0:
            continue
        # every grid position: both line ends, the live nodes themselves and
        # every midpoint between live neighbours, the exact ties
        got = _basin_owners(live, np.arange(n)).tolist()
        assert got == [nearest_live(live.tolist(), t) for t in range(n)]
        ties += np.count_nonzero(np.diff(live) % 2 == 0)
    assert ties > 100


def test_basin_owners_examples():
    live = np.array([3, 5, 8])
    assert _basin_owners(live, np.array([5, 4, 0, 100, 6, 7])).tolist() == [5, 3, 3, 8, 5, 8]
    assert _basin_owners(np.array([3, 7]), np.array([5])).tolist() == [3]  # tie goes lower
    assert _basin_owners(np.array([3, 6]), np.array([5])).tolist() == [6]
    assert _basin_owners(np.array([4]), np.array([0, 4, 9])).tolist() == [4, 4, 4]


def test_replacement_decision_requires_links():
    with pytest.raises(ValueError):
        replacement_decision([], 1.0, np.random.default_rng(0))


def test_replacement_decision_even_split():
    rng = np.random.default_rng(1)
    trials = 200_000
    replaced = sum(replacement_decision([1.0], 1.0, rng) is not None
                   for _ in range(trials))
    se = math.sqrt(0.25 / trials)
    assert abs(replaced / trials - 0.5) < 3 * se


def test_replacement_decision_formula():
    # distances (1, 2), newcomer at 1: accept 0.4, replace-first 4/15
    rng = np.random.default_rng(2)
    trials = 1_000_000
    outcomes = np.zeros(3)
    for _ in range(trials):
        idx = replacement_decision([1.0, 2.0], 1.0, rng)
        outcomes[2 if idx is None else idx] += 1
    accept = (outcomes[0] + outcomes[1]) / trials
    se = math.sqrt(0.4 * 0.6 / trials)
    assert abs(accept - 0.4) < 3 * se
    p_first = 4.0 / 15.0
    se = math.sqrt(p_first * (1 - p_first) / trials)
    assert abs(outcomes[0] / trials - p_first) < 3 * se


def test_replacement_telescoping_identity():
    # kept-minus-kept equals the joint replace probability, exactly
    rng = np.random.default_rng(3)
    for _ in range(200):
        k = int(rng.integers(1, 12))
        d = rng.uniform(1.0, 500.0, size=k + 1)
        p = 1.0 / d
        s_k = p[:k].sum()
        s_k1 = p.sum()
        for i in range(k):
            lhs = p[i] / s_k - p[i] / s_k1
            rhs = (p[i] / s_k) * (p[k] / s_k1)
            assert abs(lhs - rhs) < 1e-12


def test_join_into_empty_and_single():
    g = OverlayGraph(8)
    rng = np.random.default_rng(4)
    join(g, 3, 2, ReplacementPolicy.INVERSE_DISTANCE, rng)
    assert g.alive[3] and not g.long_links(3)
    assert immediate_column(g)[3] == []
    # second joiner: immediate link only, no meaningful long links
    join(g, 6, 2, ReplacementPolicy.INVERSE_DISTANCE, rng)
    imm = immediate_column(g)
    assert imm[6] == [3] and imm[3] == [6]
    assert not g.long_links(6)


def test_join_rejects_live_position():
    g = small_graph()
    with pytest.raises(ValueError):
        join(g, 3, 2, ReplacementPolicy.INVERSE_DISTANCE, np.random.default_rng(0))


def test_join_conserves_other_degrees():
    g = small_graph(64, 4, seed=5)
    rng = np.random.default_rng(6)
    leave(g, 20, repair=False, rng=rng)
    before = {u: len(g.long_links(u)) for u in range(64) if u != 20}
    join(g, 20, 4, ReplacementPolicy.INVERSE_DISTANCE, rng)
    after = {u: len(g.long_links(u)) for u in range(64) if u != 20}
    assert before == after
    assert len(g.long_links(20)) == 4


def test_join_stitches_live_line():
    g = OverlayGraph(16)
    rng = np.random.default_rng(7)
    for v in (2, 9, 13):
        join(g, v, 1, ReplacementPolicy.INVERSE_DISTANCE, rng)
    join(g, 5, 1, ReplacementPolicy.INVERSE_DISTANCE, rng)
    imm = immediate_column(g)
    assert imm[2] == [5] and imm[5] == [2, 9]
    assert imm[9] == [5, 13]
    # links attach only to live nodes
    for s in g.long_links(5):
        assert g.alive[s]


def test_join_replacements_redirect_to_newcomer():
    # with many requesters, some node redirects a link to the joiner
    g = small_graph(256, 6, seed=8)
    rng = np.random.default_rng(9)
    leave(g, 100, repair=False, rng=rng)
    join(g, 100, 6, ReplacementPolicy.INVERSE_DISTANCE, rng)
    holders = [u for u in range(256) if u != 100 and 100 in g.long_links(u)]
    assert holders  # Poisson(6) requesters, accept chance well above 0


def test_oldest_policy_replaces_minimum_age():
    g = OverlayGraph(64)
    g.alive[:] = True
    g.set_links(5, [10, 20, 30])
    rng = np.random.default_rng(10)
    redirected = False
    for _ in range(200):
        before = g.long_links(5)
        ages = g.ages[5, :3].copy()
        _request_redirects(g, np.array([5]), 40, ReplacementPolicy.OLDEST, rng)
        after = g.long_links(5)
        if after != before:
            redirected = True
            changed = [i for i in range(3) if after[i] != before[i]]
            assert changed == [after.index(40)]
            # the evicted slot held the row's oldest link and now the freshest
            assert ages[changed[0]] == ages.min()
            assert g.ages[5, changed[0]] > ages.max()
            break
    assert redirected


def test_rejoin_into_empty_grid_drops_stale_line_links():
    # a position that left while it had neighbours and rejoins an empty grid
    # must not keep pointing at them
    rng = np.random.default_rng(0)
    g = OverlayGraph(24)
    for v in (0, 1, 2, 3):
        join(g, v, 3, ReplacementPolicy.INVERSE_DISTANCE, rng)
    for v in (0, 3):
        leave(g, v, True, rng)
    join(g, 0, 3, ReplacementPolicy.INVERSE_DISTANCE, rng)
    for v in (0, 1, 2):
        leave(g, v, True, rng)
    join(g, 3, 3, ReplacementPolicy.INVERSE_DISTANCE, rng)
    assert g.live_sorted().tolist() == [3]
    assert immediate_column(g)[3] == []


def test_departed_position_dumps_no_immediate_sinks():
    g = small_graph(8, 2, seed=22)
    leave(g, 3, repair=False, rng=np.random.default_rng(23))
    imm = immediate_column(g)
    assert imm[3] == [] and imm[2] == [1, 4] and imm[4] == [2, 5]
    assert g.neighbors(3).tolist() == sorted(set(g.long_links(3)))


def test_join_next_to_failed_member_links_to_it():
    # a failed node stays on the line, so a joiner beside it links to it
    g = small_graph(16, 2, seed=24)
    rng = np.random.default_rng(25)
    leave(g, 8, repair=True, rng=rng)
    g.alive[7] = False
    join(g, 8, 2, ReplacementPolicy.INVERSE_DISTANCE, rng)
    imm = immediate_column(g)
    assert imm[8] == [7, 9] and imm[7] == [6, 8]
    assert 7 in g.neighbors(8)


def test_leave_without_repair_leaves_dangling():
    g = small_graph(128, 4, seed=11)
    rng = np.random.default_rng(12)
    target = next(v for v in range(128)
                  if any(v in g.long_links(u) for u in range(128) if u != v))
    holder = next(u for u in range(128) if u != target and target in g.long_links(u))
    leave(g, target, repair=False, rng=rng)
    assert target in g.long_links(holder)
    # the dangling link is discovered by a committing greedy step
    g2 = OverlayGraph(32)
    g2.alive[:] = g2.member[:] = True
    g2.set_links(20, [4])
    leave(g2, 4, repair=False, rng=rng)
    assert greedy_step(g2, 20, 0, Sidedness.TWO_SIDED) is None


def test_leave_with_repair_no_dangling():
    g = small_graph(128, 4, seed=13)
    rng = np.random.default_rng(14)
    for v in (17, 63, 64, 100):
        leave(g, v, repair=True, rng=rng)
    dead = {17, 63, 64, 100}
    for u in range(128):
        if g.alive[u]:
            assert not dead.intersection(g.long_links(u))
    # the line closes across the departed run 63-64
    imm = immediate_column(g)
    assert imm[62] == [61, 65] and imm[65] == [62, 66]


def test_leave_with_repair_lone_survivor_keeps_dangling_link():
    # regression: repairing the last live node's links used to raise IndexError
    rng = np.random.default_rng(0)
    g = leave(build(2, InversePowerLaw(2), rng), 1, True, rng)
    assert g.alive.tolist() == [True, False]
    assert g.long_links(0) == [1, 1]
    assert immediate_column(g)[0] == []


def test_leave_repair_resamples_over_live_nodes_only():
    g = small_graph(64, 6, seed=18)
    rng = np.random.default_rng(19)
    for v in range(0, 64, 2):
        leave(g, v, repair=True, rng=rng)
    for u in range(1, 64, 2):
        assert len(g.long_links(u)) == 6
        assert all(s % 2 == 1 and s != u for s in g.long_links(u))


def test_leave_then_rejoin_consistent():
    g = small_graph(64, 3, seed=15)
    rng = np.random.default_rng(16)
    leave(g, 30, repair=True, rng=rng)
    join(g, 30, 3, ReplacementPolicy.INVERSE_DISTANCE, rng)
    assert g.alive[30]
    assert len(g.long_links(30)) == 3
    assert immediate_column(g)[30] == [29, 31]
    live_links_ok = all(g.alive[s] for u in range(64) if g.alive[u] for s in g.long_links(u))
    assert live_links_ok


def test_crash_fraction_with_repair_routes_cleanly():
    # regression: 10% crash with repair leaves delivery intact (seeded band)
    from lineworld import route
    from lineworld.harness import build_by_joins

    n, ell = 2 ** 10, 10
    rng = np.random.default_rng(17)
    g = build_by_joins(n, ell, ReplacementPolicy.INVERSE_DISTANCE, rng)
    victims = rng.choice(n, size=n // 10, replace=False)
    for v in victims:
        leave(g, int(v), repair=True, rng=rng)
    live = g.live_sorted()
    fails = 0
    trials = 2000
    for _ in range(trials):
        i = int(rng.integers(len(live)))
        j = int(rng.integers(len(live) - 1))
        if j >= i:
            j += 1
        fails += not route(g, live[i], live[j], probe=True, symmetric=True).delivered
    assert fails / trials <= 0.005
