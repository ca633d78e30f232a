"""Churn maintenance: joins, departures, and the replacement heuristic."""

import math

import numpy as np
import pytest

from scipy.stats import chisquare

from lineworld.dynamics import (
    ReplacementPolicy,
    _basin_owners,
    _requesters,
    join,
    leave,
    replacement_decision,
)
from lineworld.linkgen import InversePowerLaw
from lineworld.overlay import NO_NEIGHBOR, OverlayGraph, build
from lineworld.routing import Sidedness, greedy_step
from oracles import immediate_column, long_links, nearest_live, reference_join


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
    # requesters without links draw nothing and are never redirected
    rng = np.random.default_rng(0)
    untouched = np.random.default_rng(0)
    for width in (0, 3):
        rows = np.full((4, width), NO_NEIGHBOR)
        got = replacement_decision(rows, np.arange(4), 9, rng)
        assert got.tolist() == [-1] * 4
        got = replacement_decision(rows, np.arange(4), 9, rng, np.zeros_like(rows))
        assert got.tolist() == [-1] * 4
    assert rng.random() == untouched.random()


def _shrunk_rows():
    """Requester rows of mixed widths with their ages: an empty row,
    duplicate sinks, and rows that shrank, whose pads hold stale ages below
    every real one (`set_links` leaves the old tail's ages, `retain_links`
    parks the dropped ones there)."""
    g = OverlayGraph(128)
    g.set_links(70, [10, 20, 90, 100])
    g.set_links(70, [60, 100])
    g.set_links(30, [31, 31, 90, 5, 29])
    g.set_links(50, [40, 70, 52])
    g.set_links(77, [60])
    keep = np.ones(g.sinks.shape, dtype=bool)
    keep[50, 0] = False
    g.retain_links(keep)
    requesters = np.array([50, 10, 30, 77, 70])
    return g.sinks[requesters], g.ages[requesters], requesters


def test_replacement_decision_law():
    # every slot of every row is replaced w.p. (p_i/S_k)(p_new/S_{k+1})
    rows, ages, requesters = _shrunk_rows()
    v, trials = 64, 40_000
    rng = np.random.default_rng(26)
    got = replacement_decision(np.tile(rows, (trials, 1)), np.tile(requesters, trials), v, rng)
    got = got.reshape(trials, -1)
    draws = 0
    for i, u in enumerate(requesters):
        k = np.count_nonzero(rows[i] != NO_NEIGHBOR)
        if k == 0:
            assert (got[:, i] == -1).all()
            continue
        p = 1.0 / np.abs(rows[i, :k] - u)
        p_new = 1.0 / abs(u - v)
        accept = p_new / (p.sum() + p_new)
        law = np.append(1 - accept, p / p.sum() * accept)  # keep, then each slot
        observed = np.bincount(got[:, i] + 1, minlength=k + 1)
        assert observed.size == k + 1  # no pad slot is ever chosen
        assert chisquare(observed, law * trials).pvalue > 1e-3
        draws += trials + np.count_nonzero(got[:, i] >= 0)
    # one accept uniform per requester with links, one victim per accept
    after = np.random.default_rng(26)
    after.random(draws)
    assert rng.random() == after.random()


def test_replacement_decision_oldest_evicts_minimum_real_age():
    rows, ages, requesters = _shrunk_rows()
    v, trials = 64, 20_000
    rng = np.random.default_rng(27)
    got = replacement_decision(np.tile(rows, (trials, 1)), np.tile(requesters, trials), v, rng,
                               np.tile(ages, (trials, 1))).reshape(trials, -1)
    real = rows != NO_NEIGHBOR
    assert (ages[~real & real.any(axis=1)[:, None]] < ages[real].min()).any()  # a stale pad
    draws = 0
    for i, u in enumerate(requesters):
        hit = got[:, i] >= 0
        k = np.count_nonzero(real[i])
        if k:
            oldest = int(np.argmin(ages[i, :k]))
            assert set(got[hit, i].tolist()) == {oldest}
            accept = (1.0 / abs(u - v)) / ((1.0 / np.abs(rows[i, :k] - u)).sum() + 1.0 / abs(u - v))
            se = math.sqrt(accept * (1 - accept) / trials)
            assert abs(hit.mean() - accept) < 3 * se
            draws += trials
        else:
            assert not hit.any()
    # no victim draw: the same stream as the accept uniforms alone
    after = np.random.default_rng(27)
    after.random(draws)
    assert rng.random() == after.random()


def test_replacement_decision_even_split():
    rng = np.random.default_rng(1)
    trials = 200_000
    got = replacement_decision(np.full((trials, 1), 6), np.full(trials, 5), 4, rng)
    replaced = np.count_nonzero(got >= 0)
    se = math.sqrt(0.25 / trials)
    assert abs(replaced / trials - 0.5) < 3 * se


def test_replacement_decision_formula():
    # distances (1, 2), newcomer at 1: accept 0.4, replace-first 4/15
    rng = np.random.default_rng(2)
    trials = 1_000_000
    got = replacement_decision(np.tile([11, 12], (trials, 1)), np.full(trials, 10), 9, rng)
    outcomes = np.bincount(np.where(got < 0, 2, got), minlength=3)
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
    assert g.alive[3] and not long_links(g, 3)
    assert immediate_column(g)[3] == []
    # second joiner: immediate link only, no meaningful long links
    join(g, 6, 2, ReplacementPolicy.INVERSE_DISTANCE, rng)
    imm = immediate_column(g)
    assert imm[6] == [3] and imm[3] == [6]
    assert not long_links(g, 6)


class CountingRng:
    """A generator that counts its `random` calls, one per sampling round."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def random(self, size):
        self.calls += 1
        return self.rng.random(size)


def test_requesters_match_generator_choice():
    # the module's successive sampler takes the nodes that
    # Generator.choice(replace=False, p) takes, in its order, and leaves the
    # generator where choice leaves it; this pins numpy's algorithm
    rng = np.random.default_rng(30)
    rounds = []
    for case in range(600):
        n = int(rng.integers(3, 300))
        v = int(rng.integers(n))
        others = np.delete(np.arange(n), v)
        m = int(rng.integers(2, others.size + 1)) if case % 3 else 2
        live = np.sort(rng.choice(others, m, replace=False))
        if case % 5 == 0:  # two nodes beside v and the rest far: ~1/d piles up
            live = np.unique(np.concatenate((live[np.abs(live - v) > n // 2],
                                             [u for u in (v - 1, v + 1) if 0 <= u < n])))
            if live.size < 2:
                continue
        k = live.size - 1 if case % 2 else int(rng.integers(1, live.size))
        seed = int(rng.integers(2 ** 32))
        w = 1.0 / np.abs(live - v).astype(float)
        want_rng = np.random.default_rng(seed)
        want = want_rng.choice(live, k, replace=False, p=w / w.sum())
        got_rng = CountingRng(np.random.default_rng(seed))
        got = _requesters(live, v, k, got_rng)
        assert got.tolist() == want.tolist()
        assert got_rng.rng.bit_generator.state == want_rng.bit_generator.state
        rounds.append(got_rng.calls)
    # the redraw loop ran, more than once in some draws
    assert max(rounds) >= 3


def _join_leave_sequence(n: int, seed: int):
    """Joins and leaves on an n-position grid: sparse lines of 0-3 live
    nodes with joiners often at either end, then growth to a full line and
    rejoins into a line one node short.  Yields ("join" or "leave", v,
    repair) in order."""
    pick = np.random.default_rng([seed, n])
    live: set[int] = set()
    for _ in range(40):
        dead = sorted(set(range(n)) - live)
        if dead and (len(live) < 3 and pick.random() < 0.7 or not live):
            ends = [v for v in (0, n - 1) if v not in live]
            v = int(pick.choice(ends if ends and pick.random() < 0.5 else dead))
            live.add(v)
            yield "join", v, False
        else:
            v = int(pick.choice(sorted(live)))
            live.discard(v)
            yield "leave", v, bool(pick.random() < 0.5)
    for v in pick.permutation(sorted(set(range(n)) - live)).tolist():
        live.add(v)
        yield "join", v, False
    for v in [0, n - 1] + pick.integers(0, n, 4).tolist():
        yield "leave", v, bool(pick.random() < 0.5)
        yield "join", v, False


@pytest.mark.parametrize("policy", list(ReplacementPolicy))
@pytest.mark.parametrize("n", [2, 3, 5, 64, 2 ** 11])
def test_join_matches_reference_join(n, policy):
    # join writes what the reference join writes and leaves the generator
    # where it does, after every join of a seeded join/leave sequence
    links = max(1, n.bit_length() - 1)
    for seed in range(3 if n < 2 ** 11 else 1):
        g, ref = OverlayGraph(n), OverlayGraph(n)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for op, v, repair in _join_leave_sequence(n, seed):
            if op == "leave":
                leave(g, v, repair, rng)
                leave(ref, v, repair, ref_rng)
                continue
            join(g, v, links, policy, rng)
            reference_join(ref, v, links, policy, ref_rng)
            assert np.array_equal(g.sinks, ref.sinks) and np.array_equal(g.ages, ref.ages)
            assert g._clock == ref._clock
            assert np.array_equal(g.member, ref.member) and np.array_equal(g.alive, ref.alive)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_join_rejects_live_position():
    g = small_graph()
    with pytest.raises(ValueError):
        join(g, 3, 2, ReplacementPolicy.INVERSE_DISTANCE, np.random.default_rng(0))


def test_join_conserves_other_degrees():
    g = small_graph(64, 4, seed=5)
    rng = np.random.default_rng(6)
    leave(g, 20, repair=False, rng=rng)
    before = {u: len(long_links(g, u)) for u in range(64) if u != 20}
    join(g, 20, 4, ReplacementPolicy.INVERSE_DISTANCE, rng)
    after = {u: len(long_links(g, u)) for u in range(64) if u != 20}
    assert before == after
    assert len(long_links(g, 20)) == 4


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
    for s in long_links(g, 5):
        assert g.alive[s]


def test_join_replacements_redirect_to_newcomer():
    # with many requesters, some node redirects a link to the joiner
    g = small_graph(256, 6, seed=8)
    rng = np.random.default_rng(9)
    leave(g, 100, repair=False, rng=rng)
    join(g, 100, 6, ReplacementPolicy.INVERSE_DISTANCE, rng)
    holders = [u for u in range(256) if u != 100 and 100 in long_links(g, u)]
    assert holders  # Poisson(6) requesters, accept chance well above 0


def test_oldest_policy_replaces_minimum_age():
    # every row shrank by its oldest link, so each pad holds an age below
    # every real one; a redirect must still evict the oldest real link
    g = small_graph(64, 3, seed=10)
    keep = np.ones(g.sinks.shape, dtype=bool)
    keep[:, 0] = False
    g.retain_links(keep)
    rng = np.random.default_rng(10)
    redirected = 0
    for v in range(0, 64, 4):
        leave(g, v, repair=False, rng=rng)
        ages = g.ages.copy()
        join(g, v, 2, ReplacementPolicy.OLDEST, rng)
        rows, slots = np.nonzero(g.ages[:, :3] != ages)
        others = rows != v
        rows, slots = rows[others], slots[others]
        assert (slots < 2).all()
        assert (ages[rows, slots] == ages[rows, :2].min(axis=1)).all()
        # the evicted slot now holds the joiner, the freshest link
        assert (g.sinks[rows, slots] == v).all()
        assert (g.ages[rows, slots] > ages.max()).all()
        redirected += rows.size
    assert redirected > 0


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
    assert g.neighbors(3).tolist() == sorted(set(long_links(g, 3)))


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
                  if any(v in long_links(g, u) for u in range(128) if u != v))
    holder = next(u for u in range(128) if u != target and target in long_links(g, u))
    leave(g, target, repair=False, rng=rng)
    assert target in long_links(g, holder)
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
            assert not dead.intersection(long_links(g, u))
    # the line closes across the departed run 63-64
    imm = immediate_column(g)
    assert imm[62] == [61, 65] and imm[65] == [62, 66]


def test_leave_with_repair_lone_survivor_keeps_dangling_link():
    # regression: repairing the last live node's links used to raise IndexError
    rng = np.random.default_rng(0)
    g = leave(build(2, InversePowerLaw(2), rng), 1, True, rng)
    assert g.alive.tolist() == [True, False]
    assert long_links(g, 0) == [1, 1]
    assert immediate_column(g)[0] == []


def test_leave_repair_resamples_over_live_nodes_only():
    g = small_graph(64, 6, seed=18)
    rng = np.random.default_rng(19)
    for v in range(0, 64, 2):
        leave(g, v, repair=True, rng=rng)
    for u in range(1, 64, 2):
        assert len(long_links(g, u)) == 6
        assert all(s % 2 == 1 and s != u for s in long_links(g, u))


def test_leave_then_rejoin_consistent():
    g = small_graph(64, 3, seed=15)
    rng = np.random.default_rng(16)
    leave(g, 30, repair=True, rng=rng)
    join(g, 30, 3, ReplacementPolicy.INVERSE_DISTANCE, rng)
    assert g.alive[30]
    assert len(long_links(g, 30)) == 3
    assert immediate_column(g)[30] == [29, 31]
    live_links_ok = all(g.alive[s] for u in range(64) if g.alive[u] for s in long_links(g, u))
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
