"""Overlay construction, failure injection, and the serialization contract."""

import math

import numpy as np
import pytest

from lineworld import overlay
from lineworld.dynamics import ReplacementPolicy, join, leave
from lineworld.harness import build_by_joins, power_law_inclusion
from lineworld.linkgen import DeterministicBaseB, InversePowerLaw, PowersOfB
from lineworld.overlay import (
    NO_NEIGHBOR,
    OverlayGraph,
    apply_link_failures,
    apply_node_failures,
    build,
    build_binomial_presence,
)
from oracles import (
    deterministic_links,
    immediate_column,
    long_links,
    nearest_members,
    offset_law,
    power_links,
    reference_adjacency,
    reference_offset_build,
    reference_retain_links,
)


def test_build_degenerate_pair():
    g = build(2, InversePowerLaw(3), np.random.default_rng(0))
    assert immediate_column(g) == [[1], [0]]
    assert set(long_links(g, 0)) == {1} and set(long_links(g, 1)) == {0}


def test_build_rejects_tiny_line():
    with pytest.raises(ValueError):
        build(1, InversePowerLaw(1), np.random.default_rng(0))


def test_build_link_budget_exact():
    # with-replacement draws: every node stores exactly its quota
    n, ell = 2 ** 14, 14
    g = build(n, InversePowerLaw(ell), np.random.default_rng(1))
    assert sum(len(long_links(g, u)) for u in range(g.n)) == n * ell
    assert all(len(long_links(g, u)) == ell for u in range(g.n))


def test_build_deterministic_links():
    g = build(8, DeterministicBaseB(2), np.random.default_rng(0))
    assert set(long_links(g, 0)) == {1, 2, 4}


@pytest.mark.parametrize("b", [2, 3, 5])
@pytest.mark.parametrize("n", [2, 3, 8, 9, 64, 81, 100, 1000, 1024])
def test_deterministic_tables_match_per_node_sets(n, b):
    # each row holds the node's scheme sinks on present positions, ascending,
    # in a table exactly as wide as its widest row
    for dist, oracle in ((DeterministicBaseB(b), deterministic_links), (PowersOfB(b), power_links)):
        graphs = [build(n, dist, np.random.default_rng(0))]
        for seed, p in enumerate((0.3, 0.7)):
            try:
                graphs.append(build_binomial_presence(n, p, dist, np.random.default_rng(seed)))
            except ValueError:  # fewer than two positions drawn present
                assert np.count_nonzero(np.random.default_rng(seed).random(n) < p) < 2
        for g in graphs:
            present = set(np.flatnonzero(g.alive).tolist())
            rows = [long_links(g, u) for u in range(n)]
            for u, row in enumerate(rows):
                assert row == (sorted(oracle(u, n, b) & present) if u in present else [])
            assert g.sinks.shape[1] == max(map(len, rows))


def test_build_immediate_links():
    g = build(50, InversePowerLaw(2), np.random.default_rng(2))
    assert g.member.all()
    imm = immediate_column(g)
    for u in range(50):
        assert imm[u] == [v for v in (u - 1, u + 1) if 0 <= v < 50]


def test_link_failures_identity_and_wipeout():
    rng = np.random.default_rng(3)
    g = build(200, InversePowerLaw(4), rng)
    before = g.dump_text()
    apply_link_failures(g, 1.0, rng)
    assert g.dump_text() == before
    apply_link_failures(g, 0.0, rng)
    assert all(not long_links(g, u) for u in range(g.n))
    # immediate adjacency survives in full
    imm = immediate_column(g)
    for u in range(200):
        assert imm[u] == [v for v in (u - 1, u + 1) if 0 <= v < 200]


def test_link_failures_survival_rate():
    # a full table, and a padded one whose pads hold clock values too
    n, p = 2 ** 12, 0.5
    rng = np.random.default_rng(4)
    for dist, padded in ((InversePowerLaw(12), False), (PowersOfB(2), True)):
        g = build(n, dist, rng)
        total = int(np.count_nonzero(g.sinks != NO_NEIGHBOR))
        assert (total < g.sinks.size) == padded
        apply_link_failures(g, p, rng)
        survivors = sum(len(long_links(g, u)) for u in range(g.n))
        se = math.sqrt(total * p * (1 - p))
        assert abs(survivors - p * total) < 3 * se


def _joined_then_repaired(rng):
    g = build_by_joins(2 ** 9, 9, ReplacementPolicy.INVERSE_DISTANCE, rng)
    for v in rng.choice(2 ** 9, size=8, replace=False):
        leave(g, int(v), True, rng)
    return g


@pytest.mark.parametrize("make", [lambda rng: build(2 ** 10, PowersOfB(2), rng),
                                  _joined_then_repaired], ids=["powers2", "joins-and-leaves"])
def test_link_failures_replayed_at_falling_p_nest(make):
    # one saved generator state replayed at each lower p drops a superset
    # of links; a link is its (holder, sink, age), ages being unique
    rng = np.random.default_rng(30)
    g = make(rng)
    assert (g.sinks == NO_NEIGHBOR).any()

    def links():
        real = g.sinks != NO_NEIGHBOR
        return set(zip(np.nonzero(real)[0].tolist(), g.sinks[real].tolist(),
                       g.ages[real].tolist()))

    before = links()
    total = len(before)
    drawn = rng.bit_generator.state
    for p in (0.9, 0.6, 0.3, 0.1):
        rng.bit_generator.state = drawn
        apply_link_failures(g, p, rng)
        now = links()
        assert now <= before
        assert abs(len(now) / total - p) < 5 * math.sqrt(p * (1 - p) / total)
        before = now


def test_link_failures_preserve_immediate_adjacency():
    rng = np.random.default_rng(5)
    g = build(300, InversePowerLaw(3), rng)
    imm_before = immediate_column(g)
    apply_link_failures(g, 0.4, rng)
    assert immediate_column(g) == imm_before


def test_binomial_presence_full():
    g = build_binomial_presence(64, 1.0, InversePowerLaw(3), np.random.default_rng(6))
    assert g.alive.all()
    assert all(len(long_links(g, u)) == 3 for u in range(g.n))
    imm = immediate_column(g)
    for u in range(1, 63):
        assert imm[u] == [u - 1, u + 1]


def test_binomial_presence_count_and_sinks():
    n, p = 2 ** 12, 0.5
    g = build_binomial_presence(n, p, InversePowerLaw(4), np.random.default_rng(7))
    present = int(g.alive.sum())
    se = math.sqrt(n * p * (1 - p))
    assert abs(present - p * n) < 3 * se
    for u in range(n):
        for v in long_links(g, u):
            assert g.alive[v]
    # immediate links point at the nearest present neighbor; absent
    # positions are off the line
    assert np.array_equal(g.member, g.alive)
    live = np.flatnonzero(g.alive).tolist()
    imm = immediate_column(g)
    for i, u in enumerate(live):
        assert imm[u] == live[max(i - 1, 0):i] + live[i + 1:i + 2]
    assert imm == nearest_members(g.member)


def test_binomial_presence_too_small():
    with pytest.raises(ValueError, match="graph too small"):
        build_binomial_presence(16, 0.0, InversePowerLaw(1), np.random.default_rng(8))


def test_node_failures_identity_and_rate():
    rng = np.random.default_rng(9)
    g = build(2 ** 14, InversePowerLaw(3), rng)
    apply_node_failures(g, 0.0, rng)
    assert g.alive.all()
    links_before = [long_links(g, u) for u in range(g.n)]
    apply_node_failures(g, 0.3, rng)
    dead = int((~g.alive).sum())
    se = math.sqrt(2 ** 14 * 0.3 * 0.7)
    assert abs(dead - 0.3 * 2 ** 14) < 3 * se
    assert [long_links(g, u) for u in range(g.n)] == links_before


def test_build_reproducible():
    a = build(512, InversePowerLaw(5), np.random.default_rng(42))
    b = build(512, InversePowerLaw(5), np.random.default_rng(42))
    assert a.dump_text() == b.dump_text()
    c = build(512, InversePowerLaw(5), np.random.default_rng(43))
    assert a.dump_text() != c.dump_text()


def test_dump_format():
    g = build(4, InversePowerLaw(1), np.random.default_rng(0))
    lines = g.dump_text().splitlines()
    assert lines[0] == "lineworld-graph v1"
    assert lines[1] == "n=4"
    assert len(lines) == 6
    pos, alive, imm, longs = lines[2].split("\t")
    assert pos == "0" and alive == "1"


def test_symmetric_neighbors_include_in_links():
    g = OverlayGraph(10)
    g.alive[:] = g.member[:] = True
    g.set_links(2, [9])
    assert 9 in g.neighbors(2)
    assert 2 not in g.neighbors(9)
    assert 2 in g.neighbors(9, symmetric=True)
    # cache invalidation on replacement
    g.replace_link([2], [0], 7)
    assert 2 not in g.neighbors(9, symmetric=True)
    assert 2 in g.neighbors(7, symmetric=True)


def test_ages_track_creation_order():
    g = build(32, InversePowerLaw(5), np.random.default_rng(10))
    for u in range(32):
        ages = g.ages[u, :len(long_links(g, u))].tolist()
        assert ages == sorted(ages)
        assert len(set(ages)) == len(ages)


def test_row_writes_stamp_ages_in_order():
    g = OverlayGraph(8)
    g.set_links(1, [5, 3])
    g.set_links(2, [6, 0, 4])  # widens the table to three slots
    assert g.sinks[:3].tolist() == [[-1, -1, -1], [5, 3, -1], [6, 0, 4]]
    assert g.ages[1, :2].tolist() == [0, 1] and g.ages[2].tolist() == [2, 3, 4]
    g.replace_link(np.array([2, 1]), np.array([0, 1]), np.array([7, 7]))
    assert (g.sinks[2, 0], g.ages[2, 0], g.sinks[1, 1], g.ages[1, 1]) == (7, 5, 7, 6)
    g.set_links(2, [1])  # a shorter row clears the slots after it
    assert long_links(g, 2) == [1] and g.ages[2, 0] == 7
    g.set_links(np.array([4, 0]), [[3, -1], [2, 6]])  # a padded table, row-major
    assert g.sinks[[4, 0]].tolist() == [[3, -1, -1], [2, 6, -1]]
    assert g.ages[4, :2].tolist() == [8, 9] and g.ages[0, :2].tolist() == [10, 11]


def test_build_bernoulli_offsets():
    n = 256
    law = offset_law({d: (1.0 if abs(d) < 3 else 0.25) for d in range(-8, 9) if d != 0})
    g = build(n, law, np.random.default_rng(11))
    for u in range(n):
        for v in long_links(g, u):
            assert 0 <= v < n and v != u
            assert abs(u - v) <= 8
        # forced unit offsets always present away from the ends
        if 1 <= u <= n - 2:
            assert {u - 1, u + 1} <= set(long_links(g, u))
    interior = [len(long_links(g, u)) for u in range(8, n - 8)]
    # expected size: 4 forced + 12 * 0.25 = 7
    assert abs(float(np.mean(interior)) - 7.0) < 0.5


@pytest.mark.parametrize("n, links, chunk", [
    (300, 3, None),  # one chunk
    (300, 3, 7 * 598 + 5),  # 7 rows a chunk, a short last chunk
    (300, 3, 1),  # one row a chunk
    (2 ** 12, 3, None),  # the default chunk, 128 rows
], ids=["one-chunk", "seven-rows", "one-row", "n4096"])
def test_bernoulli_build_matches_row_at_a_time_reference(monkeypatch, n, links, chunk):
    if chunk is not None:
        monkeypatch.setattr(overlay, "_OFFSET_CHUNK", chunk)
    law = power_law_inclusion(n, links)
    g = build(n, law, np.random.default_rng(21))
    ref = reference_offset_build(n, law, np.random.default_rng(21))
    assert g.dump_text() == ref.dump_text()
    assert np.array_equal(g.sinks, ref.sinks)


@pytest.mark.parametrize("dist, links_of", [
    (DeterministicBaseB(3), deterministic_links),
    (PowersOfB(2), power_links),
], ids=["detbase3", "powers2"])
def test_deterministic_rows_ascend_across_chunks(monkeypatch, dist, links_of):
    monkeypatch.setattr(overlay, "_OFFSET_CHUNK", 50)
    n = 200
    g = build(n, dist, np.random.default_rng(0))
    for u in range(n):
        assert long_links(g, u) == sorted(links_of(u, n, dist.base))


def test_symmetric_cache_invalidated_by_link_failures():
    rng = np.random.default_rng(12)
    g = build(200, InversePowerLaw(5), rng)
    holder = next(u for u in range(200) if any(abs(u - v) > 50 for v in long_links(g, u)))
    sink = next(v for v in long_links(g, holder) if abs(holder - v) > 50)
    assert holder in g.neighbors(sink, symmetric=True)
    apply_link_failures(g, 0.0, rng)
    assert holder not in g.neighbors(sink, symmetric=True)


@pytest.mark.parametrize("n", [17, 300, 4096])
def test_retain_links_matches_stable_sort_reference(n):
    # random keep masks over every slot, empty ones included, on scrambled
    # ages; the second round starts from ragged rows
    rng = np.random.default_rng(n)
    g = build(n, InversePowerLaw(6), rng)
    g.ages[:] = rng.permutation(g.ages.size).reshape(g.ages.shape)
    clock = g._clock
    for p in (0.5, 0.7):
        keep = rng.random(g.sinks.shape) < p
        sinks, ages = reference_retain_links(g.sinks, g.ages, keep)
        g.retain_links(keep)
        assert np.array_equal(g.sinks, sinks) and np.array_equal(g.ages, ages)
        assert g._clock == clock


def _random_keep(g, rng):
    return rng.random(g.sinks.shape) < 0.5


def _whole_rows_keep(g, rng):
    # a third of the rows keep every slot, a third drop every slot
    keep = rng.random(g.sinks.shape) < 0.5
    which = rng.integers(3, size=g.n)
    keep[which == 0] = True
    keep[which == 1] = False
    return keep


def _scrambled_build(n, rng):
    g = build(n, InversePowerLaw(6), rng)
    g.ages[:] = rng.permutation(g.ages.size).reshape(g.ages.shape)
    return g


def _join_grown(n, rng):
    # rejoins write rows narrower than the table and leave the old ages in
    # their pad slots
    g = build_by_joins(n, 5, ReplacementPolicy.INVERSE_DISTANCE, rng)
    for v in rng.choice(n, size=n // 3, replace=False).tolist():
        leave(g, v, True, rng)
        join(g, v, 2, ReplacementPolicy.INVERSE_DISTANCE, rng)
    pads = g.sinks == NO_NEIGHBOR
    assert pads.any() and (g.ages[pads] > 0).any()
    return g


@pytest.mark.parametrize("make, keep_of", [
    (_scrambled_build, _whole_rows_keep),
    (lambda n, rng: OverlayGraph(n), _random_keep),
    (_join_grown, _random_keep),
    (_join_grown, _whole_rows_keep),
], ids=["whole-rows", "width-0", "join-grown", "join-grown-whole-rows"])
@pytest.mark.parametrize("n", [17, 300])
def test_retain_links_matches_row_reference(make, keep_of, n):
    # tables that random masks over a full build miss: rows kept or dropped
    # whole, no columns at all, and rows narrower than the table whose pad
    # slots hold stale ages
    rng = np.random.default_rng(n)
    g = make(n, rng)
    clock = g._clock
    for _ in range(2):
        keep = keep_of(g, rng)
        sinks, ages = reference_retain_links(g.sinks, g.ages, keep)
        g.retain_links(keep)
        assert np.array_equal(g.sinks, sinks) and np.array_equal(g.ages, ages)
        assert g.sinks.shape == keep.shape and g._clock == clock


def _link_failed(n, links, rng):
    return apply_link_failures(build(n, InversePowerLaw(links), rng), 0.5, rng)


def _binomial(n, links, rng):
    return build_binomial_presence(n, 0.5, InversePowerLaw(links), rng)


def _no_links(n, links, rng):
    return OverlayGraph(n)


# 46340 is the largest n whose keys fit int32, (n + 1) * n < 2^31
@pytest.mark.parametrize("n, links", [(17, 3), (300, 6), (4096, 12), (46340, 1), (46341, 1)])
@pytest.mark.parametrize("make", [_link_failed, _binomial, _no_links],
                         ids=["link-failed", "binomial", "no-links"])
@pytest.mark.parametrize("symmetric", [False, True], ids=["directed", "symmetric"])
def test_adjacency_matches_int64_reference(n, links, make, symmetric):
    # row u of the padded table is the reference's CSR row u, then NO_NEIGHBOR
    # up to the widest row, or one slot in a graph without edges
    g = make(n, links, np.random.default_rng(n))
    table, deg = g._build_adjacency(symmetric)
    want_indptr, want_indices = reference_adjacency(g, symmetric)
    want_deg = np.diff(want_indptr)
    assert table.dtype == np.int64 and np.array_equal(deg, want_deg)
    assert table.shape == (n, max(want_deg.max(initial=0), 1))
    filled = np.arange(table.shape[1]) < want_deg[:, None]
    assert np.array_equal(table[filled], want_indices)
    assert (table[~filled] == overlay.NO_NEIGHBOR).all()
