"""Overlay graphs on a line: construction, failure injection, serialization.

An overlay holds, per position, a liveness flag and a membership flag.  A
position is on the line (a member) from its build or join until it leaves;
a failed node stays a member, so routing still finds it dead.  Immediate
links follow from the mask: each member links to the nearest member on
each side.  Long-distance links live in one padded table, `sinks[u]`
holding u's sinks left-packed in slot order with NO_NEIGHBOR after the
last; the table is exactly as wide as the widest row ever written.  `ages`
has the same shape and stamps each write from one graph-wide clock, so
churn policies can find a row's oldest link.  Writes take whole rows, one
or a padded table of them (`set_links`), or arrays of slots
(`replace_link`), stamped in order.  With-replacement sampling may store
the same sink twice.

Routing reads one adjacency per link mode (directed, or symmetric with
in-links): a padded `(n, W)` table whose row u holds u's candidates sorted
and deduplicated in its first `deg[u]` slots and NO_NEIGHBOR after them, W
being the largest degree (at least 1).  It is rebuilt on the first read after a link or
membership write.  It ignores liveness, so node failures never invalidate
it; readers filter dead sinks themselves.
"""

from __future__ import annotations

import numpy as np

from .linkgen import (
    BernoulliOffsets,
    DeterministicBaseB,
    InversePowerLaw,
    LinkDistribution,
    NodeId,
    PowersOfB,
    sample_line_links,
    sample_offsets,
    scheme_distances,
)

NO_NEIGHBOR = -1

DUMP_HEADER = "lineworld-graph v1"


class OverlayGraph:
    """Mutable overlay state; routing reads it, churn operations mutate it."""

    __slots__ = ("n", "alive", "member", "sinks", "ages", "_clock", "_adjacency")

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need at least 2 positions")
        self.n = n
        self.alive = np.zeros(n, dtype=bool)
        self.member = np.zeros(n, dtype=bool)
        self.sinks = np.full((n, 0), NO_NEIGHBOR, dtype=np.int64)
        self.ages = np.zeros((n, 0), dtype=np.int64)
        self._clock = 0
        # symmetric -> (table, deg); emptied by every link or membership write
        self._adjacency: dict[bool, tuple[np.ndarray, np.ndarray]] = {}

    # -- link bookkeeping ------------------------------------------------

    def long_links(self, u: NodeId) -> list[int]:
        """u's long-link sinks in slot order."""
        row = self.sinks[u].tolist()
        return row[:row.index(NO_NEIGHBOR)] if NO_NEIGHBOR in row else row

    def set_links(self, u, sinks) -> None:
        """Make `sinks` u's whole row, in slot order, stamped with the next
        clock values; the table widens to fit the row if it must.  Given an
        array of positions (or a slice, which writes rows by slice) and a
        NO_NEIGHBOR-padded table, one row each, writes every row, stamped in
        row-major order."""
        sinks = np.asarray(sinks, dtype=np.int64)
        k, width = sinks.shape[-1], self.sinks.shape[1]
        if k > width:
            sinks_wide = np.full((self.n, k), NO_NEIGHBOR, dtype=np.int64)
            ages_wide = np.zeros((self.n, k), dtype=np.int64)
            sinks_wide[:, :width], ages_wide[:, :width] = self.sinks, self.ages
            self.sinks, self.ages = sinks_wide, ages_wide
        self.sinks[u, k:] = NO_NEIGHBOR
        self.sinks[u, :k] = sinks
        self.ages[u, :k] = np.arange(self._clock, self._clock + sinks.size).reshape(sinks.shape)
        self._clock += sinks.size
        self._adjacency.clear()

    def replace_link(self, u, index, new_sink) -> None:
        """Point slot `index[i]` of row `u[i]` at `new_sink` (one sink, or
        one per slot) for each i: one write per slot, stamped in order."""
        self.sinks[u, index] = new_sink
        self.ages[u, index] = np.arange(self._clock, self._clock + len(u))
        self._clock += len(u)
        self._adjacency.clear()

    def retain_links(self, keep: np.ndarray) -> None:
        """Drop every long link whose slot is False in `keep` (shaped like
        the table); survivors stay left-packed in their old order, and the
        dropped slots' ages follow them in theirs: a stable sort of each row
        on ~keep.  One row cumsum gives each slot its new column, kept slots
        counting up from 0 and dropped ones from the row's kept count, and
        one scatter per table moves every slot there."""
        n, width = keep.shape
        if width:
            kept = np.cumsum(keep, axis=1)
            # flat target of dropped slot i: row start + kept count + i - kept up to i
            start = np.arange(0, n * width, width)
            to = (start + kept[:, -1])[:, None] - kept
            to += np.arange(width)
            # flat target of kept slot i: row start + kept up to i - 1; a kept
            # slot adds (its target - the dropped one) to `to`, a dropped 0
            kept += (start - 1)[:, None]
            kept -= to
            kept *= keep
            to += kept
            sinks = self.sinks - NO_NEIGHBOR
            sinks *= keep
            sinks += NO_NEIGHBOR
            moved = np.empty((2, n * width), dtype=np.int64)
            moved[0, to], moved[1, to] = sinks, self.ages
            self.sinks, self.ages = moved.reshape(2, n, width)
        self._adjacency.clear()

    def neighbors(self, u: NodeId, symmetric: bool = False) -> np.ndarray:
        """Sorted, deduplicated candidate sinks: immediate plus long links,
        live or not.

        With symmetric=True, links are traversable in both directions
        (connections rather than pointers), so nodes holding a link *to* u
        are candidates as well.
        """
        table, deg = self._adjacency.get(symmetric) or self.adjacency(symmetric)
        return table[u, :deg[u]]

    def adjacency(self, symmetric: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Every position's `neighbors` at once: a NO_NEIGHBOR-padded `(n, W)`
        table, each row sorted and deduplicated, and the row lengths `deg`."""
        adj = self._adjacency.get(symmetric)
        if adj is None:
            adj = self._adjacency[symmetric] = self._build_adjacency(symmetric)
        return adj

    def _build_adjacency(self, symmetric: bool) -> tuple[np.ndarray, np.ndarray]:
        n, width = self.sinks.shape
        # keys src * n + dst in int32 where they fit: sorting half-width keys
        # takes about half the time
        idx = np.int32 if (n + 1) * n <= np.iinfo(np.int32).max else np.int64
        holders = np.repeat(np.arange(n, dtype=idx), width)
        sinks = self.sinks.ravel().astype(idx)
        link = (sinks != NO_NEIGHBOR) & (sinks != holders)
        # np.compress takes a mask faster than boolean indexing does
        holders, sinks = np.compress(link, holders), np.compress(link, sinks)
        line = np.flatnonzero(self.member).astype(idx)
        key = [holders * n + sinks, line[:-1] * n + line[1:], line[1:] * n + line[:-1]]
        key = np.concatenate(key + [sinks * n + holders] if symmetric else key)
        key.sort()
        fresh = np.ones(key.size, dtype=bool)
        fresh[1:] = key[1:] != key[:-1]
        key = np.compress(fresh, key)
        # numpy divides by a scalar far faster than it takes %
        holder = key // n
        deg = np.bincount(holder, minlength=n)
        # at least one slot, so that every row has a (padded) best candidate
        table = np.full((n, max(int(deg.max(initial=0)), 1)), NO_NEIGHBOR, dtype=np.int64)
        # keys ascend, so row-major order left-packs each row in sink order
        table[np.arange(table.shape[1]) < deg[:, None]] = key - holder * n
        return table, deg

    def in_neighbors(self, u: NodeId) -> np.ndarray:
        """Holders of long links pointing at u, sorted and deduplicated."""
        holders = np.flatnonzero(self.sinks.ravel() == u) // self.sinks.shape[1]
        return holders[np.diff(holders, prepend=-1) != 0]

    def set_member(self, u: NodeId, on: bool) -> None:
        """Put u on the line, live, or take it off the line and down."""
        self.member[u] = self.alive[u] = on
        self._adjacency.clear()

    def live_sorted(self) -> np.ndarray:
        """Sorted live positions."""
        return np.flatnonzero(self.alive)

    # -- serialization ---------------------------------------------------

    def dump_text(self) -> str:
        """Stable line dump: position, liveness, immediate sinks (none off
        the line), sorted long sinks.  Equal dumps mean equal topology and
        liveness."""
        n = self.n
        # a row of cells per position: itself, liveness, the members before
        # and after it on the line, its long sinks sorted; n marks an empty cell
        line = np.flatnonzero(self.member)
        near = np.full((n, 2), n)
        near[line[1:], 0], near[line[:-1], 1] = line[:-1], line[1:]
        longs = np.sort(np.where(self.sinks == NO_NEIGHBOR, n, self.sinks), axis=1)
        cells = np.column_stack((np.arange(n), self.alive, near, longs))
        # each cell's text ("" if empty) and what follows it: a comma between
        # full cells, a tab after each of the first three fields, a newline
        text = np.full(cells.shape + (2,), "", dtype=object)
        text[..., 0] = np.array([*map(str, range(n)), ""], dtype=object)[cells]
        full = cells != n
        text[:, :-1, 1] = np.where(full[:, :-1] & full[:, 1:], ",", "")
        text[:, [0, 1, 3], 1] = "\t"
        text[:, -1, 1] += "\n"
        return f"{DUMP_HEADER}\nn={n}\n" + "".join(text.ravel().tolist())


# most offsets one chunk of the offset-table build draws and filters at a
# time: a Bernoulli law spans the line, so all rows at once would be O(n^2)
_OFFSET_CHUNK = 1 << 20


def _draw_long_links(g: OverlayGraph, present: np.ndarray, dist: LinkDistribution,
                     rng: np.random.Generator) -> None:
    """Fill long-link tables for `present` positions, candidates = present."""
    n = g.n
    full = present.size == n
    rows = slice(None) if full else present  # a full line is written by slice
    if isinstance(dist, InversePowerLaw):
        # on a full line every draw lands on a present position: skip the
        # rejection pass, which would accept its first batch whole
        g.set_links(rows, sample_line_links(present, n, dist.links, rng,
                                            present=None if full else g.alive))
        return
    if isinstance(dist, BernoulliOffsets):
        deltas = dist.deltas
    elif isinstance(dist, (DeterministicBaseB, PowersOfB)):
        d = scheme_distances(dist, n)
        deltas = np.concatenate((d[::-1], -d))  # descending, so each row's sinks ascend
    else:
        raise TypeError(f"unknown link distribution {dist!r}")
    step = max(1, _OFFSET_CHUNK // deltas.size)
    holders, sinks = [], []
    for start in range(0, present.size, step):
        us = present[start:start + step]
        if isinstance(dist, BernoulliOffsets):  # one mask row per node, in node order
            i, j = np.divmod(np.flatnonzero(sample_offsets(dist, rng, rows=us.size)), deltas.size)
            v = us[i] - deltas[j]
        else:  # every offset kept
            i, v = np.repeat(np.arange(us.size), deltas.size), (us[:, None] - deltas).ravel()
        ok = (v >= 0) & (v < n)
        ok[ok] = g.alive[v[ok]]
        holders.append(start + i[ok])
        sinks.append(v[ok])
    counts = np.bincount(np.concatenate(holders), minlength=present.size)
    table = np.full((present.size, counts.max()), NO_NEIGHBOR, dtype=np.int64)
    # holders ascend, so row-major order left-packs each row in offset order
    table[np.arange(table.shape[1]) < counts[:, None]] = np.concatenate(sinks)
    g.set_links(rows, table)


def build(n: int, dist: LinkDistribution, rng: np.random.Generator) -> OverlayGraph:
    """Build a fully-populated overlay: immediate links to positions +/-1
    (clipped at the ends) and long links drawn per `dist`."""
    g = OverlayGraph(n)
    g.alive[:] = g.member[:] = True
    _draw_long_links(g, np.arange(n), dist, rng)
    return g


def build_binomial_presence(n: int, p_present: float, dist: LinkDistribution,
                            rng: np.random.Generator) -> OverlayGraph:
    """Each position exists independently w.p. p_present; immediate links go
    to the nearest present neighbor per side and long links only to present
    nodes, so no sink is absent at construction time."""
    g = OverlayGraph(n)
    if not 0.0 <= p_present <= 1.0:
        raise ValueError("p_present outside [0,1]")
    present = np.flatnonzero(rng.random(n) < p_present)
    if present.size < 2:
        raise ValueError("graph too small")
    g.alive[present] = g.member[present] = True
    _draw_long_links(g, present, dist, rng)
    return g


def apply_link_failures(g: OverlayGraph, p_present: float, rng: np.random.Generator) -> OverlayGraph:
    """Retain each long link independently w.p. p_present, in place.
    Immediate links always survive.  One uniform is drawn per link ever
    written (`_clock` of them) and each slot keeps its link if the uniform
    of the slot's age is below p_present; so replaying one generator state
    at a lower p_present drops a superset of the links."""
    if not 0.0 <= p_present <= 1.0:
        raise ValueError("p_present outside [0,1]")
    if p_present < 1.0:
        g.retain_links(rng.random(g._clock)[g.ages] < p_present)
    return g


def apply_node_failures(g: OverlayGraph, p_fail: float, rng: np.random.Generator) -> OverlayGraph:
    """Mark each node dead independently w.p. p_fail, in place.  Links are
    left untouched: routing discovers dead sinks."""
    if not 0.0 <= p_fail <= 1.0:
        raise ValueError("p_fail outside [0,1]")
    g.alive &= rng.random(g.n) >= p_fail
    return g
