"""Overlay graphs on a line: construction, failure injection, serialization.

An overlay holds, per position: a liveness flag and immediate links to the
nearest live neighbor on each side.  Long-distance links live in one
padded table, `sinks[u]` holding u's sinks left-packed in slot order with
NO_NEIGHBOR after the last; the table is exactly as wide as the widest row
ever written.  `ages` has the same shape and stamps each write from one
graph-wide clock, so churn policies can find a row's oldest link.  Writes
take whole rows (`set_links`) or arrays of slots (`replace_link`), stamped
in order.  With-replacement sampling may store the same sink twice.

Routing reads a sorted, deduplicated CSR adjacency per link mode (directed,
or symmetric with in-links), rebuilt on the first read after a link or
stitch write.  It ignores liveness, so node failures never invalidate it;
readers filter dead sinks themselves.
"""

from __future__ import annotations

import io

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

    __slots__ = ("n", "alive", "left", "right", "sinks", "ages", "_clock", "_adjacency")

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need at least 2 positions")
        self.n = n
        self.alive = np.zeros(n, dtype=bool)
        self.left = np.full(n, NO_NEIGHBOR, dtype=np.int64)
        self.right = np.full(n, NO_NEIGHBOR, dtype=np.int64)
        self.sinks = np.full((n, 0), NO_NEIGHBOR, dtype=np.int64)
        self.ages = np.zeros((n, 0), dtype=np.int64)
        self._clock = 0
        # symmetric -> (indptr, indices); emptied by every link or stitch write
        self._adjacency: dict[bool, tuple[np.ndarray, np.ndarray]] = {}

    # -- link bookkeeping ------------------------------------------------

    def long_links(self, u: NodeId) -> list[int]:
        """u's long-link sinks in slot order."""
        row = self.sinks[u].tolist()
        return row[:row.index(NO_NEIGHBOR)] if NO_NEIGHBOR in row else row

    def _fill(self, positions: np.ndarray, rows: np.ndarray) -> None:
        """Load a fresh table: positions[i] gets the long links rows[i]
        (NO_NEIGHBOR-padded), all stamped older than any later write."""
        width = rows.shape[1]
        self.sinks = np.full((self.n, width), NO_NEIGHBOR, dtype=np.int64)
        self.sinks[positions] = rows
        self.ages = np.tile(np.arange(width, dtype=np.int64), (self.n, 1))
        self._clock = width
        self._adjacency.clear()

    def set_links(self, u: NodeId, sinks) -> None:
        """Make `sinks` u's whole row, in slot order, stamped with the next
        clock values; the table widens to fit the row if it must."""
        sinks = np.asarray(sinks, dtype=np.int64)
        k, width = sinks.size, self.sinks.shape[1]
        if k > width:
            pad = ((0, 0), (0, k - width))
            self.sinks = np.pad(self.sinks, pad, constant_values=NO_NEIGHBOR)
            self.ages = np.pad(self.ages, pad)
        self.sinks[u] = NO_NEIGHBOR
        self.sinks[u, :k] = sinks
        self.ages[u, :k] = self._clock + np.arange(k)
        self._clock += k
        self._adjacency.clear()

    def replace_link(self, u, index, new_sink) -> None:
        """Point slot `index` of u's row at `new_sink`.  Array arguments
        broadcast to one write per element, stamped in element order."""
        u, index, new_sink = np.broadcast_arrays(u, index, new_sink)
        self.sinks[u, index] = new_sink
        self.ages[u, index] = self._clock + np.arange(u.size).reshape(u.shape)
        self._clock += u.size
        self._adjacency.clear()

    def retain_links(self, keep: np.ndarray) -> None:
        """Drop every long link whose slot is False in `keep` (shaped like
        the table); survivors stay left-packed in their old order."""
        # row-major boolean indexing walks each row in slot order, so the
        # first count slots of a row take its kept links and the rest its
        # dropped ones: a stable sort of each row on ~keep
        head = np.arange(keep.shape[1]) < np.count_nonzero(keep, axis=1)[:, None]
        self.sinks[head] = self.sinks[keep]
        self.sinks[~head] = NO_NEIGHBOR
        kept, dropped = self.ages[keep], self.ages[~keep]
        self.ages[head] = kept
        self.ages[~head] = dropped
        self._adjacency.clear()

    def neighbors(self, u: NodeId, symmetric: bool = False) -> np.ndarray:
        """Sorted, deduplicated candidate sinks: immediate plus long links,
        live or not.

        With symmetric=True, links are traversable in both directions
        (connections rather than pointers), so nodes holding a link *to* u
        are candidates as well.
        """
        csr = self._adjacency.get(symmetric)
        if csr is None:
            csr = self._adjacency[symmetric] = self._build_adjacency(symmetric)
        indptr, indices = csr
        return indices[indptr[u]:indptr[u + 1]]

    def _build_adjacency(self, symmetric: bool) -> tuple[np.ndarray, np.ndarray]:
        n, width = self.sinks.shape
        # keys src * n + dst and the probes up to n * n in int32 where they
        # fit: sorting half-width keys takes about half the time
        idx = np.int32 if (n + 1) * n <= np.iinfo(np.int32).max else np.int64
        positions = np.arange(n, dtype=idx)
        holders = np.repeat(positions, width)
        sinks = self.sinks.ravel().astype(idx)
        left, right = self.left.astype(idx), self.right.astype(idx)
        src = [holders, positions, positions] + ([sinks] if symmetric else [])
        dst = [sinks, left, right] + ([holders] if symmetric else [])
        src, dst = np.concatenate(src), np.concatenate(dst)
        edge = (src != NO_NEIGHBOR) & (dst != NO_NEIGHBOR) & (src != dst)
        key = src[edge] * n + dst[edge]
        key.sort()
        fresh = np.ones(key.size, dtype=bool)
        fresh[1:] = key[1:] != key[:-1]
        key = key[fresh]
        indptr = np.searchsorted(key, np.arange(n + 1, dtype=idx) * n)
        # key % n, but numpy divides by a scalar far faster than it takes %
        return indptr, (key - key // n * n).astype(np.int64)

    def in_neighbors(self, u: NodeId) -> np.ndarray:
        """Holders of long links pointing at u, sorted and deduplicated."""
        holders = np.flatnonzero(self.sinks.ravel() == u) // self.sinks.shape[1]
        return holders[np.diff(holders, prepend=-1) != 0]

    def stitch(self, left: NodeId, right: NodeId) -> None:
        """Make `left` and `right` immediate neighbors on the line; either
        may be NO_NEIGHBOR for an end of the line."""
        if left != NO_NEIGHBOR:
            self.right[left] = right
        if right != NO_NEIGHBOR:
            self.left[right] = left
        self._adjacency.clear()

    def live_sorted(self) -> np.ndarray:
        """Sorted live positions."""
        return np.flatnonzero(self.alive)

    # -- serialization ---------------------------------------------------

    def dump_text(self) -> str:
        """Stable line dump: position, liveness, immediate sinks, sorted
        long sinks.  Equal dumps mean equal topology and liveness."""
        out = io.StringIO()
        out.write(f"{DUMP_HEADER}\nn={self.n}\n")
        for u in range(self.n):
            imm = ",".join(str(x) for x in (self.left[u], self.right[u]) if x != NO_NEIGHBOR)
            longs = ",".join(str(v) for v in sorted(self.long_links(u)))
            out.write(f"{u}\t{int(self.alive[u])}\t{imm}\t{longs}\n")
        return out.getvalue()


def _stitch_line(g: OverlayGraph, positions: np.ndarray) -> None:
    """Point immediate links of `positions` (sorted, on a fresh graph) at
    their neighbors in sequence."""
    g.left[positions[1:]] = positions[:-1]
    g.right[positions[:-1]] = positions[1:]


# most offsets one chunk of the offset-table build draws and filters at a
# time: a Bernoulli law spans the line, so all rows at once would be O(n^2)
_OFFSET_CHUNK = 1 << 20


def _draw_long_links(g: OverlayGraph, present: np.ndarray, dist: LinkDistribution,
                     rng: np.random.Generator) -> None:
    """Fill long-link tables for `present` positions, candidates = present."""
    n = g.n
    if isinstance(dist, InversePowerLaw):
        # on a full line every draw lands on a present position: skip the
        # rejection pass, which would accept its first batch whole
        alive = None if present.size == n else g.alive
        g._fill(present, sample_line_links(present, n, dist.links, rng, present=alive))
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
    g._fill(present, table)


def build(n: int, dist: LinkDistribution, rng: np.random.Generator) -> OverlayGraph:
    """Build a fully-populated overlay: immediate links to positions +/-1
    (clipped at the ends) and long links drawn per `dist`."""
    g = OverlayGraph(n)
    g.alive[:] = True
    positions = np.arange(n)
    _stitch_line(g, positions)
    _draw_long_links(g, positions, dist, rng)
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
    g.alive[present] = True
    _stitch_line(g, present)
    _draw_long_links(g, present, dist, rng)
    return g


def apply_link_failures(g: OverlayGraph, p_present: float, rng: np.random.Generator) -> OverlayGraph:
    """Retain each long link independently w.p. p_present, in place.
    Immediate links always survive."""
    if not 0.0 <= p_present <= 1.0:
        raise ValueError("p_present outside [0,1]")
    if p_present == 1.0:
        return g
    # one draw per present slot in row-major order: the stream of one
    # rng.random(len(row)) call per node
    keep = g.sinks != NO_NEIGHBOR
    keep[keep] = rng.random(np.count_nonzero(keep)) < p_present
    g.retain_links(keep)
    return g


def apply_node_failures(g: OverlayGraph, p_fail: float, rng: np.random.Generator) -> OverlayGraph:
    """Mark each node dead independently w.p. p_fail, in place.  Links are
    left untouched: routing discovers dead sinks."""
    if not 0.0 <= p_fail <= 1.0:
        raise ValueError("p_fail outside [0,1]")
    dead = rng.random(g.n) < p_fail
    g.alive[dead] = False
    return g
