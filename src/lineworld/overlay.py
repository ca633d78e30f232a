"""Overlay graphs on a line: construction, failure injection, serialization.

An overlay holds, per position: a liveness flag, immediate links to the
nearest live neighbor on each side, and a table of long-distance links.
Long links remember their creation age (a per-node counter) so churn
policies can find the oldest link.  With-replacement sampling may store
the same sink twice; the routing adjacency deduplicates.
"""

from __future__ import annotations

import io
from bisect import bisect_left, insort

import numpy as np

from .linkgen import (
    BernoulliOffsets,
    DeterministicBaseB,
    InversePowerLaw,
    LinkDistribution,
    NodeId,
    PowersOfB,
    deterministic_links,
    power_links,
    sample_line_links,
    sample_offsets,
)

NO_NEIGHBOR = -1

DUMP_HEADER = "lineworld-graph v1"


class OverlayGraph:
    """Mutable overlay state; routing reads it, churn operations mutate it."""

    __slots__ = ("n", "alive", "left", "right", "links", "ages", "_age_next",
                 "_adj", "_sym_adj", "_live_sorted", "_in_index", "_in_csr")

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need at least 2 positions")
        self.n = n
        self.alive = np.zeros(n, dtype=bool)
        self.left = np.full(n, NO_NEIGHBOR, dtype=np.int64)
        self.right = np.full(n, NO_NEIGHBOR, dtype=np.int64)
        self.links: list[list[int]] = [[] for _ in range(n)]
        self.ages: list[list[int]] = [[] for _ in range(n)]
        self._age_next = [0] * n
        self._adj: list[list[int] | None] = [None] * n
        self._sym_adj: list[list[int] | None] = [None] * n
        self._live_sorted: list[int] | None = None
        self._in_index: dict[int, set[int]] | None = None
        self._in_csr: tuple[np.ndarray, np.ndarray] | None = None

    # -- link bookkeeping ------------------------------------------------

    def add_link(self, u: NodeId, v: NodeId) -> None:
        self.links[u].append(v)
        self.ages[u].append(self._age_next[u])
        self._age_next[u] += 1
        self._adj[u] = None
        self._sym_adj[u] = None
        self._sym_adj[v] = None
        self._in_csr = None
        if self._in_index is not None:
            self._in_index.setdefault(v, set()).add(u)

    def clear_links(self, u: NodeId) -> None:
        for v in set(self.links[u]):
            self._sym_adj[v] = None
            if self._in_index is not None:
                self._in_index.get(v, set()).discard(u)
        self.links[u] = []
        self.ages[u] = []
        self._adj[u] = None
        self._sym_adj[u] = None
        self._in_csr = None

    def replace_link(self, u: NodeId, index: int, new_sink: NodeId) -> None:
        old = self.links[u][index]
        self.links[u][index] = new_sink
        self.ages[u][index] = self._age_next[u]
        self._age_next[u] += 1
        self._adj[u] = None
        self._sym_adj[u] = None
        self._sym_adj[old] = None
        self._sym_adj[new_sink] = None
        self._in_csr = None
        if self._in_index is not None:
            if old not in self.links[u]:
                self._in_index.get(old, set()).discard(u)
            self._in_index.setdefault(new_sink, set()).add(u)

    def neighbors(self, u: NodeId, symmetric: bool = False) -> list[int]:
        """Sorted, deduplicated candidate sinks: immediate plus long links.

        With symmetric=True, links are traversable in both directions
        (connections rather than pointers), so nodes holding a link *to* u
        are candidates as well.
        """
        cache = self._sym_adj if symmetric else self._adj
        adj = cache[u]
        if adj is None:
            sinks = set(self.links[u])
            if symmetric:
                sinks.update(self.in_neighbors(u))
            if self.left[u] != NO_NEIGHBOR:
                sinks.add(int(self.left[u]))
            if self.right[u] != NO_NEIGHBOR:
                sinks.add(int(self.right[u]))
            sinks.discard(u)
            adj = sorted(sinks)
            cache[u] = adj
        return adj

    def in_neighbors(self, u: NodeId) -> list[int]:
        """Holders of long links pointing at u."""
        if self._in_index is not None:
            return sorted(self._in_index.get(u, ()))
        if self._in_csr is None:
            holders = np.repeat(np.arange(self.n, dtype=np.int64),
                                [len(ls) for ls in self.links])
            sinks = np.fromiter((v for ls in self.links for v in ls),
                                dtype=np.int64, count=len(holders))
            order = np.argsort(sinks, kind="stable")
            starts = np.searchsorted(sinks[order], np.arange(self.n + 1))
            self._in_csr = (holders[order], starts)
        holders, starts = self._in_csr
        return [int(x) for x in holders[starts[u]:starts[u + 1]]]

    def has_long_link(self, u: NodeId, v: NodeId) -> bool:
        return v in self.links[u]

    def stitch(self, left: NodeId, right: NodeId) -> None:
        """Make `left` and `right` immediate neighbors on the line; either
        may be NO_NEIGHBOR for an end of the line."""
        if left != NO_NEIGHBOR:
            self.right[left] = right
            self._adj[left] = None
            self._sym_adj[left] = None
        if right != NO_NEIGHBOR:
            self.left[right] = left
            self._adj[right] = None
            self._sym_adj[right] = None

    # -- liveness --------------------------------------------------------

    def live_sorted(self) -> list[int]:
        """Sorted live positions, cached and maintained by churn operations."""
        if self._live_sorted is None:
            self._live_sorted = [int(x) for x in np.flatnonzero(self.alive)]
        return self._live_sorted

    def mark_alive(self, v: NodeId) -> None:
        if not self.alive[v]:
            self.alive[v] = True
            if self._live_sorted is not None:
                insort(self._live_sorted, v)

    def mark_dead(self, v: NodeId) -> None:
        if self.alive[v]:
            self.alive[v] = False
            if self._live_sorted is not None:
                ls = self._live_sorted
                i = bisect_left(ls, v)
                if i < len(ls) and ls[i] == v:
                    ls.pop(i)

    def in_index(self) -> dict[int, set[int]]:
        """Reverse link index sink -> holders, built lazily on first use."""
        if self._in_index is None:
            idx: dict[int, set[int]] = {}
            for u in range(self.n):
                for v in self.links[u]:
                    idx.setdefault(v, set()).add(u)
            self._in_index = idx
        return self._in_index

    # -- serialization ---------------------------------------------------

    def dump_text(self) -> str:
        """Stable line dump: position, liveness, immediate sinks, sorted
        long sinks.  Equal dumps mean equal topology and liveness."""
        out = io.StringIO()
        out.write(f"{DUMP_HEADER}\nn={self.n}\n")
        for u in range(self.n):
            imm = ",".join(str(x) for x in (self.left[u], self.right[u]) if x != NO_NEIGHBOR)
            longs = ",".join(str(v) for v in sorted(self.links[u]))
            out.write(f"{u}\t{int(self.alive[u])}\t{imm}\t{longs}\n")
        return out.getvalue()

    def dump(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.dump_text())


def _stitch_line(g: OverlayGraph, positions: np.ndarray) -> None:
    """Point immediate links of `positions` (sorted, on a fresh graph) at
    their neighbors in sequence."""
    g.left[positions[1:]] = positions[:-1]
    g.right[positions[:-1]] = positions[1:]


def _draw_long_links(g: OverlayGraph, present: np.ndarray, dist: LinkDistribution,
                     rng: np.random.Generator) -> None:
    """Fill long-link tables for `present` positions, candidates = present."""
    n = g.n
    if isinstance(dist, InversePowerLaw):
        sinks = sample_line_links(present, n, dist.links, rng, present=g.alive)
        for u, row in zip(present.tolist(), sinks.tolist()):
            g.links[u] = row
            g.ages[u] = list(range(dist.links))
            g._age_next[u] = dist.links
    elif isinstance(dist, DeterministicBaseB):
        present_set = set(int(x) for x in present)
        for u in present:
            sinks = sorted(v for v in deterministic_links(int(u), n, dist.base) if v in present_set)
            g.links[u] = sinks
            g.ages[u] = list(range(len(sinks)))
            g._age_next[u] = len(sinks)
    elif isinstance(dist, PowersOfB):
        present_set = set(int(x) for x in present)
        for u in present:
            sinks = sorted(v for v in power_links(int(u), n, dist.base) if v in present_set)
            g.links[u] = sinks
            g.ages[u] = list(range(len(sinks)))
            g._age_next[u] = len(sinks)
    elif isinstance(dist, BernoulliOffsets):
        present_set = set(int(x) for x in present)
        for u in present:
            offsets = sample_offsets(dist, rng, truncate_at=n)
            sinks = [int(u) - int(d) for d in offsets]
            sinks = [v for v in sinks if 0 <= v < n and v != u and v in present_set]
            g.links[u] = sinks
            g.ages[u] = list(range(len(sinks)))
            g._age_next[u] = len(sinks)
    else:
        raise TypeError(f"unknown link distribution {dist!r}")


def build(n: int, dist: LinkDistribution, rng: np.random.Generator) -> OverlayGraph:
    """Build a fully-populated overlay: immediate links to positions +/-1
    (clipped at the ends) and long links drawn per `dist`."""
    if n < 2:
        raise ValueError("need at least 2 positions")
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
    if n < 2:
        raise ValueError("need at least 2 positions")
    if not 0.0 <= p_present <= 1.0:
        raise ValueError("p_present outside [0,1]")
    g = OverlayGraph(n)
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
    for u in range(g.n):
        ls = g.links[u]
        if not ls:
            continue
        keep = rng.random(len(ls)) < p_present
        g.links[u] = [v for v, k in zip(ls, keep) if k]
        g.ages[u] = [a for a, k in zip(g.ages[u], keep) if k]
    g._adj = [None] * g.n
    g._sym_adj = [None] * g.n
    g._in_index = None
    g._in_csr = None
    return g


def apply_node_failures(g: OverlayGraph, p_fail: float, rng: np.random.Generator) -> OverlayGraph:
    """Mark each node dead independently w.p. p_fail, in place.  Links are
    left untouched: routing discovers dead sinks."""
    if not 0.0 <= p_fail <= 1.0:
        raise ValueError("p_fail outside [0,1]")
    dead = rng.random(g.n) < p_fail
    g.alive[dead] = False
    g._live_sorted = None
    return g
