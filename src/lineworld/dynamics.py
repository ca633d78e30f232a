"""Overlay maintenance under churn.

A joining node stitches itself into the live line, draws its outgoing
long links over the whole grid (absent positions are owned by the nearest
live node, its basin of attraction), then estimates how many incoming
links it should have -- a Poisson draw with rate equal to the outdegree --
and asks that many existing nodes to redirect one of their links to it.

A requester at distances d_1..d_k from its current sinks accepts the
redirect with probability p_new / (p_1 + ... + p_k + p_new) where
p_i = 1/d_i, and picks the victim link with probability p_i / sum(p_j),
which telescopes exactly to the stationary inverse-distance law:

    p_i/sum_{j<=k} - p_i/sum_{j<=k+1} = (p_i/sum_{j<=k}) * (p_new/sum_{j<=k+1})

The oldest-link variant keeps the same accept step but always evicts the
link with the smallest age.  Departures re-stitch the line and can
optionally resample every link that pointed at the leaver.
"""

from __future__ import annotations

import enum

import numpy as np

from .linkgen import NodeId, sample_line_links
from .overlay import NO_NEIGHBOR, OverlayGraph


class ReplacementPolicy(enum.Enum):
    INVERSE_DISTANCE = "inverse_distance"
    OLDEST = "oldest"


def replacement_decision(existing_distances, new_distance: float,
                         rng: np.random.Generator) -> int | None:
    """Index of the link to replace with the newcomer, or None to keep all.

    Pr[replace i] = (p_i / sum_{j<=k} p_j) * (p_new / sum_{j<=k+1} p_j),
    with p = 1/distance; Pr[None] = 1 - p_new / sum_{j<=k+1} p_j.
    """
    dists = np.asarray(existing_distances, dtype=float)
    if dists.size == 0:
        raise ValueError("no existing links")
    p = 1.0 / dists
    p_new = 1.0 / float(new_distance)
    if rng.random() >= p_new / (p.sum() + p_new):
        return None
    cum = np.cumsum(p)
    r = rng.random() * cum[-1]
    return int(np.searchsorted(cum, r, side="right"))


def _request_redirect(g: OverlayGraph, u: NodeId, v: NodeId,
                      policy: ReplacementPolicy, rng: np.random.Generator) -> None:
    """Node u considers redirecting one of its long links to newcomer v."""
    sinks = g.long_links(u)
    if not sinks or u == v:
        return
    dists = [abs(u - s) for s in sinks]
    if policy is ReplacementPolicy.INVERSE_DISTANCE:
        idx = replacement_decision(dists, abs(u - v), rng)
    else:
        # same accept probability, victim = oldest link
        p_sum = sum(1.0 / d for d in dists)
        p_new = 1.0 / abs(u - v)
        if rng.random() < p_new / (p_sum + p_new):
            idx = int(np.argmin(g.ages[u, :len(sinks)]))
        else:
            idx = None
    if idx is not None:
        g.replace_link(u, idx, v)


def join(g: OverlayGraph, v: NodeId, links: int, policy: ReplacementPolicy,
         rng: np.random.Generator,
         harmonic_prefix: np.ndarray | None = None) -> OverlayGraph:
    """Bring position v live and wire it into the overlay.

    The node draws `links` outgoing sinks over the whole grid (~1/distance)
    and maps absent ones to their basin owner; then K ~ Poisson(links)
    distinct existing nodes, chosen ~1/distance from v (K capped one below
    the pre-join live count), are asked to redirect one link to v.  A join
    into an empty grid just seeds the line.
    """
    if g.alive[v]:
        raise ValueError("position already live")
    live_arr = g.live_sorted()  # snapshot without v
    g.clear_links(v)  # a rejoining position starts with a fresh link table
    g.alive[v] = True

    # stitch into the live line, on both sides: a rejoining position may
    # still point at the neighbours it had when it left
    i = int(np.searchsorted(live_arr, v))
    g.stitch(int(live_arr[i - 1]) if i > 0 else NO_NEIGHBOR, v)
    g.stitch(v, int(live_arr[i]) if i < live_arr.size else NO_NEIGHBOR)
    if live_arr.size == 0:
        return g

    # outgoing links: grid draw, basin-mapped to live nodes other than v;
    # a second node has only its line neighbor, no meaningful long links
    if live_arr.size >= 2:
        for sink in sample_line_links([v], g.n, links, rng, harmonic_prefix)[0].tolist():
            g.add_link(v, _nearest_excluding(live_arr, sink, v))

    # incoming requests: Poisson count truncated at population - 1,
    # distinct requesters ~ 1/distance
    k = min(int(rng.poisson(links)), live_arr.size - 1)
    if k > 0:
        w = 1.0 / np.abs(live_arr - v).astype(float)
        requesters = rng.choice(live_arr, size=k, replace=False, p=w / w.sum())
        for u in requesters:
            _request_redirect(g, int(u), v, policy, rng)
    return g


def _nearest_excluding(live_sorted_arr: np.ndarray, target: int, excluded: int) -> int:
    """Nearest element of the sorted array to `target`, never `excluded`;
    ties go to the lower position."""
    i = int(np.searchsorted(live_sorted_arr, target))
    best, best_key = None, None
    for j in (i - 2, i - 1, i, i + 1):
        if 0 <= j < len(live_sorted_arr):
            c = int(live_sorted_arr[j])
            if c == excluded:
                continue
            key = (abs(c - target), c)
            if best_key is None or key < best_key:
                best, best_key = c, key
    if best is None:
        raise ValueError("no live nodes besides the joiner")
    return best


def leave(g: OverlayGraph, v: NodeId, repair: bool, rng: np.random.Generator) -> OverlayGraph:
    """Take position v down, re-stitching its line neighbors across it.

    With repair=True every long link that pointed at v is resampled over
    the live population (~1/distance from its holder), unless its holder is
    the last live node; without repair the links dangle for routing to
    discover.
    """
    if not g.alive[v]:
        raise ValueError("position not live")
    g.stitch(int(g.left[v]), int(g.right[v]))
    g.alive[v] = False
    if not repair:
        return g
    holders = g.in_neighbors(v)
    holders = holders[g.alive[holders]]
    # one sampler row per link at v, in row-major slot order
    rows, slots = np.nonzero(g.sinks[holders] == v)
    if rows.size and np.count_nonzero(g.alive) >= 2:
        sinks = sample_line_links(holders[rows], g.n, 1, rng, present=g.alive)
        for u, i, sink in zip(holders[rows].tolist(), slots.tolist(), sinks[:, 0].tolist()):
            g.replace_link(u, i, sink)
    return g
