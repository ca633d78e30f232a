"""Overlay maintenance under churn.

A joining node takes its place on the line, draws its outgoing long links
over the whole grid (absent positions are owned by the nearest live node,
its basin of attraction), then estimates how many incoming links it should
have -- a Poisson draw with rate equal to the outdegree -- and asks that
many existing nodes to redirect one of their links to it.

A requester at distances d_1..d_k from its current sinks accepts the
redirect with probability p_new / (p_1 + ... + p_k + p_new) where
p_i = 1/d_i, and picks the victim link with probability p_i / sum(p_j),
which telescopes exactly to the stationary inverse-distance law:

    p_i/sum_{j<=k} - p_i/sum_{j<=k+1} = (p_i/sum_{j<=k}) * (p_new/sum_{j<=k+1})

The oldest-link variant keeps the same accept step but always evicts the
link with the smallest age.  A departure takes the node off the line, so
its line neighbours become each other's, and can optionally resample every
link that pointed at the leaver.  Every write is a whole row (the
joiner's) or one array write (accepted redirects in requester order,
repairs in row-major slot order).
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
                         rng: np.random.Generator, ages=None) -> int | None:
    """Index of the link to replace with the newcomer, or None to keep all.

    Pr[accept] = p_new / sum_{j<=k+1} p_j with p = 1/distance.  The victim
    is link i w.p. p_i / sum_{j<=k} p_j, so that
    Pr[replace i] = (p_i / sum_{j<=k} p_j) * (p_new / sum_{j<=k+1} p_j);
    given the links' `ages`, it is the oldest link instead (no second draw).
    """
    dists = np.asarray(existing_distances, dtype=float)
    if dists.size == 0:
        raise ValueError("no existing links")
    p = 1.0 / dists
    p_new = 1.0 / float(new_distance)
    if rng.random() >= p_new / (p.sum() + p_new):
        return None
    if ages is not None:
        return int(np.argmin(ages))
    cum = np.cumsum(p)
    r = rng.random() * cum[-1]
    return int(np.searchsorted(cum, r, side="right"))


def _request_redirects(g: OverlayGraph, requesters: np.ndarray, v: NodeId,
                       policy: ReplacementPolicy, rng: np.random.Generator) -> None:
    """Each requester, in order, considers redirecting one of its long links
    to newcomer v; the accepted redirects are written at once."""
    rows = g.sinks[requesters]
    ages = g.ages[requesters] if policy is ReplacementPolicy.OLDEST else None
    widths = np.count_nonzero(rows != NO_NEIGHBOR, axis=1).tolist()
    dists = np.abs(rows - requesters[:, None])
    new_dists = np.abs(requesters - v).tolist()
    hits, slots = [], []
    for i, k in enumerate(widths):
        if k:
            idx = replacement_decision(dists[i, :k], new_dists[i], rng,
                                       None if ages is None else ages[i, :k])
            if idx is not None:
                hits.append(i)
                slots.append(idx)
    if hits:
        g.replace_link(requesters[hits], slots, v)


def _basin_owners(live: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Nearest element of the sorted, non-empty `live` to each target; ties
    go to the lower position."""
    i = np.searchsorted(live, targets)
    lower = live[np.maximum(i - 1, 0)]
    upper = live[np.minimum(i, live.size - 1)]
    return np.where((i == live.size) | ((i > 0) & (targets - lower <= upper - targets)),
                    lower, upper)


def join(g: OverlayGraph, v: NodeId, links: int, policy: ReplacementPolicy,
         rng: np.random.Generator) -> OverlayGraph:
    """Bring position v live and wire it into the overlay.

    The node draws `links` outgoing sinks over the whole grid (~1/distance)
    and maps each to its basin owner, the nearest node live before the
    join; then K ~ Poisson(links) distinct existing nodes, chosen
    ~1/distance from v (K capped one below the pre-join live count), are
    asked to redirect one link to v.  A join into an empty grid just seeds
    the line.
    """
    if g.alive[v]:
        raise ValueError("position already live")
    live_arr = g.live_sorted()  # snapshot without v
    g.set_member(v, True)

    # a rejoining position starts with a fresh row; a first or second node
    # has at most its line neighbor, no meaningful long links
    row = ()
    if live_arr.size >= 2:
        row = _basin_owners(live_arr, sample_line_links([v], g.n, links, rng)[0])
    g.set_links(v, row)
    if live_arr.size == 0:
        return g

    # incoming requests: Poisson count truncated at population - 1,
    # distinct requesters ~ 1/distance
    k = min(int(rng.poisson(links)), live_arr.size - 1)
    if k > 0:
        w = 1.0 / np.abs(live_arr - v).astype(float)
        requesters = rng.choice(live_arr, size=k, replace=False, p=w / w.sum())
        _request_redirects(g, requesters, v, policy, rng)
    return g


def leave(g: OverlayGraph, v: NodeId, repair: bool, rng: np.random.Generator) -> OverlayGraph:
    """Take position v down and off the line.

    With repair=True every long link that pointed at v is resampled over
    the live population (~1/distance from its holder), unless its holder is
    the last live node; without repair the links dangle for routing to
    discover.
    """
    if not g.alive[v]:
        raise ValueError("position not live")
    g.set_member(v, False)
    if not repair:
        return g
    holders = g.in_neighbors(v)
    holders = holders[g.alive[holders]]
    # one sampler row per link at v, in row-major slot order
    rows, slots = np.nonzero(g.sinks[holders] == v)
    if rows.size and np.count_nonzero(g.alive) >= 2:
        sinks = sample_line_links(holders[rows], g.n, 1, rng, present=g.alive)
        g.replace_link(holders[rows], slots, sinks[:, 0])
    return g
