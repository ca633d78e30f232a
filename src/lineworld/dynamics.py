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

One array step (`replacement_decision`) decides every requester of a
join: one accept uniform per requester that holds a link, in requester
order, then one victim uniform per accepted requester, in requester order.
The oldest-link variant keeps the same accept step but evicts the link
with the smallest age, with no victim draw.  A departure takes the node
off the line, so its line neighbours become each other's, and can
optionally resample every link that pointed at the leaver.  Every write is
a whole row (the joiner's) or one array write (accepted redirects in
requester order, repairs in row-major slot order).
"""

from __future__ import annotations

import enum

import numpy as np

from .linkgen import NodeId, sample_line_links
from .overlay import NO_NEIGHBOR, OverlayGraph


class ReplacementPolicy(enum.Enum):
    INVERSE_DISTANCE = "inverse_distance"
    OLDEST = "oldest"


def replacement_decision(rows, requesters, v: NodeId, rng: np.random.Generator,
                         ages=None) -> np.ndarray:
    """Slot each requester redirects to newcomer v, or -1 to keep its links.

    `rows` holds the requesters' long-link rows, left-packed and padded with
    NO_NEIGHBOR.  A requester with k links accepts w.p.
    p_new / sum_{j<=k+1} p_j with p = 1/distance, and evicts link i w.p.
    p_i / sum_{j<=k} p_j; given the rows' `ages`, it evicts its oldest link
    instead (pads, whose ages are stale, never count).  Draws follow the
    module's order; a requester with an empty row draws nothing.
    """
    real = rows != NO_NEIGHBOR
    p = np.where(real, 1.0 / np.abs(rows - requesters[:, None]), 0.0)
    p_new = 1.0 / np.abs(requesters - v)
    held = real.any(axis=1)
    accept = np.zeros(requesters.size, dtype=bool)
    accept[held] = rng.random(np.count_nonzero(held)) < (p_new / (p.sum(axis=1) + p_new))[held]
    slots = np.full(requesters.size, -1)
    if not accept.any():
        return slots
    if ages is not None:
        slots[accept] = np.where(real, ages, np.iinfo(ages.dtype).max)[accept].argmin(axis=1)
    else:
        cum = np.cumsum(p[accept], axis=1)
        r = rng.random(cum.shape[0]) * cum[:, -1]
        # slot i iff cum[i-1] <= r < cum[i]; the pads repeat the row total,
        # which r (a uniform below 1 times the total) never reaches
        slots[accept] = np.count_nonzero(cum <= r[:, None], axis=1)
    return slots


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
        ages = g.ages[requesters] if policy is ReplacementPolicy.OLDEST else None
        slots = replacement_decision(g.sinks[requesters], requesters, v, rng, ages)
        hit = slots >= 0
        if hit.any():
            g.replace_link(requesters[hit], slots[hit], v)
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
