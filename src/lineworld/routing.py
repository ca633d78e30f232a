"""Greedy routing over line overlays, with failure recovery.

Two sidedness variants: two-sided greedy hands the message to the link
sink closest to the target (overshoot allowed); one-sided greedy never
crosses the target.  Equidistant two-sided candidates resolve to the
non-overshooting side, then to the lower position, so routes are
deterministic given the graph.

Two choice rules control what happens around dead nodes:

* probe (default for `route`): a node checks liveness before handing off
  and picks the best *live* improving candidate; it is stuck only when no
  live candidate improves on its own distance.
* commit (default for `greedy_step`, matching the strict protocol where
  liveness is only discovered on contact): a node picks the best candidate
  regardless of liveness and the search is stuck if that one choice turns
  out dead -- it never tries its second-best link.

Recovery strategies on a stuck search: terminate, restart at a random
live node, or backtrack through recently visited nodes, excluding the
choice that led into the dead end and taking the next-best link.

`route` routes one message and records its path, one scalar step per
hand-off; `route_many` routes a batch in lockstep and returns the same
counts without paths.  While more than `SCALAR_TAIL` messages are in
flight, one array step makes every one's hand-off at once; the last few
then take `route`'s scalar step in turn, since an array step over a few
rows costs about as much as that many scalar ones.  The two take the same
decisions in the same order, so terminate and backtrack results agree
message for message; restart results agree for a batch of one, while a
larger batch draws its restart landings step by step across messages, in
message order within a step, whichever kernel takes the step.
Digit routing needs no router of its own: on the deterministic base-b and
powers-of-b schemes one-sided greedy takes the longest link that does not
cross the target, which strips the leading base-b digit of the distance
(base-b) or the largest power of b in it (powers of b, where link failures
leave it the largest surviving one).
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .linkgen import NodeId
from .overlay import OverlayGraph


class Sidedness(enum.Enum):
    ONE_SIDED = "one"
    TWO_SIDED = "two"


@dataclass(frozen=True)
class Terminate:
    """Give up on the first stuck node."""


@dataclass(frozen=True)
class RandomRestart:
    """Jump to a uniformly random live node and retry, up to max_restarts."""

    max_restarts: int = 10


@dataclass(frozen=True)
class Backtrack:
    """Return to the most recently visited node (keeping `history` of them),
    exclude the choice that failed there, and take the next-best link."""

    history: int = 5

    def __post_init__(self):
        if self.history < 1:
            raise ValueError("history must be >= 1")


RecoveryStrategy = Terminate | RandomRestart | Backtrack


class Status(enum.Enum):
    DELIVERED = "delivered"
    FAILED = "failed"


@dataclass
class RouteResult:
    status: Status
    hops: int
    backtracks: int = 0
    restarts: int = 0
    capped: bool = False
    path: list[int] = field(default_factory=list)

    @property
    def delivered(self) -> bool:
        return self.status is Status.DELIVERED


def _best_candidate(adj: list[int], cur: int, dst: int, sidedness: Sidedness) -> int | None:
    """Best sink by the greedy rule among `adj` (sorted), ignoring liveness.

    Returns None when no candidate strictly improves on cur's distance.
    """
    i = bisect_left(adj, dst)
    lo = adj[i - 1] if i > 0 else None
    hi = adj[i] if i < len(adj) else None
    if sidedness is Sidedness.ONE_SIDED:
        # never cross dst: nearest candidate on cur's side of it
        if cur > dst:
            return hi if hi is not None and hi < cur else None
        # want largest adj <= dst
        best = hi if hi == dst else lo
        return best if best is not None and best > cur else None

    # two-sided: the two sinks bracketing dst are the only argmin candidates
    if lo is None:
        best = hi
    elif hi is None:
        best = lo
    else:
        d_lo, d_hi = dst - lo, hi - dst
        if d_lo < d_hi:
            best = lo
        elif d_hi < d_lo:
            best = hi
        else:
            # tie: lo overshoots exactly when cur sits above dst
            best = lo if cur < dst else hi
    if best is None or abs(best - dst) >= abs(cur - dst):
        return None
    return best


def greedy_step(g: OverlayGraph, cur: NodeId, dst: NodeId, sidedness: Sidedness,
                exclude=frozenset(), probe: bool = False,
                symmetric: bool = False) -> NodeId | None:
    """One greedy hand-off from cur toward dst; None means stuck.

    Sinks in `exclude` are never candidates.  With probe=False (the
    default) the node commits to its single best candidate and is stuck if
    that candidate is dead, with no second-best attempt.  With probe=True
    dead candidates are skipped and the best live improving candidate is
    chosen; stuck means no live candidate is strictly closer to dst than
    cur.  symmetric=True widens the candidate set to connections in either
    direction (in-links usable too).
    """
    if cur == dst:
        raise ValueError("already at destination")
    if not g.alive[cur]:
        raise ValueError("current node is dead")
    adj = g.neighbors(cur, symmetric)
    if exclude:
        adj = adj[[v not in exclude for v in adj.tolist()]]
    if probe:
        return _best_candidate(adj[g.alive[adj]].tolist(), cur, dst, sidedness)
    best = _best_candidate(adj.tolist(), cur, dst, sidedness)
    return best if best is not None and g.alive[best] else None


def default_max_hops(n: int) -> int:
    return max(8, int(4 * math.log2(n) ** 2))


def _hop_cap(g: OverlayGraph, strategy: RecoveryStrategy, max_hops: int | None,
             rng: np.random.Generator | None) -> int:
    """The hop cap to route with, after checking the routers' shared
    arguments."""
    if max_hops is None:
        max_hops = default_max_hops(g.n)
    elif max_hops < 1:
        raise ValueError("max_hops must be >= 1")
    if isinstance(strategy, RandomRestart) and rng is None:
        raise ValueError("RandomRestart needs an rng")
    return max_hops


def _trail_length(strategy: RecoveryStrategy, max_hops: int) -> int:
    """The most moves a trail keeps: `history`, or none without
    backtracking; a route makes at most max_hops moves in all."""
    return min(getattr(strategy, "history", 0), max_hops)


@dataclass(slots=True)
class _Walk:
    """One message in flight under `_step`: where it is and where it goes,
    its tallies, its backtrack trail of (node, chosen sink) moves, most
    recent last, the sinks excluded at each node it backed up to, and the
    nodes it visited if a path is kept."""

    cur: int
    dst: int
    trail: deque
    hops: int = 0
    backtracks: int = 0
    restarts: int = 0
    excluded: dict[int, set[int]] = field(default_factory=dict)
    path: list[int] | None = None
    capped: bool = False


def _step(w: _Walk, g: OverlayGraph, sidedness: Sidedness, probe: bool, symmetric: bool,
          max_restarts: int, max_hops: int, live: np.ndarray | None,
          rng: np.random.Generator | None) -> Status | None:
    """One pass of `route`'s loop for a message not at its target: a
    hand-off, a restart landing (one draw from `live`), a back-up, or the
    end.  Returns the final status, or None while the message is in flight;
    a capped end also sets `w.capped`."""
    cur = w.cur
    nxt = greedy_step(g, cur, w.dst, sidedness, exclude=w.excluded.get(cur, frozenset()),
                      probe=probe, symmetric=symmetric)
    if nxt is None and w.restarts < max_restarts:
        cur = int(live[rng.integers(live.size)])
        w.restarts += 1
    elif nxt is None and not w.trail:
        return Status.FAILED
    elif w.hops >= max_hops:
        w.capped = True
        return Status.FAILED
    else:
        if nxt is None:
            cur, choice = w.trail.pop()
            w.excluded.setdefault(cur, set()).add(choice)
            w.backtracks += 1
        else:
            w.trail.append((cur, nxt))
            cur = nxt
        w.hops += 1
    w.cur = cur
    if w.path is not None:
        w.path.append(cur)
    return Status.DELIVERED if cur == w.dst else None


def route(g: OverlayGraph, src: NodeId, dst: NodeId, sidedness: Sidedness = Sidedness.TWO_SIDED,
          strategy: RecoveryStrategy = Terminate(), max_hops: int | None = None,
          rng: np.random.Generator | None = None, probe: bool = True,
          symmetric: bool = False) -> RouteResult:
    """Route a message greedily from src to dst, recovering per `strategy`.

    A stuck search restarts while the restart budget lasts, else backs up
    along its trail of the `history` most recent moves, else fails.
    Backtrack moves count toward hops (restart jumps do not; hops from the
    new start accumulate); `backtracks` and `restarts` are also tallied
    separately so either accounting can be recovered.  A move that would
    pass max_hops ends the route Failed with capped=True and counts as
    neither a hop nor a backtrack.  `path` lists every node the message
    visits, restart landings included.  Failure-sweep experiments run
    with symmetric=True (links model connections, usable both ways);
    bound-validation runs keep the directed default.
    """
    if not (0 <= src < g.n and 0 <= dst < g.n):
        raise ValueError(f"endpoint outside [0, {g.n})")
    if not (g.alive[src] and g.alive[dst]):
        raise ValueError("endpoint dead")
    max_hops = _hop_cap(g, strategy, max_hops, rng)
    max_restarts = getattr(strategy, "max_restarts", 0)
    live = g.live_sorted() if max_restarts else None
    w = _Walk(src, dst, deque(maxlen=_trail_length(strategy, max_hops)), path=[src])
    status = Status.DELIVERED if src == dst else None
    while status is None:
        status = _step(w, g, sidedness, probe, symmetric, max_restarts, max_hops, live, rng)
    return RouteResult(status, w.hops, w.backtracks, w.restarts, w.capped, w.path)


@dataclass(frozen=True)
class Routes:
    """`route_many`'s outcomes, one entry per message: the `RouteResult`
    fields but `path`, as arrays."""

    delivered: np.ndarray
    hops: np.ndarray
    backtracks: np.ndarray
    restarts: np.ndarray
    capped: np.ndarray


# messages stepped together at most: each step holds a few (messages, W)
# arrays, W being the adjacency width
ROUTE_CHUNK = 4096
# messages in flight at or below which a batch finishes with `route`'s
# scalar step: an array step costs about as much as this many scalar ones
SCALAR_TAIL = 16
# the key of a candidate that may not be chosen: above every real key and
# every progress limit
_FAR = 1 << 60


def route_many(g: OverlayGraph, src, dst, sidedness: Sidedness = Sidedness.TWO_SIDED,
               strategy: RecoveryStrategy = Terminate(), max_hops: int | None = None,
               rng: np.random.Generator | None = None, probe: bool = True,
               symmetric: bool = False) -> Routes:
    """Route message i from src[i] to dst[i] for every i, as `route` would,
    and return the outcome counts.

    Messages run in lockstep, ROUTE_CHUNK at a time: each step takes the
    greedy choice of every message in flight at once, then applies the
    recovery rule to the stuck ones, as one array step while more than
    SCALAR_TAIL messages are in flight and as `route`'s scalar step per
    message after.  Restart landings are drawn in message order within each
    step, so only a batch of one reproduces `route`'s restart stream."""
    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape or src.ndim != 1:
        raise ValueError("src and dst must be 1-D arrays of one length")
    if ((src < 0) | (src >= g.n) | (dst < 0) | (dst >= g.n)).any():
        raise ValueError(f"endpoint outside [0, {g.n})")
    if not (g.alive[src] & g.alive[dst]).all():
        raise ValueError("endpoint dead")
    max_hops = _hop_cap(g, strategy, max_hops, rng)

    table, _ = g.adjacency(symmetric)
    # whether a table entry may be chosen, indexed by the entry: a position,
    # live under the probe rule; the NO_NEIGHBOR pad reads the appended
    # False, where alive[NO_NEIGHBOR] would read node n - 1
    usable = np.append(g.alive if probe else np.ones(g.n, dtype=bool), False)
    out = Routes(np.zeros(src.size, dtype=bool), *np.zeros((3, src.size), dtype=np.int64),
                 np.zeros(src.size, dtype=bool))
    for start in range(0, src.size, ROUTE_CHUNK):
        part = slice(start, start + ROUTE_CHUNK)
        _lockstep(g, table, usable, src[part], dst[part], sidedness, strategy, max_hops, rng,
                  probe, symmetric, Routes(**{name: a[part] for name, a in vars(out).items()}))
    return out


# columns of `_lockstep`'s state, one row per message in flight; the
# backtrack trail follows them
MSG, CUR, DST, HOPS, BACKTRACKS, RESTARTS, TOP, LENGTH, TRAIL = range(9)


def _lockstep(g: OverlayGraph, table: np.ndarray, usable: np.ndarray, src: np.ndarray,
              dst: np.ndarray, sidedness: Sidedness, strategy: RecoveryStrategy, max_hops: int,
              rng: np.random.Generator | None, probe: bool, symmetric: bool, out: Routes) -> None:
    """Route one chunk for `route_many`, writing its outcomes into `out`
    (views of the batch's arrays).  Array steps, whose branches follow
    `_step`'s, run while more than SCALAR_TAIL messages are in flight; the
    rest become `_Walk`s and finish with `_step`, one call per message per
    step in row (message) order."""
    n, width = g.n, table.shape[1]
    one_sided = sidedness is Sidedness.ONE_SIDED
    budget = getattr(strategy, "max_restarts", 0)
    history = _trail_length(strategy, max_hops)
    live = g.live_sorted() if budget else None
    out.delivered[src == dst] = True  # arrived without a hop
    msg = np.flatnonzero(src != dst)
    # One row per message in flight, so that dropping the finished ones is
    # one gather.  The trail is a ring of `history` + 1 (node, choice) column
    # pairs (`history` capped at max_hops), its newest move in pair
    # (TOP - 1) % ring and LENGTH <= history moves long, so the pair at
    # TOP % ring is always free to write.
    ring = history + 1
    state = np.zeros((msg.size, TRAIL + 2 * ring), dtype=np.int64)
    state[:, MSG], state[:, CUR], state[:, DST] = msg, src[msg], dst[msg]
    # backtrack exclusions: sorted keys (msg * n + node) * n + excluded sink,
    # within int64 while ROUTE_CHUNK * n * n is
    excluded = np.zeros(0, dtype=np.int64)
    # every step's candidate rows and their blocked flags, in buffers that
    # the steps reuse: fresh ones each step leave a sweep's heap fragmented
    cand_buf = np.empty((msg.size, width), dtype=np.int64)
    blocked_buf = np.empty((msg.size, width), dtype=bool)
    while len(state) > SCALAR_TAIL:
        msg, cur, dst, hops = state[:, MSG], state[:, CUR], state[:, DST], state[:, HOPS]
        cand = table.take(cur, axis=0, out=cand_buf[:len(state)])
        blocked = usable.take(cand, out=blocked_buf[:len(state)])
        np.invert(blocked, out=blocked)  # pads, and dead candidates under the probe rule
        if history:  # a message has exclusions once it has backed up
            has = np.flatnonzero(state[:, BACKTRACKS])
            holder = (msg[has] * n + cur[has]) * n
            here = excluded.searchsorted(holder + n) > excluded.searchsorted(holder)
            if here.any():
                has = has[here]
                keys = holder[here, None] + cand[has]
                blocked[has] |= excluded[np.minimum(excluded.searchsorted(keys),
                                                    excluded.size - 1)] == keys
        gap = cur - dst
        above = gap > 0
        np.abs(gap, out=gap)
        # each candidate's key, in place: the least key wins, and only a key
        # below the row's limit makes progress
        if one_sided:
            # the distance left short of dst; candidates across it wrap to huge
            sign = np.where(above, 1, -1)
            cand *= sign[:, None]
            cand -= (sign * dst)[:, None]
            key, limit = cand.view(np.uint64), gap.view(np.uint64)
        else:
            # ranks like 2 |c - dst| + [c overshoots]: |4 s (c - dst) - 1|, s
            # the side of dst that cur is on
            sign = np.where(above, 4, -4)
            cand *= sign[:, None]
            cand -= (sign * dst + 1)[:, None]
            key, limit = np.abs(cand, out=cand), 4 * gap - 1
        key[blocked] = _FAR
        at = np.arange(len(state))
        pick = key.argmin(axis=1)
        stuck = key.take(at * width + pick) >= limit
        nxt = table.take(cur * width + pick)
        if not probe:  # the commit rule: stuck when the choice is dead
            stuck |= ~g.alive.take(nxt, mode="clip")

        moving = ~stuck
        if budget:
            jump = stuck & (state[:, RESTARTS] < budget)
            if jump.any():
                cur[jump] = live[rng.integers(np.full(np.count_nonzero(jump), live.size))]
                state[:, RESTARTS] += jump
                stuck &= ~jump
        # a stuck row fails with an empty trail (always, without one), else it
        # is capped like a move when the hop would pass max_hops; a jump is no hop
        failed = stuck & (state[:, LENGTH] == 0)
        capped = (hops >= max_hops) & (moving | stuck) & ~failed
        moving &= ~capped
        if history:
            # every row writes its move to its free pair; a move keeps it
            pair = at * state.shape[1] + TRAIL + 2 * (state[:, TOP] % ring)
            state.put(pair, cur)
            state.put(pair + 1, nxt)
            state[:, TOP] += moving
            state[:, LENGTH] = np.minimum(state[:, LENGTH] + moving, history)
            backing = stuck & ~failed & ~capped
            if backing.any():
                state[:, TOP] -= backing
                state[:, LENGTH] -= backing
                state[:, BACKTRACKS] += backing
                hops += backing
                back = np.flatnonzero(backing)
                pair = back * state.shape[1] + TRAIL + 2 * (state[back, TOP] % ring)
                node, choice = state.take(pair), state.take(pair + 1)
                excluded = np.sort(np.concatenate((excluded, (msg[back] * n + node) * n + choice)))
                cur[back] = node
        np.copyto(cur, nxt, where=moving)
        hops += moving

        done = failed | capped | (cur == dst)
        if done.any():
            ended = state[done]
            ids = ended[:, MSG]
            out.delivered[ids] = ended[:, CUR] == ended[:, DST]
            out.capped[ids] = capped[done]
            out.hops[ids] = ended[:, HOPS]
            out.backtracks[ids] = ended[:, BACKTRACKS]
            out.restarts[ids] = ended[:, RESTARTS]
            state = state[~done]

    # the last few messages, as `route`'s walks: trails oldest move first,
    # exclusions by node
    bounds = excluded.searchsorted(state[:, MSG, None] * n * n + [0, n * n]).tolist()
    walks = []
    for row, (lo, hi) in zip(state.tolist(), bounds):
        slots = (TRAIL + 2 * (j % ring) for j in range(row[TOP] - row[LENGTH], row[TOP]))
        trail = deque(((row[p], row[p + 1]) for p in slots), maxlen=history)
        walk = _Walk(row[CUR], row[DST], trail, row[HOPS], row[BACKTRACKS], row[RESTARTS])
        for key in excluded[lo:hi].tolist():
            node, sink = divmod(key % (n * n), n)
            walk.excluded.setdefault(node, set()).add(sink)
        walks.append((row[MSG], walk))
    # one `_step` per walk per step, in row order, so that restart landings
    # draw as the array step's would
    while walks:
        going = []
        for i, walk in walks:
            status = _step(walk, g, sidedness, probe, symmetric, budget, max_hops, live, rng)
            if status is None:
                going.append((i, walk))
                continue
            out.delivered[i], out.capped[i] = status is Status.DELIVERED, walk.capped
            out.hops[i], out.backtracks[i], out.restarts[i] = (walk.hops, walk.backtracks,
                                                                walk.restarts)
        walks = going
