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

`route` is the one router.  Digit routing needs no router of its own: on
the deterministic base-b and powers-of-b schemes one-sided greedy takes
the longest link that does not cross the target, which strips the leading
base-b digit of the distance (base-b) or the largest power of b in it
(powers of b, where link failures leave it the largest surviving one).
"""

from __future__ import annotations

import enum
import math
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


def _best_candidate(adj: np.ndarray, cur: int, dst: int, sidedness: Sidedness) -> int | None:
    """Best sink by the greedy rule among `adj` (sorted), ignoring liveness.

    Returns None when no candidate strictly improves on cur's distance.
    """
    i = int(adj.searchsorted(dst))
    lo = int(adj[i - 1]) if i > 0 else None
    hi = int(adj[i]) if i < len(adj) else None
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
        return _best_candidate(adj[g.alive[adj]], cur, dst, sidedness)
    best = _best_candidate(adj, cur, dst, sidedness)
    return best if best is not None and g.alive[best] else None


def default_max_hops(n: int) -> int:
    return max(8, int(4 * math.log2(n) ** 2))


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
    if max_hops is None:
        max_hops = default_max_hops(g.n)
    elif max_hops < 1:
        raise ValueError("max_hops must be >= 1")
    if isinstance(strategy, RandomRestart) and rng is None:
        raise ValueError("RandomRestart needs an rng")

    max_restarts = getattr(strategy, "max_restarts", 0)
    # (node, chosen sink) moves, most recent last; empty unless backtracking
    trail: deque[tuple[int, int]] = deque(maxlen=getattr(strategy, "history", 0))
    excluded: dict[int, set[int]] = {}
    cur, path, hops, backtracks, restarts = src, [src], 0, 0, 0
    while cur != dst:
        nxt = greedy_step(g, cur, dst, sidedness,
                          exclude=excluded.get(cur, frozenset()), probe=probe,
                          symmetric=symmetric)
        if nxt is None and restarts < max_restarts:
            live = g.live_sorted()
            cur = int(live[rng.integers(len(live))])
            restarts += 1
            path.append(cur)
            continue
        if nxt is None and not trail:
            return RouteResult(Status.FAILED, hops, backtracks, restarts, path=path)
        if hops >= max_hops:
            return RouteResult(Status.FAILED, hops, backtracks, restarts, True, path)
        if nxt is None:
            cur, choice = trail.pop()
            excluded.setdefault(cur, set()).add(choice)
            backtracks += 1
        else:
            trail.append((cur, nxt))
            cur = nxt
        hops += 1
        path.append(cur)
    return RouteResult(Status.DELIVERED, hops, backtracks, restarts, path=path)
