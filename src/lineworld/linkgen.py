"""Long-distance link generation for nodes on a line.

Nodes sit at integer grid positions 0..n-1 and measure distance as
``|u - v|`` (no wraparound).  Every node keeps links to its immediate
neighbors; the schemes here generate the *long-distance* links:

* inverse power-law with exponent 1: a sink at distance d is drawn with
  probability proportional to 1/d (harmonic normalization),
* deterministic base-b: sinks at j*b^i in both directions,
* powers of b: sinks at b^i in both directions,
* Bernoulli offset sets: each offset included independently with its own
  probability (offsets -1 and +1 are always included).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

NodeId = int


@dataclass(frozen=True)
class InversePowerLaw:
    """Draw `links` sinks per node, with replacement, ~ 1/distance."""

    links: int

    def __post_init__(self):
        if self.links < 1:
            raise ValueError("links must be >= 1")


@dataclass(frozen=True)
class DeterministicBaseB:
    """Sinks at distances j*b^i, j in [1, b-1], both directions."""

    base: int

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be >= 2")


@dataclass(frozen=True)
class PowersOfB:
    """Sinks at distances b^0, b^1, ... up to the line's length, both
    directions."""

    base: int

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be >= 2")


@dataclass(frozen=True, eq=False)
class BernoulliOffsets:
    """Independent inclusion of each signed offset deltas[i] w.p. probs[i],
    stored sorted by offset in two read-only arrays.

    Offsets +1 and -1 must be included with probability 1.  For the two-sided
    interval-chain machinery the law should additionally be symmetric
    (p[d] == p[-d], a missing offset counting as 0) and unimodal
    (nonincreasing in |d|); `validate_two_sided` checks that.
    """

    deltas: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        deltas = np.asarray(self.deltas, dtype=np.int64).reshape(-1)
        probs = np.asarray(self.probs, dtype=float).reshape(-1)
        if deltas.shape != probs.shape:
            raise ValueError("need one inclusion probability per offset")
        order = np.argsort(deltas, kind="stable")
        deltas, probs = deltas[order], probs[order]
        if np.any(deltas[1:] == deltas[:-1]) or np.any(deltas == 0):
            raise ValueError("offsets must be distinct and nonzero")
        if not np.all((probs >= 0.0) & (probs <= 1.0)):
            raise ValueError("inclusion probability outside [0,1]")
        unit = probs[np.isin(deltas, (-1, 1))]
        if unit.size != 2 or np.any(unit != 1.0):
            raise ValueError("offsets +1 and -1 must have inclusion probability 1")
        for name, values in (("deltas", deltas), ("probs", probs)):
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    def validate_two_sided(self):
        positive = self.deltas > 0
        d, p = self.deltas[positive], self.probs[positive]
        # -d <= -1 and -1 is present, so the index stays in range
        mirror = np.searchsorted(self.deltas, -d)
        if np.any(np.where(self.deltas[mirror] == -d, self.probs[mirror], 0.0) != p):
            raise ValueError("inclusion map must be symmetric for two-sided use")
        if np.any(p[1:] > p[:-1] + 1e-12):
            raise ValueError("inclusion map must be unimodal for two-sided use")

    def expected_size(self) -> float:
        return float(self.probs.sum())


LinkDistribution = InversePowerLaw | DeterministicBaseB | PowersOfB | BernoulliOffsets


def harmonic_numbers(n: int) -> np.ndarray:
    """Prefix sums H[d] = 1 + 1/2 + ... + 1/d, with H[0] = 0."""
    h = np.zeros(n + 1)
    if n >= 1:
        np.cumsum(1.0 / np.arange(1, n + 1), out=h[1:])
    return h


@lru_cache(maxsize=4)
def _line_prefix(n: int) -> np.ndarray:
    """Harmonic prefix of the line 0..n-1, shared by every draw on it; no
    caller writes to it."""
    return harmonic_numbers(n - 1)


# batches smaller than this go to np.searchsorted: below it the table
# lookup and step passes cost more than the binary search they replace
_GUESS_MIN_DRAWS = 1024


# guide-table buckets per line position: about 1/8 of a step per draw
# beyond the first comparison, against 1/2 at one bucket per position
_GUIDE_BUCKETS = 4


@lru_cache(maxsize=4)
def _guide_table(n: int) -> tuple[float, np.ndarray]:
    """Guide table of the line 0..n-1's 1/d law: `scale` splits
    [0, H_{n-1}] into m = _GUIDE_BUCKETS * n equal buckets, a draw r landing
    in bucket int(r * scale), and entry j is the smallest d >= 1 whose
    prefix h[d] lands in bucket j or later, so it never exceeds the answer
    of a draw in bucket j.  Bucketing h through the same rounded product as
    the draws makes that hold to the last ulp."""
    h = _line_prefix(n)
    m = _GUIDE_BUCKETS * n
    scale = m / h[-1]
    guide = np.searchsorted((h[1:] * scale).astype(np.int64), np.arange(m + 1)) + 1
    return scale, guide[:int(h[-1] * scale) + 1]


def _harmonic_index(h: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Inverse CDF of the 1/d law: the smallest d >= 1 with h[d] >= r, for
    r in [0, h[-1]] and h the line's harmonic prefix, equal to
    max(np.searchsorted(h, r, "left"), 1).

    Large batches start each draw at its guide-table entry, a lower bound
    on d (Chen and Asau's index table; Devroye 1986, III.2.4), and step it
    up until h[d] >= r: one comparison per draw and about 1/8 of a step
    more on average, O(1)."""
    if r.size < _GUESS_MIN_DRAWS:
        d = h.searchsorted(r, side="left")
        return np.maximum(d, 1, out=d)
    shape, r = r.shape, r.ravel()
    scale, guide = _guide_table(h.size)
    d = guide[(r * scale).astype(np.int64)]
    step = h[d] < r
    d += step
    moving = np.flatnonzero(step)
    while moving.size:
        step = h[d[moving]] < r[moving]
        d[moving] += step
        moving = moving[step]
    return d.reshape(shape)


def _grid_draws(us: np.ndarray, n: int, draws: int, h: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    """`draws` sinks per source over the whole line, ~ 1/|u-v|, by inverse
    CDF against the harmonic prefix h; one row per source.  A draw beyond
    the left mass goes right: it subtracts that mass and flips d's sign."""
    # one source (a join's row) reads h by scalar index, not by fancy index
    u = int(us[0]) if us.size == 1 else us[:, None]
    mass_left = h[u]
    r = rng.random((us.size, draws))
    r *= mass_left + h[n - 1 - u]
    right = r >= mass_left
    r -= right * mass_left
    sinks = _harmonic_index(h, r)
    sinks *= 2 * right - 1
    sinks += u
    # a left draw (r < h[u]) takes d <= u; only a right draw that rounds up
    # to the whole mass can pass the line's end
    return np.minimum(sinks, n - 1, out=sinks)


def sample_line_links(sources, n: int, links: int, rng: np.random.Generator,
                      present: np.ndarray | None = None) -> np.ndarray:
    """Draw `links` sinks per source ~ 1/|u-v|, one row per source.

    Inverse-CDF sampling against the shared harmonic prefix of the line
    0..n-1: a guide-table lookup and O(1) steps per draw in large batches
    (`_harmonic_index`), a binary search in small ones.  With a boolean
    `present` mask the law is 1/|u-v| restricted to present positions: each
    row keeps its first `links` grid draws that land on a present position
    (rejection, exact), and short rows draw again in batches that double in
    size.  One scatter writes every draw of a batch: into its row's next
    free slot if it is accepted and fits, else into a spare trash column.
    Duplicates are returned as drawn; deduplication is the graph
    layer's concern.
    """
    if links < 1:
        raise ValueError("links must be >= 1")
    if n < 2:
        raise ValueError("no candidate sinks")
    us = np.asarray(sources, dtype=np.int64).reshape(-1)
    h = _line_prefix(n)
    if present is None:
        return _grid_draws(us, n, links, h, rng)
    if np.any(np.count_nonzero(present) - present[us] < 1):
        raise ValueError("a source has no other present position")
    # row-major (sources, links + 1): column `links` of each row is trash
    out = np.empty(us.size * (links + 1), dtype=np.int64)
    filled = np.zeros(us.size, dtype=np.int64)
    rows = np.arange(us.size)
    batch = links
    while rows.size:
        sinks = _grid_draws(us[rows], n, batch, h, rng)
        ok = present[sinks]
        # slot (1-based) each accepted draw would take in its row; a rejected
        # draw's 0 and an overflow's links + 1 both map to the trash column
        slot = np.cumsum(ok, axis=1)
        slot += filled[rows, None]
        filled[rows] = np.minimum(slot[:, -1], links)
        np.minimum(slot, links + 1, out=slot)
        slot *= ok
        slot += (rows * (links + 1) - 1)[:, None]
        # a rejected draw at row 0 lands on the last row's trash column
        out[slot] = sinks
        rows = rows[filled[rows] < links]
        # bound one batch's memory when acceptance is tiny
        batch = min(2 * batch, max(links, (1 << 22) // max(rows.size, 1)))
    return out.reshape(us.size, links + 1)[:, :links]


def ceil_log(n: int, b: int) -> int:
    """Smallest k with b**k >= n."""
    k, power = 0, 1
    while power < n:
        power *= b
        k += 1
    return k


def scheme_distances(dist: DeterministicBaseB | PowersOfB, n: int) -> np.ndarray:
    """Sorted positive link distances of a deterministic scheme that fit a
    line of n positions, all <= n - 1: j*b^i for 1 <= j < b (base-b), or b^i
    (powers of b).  Every node links at each distance in both directions,
    where the line allows."""
    b = dist.base
    powers = b ** np.arange(ceil_log(n, b))  # b^i <= n - 1
    if isinstance(dist, PowersOfB):
        return powers
    # row i holds b^i, ..., (b-1)*b^i, with no multiplier past n - 1 (a base
    # at or above n gives 1..n-1): row-major order is already ascending
    d = (powers[:, None] * np.arange(1, min(b, n))).ravel()
    return d[d < n]


def sample_offsets(dist: BernoulliOffsets, rng: np.random.Generator,
                   rows: int | None = None) -> np.ndarray:
    """Draw offset sets: a boolean mask over `dist.deltas`, each entry True
    independently w.p. its probability (+1 and -1 always).  With `rows`,
    one mask per row, the stream of `rows` single draws in row order."""
    k = dist.probs.size
    return rng.random(k if rows is None else (rows, k)) < dist.probs


def ideal_length_distribution(n: int) -> np.ndarray:
    """Exact link-length law of the inverse power-law scheme on a full line.

    Entry d (1 <= d <= n-1) is the probability that one link drawn by a
    uniformly random node has length d, accounting for boundary truncation:
    a node at position u reaches distance d on 1 or 2 sides depending on
    room.  Index 0 is unused (zero).
    """
    h = harmonic_numbers(n - 1)
    # node u draws from weight mass h[u] + h[n-1-u]
    inv_mass = 1.0 / (h[np.arange(n)] + h[n - 1 - np.arange(n)])
    prefix = np.concatenate(([0.0], np.cumsum(inv_mass)))
    out = np.zeros(n)
    d = np.arange(1, n)
    # positions with u >= d reach distance d leftward: u in [d, n-1];
    # positions with u <= n-1-d reach it rightward: u in [0, n-1-d].
    left = prefix[n] - prefix[d]
    right = prefix[n - d]
    out[1:] = (left + right) / (d * n)
    return out
