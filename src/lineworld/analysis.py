"""Hitting-time bound evaluators and the interval abstraction of greedy routing.

Upper bounds come from the Karp probabilistic-recurrence bound: a
nonincreasing integer chain with nondecreasing expected one-step drop mu(k)
hits 0 from x0 within sum_{k=1..x0} 1/mu(k) expected steps.
`single_link_upper_bound` evaluates that sum over the exact drop curve of
the single-long-link overlay.

Lower bounds track the log-size of a start *interval* instead of a single
start point.  For a fixed offset set the greedy successor rule splits an
interval of starting positions into contiguous same-sign runs, one per
(chosen offset, successor sign); stepping to a run chosen with probability
proportional to its size keeps the interval chain's uniform element
distributed exactly like the single-point chain (`chain_equivalence_tv`
estimates that equality).  A run's ends lie at the interval's ends, at an
offset or one past it, or at a midpoint between neighbouring offsets, so
`step_interval` finds the run of one uniform element by bisecting the
offsets instead of enumerating the interval; `split_interval` enumerates
the whole partition and is the reference it is tested against.
`chain_equivalence_tv` steps all its samples' intervals in lockstep, one
array step per transition, and `step_interval` is the scalar reference that
array step is tested against.  The size
of the chosen run rarely drops by a large ratio, and that fact yields an
explicit closed-form lower bound on the expected routing time
(`mean_lower_bound`).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .linkgen import BernoulliOffsets, harmonic_numbers, sample_offsets
from .routing import Sidedness


# ---------------------------------------------------------------------------
# upper bounds


def single_link_upper_bound(n1: int, n2: int) -> float:
    """Karp's bound on the expected greedy hops to the target, single long
    link drawn ~ 1/distance: the sum over distances k = 1..n1 of 1/mu(k).

    The target splits the line into n1 positions on the current node's
    side and n2 on the far side.  mu(k) is the exact expected distance
    covered by one step from distance k: links landing between here and
    the target advance their full length; links overshooting by less than
    k advance to the overshoot point; everything else falls back to the
    immediate-neighbor step of 1.  mu is nondecreasing in k, as Karp's
    bound needs, and always at least k / (2 H_{n1+n2}).
    """
    if n1 < 1:
        raise ValueError("n1 must be at least 1")
    if n2 < 0:
        raise ValueError("n2 must be nonnegative")
    h = harmonic_numbers(n1 + n2 + 1)
    k = np.arange(1, n1 + 1)
    m = np.minimum(2 * k - 1, k + n2)
    overshoot = np.where(m > k, 2 * k * (h[m] - h[k]) - (m - k), 0.0)
    far = np.where(k <= n2, h[n2 + k] - h[m], 0.0)
    drift = (k + overshoot + h[n1 - k] + far) / (h[n1 - k] + h[n2 + k])
    return float(np.sum(1.0 / drift))


# ---------------------------------------------------------------------------
# the interval chain


@dataclass(frozen=True)
class Interval:
    """Contiguous run of integer positions lo..hi, all of one sign.

    {0} is the absorbed state: the chain has reached the target.
    """

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty interval")
        if self.lo < 0 < self.hi or (self.lo == 0 != self.hi) or (self.hi == 0 != self.lo):
            raise ValueError("interval must be single-signed or exactly {0}")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    @property
    def sign(self) -> int:
        return 0 if self.lo == self.hi == 0 else (1 if self.lo > 0 else -1)

    @property
    def absorbed(self) -> bool:
        return self.sign == 0


def _choose(x: int, offs, sidedness: Sidedness) -> int:
    """Index, in the sorted offsets, of the one greedy routing takes from x.

    One-sided: the largest offset not exceeding x (smallest nonnegative
    successor).  Two-sided: the offset nearest to x (smallest |successor|),
    ties resolved to the smaller offset, whose successor is nonnegative.
    """
    if sidedness is Sidedness.ONE_SIDED:
        k = bisect_right(offs, x) - 1
    else:
        k = bisect_left(offs, x)
        if k == len(offs) or (k > 0 and x - offs[k - 1] <= offs[k] - x):
            k -= 1
    if k < 0:
        raise ValueError(f"no usable offset at position {x}")
    return k


def split_interval(state: Interval, offsets, sidedness: Sidedness):
    """Partition the interval by (chosen offset, successor sign), by
    enumerating every position: the reference that `step_interval` must
    agree with.

    Returns a list of (sub_lo, sub_hi, offset) runs covering the state in
    order; each run's successors form one contiguous same-sign interval.
    Raises ValueError when some position has no usable offset.
    """
    if state.absorbed:
        return [(0, 0, 0)]
    offs = np.asarray(sorted(offsets), dtype=np.int64)
    xs = np.arange(state.lo, state.hi + 1, dtype=np.int64)
    if offs.size == 0:
        raise ValueError("no usable offset")
    if sidedness is Sidedness.ONE_SIDED:
        idx = np.searchsorted(offs, xs, side="right") - 1
        if idx[0] < 0:
            raise ValueError(f"no usable offset at position {state.lo}")
    else:
        i = np.searchsorted(offs, xs, side="left")
        below = offs[np.maximum(i - 1, 0)]
        above = offs[np.minimum(i, offs.size - 1)]
        # tie (equidistant offsets): the smaller offset gives the nonnegative successor
        use_below = (i > 0) & ((i == offs.size) | (xs - below <= above - xs))
        idx = np.where(use_below, i - 1, i)
    chosen = offs[idx]
    key = chosen * 4 + np.sign(xs - chosen)
    cuts = np.flatnonzero(np.diff(key)) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [len(xs)]))
    return [(int(xs[s]), int(xs[e - 1]), int(chosen[s])) for s, e in zip(starts, ends)]


def step_interval(state: Interval, offsets, sidedness: Sidedness,
                  rng: np.random.Generator) -> Interval:
    """One transition of the interval chain: pick a run of the split with
    probability proportional to its size, then shift it by the run's offset.
    {0} is absorbing.

    A uniform element x picks its own run with exactly that probability, so
    one draw finds x and `bisect` over the sorted offsets finds x's run: the
    interval clipped to the positions that choose x's offset d (up to the
    next offset one-sided, between the midpoints to the neighbouring offsets
    two-sided) and to x's side of d.  Raises ValueError when some position
    has no usable offset.
    """
    if state.absorbed:
        return state
    _choose(state.lo, offsets, sidedness)  # if any position lacks an offset, the lowest does
    x = state.lo + int(rng.random() * state.size)
    k = _choose(x, offsets, sidedness)
    d = offsets[k]
    lo, hi = state.lo, state.hi
    one_sided = sidedness is Sidedness.ONE_SIDED
    if k + 1 < len(offsets):
        hi = min(hi, offsets[k + 1] - 1 if one_sided else (d + offsets[k + 1]) // 2)
    if k > 0 and not one_sided:
        lo = max(lo, (offsets[k - 1] + d) // 2 + 1)
    if x < d:
        hi = min(hi, d - 1)
    elif x > d:
        lo = max(lo, d + 1)
    else:
        lo = hi = d
    return Interval(int(lo - d), int(hi - d))  # plain ints, also for array offsets


def _step_intervals(lo: np.ndarray, hi: np.ndarray, deltas: np.ndarray, incl: np.ndarray,
                    u: np.ndarray, sidedness: Sidedness) -> tuple[np.ndarray, np.ndarray]:
    """`step_interval` for a batch of intervals: row r steps lo[r]..hi[r]
    under the offsets deltas[incl[r]] (`deltas` sorted), its element x
    chosen by the uniform u[r].  Returns the new (lo, hi) arrays; an
    absorbed row stays {0}, whatever its offsets.

    The included offsets of all rows, flattened row by row, form one sorted
    array of flat positions, so one `searchsorted` per row finds the offsets
    on either side of x, and their neighbours are the entries next to them.
    Raises ValueError, as `step_interval` and `Interval` do, when some row's
    lowest position has no usable offset or a result is not a valid interval.
    """
    rows, width = incl.shape
    one_sided = sidedness is Sidedness.ONE_SIDED
    pos = np.flatnonzero(incl)
    # two pads at each end: an index up to two entries past either end of
    # pos gives a column outside every row
    padded = np.concatenate(([-1, -1], pos, [rows * width, rows * width]))
    row_base = np.arange(rows) * width

    def column(j):
        """Column, in its row's mask, of pos[j]: < 0 or >= width when pos[j]
        lies in an earlier or later row (j may run two past either end)."""
        return padded[j + 2] - row_base

    absorbed = lo == 0  # lo == 0 only for {0}
    first = column(np.searchsorted(pos, row_base))
    usable = np.searchsorted(deltas, lo, side="right") if one_sided else width
    if ((first >= usable) & ~absorbed).any():
        raise ValueError("no usable offset at some interval's lowest position")
    x = lo + (u * (hi - lo + 1)).astype(np.int64)
    if one_sided:  # the largest offset not exceeding x
        j = np.searchsorted(pos, row_base + np.searchsorted(deltas, x, side="right")) - 1
    else:  # the nearest offset, ties to the smaller
        j = np.searchsorted(pos, row_base + np.searchsorted(deltas, x, side="left"))
        below, above = column(j - 1), column(j)
        gap_below = x - deltas[np.maximum(below, 0)]
        gap_above = deltas[np.minimum(above, width - 1)] - x
        j -= (below >= 0) & ((above >= width) | (gap_below <= gap_above))
    d = deltas[np.where(absorbed, 0, column(j))]  # an absorbed row may have no offset
    nxt = column(j + 1)
    d_next = deltas[np.minimum(nxt, width - 1)]
    if one_sided:
        hi = np.where(nxt < width, np.minimum(hi, d_next - 1), hi)
    else:
        hi = np.where(nxt < width, np.minimum(hi, (d + d_next) // 2), hi)
        prev = column(j - 1)
        d_prev = deltas[np.maximum(prev, 0)]
        lo = np.where(prev >= 0, np.maximum(lo, (d_prev + d) // 2 + 1), lo)
    hi = np.where(x < d, np.minimum(hi, d - 1), hi)
    lo = np.where(x > d, np.maximum(lo, d + 1), lo)
    to_zero = absorbed | (x == d)
    lo, hi = np.where(to_zero, 0, lo - d), np.where(to_zero, 0, hi - d)
    if ((lo > hi) | ((lo <= 0) & (hi >= 0) & ((lo != 0) | (hi != 0)))).any():
        raise ValueError("interval step left an empty or two-signed interval")
    return lo, hi


# ---------------------------------------------------------------------------
# the closed-form mean lower bound


def mean_lower_bound(n: int, sidedness: Sidedness, inclusion: BernoulliOffsets | None = None,
                     expected_degree: float | None = None) -> float:
    """Closed-form lower bound on expected greedy hops to reach the target
    from a uniform start on 1..n.

    `inclusion` is the law of independently included signed offsets
    (both unit offsets present with probability 1); `expected_degree`
    defaults to the sum of inclusion probabilities.  Two-sided use requires
    a symmetric unimodal map.

    With ell the expected offset-set size, the large-drop cutoff is
    a = 3 * ell * ln^3 n (drops of ratio a happen with probability at most
    eps = ln^-3 n), and the per-band hit weight is capped by
    L = 6*ell one-sided / 6*ell + 3*ell^2 two-sided.  The bound integrates
    the reciprocal drop rate of ln|interval| and then discounts for the
    rare large drops:

        T = min(ln n, ln a)/ln a
            + ln a * floor(ln n/ln a) / (ln(1/(1 - 1/a)) + 2 ln(1 + L/floor(ln n/ln a)))
        bound = T / (eps*T + 1 - eps)

    The returned value is deliberately the explicit-constant form, so it is
    directly comparable against simulated hop counts.
    """
    if n < 3:
        raise ValueError("n too small")
    if sidedness is Sidedness.TWO_SIDED:
        if inclusion is None:
            raise ValueError("two-sided bound needs the inclusion map")
        inclusion.validate_two_sided()
    if inclusion is None and expected_degree is None:
        raise ValueError("need inclusion map or expected_degree")
    ell = inclusion.expected_size() if expected_degree is None else float(expected_degree)
    ln_n = math.log(n)
    a = 3.0 * ell * ln_n ** 3
    eps = ln_n ** -3
    ln_a = math.log(a)
    big_l = 6.0 * ell if sidedness is Sidedness.ONE_SIDED else 6.0 * ell + 3.0 * ell ** 2
    t_val = min(ln_n, ln_a) / ln_a
    bands = int(ln_n / ln_a)
    if bands >= 1:
        denom = math.log(1.0 / (1.0 - 1.0 / a)) + 2.0 * math.log(1.0 + big_l / bands)
        t_val += ln_a * bands / denom
    return t_val / (eps * t_val + 1.0 - eps)


# ---------------------------------------------------------------------------
# chain equivalence oracle


def _interval_marginals(n: int, dist: BernoulliOffsets, sidedness: Sidedness, t_max: int,
                        samples: int, rng: np.random.Generator) -> np.ndarray:
    """Law of the interval chain's uniform element over positions -n..n
    after each step 0..t_max, estimated from `samples` runs from 1..n
    stepped in lockstep, each with a fresh offset set per step.

    Row t averages, over the runs, the uniform law on each run's interval;
    an absorbed run's interval is {0}.
    """
    span = 2 * n + 1
    hist = np.zeros((t_max + 1, span))
    hist[0, n + 1:] = samples / n
    lo = np.ones(samples, dtype=np.int64)
    hi = np.full(samples, n, dtype=np.int64)
    # Only unabsorbed runs draw, but absorbed ones stay in the batch (the
    # step ignores their stale offsets and uniforms), so every array keeps
    # the batch's size: numpy caches freed buffers under 1 KiB per size, and
    # a batch shrinking through many sizes grows that cache.
    incl = np.zeros((samples, dist.deltas.size), dtype=bool)
    u = np.zeros(samples)
    for t in range(1, t_max + 1):
        live = lo != 0
        active = np.count_nonzero(live)
        incl[live] = sample_offsets(dist, rng, rows=active)
        u[live] = rng.random(active)
        lo, hi = _step_intervals(lo, hi, dist.deltas, incl, u, sidedness)
        # 1/size over each run lo..hi: a difference array, summed
        mass = 1.0 / (hi - lo + 1)
        diff = (np.bincount(lo + n, mass, minlength=span + 1)
                - np.bincount(hi + n + 1, mass, minlength=span + 1))
        hist[t] = np.cumsum(diff[:span])
    return hist / samples


def chain_equivalence_tv(n: int, dist: BernoulliOffsets, sidedness: Sidedness,
                         t_max: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Total-variation distance, per step, between the single-point chain
    marginal and the uniform-element marginal of the interval chain.

    Both chains start from 1..n (the point chain uniformly).  Entry 0 is
    exactly zero -- the initial laws coincide by construction; entries
    1..t_max are Monte-Carlo estimates from `samples` independent runs of
    each chain.  Keep n small (<= 64): the estimate needs dense coverage.
    """
    deltas = dist.deltas
    span = 2 * n + 1  # positions -n..n

    # point chain, all samples in lockstep
    point_hist = np.zeros((t_max + 1, span))
    xs = rng.integers(1, n + 1, size=samples)
    for t in range(1, t_max + 1):
        incl = sample_offsets(dist, rng, rows=samples)
        if sidedness is Sidedness.ONE_SIDED:
            incl &= deltas <= xs[:, None]
        gaps = np.where(incl, np.abs(xs[:, None] - deltas), np.inf)
        pick = np.argmin(gaps, axis=1)  # ties resolve to the smaller offset
        nxt = xs - deltas[pick]
        xs = np.where(xs == 0, 0, nxt)
        point_hist[t] = np.bincount(xs + n, minlength=span)
    point_hist /= samples

    interval_hist = _interval_marginals(n, dist, sidedness, t_max, samples, rng)
    tv = 0.5 * np.abs(point_hist - interval_hist).sum(axis=1)
    tv[0] = 0.0
    return tv
