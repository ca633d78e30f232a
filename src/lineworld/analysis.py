"""Hitting-time bound evaluators and the interval abstraction of greedy routing.

Upper bounds come from the Karp probabilistic-recurrence bound: a
nonincreasing chain with nondecreasing expected one-step drop mu(z) hits 1
within integral(1/mu) time.  `single_link_drift` supplies the exact drop
curve for the single-long-link overlay.

Lower bounds track the log-size of a start *interval* instead of a single
start point.  For a fixed offset set the greedy successor rule splits an
interval of starting positions into contiguous same-sign subranges, one
per (chosen offset, successor sign); stepping to a subrange chosen with
probability proportional to its size keeps the interval chain's uniform
element distributed exactly like the single-point chain
(`chain_equivalence_tv` estimates that equality).  The size of the chosen
subrange rarely drops by a large ratio, boundary points of the split are
constrained to a small set, and together those facts yield an explicit
closed-form lower bound on the expected routing time (`mean_lower_bound`).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .linkgen import BernoulliOffsets, harmonic_numbers
from .routing import Sidedness


# ---------------------------------------------------------------------------
# upper bounds


@dataclass(frozen=True)
class DropProfile:
    """Expected one-step drop of a nonincreasing chain, as a function of
    position; `integer_valued` selects exact summation over positions
    1..x0 instead of quadrature over [1, x0]."""

    drop: Callable[[float], float]
    x0: float
    integer_valued: bool = False

    def __post_init__(self):
        if not self.x0 > 1:
            raise ValueError("x0 must exceed 1")


def karp_upper_bound(profile: DropProfile) -> float:
    """Expected hitting time bound: sum or integral of 1/drop.

    The caller asserts the drop is nondecreasing in position.  Quadrature
    runs at relative tolerance 1e-6; a nonpositive drop anywhere sampled
    is an error.
    """
    if profile.integer_valued:
        ks = np.arange(1, int(profile.x0) + 1)
        vals = np.array([profile.drop(float(k)) for k in ks])
        if np.any(vals <= 0):
            raise ValueError("drop must be positive")
        return float(np.sum(1.0 / vals))

    def integrand(z: float) -> float:
        v = profile.drop(z)
        if v <= 0:
            raise ValueError("drop must be positive")
        return 1.0 / v

    value, _ = quad(integrand, 1.0, profile.x0, epsrel=1e-6, limit=200)
    return float(value)


def single_link_drift(k: int, n1: int, n2: int,
                      harmonic_prefix: np.ndarray | None = None) -> float:
    """Exact expected distance covered per step at distance k from the
    target, single long link drawn ~ 1/distance.

    The target splits the line into n1 positions on the current node's
    side and n2 on the far side (so 1 <= k <= n1).  Contributions: links
    landing between here and the target advance their full length; links
    overshooting by less than k advance to the overshoot point; everything
    else falls back to the immediate-neighbor step of 1.  Always at least
    k / (2 H_{n1+n2}).
    """
    if not 1 <= k <= n1:
        raise ValueError("k out of range")
    if n2 < 0:
        raise ValueError("n2 must be nonnegative")
    h = harmonic_prefix if harmonic_prefix is not None else harmonic_numbers(max(n1, n2 + k, 2 * k))
    total_mass = h[n1 - k] + h[n2 + k]
    toward = float(k)
    m = min(2 * k - 1, k + n2)
    overshoot = 2 * k * (h[m] - h[k]) - (m - k) if m > k else 0.0
    away = h[n1 - k]
    far = h[n2 + k] - h[2 * k - 1] if n2 + k >= 2 * k else 0.0
    return float((toward + overshoot + away + far) / total_mass)


def single_link_profile(n1: int, n2: int) -> DropProfile:
    """Drop profile over distances 1..n1 for the single-link overlay."""
    h = harmonic_numbers(n1 + n2 + 1)
    curve = np.array([single_link_drift(k, n1, n2, harmonic_prefix=h)
                      for k in range(1, n1 + 1)])
    return DropProfile(drop=lambda z: float(curve[int(z) - 1]), x0=float(n1),
                       integer_valued=True)


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


def step_point(x: int, offsets, sidedness: Sidedness) -> int:
    """Greedy successor of position x given the available offsets.

    One-sided: subtract the largest offset not exceeding x (smallest
    nonnegative successor).  Two-sided: subtract the offset nearest to x
    (smallest |successor|), ties resolved to the nonnegative side.
    0 is absorbing.
    """
    if x == 0:
        return 0
    offs = list(offsets)
    if sidedness is Sidedness.ONE_SIDED:
        if x < 0:
            raise ValueError("one-sided chain positions are nonnegative")
        return x - offs[bisect_right(offs, x) - 1]
    i = bisect_left(offs, x)
    lo = offs[i - 1] if i > 0 else None
    hi = offs[i] if i < len(offs) else None
    if lo is None:
        return x - hi
    if hi is None:
        return x - lo
    # tie (equidistant offsets): the smaller offset gives the nonnegative successor
    return x - (lo if x - lo <= hi - x else hi)


def _successors_vec(xs: np.ndarray, offs: np.ndarray, sidedness: Sidedness):
    """Vectorized step_point: returns (successors, chosen offsets)."""
    if sidedness is Sidedness.ONE_SIDED:
        idx = np.searchsorted(offs, xs, side="right") - 1
        chosen = offs[idx]
    else:
        i = np.searchsorted(offs, xs, side="left")
        lo_idx = np.clip(i - 1, 0, len(offs) - 1)
        hi_idx = np.clip(i, 0, len(offs) - 1)
        lo, hi = offs[lo_idx], offs[hi_idx]
        has_lo = i > 0
        has_hi = i < len(offs)
        use_lo = has_lo & (~has_hi | (xs - lo <= hi - xs))
        chosen = np.where(use_lo, lo, hi)
    return xs - chosen, chosen


def split_interval(state: Interval, offsets, sidedness: Sidedness):
    """Partition the interval by (chosen offset, successor sign).

    Returns a list of (sub_lo, sub_hi, offset) runs covering the state in
    order; each run's successors form one contiguous same-sign interval.
    """
    if state.absorbed:
        return [(0, 0, 0)]
    offs = np.asarray(sorted(offsets), dtype=np.int64)
    xs = np.arange(state.lo, state.hi + 1, dtype=np.int64)
    succ, chosen = _successors_vec(xs, offs, sidedness)
    key = chosen * 4 + np.sign(succ)
    cuts = np.flatnonzero(np.diff(key)) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [len(xs)]))
    return [(int(xs[s]), int(xs[e - 1]), int(chosen[s])) for s, e in zip(starts, ends)]


def step_interval(state: Interval, offsets, sidedness: Sidedness,
                  rng: np.random.Generator) -> Interval:
    """One transition of the interval chain: pick a subrange of the split
    with probability proportional to its size, then shift it by the
    subrange's offset.  {0} is absorbing."""
    if state.absorbed:
        return state
    parts = split_interval(state, offsets, sidedness)
    sizes = np.array([hi - lo + 1 for lo, hi, _ in parts], dtype=float)
    r = rng.random() * state.size
    i = int(np.searchsorted(np.cumsum(sizes), r, side="right"))
    lo, hi, delta = parts[i]
    return Interval(lo - delta, hi - delta)


def check_boundary_points(state: Interval, offsets,
                          sidedness: Sidedness = Sidedness.TWO_SIDED) -> bool:
    """Verify the split's boundary structure for a positive interval.

    Every subrange minimum must be the interval minimum, an offset, an
    offset plus one, or (two-sided only) one of the two integers at the
    midpoint of a consecutive positive offset pair -- and each such pair
    may contribute at most one of its two midpoint candidates.
    """
    if state.absorbed:
        return True
    if state.sign < 0:
        mirror = Interval(-state.hi, -state.lo)
        return check_boundary_points(mirror, [-d for d in offsets], sidedness)
    offs = sorted(offsets)
    minima = {lo for lo, _, _ in split_interval(state, offs, sidedness)}
    minima.discard(state.lo)
    pos = [d for d in offs if d > 0]
    allowed_offsets = set(pos) | {d + 1 for d in pos}
    midpoint_pairs = []
    if sidedness is Sidedness.TWO_SIDED:
        for lo_d, hi_d in zip(pos, pos[1:]):
            beta = -((lo_d + hi_d) // -2)  # ceil
            midpoint_pairs.append((beta, beta + 1))
    for m in minima:
        if m in allowed_offsets:
            continue
        if any(m in pair for pair in midpoint_pairs):
            continue
        return False
    for pair in midpoint_pairs:
        if pair[0] in minima and pair[1] in minima and pair[0] not in allowed_offsets \
                and pair[1] not in allowed_offsets:
            return False
    return True


# ---------------------------------------------------------------------------
# the closed-form mean lower bound


@dataclass(frozen=True)
class LowerBoundConfig:
    """Inputs for the greedy-routing mean lower bound.

    `inclusion` maps signed offsets to independent inclusion probabilities
    (both unit offsets present with probability 1); `expected_degree`
    defaults to the sum of inclusion probabilities.  Two-sided use requires
    a symmetric unimodal map.
    """

    n: int
    sidedness: Sidedness
    inclusion: BernoulliOffsets | None = None
    expected_degree: float | None = None

    def degree(self) -> float:
        if self.expected_degree is not None:
            return float(self.expected_degree)
        if self.inclusion is None:
            raise ValueError("need inclusion map or expected_degree")
        return self.inclusion.expected_size()


def mean_lower_bound(config: LowerBoundConfig) -> float:
    """Closed-form lower bound on expected greedy hops to reach the target
    from a uniform start on 1..n.

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
    if config.n < 3:
        raise ValueError("n too small")
    if config.sidedness is Sidedness.TWO_SIDED:
        if config.inclusion is None:
            raise ValueError("two-sided bound needs the inclusion map")
        config.inclusion.validate_two_sided()
    ell = config.degree()
    ln_n = math.log(config.n)
    a = 3.0 * ell * ln_n ** 3
    eps = ln_n ** -3
    ln_a = math.log(a)
    big_l = 6.0 * ell if config.sidedness is Sidedness.ONE_SIDED else 6.0 * ell + 3.0 * ell ** 2
    t_val = min(ln_n, ln_a) / ln_a
    bands = int(ln_n / ln_a)
    if bands >= 1:
        denom = math.log(1.0 / (1.0 - 1.0 / a)) + 2.0 * math.log(1.0 + big_l / bands)
        t_val += ln_a * bands / denom
    return t_val / (eps * t_val + 1.0 - eps)


# ---------------------------------------------------------------------------
# chain equivalence oracle


def chain_equivalence_tv(n: int, dist: BernoulliOffsets, sidedness: Sidedness,
                         t_max: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Total-variation distance, per step, between the single-point chain
    marginal and the uniform-element marginal of the interval chain.

    Both chains start from 1..n (the point chain uniformly).  Entry 0 is
    exactly zero -- the initial laws coincide by construction; entries
    1..t_max are Monte-Carlo estimates from `samples` independent runs of
    each chain.  Keep n small (<= 64): the estimate needs dense coverage.
    """
    deltas = np.asarray(sorted(d for d in dist.inclusion if abs(d) <= n), dtype=np.int64)
    probs = np.asarray([dist.inclusion[int(d)] for d in deltas])
    span = 2 * n + 1  # positions -n..n

    # point chain, all samples in lockstep
    point_hist = np.zeros((t_max + 1, span))
    xs = rng.integers(1, n + 1, size=samples)
    for t in range(1, t_max + 1):
        incl = rng.random((samples, len(deltas))) < probs
        gaps = np.abs(xs[:, None] - deltas[None, :]).astype(float)
        if sidedness is Sidedness.ONE_SIDED:
            usable = incl & (deltas[None, :] <= xs[:, None])
        else:
            usable = incl
        gaps[~usable] = np.inf
        pick = np.argmin(gaps, axis=1)  # ties resolve to the smaller offset
        nxt = xs - deltas[pick]
        xs = np.where(xs == 0, 0, nxt)
        point_hist[t] = np.bincount(xs + n, minlength=span)
    point_hist /= samples

    # interval chain, one run at a time with a fresh offset set per step
    interval_hist = np.zeros((t_max + 1, span))
    for _ in range(samples):
        state = Interval(1, n)
        for t in range(1, t_max + 1):
            if state.absorbed:
                interval_hist[t, n] += 1.0
                continue
            offs = deltas[rng.random(len(deltas)) < probs]
            state = step_interval(state, offs, sidedness, rng)
            interval_hist[t, state.lo + n: state.hi + n + 1] += 1.0 / state.size
    interval_hist /= samples

    tv = 0.5 * np.abs(point_hist - interval_hist).sum(axis=1)
    tv[0] = 0.0
    return tv
