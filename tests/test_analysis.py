"""Bound evaluators, the interval chain, and its agreement with point routing."""

import math

import numpy as np
import pytest

from lineworld.analysis import (
    Interval,
    _interval_marginals,
    _step_intervals,
    chain_equivalence_tv,
    mean_lower_bound,
    single_link_upper_bound,
    split_interval,
    step_interval,
)
from lineworld.harness import power_law_inclusion
from lineworld.linkgen import InversePowerLaw, harmonic_numbers
from lineworld.overlay import build
from lineworld.routing import Sidedness, route_many
from oracles import (
    draw_offsets,
    exact_mean_hops_to_zero,
    harmonic_number,
    offset_law,
    step_point,
)

ONE = Sidedness.ONE_SIDED
TWO = Sidedness.TWO_SIDED


def inverse_law(n):
    return offset_law({d: 1.0 / abs(d) for d in range(-n, n + 1) if d != 0})


# ---------------------------------------------------------------------------
# upper bounds


def single_link_drift(k, n1, n2, h=None):
    """Exact expected distance covered per step at distance k from the
    target, single long link drawn ~ 1/distance, with n1 positions on the
    current node's side of the target and n2 beyond it: the scalar oracle
    for `single_link_upper_bound`."""
    assert 1 <= k <= n1 and n2 >= 0
    h = harmonic_numbers(n1 + n2 + 1) if h is None else h
    total_mass = h[n1 - k] + h[n2 + k]
    toward = float(k)
    m = min(2 * k - 1, k + n2)
    overshoot = 2 * k * (h[m] - h[k]) - (m - k) if m > k else 0.0
    away = h[n1 - k]
    far = h[n2 + k] - h[2 * k - 1] if n2 + k >= 2 * k else 0.0
    return float((toward + overshoot + away + far) / total_mass)


def single_link_profile(n1, n2):
    """The oracle's drift curve over distances k = 1..n1."""
    h = harmonic_numbers(n1 + n2 + 1)
    return [single_link_drift(k, n1, n2, h) for k in range(1, n1 + 1)]


def brute_force_drift(k, n1, n2):
    """Expected per-step advance by enumerating every link target."""
    total = 0.0
    mass = 0.0
    for pos in range(-n2, n1 + 1):
        if pos == k:
            continue
        w = 1.0 / abs(pos - k)
        mass += w
        new = min(k - 1, abs(pos))  # immediate step unless the link is closer
        total += w * (k - new)
    return total / mass


def test_single_link_drift_matches_enumeration():
    for n1, n2, k in [(5, 2, 3), (8, 0, 3), (7, 7, 1), (10, 3, 10), (6, 6, 6),
                      (20, 11, 7), (9, 1, 2)]:
        got = single_link_drift(k, n1, n2)
        want = brute_force_drift(k, n1, n2)
        assert got == pytest.approx(want, abs=1e-12), (n1, n2, k)


def test_single_link_drift_exceeds_harmonic_floor():
    n = 1000
    for n1 in (n, n // 2):
        n2 = n - n1
        floor_h = 2 * harmonic_number(n)
        for k in range(1, n1 + 1, 17):
            assert single_link_drift(k, n1, n2) >= k / floor_h
    assert single_link_drift(1, 1000, 0) >= 1.0 / (2 * harmonic_number(1000))


def test_single_link_upper_bound_sums_the_oracle_curve():
    for n1, n2 in [(1, 0), (1, 5), (2, 0), (7, 7), (10, 3), (3, 20), (500, 37), (1023, 0)]:
        want = sum(1.0 / mu for mu in single_link_profile(n1, n2))
        assert single_link_upper_bound(n1, n2) == pytest.approx(want, rel=1e-12), (n1, n2)


def test_single_link_drift_validates_range():
    with pytest.raises(ValueError, match="n1"):
        single_link_upper_bound(0, 5)
    with pytest.raises(ValueError, match="n2"):
        single_link_upper_bound(5, -1)


def test_single_link_profile_nondecreasing():
    # Karp's bound needs the drop curve nondecreasing in the distance.
    for n1, n2 in [(500, 0), (300, 200)]:
        vals = single_link_profile(n1, n2)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])), (n1, n2)


# ---------------------------------------------------------------------------
# point and interval chains


def test_step_point_examples():
    assert step_point(1, [-1, 1], ONE) == 0
    assert step_point(1, [-1, 1], TWO) == 0
    assert step_point(5, [-1, 1, 3, 8], ONE) == 2
    assert step_point(5, [-1, 1, 8], TWO) == -3
    assert step_point(0, [-1, 1], TWO) == 0  # absorbed


def test_step_point_tie_prefers_nonnegative():
    # offsets 3 and 7 equidistant from 5: successor 2, not -2
    assert step_point(5, [-1, 1, 3, 7], TWO) == 2
    # mirrored: offsets -7 and -3 equidistant from -5, successor 2 not -2
    assert step_point(-5, [-7, -3, -1, 1], TWO) == 2


def test_split_interval_example():
    parts = split_interval(Interval(1, 4), [-1, 1, 2], ONE)
    assert parts == [(1, 1, 1), (2, 2, 2), (3, 4, 2)]
    parts = split_interval(Interval(1, 4), [-1, 1, 2], TWO)
    assert parts == [(1, 1, 1), (2, 2, 2), (3, 4, 2)]


def test_step_interval_example_distribution():
    # {1..4} with offsets {-1,1,2}: to {0} w.p. 1/2, else {1,2}
    rng = np.random.default_rng(0)
    hits = {"zero": 0, "pair": 0}
    for _ in range(20_000):
        nxt = step_interval(Interval(1, 4), [-1, 1, 2], ONE, rng)
        if nxt.absorbed:
            hits["zero"] += 1
        else:
            assert (nxt.lo, nxt.hi) == (1, 2)
            hits["pair"] += 1
    assert abs(hits["zero"] / 20_000 - 0.5) < 0.015


def test_step_interval_unit_and_absorbing():
    rng = np.random.default_rng(1)
    assert step_interval(Interval(1, 1), [-1, 1, 5], ONE, rng).absorbed
    assert step_interval(Interval(0, 0), [-1, 1], TWO, rng).absorbed


def enumerating_step(state, offsets, sidedness, rng):
    """The interval step by enumeration: split the whole interval, then pick
    a run by searchsorted over the cumulative run sizes.  `step_interval`
    must make the same draw and land on the same run."""
    if state.absorbed:
        return state
    parts = split_interval(state, offsets, sidedness)
    sizes = np.array([hi - lo + 1 for lo, hi, _ in parts], dtype=float)
    r = rng.random() * state.size
    i = int(np.searchsorted(np.cumsum(sizes), r, side="right"))
    lo, hi, delta = parts[i]
    return Interval(lo - delta, hi - delta)


class FixedDraw:
    """Stands in for a Generator whose every uniform draw is `u`."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def random_case(rng):
    """An interval of either sign, a sorted offset set of random density
    (usually holding +-1), and a sidedness."""
    side = ONE if rng.random() < 0.5 else TWO
    reach = int(rng.integers(2, 40))
    deltas = np.array([d for d in range(-reach, reach + 1) if abs(d) > 1])
    offs = deltas[rng.random(deltas.size) < rng.random()].tolist()
    if rng.random() < 0.9:
        offs = sorted(offs + [-1, 1])
    lo = int(rng.integers(1, 50))
    hi = lo + int(rng.integers(0, 60))
    state = Interval(lo, hi) if rng.random() < 0.5 else Interval(-hi, -lo)
    return state, offs, side


def test_step_interval_takes_the_split_run_of_every_position():
    # a draw landing on x must return x's run of the enumerated split
    rng = np.random.default_rng(8)
    checked = {1: 0, -1: 0}  # cases split without rejection, by interval sign
    for _ in range(10_000):
        state, offs, side = random_case(rng)
        try:
            parts = split_interval(state, offs, side)
        except ValueError:
            with pytest.raises(ValueError):
                step_interval(state, offs, side, FixedDraw(0.5))
            continue
        for lo, hi, delta in parts:
            for x in range(lo, hi + 1):
                draw = FixedDraw((x - state.lo + 0.5) / state.size)
                got = step_interval(state, offs, side, draw)
                assert got == Interval(lo - delta, hi - delta), (state, offs, side, x)
        checked[state.sign] += 1
    assert min(checked.values()) >= 2_000


def test_step_intervals_matches_step_interval():
    # every case that steps goes into one batch per sidedness, so the rows
    # of a batch are checked against each other as well as against the
    # scalar step; a case the scalar step rejects must fail alone too.  Some
    # states are absorbed, which both steps must keep at {0} whatever the
    # offsets, even none.
    rng = np.random.default_rng(12)
    deltas = np.array([d for d in range(-39, 40) if d != 0])  # all random_case can draw
    cases = {ONE: [], TWO: []}
    for _ in range(10_000):
        state, offs, side = random_case(rng)
        if rng.random() < 0.05:  # absorbed, with or without offsets
            state = Interval(0, 0)
            offs = offs if rng.random() < 0.5 else []
        incl, u = np.isin(deltas, offs), rng.random()
        try:
            want = step_interval(state, offs, side, FixedDraw(u))
        except ValueError:
            with pytest.raises(ValueError):
                _step_intervals(np.array([state.lo]), np.array([state.hi]), deltas,
                                incl[None], np.array([u]), side)
            continue
        cases[side].append((state.lo, state.hi, incl, u, want.lo, want.hi))
    for side, batch in cases.items():
        lo, hi, incl, u, want_lo, want_hi = map(np.array, zip(*batch))
        signs = np.sign(lo)
        assert np.count_nonzero(signs) >= 2_000
        assert min(np.count_nonzero(signs == 1), np.count_nonzero(signs == -1)) >= 100
        assert np.count_nonzero((signs == 0) & ~incl.any(axis=1)) >= 50
        got_lo, got_hi = _step_intervals(lo, hi, deltas, incl, u, side)
        assert got_lo.tolist() == want_lo.tolist()
        assert got_hi.tolist() == want_hi.tolist()


def test_step_interval_matches_enumerating_step_on_one_stream():
    n = 64
    law = inverse_law(n)
    for side in (ONE, TWO):
        offset_rng = np.random.default_rng(9)
        fast, slow = np.random.default_rng(10), np.random.default_rng(10)
        state = Interval(1, n)
        for _ in range(5_000):
            offs = draw_offsets(law, offset_rng).tolist()
            nxt = step_interval(state, offs, side, fast)
            assert nxt == enumerating_step(state, offs, side, slow), (state, offs)
            state = Interval(1, n) if nxt.absorbed else nxt
        assert fast.random() == slow.random()


def test_step_point_rejects_no_usable_offset():
    with pytest.raises(ValueError):
        step_point(2, [5], ONE)  # would wrap to offset 5 and return -3
    with pytest.raises(ValueError):
        step_point(2, [], TWO)


def test_split_interval_rejects_no_usable_offset():
    with pytest.raises(ValueError):
        split_interval(Interval(1, 3), [5], ONE)
    with pytest.raises(ValueError):
        split_interval(Interval(1, 6), [5], ONE)  # 1..4 cannot take 5
    with pytest.raises(ValueError):
        split_interval(Interval(1, 3), [], TWO)


def test_step_interval_rejects_no_usable_offset():
    with pytest.raises(ValueError):
        step_interval(Interval(1, 3), [5], ONE, np.random.default_rng(0))
    with pytest.raises(ValueError):
        step_interval(Interval(-3, -1), [], TWO, np.random.default_rng(0))
    # 5 and 6 can take offset 5 but 1..4 cannot: rejected whatever the draw
    for u in (0.0, 0.99):
        with pytest.raises(ValueError):
            step_interval(Interval(1, 6), [5], ONE, FixedDraw(u))


def test_interval_single_sign_invariant():
    with pytest.raises(ValueError):
        Interval(-1, 1)
    with pytest.raises(ValueError):
        Interval(0, 3)
    with pytest.raises(ValueError):
        Interval(4, 2)


def test_interval_steps_stay_contiguous_same_sign():
    # parts of every split are same-sign runs; 10^5 random steps
    rng = np.random.default_rng(2)
    n = 64
    law = inverse_law(n)
    state = Interval(1, n)
    for _ in range(100_000):
        offs = draw_offsets(law, rng)
        parts = split_interval(state, offs, TWO)
        covered = 0
        for lo, hi, delta in parts:
            assert lo <= hi
            covered += hi - lo + 1
            shifted = Interval(lo - delta, hi - delta)  # validates sign rule
        assert covered == state.size
        state = step_interval(state, offs, TWO, rng)
        if state.absorbed:
            state = Interval(1, n)


def test_one_sided_states_are_prefix_intervals():
    rng = np.random.default_rng(3)
    n = 64
    law = inverse_law(n)
    state = Interval(1, n)
    for _ in range(20_000):
        offs = draw_offsets(law, rng)
        state = step_interval(state, offs, ONE, rng)
        if state.absorbed:
            state = Interval(1, n)
        else:
            assert state.lo == 1


def check_boundary_points(state: Interval, offsets,
                          sidedness: Sidedness = Sidedness.TWO_SIDED) -> bool:
    """Verify the split's boundary structure for a positive interval.

    Every run minimum must be the interval minimum, an offset, an offset
    plus one, or (two-sided only) one of the two integers at the midpoint of
    a consecutive positive offset pair -- and each such pair may contribute
    at most one of its two midpoint candidates.  These are the breakpoints
    `step_interval` clips to.
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


def test_boundary_points_exhaustive():
    # every subset of {±2..±8} joined with ±1, against {1..20}
    state = Interval(1, 20)
    free = [2, 3, 4, 5, 6, 7, 8]
    for mask in range(2 ** len(free)):
        offs = {-1, 1}
        for bit, d in enumerate(free):
            if mask >> bit & 1:
                offs.update((d, -d))
        offs = sorted(offs)
        assert check_boundary_points(state, offs, TWO)
        assert check_boundary_points(state, offs, ONE)


def test_boundary_points_unit_interval():
    assert check_boundary_points(Interval(1, 1), [-1, 1], TWO)


def test_boundary_points_even_midpoint_tie():
    # consecutive offsets 2 and 4: midpoint candidates 3 or 4
    offs = [-4, -2, -1, 1, 2, 4]
    for hi in range(2, 30):
        assert check_boundary_points(Interval(1, hi), offs, TWO)


def test_boundary_points_negative_interval_mirrors():
    offs = [-5, -2, -1, 1, 2, 5]
    assert check_boundary_points(Interval(-20, -1), offs, TWO)


def test_max_drop_probability_bound():
    # drops by ratio a happen with probability at most 3*ell/a
    rng = np.random.default_rng(4)
    n = 1024
    h = harmonic_number(n)
    scale = 2.0  # effective two-link draw: p_d = 2*(1/d)/(2H_n)
    inclusion = {d: min(1.0, scale / (abs(d) * 2 * h)) for d in range(-n, n + 1) if d != 0}
    inclusion[1] = inclusion[-1] = 1.0
    law = offset_law(inclusion)
    ell = law.expected_size()
    counts = {a: 0 for a in (2, 4, 8, 16)}
    eligible = {a: 0 for a in (2, 4, 8, 16)}
    state = Interval(1, n)
    steps = 100_000
    for _ in range(steps):
        offs = draw_offsets(law, rng)
        nxt = step_interval(state, offs, TWO, rng)
        for a in counts:
            if state.size >= a:
                eligible[a] += 1
                if nxt.size <= state.size / a:
                    counts[a] += 1
        state = Interval(1, n) if nxt.absorbed else nxt
    for a in counts:
        bound = 3 * ell / a
        observed = counts[a] / max(1, eligible[a])
        assert observed <= bound + 3 * math.sqrt(bound / max(1, eligible[a])) + 1e-9


# ---------------------------------------------------------------------------
# mean lower bound


def test_mean_lower_bound_positive_and_monotone():
    # the ±1 units plus 0..16 further offsets: expected sizes 2..18
    values = []
    for ell in range(1, 18):
        law = offset_law({-1: 1.0, **{d: 1.0 for d in range(1, ell + 1)}})
        assert law.expected_size() == ell + 1
        values.append(mean_lower_bound(2 ** 17, ONE, law))
    assert all(v > 0 for v in values)
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_mean_lower_bound_two_sided_needs_valid_map():
    bimodal = offset_law({1: 1.0, -1: 1.0, 2: 0.2, -2: 0.2, 3: 0.5, -3: 0.5})
    with pytest.raises(ValueError):
        mean_lower_bound(1024, TWO, bimodal)
    asym = offset_law({1: 1.0, -1: 1.0, 2: 0.5, -2: 0.2})
    with pytest.raises(ValueError):
        mean_lower_bound(1024, TWO, asym)
    ok = offset_law({1: 1.0, -1: 1.0, 2: 0.5, -2: 0.5})
    assert mean_lower_bound(1024, TWO, ok) > 0


def test_mean_lower_bound_denominator_shrinks():
    # the discount for rare large drops stays near 1 for large n
    for n in (2 ** 10, 2 ** 17):
        ln_n = math.log(n)
        eps = ln_n ** -3
        t_raw = mean_lower_bound(n, ONE, offset_law({-2: 1.0, -1: 1.0, 1: 1.0, 2: 1.0}))
        # recover T from bound = T/(eps*T + 1 - eps): bound <= T always
        assert eps * t_raw < 0.05


def test_offset_band_sums_totals():
    # The band totals back mean_lower_bound's hit-weight cap L: all bands
    # together hold at most 2*ell one-sided and 2*ell + ell^2 two-sided, so
    # three consecutive bands hold at most L = 6*ell or 6*ell + 3*ell^2.

    def midpoint_mass(p, n):
        """q_k = b_{2k - 1} + b_{2k} for k > 0, where b_m convolves the
        inclusion map with itself: the expected number of distinct offset
        pairs summing to m, hence a bound on Pr[k is a midpoint]."""
        b = {}
        for d1, p1 in p.items():
            for d2, p2 in p.items():
                if d1 != d2:
                    b[d1 + d2] = b.get(d1 + d2, 0.0) + p1 * p2
        return {k: b.get(2 * k - 1, 0.0) + b.get(2 * k, 0.0) for k in range(1, n + 1)}

    def offset_band_sums(n, sidedness, law, a):
        """gamma_i = sum over positive k with floor(log_a(k+1)) = i of
        (2 p_k + q_k); q is zero for one-sided routing."""
        p = dict(zip(law.deltas.tolist(), law.probs.tolist()))
        q = midpoint_mass(p, n) if sidedness is TWO else {}
        gammas = np.zeros(int(math.log(n + 1) / math.log(a)) + 4)
        for k in range(1, n + 1):
            gammas[int(math.log(k + 1) / math.log(a))] += 2.0 * p.get(k, 0.0) + q.get(k, 0.0)
        return gammas

    n = 256
    law = inverse_law(n)
    ell = law.expected_size()
    a = 3 * ell * math.log(n) ** 3
    one = offset_band_sums(n, ONE, law, a)
    assert one.sum() <= 2 * ell + 1e-9
    two = offset_band_sums(n, TWO, law, a)
    assert two.sum() <= 2 * ell + ell ** 2 + 1e-9
    assert two.sum() >= one.sum()


def _simulate_one_sided_to_zero(n, ell, graphs, routes_per_graph, seed):
    import lineworld as lw

    rng = np.random.default_rng([seed])
    total = cnt = 0
    cap = 8 * int(math.log2(n)) ** 2
    for _ in range(graphs):
        g = lw.build(n, lw.InversePowerLaw(ell), rng)
        src = rng.integers(1, np.full(routes_per_graph, n))  # one scalar draw each
        res = lw.route_many(g, src, np.zeros_like(src), ONE, max_hops=cap)
        total += int(res.hops[res.delivered].sum())
        cnt += int(np.count_nonzero(res.delivered))
    return total / cnt


def test_karp_bound_dominates_simulation():
    for n in (2 ** 8, 2 ** 10):
        upper = single_link_upper_bound(n - 1, 0)
        sim = _simulate_one_sided_to_zero(n, 1, graphs=5, routes_per_graph=400,
                                          seed=n + 3)
        assert sim <= upper


def test_mean_lower_bound_below_simulation():
    from lineworld.harness import power_law_inclusion

    n, ell = 2 ** 14, 14
    lower = mean_lower_bound(n, ONE, power_law_inclusion(n, ell))
    sim = _simulate_one_sided_to_zero(n, ell, graphs=3, routes_per_graph=400, seed=55)
    assert 0 < lower <= sim


@pytest.mark.parametrize("ell", [1, 2, 4])
def test_exact_hop_law_lies_inside_the_bounds(ell):
    """The exact hop law to target 0 sits inside the bound sandwich: its
    mean over starts 1..n-1 is at least the closed-form lower bound under
    either sidedness, and at one link E[n - 1] is at most Karp's bound."""
    for n in 2 ** np.arange(4, 13):
        e = exact_mean_hops_to_zero(n, ell)
        for side in Sidedness:
            assert mean_lower_bound(n, side, power_law_inclusion(n, ell)) <= e[1:].mean()
        if ell == 1:
            assert e[-1] <= single_link_upper_bound(n - 1, 0)


@pytest.mark.parametrize("ell", [1, 2, 4])
def test_route_many_to_zero_follows_the_exact_hop_law(ell):
    """`route_many`'s mean hops to 0 from uniform starts on built graphs
    lies within 3 standard errors (from per-graph means) of the exact law's
    mean.  Greedy cannot overshoot the line's end, so two-sided batches to 0
    route exactly as one-sided ones."""
    n, graphs, messages = 2 ** 7, 40, 100
    rng = np.random.default_rng(ell)
    means = []
    for _ in range(graphs):
        g = build(n, InversePowerLaw(ell), rng)
        src = rng.integers(1, np.full(messages, n))
        one, two = (route_many(g, src, np.zeros_like(src), side) for side in (ONE, TWO))
        assert one.delivered.all()
        for name, a in vars(one).items():
            assert np.array_equal(getattr(two, name), a), name
        means.append(one.hops.mean())
    se = np.std(means, ddof=1) / math.sqrt(graphs)
    assert abs(np.mean(means) - exact_mean_hops_to_zero(n, ell)[1:].mean()) <= 3 * se


# ---------------------------------------------------------------------------
# chain equivalence


def test_chain_equivalence_zero_at_start():
    rng = np.random.default_rng(5)
    tv = chain_equivalence_tv(8, inverse_law(8), ONE, 3, 2000, rng)
    assert tv[0] == 0.0


def test_chain_equivalence_deterministic_offsets():
    # all-or-nothing inclusion: both chains coincide in law
    rng = np.random.default_rng(6)
    law = offset_law({1: 1.0, -1: 1.0, 2: 1.0, -2: 1.0, 5: 1.0, -5: 1.0})
    for side in (ONE, TWO):
        tv = chain_equivalence_tv(16, law, side, 6, 100_000, rng)
        assert tv.max() < 0.01


def test_chain_equivalence_inverse_law_small():
    rng = np.random.default_rng(7)
    tv = chain_equivalence_tv(16, inverse_law(16), TWO, 6, 30_000, rng)
    assert tv.max() < 0.02


def test_chain_equivalence_without_steps():
    tv = chain_equivalence_tv(8, inverse_law(8), TWO, 0, 100, np.random.default_rng(13))
    assert tv.tolist() == [0.0]


def test_chain_equivalence_one_sample():
    rng = np.random.default_rng(14)
    for side in (ONE, TWO):
        tv = chain_equivalence_tv(8, inverse_law(8), side, 4, 1, rng)
        assert tv.shape == (5,) and tv[0] == 0.0
        assert np.all((tv >= 0.0) & (tv <= 1.0 + 1e-12))


def test_interval_chain_mass_stays_at_zero_once_absorbed():
    # offsets +-1 only: every run from 1..4 reaches 0 within 4 steps
    n, law = 4, offset_law({1: 1.0, -1: 1.0})
    at_zero = np.zeros(2 * n + 1)
    at_zero[n] = 1.0
    for side in (ONE, TWO):
        hist = _interval_marginals(n, law, side, 7, 500, np.random.default_rng(15))
        assert hist[1, n] < 1.0
        assert np.array_equal(hist[n:], np.tile(at_zero, (7 - n + 1, 1)))
        tv = chain_equivalence_tv(n, law, side, 7, 500, np.random.default_rng(16))
        assert np.all(tv[n:] == 0.0)


def test_interval_marginals_rows_are_laws():
    # the difference-array accumulation must leave each row a probability law
    rng = np.random.default_rng(17)
    for side in (ONE, TWO):
        hist = _interval_marginals(16, inverse_law(16), side, 8, 5_000, rng)
        assert np.abs(hist.sum(axis=1) - 1.0).max() <= 1e-12
        assert hist.min() >= -1e-12
