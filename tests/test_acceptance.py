"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criteria 7 and 8 also exist at full scale (n = 2^17) behind the `longrun`
marker; enable with LINEWORLD_LONGRUN=1.

Criterion 3 checks the paper's multi-link upper bound, O(log^2 n / links)
expected greedy hops for 1 <= links <= lg n, with criterion 2's constant:
links * mean hops <= 2 H_n^2 for links in {1, 2, 4, 8, 14} at n = 2^14, and
the mean falls strictly as links grow.  The paper's lower bound,
Omega(log^2 n / (links log log n)), leaves room for a speed-up below exact
1/links proportionality: links * mean / H_n^2 measures 0.50, 0.58, 0.69,
0.87 and 1.08 on this grid (speed-up 6.5x at 14 links).

Known shortfall, kept deliberately red rather than loosened:

* criterion 8, both scales: with the literal five-entry backtrack trail the
  failed fraction measures 0.360 at n = 2^14 (threshold 0.35) and 0.325 at
  n = 2^17 (threshold 0.30), each on its test's own stream.  A six-entry
  trail measures 0.318 / 0.277 on the same streams, so the shortfall sits
  inside the bookkeeping ambiguity of "keep track of 5 nodes"; the literal
  reading is kept.  No route hits the hop cap; 7.5% (n = 2^14) and 4.1%
  (n = 2^17) of the pairs are stuck at the source, which no trail can
  recover.

The full-scale terminate sweep (criterion 7 longrun) passes: failed
fraction 0.023 / 0.061 / 0.107 / 0.178 / 0.293 / 0.427 / 0.638 for
p = 0.1 .. 0.7 at n = 2^17.
"""

import math

import numpy as np
import pytest

import lineworld as lw
from lineworld.analysis import (
    Interval,
    chain_equivalence_tv,
    mean_lower_bound,
    single_link_upper_bound,
    step_interval,
)
from lineworld.harness import (
    ExperimentConfig,
    build_by_joins,
    link_length_histogram,
    power_law_inclusion,
    run_experiment,
)
from lineworld.dynamics import ReplacementPolicy
from lineworld.linkgen import InversePowerLaw, ideal_length_distribution
from lineworld.routing import Backtrack, Sidedness, Terminate
from oracles import base_digits_nonzero, draw_offsets, harmonic_number, offset_law

ONE = Sidedness.ONE_SIDED
TWO = Sidedness.TWO_SIDED


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_pairs(rng, count, size):
    """`size` pairs of distinct indices below `count`, as two arrays: per
    pair, i below count, then j among the other count - 1.  One
    array-bounded draw takes the stream of one scalar draw per bound."""
    i, j = rng.integers(np.tile([count, count - 1], size)).reshape(-1, 2).T
    return i, j + (j >= i)


def mean_hops_ideal(n, ell, routes, seed, sidedness=TWO, graphs=10, p_link=1.0):
    rng = np.random.default_rng([seed])
    total = cnt = 0
    cap = 8 * int(math.log2(n)) ** 2
    for _ in range(graphs):
        g = lw.build(n, InversePowerLaw(ell), rng)
        if p_link < 1.0:
            lw.apply_link_failures(g, p_link, rng)
        s, d = random_pairs(rng, n, routes // graphs)
        res = lw.route_many(g, s, d, sidedness, max_hops=cap)
        total += int(res.hops[res.delivered].sum())
        cnt += int(np.count_nonzero(res.delivered))
    assert cnt == graphs * (routes // graphs)
    return total / cnt


def failed_fraction(n, ell, p_fail, strategy, routes, seed, graphs):
    # the strategies used here draw nothing while routing, so drawing every
    # pair of a graph first leaves the stream as one pair per route
    rng = np.random.default_rng([seed])
    fails = attempts = 0
    for _ in range(graphs):
        g = lw.build(n, InversePowerLaw(ell), rng)
        lw.apply_node_failures(g, p_fail, rng)
        live = g.live_sorted()
        i, j = random_pairs(rng, len(live), routes // graphs)
        res = lw.route_many(g, live[i], live[j], TWO, strategy, rng=rng,
                            probe=True, symmetric=True)
        fails += int(np.count_nonzero(~res.delivered))
        attempts += res.delivered.size
    return fails / attempts


def test_criterion_1_no_failure_delivery():
    n, ell, routes = 2 ** 14, 17, 100_000
    g = lw.build(n, InversePowerLaw(ell), np.random.default_rng([101]))
    s, d = random_pairs(np.random.default_rng([102]), n, routes)
    fails = int(np.count_nonzero(~lw.route_many(g, s, d).delivered))
    verdict(1, fails == 0, f"{routes} routes at n=2^14, links=17: {fails} failed")


def test_criterion_2_single_link_scaling():
    ratios = {}
    ok = True
    for n in (2 ** 8, 2 ** 10, 2 ** 12, 2 ** 14):
        mean = mean_hops_ideal(n, 1, 10_000, seed=200 + n)
        hn2 = harmonic_number(n) ** 2
        ratios[n] = mean / hn2
        ok &= mean <= 2 * hn2
    spread = max(ratios.values()) / min(ratios.values())
    ok &= spread < 2.0
    verdict(2, ok, "mean/H_n^2 by n: "
            + ", ".join(f"2^{n.bit_length() - 1}:{r:.3f}" for n, r in ratios.items())
            + f"; spread {spread:.2f} (<2), all means <= 2*H_n^2")


def test_criterion_3_multi_link_inverse_scaling():
    n = 2 ** 14
    hn2 = harmonic_number(n) ** 2
    means = {ell: mean_hops_ideal(n, ell, 10_000, seed=300 + ell)
             for ell in (1, 2, 4, 8, 14)}
    ok = all(ell * m <= 2 * hn2 for ell, m in means.items())
    falling = list(means.values())
    ok &= all(a > b for a, b in zip(falling, falling[1:]))
    verdict(3, ok, "links*mean/H_n^2 (speed-up m1/m_links) at n=2^14: "
            + ", ".join(f"{ell}:{ell * m / hn2:.3f} ({means[1] / m:.2f}x)"
                        for ell, m in means.items())
            + "; all <= 2, means strictly falling")


def test_criterion_4_deterministic_digit_exactness():
    n, b = 2 ** 10, 2
    g = lw.build(n, lw.DeterministicBaseB(b), np.random.default_rng([401]))
    s, d = np.nonzero(~np.eye(n, dtype=bool))  # every pair s != d, s-major
    res = lw.route_many(g, s, d, ONE)
    digits = np.array([base_digits_nonzero(k, b) for k in range(n)])
    wrong = np.flatnonzero(~res.delivered | (res.hops != digits[np.abs(s - d)]))
    if wrong.size:
        k = wrong[0]
        verdict(4, False, f"pair {s[k]}->{d[k]}: hops {res.hops[k]}")
    worst = int(res.hops.max())
    verdict(4, worst <= 10, f"all {n * (n - 1)} pairs match nonzero-digit "
                            f"counts; max hops {worst} <= 10")


def test_criterion_5_link_failure_slowdown():
    n, ell = 2 ** 14, 14
    m_full = mean_hops_ideal(n, ell, 20_000, seed=501, graphs=20)
    m_half = mean_hops_ideal(n, ell, 20_000, seed=502, graphs=20, p_link=0.5)
    ratio = m_half / m_full
    ok = 1.5 <= ratio <= 2.7
    verdict(5, ok, f"mean hops p=0.5 / p=1.0 = {m_half:.2f}/{m_full:.2f} "
                   f"= {ratio:.3f} in [1.5, 2.7]")


def test_criterion_6_binomial_presence_matches_reduced_line():
    n, p = 2 ** 12, 0.5
    rng = np.random.default_rng([601])
    cap = 8 * int(math.log2(n)) ** 2
    sums = {"binomial": [0, 0], "reduced": [0, 0]}
    for _ in range(8):
        gb = lw.build_binomial_presence(n, p, InversePowerLaw(1), rng)
        live = gb.live_sorted()
        i, j = random_pairs(rng, len(live), 1500)
        res = lw.route_many(gb, live[i], live[j], max_hops=cap)
        sums["binomial"][0] += int(res.hops[res.delivered].sum())
        sums["binomial"][1] += int(np.count_nonzero(res.delivered))
        gi = lw.build(len(live), InversePowerLaw(1), rng)
        s, d = random_pairs(rng, len(live), 1500)
        res = lw.route_many(gi, s, d, max_hops=cap)
        sums["reduced"][0] += int(res.hops[res.delivered].sum())
        sums["reduced"][1] += int(np.count_nonzero(res.delivered))
    mb = sums["binomial"][0] / sums["binomial"][1]
    mi = sums["reduced"][0] / sums["reduced"][1]
    rel = abs(mb - mi) / mi
    verdict(6, rel <= 0.20, f"binomial-presence mean {mb:.2f} vs reduced-line "
                            f"mean {mi:.2f}: {rel:.1%} <= 20%")


def test_criterion_7_terminate_below_p_desk():
    n, ell = 2 ** 14, 14
    report = []
    ok = True
    for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7):
        frac = failed_fraction(n, ell, p, Terminate(), routes=9800,
                               seed=int(700 + 10 * p), graphs=14)
        report.append(f"p={p}: {frac:.3f}")
        ok &= frac < p
    verdict(7, ok, "terminate failed fraction vs p at n=2^14: " + "; ".join(report))


@pytest.mark.longrun
def test_criterion_7_terminate_below_p_full_scale():
    n, ell = 2 ** 17, 17
    report = []
    ok = True
    for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7):
        frac = failed_fraction(n, ell, p, Terminate(), routes=10_000,
                               seed=int(750 + 10 * p), graphs=10)
        report.append(f"p={p}: {frac:.3f}")
        ok &= frac < p
    verdict(7, ok, "terminate failed fraction vs p at n=2^17: " + "; ".join(report))


def test_criterion_8_backtracking_desk():
    # measures 0.360 under the literal 5-node trail; see module docstring
    n, ell, p = 2 ** 14, 14, 0.8
    frac = failed_fraction(n, ell, p, Backtrack(history=5), routes=30_000,
                           seed=801, graphs=30)
    verdict(8, frac < 0.35, f"backtracking at p=0.8, n=2^14: failed "
                            f"fraction {frac:.3f} < 0.35")


@pytest.mark.longrun
def test_criterion_8_backtracking_full_scale():
    # measures 0.325 under the literal 5-node trail; see module docstring
    n, ell, p = 2 ** 17, 17, 0.8
    frac = failed_fraction(n, ell, p, Backtrack(history=5), routes=20_000,
                           seed=802, graphs=10)
    verdict(8, frac < 0.30, f"backtracking at p=0.8, n=2^17: failed "
                            f"fraction {frac:.3f} < 0.30")


def test_criterion_9_join_heuristic_fidelity():
    n, ell, reps = 2 ** 14, 14, 10
    rng = np.random.default_rng([901])
    hists = []
    for _ in range(reps):
        g = build_by_joins(n, ell, ReplacementPolicy.INVERSE_DISTANCE, rng)
        hists.append(link_length_histogram(g))
    derived = np.mean(hists, axis=0)
    ideal = ideal_length_distribution(n)[:derived.size]
    err = float(np.abs(derived - ideal).max())
    at = int(np.abs(derived - ideal).argmax())
    verdict(9, err <= 0.03, f"max |derived-ideal| over {reps} builds = "
                            f"{err:.4f} at length {at} (<= 0.03)")


def test_criterion_10_chain_equivalence():
    n = 16
    law = offset_law({d: 1.0 / abs(d) for d in range(-n, n + 1) if d != 0})
    worst = 0.0
    for side in (ONE, TWO):
        tv = chain_equivalence_tv(n, law, side, t_max=8, samples=100_000,
                                  rng=np.random.default_rng([1001]))
        worst = max(worst, float(tv.max()))
    verdict(10, worst < 0.02, f"max TV point-chain vs interval-chain over "
                              f"t<=8, both sidedness: {worst:.4f} < 0.02")


def test_criterion_11_interval_max_drop():
    n = 64
    law = offset_law({d: 1.0 / abs(d) for d in range(-n, n + 1) if d != 0})
    ell = law.expected_size()
    rng = np.random.default_rng([1101])
    targets = (2, 4, 8, 16)
    drops = {a: 0 for a in targets}
    eligible = {a: 0 for a in targets}
    state = Interval(1, n)
    steps = 100_000
    for _ in range(steps):
        offs = draw_offsets(law, rng)
        nxt = step_interval(state, offs, TWO, rng)
        for a in targets:
            if state.size >= a:
                eligible[a] += 1
                drops[a] += nxt.size <= state.size / a
        state = Interval(1, n) if nxt.absorbed else nxt
    ok = True
    report = []
    for a in targets:
        frac = drops[a] / max(1, eligible[a])
        bound = 3 * ell / a
        report.append(f"a={a}: {frac:.3f}<={bound:.2f}")
        ok &= frac <= bound
    verdict(11, ok, f"interval shrink probabilities ({steps} steps): " + "; ".join(report))


def test_criterion_12_bound_sandwich():
    n = 2 ** 12
    lower = mean_lower_bound(n, ONE, power_law_inclusion(n, 1))
    upper = single_link_upper_bound(n - 1, 0)
    rng = np.random.default_rng([1201])
    total = cnt = 0
    cap = 8 * int(math.log2(n)) ** 2
    for _ in range(10):
        g = lw.build(n, InversePowerLaw(1), rng)
        src = rng.integers(1, np.full(300, n))  # one scalar draw each
        res = lw.route_many(g, src, np.zeros_like(src), ONE, max_hops=cap)
        total += int(res.hops[res.delivered].sum())
        cnt += int(np.count_nonzero(res.delivered))
    sim = total / cnt
    ok = lower <= sim <= upper
    verdict(12, ok, f"{lower:.3f} <= simulated {sim:.2f} <= {upper:.2f} "
                    f"(n=2^12, one long link, one-sided)")


def test_criterion_13_reproducible_csv():
    base = dict(experiment="failures", n=2 ** 10, links=10, trials=6, messages=50,
                p_grid=(0.0, 0.4, 0.8), strategies=("terminate", "restart", "backtrack"),
                seed=1301)
    serial = run_experiment(ExperimentConfig(**base))
    threaded = run_experiment(ExperimentConfig(**base, workers=4))
    again = run_experiment(ExperimentConfig(**base, workers=2))
    ok = serial == threaded == again
    cmp_base = dict(experiment="compare", n=2 ** 9, links=6, repetitions=4,
                    messages=40, p_grid=(0.0, 0.5), strategies=("terminate",),
                    seed=1302)
    cmp_serial = run_experiment(ExperimentConfig(**cmp_base))
    cmp_threaded = run_experiment(ExperimentConfig(**cmp_base, workers=4))
    ok &= cmp_serial == cmp_threaded
    verdict(13, ok, "byte-identical CSV for 1, 2, 4 workers (failures) and "
                    "1, 4 workers (compare)")
