"""Link-generation laws: exact weights, deterministic link sets, sampling."""

import math

import numpy as np
import pytest
from scipy.stats import chisquare

from lineworld import linkgen
from lineworld.linkgen import (
    BernoulliOffsets,
    DeterministicBaseB,
    PowersOfB,
    harmonic_numbers,
    ideal_length_distribution,
    sample_line_links,
    sample_offsets,
    scheme_distances,
)
from lineworld.harness import power_law_inclusion
from lineworld.overlay import build
from oracles import (
    deterministic_links,
    draw_offsets,
    long_links,
    offset_law,
    power_links,
    reference_line_links,
)


def harmonic_weights(u, population) -> dict[int, float]:
    """Enumerated reference law: probability of each candidate sink v != u,
    proportional to 1/|u-v|.  `population` is any iterable of positions
    containing u and at least one other node."""
    candidates = np.asarray(sorted(set(int(v) for v in population) - {int(u)}), dtype=np.int64)
    if candidates.size == 0:
        raise ValueError("no candidate sinks")
    w = 1.0 / np.abs(candidates - int(u))
    w /= w.sum()
    return {int(v): float(p) for v, p in zip(candidates, w)}


def test_harmonic_weights_three_nodes():
    assert harmonic_weights(0, {0, 1, 2}) == pytest.approx({1: 2 / 3, 2: 1 / 3})
    assert harmonic_weights(1, {0, 1, 2}) == pytest.approx({0: 0.5, 2: 0.5})


def test_harmonic_weights_normalization_constant():
    w = harmonic_weights(0, range(10))
    h9 = sum(1.0 / i for i in range(1, 10))
    assert w[1] == pytest.approx(1.0 / h9, abs=1e-12)


def test_harmonic_weights_sum_and_positivity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 400))
        u = int(rng.integers(n))
        w = harmonic_weights(u, range(n))
        assert abs(sum(w.values()) - 1.0) < 1e-12
        assert all(p > 0 for p in w.values())
        assert u not in w


def test_harmonic_weights_needs_candidates():
    with pytest.raises(ValueError, match="no candidate sinks"):
        harmonic_weights(3, {3})


def test_sample_line_links_rejects_zero_links():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_line_links([0], 2, 0, rng)


def test_sample_line_links_single_present_candidate():
    rng = np.random.default_rng(0)
    present = np.zeros(8, dtype=bool)
    present[[2, 6]] = True
    assert sample_line_links([2, 6], 8, 3, rng, present=present).tolist() == [[6, 6, 6], [2, 2, 2]]


def test_sample_line_links_needs_another_present_position():
    rng = np.random.default_rng(0)
    present = np.zeros(8, dtype=bool)
    present[[2, 6]] = True
    with pytest.raises(ValueError, match="no other present position"):
        sample_line_links([2, 3, 6], 8, 1, rng, present=present & (np.arange(8) != 6))


@pytest.mark.parametrize("p_present", [0.5, 0.05])
def test_sample_line_links_present_matches_enumerated_law(p_present):
    # rejection draws restricted to a present mask follow 1/|u-v| over the
    # present positions, row by row (chi-square against the enumerated law)
    n, draws = 512, 40_000
    rng = np.random.default_rng(int(p_present * 100))
    present = rng.random(n) < p_present
    live = np.flatnonzero(present)
    sources = [int(live[0]), int(live[len(live) // 3]), int(live[-1])]
    sinks = sample_line_links(sources, n, draws, rng, present=present)
    assert sinks.shape == (3, draws)
    for u, row in zip(sources, sinks):
        law = harmonic_weights(u, live)
        assert set(np.unique(row).tolist()) <= set(law)
        counts = np.bincount(row, minlength=n)
        observed = np.array([counts[v] for v in law])
        expected = np.array(list(law.values())) * draws
        assert chisquare(observed, expected).pvalue > 1e-3


def test_sample_line_links_matches_weights():
    # 10^6 draws on the full 2^14 line, checked against the analytic law
    rng = np.random.default_rng(8)
    n, draws = 2 ** 14, 1_000_000
    got = sample_line_links([0], n, draws, rng)[0]
    counts = np.bincount(got, minlength=n)
    h = harmonic_numbers(n - 1)
    for v in (1, 2, 7, 100, 5000, n - 1):
        p = (1.0 / v) / h[n - 1]
        se = math.sqrt(p * (1 - p) / draws)
        assert abs(counts[v] / draws - p) < 3 * se + 1e-9


def test_sample_line_links_off_center():
    rng = np.random.default_rng(18)
    n, draws = 2 ** 10, 200_000
    counts = np.bincount(sample_line_links([100], n, draws, rng)[0], minlength=n)
    w = harmonic_weights(100, range(n))
    for v in (99, 101, 90, 500, 1023):
        p = w[v]
        se = math.sqrt(p * (1 - p) / draws)
        assert abs(counts[v] / draws - p) < 3 * se + 1e-9


@pytest.mark.parametrize("n", [2, 3, 17, 2 ** 10, 2 ** 14, 2 ** 17, 2 ** 20])
def test_harmonic_index_matches_binary_search(monkeypatch, n):
    # every prefix value, both float neighbours of each, 0, the smallest
    # subnormal, the top of the prefix, every guide bucket's lower edge and
    # both float neighbours of each, and 10^5 uniforms, through the
    # guide-table path and through the batch-size selection
    h = harmonic_numbers(n - 1)
    scale, guide = linkgen._guide_table(n)
    edges = np.arange(guide.size) / scale
    r = np.concatenate((h, np.nextafter(h, -np.inf), np.nextafter(h, np.inf),
                        [0.0, np.nextafter(0.0, 1.0), h[-1]],
                        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                        np.random.default_rng(n).random(10 ** 5) * h[-1]))
    r = r[(r >= 0.0) & (r <= h[-1])]
    want = np.maximum(np.searchsorted(h, r, "left"), 1)
    for batch in (r, r[:linkgen._GUESS_MIN_DRAWS - 1], r[:linkgen._GUESS_MIN_DRAWS]):
        assert np.array_equal(linkgen._harmonic_index(h, batch), want[:batch.size])
    monkeypatch.setattr(linkgen, "_GUESS_MIN_DRAWS", 0)
    for batch in (r, r[:11]):
        assert np.array_equal(linkgen._harmonic_index(h, batch), want[:batch.size])
    # O(n) entries: one per bucket, the buckets a fixed multiple of n
    assert guide.size <= linkgen._GUIDE_BUCKETS * n + 1


@pytest.mark.parametrize("n", [2, 3, 17, 2 ** 11, 2 ** 14])
@pytest.mark.parametrize("mask", [None, 1.0, 0.5, 0.05, "pair"])
@pytest.mark.parametrize("large", [False, True], ids=["small-batch", "large-batch"])
def test_sample_line_links_matches_reference(n, mask, large):
    # the branch-free sampler draws the same uniforms and returns the same
    # sinks as the masked-select reference, on the whole line or restricted
    # to present positions (a fraction of the line, or just two neighbours,
    # so that each source has one candidate), in batches below and above
    # the guide-table threshold
    rng = np.random.default_rng(n)
    if mask is None:
        present = None
    elif mask == "pair":
        present = np.zeros(n, dtype=bool)
        present[[n // 3, n // 3 + 1]] = True
    else:
        present = rng.random(n) < mask
        present[[0, n - 1]] = True
    sources = np.arange(n) if present is None else np.flatnonzero(present)
    if large:
        links = max(2, -(-2 * linkgen._GUESS_MIN_DRAWS // sources.size))
    else:
        sources, links = sources[:5], 3
    a, b = np.random.default_rng(7), np.random.default_rng(7)
    got = sample_line_links(sources, n, links, a, present=present)
    assert np.array_equal(got, reference_line_links(sources, n, links, b, present=present))
    assert a.bit_generator.state == b.bit_generator.state


def test_sample_line_links_full_present_mask_draws_as_none():
    # with every position present the rejection pass accepts its first batch
    # whole, so it draws what the unmasked sampler draws, and no more
    n = 300
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    with_mask = sample_line_links(np.arange(n), n, 7, a, present=np.ones(n, dtype=bool))
    assert np.array_equal(with_mask, sample_line_links(np.arange(n), n, 7, b))
    assert a.random() == b.random()


def built_long_links(n, dist, u):
    return long_links(build(n, dist, np.random.default_rng(0)), u)


def test_deterministic_links_examples():
    assert built_long_links(8, DeterministicBaseB(2), 0) == [1, 2, 4]
    assert built_long_links(9, DeterministicBaseB(3), 4) == [1, 2, 3, 5, 6, 7]
    # degenerate line: only the immediate neighbor remains
    for b in (2, 3, 7):
        assert built_long_links(2, DeterministicBaseB(b), 0) == [1]
        assert built_long_links(2, DeterministicBaseB(b), 1) == [0]


def test_power_links_examples():
    assert built_long_links(9, PowersOfB(2), 0) == [1, 2, 4, 8]
    assert built_long_links(9, PowersOfB(2), 8) == [0, 4, 6, 7]
    assert built_long_links(9, PowersOfB(3), 4) == [1, 3, 5, 7]


def test_link_sets_stay_on_line():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(2, 300))
        u = int(rng.integers(n))
        b = int(rng.integers(2, 6))
        for dist in (DeterministicBaseB(b), PowersOfB(b)):
            assert all(0 <= v < n and v != u for v in built_long_links(n, dist, u))


@pytest.mark.parametrize("n", [2, 3, 8, 9, 10, 81, 100, 1024])
@pytest.mark.parametrize("b", [2, 3, 5])
def test_scheme_distances_are_the_lengths_nodes_hold(n, b):
    for dist, links_of in ((DeterministicBaseB(b), deterministic_links), (PowersOfB(b), power_links)):
        held = {abs(u - v) for u in range(n) for v in links_of(u, n, b)}
        assert scheme_distances(dist, n).tolist() == sorted(held)


@pytest.mark.parametrize("b", [64, 2 ** 40, 2 ** 63 - 1])
def test_scheme_distances_of_a_base_at_or_above_n(b):
    # as j*b^0 alone: no array is sized by the base
    assert scheme_distances(DeterministicBaseB(b), 64).tolist() == list(range(1, 64))
    assert scheme_distances(PowersOfB(b), 64).tolist() == [1]


def test_base_must_exceed_one():
    with pytest.raises(ValueError):
        DeterministicBaseB(1)
    with pytest.raises(ValueError):
        PowersOfB(1)


def test_offsets_unit_always_present():
    dist = offset_law({1: 1.0, -1: 1.0})
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert list(draw_offsets(dist, rng)) == [-1, 1]


def test_offsets_deterministic_inclusion():
    dist = offset_law({1: 1.0, -1: 1.0, 2: 1.0, -2: 1.0})
    rng = np.random.default_rng(0)
    assert list(draw_offsets(dist, rng)) == [-2, -1, 1, 2]


def test_offsets_inclusion_rate():
    n = 16
    dist = offset_law({d: 1.0 / abs(d) for d in range(-n, n + 1) if d != 0})
    rng = np.random.default_rng(5)
    samples = 100_000
    hits = 0
    for _ in range(samples):
        if 4 in draw_offsets(dist, rng):
            hits += 1
    se = math.sqrt(0.25 * 0.75 / samples)
    assert abs(hits / samples - 0.25) < 3 * se


def test_offsets_match_per_call_dict_scan():
    # the law is sorted by offset, so each draw meets the offsets in ascending
    # order whatever order the map was given in
    def dict_scan(inclusion, rng):
        kept = sorted(inclusion.items())
        deltas = np.array([d for d, _ in kept], dtype=np.int64)
        keep = rng.random(len(kept)) < np.array([p for _, p in kept])
        return deltas[keep]

    n = 256
    maps = [{d: 1.0 / abs(d) for d in range(n, -n - 1, -1) if d != 0},
            {d: min(1.0, 4.0 / d ** 2) for d in range(-n, n + 1) if d}]
    for inclusion in maps:
        law = offset_law(inclusion)
        fast, slow = np.random.default_rng(14), np.random.default_rng(14)
        for _ in range(100):
            assert draw_offsets(law, fast).tolist() == dict_scan(inclusion, slow).tolist()


def test_sample_offsets_rows_are_consecutive_single_draws():
    law = power_law_inclusion(300, 4)
    batch = sample_offsets(law, np.random.default_rng(15), rows=7)
    rng = np.random.default_rng(15)
    assert batch.shape == (7, law.deltas.size)
    assert np.array_equal(batch, [sample_offsets(law, rng) for _ in range(7)])


def test_offsets_constructor_sorts_and_freezes():
    law = BernoulliOffsets([3, 1, -1, -3], [0.25, 1.0, 1.0, 0.5])
    assert law.deltas.tolist() == [-3, -1, 1, 3]
    assert law.probs.tolist() == [0.5, 1.0, 1.0, 0.25]
    with pytest.raises(ValueError):
        law.probs[0] = 1.0


@pytest.mark.parametrize("deltas, probs", [
    ([1, -1, 3], [1.0, 1.0, 1.4]),
    ([1, -1, 3], [1.0, 1.0, -0.1]),
    ([1, -1, 3], [1.0, 1.0, float("nan")]),
    ([1, -1], [0.5, 1.0]),
    ([1, 2], [1.0, 1.0]),
    ([-1, 1, 0], [1.0, 1.0, 0.5]),
    ([-1, 1, 2, 2], [1.0, 1.0, 0.5, 0.5]),
    ([-1, 1, 2], [1.0, 1.0]),
], ids=["p_above_one", "p_negative", "p_nan", "unit_below_one", "unit_missing", "zero",
        "duplicate", "length_mismatch"])
def test_offsets_constructor_rejects(deltas, probs):
    with pytest.raises(ValueError):
        BernoulliOffsets(deltas, probs)


def test_offsets_validation():
    offset_law({1: 1.0, -1: 1.0, 2: 0.5, -2: 0.5, 3: 0.5, -3: 0.5}).validate_two_sided()
    asym = offset_law({1: 1.0, -1: 1.0, 2: 0.5, -2: 0.1})
    with pytest.raises(ValueError):
        asym.validate_two_sided()
    # a missing -d counts as probability 0
    with pytest.raises(ValueError):
        offset_law({1: 1.0, -1: 1.0, 2: 0.5}).validate_two_sided()
    offset_law({1: 1.0, -1: 1.0, 2: 0.0}).validate_two_sided()
    bumpy = offset_law({1: 1.0, -1: 1.0, 2: 0.1, -2: 0.1, 3: 0.5, -3: 0.5})
    with pytest.raises(ValueError):
        bumpy.validate_two_sided()


@pytest.mark.parametrize("n", [2 ** 9, 2 ** 12, 2 ** 14])
@pytest.mark.parametrize("links", [1, 3, 14])
def test_power_law_inclusion_matches_closed_form(n, links):
    h = harmonic_numbers(n - 1)[-1]
    closed = {d: 1.0 - (1.0 - (1.0 / d) / (2.0 * h)) ** links for d in range(2, n)}
    closed[1] = 1.0
    law = power_law_inclusion(n, links)
    assert law.deltas.tolist() == [d for d in range(-(n - 1), n) if d]
    expected = np.array([closed[abs(d)] for d in law.deltas.tolist()])
    # numpy's ** and Python's float pow may differ in the last ulp of
    # (1 - q)**links, a number near 1, and 1 - that is exact
    assert np.abs(law.probs - expected).max() <= 4 * np.finfo(float).eps


def test_poisson_zero_probability():
    # join draws its incoming-request count from rng.poisson: Pr[k=0] = e^-rate
    rng = np.random.default_rng(2)
    rate, samples = 2.0, 200_000
    zeros = np.count_nonzero(rng.poisson(rate, size=samples) == 0)
    p0 = math.exp(-rate)
    se = math.sqrt(p0 * (1 - p0) / samples)
    assert abs(zeros / samples - p0) < 3 * se


def test_poisson_mean():
    rng = np.random.default_rng(3)
    vals = rng.poisson(1.0, size=1_000_000)
    assert abs(vals.mean() - 1.0) < 0.01


def test_harmonic_numbers_prefix():
    h = harmonic_numbers(10)
    assert h[0] == 0.0
    assert h[1] == 1.0
    assert h[10] == pytest.approx(sum(1.0 / i for i in range(1, 11)), abs=1e-12)


def test_ideal_length_distribution_normalized():
    for n in (2, 17, 256, 2 ** 12):
        law = ideal_length_distribution(n)
        assert law[0] == 0.0
        assert abs(law.sum() - 1.0) < 1e-9


def test_ideal_length_distribution_matches_direct_build():
    # frequency of drawn lengths tracks the closed-form law
    n, ell = 256, 8
    rng = np.random.default_rng(9)
    counts = np.zeros(n)
    for u in range(n):
        for _ in range(5):
            for v in sample_line_links([u], n, ell, rng)[0]:
                counts[abs(u - v)] += 1
    emp = counts / counts.sum()
    law = ideal_length_distribution(n)
    assert np.abs(emp - law).max() < 0.01
