"""Distribution estimators: CCDF, tail fits, growth histograms, dispersion scaling."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firmgrowth.analytics import (
    _EDGES,
    _G_BINS,
    DeviationAccumulator,
    FitMethod,
    GrowthAccumulator,
    SizeSnapshot,
    ccdf,
    central_tent_slope,
    default_tail_range,
    fit_beta,
    fit_power_law_tail,
    _growth_bin,
)
from firmgrowth.model import GrowthBatch


def fed(acc, before, after):
    """The accumulator after one update with the batch ``(before, after)``."""
    acc.update(GrowthBatch(before, after))
    return acc


def growth_histogram(before, after, min_size):
    return fed(GrowthAccumulator(min_size=min_size), before, after).histogram()


def bin_by_size(before, after):
    return fed(GrowthAccumulator(min_size=1), before, after).binned()


class TestCcdf:
    def test_single_size(self):
        pts = ccdf(SizeSnapshot.from_values([5]))
        assert pts.tolist() == [[5.0, 1.0]]

    def test_small_example(self):
        pts = ccdf(SizeSnapshot.from_values([4, 2, 1, 1]))
        assert pts.tolist() == [[1.0, 1.0], [2.0, 0.5], [4.0, 0.25]]

    def test_largest_size_probability(self):
        pts = ccdf(SizeSnapshot.from_values([9, 3, 3, 1]))
        assert pts[-1].tolist() == [9.0, 0.25]

    def test_empty_snapshot_rejected(self):
        with pytest.raises(ValueError):
            ccdf(SizeSnapshot.from_values([0, -1]))

    @given(st.lists(st.integers(1, 500), min_size=1, max_size=100))
    @settings(max_examples=200)
    def test_monotone_and_anchored(self, sizes):
        pts = ccdf(SizeSnapshot.from_values(sizes))
        probs = pts[:, 1]
        assert probs[0] == 1.0
        assert (np.diff(probs) < 0).all()
        assert probs[-1] == pytest.approx(sizes.count(max(sizes)) / len(sizes))


class TestTailFits:
    def test_mle_counts_firms_with_ties(self):
        # 2**(9 - j) firms at size 2**j for j = 0..9 and one at 1024: 1,024
        # firms with P(n >= 2**j) = 2**-j exactly.
        sizes = [2.0**j for j in range(10) for _ in range(2 ** (9 - j))] + [1024.0]
        ols, mle = fit_power_law_tail(SizeSnapshot.from_values(sizes), (1.0, 1024.0))
        assert ols.method is FitMethod.LOG_LOG_OLS
        assert ols.exponent == pytest.approx(1.0, abs=1e-12)
        assert ols.n_points == 11
        assert mle.method is FitMethod.DISCRETE_MLE
        assert mle.n_points == 1024
        # sum of j * 2**(9 - j) over j = 0..9 is 1013; the firm at 1024 adds 10
        assert mle.exponent == pytest.approx(1024 / (1023 * math.log(2)), rel=1e-12)
        assert mle.fit_range == (1.0, 1024.0)

    def test_pareto_mle_recovers_alpha(self):
        rng = np.random.default_rng(42)
        for alpha, tol in [(0.7, 0.01), (1.0, 0.015)]:
            samples = (1.0 + rng.pareto(alpha, 100_000))
            _, mle = fit_power_law_tail(SizeSnapshot.from_values(samples), (1.0, 10.0))
            assert abs(mle.exponent - alpha) < tol
            assert mle.std_error == pytest.approx(mle.exponent / math.sqrt(mle.n_points))

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="3 points"):
            fit_power_law_tail(SizeSnapshot.from_values([1.0, 2.0]), (0.5, 3.0))

    def test_default_window_sits_above_discreteness_floor(self):
        sizes = np.concatenate([np.full(500, 3.0), np.geomspace(10, 5000, 200)])
        low, high = default_tail_range(SizeSnapshot.from_values(sizes))
        assert low >= 10.0
        assert high == pytest.approx(10 * low)

    def test_default_window_follows_large_populations(self):
        # the window starts at numpy's 25th percentile bit for bit: n = 8,
        # 9, 10 and 11 give each fraction of the virtual index (n - 1) / 4
        rng = np.random.default_rng(29)
        inputs = [np.geomspace(300, 90_000, 500)]
        inputs += [rng.random(n) * 1e4 + 10.0 for n in (8, 9, 10, 11)]
        inputs += [rng.integers(11, 15, n).astype(float) for n in (8, 9, 10, 11, 40)]
        inputs += [2.0**53 - rng.integers(0, 64, n).astype(float) for n in (8, 9, 10, 11)]
        # the quartile between 12.9 and 21.3 (n = 8), 12.9 and 33.3 (n = 11)
        # and 11.7 and 47.9 (n = 10): numpy's lerp differs in the last bit
        # from a + (b - a)·γ at the first two and from b - (b - a)·(1 - γ) at
        # the third
        tail = [1e15, 1e15 + 0.125, 2.0**52, 60.0, 70.0]
        inputs += [np.array([10.5, 12.9, 21.3, *tail]),
                   np.array([10.5, 11.0, 12.9, 33.3, 40.0, 50.0, *tail]),
                   np.array([10.5, 11.0, 11.7, 47.9, 50.0, *tail])]
        for sizes in inputs:
            low, high = default_tail_range(SizeSnapshot.from_values(sizes))
            assert low == np.percentile(sizes, 25) > 10.0
            assert high == 10 * low


class TestGrowthHistogram:
    def test_single_record_concentrates(self):
        hist = growth_histogram([50.0], [50.0], min_size=10)
        idx = np.searchsorted(hist.bin_edges, 1.0) - 1
        width = hist.widths()[idx]
        assert hist.densities[idx] == pytest.approx(1.0 / width)
        assert hist.densities.sum() == pytest.approx(1.0 / width)

    def test_matches_gaussian_sampling_oracle(self):
        from scipy.stats import norm

        rng = np.random.default_rng(3)
        n, reps, sd = 400.0, 400_000, 0.08
        g = rng.normal(1.0, sd, reps)
        hist = growth_histogram(np.full(reps, n), g * n, min_size=10)
        edges = hist.bin_edges
        probs = norm.cdf(edges[1:], 1.0, sd) - norm.cdf(edges[:-1], 1.0, sd)
        for density, p, width in zip(hist.densities, probs, hist.widths()):
            se = math.sqrt(max(p * (1 - p), 1e-12) / reps)
            assert abs(density * width - p) < 5 * se + 1e-9

    def test_all_records_filtered_rejected(self):
        with pytest.raises(ValueError):
            growth_histogram([2.0], [3.0], min_size=10)

    def test_overflow_bin_captures_large_rates(self):
        hist = growth_histogram(np.full(10, 100.0), np.full(10, 350.0), min_size=1)
        assert hist.bin_edges[-1] >= 3.5
        assert hist.densities[-1] > 0

    @given(st.lists(st.tuples(st.floats(10, 1e4), st.floats(0, 3)),
                    min_size=1, max_size=300))
    @settings(max_examples=100)
    def test_density_normalized(self, pairs):
        before = np.array([p[0] for p in pairs])
        after = before * np.array([p[1] for p in pairs])
        hist = growth_histogram(before, after, min_size=1)
        assert float(hist.densities @ hist.widths()) == pytest.approx(1.0, abs=1e-9)
        assert np.isfinite(hist.log_densities()).all()


class TestSizeBinning:
    def test_uniform_size_bin_reports_sample_sigma(self):
        rng = np.random.default_rng(4)
        g = rng.normal(1.0, 0.07, 5000)
        binned = bin_by_size(np.full(5000, 300.0), 300.0 * g)
        assert len(binned) == 1
        assert binned[0].sigma_g == pytest.approx(g.std(ddof=1), rel=1e-12)
        assert binned[0].count == 5000
        assert binned[0].geo_mean_size == pytest.approx(300.0)

    def test_adjacent_decades_dispersion_ratio(self):
        rng = np.random.default_rng(5)
        c = 0.1
        before, after = [], []
        for n in (30.0, 300.0, 3000.0):
            g = rng.normal(1.0, math.sqrt(c / n), 100_000)
            before.append(np.full(100_000, n))
            after.append(n * g)
        binned = bin_by_size(np.concatenate(before), np.concatenate(after))
        sigmas = [b.sigma_g for b in binned]
        for a, b in zip(sigmas, sigmas[1:]):
            assert b / a == pytest.approx(10 ** -0.5, rel=0.1)

    def test_within_decade_mixture_is_peaked(self):
        from scipy.stats import kurtosis

        # sizes spread over one decade with a steep density: the pooled growth
        # sample mixes different widths and leaves the Gaussian family
        rng = np.random.default_rng(6)
        u = rng.uniform(0, 1, 300_000)
        n = (10.0 ** -0.7 + u * (100.0 ** -0.7 - 10.0 ** -0.7)) ** (1 / -0.7)
        g = rng.normal(1.0, np.sqrt(0.1 / n))
        binned = bin_by_size(n, n * g)
        assert len(binned) == 1
        pooled = kurtosis(g)
        assert pooled > 0.3

    def test_sparse_bins_dropped(self):
        before = np.concatenate([np.full(100, 50.0), np.full(5, 5000.0)])
        after = before * 1.01
        binned = bin_by_size(before, after + np.linspace(0, 1, 105))
        assert [b.count for b in binned] == [100]

    def test_no_qualifying_bin_rejected(self):
        assert bin_by_size(np.full(10, 50.0), np.full(10, 51.0)) == []


class TestFitBeta:
    @staticmethod
    def _exact_records(ns, spread):
        before, after = [], []
        for n in ns:
            s = spread(n)
            for sign in (-1.0, 1.0):
                before.append(np.full(20, float(n)))
                after.append(np.full(20, n * (1 + sign * s)))
        return np.concatenate(before), np.concatenate(after)

    def test_exact_half_power_law(self):
        records = self._exact_records([10, 100, 1000, 10_000], lambda n: n ** -0.5)
        beta = fit_beta(bin_by_size(*records))
        assert abs(beta.exponent - 0.5) < 1e-9
        assert beta.std_error < 1e-9

    def test_needs_three_bins(self):
        records = self._exact_records([10, 100], lambda n: n ** -0.5)
        with pytest.raises(ValueError):
            fit_beta(bin_by_size(*records))

    def test_zero_sigma_bin_left_out(self):
        # a fourth bin whose growth rates are all exactly 1 has no log(sigma)
        spread = self._exact_records([10, 100, 1000], lambda n: n ** -0.5)
        still = np.full(40, 10_000.0)
        binned = bin_by_size(np.concatenate((spread[0], still)),
                             np.concatenate((spread[1], still)))
        assert [b.sigma_g == 0 for b in binned] == [False, False, False, True]
        beta = fit_beta(binned)
        assert beta.n_points == 3
        assert abs(beta.exponent - 0.5) < 1e-9
        assert beta.fit_range[1] == binned[2].bin_high


class TestTentShape:
    def test_broad_mixture_gives_inverse_deviation_density(self):
        # sizes spread evenly in log over many decades approximate the
        # flat-exponent limit where the aggregate density is 1/|g-1|
        rng = np.random.default_rng(8)
        c = 2.0
        n = 10 ** rng.uniform(0, 8, 1_500_000)
        g = 1.0 + rng.standard_normal(n.size) * np.sqrt(c / n)
        hist = fed(DeviationAccumulator(), n, g * n).histogram()
        slope, _, used = central_tent_slope(hist)
        assert used >= 15
        assert slope == pytest.approx(-1.0, abs=0.2)

    def test_deviation_histogram_normalized_over_range(self):
        rng = np.random.default_rng(9)
        n = np.full(50_000, 40.0)
        g = rng.normal(1.0, 0.2, n.size)
        hist = fed(DeviationAccumulator(), n, g * n).histogram()
        assert float(hist.densities @ hist.widths()) == pytest.approx(1.0)

    def test_slope_window_needs_population(self):
        # every deviation, 0.4, falls in a bin centred above the slope window
        hist = fed(DeviationAccumulator(), np.full(100, 1000.0),
                   np.full(100, 1400.0)).histogram()
        with pytest.raises(ValueError):
            central_tent_slope(hist)


class TestAccumulatorStreaming:
    def test_chunked_updates_match_one_shot(self):
        rng = np.random.default_rng(10)
        before = 10 ** rng.uniform(0.5, 4, 30_000)
        after = before * rng.normal(1.0, 0.1, 30_000)
        after[after < 0] = 0.0

        whole = fed(GrowthAccumulator(min_size=10), before, after)
        chunked = GrowthAccumulator(min_size=10)
        for part in np.array_split(np.arange(30_000), 7):
            fed(chunked, before[part], after[part])

        h1, h2 = whole.histogram(), chunked.histogram()
        assert np.array_equal(h1.bin_edges, h2.bin_edges)
        assert np.array_equal(h1.densities, h2.densities)
        # every record lands in one size bin and one growth bin; no size bin
        # here is too sparse to report
        assert sum(b.count for b in whole.binned()) == h1.count
        assert len(whole.binned()) == len(chunked.binned())
        for a, b in zip(whole.binned(), chunked.binned()):
            # counts and edges agree exactly; moments only up to summation order
            assert (a.bin_low, a.bin_high, a.count) == (b.bin_low, b.bin_high, b.count)
            assert a.sigma_g == pytest.approx(b.sigma_g, rel=1e-9)
            assert a.geo_mean_size == pytest.approx(b.geo_mean_size, rel=1e-9)

    def test_min_size_drops_small_firms(self):
        h1 = growth_histogram([5.0, 20.0, 40.0], [9.0, 22.0, 36.0], min_size=10)
        h2 = growth_histogram([20.0, 40.0], [22.0, 36.0], min_size=10)
        assert h1.count == 2
        assert np.array_equal(h1.densities, h2.densities)

    @pytest.mark.parametrize("min_size", [0, 0.5, float("nan")])
    def test_min_size_below_one_rejected(self, min_size):
        with pytest.raises(ValueError, match="min_size"):
            GrowthAccumulator(min_size=min_size)

    @pytest.mark.parametrize("bins_per_decade", [0, -1, float("nan"), float("inf")])
    def test_bins_per_decade_must_be_positive_and_finite(self, bins_per_decade):
        with pytest.raises(ValueError, match="bins_per_decade"):
            GrowthAccumulator(min_size=1, bins_per_decade=bins_per_decade)

    def test_bin_index_matches_np_histogram(self):
        # rates on the bin edges: every bin is closed on the left, the last
        # one on both sides, and rates above 2 go to the overflow bin
        edges = np.linspace(0.0, 2.0, 102)
        g = np.array([0.0, edges[1], np.nextafter(edges[37], 0.0), edges[37],
                      edges[50], edges[100], np.nextafter(2.0, 0.0), 2.0,
                      np.nextafter(2.0, 3.0), 2.5])
        acc = fed(GrowthAccumulator(min_size=1), np.ones(3 * g.size), np.tile(g, 3))
        hist = acc.histogram()
        counts = np.rint(hist.densities * hist.widths() * hist.count)
        assert np.array_equal(hist.bin_edges[:102], edges)
        assert np.array_equal(counts[:101], np.histogram(np.tile(g, 3), edges)[0])
        assert acc.overflow == counts[101] == 6
        assert [b.count for b in acc.binned()] == [3 * g.size]

    # Every edge with both float neighbours (the lower one only above 0,
    # rates are never negative), on top of the drawn rates.
    EDGE_RATES = np.concatenate([_EDGES, np.nextafter(_EDGES[1:], -np.inf),
                                 np.nextafter(_EDGES, np.inf)])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(0.0, 2.0), st.floats(2.0, 1e300),
                              st.sampled_from(EDGE_RATES.tolist())), max_size=60))
    def test_bin_index_matches_searchsorted(self, rates):
        g = np.concatenate([self.EDGE_RATES, [np.inf, np.nan], rates])
        expected = np.minimum(np.searchsorted(_EDGES, g, side="right") - 1, _G_BINS - 1)
        assert np.array_equal(_growth_bin(g), expected)

    def test_growth_batch_drops_empty_firms(self):
        before, after = GrowthBatch([10.0, 0.0, 5.0], [11.0, 3.0, 0.0]).records()
        assert (after / before).tolist() == [1.1, 0.0]
        with pytest.raises(ValueError):
            GrowthBatch([1.0, 2.0], [1.0])

    def test_growth_batch_ends_dead_units_at_zero(self):
        after = np.array([11.0, 3.0, 6.0])
        _, ends = GrowthBatch([10.0, 2.0, 5.0], after, ended=[1]).records()
        assert ends.tolist() == [11.0, 0.0, 6.0]
        assert after.tolist() == [11.0, 3.0, 6.0]  # the caller's array is kept
