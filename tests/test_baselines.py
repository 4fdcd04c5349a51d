"""Reference noise processes: additive, multiplicative, scaled, sequential."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from firmgrowth import (
    BaselineConfig,
    GrowthBatch,
    Metric,
    analytics,
    step_additive,
    step_marsili_sequential,
    step_scaled_beta,
)
from firmgrowth.baselines import _BLOCK, _replacement_draw
from firmgrowth.rng import substream


def _cumsum_marsili(city_sizes, n_moves, rng, replacement_mean=1.5):
    """The per-move cumsum loop ``step_marsili_sequential`` replaced: one scalar
    draw per pick, kept as the reference for draws and final sizes."""
    sizes = np.asarray(city_sizes, dtype=np.int64).copy()
    total = int(sizes.sum())
    for _ in range(n_moves):
        origin = int(np.searchsorted(np.cumsum(sizes), rng.integers(total), side="right"))
        sizes[origin] -= 1
        dest = int(np.searchsorted(np.cumsum(sizes), rng.integers(total - 1), side="right"))
        sizes[dest] += 1
        if sizes[origin] == 0:
            entrant = int(_replacement_draw(1, replacement_mean, rng)[0])
            entrant = min(entrant, total - 1)
            for _ in range(entrant):
                donor = int(np.searchsorted(np.cumsum(sizes), rng.integers(total), side="right"))
                sizes[donor] -= 1
                sizes[origin] += 1
    return sizes


class TestAdditive:
    def test_zero_noise_is_identity(self):
        sizes = np.array([10.0, 20.0, 30.0])
        out = step_additive(sizes, 1e-300, substream(1, 0))
        assert np.allclose(out, sizes)

    def test_total_size_conserved(self):
        rng = substream(2, 0)
        sizes = np.full(500, 100.0)
        for _ in range(50):
            sizes = step_additive(sizes, 5.0, rng)
            assert sizes.sum() == pytest.approx(50_000.0, rel=1e-12)
            assert (sizes > 0).all()

    def test_moments_stay_gaussian(self):
        from scipy.stats import kurtosis, skew

        cfg = BaselineConfig(n_units=1000, n_workers=100_000, sigma=1.0,
                             seed=3, iterations=1000)
        sizes = cfg.initial_sizes(integer=False)
        for t in range(cfg.iterations):
            sizes = step_additive(sizes, cfg.sigma, substream(cfg.seed, 0, t))
        assert abs(kurtosis(sizes)) < 0.5
        assert abs(skew(sizes)) < 0.3


class TestMultiplicative:
    """``step_scaled_beta`` at beta 0: g ~ Normal(1, sigma^2)."""

    def test_vanishing_noise_changes_nothing(self):
        sizes = np.array([10, 20, 50], dtype=np.int64)
        out = step_scaled_beta(sizes, 1e-24, 0.0, substream(4, 0))
        assert np.abs(out - sizes).max() <= 1

    def test_growth_factor_mean_is_one(self):
        rng = substream(5, 0)
        sizes = np.full(50_000, 100, dtype=np.int64)
        out = step_scaled_beta(sizes, 0.2**2, 0.0, rng)
        g = out / sizes
        se = g.std(ddof=1) / math.sqrt(g.size)
        assert abs(g.mean() - 1.0) < 4 * se

    def test_extinct_units_replaced(self):
        rng = substream(6, 0)
        sizes = np.ones(20_000, dtype=np.int64)
        out = step_scaled_beta(sizes, 0.9**2, 0.0, rng)
        assert (out >= 1).all()


class TestScaledBeta:
    def test_dispersion_regression_recovers_half(self):
        # exact law sigma(n) = sqrt(c/n); binned regression should read 0.5
        rng = substream(8, 0)
        c = 0.0826
        sizes = np.unique(np.geomspace(10, 20_000, 4000).astype(np.int64))
        before_all, after_all = [], []
        for _ in range(40):
            after = step_scaled_beta(sizes, c, 0.5, rng)
            before_all.append(sizes.astype(float))
            after_all.append(after.astype(float))
        acc = analytics.GrowthAccumulator(min_size=0)
        acc.update(GrowthBatch(Metric.EMPLOYEES, np.concatenate(before_all),
                               np.concatenate(after_all)))
        beta = analytics.fit_beta(acc.binned())
        assert abs(beta.exponent - 0.5) < 0.05

    def test_per_bin_variance_times_size_constant(self):
        # above the discretization scale (where the rounding's own variance is
        # negligible against c*n), Var[g] * n stays flat across decades
        rng = substream(9, 0)
        c = 0.1
        out = {}
        for n in (100, 1000, 10_000, 100_000):
            sizes = np.full(40_000, n, dtype=np.int64)
            g = step_scaled_beta(sizes, c, 0.5, rng) / n
            out[n] = g.var(ddof=1) * n
        values = np.array(list(out.values()))
        assert values.max() / values.min() < 1.1

    def test_parameter_domains(self):
        rng = substream(10, 0)
        with pytest.raises(ValueError):
            step_scaled_beta([10], -1.0, 0.2, rng)
        with pytest.raises(ValueError):
            step_scaled_beta([10], 0.1, 0.7, rng)
        with pytest.raises(ValueError):
            step_scaled_beta([0], 0.1, 0.2, rng)


class TestMarsiliSequential:
    def test_zero_moves_is_identity(self):
        sizes, batch = step_marsili_sequential([5, 5, 5], 0, substream(11, 0))
        assert sizes.tolist() == [5, 5, 5]
        assert np.array_equal(batch.size_before, batch.size_after)

    @given(st.lists(st.integers(1, 30), min_size=2, max_size=12),
           st.integers(0, 40), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_population_conserved(self, sizes, moves, seed):
        total = sum(sizes)
        out, _ = step_marsili_sequential(sizes, min(moves, total), substream(seed, 0))
        assert out.sum() == total

    def test_zero_size_city_never_receives_by_choice(self):
        rng = substream(12, 0)
        sizes = np.array([0, 50, 50], dtype=np.int64)
        for _ in range(30):
            sizes, _ = step_marsili_sequential(sizes, 10, rng)
            assert sizes[0] == 0  # no workers, weight zero, never a destination

    def test_emptied_city_is_refilled(self):
        rng = substream(13, 0)
        sizes = np.array([1, 200], dtype=np.int64)
        seen_refill = False
        for _ in range(50):
            sizes, _ = step_marsili_sequential(sizes, 5, rng)
            assert sizes.sum() == 201
            assert (sizes >= 1).all()
            seen_refill = seen_refill or sizes[0] != 1
        assert seen_refill

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=40),
           st.integers(0, 2), st.integers(0, _BLOCK),
           st.integers(0, 2**32), st.sampled_from([1.5, 3.0]))
    @settings(max_examples=60, deadline=None)
    # The calibrated 500 cities (padded to 512), an exact power of two, and one
    # past it (padded to 1,024); cities of size 1 make these runs refill.
    @example(small=[i % 7 for i in range(499)], blocks=1, extra=100, seed=5,
             replacement_mean=1.5)
    @example(small=[i % 7 for i in range(511)], blocks=1, extra=100, seed=6,
             replacement_mean=3.0)
    @example(small=[i % 7 for i in range(512)], blocks=1, extra=100, seed=7,
             replacement_mean=1.5)
    def test_matches_cumsum_loop(self, small, blocks, extra, seed, replacement_mean):
        # Small cities (zeros included) empty often and force refills; one
        # large city lets a step run past two blocks. Equal sizes and an equal
        # generator state show the block draws and the rewind consume exactly
        # the scalar stream.
        moves = blocks * _BLOCK + extra
        sizes = [*small, moves + 2]
        ref_rng, rng = substream(seed, 0), substream(seed, 0)
        expected = _cumsum_marsili(sizes, moves, ref_rng, replacement_mean)
        out, _ = step_marsili_sequential(sizes, moves, rng, replacement_mean)
        assert np.array_equal(out, expected)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_too_many_moves_rejected(self):
        with pytest.raises(ValueError):
            step_marsili_sequential([2, 2], 5, substream(14, 0))

    def test_growth_records_compare_batch_endpoints(self):
        before = np.array([30, 30, 40], dtype=np.int64)
        sizes, batch = step_marsili_sequential(before, 20, substream(15, 0))
        assert np.array_equal(batch.size_before, before.astype(float))
        assert np.array_equal(batch.size_after, sizes.astype(float))


class TestBaselineConfig:
    def test_initial_sizes_split_evenly(self):
        cfg = BaselineConfig(n_units=3, n_workers=10)
        assert cfg.initial_sizes().tolist() == [4, 3, 3]
        assert cfg.initial_sizes(integer=False).sum() == pytest.approx(10.0)

    def test_domains(self):
        with pytest.raises(ValueError):
            BaselineConfig(sigma=0.0)
        with pytest.raises(ValueError):
            BaselineConfig(beta=1.5)
        with pytest.raises(ValueError):
            BaselineConfig(beta=0.7)  # step_scaled_beta takes beta in [0, 0.5] only
        with pytest.raises(ValueError):
            BaselineConfig(n_units=10, n_workers=5)
        with pytest.raises(ValueError):
            BaselineConfig(n_units=50, n_workers=60, replacement_mean=1e30)
