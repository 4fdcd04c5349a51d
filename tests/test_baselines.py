"""Reference noise processes: additive, multiplicative, scaled, sequential."""
import math
import signal
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firmgrowth import (
    BaselineConfig,
    GrowthBatch,
    analytics,
    cli,
    step_additive,
    step_marsili_sequential,
    step_scaled_beta,
)
from firmgrowth.rng import substream

from exact_law import assert_follows_law


def _marsili_law(city_sizes, n_moves, entrant_pmf):
    """Exact pmf of the sizes after ``step_marsili_sequential``, by dynamic
    programming over size tuples. A move takes a worker from a city picked in
    proportion to size and places it in a city picked in proportion to the
    sizes after the removal. If that empties the origin, an entrant count is
    drawn from ``entrant_pmf``, capped at the spare workers ``total -
    occupied + 1`` (``occupied`` counts the cities that held a worker when
    the step began), and each entrant is a donor worker picked uniformly from
    the other cities that hold at least two workers, and moved to the
    origin."""
    total = sum(city_sizes)
    spare = total - sum(1 for s in city_sizes if s) + 1

    def donate(law, origin):
        out = defaultdict(float)
        for s, p in law.items():
            donors = {k: sk for k, sk in enumerate(s) if k != origin and sk > 1}
            for k, sk in donors.items():
                c = list(s)
                c[k] -= 1
                c[origin] += 1
                out[tuple(c)] += p * sk / sum(donors.values())
        return out

    law = {tuple(city_sizes): 1.0}
    for _ in range(n_moves):
        after = defaultdict(float)
        for s, p in law.items():
            for origin, so in enumerate(s):
                for dest in range(len(s)):
                    c = list(s)
                    c[origin] -= 1
                    weight = so * c[dest]
                    if not weight:
                        continue
                    c[dest] += 1
                    q = p * weight / (total * (total - 1))
                    if c[origin]:
                        after[tuple(c)] += q
                        continue
                    for entrant, pe in entrant_pmf.items():
                        refill = {tuple(c): q * pe}
                        for _ in range(min(entrant, spare)):
                            refill = donate(refill, origin)
                        for r, pr in refill.items():
                            after[r] += pr
        law = after
    return law


@contextmanager
def _time_bound(seconds):
    """Raise ``TimeoutError`` in the body once ``seconds`` of wall time pass."""
    def expire(signum, frame):
        raise TimeoutError(f"ran past {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestAdditive:
    def test_zero_noise_is_identity(self):
        sizes = np.array([10.0, 20.0, 30.0])
        out, ended = step_additive(sizes, 1e-300, substream(1, 0))
        assert np.allclose(out, sizes)
        assert ended.size == 0

    def test_total_size_conserved(self):
        rng = substream(2, 0)
        sizes = np.full(500, 100.0)
        for _ in range(50):
            sizes, _ = step_additive(sizes, 5.0, rng)
            assert sizes.sum() == pytest.approx(50_000.0, rel=1e-12)
            assert (sizes > 0).all()

    def test_reports_the_restarted_units(self):
        sizes = np.full(200, 2.0)
        out, ended = step_additive(sizes, 2.0, substream(12, 0))
        pushed = sizes + substream(12, 0).normal(0.0, 2.0, sizes.size)  # the step's draws
        assert ended.size and np.array_equal(ended, np.flatnonzero(pushed <= 0))

    def test_moments_stay_gaussian(self):
        from scipy.stats import kurtosis, skew

        cfg = BaselineConfig(n_units=1000, n_workers=100_000, sigma=1.0,
                             seed=3, iterations=1000)
        sizes = cfg.initial_sizes(integer=False)
        for t in range(cfg.iterations):
            sizes, _ = step_additive(sizes, cfg.sigma, substream(cfg.seed, 0, t))
        assert abs(kurtosis(sizes)) < 0.5
        assert abs(skew(sizes)) < 0.3


class TestMultiplicative:
    """``step_scaled_beta`` at beta 0: g ~ Normal(1, sigma^2)."""

    def test_vanishing_noise_changes_nothing(self):
        sizes = np.array([10, 20, 50], dtype=np.int64)
        out, _ = step_scaled_beta(sizes, 1e-24, 0.0, substream(4, 0))
        assert np.abs(out - sizes).max() <= 1

    def test_growth_factor_mean_is_one(self):
        rng = substream(5, 0)
        sizes = np.full(50_000, 100, dtype=np.int64)
        out, _ = step_scaled_beta(sizes, 0.2**2, 0.0, rng)
        g = out / sizes
        se = g.std(ddof=1) / math.sqrt(g.size)
        assert abs(g.mean() - 1.0) < 4 * se

    def test_growth_past_int64_raises(self):
        # g ~ Normal(1, 10**2): some of 64 units more than quadruple
        sizes = np.full(64, 2**61, dtype=np.int64)
        with pytest.raises(OverflowError, match="2\\*\\*63"):
            step_scaled_beta(sizes, 100.0, 0.0, substream(7, 0))

    def test_extinct_units_replaced(self):
        rng = substream(6, 0)
        sizes = np.ones(20_000, dtype=np.int64)
        out, ended = step_scaled_beta(sizes, 0.9**2, 0.0, rng)
        assert (out >= 1).all()
        # the reported units are those that rounded to 0, replayed from the step's draws
        replay = substream(6, 0)
        grown = np.maximum(1.0 + 0.9 * replay.standard_normal(sizes.size), 0.0)
        rounded = np.floor(grown) + (replay.random(sizes.size) < grown - np.floor(grown))
        assert ended.size and np.array_equal(ended, np.flatnonzero(rounded == 0))


class TestScaledBeta:
    def test_dispersion_regression_recovers_half(self):
        # exact law sigma(n) = sqrt(c/n); binned regression should read 0.5
        rng = substream(8, 0)
        c = 0.0826
        sizes = np.unique(np.geomspace(10, 20_000, 4000).astype(np.int64))
        before_all, after_all = [], []
        for _ in range(40):
            after, _ = step_scaled_beta(sizes, c, 0.5, rng)
            before_all.append(sizes.astype(float))
            after_all.append(after.astype(float))
        acc = analytics.GrowthAccumulator(min_size=1)
        acc.update(GrowthBatch(np.concatenate(before_all), np.concatenate(after_all)))
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
            g = step_scaled_beta(sizes, c, 0.5, rng)[0] / n
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
        sizes, refilled = step_marsili_sequential([5, 5, 5], 0, substream(11, 0))
        assert sizes.tolist() == [5, 5, 5]
        assert refilled.size == 0

    @given(st.lists(st.integers(1, 30), min_size=2, max_size=12),
           st.integers(0, 40), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_population_conserved(self, sizes, moves, seed):
        total = sum(sizes)
        out, _ = step_marsili_sequential(sizes, min(moves, total), substream(seed, 0))
        assert out.sum() == total

    @given(st.lists(st.integers(1, 3), min_size=2, max_size=12),
           st.sampled_from([0.5, 1.0]), st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_no_step_empties_a_city(self, city_sizes, move_fraction, seed):
        # Tiny cities empty at almost every move. With one worker per city the
        # only spare worker at a refill is the one that just moved. Each example
        # runs under a time bound, so a refill that never ends fails here.
        sizes, total = np.array(city_sizes), sum(city_sizes)
        moves = max(1, round(move_fraction * total))
        with _time_bound(10.0):
            for t in range(20):
                sizes, refilled = step_marsili_sequential(sizes, moves, substream(seed, 0, t))
                assert sizes.sum() == total
                assert (sizes >= 1).all()
                assert np.array_equal(refilled, np.unique(refilled))

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
            sizes, refilled = step_marsili_sequential(sizes, 20, rng)
            assert sizes.sum() == 201
            assert (sizes >= 1).all()
            assert set(refilled.tolist()) <= {0}  # only the small city can empty
            seen_refill = seen_refill or refilled.size > 0
        assert seen_refill

    @pytest.mark.parametrize("city_sizes,moves", [([1, 2, 3], 3), ([1, 1, 4, 0], 4)])
    @pytest.mark.parametrize("replacement_mean,entrant_pmf", [
        (1.5, {1: 0.5, 2: 0.5}),  # uniform on [1, 2], probabilistically rounded
        (3.0, {2: 0.125, 3: 0.75, 4: 0.125}),  # uniform on [2.5, 3.5]
    ])
    def test_final_sizes_follow_exact_law(self, city_sizes, moves, replacement_mean,
                                          entrant_pmf):
        # Tiny cities empty often, so refills and donor draws carry much of the
        # law.
        assert_follows_law(
            (tuple(step_marsili_sequential(city_sizes, moves, substream(19, 0, rep),
                                           replacement_mean)[0].tolist())
             for rep in range(20_000)),
            _marsili_law(city_sizes, moves, entrant_pmf))

    def test_too_many_moves_rejected(self):
        with pytest.raises(ValueError):
            step_marsili_sequential([2, 2], 5, substream(14, 0))

    def test_growth_records_compare_batch_endpoints(self):
        # The run's simulator records each step's sizes before and after the
        # whole batch of moves, and steps with the seed's stream of iteration t.
        cfg = BaselineConfig(n_units=3, n_workers=100, move_fraction=0.2, seed=15,
                             iterations=3)
        sim = cli._simulator("marsili", cfg)
        before = cfg.initial_sizes()
        for t in range(cfg.iterations):
            assert sim.time == t
            records = sim.step().records()
            expected, _ = step_marsili_sequential(before, 20, substream(15, 0, t),
                                                  cfg.replacement_mean)
            assert np.array_equal(sim.size, expected)
            assert np.array_equal(records[0], before.astype(float))
            assert np.array_equal(records[1], expected.astype(float))
            before = expected


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
