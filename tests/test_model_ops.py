"""Unit tests for the per-firm accounting operations and market primitives."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firmgrowth import (
    Allocation,
    allocate_market,
    per_unit_offer_array,
    production,
    required_workers,
    round_array,
)
from firmgrowth.model import _hypergeometric_method
from firmgrowth.rng import substream

from exact_law import assert_follows_law, hypergeometric_law


def freq_se(p, n):
    return math.sqrt(p * (1 - p) / n)


class TestAccounting:
    def test_required_workers(self):
        assert required_workers(1.1, 0.1, 1, 1) == pytest.approx(1.0)
        assert required_workers(0.0, 0.1, 1, 1) == 0.0
        assert required_workers(2.42, 0.1, 1, 1) == pytest.approx(2.2)

    def test_required_workers_domain(self):
        with pytest.raises(ValueError):
            required_workers(1.0, -1.0)
        with pytest.raises(ValueError):
            required_workers(-1.0, 0.1)

    def test_production(self):
        assert production(10, 0.1, 1, 1) == pytest.approx(11.0)
        assert production(0, 0.1, 1, 1) == 0.0
        assert production(1, 0.2, 2, 1) == pytest.approx(2.4)

    def test_production_inverts_required_workers(self):
        q = production(7, 0.15, 1.3, 0.9)
        assert required_workers(q, 0.15, 1.3, 0.9) == pytest.approx(7.0)

    def test_array_valued_with_vectorized_checks(self):
        size = np.array([10, 20])
        q = production(size, 0.1, 1.3, 0.9)
        assert q == pytest.approx([production(10, 0.1, 1.3, 0.9), production(20, 0.1, 1.3, 0.9)])
        assert required_workers(q, 0.1, 1.3, 0.9) == pytest.approx(size)
        with pytest.raises(ValueError):
            required_workers(np.array([1.0, -1.0]), 0.1)


class TestProbabilisticRound:
    def test_integer_input_is_fixed_point(self):
        assert (round_array(np.full(200, 3.0), substream(1, 0)) == 3).all()

    def test_split_at_fraction(self):
        rng = substream(2, 0)
        n = 100_000
        draws = round_array(np.full(n, 1.1), rng)
        assert set(np.unique(draws)) <= {1, 2}
        up = (draws == 2).mean()
        assert abs(up - 0.1) < 4 * freq_se(0.1, n)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            round_array([2.0, -0.1], substream(4, 0))

    @given(st.floats(min_value=0, max_value=1e6, allow_nan=False), st.integers(0, 2**32))
    @settings(max_examples=200)
    def test_result_is_adjacent_integer(self, x, seed):
        (got,) = round_array([x], substream(seed, 0))
        assert got in (math.floor(x), math.ceil(x))


class TestPerUnitOffer:
    def test_empty_firm(self):
        assert per_unit_offer_array([0], 0.1, substream(5, 0)).tolist() == [0]

    def test_single_position_doubling_rate(self):
        n = 100_000
        offers = per_unit_offer_array(np.ones(n), 0.1, substream(6, 0))
        assert set(np.unique(offers)) <= {1, 2}
        up = (offers == 2).mean()
        assert abs(up - 0.1) < 4 * freq_se(0.1, n)

    def test_size_four_is_shifted_binomial(self):
        from scipy.stats import binom

        n = 200_000
        offers = per_unit_offer_array(np.full(n, 4), 0.1, substream(7, 0))
        for k in range(5):
            expected = binom.pmf(k, 4, 0.1)
            observed = (offers == 4 + k).mean()
            assert abs(observed - expected) < 4 * freq_se(expected, n) + 1e-12

    @given(st.integers(0, 500), st.floats(0, 1), st.integers(0, 2**32))
    @settings(max_examples=200)
    def test_offer_bounds(self, size, margin, seed):
        (offer,) = per_unit_offer_array([size], margin, substream(seed, 0))
        assert size <= offer <= 2 * size

    def test_margin_domain(self):
        with pytest.raises(ValueError):
            per_unit_offer_array([3], 1.5, substream(8, 0))


class TestAllocateMarket:
    def test_single_claimant_gets_everything(self):
        got = allocate_market([5], 5, Allocation.EXACT_MATCHING, substream(9, 0))
        assert list(got) == [5]

    def test_single_claimant_capped_by_supply(self):
        got = allocate_market([110], 100, Allocation.EXACT_MATCHING, substream(9, 1))
        assert list(got) == [100]

    def test_surplus_supply_fills_all_demands(self):
        got = allocate_market([3, 0, 7], 100, Allocation.INDEPENDENT_BINOMIAL,
                              substream(10, 0))
        assert list(got) == [3, 0, 7]

    # Urns small enough to enumerate, two on each side of the sampler rule
    # (many small claims take "count", few large ones "marginals"), with the
    # supply below and above half of the claims; the first is two claims of
    # 2 slots with supply 2, whose C(4, 2) = 6 picks serve (2, 0), (1, 1) and
    # (0, 2) with probabilities 1/6, 4/6 and 1/6.
    @pytest.mark.parametrize("claims,supply,method", [
        ([2, 2], 2, "count"),
        ([2, 3, 1, 4, 2], 4, "count"),
        ([2, 3, 1, 4, 2], 7, "count"),
        ([25, 35, 30], 45, "marginals"),
        ([40, 50, 45], 90, "marginals"),
    ])
    def test_exact_matching_follows_multivariate_hypergeometric(self, claims, supply, method):
        # The served counts must follow prod_i C(d_i, k_i) / C(D, supply).
        total = sum(claims)
        k_min = min(supply, total - supply)
        assert _hypergeometric_method(total, k_min, len(claims)) == method
        rng = substream(23, len(claims), supply)
        assert_follows_law(
            (tuple(allocate_market(claims, supply, Allocation.EXACT_MATCHING, rng).tolist())
             for _ in range(20_000)),
            hypergeometric_law(claims, supply))

    def test_sampler_follows_urn_shape(self):
        # ScenarioII's goods urn: 2,000 firms, about 99k units, 9k unsold.
        assert _hypergeometric_method(99_000, 9_000, 2_000) == "count"
        # ScenarioI's job urn: 10k firms, about 1.2M offers for 1M workers.
        assert _hypergeometric_method(1_200_000, 200_000, 10_000) == "marginals"

    def test_average_fill_probability(self):
        # aggregate demand 11 per claimant against supply 10 each: fill 1/1.1
        rng = substream(12, 0)
        demands = np.full(200, 11)
        total = np.zeros(200)
        reps = 3000
        for _ in range(reps):
            total += allocate_market(demands, 2000, Allocation.EXACT_MATCHING, rng)
        fill = total.mean() / (11 * reps)
        se = math.sqrt((1 / 1.1) * (0.1 / 1.1) / (11 * reps * 200))
        assert abs(fill - 1 / 1.1) < 4 * se

    def test_binomial_mode_conserves_on_average_only(self):
        rng = substream(13, 0)
        demands = np.full(500, 10)
        totals = np.array([
            allocate_market(demands, 4000, Allocation.INDEPENDENT_BINOMIAL, rng).sum()
            for _ in range(400)
        ])
        assert totals.std() > 0  # not exactly conserved
        assert abs(totals.mean() - 4000) < 4 * totals.std() / 20

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=20),
           st.integers(0, 300), st.integers(0, 2**32))
    @settings(max_examples=200)
    def test_bounds_and_conservation(self, demands, supply, seed):
        rng = substream(seed, 0)
        got = allocate_market(demands, supply, Allocation.EXACT_MATCHING, rng)
        assert (got >= 0).all() and (got <= np.asarray(demands)).all()
        assert got.sum() == min(supply, sum(demands))

    def test_empty_demands_rejected(self):
        with pytest.raises(ValueError):
            allocate_market([], 5, Allocation.EXACT_MATCHING, substream(14, 0))
