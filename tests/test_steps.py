"""Iteration-level behavior of both scarcity scenarios, and of every
simulator's step."""
import itertools
import math

import numpy as np
import pytest
from scipy import stats as sps

from firmgrowth import (
    Allocation,
    Economy,
    ModelConfig,
    Rounding,
    Scenario,
    cli,
    model,
    replace_extinct,
)
from firmgrowth.rng import substream

from exact_law import assert_follows_law, hypergeometric_law


def _one_step_samples(rounding, allocation, reps=6, n=1000, n_firms=10_000, mu=0.1):
    """Pooled size_after samples for firms of size exactly n after one step."""
    out = []
    for rep in range(reps):
        cfg = ModelConfig(n_firms=n_firms, n_workers=n * n_firms, margin=mu,
                          scenario=Scenario.FIRMS_CONSUME, rounding=rounding,
                          allocation=allocation, seed=1000 + rep, iterations=1)
        economy = Economy(cfg)
        out.append(economy.step().records()[1])
    return np.concatenate(out)


class TestScenarioI:
    def test_single_firm_retains_all_workers(self):
        # one claimant, supply below its offer: growth rate exactly 1
        cfg = ModelConfig(n_firms=1, n_workers=100, margin=0.1, seed=3, iterations=10)
        economy = Economy(cfg)
        for _ in range(10):
            batch = economy.step()
            assert [r.tolist() for r in batch.records()] == [[100.0], [100.0]]
        assert economy.size.tolist() == [100]

    def test_mean_preservation(self):
        after = _one_step_samples(Rounding.PROBABILISTIC, Allocation.INDEPENDENT_BINOMIAL)
        se = after.std(ddof=1) / math.sqrt(after.size)
        assert abs(after.mean() - 1000) < 4 * se

    def test_variance_law_probabilistic_binomial(self):
        # binomial allocation of offers n(1+mu) at fill 1/(1+mu):
        # Var = n(1+mu) * p(1-p) = n * mu/(1+mu)
        after = _one_step_samples(Rounding.PROBABILISTIC, Allocation.INDEPENDENT_BINOMIAL)
        expected = 1000 * 0.1 / 1.1
        assert abs(after.var(ddof=1) / expected - 1) < 0.05

    def test_variance_law_per_unit(self):
        # job-level doubling plus thinning: Var = 2 mu/(1+mu)^2 * n
        after = _one_step_samples(Rounding.PER_UNIT, Allocation.EXACT_MATCHING)
        expected = 2 * 0.1 / 1.1**2 * 1000
        assert abs(after.var(ddof=1) / expected - 1) < 0.05

    def test_firm_count_constant(self):
        cfg = ModelConfig(n_firms=50, n_workers=500, margin=0.2, seed=6, iterations=200)
        economy = Economy(cfg)
        for _ in range(200):
            economy.step()
            assert economy.size.size == 50
            assert (economy.size >= 1).all()  # extinct firms replaced in-step


def realized_margins(economy):
    """(sales - wage bill) / wage bill of the last iteration; 0 for empty firms."""
    cfg, size = economy.config, economy.size
    bill = np.maximum(size, 1) * cfg.wage
    return np.where(size > 0, (economy.sold * cfg.price - bill) / bill, 0.0)


@pytest.fixture(scope="module")
def demand_scarce_economy():
    cfg = ModelConfig(n_firms=2000, n_workers=90_000, margin=0.1,
                      scenario=Scenario.WORKERS_ONLY_CONSUME, seed=8, iterations=50)
    economy = Economy(cfg)
    for _ in range(50):
        sold_before = economy.sold.copy()
        batch = economy.step()
    return economy, (sold_before, batch)


class TestScenarioII:
    @pytest.fixture()
    def economy(self, demand_scarce_economy):
        return demand_scarce_economy

    def test_employment_conserved_exactly(self, economy):
        econ, _ = economy
        assert econ.size.sum() == econ.config.n_workers

    def test_average_sales_match_wage_bill(self, economy):
        econ, _ = economy
        alive = econ.size > 0
        ratio = econ.sold[alive] / econ.size[alive]
        se = ratio.std(ddof=1) / math.sqrt(ratio.size)
        assert abs(ratio.mean() - 1.0) < 4 * se

    def test_average_realized_margin_is_zero(self, economy):
        econ, _ = economy
        alive = econ.size > 0
        margins = realized_margins(econ)[alive]
        se = margins.std(ddof=1) / math.sqrt(margins.size)
        assert abs(margins.mean()) < 4 * se

    def test_sell_probability(self, economy):
        econ, _ = economy
        assert econ.market.sell_prob == pytest.approx(1 / 1.1, abs=0.005)
        assert econ.market.sell_prob == pytest.approx(
            econ.market.aggregate_demand / econ.market.aggregate_output)

    def test_sales_conservation_exact_matching(self, economy):
        econ, _ = economy
        # every unit of purchasing power buys exactly one good
        assert econ.sold.sum() == econ.size.sum()

    def test_sold_bounded_by_discretized_output(self, economy):
        econ, _ = economy
        assert (econ.sold <= econ.output + 1).all()
        assert (econ.sold <= np.ceil(econ.output)).all()

    def test_growth_records_start_from_last_sales(self, economy):
        _, (sold_before, batch) = economy
        assert np.array_equal(batch.size_before, sold_before[sold_before > 0])

    def test_replaced_firms_sales_end_at_zero(self):
        # below-cost prices let a firm that sold something die; its growth
        # record must end at 0 instead of continuing with the entrant's first sales
        cfg = ModelConfig(n_firms=300, n_workers=6000, margin=0.1, wage=1.0, price=0.5,
                          scenario=Scenario.WORKERS_ONLY_CONSUME, seed=5, iterations=400)
        economy = Economy(cfg)
        ended = joined = 0
        for _ in range(cfg.iterations):
            firms = np.flatnonzero(economy.sold > 0)  # order of the growth records
            _, sales_after = economy.step().records()
            replaced = np.isin(firms, economy.last_replaced)
            ended += int((replaced & (sales_after == 0)).sum())
            joined += int((replaced & (sales_after > 0)).sum())
        assert ended > 0
        assert joined == 0

    def test_realized_margin_capped_by_unit_granularity(self, economy):
        econ, _ = economy
        alive = econ.size > 0
        cap = econ.config.margin + 1.0 / econ.size[alive]
        assert (realized_margins(econ)[alive] <= cap + 1e-12).all()

    @pytest.mark.parametrize("wage,price", [(1.0, 1.0), (1.3, 0.9)])
    def test_job_offers_follow_last_sales(self, wage, price, monkeypatch):
        # Last output grown by the realized margin needs sold * p / w
        # workers: whole when p == w, so no offer stream is built then. A
        # binding job market also builds its blocks' (stream, block, t) keys.
        streams, offers = [], []
        substream, replace = model.substream, model.replace_extinct

        def recording_substream(seed, stream, *key):
            streams.append(stream)
            return substream(seed, stream, *key)

        def recording_replace(economy, rng):
            offers.append(economy.job_offer.copy())
            return replace(economy, rng)

        monkeypatch.setattr(model, "substream", recording_substream)
        monkeypatch.setattr(model, "replace_extinct", recording_replace)
        cfg = ModelConfig(n_firms=40, n_workers=2000, wage=wage, price=price,
                          scenario=Scenario.WORKERS_ONLY_CONSUME, seed=3, iterations=30)
        economy = Economy(cfg)
        for _ in range(30):
            workers = economy.sold * (price / wage)
            economy.step()
            assert (np.abs(offers[-1] - workers) < 1).all()
            if wage == price:
                assert np.array_equal(offers[-1], workers)
        assert (model.OFFER_STREAM in streams) is (wage != price)


class TestReplacement:
    def test_no_extinct_firms_is_noop(self):
        cfg = ModelConfig(n_firms=10, n_workers=1000, seed=9)
        economy = Economy(cfg)
        before = economy.size.copy()
        assert replace_extinct(economy, substream(9, 99)) == 0
        assert np.array_equal(economy.size, before)

    def test_entrant_sizes_average_one_and_a_half(self):
        cfg = ModelConfig(n_firms=20_000, n_workers=200_000, seed=10)
        economy = Economy(cfg)
        dead = np.arange(0, 20_000, 2)
        economy.size[dead] = 0
        count = replace_extinct(economy, substream(10, 99))
        assert count == dead.size
        entrants = economy.size[dead]
        assert set(np.unique(entrants)) <= {1, 2}
        se = 0.5 / math.sqrt(dead.size)
        assert abs(entrants.mean() - 1.5) < 4 * se

    def test_offer_conservation_in_demand_scarce_scenario(self):
        cfg = ModelConfig(n_firms=500, n_workers=25_000, margin=0.1,
                          scenario=Scenario.WORKERS_ONLY_CONSUME, seed=11)
        economy = Economy(cfg)
        economy.job_offer = economy.size.copy()
        economy.job_offer[:40] = 0
        total_before = economy.job_offer.sum()
        count = replace_extinct(economy, substream(11, 99))
        assert count == 40
        assert economy.job_offer.sum() == total_before
        assert (economy.job_offer[:40] >= 1).all()

    def test_offer_removal_clamps_in_degenerate_systems(self):
        cfg = ModelConfig(n_firms=3, n_workers=3, margin=0.1,
                          scenario=Scenario.WORKERS_ONLY_CONSUME, seed=12)
        economy = Economy(cfg)
        economy.job_offer = np.array([0, 0, 1], dtype=np.int64)
        count = replace_extinct(economy, substream(12, 99))
        assert count == 2
        assert (economy.job_offer >= 0).all()

    @pytest.mark.parametrize("offers", [[0, 3, 5, 2], [0, 0, 4, 1, 3]])
    def test_removed_offer_slots_follow_multivariate_hypergeometric(self, offers):
        # Every entrant has size 2, so k = 2 * (dead firms) slots are removed.
        # The removed counts must follow the exact pmf
        # prod_i C(n_i, r_i) / C(N, k) over the surviving offers n_i.
        cfg = ModelConfig(n_firms=len(offers), n_workers=10, margin=0.1,
                          scenario=Scenario.WORKERS_ONLY_CONSUME,
                          replacement_low=2.0, replacement_high=2.0, seed=17)
        economy = Economy(cfg)
        offers = np.array(offers, dtype=np.int64)
        alive = offers > 0

        def removed(rep):
            economy.job_offer = offers.copy()
            replace_extinct(economy, substream(17, 99, rep))
            return tuple((offers - economy.job_offer)[alive].tolist())

        assert_follows_law(map(removed, range(20_000)),
                           hypergeometric_law(offers[alive].tolist(), 2 * int((~alive).sum())))


class TestBlockMarket:
    """The two-block job market against its exact one-step law, with block 1
    drawn on the helper thread."""

    @staticmethod
    def outcomes(units, n_workers, allocation, per_unit, reps=10_000):
        """``reps`` draws of ``_hire`` on the posted ``units``: the hires, or
        with ``per_unit`` the doubled positions."""
        cfg = ModelConfig(n_firms=len(units), n_workers=n_workers, margin=0.3,
                          allocation=allocation, seed=21)
        economy = Economy(cfg)
        units = np.array(units, dtype=np.int64)
        for t in range(reps):
            model._hire(economy, units, t, per_unit)
            yield tuple((economy.size - units if per_unit else economy.size).tolist())

    @staticmethod
    def binomial_law(trials, p):
        """The pmf of independent Binomial(n_i, p) counts over ``trials``."""
        return {k: math.prod(sps.binom.pmf(x, n, p) for x, n in zip(k, trials))
                for k in itertools.product(*(range(n + 1) for n in trials))}

    @pytest.fixture(autouse=True)
    def helper_on(self, monkeypatch):
        monkeypatch.setattr(model, "_HELPER_MIN_FIRMS", 0)

    def test_exact_matching_is_one_urn(self):
        # blocks [2, 1] | [3, 2]: a hypergeometric split of the 5 workers,
        # then one urn per block, is the one urn of all 8 offers
        offers = [2, 1, 3, 2]
        assert_follows_law(self.outcomes(offers, 5, Allocation.EXACT_MATCHING, False),
                           hypergeometric_law(offers, 5))

    def test_independent_binomial_fills_each_offer(self):
        offers = [2, 1, 3, 2]
        assert_follows_law(self.outcomes(offers, 5, Allocation.INDEPENDENT_BINOMIAL, False),
                           self.binomial_law(offers, 5 / 8))

    def test_positions_double_independently(self):
        # 20 workers exceed every offer (at most 14), so no hire is drawn and
        # the hires are the doubled offers
        sizes = [1, 2, 1, 3]
        assert_follows_law(self.outcomes(sizes, 20, Allocation.EXACT_MATCHING, True),
                           self.binomial_law(sizes, 0.3))


class TestDeterminism:
    @pytest.mark.parametrize("scenario", [Scenario.FIRMS_CONSUME,
                                          Scenario.WORKERS_ONLY_CONSUME])
    def test_identical_seed_identical_trajectory(self, scenario):
        def run():
            cfg = ModelConfig(n_firms=80, n_workers=4000, margin=0.1,
                              scenario=scenario, seed=13, iterations=60)
            economy = Economy(cfg)
            trace = []
            for _ in range(60):
                batch = economy.step()
                trace.append((economy.size.copy(), economy.sold.copy(), *batch.records()))
            return trace

        for first, second in zip(run(), run()):
            for x, y in zip(first, second):
                assert np.array_equal(x, y)

    def test_allocation_mode_does_not_shift_replacement_draws(self):
        # ScenarioII offers last sales times p / w (here 1) as jobs. These
        # offers sum to less than n_workers, so the job market does not bind
        # and the same firms die under both modes. The goods market binds, so
        # the modes do diverge there.
        initial = np.tile([0, 6, 9, 0, 12], 8)
        economies = []
        for alloc in Allocation:
            cfg = ModelConfig(n_firms=initial.size, n_workers=600, margin=0.1,
                              scenario=Scenario.WORKERS_ONLY_CONSUME,
                              allocation=alloc, seed=14, iterations=1)
            economy = Economy(cfg)
            economy.sold = initial.astype(float)
            economy.step()
            economies.append(economy)
        a, b = economies
        assert np.array_equal(a.last_replaced, np.flatnonzero(initial == 0))
        assert np.array_equal(a.last_replaced, b.last_replaced)
        assert np.array_equal(a.job_offer[a.last_replaced], b.job_offer[b.last_replaced])
        assert not np.array_equal(a.sold, b.sold)


@pytest.mark.parametrize("preset,overrides", [
    *(pytest.param(scenario, dict(n_firms=6, margin=1.0, rounding=rounding,
                                  allocation=allocation,
                                  **({"price": 0.5} if scenario == "ScenarioII" else {})),
                   id=f"{scenario}-{rounding.value}-{allocation.value}")
      for scenario in ("ScenarioI", "ScenarioII")
      for rounding in Rounding for allocation in Allocation),
    pytest.param("Additive", dict(n_units=6, sigma=5.0), id="Additive"),
    pytest.param("Multiplicative", dict(n_units=6, sigma=1.0), id="Multiplicative"),
    pytest.param("MarsiliSequential", dict(n_units=6, move_fraction=1.0),
                 id="MarsiliSequential"),
])
def test_a_step_never_writes_into_arrays_it_handed_out(preset, overrides):
    # A caller may keep what a step hands out, size, output, sold and the
    # batch's records, without copying it, and the next step starts its own
    # records from the size or sales it handed out last; so a step must assign
    # new arrays rather than write into those. Six units of two workers each
    # die often, so replacement runs too.
    spec = cli.RunSpec(preset=preset, overrides=dict(overrides, n_workers=12, iterations=30))
    kind, cfg = cli.materialize(spec, 7)
    sim, died = cli._simulator(kind, cfg), 0
    held = copies = ()
    for _ in range(cfg.iterations):
        batch = sim.step()
        for array, copy in zip(held, copies):
            assert np.array_equal(array, copy)
        held = (sim.size, sim.output, sim.sold, *batch.records(1))
        copies = [array.copy() for array in held]
        died += int((batch.records()[1] == 0).sum())
    assert died > 0


class TestConfigValidation:
    def test_margin_must_be_positive(self):
        with pytest.raises(ValueError):
            ModelConfig(margin=-2.0)

    def test_workers_at_least_firms(self):
        with pytest.raises(ValueError):
            ModelConfig(n_firms=100, n_workers=50)

    def test_per_unit_needs_margin_below_one(self):
        with pytest.raises(ValueError):
            ModelConfig(margin=1.5, rounding=Rounding.PER_UNIT)

    def test_replacement_interval(self):
        with pytest.raises(ValueError):
            ModelConfig(replacement_low=0.5)
        with pytest.raises(ValueError):
            ModelConfig(replacement_low=2.0, replacement_high=1.0)
        with pytest.raises(ValueError, match="replacement_high"):
            ModelConfig(n_firms=50, n_workers=60, replacement_low=1e30, replacement_high=1e30)

    def test_claims_stay_exact_integers(self):
        with pytest.raises(ValueError, match="2\\*\\*53"):
            ModelConfig(margin=1e300)
        with pytest.raises(ValueError, match="2\\*\\*53"):
            ModelConfig(price=1e-300)
        with pytest.raises(ValueError, match="2\\*\\*53"):
            ModelConfig(n_workers=2**53)
        with pytest.raises(ValueError, match="10\\*\\*9"):
            ModelConfig(n_firms=2, n_workers=10**9)

    def test_output_follows_size_after_step(self):
        cfg = ModelConfig(n_firms=4, n_workers=100, seed=15)
        economy = Economy(cfg)
        economy.step()
        assert economy.output == pytest.approx(economy.size * 1.1)
        assert economy.time == 1
