"""Acceptance suite: the quantitative findings the simulator must reproduce.

Each test prints one line `criterion NN [PASS|FAIL] ...` with the measured
value and its tolerance band. Heavy runs are shared via module fixtures; the
whole module finishes in a couple of minutes on a laptop. Run with

    pytest tests/test_acceptance.py -v -s

The measurement of each stochastic criterion (1-6) is a function of the seed,
so that `scripts/criteria_spread.py` can rerun it on other seeds, and steps
its preset with `cli._simulator`, the simulator that `firmgrowth run` steps.
"""
import concurrent.futures
import math
import multiprocessing

import numpy as np
import pytest
from scipy import stats as sps

from firmgrowth import analytics, cli
from firmgrowth.analytics import DeviationAccumulator, GrowthAccumulator, SizeSnapshot
from firmgrowth.cli import RunSpec
from firmgrowth.model import (Allocation, Economy, GrowthBatch, ModelConfig, Scenario,
                              per_unit_offer_array, round_array)
from firmgrowth.rng import substream


# Band of each stochastic criterion's measured quantity (1-6), also read by
# `scripts/criteria_spread.py`. Bands are closed intervals, except criterion
# 5's, which are open.
BANDS = {
    "criterion_01_tail_alpha": (0.55, 0.85),
    "criterion_02_model_beta": (0.45, 0.55),
    "criterion_03_scaled_beta": (0.21, 0.31),
    "criterion_04_multiplicative_alpha": (0.9, 1.3),
    "criterion_05_excess_kurtosis": (-0.5, 0.5),
    "criterion_05_skewness": (-0.3, 0.3),
    "criterion_06_tent_slope": (-1.3, -0.7),
}


def report(num, name, ok, detail):
    print(f"\ncriterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def run_preset(preset, seed, *accumulators):
    """Step the CLI's simulator of one seed of a preset at its calibrated
    size, feeding every growth batch to the accumulators; returns the final
    size snapshot."""
    sim = cli._simulator(*cli.materialize(RunSpec(preset=preset, seeds=[seed]), seed))
    for _ in range(sim.config.iterations):
        batch = sim.step()
        for acc in accumulators:
            acc.update(batch)
    return SizeSnapshot.from_values(sim.size)


def demand_scarce_fit(seed):
    """OLS and MLE tail fits of one demand-scarce preset run over the
    default one-decade window."""
    snap = run_preset("ScenarioII", seed)
    return analytics.fit_power_law_tail(snap, analytics.default_tail_range(snap))


def workforce_scarce_measures(seed):
    """Criteria 2 and 6 from one workforce-scarce preset run with streamed
    growth statistics: the dispersion-scaling fit and the central tent slope
    as (slope, standard error, bins used)."""
    sized, deviations = GrowthAccumulator(min_size=10), DeviationAccumulator()
    run_preset("ScenarioI", seed, sized, deviations)
    return (analytics.fit_beta(sized.binned()),
            analytics.central_tent_slope(deviations.histogram()))


def scaled_noise_beta(seed):
    """Dispersion-scaling fit of one scaled-noise preset run (criterion 3)."""
    acc = GrowthAccumulator(min_size=10)
    run_preset("ScaledBeta", seed, acc)
    return analytics.fit_beta(acc.binned())


def multiplicative_tail(seed):
    """OLS tail fit of one multiplicative-noise preset run (criterion 4)."""
    snap = run_preset("Multiplicative", seed)
    return analytics.fit_power_law_tail(snap, analytics.default_tail_range(snap))[0]


def additive_moments(seed):
    """Excess kurtosis and skewness of one additive-noise preset run (criterion 5)."""
    sizes = run_preset("Additive", seed).sizes
    return float(sps.kurtosis(sizes)), float(sps.skew(sizes))


@pytest.fixture(scope="module")
def heavy_runs():
    """The module's two heavy measurements in one pool of two worker
    processes: the ScenarioI run of criteria 2 and 6, the longest job, goes
    first, then criterion 1's five ScenarioII seeds. The runs are independent,
    so the pool changes none of their numbers."""
    context = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        workforce = pool.submit(workforce_scarce_measures, 1)
        demand = [pool.submit(demand_scarce_fit, seed) for seed in (1, 2, 3, 4, 5)]
        return workforce.result(), [future.result() for future in demand]


@pytest.fixture(scope="module")
def demand_scarce_alphas(heavy_runs):
    """Tail exponents of 5 seeds of the demand-scarce preset."""
    return heavy_runs[1]


@pytest.fixture(scope="module")
def workforce_scarce_run(heavy_runs):
    """Criteria 2 and 6 share one full workforce-scarce preset run (seed 1)."""
    return heavy_runs[0]


def test_criterion_01_size_distribution_exponent(demand_scarce_alphas):
    alphas = [ols.exponent for ols, _ in demand_scarce_alphas]
    median = float(np.median(alphas))
    low, high = BANDS["criterion_01_tail_alpha"]
    report(1, "size-distribution exponent", low <= median <= high,
           f"median tail alpha {median:.3f} over 5 seeds "
           f"(each {np.round(alphas, 3).tolist()}), band [{low}, {high}]")


def test_criterion_02_beta_recovery_from_model(workforce_scarce_run):
    beta, _ = workforce_scarce_run
    low, high = BANDS["criterion_02_model_beta"]
    report(2, "dispersion scaling of the market model",
           low <= beta.exponent <= high,
           f"beta {beta.exponent:.3f} +/- {beta.std_error:.3f} from "
           f"{beta.n_points} decade bins, band [{low}, {high}]")


def test_criterion_03_scaled_noise_recovery():
    beta = scaled_noise_beta(seed=1)
    low, high = BANDS["criterion_03_scaled_beta"]
    report(3, "scaled-noise exponent recovery", low <= beta.exponent <= high,
           f"beta {beta.exponent:.3f} from a 0.25-scaling run, band [{low}, {high}]")


def test_criterion_04_multiplicative_baseline_tail():
    ols = multiplicative_tail(seed=1)
    low, high = BANDS["criterion_04_multiplicative_alpha"]
    report(4, "multiplicative-noise tail", low <= ols.exponent <= high,
           f"tail alpha {ols.exponent:.3f} at sigma 0.2, band [{low}, {high}]")


def test_criterion_05_additive_baseline_moments():
    kurt, skew = additive_moments(seed=1)
    k_low, k_high = BANDS["criterion_05_excess_kurtosis"]
    s_low, s_high = BANDS["criterion_05_skewness"]
    report(5, "additive-noise moments", k_low < kurt < k_high and s_low < skew < s_high,
           f"excess kurtosis {kurt:+.3f} (|.|<{k_high}), skewness {skew:+.3f} (|.|<{s_high})")


def test_criterion_06_tent_shape(workforce_scarce_run):
    _, (slope, se, used) = workforce_scarce_run
    low, high = BANDS["criterion_06_tent_slope"]
    report(6, "tent-shaped aggregate growth", low <= slope <= high,
           f"log-log slope {slope:.3f} +/- {se:.3f} over |g-1| in [0.02, 0.3] "
           f"({used} bins), band {(low + high) / 2:g} +/- {(high - low) / 2:g}")


def test_criterion_07_oracle_equivalence():
    from firmgrowth.theory import job_count_pmf_oracle

    reps = 1_000_000
    worst = 0.0
    for margin in (0.05, 0.1, 0.2):
        for size in (1, 3, 7):
            rng = substream(4242, size, int(margin * 100))
            offers = per_unit_offer_array(np.full(reps, size, dtype=np.int64),
                                          margin, rng)
            landed = rng.binomial(offers, 1.0 / (1.0 + margin))
            pmf = job_count_pmf_oracle(size, margin)
            freq = np.bincount(landed, minlength=pmf.size) / reps
            se = np.sqrt(pmf * (1 - pmf) / reps)
            z = np.abs(freq - pmf) / np.maximum(se, 1e-15)
            worst = max(worst, float(z.max()))
    report(7, "per-job oracle equivalence", worst < 4.0,
           f"worst |z| {worst:.2f} over sizes (1,3,7) x margins (0.05,0.1,0.2), "
           f"limit 4 standard errors")


def test_criterion_08_unbiased_rounding():
    reps = 1_000_000
    worst = 0.0
    for i, x in enumerate((0.3, 1.1, 2.5)):
        rng = substream(777, i)
        mean = float(round_array(np.full(reps, x), rng).mean())
        frac = x - math.floor(x)
        se = math.sqrt(frac * (1 - frac) / reps)
        worst = max(worst, abs(mean - x) / se)
    report(8, "unbiased probabilistic rounding", worst < 4.0,
           f"worst |z| {worst:.2f} at x in (0.3, 1.1, 2.5) over 1e6 draws, "
           f"limit 4 standard errors")


def test_criterion_09_worker_conservation():
    cfg = ModelConfig(n_firms=200, n_workers=8000, margin=0.1,
                      scenario=Scenario.FIRMS_CONSUME,
                      allocation=Allocation.EXACT_MATCHING, seed=2026,
                      iterations=1000)
    economy = Economy(cfg)
    violations = sum(
        1 for _ in range(cfg.iterations)
        if (economy.step() and economy.employed != cfg.n_workers)
    )
    report(9, "exact worker conservation", violations == 0,
           f"{violations} violations in 1000 iterations of exact matching")


def test_criterion_10_byte_identical_reruns(tmp_path):
    runs = {}
    for label in ("a", "b"):
        spec = RunSpec(preset="ScenarioII",
                       overrides=dict(n_firms=50, n_workers=2000, iterations=120),
                       output_dir=tmp_path / label, seeds=[9],
                       snapshot_times=[60, 120])
        assert cli.run(spec) == 0
        runs[label] = {
            p.relative_to(tmp_path / label).as_posix(): p.read_bytes()
            for p in sorted((tmp_path / label).rglob("*")) if p.is_file()
        }
    identical = runs["a"] == runs["b"]
    report(10, "deterministic outputs", identical,
           f"{len(runs['a'])} files byte-identical across two runs of one seed")


def test_criterion_11_binning_robustness():
    rng = np.random.default_rng(11)
    n = 10 ** rng.uniform(1, 5, 500_000)
    g = rng.normal(1.0, np.sqrt(0.1 / n))
    betas = []
    for bins_per_decade in (1.0, 2.0):
        acc = GrowthAccumulator(min_size=1, bins_per_decade=bins_per_decade)
        acc.update(GrowthBatch(n, n * g))
        betas.append(analytics.fit_beta(acc.binned()))
    decade, half = betas
    gap = abs(decade.exponent - half.exponent)
    report(11, "binning robustness", gap < 0.05,
           f"beta {decade.exponent:.4f} (decade bins) vs {half.exponent:.4f} "
           f"(half-decade bins), |gap| {gap:.4f} < 0.05")
