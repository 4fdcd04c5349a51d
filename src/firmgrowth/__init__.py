"""Firm growth under scarce-resource competition, with distribution analytics."""

from .model import (
    Allocation,
    Economy,
    GrowthBatch,
    MarketProbabilities,
    ModelConfig,
    Rounding,
    Scenario,
    allocate_market,
    per_unit_offer_array,
    production,
    replace_extinct,
    required_workers,
    round_array,
)
from .baselines import (
    BaselineConfig,
    step_additive,
    step_marsili_sequential,
    step_scaled_beta,
)
from .analytics import (
    DeviationAccumulator,
    FitMethod,
    FitResult,
    GrowthAccumulator,
    Histogram,
    SizeBinStats,
    SizeSnapshot,
    ccdf,
    central_tent_slope,
    default_tail_range,
    fit_beta,
    fit_power_law_tail,
)
from .theory import (
    TheoryParams,
    job_count_pmf_oracle,
    theoretical_growth_curve,
    theoretical_growth_density,
)
from .rng import substream

__version__ = "0.1.0"
