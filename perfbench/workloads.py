"""Workload definitions of the firmgrowth benchmark.

Plain data only, so that the set-up probe can import this module without
adding to the interpreter set-up it measures. Populations are the calibrated
preset populations; run lengths are chosen so that one run takes two to four
seconds on a 2-core box and a 35-second measurement holds about ten runs.
"""
from __future__ import annotations

from pathlib import Path

# name -> preset, iterations, snapshot interval (None: final snapshot only),
# and the tiny overrides the self-tests use.
WORKLOADS = {
    # Overhead-bound: goods-market draw, replace_extinct, substream,
    # GrowthAccumulator.update and write_snapshot share the run.
    "scenario_ii": dict(
        preset="ScenarioII", iterations=2000, snapshot_every=20,
        tiny=dict(n_firms=50, n_workers=2000, iterations=40),
    ),
    # Sampler-bound control: binomial offers and the hypergeometric job market.
    "scenario_i": dict(
        preset="ScenarioI", iterations=600, snapshot_every=None,
        tiny=dict(n_firms=50, n_workers=5000, iterations=20),
    ),
    # Control for model-layer changes: the Python per-move loop in baselines.
    "marsili": dict(
        preset="MarsiliSequential", iterations=60, snapshot_every=None,
        tiny=dict(n_units=20, n_workers=500, iterations=3),
    ),
}


def make_spec(name: str, seed: int, output_dir: Path, tiny: bool = False):
    """The ``cli.RunSpec`` of one workload: one seed, one worker."""
    from firmgrowth.cli import RunSpec

    w = WORKLOADS[name]
    overrides = dict(w["tiny"]) if tiny else {"iterations": w["iterations"]}
    iterations = overrides["iterations"]
    every = w["snapshot_every"]
    if every is not None and tiny:
        every = max(1, iterations // 4)
    times = None if every is None else list(range(every, iterations + 1, every))
    return RunSpec(preset=w["preset"], overrides=overrides, output_dir=Path(output_dir),
                   snapshot_times=times, seeds=[seed], workers=1)
