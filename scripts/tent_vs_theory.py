#!/usr/bin/env python3
"""Overlay the simulated aggregate growth-rate density with the mixture theory.

Runs the workforce-scarce market at a chosen scale, bins the growth-rate
deviations |g - 1| logarithmically, and prints simulation and theory columns
side by side (theory: size-conditional Gaussians integrated over a power-law
size density with the run's fitted tail exponent). Plot-ready CSV on stdout.
"""
import argparse
import sys

import numpy as np

from firmgrowth import analytics, io, theory
from firmgrowth.analytics import DeviationAccumulator, SizeSnapshot
from firmgrowth.model import Economy, ModelConfig, Rounding, Scenario


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-firms", type=int, default=2000)
    parser.add_argument("--n-workers", type=int, default=200_000)
    parser.add_argument("--margin", type=float, default=0.2)
    parser.add_argument("--iterations", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    cfg = ModelConfig(n_firms=args.n_firms, n_workers=args.n_workers,
                      margin=args.margin, scenario=Scenario.FIRMS_CONSUME,
                      rounding=Rounding.PER_UNIT, seed=args.seed,
                      iterations=args.iterations)
    economy = Economy(cfg)
    deviations = DeviationAccumulator()
    for _ in range(cfg.iterations):
        deviations.update(economy.step())

    snap = SizeSnapshot.from_values(economy.time, economy.size)
    window = analytics.default_tail_range(snap.sizes)
    ols, _ = analytics.fit_power_law_tail(analytics.ccdf(snap), window,
                                          n_total=len(snap))
    hist = deviations.histogram()
    centers = np.sqrt(hist.bin_edges[:-1] * hist.bin_edges[1:])

    c = 2 * cfg.margin / (1 + cfg.margin) ** 2  # per-unit dispersion constant
    params = theory.TheoryParams(alpha=ols.exponent, beta=0.5, cutoff_n0=1.0, c=c)
    raw = np.array([theory.theoretical_growth_density(params, float(1 + d))
                    for d in centers])
    sim_mass = float(hist.densities @ hist.widths())
    raw *= sim_mass / np.trapezoid(raw, centers)

    print(f"# tail alpha {ols.exponent:.3f}, dispersion constant {c:.4f}",
          file=sys.stderr)
    print("deviation,simulated_density,theory_density")
    for d, s, t in zip(centers, hist.densities, raw):
        print(f"{io.fmt(d)},{io.fmt(s)},{io.fmt(t)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
