#!/usr/bin/env python3
"""Run every preset and collect the headline statistics in one table.

By default the presets run at a reduced desk scale so the whole sweep takes
well under a minute; pass --full for the calibrated preset sizes (a few
minutes). Outputs land under --out (default: out/presets).
"""
import argparse
import sys
import time
from pathlib import Path

from firmgrowth import cli

REDUCED = {
    "ScenarioI": dict(n_firms=2000, n_workers=200_000, iterations=800),
    "ScenarioII": dict(n_firms=500, n_workers=22_500, iterations=1500),
    "Additive": dict(n_units=500, n_workers=50_000, iterations=800),
    "Multiplicative": dict(n_units=2000, n_workers=100_000, iterations=1500),
    "ScaledBeta": dict(n_units=2000, n_workers=200_000, iterations=1000),
    "MarsiliSequential": dict(n_units=200, n_workers=20_000, iterations=100),
}


def summarize(seed_dir: Path) -> str:
    parts = []
    fit = seed_dir / "fit.csv"
    if fit.exists():
        method, exponent = fit.read_text().splitlines()[1].split(",")[:2]
        parts.append(f"alpha[{method}]={float(exponent):.3f}")
    beta = seed_dir / "beta_fit.csv"
    if beta.exists():
        parts.append(f"beta={float(beta.read_text().splitlines()[1].split(',')[1]):.3f}")
    return "  ".join(parts) if parts else "(no fits)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("out/presets"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--full", action="store_true",
                        help="run the calibrated preset sizes instead of the reduced ones")
    args = parser.parse_args()

    for preset in cli.PRESETS:
        if preset == "Custom":
            continue
        overrides = {} if args.full else dict(REDUCED[preset])
        spec = cli.RunSpec(preset=preset, overrides=overrides,
                           output_dir=args.out / preset, seeds=[args.seed])
        start = time.perf_counter()
        cli.run(spec)
        seed_dir = args.out / preset / f"seed_{args.seed:05d}"
        print(f"{preset:<18} {time.perf_counter() - start:6.1f}s  {summarize(seed_dir)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
