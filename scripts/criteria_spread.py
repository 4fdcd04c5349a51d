#!/usr/bin/env python3
"""Seed-to-seed spread of the stochastic acceptance criteria (1-6).

Reruns the measured quantity of each criterion on ten seeds that no test
uses, at the sizes of `tests/test_acceptance.py` and with its measurement
functions, in two worker processes. Prints one JSON object: for each quantity
its band, the per-seed values and their mean, sample sd, min and max. A change
that alters random draws compares this spread with its parent's to tell a
defect from seed noise. Takes one to three minutes on two cores:

    python scripts/criteria_spread.py > spread.json
"""
import concurrent.futures
import json
import multiprocessing
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_acceptance as acceptance  # noqa: E402

SEEDS = tuple(range(9001, 9011))

# quantity: (measurement, value read from its result). Criterion 1's test
# reads the median over its five seeds. Each band is the test's own
# (`acceptance.BANDS`); criterion 5's are open intervals.
QUANTITIES = {
    "criterion_01_tail_alpha": (acceptance.demand_scarce_fit,
                                lambda fits: fits[0].exponent),
    "criterion_02_model_beta": (acceptance.workforce_scarce_measures,
                                lambda measures: measures[0].exponent),
    "criterion_03_scaled_beta": (acceptance.scaled_noise_beta,
                                 lambda fit: fit.exponent),
    "criterion_04_multiplicative_alpha": (acceptance.multiplicative_tail,
                                          lambda fit: fit.exponent),
    "criterion_05_excess_kurtosis": (acceptance.additive_moments,
                                     lambda moments: moments[0]),
    "criterion_05_skewness": (acceptance.additive_moments,
                              lambda moments: moments[1]),
    "criterion_06_tent_slope": (acceptance.workforce_scarce_measures,
                                lambda measures: measures[1][0]),
}


def _measure(task):
    measurement, seed = task
    return measurement(seed)


def main() -> int:
    measurements = list(dict.fromkeys(m for m, _ in QUANTITIES.values()))
    tasks = [(m, seed) for m in measurements for seed in SEEDS]
    context = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        results = dict(zip(tasks, pool.map(_measure, tasks)))
    report = {"seeds": list(SEEDS)}
    for name, (measurement, read) in QUANTITIES.items():
        values = np.array([read(results[measurement, seed]) for seed in SEEDS])
        report[name] = {
            "band": list(acceptance.BANDS[name]),
            "values": [round(float(v), 6) for v in values],
            "mean": round(float(values.mean()), 6),
            "sd": round(float(values.std(ddof=1)), 6),
            "min": round(float(values.min()), 6),
            "max": round(float(values.max()), 6),
        }
    json.dump(report, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
