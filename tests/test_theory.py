"""Exact references: the next-size pmf and the growth-density quadrature."""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import firmgrowth
from firmgrowth.theory import (
    TheoryParams,
    default_growth_grid,
    job_count_pmf_oracle,
    theoretical_growth_curve,
    theoretical_growth_density,
)


class TestJobCountPmf:
    def test_single_job_trinomial(self):
        pmf = job_count_pmf_oracle(1, 0.1)
        assert pmf == pytest.approx([0.1 / 1.21, 1.01 / 1.21, 0.1 / 1.21], abs=1e-12)

    def test_two_jobs_is_self_convolution(self):
        one = job_count_pmf_oracle(1, 0.07)
        two = job_count_pmf_oracle(2, 0.07)
        assert two == pytest.approx(np.convolve(one, one), abs=1e-15)

    @given(st.integers(1, 30), st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_normalized_symmetric_mean_preserving(self, size, margin):
        pmf = job_count_pmf_oracle(size, margin)
        assert pmf.size == 2 * size + 1
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert pmf == pytest.approx(pmf[::-1], abs=1e-12)
        assert float(np.arange(pmf.size) @ pmf) == pytest.approx(size, abs=1e-9)

    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            job_count_pmf_oracle(31, 0.1)
        with pytest.raises(ValueError):
            job_count_pmf_oracle(0, 0.1)
        with pytest.raises(ValueError):
            job_count_pmf_oracle(3, 1.2)


class TestGrowthDensity:
    def test_inverse_deviation_limit(self):
        # flat size exponent, beta = 1/2, no cutoff: density falls as 1/|g-1|
        params = TheoryParams(alpha=0.0, beta=0.5, cutoff_n0=0.0, c=0.05)
        ratio = (theoretical_growth_density(params, 1.1)
                 / theoretical_growth_density(params, 1.2))
        assert ratio == pytest.approx(2.0, abs=1e-6)

    def test_symmetric_about_one(self):
        params = TheoryParams(alpha=0.2, beta=0.4, cutoff_n0=0.0, c=0.1)
        assert theoretical_growth_density(params, 0.85) == pytest.approx(
            theoretical_growth_density(params, 1.15), rel=1e-9)

    def test_monotone_decreasing_in_deviation(self):
        params = TheoryParams(alpha=0.7, beta=0.5, cutoff_n0=2.0, c=0.1)
        devs = [0.02, 0.05, 0.1, 0.2, 0.4]
        values = [theoretical_growth_density(params, 1 + d) for d in devs]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_curve_normalized_on_grid(self):
        params = TheoryParams(alpha=0.7, beta=0.5, cutoff_n0=5.0, c=0.1)
        grid = default_growth_grid()
        assert 1.0 not in grid
        curve = theoretical_growth_curve(params, grid)
        assert float(np.trapezoid(curve, grid)) == pytest.approx(1.0, abs=1e-6)

    def test_smaller_beta_flattens_peak(self):
        grid = np.array([1.02, 1.4])
        ratios = []
        for beta in (0.5, 0.3, 0.15):
            params = TheoryParams(alpha=0.7, beta=beta, cutoff_n0=1.0, c=0.1)
            lo = theoretical_growth_density(params, float(grid[0]))
            hi = theoretical_growth_density(params, float(grid[1]))
            ratios.append(lo / hi)
        assert ratios[0] > ratios[1] > ratios[2]

    def test_divergence_guard_without_cutoff(self):
        with pytest.raises(ValueError):
            TheoryParams(alpha=0.7, beta=0.5, cutoff_n0=0.0, c=0.1)
        with pytest.raises(ValueError):
            TheoryParams(alpha=0.5, beta=0.5, cutoff_n0=0.0, c=0.1)
        TheoryParams(alpha=0.3, beta=0.5, cutoff_n0=0.0, c=0.1)  # converges

    def test_peak_point_rejected(self):
        params = TheoryParams(alpha=0.0, beta=0.5, cutoff_n0=0.0, c=0.1)
        with pytest.raises(ValueError):
            theoretical_growth_density(params, 1.0)
        with pytest.raises(ValueError):
            theoretical_growth_curve(params, np.array([0.9, 1.0, 1.1]))

    def test_parameter_domains(self):
        with pytest.raises(ValueError):
            TheoryParams(alpha=-0.1, beta=0.5)
        with pytest.raises(ValueError):
            TheoryParams(alpha=0.1, beta=0.6)
        with pytest.raises(ValueError):
            TheoryParams(alpha=0.1, beta=0.5, c=0.0)


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # a fresh interpreter: this test process has scipy loaded already. Nor is
    # multiprocessing loaded: only a run with a worker pool needs it. Nor is
    # numpy.random: the first stream of a run imports it. Nor has a thread
    # started, even once an Economy is built: a market starts its helper.
    # Nor are concurrent.futures, logging and argparse loaded: a worker pool,
    # the clamped-offer warning and the command line import them where they
    # are used. A whole run, helper thread included, then loads none of them
    # and no numpy.ma either: the tail window reads its quartile off the
    # sorted sizes, not through np.percentile.
    src = str(Path(firmgrowth.__file__).parents[1])
    code = textwrap.dedent("""
        import sys, threading
        from pathlib import Path
        from firmgrowth import cli, model

        def loaded(*names):
            return sorted(name for name in names if name in sys.modules)

        print(loaded('scipy', 'multiprocessing', 'numpy.random', 'concurrent', 'logging',
                     'argparse'))
        model.Economy(model.ModelConfig())
        print(threading.active_count())
        model._HELPER_MIN_FIRMS = 0
        cli.run(cli.RunSpec(preset='ScenarioI', output_dir=Path(sys.argv[1]),
                            overrides=dict(n_firms=8, n_workers=400, iterations=5)))
        print(loaded('numpy.ma', 'argparse', 'concurrent', 'logging', 'scipy',
                     'multiprocessing'), threading.active_count())
        """)
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    lines = out.stdout.splitlines()
    assert lines[:2] == ["[]", "1"] and lines[-1] == "[] 2"
    assert (tmp_path / "seed_00001" / "fit.csv").read_text().count("\n") == 3
