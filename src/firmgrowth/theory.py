"""Closed-form and quadrature references for the growth statistics.

Two exact small-scale oracles live here: the aggregate growth-rate density
obtained by integrating size-conditional Gaussians over a power-law size
distribution, and the exact next-size distribution of a firm under per-unit
offer rounding combined with the market fill probability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TheoryParams:
    """Inputs of the aggregate growth-density integral.

    The size density is taken proportional to ``n**-(alpha+1)`` above the
    cutoff ``cutoff_n0`` and the conditional growth rate at size n is
    Gaussian with standard deviation ``sqrt(c) * n**-beta``. Without a cutoff
    the integral only converges at the origin when ``alpha < beta``.
    """

    alpha: float
    beta: float
    cutoff_n0: float = 0.0
    c: float = 0.1

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if not 0.0 < self.beta <= 0.5:
            raise ValueError("beta must lie in (0, 0.5]")
        if self.cutoff_n0 < 0:
            raise ValueError("cutoff_n0 must be non-negative")
        if not self.c > 0:
            raise ValueError("c must be positive")
        if self.cutoff_n0 == 0.0 and self.alpha >= self.beta:
            raise ValueError(
                "integral diverges at the origin for alpha >= beta; set a size cutoff")


def theoretical_growth_density(params: TheoryParams, g: float) -> float:
    """Aggregate growth density at one point, up to a common normalization.

    Evaluates ``integral over n of n**(beta-alpha-1) *
    exp(-n**(2 beta) (g-1)^2 / (2 c)) / sqrt(2 pi c)`` by adaptive quadrature
    (relative tolerance 1e-8). The substitution u = n**(2 beta) turns the
    integrand into a gamma-type one, which quadrature handles robustly even
    for small beta. Ratios between points are meaningful as is; use
    :func:`theoretical_growth_curve` for values normalized over a grid.
    """
    if g == 1.0:
        raise ValueError("the density has its (possibly singular) peak at g = 1")
    from scipy.integrate import quad  # imported here to keep scipy off the run path

    a = (g - 1.0) ** 2 / (2.0 * params.c)
    two_beta = 2.0 * params.beta
    s = (params.beta - params.alpha) / two_beta  # in (0, 1/2] iff alpha < beta
    u0 = params.cutoff_n0 ** two_beta

    def integrand(u):
        return u ** (s - 1.0) * math.exp(-a * u)

    if u0 == 0.0:
        # Integrable power singularity at the origin (alpha < beta here):
        # weighted quadrature on [0, 1], plain quadrature beyond.
        body = lambda u: math.exp(-a * u)
        v1, _ = quad(body, 0.0, 1.0, weight="alg", wvar=(s - 1.0, 0.0),
                     epsrel=1e-8, limit=200)
        v2, _ = quad(integrand, 1.0, np.inf, epsrel=1e-8, limit=200)
        value = v1 + v2
    else:
        value, _ = quad(integrand, u0, np.inf, epsrel=1e-8, limit=200)
    return value / (two_beta * math.sqrt(2.0 * math.pi * params.c))


def theoretical_growth_curve(params: TheoryParams, g_values) -> np.ndarray:
    """Growth density on a grid, normalized so it integrates to 1 over it."""
    g = np.asarray(g_values, dtype=float)
    if g.ndim != 1 or g.size < 3:
        raise ValueError("need a one-dimensional grid of at least 3 points")
    if np.any(np.diff(g) <= 0):
        raise ValueError("grid must be strictly increasing")
    if np.any(g == 1.0):
        raise ValueError("grid must not contain g = 1 (the peak may be singular)")
    raw = np.array([theoretical_growth_density(params, float(x)) for x in g])
    return raw / np.trapezoid(raw, g)


def default_growth_grid(g_min: float = 0.0, g_max: float = 2.0,
                        points: int = 402) -> np.ndarray:
    """Evaluation grid that straddles, but never contains, g = 1."""
    grid = np.linspace(g_min, g_max, points)
    grid = grid[grid > 0]
    return grid[grid != 1.0]


def job_count_pmf_oracle(size: int, margin: float) -> np.ndarray:
    """Exact next-size distribution under per-unit offers and market thinning.

    Each of the firm's ``size`` jobs maps independently to 0, 1 or 2 jobs with
    probabilities ``mu/(1+mu)^2``, ``(1+mu^2)/(1+mu)^2`` and ``mu/(1+mu)^2``
    (offer doubling at rate mu thinned by the fill probability 1/(1+mu)).
    Returns the pmf over outcomes {0, ..., 2*size} as the size-fold
    convolution of that trinomial; it is symmetric about ``size`` and has
    mean ``size`` for every margin.
    """
    if not 1 <= size <= 30:
        raise ValueError("exact enumeration is limited to sizes 1..30")
    if not 0.0 <= margin <= 1.0:
        raise ValueError("margin must lie in [0, 1]")
    denom = (1.0 + margin) ** 2
    q = margin / denom
    single = np.array([q, (1.0 + margin ** 2) / denom, q])
    pmf = np.array([1.0])
    for _ in range(size):
        pmf = np.convolve(pmf, single)
    return pmf
