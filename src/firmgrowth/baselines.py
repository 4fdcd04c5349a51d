"""Reference stochastic growth processes the market model is compared against.

Four processes with known noise taxonomy: purely additive Gaussian noise
(Gaussian stationary sizes), purely multiplicative noise (Zipf-like power-law
tail), multiplicative noise whose dispersion scales as ``size**-beta``, and a
sequential one-worker-at-a-time relocation model where the destination is
chosen proportionally to current size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import entrant_sizes, equal_split, round_array


@dataclass(frozen=True)
class BaselineConfig:
    """Parameters of one baseline trajectory.

    ``sigma`` is the noise scale: the standard deviation of the additive or
    multiplicative noise, or the growth-rate dispersion at size 1 for the
    scaled process (``sigma(n) = sigma * n**-beta``).
    """

    n_units: int = 1000
    n_workers: int = 100_000
    sigma: float = 0.2
    beta: float = 0.0
    replacement_mean: float = 1.5
    seed: int = 1
    iterations: int = 1000
    move_fraction: float = 0.05  # sequential model: workers moved per batch

    def __post_init__(self):
        if self.n_units < 1:
            raise ValueError("n_units must be at least 1")
        if self.n_workers < self.n_units:
            raise ValueError("n_workers must be at least n_units")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not 0.0 <= self.beta <= 0.5:
            raise ValueError("beta must lie in [0, 0.5]")
        if self.replacement_mean < 1.0:
            raise ValueError("replacement_mean must be at least 1")
        if self.replacement_mean > self.n_workers:
            raise ValueError("replacement_mean must be at most n_workers")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if not 0.0 < self.move_fraction <= 1.0:
            raise ValueError("move_fraction must lie in (0, 1]")

    def initial_sizes(self, integer: bool = True) -> np.ndarray:
        if integer:
            return equal_split(self.n_workers, self.n_units)
        return np.full(self.n_units, self.n_workers / self.n_units, dtype=float)


def _entrants(count: int, replacement_mean: float, rng: np.random.Generator) -> np.ndarray:
    """Entrant sizes of a baseline: :func:`~firmgrowth.model.entrant_sizes`
    on ``replacement_mean`` +/- 1/2."""
    return entrant_sizes(count, replacement_mean - 0.5, replacement_mean + 0.5, rng)


def step_additive(sizes, sigma: float, rng: np.random.Generator,
                  replacement_mean: float = 1.5) -> tuple[np.ndarray, np.ndarray]:
    """One step of purely additive Gaussian noise at constant global size.

    Each size gains an independent Normal(0, sigma^2) increment; units pushed
    to zero or below restart at ``replacement_mean`` and everything is
    rescaled so the total matches the input total exactly. Returns the new
    sizes and the indices of the restarted units.
    """
    x = np.asarray(sizes, dtype=float)
    if x.size == 0:
        raise ValueError("sizes must be non-empty")
    total = x.sum()
    out = x + rng.normal(0.0, sigma, x.size)
    dead = np.flatnonzero(out <= 0)
    out[dead] = replacement_mean
    out *= total / out.sum()
    return out, dead


def step_scaled_beta(sizes, c: float, beta: float, rng: np.random.Generator,
                     replacement_mean: float = 1.5) -> tuple[np.ndarray, np.ndarray]:
    """Multiplicative noise with size-dependent dispersion sigma(n) = sqrt(c) * n**-beta.

    With ``beta = 0`` this is plain multiplicative noise, g ~ Normal(1, c):
    the probabilistic rounding of ``g * n`` plays the role of the small
    additive term that keeps a stationary state, and units that reach zero
    are replaced by entrants drawn uniformly on ``replacement_mean`` +/- 1/2
    (:func:`~firmgrowth.model.entrant_sizes`). With ``beta = 0.5`` the
    post-step variance is ``c * n``, the same scaling the market model
    produces without any market mechanics. Returns the new sizes and the
    indices of the replaced units.
    """
    if not c > 0:
        raise ValueError("c must be positive")
    if not 0.0 <= beta <= 0.5:
        raise ValueError("beta must lie in [0, 0.5]")
    n = np.asarray(sizes, dtype=np.int64)
    if n.size == 0:
        raise ValueError("sizes must be non-empty")
    if n.min() <= 0:
        raise ValueError("sizes must be positive")
    sigma_n = math.sqrt(c) * n.astype(float) ** (-beta)
    g = 1.0 + rng.standard_normal(n.size) * sigma_n
    grown = np.maximum(g, 0.0) * n
    largest = grown.max()
    if not largest < 2.0**63:
        raise OverflowError(f"a unit grew to size {largest:.4g}, past the int64 range "
                            "of integer sizes (2**63); lower sigma")
    out = round_array(grown, rng)
    dead = np.flatnonzero(out == 0)
    if dead.size:
        out[dead] = _entrants(dead.size, replacement_mean, rng)
    return out, dead


def step_marsili_sequential(city_sizes, n_moves: int, rng: np.random.Generator,
                            replacement_mean: float = 1.5) -> tuple[np.ndarray, np.ndarray]:
    """Sequential relocation dynamics: one worker moves at a time.

    Each elementary move picks a worker uniformly at random, removes it from
    its city, and reassigns it to a city with probability proportional to the
    current (already updated) sizes. A city emptied by a move is refilled
    immediately with an entrant population drawn as in
    :func:`step_scaled_beta`, capped at the spare workers ``total - occupied +
    1``, where ``occupied`` counts the cities that held a worker when the step
    began. Each entrant is a donor worker picked uniformly from the cities
    that hold at least two workers at that moment, never from the city being
    refilled, and moved there. So the total is conserved exactly, and a city
    that held a worker before the step holds one after it. Returns the sizes
    after the whole batch of moves and the indices of the refilled cities.

    Workers carry labels ``0 .. total - 1``, laid out city by city in
    ``home`` at the start of the step, and ``moved`` holds the current city
    of every worker the step has moved. A move draws a mover uniformly from
    all workers, so its city is picked in proportion to size, and a host
    uniformly from the other ``total - 1`` workers; the mover joins the
    host's city, which is thereby picked in proportion to the sizes after
    the removal. A refill draws donor labels uniformly from all workers, in
    batches of twice the entrant count, and skips a label whose city is the
    refilled one or holds a single worker. This is the law stated above,
    with one lookup per pick. Every mover and host is drawn up front, so the
    draws differ from one scalar draw per pick in order only.
    """
    sizes = np.asarray(city_sizes, dtype=np.int64)
    if sizes.size == 0:
        raise ValueError("city_sizes must be non-empty")
    if sizes.min() < 0:
        raise ValueError("city_sizes must be non-negative")
    total = int(sizes.sum())
    if total <= 0:
        raise ValueError("total population must be positive")
    if n_moves > total:
        raise ValueError(f"cannot move {n_moves} workers, only {total} exist")

    movers = rng.integers(total, size=n_moves)
    hosts = rng.integers(total - 1, size=n_moves)
    hosts += hosts >= movers  # skip the mover: uniform over the other workers
    home = np.repeat(np.arange(sizes.size), sizes)
    spare = total - int(np.count_nonzero(sizes)) + 1
    size = sizes.tolist()
    moved: dict[int, int] = {}
    refilled: set[int] = set()
    for u, v, home_u, home_v in zip(movers.tolist(), hosts.tolist(),
                                    home[movers].tolist(), home[hosts].tolist()):
        origin = moved.get(u, home_u)
        dest = moved[u] = moved.get(v, home_v)
        size[origin] -= 1
        size[dest] += 1
        if not size[origin]:
            entrant = min(int(_entrants(1, replacement_mean, rng)[0]), spare)
            while size[origin] < entrant:
                donors = rng.integers(total, size=2 * entrant)
                for d, home_d in zip(donors.tolist(), home[donors].tolist()):
                    city = moved.get(d, home_d)
                    if city != origin and size[city] > 1 and size[origin] < entrant:
                        size[city] -= 1
                        size[origin] += 1
                        moved[d] = origin
            refilled.add(origin)

    return np.array(size, dtype=np.int64), np.array(sorted(refilled), dtype=np.int64)
