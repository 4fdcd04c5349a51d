"""Firm growth driven by competition for a scarce market quantity.

The economy holds ``n_firms`` firms and ``n_workers`` workers, both constant.
Every iteration is one production cycle: firms post claims (job offers or
goods for sale), a market matches the scarce supply to the claims uniformly
at random, and firms that die out are replaced by small entrants. Growth is
reported as (size before, size after) pairs, the raw material for all
distribution statistics.

Two scarcity regimes are implemented. When firms spend their profits
(``Scenario.FIRMS_CONSUME``) demand always suffices and the workforce is the
scarce side: firms offer ``size * (1 + margin)`` jobs but only ``n_workers``
workers exist. When only wages are spent (``Scenario.WORKERS_ONLY_CONSUME``)
firms always find the workers they ask for but compete for purchasing power:
only a fraction ``1 / (1 + margin)`` of produced goods can be sold on
average, and realized profits feed back into the next production plan.
"""
from __future__ import annotations

import enum
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .rng import substream

# Stream ids for per-iteration substreams. Fixed so that switching the
# allocation mode or the rounding scheme cannot shift the draws that the
# other stages of an iteration consume. Stages that share a stream draw in a
# fixed order, and only the last of them may draw a number of values that
# depends on the allocation mode or on the sampler chosen for its urn. The
# job market's block b draws its doubled units from (OFFER_STREAM, b, t) and
# its hires from (JOB_MARKET_STREAM, b, t).
OFFER_STREAM = 0
JOB_MARKET_STREAM = 1
GOODS_STREAM = 2  # goods rounding, demand rounding, then the goods market
REPLACE_STREAM = 4

# Job markets of at least this many firms draw their second block of firms on
# a helper thread (see _hire); smaller ones draw both blocks inline, where the
# handoff would cost more than the draw it moves.
_HELPER_MIN_FIRMS = 2048
# (pid, task queue, result queue) of this process's helper thread, started by
# the first market that uses it. A forked child has no thread of its parent
# and starts its own.
_helper = None


class Scenario(enum.Enum):
    """Which side of the economy is scarce."""

    FIRMS_CONSUME = "FirmsConsume"
    WORKERS_ONLY_CONSUME = "WorkersOnlyConsume"


class Rounding(enum.Enum):
    """How fractional claims are discretized."""

    PROBABILISTIC = "Probabilistic"  # round the aggregate claim, unbiased
    PER_UNIT = "PerUnit"             # each existing unit doubles with prob. margin


class Allocation(enum.Enum):
    """How the scarce supply is split among claims."""

    EXACT_MATCHING = "ExactMatching"             # without replacement, conserves supply
    INDEPENDENT_BINOMIAL = "IndependentBinomial"  # conserves supply on average only


@dataclass(frozen=True)
class ModelConfig:
    """All global parameters of one simulation run."""

    n_firms: int = 100
    n_workers: int = 5000
    margin: float = 0.1
    wage: float = 1.0
    price: float = 1.0
    scenario: Scenario = Scenario.FIRMS_CONSUME
    rounding: Rounding = Rounding.PROBABILISTIC
    allocation: Allocation = Allocation.EXACT_MATCHING
    replacement_low: float = 1.0
    replacement_high: float = 2.0
    seed: int = 1
    iterations: int = 500

    def __post_init__(self):
        if self.n_firms < 1:
            raise ValueError("n_firms must be at least 1")
        if self.n_workers < self.n_firms:
            raise ValueError("n_workers must be at least n_firms")
        if not self.margin > 0:
            raise ValueError("margin must be positive")
        if self.wage <= 0 or self.price <= 0:
            raise ValueError("wage and price must be positive")
        if self.rounding is Rounding.PER_UNIT and not 0.0 <= self.margin <= 1.0:
            raise ValueError("per-unit rounding requires margin in [0, 1]")
        if self.replacement_low < 1.0:
            raise ValueError("replacement_low must be at least 1")
        if self.replacement_high < self.replacement_low:
            raise ValueError("replacement_high must be >= replacement_low")
        if self.replacement_high > self.n_workers:
            raise ValueError("replacement_high must be at most n_workers")
        # The largest market claim, in job offers or goods units: every worker
        # employed plus an entrant of the largest size in every firm, grown by
        # the margin (doubled, per unit) and rounded up in every firm.
        workers = self.n_workers + self.n_firms * math.ceil(self.replacement_high)
        growth = 2.0 if self.rounding is Rounding.PER_UNIT else 1.0 + self.margin
        units = (workers * max(1.0, self.wage / self.price)
                 + self.n_firms * max(1.0, self.price / self.wage))
        largest_claim = growth * units + self.n_firms
        if not largest_claim < 10**9:
            raise ValueError(
                f"the largest market claim ({largest_claim:.4g} job offers or goods units) "
                "must be below 10**9, the largest urn numpy's samplers take; claims are "
                "float64 counts, exact only below 2**53")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")


@dataclass(frozen=True)
class MarketProbabilities:
    """Realized matching probabilities of the last cleared iteration.

    ``aggregate_demand`` and ``aggregate_output`` are in goods units, so
    ``sell_prob == aggregate_demand / aggregate_output`` (clamped to 1).
    """

    fill_prob: float
    sell_prob: float
    aggregate_demand: float
    aggregate_output: float


class GrowthBatch:
    """Columnar (size before, size after) records for one iteration.

    Records of firms that were empty before the iteration are left out: their
    growth rate ``size_after / size_before`` is undefined. The units in
    ``ended`` died in the iteration, and their records end at 0: the entrant
    that takes a dead unit's slot is a different firm, and its first size is
    not growth of the old one. This is the one place a record ends. The
    batch holds the arrays it is given (float arrays are not copied unless
    ``ended`` is non-empty) and masks them once per read, so a reader that
    drops small firms as well masks only once.
    """

    __slots__ = ("_before", "_after")

    def __init__(self, size_before, size_after, ended=()):
        before = np.asarray(size_before, dtype=float)
        after = (np.array if len(ended) else np.asarray)(size_after, dtype=float)
        if before.shape != after.shape:
            raise ValueError("size_before and size_after must have matching shapes")
        if len(ended):
            after[ended] = 0.0
        self._before = before
        self._after = after

    def records(self, min_size: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """(size_before, size_after) of the records with ``size_before > 0`` and
        ``size_before >= min_size``."""
        keep = self._before >= min_size if min_size > 0 else self._before > 0
        return self._before[keep], self._after[keep]

    @property
    def size_before(self) -> np.ndarray:
        return self.records()[0]

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The unmasked float (size_before, size_after) arrays the batch holds:
        ``GrowthBatch(*batch.arrays())`` reads the same records."""
        return self._before, self._after


def required_workers(planned_output, margin: float, wage: float = 1.0, price: float = 1.0):
    """Workers needed to produce ``planned_output`` goods at the expected margin.

    Inverse of :func:`production`; may be fractional, callers round it.
    """
    if np.any(planned_output < 0):
        raise ValueError("planned_output must be non-negative")
    if margin <= -1.0:
        raise ValueError("margin must exceed -1")
    return planned_output * (price / wage) / (1.0 + margin)


def production(size, margin: float, wage: float = 1.0, price: float = 1.0):
    """Goods that firms with ``size`` workers produce in one iteration."""
    return size * (wage / price) * (1.0 + margin)


def equal_split(total: int, n: int) -> np.ndarray:
    """``n`` integer sizes summing to ``total``; the remainder goes to the first ones."""
    base, extra = divmod(total, n)
    sizes = np.full(n, base, dtype=np.int64)
    sizes[:extra] += 1
    return sizes


def round_array(x, rng: np.random.Generator) -> np.ndarray:
    """Round up with probability frac(x), down otherwise. Unbiased: E[result] = x.

    A float ``x`` gives an int, drawn from the same one double that a 0-d
    array draws, without the array round trip.
    """
    if isinstance(x, float):
        if x < 0:
            raise ValueError("cannot round negative quantities")
        lo = math.floor(x)
        return lo + (rng.random() < x - lo)
    x = np.asarray(x, dtype=float)
    if x.size and x.min() < 0:
        raise ValueError("cannot round negative quantities")
    lo = np.floor(x)
    return (lo + (rng.random(x.shape) < x - lo)).astype(np.int64)


def per_unit_offer_array(sizes, margin: float, rng: np.random.Generator) -> np.ndarray:
    """Job offers when every existing position doubles independently.

    Each of a firm's ``size`` positions is offered twice with probability
    ``margin`` and once otherwise, so an offer lies in [size, 2*size] with
    expectation ``size * (1 + margin)``. Drawn as the number of doubled
    positions, Binomial(sum of sizes, margin), then which positions those
    are, a uniform subset: the law of independent doublings given their sum.
    """
    if not 0.0 <= margin <= 1.0:
        raise ValueError("per-unit doubling requires margin in [0, 1]")
    sizes = np.asarray(sizes, dtype=np.int64)
    total = int(sizes.sum())
    return sizes + _spread(sizes, total, int(rng.binomial(total, margin)), rng)


def _hypergeometric_method(total: int, k: int, n_colors: int) -> str:
    """The faster of numpy's two exact multivariate hypergeometric samplers
    for an urn of ``total`` units in ``n_colors`` colors, when the smaller of
    the drawn and the left-over parts has ``k`` units.

    ``"count"`` shuffles ``k`` of the ``total`` unit labels, and each swap
    misses the cache more often as the label array grows; ``"marginals"``
    draws one hypergeometric variate per color. The costs, in ns, were fitted
    on a grid of urns (numpy 2.4, x86-64, 10 to 10,000 colors, up to 1.2M
    units). Both samplers draw the same law, so the choice changes the draws
    but not their distribution; it depends on the urn alone, so a
    configuration plus a seed still pins every draw.
    """
    count_ns = 0.2 * total + 12.0 * k + 4e-5 * k * total
    return "count" if count_ns < 155.0 * n_colors else "marginals"


def _spread(units: np.ndarray, total: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """How many of ``k`` units, picked uniformly without replacement from the
    ``total`` units that ``units`` lay end to end, fall to each owner: the
    multivariate hypergeometric law, from the faster sampler for the urn."""
    method = _hypergeometric_method(total, min(k, total - k), units.size)
    return rng.multivariate_hypergeometric(units, k, method=method)


def allocate_market(demands, supply: int, mode: Allocation,
                    rng: np.random.Generator) -> np.ndarray:
    """Split a scarce integer supply among integer claims uniformly at random.

    If the claims sum to at most ``supply`` everyone is served in full.
    Otherwise ``ExactMatching`` picks ``supply`` claim-slots without
    replacement (multivariate hypergeometric, total conserved exactly), while
    ``IndependentBinomial`` serves each claim binomially with the average fill
    probability (total conserved only on average). In both modes
    ``E[k_i] = demand_i * supply / sum(demands)``.
    """
    d = np.asarray(demands, dtype=np.int64)
    if d.size == 0:
        raise ValueError("demands must be non-empty")
    if d.min() < 0:
        raise ValueError("demands must be non-negative")
    if supply < 0:
        raise ValueError("supply must be non-negative")
    total = int(d.sum())
    if total <= supply:
        return d.copy()
    if mode is Allocation.EXACT_MATCHING:
        return _spread(d, total, int(supply), rng)
    return rng.binomial(d, supply / total)


class Economy:
    """Mutable simulation state: one fixed-length firm population.

    Firm quantities are stored as parallel arrays. ``output`` is the exact
    production; goods trade in units of one, so ``sold`` is an integer count
    that can exceed ``output`` by less than one unit when the unbiased
    discretization rounded the production up. Randomness is derived from
    ``config.seed`` and the iteration counter, so a trajectory is a pure
    function of the configuration.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        n = config.n_firms
        sizes = equal_split(config.n_workers, n)
        w, p = config.wage, config.price
        self.size = sizes
        self.output = production(sizes, config.margin, w, p)
        # Prior-period sales at their no-shortage expectation; only used to
        # seed the first planning step and the first sales growth record.
        self.sold = sizes * (w / p)
        self.time = 0
        self.employed = int(sizes.sum())
        self.last_replaced = np.empty(0, dtype=np.int64)
        self.market: MarketProbabilities | None = None

    def step(self) -> GrowthBatch:
        """Advance one iteration; returns its growth records: employees in
        the firms-consume scenario, sales in the workers-only-consume one."""
        if self.config.scenario is Scenario.FIRMS_CONSUME:
            return _step_firms_consume(self)
        return _step_workers_only_consume(self)


def _hire(economy: Economy, offers: np.ndarray, t: int, per_unit: bool = False) -> float:
    """The job market of iteration ``t``: the ``n_workers`` workers fill the
    ``offers`` slots, drawn only when the offers exceed them. With
    ``per_unit``, ``offers`` are the firms' sizes and each of their positions
    is first offered twice with probability ``margin``, the law of
    :func:`per_unit_offer_array`. Assigns new ``size`` and ``output`` arrays
    and sets ``employed``; returns the fill probability.

    The firms fall into two fixed blocks, the first ``n_firms // 2`` and the
    rest. This thread draws only scalars: each block's number of doubled
    positions, a Binomial of its sizes' sum, from the offer stream; then, when
    the offers bind under exact matching, block 0's share of the workers, a
    hypergeometric draw over the two blocks' offers, from the job stream.
    Each block then draws which of its positions double and which of its
    offers are filled, uniform subsets, from its own streams. Given the
    split, the two blocks' draws are the one-urn multivariate hypergeometric
    law. Block 1 draws on the helper thread in markets of at least
    ``_HELPER_MIN_FIRMS`` firms; the draws do not depend on which thread
    makes them.
    """
    cfg = economy.config
    seed, n_workers = cfg.seed, cfg.n_workers
    cut = cfg.n_firms // 2
    units = (offers[:cut], offers[cut:])
    totals = [int(u.sum()) for u in units]
    doubled = [0, 0]
    if per_unit:
        doubled = substream(seed, OFFER_STREAM, t).binomial(totals, cfg.margin).tolist()
    offered = [n + d for n, d in zip(totals, doubled)]
    total = sum(offered)
    binding = total > n_workers
    if not (per_unit or binding):
        hired = offers.copy()
    else:
        supply, fill = [None, None], None
        if binding and cfg.allocation is Allocation.EXACT_MATCHING:
            share = int(substream(seed, JOB_MARKET_STREAM, t)
                        .hypergeometric(offered[0], offered[1], n_workers))
            supply = [share, n_workers - share]
        elif binding:
            fill = n_workers / total
        tasks = [functools.partial(
            _block_market, units[b], totals[b], doubled[b], offered[b], supply[b], fill,
            substream(seed, OFFER_STREAM, b, t) if per_unit and units[b].size else None,
            substream(seed, JOB_MARKET_STREAM, b, t) if binding and units[b].size else None)
            for b in (0, 1)]
        if cfg.n_firms >= _HELPER_MIN_FIRMS:
            todo, done = _helper_thread()
            todo.put(tasks[1])
            try:
                first = tasks[0]()
            finally:
                ok, second = done.get()  # the helper is idle again on return
            if not ok:
                raise second
        else:
            first, second = tasks[0](), tasks[1]()
        hired = np.concatenate((first, second))
    economy.size = hired
    economy.employed = int(hired.sum())
    economy.output = production(hired, cfg.margin, cfg.wage, cfg.price)
    return n_workers / total if binding else 1.0


def _block_market(units, total, doubled, offered, supply, fill, offer_rng, hire_rng):
    """One block's part of the job market: its hires.

    Its ``doubled`` positions (a uniform subset of the ``total`` in
    ``units``) are offered twice when ``offer_rng`` is given; its ``offered``
    offers are then filled from ``supply`` workers, or each with probability
    ``fill``, when ``hire_rng`` is given. Runs on either thread, so it calls
    numpy and private helpers only.
    """
    offers = units if offer_rng is None else units + _spread(units, total, doubled, offer_rng)
    if hire_rng is None:
        return offers
    if fill is not None:
        return hire_rng.binomial(offers, fill)
    return _spread(offers, offered, supply, hire_rng)


def _helper_thread():
    """The task and result queues of this process's one helper thread,
    started on first use: a daemon that runs each task put on the first queue
    and puts ``(True, result)``, or ``(False, exception)``, on the second."""
    global _helper
    if _helper is None or _helper[0] != os.getpid():
        import queue  # only markets that use the helper need it
        import threading

        _helper = (os.getpid(), queue.SimpleQueue(), queue.SimpleQueue())
        threading.Thread(target=_serve, args=_helper[1:], name="firmgrowth-market",
                         daemon=True).start()
    return _helper[1:]


def _serve(todo, done):
    while True:
        task = todo.get()
        try:
            done.put((True, task()))
        except BaseException as exc:  # noqa: BLE001 - re-raised on the caller
            done.put((False, exc))


def _step_firms_consume(economy: Economy) -> GrowthBatch:
    """One production cycle when firms spend their profits (scarce workforce).

    Firms post ``size * (1 + margin)`` job offers (rounded by the configured
    scheme), the ``n_workers`` workers are matched to open positions uniformly
    at random, and everyone's production sells in full. Firms that received no
    worker are replaced by entrants whose offers enter the next job market.
    """
    cfg = economy.config
    t = economy.time

    # Not changed in place below: _hire assigns a new size array, the one
    # replace_extinct writes into.
    size_before = economy.size
    per_unit = cfg.rounding is Rounding.PER_UNIT
    if per_unit:
        offers = size_before  # _hire draws the doubled positions
    else:
        offers = round_array(size_before * (1.0 + cfg.margin),
                             substream(cfg.seed, OFFER_STREAM, t))
    fill = _hire(economy, offers, t, per_unit)

    # Demand always suffices here: the whole production is sold.
    economy.sold = economy.output
    q_total = float(economy.output.sum())
    economy.market = MarketProbabilities(fill, 1.0, q_total, q_total)

    replace_extinct(economy, substream(cfg.seed, REPLACE_STREAM, t))
    economy.time += 1
    return GrowthBatch(size_before, economy.size, economy.last_replaced)


def _step_workers_only_consume(economy: Economy) -> GrowthBatch:
    """One production cycle when only wages are spent (scarce demand).

    Firms plan from last realized profits, hire accordingly (the job market
    rarely binds), produce, and then compete for the wage bill in the goods
    market where each produced good has the same chance of being sold. Unsold
    goods are lost. Firms whose plan collapses to zero workers are replaced,
    with the entrants' job offers taken uniformly from the survivors so the
    aggregate offer is unchanged.

    A firm that hired ``n`` workers and sold ``s`` goods made the margin
    m = (s * p - n * w) / (n * w), and plans to produce its last output
    grown by it: ``n * (w / p) * (1 + mu) * (1 + m) = s * (1 + mu)``. Those
    goods need ``s * p / w`` workers, so that is the job offer, rounded.
    """
    cfg = economy.config
    t = economy.time
    w, p, mu = cfg.wage, cfg.price, cfg.margin
    # Not changed in place below: the step assigns a new array.
    sold_before = economy.sold

    if cfg.rounding is Rounding.PER_UNIT:
        # Each previously sold good respawns as one or two goods to produce.
        plan_rng = substream(cfg.seed, OFFER_STREAM, t)
        planned = per_unit_offer_array(np.rint(sold_before), mu, plan_rng)
        economy.job_offer = round_array(required_workers(planned, mu, w, p), plan_rng)
    else:
        workers = sold_before * (p / w)
        whole = np.floor(workers)
        if (whole == workers).all():
            # round_array returns integral values whatever it draws, and no
            # other stage of this scenario reads the offer stream: skip it.
            economy.job_offer = whole.astype(np.int64)
        else:
            economy.job_offer = round_array(workers, substream(cfg.seed, OFFER_STREAM, t))

    replace_extinct(economy, substream(cfg.seed, REPLACE_STREAM, t))
    fill = _hire(economy, economy.job_offer, t)

    # Goods are traded in units of one: the fractional production is rounded
    # unbiasedly for the market, while planning keeps the exact quantity
    # (otherwise the aggregate job offer, hence employment, would drift).
    goods_rng = substream(cfg.seed, GOODS_STREAM, t)
    units = round_array(economy.output, goods_rng)
    demand_units = int(round_array(economy.employed * w / p, goods_rng))
    supply_units = int(units.sum())
    sold = allocate_market(units, demand_units, cfg.allocation, goods_rng).astype(float)
    economy.sold = sold
    sell = min(1.0, demand_units / supply_units) if supply_units > 0 else 1.0
    economy.market = MarketProbabilities(fill, sell, float(demand_units), float(supply_units))
    economy.time += 1
    return GrowthBatch(sold_before, sold, economy.last_replaced)


def entrant_sizes(count: int, low: float, high: float, rng: np.random.Generator) -> np.ndarray:
    """Sizes of ``count`` entrants: uniform on [low, high], rounded
    probabilistically, and at least 1. Every simulator but Additive draws its
    entrants here; [1, 2] gives sizes in {1, 2} with mean 1.5."""
    return np.maximum(round_array(rng.uniform(low, high, count), rng), 1)


def replace_extinct(economy: Economy, rng: np.random.Generator) -> int:
    """Replace dead firms with entrants; returns the number replaced, and
    keeps their indices in ``economy.last_replaced``.

    Entrant sizes come from :func:`entrant_sizes` over the replacement
    interval. In the firms-consume scenario a firm is dead when its size
    reached zero and the entrant's offer simply joins the next job market. In
    the workers-only-consume scenario a firm is dead when its job offer
    collapsed to zero (it sold nothing); the entrant posts its size as its
    offer and an equal number of offer slots is removed from the surviving
    firms, leaving the aggregate job offer unchanged. The surviving offers are
    laid end to end as slots, a uniformly random subset of them is drawn
    without replacement, and each firm loses the drawn slots that fall in its
    run. A uniform subset of slots is the multivariate hypergeometric law, so
    each firm loses ``removed_total * offer / available`` slots on average;
    this costs one draw per removed slot instead of one per firm.
    """
    cfg = economy.config
    firms_consume = cfg.scenario is Scenario.FIRMS_CONSUME
    idx = np.flatnonzero((economy.size if firms_consume else economy.job_offer) == 0)
    economy.last_replaced = idx
    if idx.size == 0:
        return 0
    entrants = entrant_sizes(idx.size, cfg.replacement_low, cfg.replacement_high, rng)
    if firms_consume:
        economy.size[idx] = entrants
        # An entrant has produced nothing yet; the step's sold is this array.
        economy.output[idx] = 0.0
        return int(idx.size)

    added = int(entrants.sum())
    surviving = economy.job_offer  # the dead firms' offers are 0 already
    available = int(surviving.sum())
    removed_total = min(added, available)
    if removed_total < added:
        import logging  # only this rare warning needs it

        logging.getLogger(__name__).warning(
            "entrant offers (%d) exceed surviving job offers (%d); removal clamped",
            added, available,
        )
    if removed_total > 0:
        slots = rng.choice(available, removed_total, replace=False)
        owner = np.searchsorted(np.cumsum(surviving), slots, side="right")
        economy.job_offer = economy.job_offer - np.bincount(owner, minlength=surviving.size)
    economy.job_offer[idx] = entrants
    return int(idx.size)
