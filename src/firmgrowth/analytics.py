"""Distribution statistics: CCDF/rank-size curves, growth-rate histograms,
power-law tail fits and the scaling exponent of growth-rate dispersion.

The size estimators read a :class:`SizeSnapshot`; the growth accumulators
ingest the growth batches emitted by the simulators one iteration at a time,
so long runs never hold their full record stream in memory.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import GrowthBatch


@dataclass(frozen=True)
class SizeSnapshot:
    """Sorted positive sizes of the population at one iteration."""

    sizes: np.ndarray  # descending, all > 0

    @classmethod
    def from_values(cls, values) -> "SizeSnapshot":
        arr = np.asarray(values, dtype=float)
        arr = arr[arr > 0]
        return cls(np.sort(arr)[::-1])

    def __len__(self) -> int:
        return self.sizes.size


@dataclass(frozen=True)
class Histogram:
    """Normalized density histogram; integrates to 1 over its bins."""

    bin_edges: np.ndarray
    densities: np.ndarray
    count: int

    def widths(self) -> np.ndarray:
        return np.diff(self.bin_edges)

    def log_densities(self) -> np.ndarray:
        """log10 density with half-count smoothing so empty bins stay finite."""
        return np.log10(self.densities + 1.0 / (2.0 * self.count * self.widths()))


class FitMethod(enum.Enum):
    LOG_LOG_OLS = "LogLogOLS"
    DISCRETE_MLE = "DiscreteMLE"


@dataclass(frozen=True)
class FitResult:
    exponent: float
    std_error: float
    fit_range: tuple[float, float]
    method: FitMethod
    n_points: int

    def __post_init__(self):
        if not self.fit_range[0] < self.fit_range[1]:
            raise ValueError("fit_range must be an increasing interval")


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least squares line fit; returns (slope, intercept, slope std error).

    Every fit in this module runs here, so this is where a fit with fewer
    than 3 points is rejected.
    """
    n = x.size
    if n < 3:
        raise ValueError(f"a fit needs at least 3 points, got {n}")
    xm, ym = x.mean(), y.mean()
    dx = x - xm
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise ValueError("degenerate fit: all abscissae identical")
    slope = float(dx @ (y - ym)) / sxx
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    se = math.sqrt(float(resid @ resid) / (n - 2) / sxx)
    return slope, intercept, se


def ccdf(snapshot: SizeSnapshot) -> np.ndarray:
    """Counter-cumulative distribution: rows of (size, P(n >= size)).

    Sizes ascend, probabilities are inclusive, so the first row carries
    probability 1 and the largest size maps to (count of maxima) / N.
    """
    if len(snapshot) == 0:
        raise ValueError("cannot build a CCDF from an empty snapshot")
    values, counts = np.unique(snapshot.sizes, return_counts=True)
    at_least = counts[::-1].cumsum()[::-1]
    return np.column_stack([values, at_least / snapshot.sizes.size])


_TAIL_FLOOR = 10.0


def default_tail_range(snapshot: SizeSnapshot) -> tuple[float, float]:
    """Fit window for tail exponents: one decade starting just above the
    small-size discreteness threshold.

    Sizes below ``_TAIL_FLOOR`` take too few distinct values for a meaningful
    power-law reading, while at desk scale the largest decade sits in the
    finite-size cutoff and measures the cutoff rather than the scaling
    region. The window therefore starts at ``max(_TAIL_FLOOR, 25th
    percentile)`` and spans one decade.

    The percentile is ``np.percentile(sizes, 25.0)`` bit for bit, read off
    the descending order that :meth:`SizeSnapshot.from_values` guarantees
    (``np.percentile`` would import ``numpy.ma`` for it): virtual index
    (n - 1) / 4 in ascending order, then numpy's linear interpolation, which
    counts from the upper neighbour once the fraction reaches 0.5.
    """
    n = len(snapshot)
    if n < 8:
        raise ValueError("too few sizes to place a tail window")
    i, quarters = divmod(n - 1, 4)
    gamma = quarters / 4
    a, b = float(snapshot.sizes[n - 1 - i]), float(snapshot.sizes[n - 2 - i])
    quartile = a + (b - a) * gamma if gamma < 0.5 else b - (b - a) * (1 - gamma)
    low = max(_TAIL_FLOOR, quartile)
    return (low, 10.0 * low)


def fit_power_law_tail(snapshot: SizeSnapshot, fit_range: tuple[float, float]
                       ) -> tuple[FitResult, FitResult]:
    """Tail exponent of the size distribution by two routes: log-log OLS of
    the CCDF and a Hill-type MLE of the sizes.

    OLS regresses log P on log size over the CCDF rows inside ``fit_range``;
    the reported exponent is minus the slope. Its ``std_error`` is the
    regression's residual standard error of the slope. CCDF points are
    cumulative, hence strongly correlated, so it is not a sampling error of
    the exponent. The MLE treats every firm at or above ``fit_range[0]`` as
    tail data: alpha = 1 / mean(log(n / x_min)), with standard error
    alpha / sqrt(n_tail), where n_tail counts firms, ties included. The OLS
    window's 3 distinct sizes leave the MLE at least 3 firms, 2 of them
    above ``x_min``.
    """
    low, high = float(fit_range[0]), float(fit_range[1])
    if not 0 < low < high:
        raise ValueError("fit_range must be positive and increasing")
    x, prob = ccdf(snapshot).T
    window = (x >= low) & (x <= high)
    slope, _, se = _ols(np.log(x[window]), np.log(prob[window]))
    ols = FitResult(-slope, se, (low, high), FitMethod.LOG_LOG_OLS, int(window.sum()))

    tail = snapshot.sizes[snapshot.sizes >= low]
    alpha = 1.0 / float(np.mean(np.log(tail / low)))
    mle = FitResult(alpha, alpha / math.sqrt(tail.size),
                    (low, float(tail.max())), FitMethod.DISCRETE_MLE, tail.size)
    return ols, mle


@dataclass(frozen=True)
class SizeBinStats:
    """Growth-rate dispersion of one logarithmic size bin."""

    bin_low: float
    bin_high: float
    sigma_g: float
    count: int
    geo_mean_size: float


# Growth-rate histogram: linear bins over [0, _G_MAX]; rates above _G_MAX go
# to an overflow bin. Size bins with fewer than _MIN_COUNT records are not
# reported.
_G_BINS = 101
_G_MAX = 2.0
_EDGES = np.linspace(0.0, _G_MAX, _G_BINS + 1)
# Upper edge of each bin for the index's upward step; the last bin takes
# everything above, and no rate compares >= NaN.
_UPPER = np.append(_EDGES[1:-1], np.nan)
_MIN_COUNT = 30


def _growth_bin(g: np.ndarray) -> np.ndarray:
    """Histogram bin of each growth rate over ``_EDGES``, rates above ``_G_MAX``
    in the last bin: the index ``np.histogram`` finds for uniform bins.

    The scaled rate is truncated, then moved down one bin where rounding put
    it above its rate and up one where it put it below (bins are closed on
    the left). ``fmin`` clamps large rates before the cast and sends NaN to
    the last bin, as ``searchsorted`` does.
    """
    idx = (np.fmin(g, _G_MAX) * (_G_BINS / _G_MAX)).astype(np.intp)
    np.minimum(idx, _G_BINS - 1, out=idx)
    idx -= g < _EDGES[idx]
    idx += g >= _UPPER[idx]
    return idx


class GrowthAccumulator:
    """Streaming growth statistics: aggregate histogram plus per-size-bin
    dispersion, with memory independent of the number of records.

    One vector counts the growth rates per histogram bin (rates above
    ``_G_MAX`` clamped into the last one). One table holds a row per
    logarithmic size bin: its record count, then the sums of g, g**2 and
    log(size). ``min_size`` drops records of firms below the threshold; their
    growth rates only take a handful of discrete values and would distort
    both the histogram and the dispersion estimates. It is at least 1, so
    row k of the table is size bin k, and the table only grows upward.
    """

    def __init__(self, min_size: float, bins_per_decade: float = 1.0):
        if not min_size >= 1:
            raise ValueError("min_size must be at least 1")
        if not 0 < bins_per_decade < math.inf:
            raise ValueError("bins_per_decade must be a positive finite number")
        self.min_size = min_size
        self.bins_per_decade = float(bins_per_decade)
        self.overflow = 0
        self.g_max = _G_MAX
        self._hist = np.zeros(_G_BINS, dtype=np.int64)
        self._table = np.zeros((0, 4))

    @property
    def total(self) -> int:
        return int(self._hist.sum())

    def update(self, batch: GrowthBatch) -> None:
        before, after = batch.records(self.min_size)
        if before.size == 0:
            return
        g = after / before
        over = g > _G_MAX
        if over.any():
            self.overflow += int(over.sum())
            self.g_max = max(self.g_max, float(g[over].max()))
        self._hist += np.bincount(_growth_bin(g), minlength=_G_BINS)

        rows = np.floor(self.bins_per_decade * np.log10(before)).astype(np.int64)
        above = int(rows.max()) + 1 - len(self._table)
        if above > 0:  # new size bins: extend the table
            self._table = np.pad(self._table, ((0, above), (0, 0)))
        n_rows = len(self._table)
        for col, weights in enumerate((None, g, g * g, np.log(before))):
            self._table[:, col] += np.bincount(rows, weights, n_rows)

    def histogram(self) -> Histogram:
        """Normalized density of growth rates g = size_after / size_before.

        Linear bins over [0, ``_G_MAX``] plus one overflow bin when rates
        exceed the range.
        """
        total = self.total
        if total == 0:
            raise ValueError("no growth records survive the size filter")
        edges, counts = _EDGES, self._hist.copy()
        counts[-1] -= self.overflow
        if self.overflow:
            edges = np.append(edges, max(self.g_max, edges[-1] + edges[-1] - edges[-2]))
            counts = np.append(counts, self.overflow)
        densities = counts / (total * np.diff(edges))
        return Histogram(edges, densities, total)

    def binned(self) -> list[SizeBinStats]:
        """Growth dispersion per logarithmic size bin.

        Each bin with at least ``_MIN_COUNT`` records reports the standard
        deviation of g; sparser bins are dropped.
        """
        out = []
        bpd = self.bins_per_decade
        for k in np.flatnonzero(self._table[:, 0] >= _MIN_COUNT).tolist():
            count, sum_g, sum_g2, sum_log_n = self._table[k]
            count = int(count)
            var = (sum_g2 - sum_g * sum_g / count) / (count - 1)
            out.append(SizeBinStats(
                bin_low=10.0 ** (k / bpd),
                bin_high=10.0 ** ((k + 1) / bpd),
                sigma_g=math.sqrt(max(var, 0.0)),
                count=count,
                geo_mean_size=math.exp(sum_log_n / count),
            ))
        return out


def fit_beta(binned: Sequence[SizeBinStats]) -> FitResult:
    """Scaling exponent of growth dispersion: sigma(n) ~ n**-beta.

    Log-log OLS of the per-bin standard deviation against the bin's geometric
    mean size; beta is minus the slope. A bin whose growth rates do not
    spread (``sigma_g`` 0) has no logarithm and is left out.
    """
    used = [b for b in binned if b.sigma_g > 0]
    x = np.log([b.geo_mean_size for b in used])
    y = np.log([b.sigma_g for b in used])
    slope, _, se = _ols(x, y)
    lo = min(b.bin_low for b in used)
    hi = max(b.bin_high for b in used)
    return FitResult(-slope, se, (lo, hi), FitMethod.LOG_LOG_OLS, len(used))


_DEV_BINS = 24
_DEV_EDGES = np.logspace(math.log10(0.02), math.log10(0.45), _DEV_BINS + 1)
_TENT_WINDOW = (0.02, 0.3)


class DeviationAccumulator:
    """Streaming histogram of the growth deviation |g - 1| on logarithmic bins.

    The estimator of choice for reading the tent's log-log slope: the growth
    rates of discrete firms live on lattices of spacing 1/size, and
    logarithmic deviation bins absorb those atoms into a consistent density
    where fixed-width bins around g = 1 alias them. ``_DEV_BINS`` bins span
    [0.02, 0.45], and records of firms of every positive size count.
    """

    def __init__(self):
        self.counts = np.zeros(_DEV_BINS, dtype=np.int64)

    def update(self, batch: GrowthBatch) -> None:
        before, after = batch.records()
        if before.size == 0:
            return
        dev = np.abs(after / before - 1.0)
        self.counts += np.histogram(dev, bins=_DEV_EDGES)[0]

    def histogram(self) -> Histogram:
        total = int(self.counts.sum())
        if total == 0:
            raise ValueError("no growth deviations inside the histogram range")
        return Histogram(_DEV_EDGES, self.counts / (total * np.diff(_DEV_EDGES)), total)


def central_tent_slope(hist: Histogram) -> tuple[float, float, int]:
    """Log-log slope of density against |g - 1| near the peak.

    A value of -1 is the hallmark of the 1/|g-1| tent produced by mixing
    Gaussian growth over a broad size distribution. Takes a
    :class:`DeviationAccumulator` histogram (logarithmic bins in |g - 1|) and
    reads the bins centred in ``_TENT_WINDOW`` at their geometric centres.
    Returns (slope, std error, points used).
    """
    dev = np.sqrt(hist.bin_edges[:-1] * hist.bin_edges[1:])
    sel = (dev >= _TENT_WINDOW[0]) & (dev <= _TENT_WINDOW[1]) & (hist.densities > 0)
    slope, _, se = _ols(np.log(dev[sel]), np.log(hist.densities[sel]))
    return slope, se, int(sel.sum())
