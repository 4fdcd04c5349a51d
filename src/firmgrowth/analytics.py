"""Distribution statistics: CCDF/rank-size curves, growth-rate histograms,
power-law tail fits and the scaling exponent of growth-rate dispersion.

The size estimators work on plain arrays; the growth accumulators ingest the
growth batches emitted by the simulators one iteration at a time, so long
runs never hold their full record stream in memory.
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

    time: int
    sizes: np.ndarray  # descending, all > 0

    @classmethod
    def from_values(cls, time: int, values) -> "SizeSnapshot":
        arr = np.asarray(values, dtype=float)
        arr = arr[arr > 0]
        return cls(time=time, sizes=np.sort(arr)[::-1])

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
        if self.n_points < 3:
            raise ValueError("a fit needs at least 3 points")


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least squares line fit; returns (slope, intercept, slope std error)."""
    n = x.size
    xm, ym = x.mean(), y.mean()
    dx = x - xm
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise ValueError("degenerate fit: all abscissae identical")
    slope = float(dx @ (y - ym)) / sxx
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    se = math.sqrt(float(resid @ resid) / (n - 2) / sxx) if n > 2 else float("nan")
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


def default_tail_range(sizes: np.ndarray, floor: float = 10.0) -> tuple[float, float]:
    """Fit window for tail exponents: one decade starting just above the
    small-size discreteness threshold.

    Sizes below ``floor`` take too few distinct values for a meaningful
    power-law reading, while at desk scale the largest decade sits in the
    finite-size cutoff and measures the cutoff rather than the scaling
    region. The window therefore starts at ``max(floor, 25th percentile)``
    and spans one decade.
    """
    arr = np.asarray(sizes, dtype=float)
    arr = arr[arr > 0]
    if arr.size < 8:
        raise ValueError("too few sizes to place a tail window")
    low = max(floor, float(np.percentile(arr, 25.0)))
    return (low, 10.0 * low)


def fit_power_law_tail(ccdf_points, fit_range: tuple[float, float],
                       n_total: int | None = None) -> tuple[FitResult, FitResult]:
    """Tail exponent of a CCDF by two routes: log-log OLS and a Hill-type MLE.

    OLS regresses log P on log size over ``fit_range``; the reported exponent
    is minus the slope. Its ``std_error`` is the regression's residual
    standard error of the slope. CCDF points are cumulative, hence strongly
    correlated, so it is not a sampling error of the exponent. The MLE
    treats every observation above ``fit_range[0]`` as tail data:
    alpha = 1 / mean(log(x / x_min)), weighted by the point masses recovered
    from the CCDF, with standard error alpha / sqrt(n_tail). Pass
    ``n_total`` (the population size behind the CCDF) so the tail count and
    the MLE error are exact.
    """
    pts = np.asarray(ccdf_points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("ccdf points must be rows of (size, probability)")
    low, high = float(fit_range[0]), float(fit_range[1])
    if not 0 < low < high:
        raise ValueError("fit_range must be positive and increasing")
    x, prob = pts[:, 0], pts[:, 1]
    if x.min() <= 0:
        raise ValueError("sizes must be positive")

    window = (x >= low) & (x <= high) & (prob > 0)
    if window.sum() < 3:
        raise ValueError("fewer than 3 CCDF points inside the fit range")
    slope, _, se = _ols(np.log(x[window]), np.log(prob[window]))
    ols = FitResult(-slope, se, (low, high), FitMethod.LOG_LOG_OLS, int(window.sum()))

    tail = x >= low
    if tail.sum() < 3:
        raise ValueError("fewer than 3 CCDF points above the tail cutoff")
    x_tail, p_tail = x[tail], prob[tail]
    mass = np.empty_like(p_tail)
    mass[:-1] = p_tail[:-1] - p_tail[1:]
    mass[-1] = p_tail[-1]
    total_mass = mass.sum()
    mean_log = float(mass @ np.log(x_tail / low)) / total_mass
    if mean_log <= 0:
        raise ValueError("tail has no spread above the cutoff")
    alpha = 1.0 / mean_log
    n_tail = int(round(total_mass * n_total)) if n_total else int(tail.sum())
    mle = FitResult(alpha, alpha / math.sqrt(n_tail),
                    (low, float(x_tail.max())), FitMethod.DISCRETE_MLE, n_tail)
    return ols, mle


@dataclass(frozen=True)
class SizeBinStats:
    """Growth-rate dispersion of one logarithmic size bin."""

    bin_low: float
    bin_high: float
    sigma_g: float
    tent_slope: float
    count: int
    geo_mean_size: float


# Growth-rate histogram: linear bins over [0, _G_MAX]; rates above _G_MAX go
# to an overflow bin. Size bins with fewer than _MIN_COUNT records are not
# reported, and the tent slope is read inside _TENT_WINDOW of |g - 1|.
_G_BINS = 101
_G_MAX = 2.0
_EDGES = np.linspace(0.0, _G_MAX, _G_BINS + 1)
# Upper edge of each bin for the index's upward step; the last bin takes
# everything above, and no rate compares >= NaN.
_UPPER = np.append(_EDGES[1:-1], np.nan)
_TENT_WINDOW = (0.02, 0.5)
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


def _tent_slope(hist_counts: np.ndarray, count: int) -> float:
    # Log density against |g - 1| inside the tent window; the slope is the
    # Laplacian-style decay rate used to read off sigma(n) from plots.
    dev = np.abs(0.5 * (_EDGES[:-1] + _EDGES[1:]) - 1.0)
    widths = np.diff(_EDGES)
    lo, hi = _TENT_WINDOW
    sel = (dev >= lo) & (dev <= hi) & (hist_counts > 0)
    if sel.sum() < 3:
        return float("nan")
    dens = hist_counts[sel] / (count * widths[sel])
    slope, _, _ = _ols(dev[sel], np.log(dens))
    return slope


class GrowthAccumulator:
    """Streaming growth statistics: aggregate histogram plus per-size-bin
    dispersion, with memory independent of the number of records.

    One table holds a row per logarithmic size bin: the counts of its growth
    rates per histogram bin (rates above ``_G_MAX`` clamped into the last
    one), then the sums of g, g**2 and log(size). ``min_size`` drops records
    of firms below the threshold; their growth rates only take a handful of
    discrete values and would distort both the histogram and the dispersion
    estimates.
    """

    def __init__(self, min_size: float = 10, bins_per_decade: float = 1.0):
        self.min_size = min_size
        self.bins_per_decade = float(bins_per_decade)
        self.overflow = 0
        self.g_max = _G_MAX
        self._k0 = 0  # size bin of the table's first row; the table grows both ways
        self._table = np.zeros((0, _G_BINS + 3))

    @property
    def total(self) -> int:
        return int(self._table[:, :_G_BINS].sum())

    def update(self, batch: GrowthBatch) -> None:
        before, after = batch.records(self.min_size)
        if before.size == 0:
            return
        g = after / before
        over = g > _G_MAX
        if over.any():
            self.overflow += int(over.sum())
            self.g_max = max(self.g_max, float(g[over].max()))
        g_bin = _growth_bin(g)

        ks = np.floor(self.bins_per_decade * np.log10(before)).astype(np.int64)
        rows = ks - self._k0
        below = max(-int(rows.min()), 0)
        above = max(int(rows.max()) + 1 - len(self._table), 0)
        if below or above:  # new size bins: extend the table
            self._table = np.pad(self._table, ((below, above), (0, 0)))
            self._k0 -= below
            rows += below
        n_rows = len(self._table)
        self._table[:, :_G_BINS] += np.bincount(
            rows * _G_BINS + g_bin, minlength=n_rows * _G_BINS).reshape(n_rows, _G_BINS)
        for col, weights in enumerate((g, g * g, np.log(before)), start=_G_BINS):
            self._table[:, col] += np.bincount(rows, weights, n_rows)

    def histogram(self) -> Histogram:
        """Normalized density of growth rates g = size_after / size_before.

        Linear bins over [0, ``_G_MAX``] plus one overflow bin when rates
        exceed the range.
        """
        total = self.total
        if total == 0:
            raise ValueError("no growth records survive the size filter")
        edges, counts = _EDGES, self._table[:, :_G_BINS].sum(axis=0)
        counts[-1] -= self.overflow
        if self.overflow:
            edges = np.append(edges, max(self.g_max, edges[-1] + edges[-1] - edges[-2]))
            counts = np.append(counts, self.overflow)
        densities = counts / (total * np.diff(edges))
        return Histogram(edges, densities, total)

    def binned(self) -> list[SizeBinStats]:
        """Growth dispersion per logarithmic size bin.

        Each bin with at least ``_MIN_COUNT`` records reports the standard
        deviation of g and the fitted tent slope of its growth histogram;
        sparser bins are dropped.
        """
        out = []
        bpd = self.bins_per_decade
        counts = self._table[:, :_G_BINS]
        for row in np.flatnonzero(counts.sum(axis=1) >= _MIN_COUNT):
            k = self._k0 + int(row)
            count = int(counts[row].sum())
            sum_g, sum_g2, sum_log_n = self._table[row, _G_BINS:]
            var = (sum_g2 - sum_g * sum_g / count) / (count - 1)
            out.append(SizeBinStats(
                bin_low=10.0 ** (k / bpd),
                bin_high=10.0 ** ((k + 1) / bpd),
                sigma_g=math.sqrt(max(var, 0.0)),
                tent_slope=_tent_slope(counts[row], count),
                count=count,
                geo_mean_size=math.exp(sum_log_n / count),
            ))
        return out


def fit_beta(binned: Sequence[SizeBinStats]) -> FitResult:
    """Scaling exponent of growth dispersion: sigma(n) ~ n**-beta.

    Log-log OLS of the per-bin standard deviation against the bin's geometric
    mean size; beta is minus the slope.
    """
    if len(binned) < 3:
        raise ValueError("need at least 3 size bins to fit beta")
    x = np.log([b.geo_mean_size for b in binned])
    y = np.log([b.sigma_g for b in binned])
    slope, _, se = _ols(x, y)
    lo = min(b.bin_low for b in binned)
    hi = max(b.bin_high for b in binned)
    return FitResult(-slope, se, (lo, hi), FitMethod.LOG_LOG_OLS, len(binned))


_DEV_BINS = 24


class DeviationAccumulator:
    """Streaming histogram of the growth deviation |g - 1| on logarithmic bins.

    The estimator of choice for reading the tent's log-log slope: the growth
    rates of discrete firms live on lattices of spacing 1/size, and
    logarithmic deviation bins absorb those atoms into a consistent density
    where fixed-width bins around g = 1 alias them. ``_DEV_BINS`` bins span
    ``d_range``, and records of firms of every positive size count.
    """

    def __init__(self, d_range: tuple[float, float] = (0.02, 0.45)):
        self.edges = np.logspace(math.log10(d_range[0]), math.log10(d_range[1]),
                                 _DEV_BINS + 1)
        self.counts = np.zeros(_DEV_BINS, dtype=np.int64)

    def update(self, batch: GrowthBatch) -> None:
        before, after = batch.records()
        if before.size == 0:
            return
        dev = np.abs(after / before - 1.0)
        self.counts += np.histogram(dev, bins=self.edges)[0]

    def histogram(self) -> Histogram:
        total = int(self.counts.sum())
        if total == 0:
            raise ValueError("no growth deviations inside the histogram range")
        return Histogram(self.edges, self.counts / (total * np.diff(self.edges)), total)


def central_tent_slope(hist: Histogram, window: tuple[float, float] = (0.02, 0.3)
                       ) -> tuple[float, float, int]:
    """Log-log slope of density against |g - 1| near the peak.

    A value of -1 is the hallmark of the 1/|g-1| tent produced by mixing
    Gaussian growth over a broad size distribution. Takes a
    :class:`DeviationAccumulator` histogram (logarithmic bins in |g - 1|) and
    reads each bin at its geometric centre. Returns (slope, std error,
    points used).
    """
    dev = np.sqrt(hist.bin_edges[:-1] * hist.bin_edges[1:])
    sel = (dev >= window[0]) & (dev <= window[1]) & (hist.densities > 0)
    if sel.sum() < 3:
        raise ValueError("fewer than 3 populated bins inside the slope window")
    slope, _, se = _ols(np.log(dev[sel]), np.log(hist.densities[sel]))
    return slope, se, int(sel.sum())
