"""CSV emission with stable formatting, plus content hashing for manifests.

Every float is rendered with 9 significant digits and files always use LF
line endings, so identical runs produce byte-identical outputs on any
platform.
"""
from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .analytics import FitResult, Histogram, SizeBinStats

# write_snapshot formats and writes this many rows at a time, so its memory
# does not grow with the table; a 2,000-row ScenarioII snapshot is one block.
_BLOCK_ROWS = 2048


def fmt(x) -> str:
    """Render a number with 9 significant digits."""
    return format(float(x), ".9g")


def write_rows(path: Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _int_column(col: np.ndarray) -> bool:
    """Whether "%d" writes every value of an int or float column as "%.9g"
    does: all integral and below 1e9 in magnitude, with no -0.0 ("-0")."""
    if col.dtype.kind == "i":
        return bool(((col > -10**9) & (col < 10**9)).all())
    return bool((np.abs(col) < 1e9).all() and (col == np.floor(col)).all()
                and not np.signbit(col[col == 0]).any())


def write_snapshot(path: Path, t: int, sizes, outputs, solds) -> None:
    # "%.9g" renders a float as fmt() does, so one format over a block of
    # rows writes the same bytes as fmt() per field; "%d" on Python ints
    # writes the columns that allow it faster. Each block picks its own
    # formats, and "%d" only where it writes what "%.9g" would, so the bytes
    # do not depend on where a block starts. A column that is the array of
    # the column before it (ScenarioI's sold is its output, a noise process's
    # output is its sold) reuses that column's format and values.
    columns = [np.asarray(col) for col in (sizes, outputs, solds)]
    n = columns[0].size
    with open(path, "w", newline="") as fh:
        fh.write("t,firm_id,size,output,sold\n")
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n)
            formats, fields = ["%d"], [None] * (4 * (stop - start))
            fields[0::4] = range(start, stop)
            for j, col in enumerate(columns, start=1):
                if j == 1 or col is not columns[j - 2]:
                    block = col[start:stop]
                    if block.dtype.kind != "i":
                        block = block.astype(float, copy=False)
                    if _int_column(block):
                        form, values = "%d", block.astype(np.int64).tolist()
                    else:
                        form, values = "%.9g", block.astype(float, copy=False).tolist()
                formats.append(form)
                fields[j::4] = values
            row = f"{t}," + ",".join(formats) + "\n"
            fh.write((row * (stop - start)) % tuple(fields))


def read_snapshot_sizes(path: Path) -> np.ndarray:
    """The size column of a snapshot file; empty when it holds no row.

    Blank rows are skipped and every other row below the header must parse,
    so numpy is never handed a table without data (it would warn)."""
    rows = [row for row in Path(path).read_text().splitlines()[1:] if row.strip()]
    sizes = (np.loadtxt(rows, delimiter=",", usecols=2, ndmin=1, comments=None)
             if rows else np.empty(0))
    if not ((sizes >= 0) & (sizes < np.inf)).all():
        raise ValueError("a size is negative or not a finite number")
    return sizes


def write_ccdf(path: Path, points: np.ndarray) -> None:
    write_rows(path, ("size", "prob"), ((fmt(x), fmt(p)) for x, p in points))


def write_growth_hist(path: Path, hist: Histogram) -> None:
    log_d = hist.log_densities()
    rows = (
        (fmt(hist.bin_edges[i]), fmt(hist.bin_edges[i + 1]),
         fmt(hist.densities[i]), fmt(log_d[i]))
        for i in range(hist.densities.size)
    )
    write_rows(path, ("bin_low", "bin_high", "density", "log_density"), rows)


def write_binned_sigma(path: Path, stats: Sequence[SizeBinStats]) -> None:
    rows = (
        (fmt(s.bin_low), fmt(s.bin_high), fmt(s.sigma_g), str(s.count)) for s in stats
    )
    write_rows(path, ("bin_low", "bin_high", "sigma", "count"), rows)


def write_fits(path: Path, fits: Sequence[FitResult]) -> None:
    rows = (
        (f.method.value, fmt(f.exponent), fmt(f.std_error),
         fmt(f.fit_range[0]), fmt(f.fit_range[1]), str(f.n_points))
        for f in fits
    )
    write_rows(path, ("method", "exponent", "std_error", "range_low", "range_high",
                      "n_points"), rows)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path: Path, config_rows: Sequence[tuple[str, str, str, str]],
                   file_rows: Sequence[tuple[str, str, str, str]]) -> str:
    """Write the run manifest and return its own content hash."""
    write_rows(path, ("seed", "kind", "name", "value"),
               list(config_rows) + list(file_rows))
    return sha256_file(path)
