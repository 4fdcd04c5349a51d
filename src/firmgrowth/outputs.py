"""What one seed of a run writes, and the size analytics ``analyze`` writes.

A seed's outputs are fed in step order: its snapshots as the run reaches
them, its growth batches into a ``GrowthAccumulator``, and at the end its
final sizes, whose size analytics are written beside the growth analytics.
The same object writes them in the simulating process or in a forked child
(``forked.py``), so the bytes do not depend on which.
"""
from __future__ import annotations

from pathlib import Path

from . import analytics, io
from .model import GrowthBatch


def write_size_analytics(outdir: Path, snap: analytics.SizeSnapshot):
    """Write ``ccdf.csv`` and, when the tail window holds enough firms,
    ``fit.csv``. Returns the written paths and the tail fits (None if skipped)."""
    files = [outdir / "ccdf.csv"]
    io.write_ccdf(files[0], analytics.ccdf(snap))
    try:
        window = analytics.default_tail_range(snap)
        fits = analytics.fit_power_law_tail(snap, window)
    except ValueError:
        return files, None  # too few firms in the tail window, nothing to report
    files.append(outdir / "fit.csv")
    io.write_fits(files[1], fits)
    return files, fits


def _write_analytics(outdir: Path, snap: analytics.SizeSnapshot,
                     acc: analytics.GrowthAccumulator) -> list[Path]:
    files, _ = write_size_analytics(outdir, snap)
    if acc.total:  # some growth records survived the size filter
        path = outdir / "growth_hist.csv"
        io.write_growth_hist(path, acc.histogram())
        files.append(path)

    binned = acc.binned()
    if binned:
        path = outdir / "binned_sigma.csv"
        io.write_binned_sigma(path, binned)
        files.append(path)
    try:
        beta = analytics.fit_beta(binned)
    except ValueError:
        return files  # fewer than 3 populated size bins, nothing to fit
    path = outdir / "beta_fit.csv"
    io.write_fits(path, [beta])
    files.append(path)
    return files


class SeedOutputs:
    """The files of one seed under ``root``, in ``seed_<seed>``, and the
    sha256 of each. Growth records of firms below ``min_size`` are dropped."""

    def __init__(self, root: Path, seed: int, min_size: float):
        self.root = root
        self.seed_dir = root / f"seed_{seed:05d}"
        self.acc = analytics.GrowthAccumulator(min_size=min_size)
        self.digests: dict[Path, str] = {}

    def growth(self, batch: GrowthBatch) -> None:
        self.acc.update(batch)

    def snapshot(self, t: int, sizes, outputs, solds) -> None:
        # hashed now, so that a forked child hashes while the parent steps on
        path = self.seed_dir / f"snapshot_t{t}.csv"
        io.write_snapshot(path, t, sizes, outputs, solds)
        self.digests[path] = io.sha256_file(path)

    def finish(self, sizes) -> list[tuple[str, str]]:
        """Write the analytics of the final ``sizes``; returns (path relative
        to ``root``, sha256) pairs in path order."""
        snap = analytics.SizeSnapshot.from_values(sizes)
        for path in _write_analytics(self.seed_dir, snap, self.acc):
            self.digests[path] = io.sha256_file(path)
        return [(p.relative_to(self.root).as_posix(), digest)
                for p, digest in sorted(self.digests.items())]
