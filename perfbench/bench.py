"""In-process part of the benchmark: timed runs, the output gate and tracing.

Each run goes through the public ``cli.RunSpec`` -> ``cli.run`` path with one
seed and one worker. Tracing wraps the entry points of the package layers
from here; nothing inside ``src/`` is changed, and every wrapper is removed
again when a traced run ends.
"""
from __future__ import annotations

import collections
import contextlib
import csv
import functools
import hashlib
import io as _stdio
import itertools
import os
import platform
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from firmgrowth import analytics, cli, io, model  # noqa: E402

from metrics import LAYERS  # noqa: E402
from workloads import make_spec  # noqa: E402

# ----------------------------------------------------------------- probes
# A probe reads the numbers a metric needs from a traced call's arguments
# and result. Its cost is booked to the tracer, not to the layer or caller.

def _bind_probe(args, result):
    return float(int(np.sum(args[0])) > int(args[1]))


def _count_probe(args, result):
    return float(result)


def _moves_probe(args, result):
    return float(args[1])


def _rows_probe(args, result):
    return float(np.size(args[2]))


def _update_probe(args, result):
    acc, records = args[0], args[1]
    if isinstance(records, model.GrowthBatch):
        before = records.size_before
    else:
        before = np.asarray(records[0], dtype=float)
    kept = before[(before >= (acc.min_size or 0)) & (before > 0)]
    bins = np.unique(np.floor(acc.bins_per_decade * np.log10(kept))).size
    return (float(before.size), float(bins))


def _targets():
    """(owner, attribute, span name, probe) for every traced entry point.

    Names bound by ``from ... import`` are patched in the module that calls
    them; ``analytics.*`` and ``io.*`` are patched on the module, which
    ``cli`` reads at call time. ``io.fmt`` is left out: it runs once per
    CSV value, and a span per value would dwarf the work it measures.
    """
    return [
        (model, "substream", "rng.substream", None),
        (cli, "substream", "rng.substream", None),
        (model, "round_array", "model.round_array", None),
        (model, "allocate_market", "model.allocate_market", _bind_probe),
        (model, "replace_extinct", "model.replace_extinct", _count_probe),
        (model, "per_unit_offer_array", "model.per_unit_offer_array", None),
        (model.Economy, "step", "model.Economy.step", None),
        (cli, "step_additive", "baselines.step_additive", None),
        (cli, "step_scaled_beta", "baselines.step_scaled_beta", None),
        (cli, "step_marsili_sequential", "baselines.step_marsili_sequential", _moves_probe),
        (analytics.GrowthAccumulator, "update", "analytics.GrowthAccumulator.update",
         _update_probe),
        (analytics.GrowthAccumulator, "histogram", "analytics.GrowthAccumulator.histogram",
         None),
        (analytics.GrowthAccumulator, "binned", "analytics.GrowthAccumulator.binned", None),
        (analytics.SizeSnapshot, "from_values", "analytics.SizeSnapshot.from_values", None),
        (analytics, "ccdf", "analytics.ccdf", None),
        (analytics, "default_tail_range", "analytics.default_tail_range", None),
        (analytics, "fit_power_law_tail", "analytics.fit_power_law_tail", None),
        (analytics, "fit_beta", "analytics.fit_beta", None),
        (io, "write_snapshot", "io.write_snapshot", _rows_probe),
        (io, "write_ccdf", "io.write_ccdf", None),
        (io, "write_growth_hist", "io.write_growth_hist", None),
        (io, "write_binned_sigma", "io.write_binned_sigma", None),
        (io, "write_fits", "io.write_fits", None),
        (io, "write_manifest", "io.write_manifest", None),
        (io, "sha256_file", "io.sha256_file", None),
    ]


# Span record fields: name, start, end, parent index, run id, tracer
# overhead (s), probe value.
NAME, START, END, PARENT, RUN, OVERHEAD, VALUE = range(7)


class Tracer:
    """Spans around the layer entry points, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.runs: dict[int, tuple[int, int]] = {}  # run id -> span index range
        self._stack = [-1]

    @contextlib.contextmanager
    def active(self, run_id: int):
        """Install every wrapper for one run; the originals return on exit."""
        lo = len(self.spans)
        installed = []
        try:
            for owner, attr, name, probe in _targets():
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(original.__func__, name, probe, run_id))
                else:
                    wrapped = self._wrap(original, name, probe, run_id)
                setattr(owner, attr, wrapped)
                installed.append((owner, attr, original))
            yield self
        finally:
            while installed:
                owner, attr, original = installed.pop()
                setattr(owner, attr, original)
            self.runs[run_id] = (lo, len(self.spans))

    def _wrap(self, fn, name, probe, run_id):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            rec = [name, 0.0, 0.0, stack[-1], run_id, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = clock()
                stack.pop()
                rec[START], rec[END] = t1, t2
            if probe is not None:
                rec[VALUE] = probe(args, result)
            rec[OVERHEAD] = (t1 - t0) + (clock() - t2)
            return result

        return traced

    def write(self, path: Path) -> None:
        """Write every span as CSV, times relative to the first span."""
        t_ref = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(("run_id", "span_id", "parent_id", "name", "start_s", "end_s"))
            for i, rec in enumerate(self.spans):
                out.writerow((rec[RUN], i, rec[PARENT], rec[NAME],
                              f"{rec[START] - t_ref:.9f}", f"{rec[END] - t_ref:.9f}"))


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, run_id: int, wall_s: float, iterations: int) -> dict:
    """Per-layer numbers of one traced run.

    A span's self time is its duration minus its children's durations and
    their tracer overhead. ``<layer>.layer_self_ms``, ``trace.self_ms`` and
    ``cli.self_ms`` (the rest of the wall time) sum to ``trace.run_s``.
    """
    lo, hi = tracer.runs[run_id]
    spans = tracer.spans
    child_cost = collections.Counter()
    for i in range(lo, hi):
        rec = spans[i]
        if rec[PARENT] >= 0:
            child_cost[rec[PARENT]] += rec[END] - rec[START] + rec[OVERHEAD]
    dur = collections.defaultdict(list)
    self_s = collections.Counter()
    values = collections.defaultdict(list)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    overhead = 0.0
    for i in range(lo, hi):
        rec = spans[i]
        name = rec[NAME]
        d = rec[END] - rec[START]
        own = d - child_cost[i]
        dur[name].append(d)
        self_s[name] += own
        layer_self[name.split(".", 1)[0]] += own
        overhead += rec[OVERHEAD]
        if rec[VALUE] is not None:
            values[name].append(rec[VALUE])

    n = iterations
    per_iter_ms = 1e3 / n
    sub = dur["rng.substream"]
    step = dur["model.Economy.step"]
    alloc = dur["model.allocate_market"]
    base = [d for name in ("baselines.step_additive", "baselines.step_scaled_beta",
                           "baselines.step_marsili_sequential") for d in dur[name]]
    upd = dur["analytics.GrowthAccumulator.update"]
    records = sum(r for r, _ in values["analytics.GrowthAccumulator.update"])
    bins = sum(b for _, b in values["analytics.GrowthAccumulator.update"])
    finalize = sum(own for name, own in self_s.items()
                   if name.startswith("analytics.") and not name.endswith(".update"))
    snap = dur["io.write_snapshot"]
    rows = sum(values["io.write_snapshot"])
    moves = sum(values["baselines.step_marsili_sequential"])
    cli_self = wall_s - sum(layer_self.values()) - overhead

    return {
        "rng.substream_us": _ratio(sum(sub), len(sub)) * 1e6,
        "rng.substream_per_iter": len(sub) / n,
        "model.step_ms_p50": _percentile(step, 50) * 1e3,
        "model.step_ms_p90": _percentile(step, 90) * 1e3,
        "model.self_ms": self_s["model.Economy.step"] * per_iter_ms,
        "model.allocate_ms": sum(alloc) * per_iter_ms,
        "model.offer_ms": sum(dur["model.per_unit_offer_array"]) * per_iter_ms,
        "model.allocate_bind_frac": _ratio(sum(values["model.allocate_market"]), len(alloc)),
        "model.replace_ms": sum(dur["model.replace_extinct"]) * per_iter_ms,
        "model.entrants_per_iter": sum(values["model.replace_extinct"]) / n,
        "model.round_ms": sum(dur["model.round_array"]) * per_iter_ms,
        "model.round_calls_per_iter": len(dur["model.round_array"]) / n,
        "baselines.step_ms_p50": _percentile(base, 50) * 1e3,
        "baselines.step_ms_p90": _percentile(base, 90) * 1e3,
        "baselines.us_per_move": _ratio(sum(dur["baselines.step_marsili_sequential"]),
                                        moves) * 1e6,
        "analytics.update_us": _ratio(sum(upd), len(upd)) * 1e6,
        "analytics.records_per_update": _ratio(records, len(upd)),
        "analytics.ns_per_record": _ratio(sum(upd), records) * 1e9,
        "analytics.size_bins_per_update": _ratio(bins, len(upd)),
        "analytics.finalize_ms": finalize * 1e3,
        "io.snapshot_ms": _ratio(sum(snap), len(snap)) * 1e3,
        "io.us_per_row": _ratio(sum(snap), rows) * 1e6,
        "io.hash_ms": sum(dur["io.sha256_file"]) * 1e3,
        **{f"{layer}.layer_self_ms": s * per_iter_ms for layer, s in layer_self.items()},
        "cli.self_ms": cli_self * per_iter_ms,
        "trace.self_ms": overhead * per_iter_ms,
        "trace.run_s": wall_s,
    }


# ------------------------------------------------------------ output gate

def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_outputs(spec) -> list[str]:
    """Problems with one finished run's outputs; empty when they are correct.

    The manifest must list at least one file and match the sha256 of each;
    employment in every snapshot stays within ``n_workers``; a Marsili run
    ends with exactly ``n_workers`` workers. Employment counts the firms that
    produced: ``replace_extinct`` gives a ScenarioI entrant its starting size
    but no output, and its workers are only hired in the next job market.
    """
    seed = spec.seeds[0]
    kind, cfg = cli.materialize(spec, seed)
    manifest = spec.output_dir / "manifest.csv"
    if not manifest.is_file():
        return ["manifest.csv is missing"]
    with open(manifest, newline="") as fh:
        files = [(row["name"], row["value"]) for row in csv.DictReader(fh)
                 if row["kind"] == "file"]
    if not files:
        return ["manifest.csv lists no files"]
    problems = []
    for rel, digest in files:
        path = spec.output_dir / rel
        if not path.is_file():
            problems.append(f"{rel}: listed in the manifest but missing")
        elif _sha256(path) != digest:
            problems.append(f"{rel}: sha256 differs from the manifest")
        elif Path(rel).name.startswith("snapshot_t"):
            with open(path, newline="") as fh:
                rows = [(float(row["size"]), float(row["output"])) for row in csv.DictReader(fh)]
            t = int(Path(rel).stem.split("_t")[1])
            if kind == "marsili":
                total = sum(size for size, _ in rows)
                if total > cfg.n_workers or (t == cfg.iterations and total != cfg.n_workers):
                    problems.append(f"{rel}: sizes sum to {total:g}, not {cfg.n_workers}")
            else:
                employed = sum(size for size, output in rows if output > 0)
                if employed > cfg.n_workers:
                    problems.append(
                        f"{rel}: employment {employed:g} exceeds n_workers {cfg.n_workers}")
    return problems


# ------------------------------------------------------------- measurement

MIN_RUNS = 2  # of each kind, untraced and traced

@dataclass
class Run:
    wall_s: float
    traced: bool
    fingerprint: str | None
    problems: list[str] = field(default_factory=list)
    bytes_written: int = 0


def run_once(spec, tracer: Tracer | None = None, run_id: int = 0) -> Run:
    """One complete ``cli.run`` into a fresh output directory, then the gate."""
    shutil.rmtree(spec.output_dir, ignore_errors=True)
    traced = tracer is not None
    scope = tracer.active(run_id) if traced else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with scope, contextlib.redirect_stdout(_stdio.StringIO()):
            cli.run(spec)
    except Exception as exc:  # noqa: BLE001 - a raising run is a failed run
        return Run(time.perf_counter() - t0, traced, None,
                   [f"raised {type(exc).__name__}: {exc}"])
    wall = time.perf_counter() - t0
    problems = check_outputs(spec)
    manifest = spec.output_dir / "manifest.csv"
    fingerprint = _sha256(manifest) if manifest.is_file() else None
    written = sum(p.stat().st_size for p in spec.output_dir.rglob("*") if p.is_file())
    return Run(wall, traced, fingerprint, problems, written)




def measure(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path,
            tiny: bool = False) -> dict:
    """Repeat one workload for ``seconds`` and gate every run's outputs.

    With ``trace`` untraced and traced runs alternate, so that a drift in
    machine speed reaches both alike. All runs use the same seed, so their
    fingerprints must agree.
    """
    out_dir = Path(out_dir)
    spec = make_spec(workload, seed, out_dir / "run", tiny=tiny)
    iterations = cli.materialize(spec, seed)[1].iterations
    tracer = Tracer() if trace else None
    schedule = [None, tracer] if trace else [None]
    runs: list[Run] = []
    # Start no run that the last one says would end past the budget.
    start = last = time.perf_counter()
    for done in itertools.count():
        now = time.perf_counter()
        if done >= MIN_RUNS * len(schedule) and now + (now - last) > start + seconds:
            break
        last = now
        runs.append(run_once(spec, schedule[done % len(schedule)], run_id=done))
    shutil.rmtree(spec.output_dir, ignore_errors=True)

    untraced = [r for r in runs if not r.traced]
    fingerprints = collections.Counter(r.fingerprint for r in untraced if r.fingerprint)
    reference = fingerprints.most_common(1)[0][0] if fingerprints else None
    for r in runs:
        if r.fingerprint is not None and r.fingerprint != reference:
            r.problems.append("traced fingerprint differs from the untraced one" if r.traced
                              else "fingerprint differs from the other runs")

    run_s = float(np.median([r.wall_s for r in untraced]))
    result = {
        "workload": workload,
        "seed": seed,
        "iterations": iterations,
        "fingerprint": reference,
        "attempted": len(runs),
        "failed": sum(1 for r in runs if r.problems),
        "problems": sorted({p for r in runs for p in r.problems}),
        "run_walls_s": [r.wall_s for r in untraced],
        "run_s": run_s,
        "iters_per_s": iterations / run_s,
    }
    if trace:
        traced = sorted((i for i, r in enumerate(runs) if r.traced),
                        key=lambda i: runs[i].wall_s)
        run_id = traced[(len(traced) - 1) // 2]  # the traced run of median wall time
        layers = layer_metrics(tracer, run_id, runs[run_id].wall_s, iterations)
        layers["io.bytes_written"] = float(runs[run_id].bytes_written)
        layers["trace.overhead_frac"] = (
            float(np.median([runs[i].wall_s for i in traced])) / run_s - 1.0)
        result["layers"] = layers
        result["spans"] = len(tracer.spans)
        tracer.write(out_dir / "spans.csv")
    return result


def environment() -> dict:
    """Software and hardware the numbers were taken on."""
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }
