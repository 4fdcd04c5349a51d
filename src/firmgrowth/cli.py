"""Command line harness: presets, deterministic runs, CSV emission.

Subcommands: ``run`` simulates a preset for one or more seeds and writes
snapshot, distribution and fit CSVs plus a content-hash manifest; ``analyze``
recomputes size-distribution analytics from existing snapshot CSVs;
``oracle`` prints the exact next-size pmf and the theoretical growth-density
tables.
"""
from __future__ import annotations

import enum
import math
import re
import sys
import typing
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path

import numpy as np

from . import analytics, io, theory
from .baselines import (BaselineConfig, step_additive, step_marsili_sequential,
                        step_scaled_beta)
from .model import Economy, GrowthBatch, ModelConfig, Rounding, Scenario
from .rng import substream


class ConfigError(ValueError):
    """Invalid configuration input; maps to exit code 1."""


# ScaledBeta's growth dispersion at size 1, sqrt(mu) / (1 + mu) at mu = 0.1.
# Its square, mu / (1 + mu)**2 = 0.0826, is the probability of each +-1
# outcome of a size-1 firm in a per-unit market of margin mu
# (theory.job_count_pmf_oracle(1, 0.1)): half that market's one-step variance
# at size 1, 2 mu / (1 + mu)**2 = 0.165.
_SCALED_SIGMA = math.sqrt(0.1) / 1.1

# The seed is a run key: each seed of a run materializes its own config.
_MODEL_KEYS = frozenset(f.name for f in dc_fields(ModelConfig)) - {"seed"}
_BASELINE_KEYS = frozenset(f.name for f in dc_fields(BaselineConfig)) - {"seed"}


@dataclass(frozen=True)
class Preset:
    kind: str  # "model", "additive", "scaled", "marsili"
    defaults: dict
    keys: frozenset


PRESETS: dict[str, Preset] = {
    "ScenarioI": Preset("model", dict(
        scenario=Scenario.FIRMS_CONSUME, rounding=Rounding.PER_UNIT,
        n_firms=10_000, n_workers=1_000_000, margin=0.2, iterations=4000,
    ), _MODEL_KEYS - {"scenario"}),
    "ScenarioII": Preset("model", dict(
        scenario=Scenario.WORKERS_ONLY_CONSUME, rounding=Rounding.PROBABILISTIC,
        n_firms=2000, n_workers=90_000, margin=0.1, iterations=5000,
    ), _MODEL_KEYS - {"scenario"}),
    "Custom": Preset("model", dict(
        n_firms=100, n_workers=5000, iterations=500,
    ), _MODEL_KEYS),
    "Additive": Preset("additive", dict(
        n_units=1000, n_workers=100_000, sigma=1.0, iterations=2000,
    ), _BASELINE_KEYS - {"beta", "move_fraction"}),
    "Multiplicative": Preset("scaled", dict(
        n_units=10_000, n_workers=500_000, sigma=0.2, iterations=4000,
    ), _BASELINE_KEYS - {"beta", "move_fraction"}),
    "ScaledBeta": Preset("scaled", dict(
        n_units=10_000, n_workers=1_000_000, sigma=_SCALED_SIGMA, beta=0.25,
        iterations=3000,
    ), _BASELINE_KEYS - {"move_fraction"}),
    "MarsiliSequential": Preset("marsili", dict(
        n_units=500, n_workers=50_000, move_fraction=0.05, iterations=300,
    ), _BASELINE_KEYS - {"sigma", "beta"}),
}


@dataclass
class RunSpec:
    """One resolved run request: a preset plus overrides, seeds and outputs."""

    preset: str = "Custom"
    overrides: dict = field(default_factory=dict)
    output_dir: Path = Path("out")
    snapshot_times: list[int] | None = None
    seeds: list[int] = field(default_factory=lambda: [1])
    workers: int = 1
    min_size: float = 10.0


def _parse_enum(enum_cls):
    def parse(raw: str):
        for member in enum_cls:
            if raw.lower() in (member.value.lower(), member.name.lower()):
                return member
        options = ", ".join(m.value for m in enum_cls)
        raise ValueError(f"expected one of {options}")
    return parse


def _parse_finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not a finite number")
    return value


_parse_finite.__name__ = "finite float"  # argparse names a flag's type by it


def _parse_int_list(raw: str) -> list[int]:
    return [int(part) for part in raw.replace(" ", "").split(",") if part]


_PARSERS = {
    "preset": str,
    "output_dir": Path,
    "seed": int,
    "seeds": _parse_int_list,
    "snapshot_times": _parse_int_list,
    "workers": int,
    "min_size": _parse_finite,
    # every model and baseline field, parsed by its declared type
    **{name: _parse_enum(kind) if issubclass(kind, enum.Enum)
       else {int: int, float: _parse_finite}[kind]
       for config in (ModelConfig, BaselineConfig)
       for name, kind in typing.get_type_hints(config).items()},
}


def _parse_lines(text: str) -> dict[str, tuple[str, int]]:
    """`key = value` lines with `#` comments; returns raw values with line numbers."""
    mapping: dict[str, tuple[str, int]] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        mapping[key] = (value, lineno)
    return mapping


def _resolve(mapping: dict[str, tuple[str, int]]) -> RunSpec:
    values: dict[str, object] = {}
    for key, (raw, lineno) in mapping.items():
        where = f"line {lineno}: " if lineno else ""
        parser = _PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"{where}unknown key '{key}'")
        try:
            values[key] = parser(raw)
        except ValueError as exc:
            raise ConfigError(f"{where}bad value for '{key}': {exc}") from None

    if "seed" in values:
        if "seeds" in values:
            raise ConfigError("give either 'seed' or 'seeds', not both")
        values["seeds"] = [values.pop("seed")]
    given = {f.name: values.pop(f.name) for f in dc_fields(RunSpec) if f.name in values}
    return RunSpec(**given, overrides=values)


def _seed_configs(spec: RunSpec) -> dict[int, tuple[str, object]]:
    """Check the spec and materialize each of its seeds: seed -> (kind, config)."""
    if spec.preset not in PRESETS:
        raise ConfigError(f"unknown preset '{spec.preset}'; options: {', '.join(PRESETS)}")
    if not spec.seeds or len(set(spec.seeds)) < len(spec.seeds):
        raise ConfigError("give one or more distinct seeds")
    if spec.workers < 1:
        raise ConfigError("workers must be at least 1")
    if spec.min_size < 1:
        raise ConfigError("min_size must be at least 1")
    return {seed: materialize(spec, seed) for seed in spec.seeds}


def parse_config(text: str) -> RunSpec:
    """Parse a `key = value` config file into a validated RunSpec."""
    spec = _resolve(_parse_lines(text))
    _seed_configs(spec)
    return spec


def materialize(spec: RunSpec, seed: int):
    """Build the concrete simulator config for one seed.

    Returns (kind, config) where kind names the simulator flavor.
    """
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed {seed} does not fit an unsigned 64-bit integer")
    preset = PRESETS[spec.preset]
    for key in spec.overrides:
        if key not in preset.keys:
            raise ConfigError(f"key '{key}' is not valid for preset {spec.preset}")
    merged = {**preset.defaults, **spec.overrides, "seed": seed}
    try:
        if preset.kind == "model":
            cfg = ModelConfig(**merged)
            if cfg.n_firms < 2:
                raise ValueError("n_firms must be at least 2")
        else:
            cfg = BaselineConfig(**merged)
            if preset.kind == "marsili" and cfg.n_workers < 2:
                raise ValueError("n_workers must be at least 2 for a worker to move")
            # One step's noise on one unit may not exceed the total that the
            # step's rescale conserves.
            if preset.kind == "additive" and cfg.sigma > cfg.n_workers:
                raise ValueError("sigma must be at most n_workers")
            if preset.kind == "scaled" and not 0 < cfg.sigma * cfg.sigma < math.inf:
                raise ValueError("sigma**2, the growth variance at size 1, "
                                 "overflows or underflows a float")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    times = _snapshot_times(spec, cfg)
    if sorted(times) != list(times) or any(t < 1 for t in times):
        raise ConfigError("snapshot_times must be ascending positive iterations")
    if times and times[-1] > cfg.iterations:
        raise ConfigError("snapshot_times may not exceed iterations")
    return preset.kind, cfg


def _snapshot_times(spec: RunSpec, cfg) -> list[int]:
    """Iterations after which a snapshot is written: the final one by default."""
    return spec.snapshot_times if spec.snapshot_times is not None else [cfg.iterations]


def _write_size_analytics(outdir: Path, snap: analytics.SizeSnapshot):
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
    files, _ = _write_size_analytics(outdir, snap)
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


class _NoiseProcess:
    """A reference noise process with ``Economy``'s stepping interface. It
    has no production cycle: ``output`` and ``sold`` are zeros."""

    def __init__(self, kind: str, cfg: BaselineConfig):
        self.kind, self.config, self.time = kind, cfg, 0
        self.size = cfg.initial_sizes(integer=kind != "additive")
        self.output = self.sold = np.zeros(cfg.n_units)

    def step(self) -> GrowthBatch:
        cfg, before = self.config, self.size
        rng, mean = substream(cfg.seed, 0, self.time), cfg.replacement_mean
        if self.kind == "marsili":
            moves = max(1, round(cfg.move_fraction * cfg.n_workers))
            self.size, ended = step_marsili_sequential(before, moves, rng, mean)
        elif self.kind == "additive":
            self.size, ended = step_additive(before, cfg.sigma, rng, mean)
        else:
            self.size, ended = step_scaled_beta(before, cfg.sigma ** 2, cfg.beta, rng, mean)
        self.time += 1
        return GrowthBatch(before, self.size, ended)


def _simulator(kind: str, cfg):
    """The simulator of one materialized config. Each has ``size``,
    ``output``, ``sold``, ``time`` and ``step() -> GrowthBatch``."""
    return Economy(cfg) if kind == "model" else _NoiseProcess(kind, cfg)


def _seed_job(spec: RunSpec, kind: str, cfg) -> list[tuple[str, str]]:
    """Simulate one materialized seed; returns (relative path, sha256) pairs."""
    times = set(_snapshot_times(spec, cfg))
    seed_dir = spec.output_dir / f"seed_{cfg.seed:05d}"
    seed_dir.mkdir(parents=True, exist_ok=True)
    sim = _simulator(kind, cfg)
    acc = analytics.GrowthAccumulator(min_size=spec.min_size)
    paths: list[Path] = []
    for t in range(1, cfg.iterations + 1):
        acc.update(sim.step())
        if t in times:
            paths.append(seed_dir / f"snapshot_t{t}.csv")
            io.write_snapshot(paths[-1], t, sim.size, sim.output, sim.sold)
    snap = analytics.SizeSnapshot.from_values(sim.size)
    paths += _write_analytics(seed_dir, snap, acc)
    return [(p.relative_to(spec.output_dir).as_posix(), io.sha256_file(p))
            for p in sorted(paths)]


def _naming_seed(seed: int, fn, *args):
    """``fn(*args)``; an error it raises is re-raised with the seed named."""
    try:
        return fn(*args)
    except Exception as exc:
        raise RuntimeError(f"seed {seed}: {exc}") from exc


def run(spec: RunSpec) -> int:
    """Simulate every seed of the spec and write the output manifest."""
    configs = _seed_configs(spec)  # an invalid spec fails before anything is written
    spec.output_dir.mkdir(parents=True, exist_ok=True)
    # An earlier run's manifest would list files this run overwrites.
    (spec.output_dir / "manifest.csv").unlink(missing_ok=True)
    results: dict[int, list[tuple[str, str]]] = {}
    # A forked pool starts all its workers at the first submit: no more than seeds.
    workers = min(spec.workers, len(spec.seeds))
    if workers > 1:
        import concurrent.futures  # only a run with a worker pool needs it

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {s: pool.submit(_seed_job, spec, *configs[s]) for s in spec.seeds}
            for seed, fut in futures.items():
                results[seed] = _naming_seed(seed, fut.result)
    else:
        for seed in spec.seeds:
            results[seed] = _naming_seed(seed, _seed_job, spec, *configs[seed])

    config_rows: list[tuple[str, str, str, str]] = [
        ("", "run", "preset", spec.preset),
        ("", "run", "min_size", io.fmt(spec.min_size)),
    ]
    file_rows: list[tuple[str, str, str, str]] = []
    for seed in spec.seeds:  # deterministic order regardless of pool scheduling
        _, cfg = configs[seed]
        for f in dc_fields(cfg):
            value = getattr(cfg, f.name)
            text = value.value if hasattr(value, "value") else str(value)
            config_rows.append((str(seed), "config", f.name, text))
        file_rows.extend((str(seed), "file", rel, digest)
                         for rel, digest in results[seed])
    manifest = spec.output_dir / "manifest.csv"
    digest = io.write_manifest(manifest, config_rows, file_rows)
    print(f"wrote {manifest} (sha256 {digest})")
    return 0


def analyze(input_dir: Path, output_dir: Path | None = None) -> int:
    """Recompute CCDF and tail fits from the latest snapshot CSV in a directory."""
    snapshots = [(int(m[1]), p) for p in input_dir.glob("snapshot_t*.csv")
                 if (m := re.fullmatch(r"snapshot_t([0-9]+)\.csv", p.name))]
    if not snapshots:
        raise ConfigError(f"no snapshot CSVs found in {input_dir}")
    t, latest = max(snapshots)
    try:
        snap = analytics.SizeSnapshot.from_values(io.read_snapshot_sizes(latest))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{latest}: {exc}") from None
    if len(snap) == 0:
        raise ConfigError(f"{latest} holds no positive size")
    outdir = output_dir if output_dir is not None else input_dir
    outdir.mkdir(parents=True, exist_ok=True)

    files, fits = _write_size_analytics(outdir, snap)
    print(f"wrote {files[0]} ({len(snap)} firms at t={t})")
    if fits is None:
        print("tail fit skipped: too few firms in the tail window")
    else:
        ols, mle = fits
        print(f"wrote {files[1]} (alpha OLS {ols.exponent:.3f}, MLE {mle.exponent:.3f})")
    return 0


def oracle(what: str, args) -> int:
    """Print oracle tables as CSV on stdout; ``args`` holds the parsed flags."""
    try:  # the oracles reject parameters outside their domain
        if what == "pmf":
            values = theory.job_count_pmf_oracle(args.size, args.margin)
            header, points = "k,probability", range(values.size)
        else:
            params = theory.TheoryParams(alpha=args.alpha, beta=args.beta,
                                         cutoff_n0=args.cutoff, c=args.scale)
            points = theory.default_growth_grid(args.g_min, args.g_max, args.points)
            header, values = "g,density", theory.theoretical_growth_curve(params, points)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    print(header)
    for x, p in zip(points, values):
        print(f"{io.fmt(x)},{io.fmt(p)}")
    return 0


def _build_parser():
    import argparse  # only the command line needs it, not run() as a library

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # usage problems are config errors, exit code 1
            raise ConfigError(message)

    parser = _Parser(prog="firmgrowth",
                     description="Firm growth simulations and distribution analytics")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate a preset and write CSV outputs")
    run_p.add_argument("--config", type=Path, help="key = value config file")
    mirror = sorted(set(_PARSERS) - {"output_dir"})
    for key in mirror:
        run_p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=str,
                           help=f"override config key '{key}'")
    run_p.add_argument("--output-dir", "-o", dest="output_dir", type=str,
                       help=f"directory for run outputs (default: {RunSpec.output_dir})")

    an_p = sub.add_parser("analyze", help="re-run size analytics on snapshot CSVs")
    an_p.add_argument("--input", type=Path, required=True,
                      help="directory holding snapshot_t*.csv files")
    an_p.add_argument("--out", type=Path, default=None,
                      help="output directory (default: the input directory)")

    or_p = sub.add_parser("oracle", help="print exact reference tables")
    or_sub = or_p.add_subparsers(dest="what", required=True)
    pmf_p = or_sub.add_parser("pmf", help="exact next-size pmf for one firm")
    pmf_p.add_argument("--size", type=int, required=True)
    pmf_p.add_argument("--margin", type=_parse_finite, default=0.1)
    den_p = or_sub.add_parser("density", help="theoretical aggregate growth density")
    den_p.add_argument("--alpha", type=_parse_finite, required=True)
    den_p.add_argument("--beta", type=_parse_finite, required=True)
    den_p.add_argument("--cutoff", type=_parse_finite, default=0.0,
                       help="lower size cutoff of the size distribution")
    den_p.add_argument("--scale", type=_parse_finite, default=0.1,
                       help="growth variance at size 1")
    den_p.add_argument("--g-min", type=_parse_finite, default=0.0)
    den_p.add_argument("--g-max", type=_parse_finite, default=2.0)
    den_p.add_argument("--points", type=int, default=402)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            try:
                text = args.config.read_text(encoding="utf-8-sig") if args.config else ""
            except (OSError, UnicodeError) as exc:
                raise ConfigError(f"{args.config}: {exc}") from None
            mapping = _parse_lines(text)
            for key in _PARSERS:
                value = getattr(args, key, None)
                if value is not None:
                    mapping[key] = (value, 0)
            return run(_resolve(mapping))
        if args.command == "analyze":
            return analyze(args.input, args.out)
        return oracle(args.what, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - deliberate catch-all boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
