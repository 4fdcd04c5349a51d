"""Config parsing, run orchestration, CSV outputs and exit codes."""
import codecs
import concurrent.futures
import contextlib
import io
import os
import signal
import subprocess
import sys
import tempfile
import threading
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firmgrowth import cli, model
from firmgrowth.baselines import BaselineConfig
from firmgrowth.cli import ConfigError, RunSpec, materialize, parse_config, run
from firmgrowth.model import Allocation, ModelConfig, Rounding, Scenario


def read_bytes_tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestParseConfig:
    def test_empty_file_gives_defaults(self):
        spec = parse_config("")
        kind, cfg = materialize(spec, spec.seeds[0])
        assert kind == "model"
        assert (cfg.margin, cfg.wage, cfg.price) == (0.1, 1.0, 1.0)
        assert cfg.allocation is Allocation.EXACT_MATCHING
        assert cfg.rounding is Rounding.PROBABILISTIC
        assert (cfg.replacement_low, cfg.replacement_high) == (1.0, 2.0)

    def test_margin_override(self):
        spec = parse_config("margin = 0.05\n")
        _, cfg = materialize(spec, 1)
        assert cfg.margin == 0.05

    def test_invalid_margin_rejected(self):
        with pytest.raises(ConfigError, match="margin"):
            parse_config("margin = -2\n")

    def test_unknown_key_names_line_and_key(self):
        with pytest.raises(ConfigError, match="line 3.*'margn'"):
            parse_config("# comment\nn_firms = 10\nmargn = 0.1\n")

    def test_bad_value_names_line(self):
        with pytest.raises(ConfigError, match="line 1.*'n_firms'"):
            parse_config("n_firms = ten\n")

    @pytest.mark.parametrize("line", ["margin 0.1", "margin ="])
    def test_malformed_line_names_line(self, line):
        with pytest.raises(ConfigError, match=f"line 2: expected 'key = value', got '{line}'"):
            parse_config(f"n_firms = 10\n{line}\n")

    def test_comments_and_blanks_ignored(self):
        spec = parse_config("\n# setup\nmargin = 0.2  # inline\n\nseed = 9\n")
        assert spec.seeds == [9]
        _, cfg = materialize(spec, 9)
        assert cfg.margin == 0.2

    def test_preset_key_mismatch(self):
        with pytest.raises(ConfigError, match="beta"):
            parse_config("preset = ScenarioI\nbeta = 0.3\n")

    def test_scenario_fixed_by_presets(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config("preset = ScenarioII\nscenario = FirmsConsume\n")

    def test_seed_and_seeds_conflict(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("seed = 1\nseeds = 1,2\n")

    def test_snapshot_times_validated(self):
        with pytest.raises(ConfigError, match="snapshot_times"):
            parse_config("iterations = 10\nsnapshot_times = 5,99\n")

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            parse_config("preset = ScenarioIII\n")

    def test_enum_values_accept_spec_spelling(self):
        spec = parse_config(
            "scenario = WorkersOnlyConsume\nrounding = PerUnit\n"
            "allocation = IndependentBinomial\nmargin = 0.3\n")
        _, cfg = materialize(spec, 1)
        assert cfg.scenario is Scenario.WORKERS_ONLY_CONSUME
        assert cfg.rounding is Rounding.PER_UNIT
        assert cfg.allocation is Allocation.INDEPENDENT_BINOMIAL

    def test_single_firm_config_rejected_for_runs(self):
        with pytest.raises(ConfigError, match="n_firms"):
            parse_config("n_firms = 1\nn_workers = 100\n")

    def test_config_key_surface(self):
        # every key a config file or flag may set, and the keys each preset takes
        assert set(cli._PARSERS) == {
            "preset", "output_dir", "seed", "seeds", "snapshot_times", "workers",
            "min_size", "n_firms", "n_workers", "n_units", "iterations", "margin",
            "wage", "price", "sigma", "beta", "replacement_low", "replacement_high",
            "replacement_mean", "move_fraction", "scenario", "rounding", "allocation",
        }
        model = {"n_firms", "n_workers", "margin", "wage", "price", "rounding",
                 "allocation", "replacement_low", "replacement_high", "iterations"}
        noise = {"n_units", "n_workers", "sigma", "replacement_mean", "iterations"}
        assert {name: set(p.keys) for name, p in cli.PRESETS.items()} == {
            "ScenarioI": model,
            "ScenarioII": model,
            "Custom": model | {"scenario"},
            "Additive": noise,
            "Multiplicative": noise,
            "ScaledBeta": noise | {"beta"},
            "MarsiliSequential": {"n_units", "n_workers", "replacement_mean",
                                  "iterations", "move_fraction"},
        }


@pytest.fixture
def inline_pool(monkeypatch):
    """Stand in for the process pool: run each job inline, record ``max_workers``."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:  # noqa: BLE001 - the future carries it
                future.set_exception(exc)
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes


SMALL_RUN = dict(preset="Custom",
                 overrides=dict(n_firms=20, n_workers=600, iterations=40,
                                margin=0.1),
                 snapshot_times=[20, 40], seeds=[3, 4])


class TestRun:
    def test_outputs_and_manifest(self, tmp_path, capsys):
        spec = RunSpec(output_dir=tmp_path / "out", **SMALL_RUN)
        assert run(spec) == 0
        for seed in (3, 4):
            seed_dir = tmp_path / "out" / f"seed_{seed:05d}"
            assert (seed_dir / "snapshot_t20.csv").exists()
            assert (seed_dir / "snapshot_t40.csv").exists()
            assert (seed_dir / "ccdf.csv").exists()
            header = (seed_dir / "binned_sigma.csv").read_text().splitlines()[0]
            assert header == "bin_low,bin_high,sigma,count"
        manifest = (tmp_path / "out" / "manifest.csv").read_text()
        assert "margin,0.1" in manifest
        assert manifest.count("snapshot_t20.csv") == 2
        assert "sha256" in capsys.readouterr().out

    def test_worker_pool_matches_serial(self, tmp_path):
        serial = RunSpec(output_dir=tmp_path / "serial", **SMALL_RUN)
        pooled = RunSpec(output_dir=tmp_path / "pooled", workers=2, **SMALL_RUN)
        run(serial)
        run(pooled)
        assert read_bytes_tree(tmp_path / "serial") == read_bytes_tree(tmp_path / "pooled")

    @pytest.mark.parametrize("rounding", list(Rounding))
    def test_outputs_do_not_depend_on_the_helper_thread(self, rounding, tmp_path, monkeypatch):
        overrides = dict(n_firms=64, n_workers=3200, iterations=60, rounding=rounding)
        for name, threshold in (("inline", 10**9), ("helper", 0)):
            monkeypatch.setattr(model, "_HELPER_MIN_FIRMS", threshold)
            run(RunSpec(preset="Custom", overrides=overrides, seeds=[5],
                        output_dir=tmp_path / name))
        assert read_bytes_tree(tmp_path / "inline") == read_bytes_tree(tmp_path / "helper")

    def test_helper_error_reaches_the_caller(self, tmp_path, monkeypatch):
        # block 1 raises on the helper thread: the step raises it again on the
        # calling thread, and the next market reuses the same, idle helper
        monkeypatch.setattr(model, "_HELPER_MIN_FIRMS", 0)
        block_market = model._block_market

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("block 1 failed")
            return block_market(*args)

        economy = model.Economy(ModelConfig(n_firms=8, n_workers=400, margin=0.2,
                                            rounding=Rounding.PER_UNIT))
        with monkeypatch.context() as patch:
            patch.setattr(model, "_block_market", failing)
            with pytest.raises(RuntimeError, match="block 1 failed"):
                economy.step()
        helper = model._helper
        overrides = dict(n_firms=64, n_workers=3200, iterations=60)
        for name, threshold in (("helper", 0), ("inline", 10**9)):
            monkeypatch.setattr(model, "_HELPER_MIN_FIRMS", threshold)
            run(RunSpec(preset="Custom", overrides=overrides, seeds=[5],
                        output_dir=tmp_path / name))
        assert model._helper is helper
        assert read_bytes_tree(tmp_path / "inline") == read_bytes_tree(tmp_path / "helper")

    def test_forked_workers_start_their_own_helper(self, tmp_path):
        # A fresh interpreter uses the helper, then forks a pool whose workers
        # inherit the helper but not its thread. A market that reused it would
        # wait forever, so the run is time-bounded and its process group killed.
        code = ("import sys; from pathlib import Path; from firmgrowth import model; "
                "from firmgrowth.cli import RunSpec, run; model._HELPER_MIN_FIRMS = 0; "
                f"spec = {SMALL_RUN!r}; out = Path(sys.argv[1]); "
                "run(RunSpec(output_dir=out / 'serial', **spec)); "
                "assert model._helper is not None; "
                "run(RunSpec(output_dir=out / 'pooled', workers=2, **spec))")
        proc = subprocess.Popen(
            [sys.executable, "-c", code, str(tmp_path)], start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("a forked pool worker waited on its parent's helper thread")
        assert proc.returncode == 0, err
        assert read_bytes_tree(tmp_path / "serial") == read_bytes_tree(tmp_path / "pooled")

    def test_pool_starts_no_more_workers_than_seeds(self, tmp_path, inline_pool):
        run(RunSpec(output_dir=tmp_path / "two", workers=8, **SMALL_RUN))
        run(RunSpec(output_dir=tmp_path / "one", workers=8, **{**SMALL_RUN, "seeds": [3]}))
        assert inline_pool == [2]  # one seed runs serially, with no pool

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_runtime_error_names_failing_seed(self, workers, tmp_path, inline_pool,
                                              monkeypatch, capsys):
        step = cli.Economy.step

        def failing_step(economy):
            if economy.config.seed == 4 and economy.time == 5:
                raise ValueError("sizes must be positive")
            return step(economy)

        monkeypatch.setattr(cli.Economy, "step", failing_step)
        assert cli.main(["run", "--preset", "Custom", "--n-firms", "15", "--n-workers", "300",
                         "--iterations", "10", "--seeds", "3,4", "--workers", workers,
                         "-o", str(tmp_path)]) == 2
        assert "runtime error: seed 4: sizes must be positive" in capsys.readouterr().err
        assert inline_pool == ([2] if workers == "2" else [])

    @pytest.mark.parametrize("invalid", [dict(seeds=[1, 2**64]), dict(min_size=0.5)])
    def test_invalid_spec_writes_nothing(self, invalid, tmp_path):
        # a direct run checks what parsing checks, every seed's config
        # included, before the first seed runs
        spec = RunSpec(preset="Custom", overrides=dict(iterations=3),
                       output_dir=tmp_path / "out", **invalid)
        with pytest.raises(ConfigError):
            run(spec)
        assert not list(tmp_path.iterdir())

    def test_snapshot_schema(self, tmp_path):
        spec = RunSpec(output_dir=tmp_path / "out", **SMALL_RUN)
        run(spec)
        lines = (tmp_path / "out" / "seed_00003" / "snapshot_t40.csv").read_text().splitlines()
        assert lines[0] == "t,firm_id,size,output,sold"
        assert len(lines) == 21
        t, firm_id, size, output, sold = lines[1].split(",")
        assert (t, firm_id) == ("40", "0")
        assert float(output) >= float(sold) >= 0

    def test_baseline_preset_runs(self, tmp_path):
        spec = RunSpec(preset="Multiplicative",
                       overrides=dict(n_units=200, n_workers=10_000, iterations=60),
                       output_dir=tmp_path / "out", seeds=[1])
        assert run(spec) == 0
        seed_dir = tmp_path / "out" / "seed_00001"
        assert (seed_dir / "ccdf.csv").exists()
        assert (seed_dir / "growth_hist.csv").exists()

    def test_marsili_preset_runs(self, tmp_path):
        spec = RunSpec(preset="MarsiliSequential",
                       overrides=dict(n_units=30, n_workers=900, iterations=20),
                       output_dir=tmp_path / "out", seeds=[1])
        assert run(spec) == 0
        sizes = np.loadtxt(tmp_path / "out" / "seed_00001" / "snapshot_t20.csv",
                           delimiter=",", skiprows=1, usecols=2)
        assert sizes.sum() == 900


class TestForkedOutputs:
    """A serial seed whose outputs a forked child writes."""

    def test_outputs_do_not_depend_on_the_child(self, tmp_path, monkeypatch, request):
        # the helper thread is alive when the second seed forks
        monkeypatch.setattr(model, "_HELPER_MIN_FIRMS", 0)
        overrides = dict(n_firms=64, n_workers=3200, iterations=60, rounding=Rounding.PER_UNIT)
        spec = dict(preset="Custom", overrides=overrides, seeds=[5, 6], snapshot_times=[30, 60])
        run(RunSpec(output_dir=tmp_path / "inline", **spec))
        pids = request.getfixturevalue("forked_outputs")
        run(RunSpec(output_dir=tmp_path / "forked", **spec))
        assert len(pids) == 2
        assert read_bytes_tree(tmp_path / "inline") == read_bytes_tree(tmp_path / "forked")

    def failing_step(self, monkeypatch):
        step = cli.Economy.step

        def failing_step(economy):
            if economy.config.seed == 4 and economy.time == 5:
                raise ValueError("sizes must be positive")
            return step(economy)

        monkeypatch.setattr(cli.Economy, "step", failing_step)
        return "sizes must be positive"

    def failing_write(self, monkeypatch):
        parent, write = os.getpid(), cli.io.write_snapshot

        def failing_write(path, t, *columns):
            assert os.getpid() != parent, "the parent wrote a snapshot"
            if "seed_00004" in str(path):
                raise OSError("disk full")
            return write(path, t, *columns)

        monkeypatch.setattr(cli.io, "write_snapshot", failing_write)
        return "disk full"

    def dying_write(self, monkeypatch):
        parent, write = os.getpid(), cli.io.write_snapshot

        def dying_write(path, t, *columns):
            assert os.getpid() != parent, "the parent wrote a snapshot"
            if "seed_00004" in str(path):
                os._exit(3)
            return write(path, t, *columns)

        monkeypatch.setattr(cli.io, "write_snapshot", dying_write)
        return "exited with code 3"

    @staticmethod
    def assert_reaped(pids):
        for pid in pids:
            with pytest.raises(ChildProcessError):  # no such child: it was reaped
                os.waitpid(pid, os.WNOHANG)

    def run_main(self, tmp_path, monkeypatch):
        """``cli.main`` of a two-seed run, with stdout a block-buffered pipe
        that already holds a line when the children fork; returns the exit
        code and everything written to stdout."""
        read_end, write_end = os.pipe()
        stdout = open(write_end, "w")
        monkeypatch.setattr(sys, "stdout", stdout)
        print("before the run")
        code = cli.main(["run", "--preset", "Custom", "--n-firms", "15", "--n-workers", "300",
                         "--iterations", "10", "--seeds", "3,4", "--snapshot-times", "5,10",
                         "-o", str(tmp_path)])
        stdout.close()
        with open(read_end) as fh:
            return code, fh.read()

    @pytest.mark.parametrize("cause", ["failing_step", "failing_write", "dying_write"])
    def test_an_error_on_either_side_fails_the_seed(self, cause, tmp_path, forked_outputs,
                                                    monkeypatch, capsys):
        message = getattr(self, cause)(monkeypatch)
        code, out = self.run_main(tmp_path, monkeypatch)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: seed 4: ") and message in err
        assert len(forked_outputs) == 2
        assert not (tmp_path / "manifest.csv").exists()
        self.assert_reaped(forked_outputs)
        assert out == "before the run\n"  # no child flushed the inherited buffer

    def test_a_forked_run_prints_once(self, tmp_path, forked_outputs, monkeypatch):
        code, out = self.run_main(tmp_path, monkeypatch)
        assert code == 0
        assert len(forked_outputs) == 2
        self.assert_reaped(forked_outputs)
        manifest = tmp_path / "manifest.csv"
        assert out.splitlines() == ["before the run", f"wrote {manifest} (sha256 "
                                    f"{cli.io.sha256_file(manifest)})"]


class TestMainEntry:
    def test_run_with_flags(self, tmp_path):
        code = cli.main([
            "run", "--preset", "Custom", "--n-firms", "15", "--n-workers", "300",
            "--iterations", "25", "--seed", "5", "-o", str(tmp_path / "out"),
        ])
        assert code == 0
        assert (tmp_path / "out" / "seed_00005" / "ccdf.csv").exists()

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = Custom\nn_firms = 15\nn_workers = 300\n"
                       "iterations = 25\nmargin = 0.1\nseed = 5\n")
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(cfg), "--margin", "0.2",
                         "-o", str(out)])
        assert code == 0
        manifest = (out / "manifest.csv").read_text()
        assert "margin,0.2" in manifest

    def test_config_error_exit_code(self, tmp_path, capsys):
        assert cli.main(["run", "--preset", "Nope", "-o", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_flag_exit_code(self, capsys):
        assert cli.main(["run", "--not-a-flag", "1"]) == 1

    # (flags, message): each is a config error that writes nothing.
    @pytest.mark.parametrize("flags,message", [
        ("--preset Custom --seed -1", "seed -1 does not fit"),
        (f"--preset Custom --seed {2**64}", "does not fit an unsigned 64-bit"),
        ("--preset Additive --seed -1", "seed -1 does not fit"),
        (f"--preset Additive --seed {2**64}", "does not fit an unsigned 64-bit"),
        ("--preset Custom --seeds 1,2,1", "distinct"),
        ("--preset Custom --wage nan", "not a finite number"),
        ("--preset Custom --min-size nan", "not a finite number"),
        ("--preset Custom --replacement-low nan", "not a finite number"),
        ("--preset Custom --margin inf", "not a finite number"),
        ("--preset Custom --price=-inf", "not a finite number"),
        ("--preset Custom --rounding Banana", "bad value for 'rounding'"),
        ("--preset Custom --workers 0", "workers must be at least 1"),
        ("--preset Custom --snapshot-times 5,3", "ascending positive"),
        ("--preset Custom --snapshot-times 0,5", "ascending positive"),
        ("--preset MarsiliSequential --n-units 1 --n-workers 1 --replacement-mean 1 "
         "--iterations 1", "n_workers must be at least 2"),
        ("--preset ScaledBeta --beta 0.7 --iterations 2", "beta must lie in [0, 0.5]"),
        ("--preset Custom --margin 1e300 --iterations 2", "2**53"),
        ("--preset ScenarioII --n-firms 50 --n-workers 2000 --price 1e-300 --iterations 2",
         "2**53"),
        ("--preset Custom --n-firms 50 --n-workers 60 --replacement-low 1e30 "
         "--replacement-high 1e30 --iterations 2", "replacement_high must be at most n_workers"),
        ("--preset ScaledBeta --n-units 50 --n-workers 60 --replacement-mean 1e30 "
         "--iterations 2", "replacement_mean must be at most n_workers"),
        ("--preset MarsiliSequential --n-units 50 --n-workers 60 --replacement-mean 1e30 "
         "--iterations 2", "replacement_mean must be at most n_workers"),
        ("--preset Custom --n-firms 2 --n-workers 1000000000 --iterations 2", "10**9"),
        ("--preset Multiplicative --n-units 50 --n-workers 5000 --sigma 1e300 --iterations 2",
         "sigma**2"),
        ("--preset ScaledBeta --n-units 50 --n-workers 5000 --sigma 1e300 --iterations 2",
         "sigma**2"),
        ("--preset Multiplicative --n-units 20 --n-workers 2000 --sigma 1e-170 --iterations 2",
         "sigma**2"),
        ("--preset ScaledBeta --n-units 20 --n-workers 2000 --sigma 1e-170 --iterations 2",
         "sigma**2"),
        ("--preset Additive --sigma 1e200 --n-units 50 --n-workers 5000 --iterations 20",
         "sigma must be at most n_workers"),
        ("--config /nonexistent/run.cfg", "No such file or directory"),
    ], ids=["custom-seed-negative", "custom-seed-wide", "additive-seed-negative",
            "additive-seed-wide", "duplicate-seeds", "wage-nan", "min-size-nan",
            "replacement-low-nan", "margin-inf", "price-minus-inf", "rounding-name",
            "workers", "snapshot-times-descending", "snapshot-times-zero",
            "marsili-one-worker", "scaled-beta", "margin", "price", "replacement-high",
            "scaled-replacement-mean", "marsili-replacement-mean", "sampler-limit",
            "multiplicative-sigma", "scaled-sigma", "multiplicative-sigma-underflow",
            "scaled-sigma-underflow", "additive-sigma", "missing-config-file"])
    def test_config_error_writes_nothing(self, flags, message, tmp_path, capsys):
        assert cli.main(["run", *flags.split(), "-o", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_size_overflow_is_named_runtime_error(self, tmp_path, capsys):
        # the sizes pass 2**63 after a few steps; the step says so before the
        # integer cast wraps them
        assert cli.main(["run", "--preset", "Multiplicative", "--sigma", "300",
                         "--n-units", "50", "--n-workers", "5000", "--iterations", "200",
                         "-o", str(tmp_path)]) == 2
        assert "seed 1: a unit grew to size" in capsys.readouterr().err

    def test_failed_rerun_leaves_no_manifest(self, tmp_path, capsys):
        # the rerun rewrites snapshot_t5.csv before it fails; the first run's
        # manifest, which lists that file's old hash, must not survive it
        flags = ["run", "--preset", "Multiplicative", "--n-units", "50", "--n-workers",
                 "5000", "--iterations", "200", "--snapshot-times", "5,200",
                 "-o", str(tmp_path)]
        assert cli.main(flags) == 0
        assert (tmp_path / "manifest.csv").exists()
        assert cli.main([*flags, "--sigma", "300"]) == 2
        assert "a unit grew to size" in capsys.readouterr().err
        assert (tmp_path / "seed_00001" / "snapshot_t5.csv").exists()
        assert not (tmp_path / "manifest.csv").exists()

    def test_zero_spread_size_bin_is_not_fitted(self, tmp_path):
        # sigma 1e-170 moves no unit off its size, so the one size bin has
        # sigma_g 0: no log(0) warning, and too few bins for beta_fit.csv
        flags = ("run --preset Additive --n-units 300 --n-workers 30000 --iterations 50 "
                 "--sigma 1e-170 --min-size 1")
        subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "firmgrowth",
                        *flags.split(), "-o", str(tmp_path)],
                       check=True, capture_output=True,
                       env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
        assert (tmp_path / "seed_00001" / "binned_sigma.csv").exists()
        assert not (tmp_path / "seed_00001" / "beta_fit.csv").exists()

    def test_tail_fit_skipped_without_enough_firms(self, tmp_path, capsys):
        assert cli.main(["run", "--preset", "Custom", "--n-firms", "5", "--n-workers", "100",
                         "--iterations", "3", "-o", str(tmp_path)]) == 0
        seed_dir = tmp_path / "seed_00001"
        assert (seed_dir / "ccdf.csv").exists()
        assert not (seed_dir / "fit.csv").exists()
        capsys.readouterr()
        assert cli.main(["analyze", "--input", str(seed_dir)]) == 0
        assert "tail fit skipped" in capsys.readouterr().out
        assert not (seed_dir / "fit.csv").exists()

    def test_analyze_round_trip(self, tmp_path, capsys):
        out = tmp_path / "out"
        cli.main(["run", "--preset", "Custom", "--n-firms", "40",
                  "--n-workers", "2000", "--iterations", "30", "--seed", "2",
                  "-o", str(out)])
        seed_dir = out / "seed_00002"
        before = (seed_dir / "ccdf.csv").read_bytes()
        assert cli.main(["analyze", "--input", str(seed_dir)]) == 0
        assert (seed_dir / "ccdf.csv").read_bytes() == before

    def test_analyze_missing_snapshots(self, tmp_path, capsys):
        assert cli.main(["analyze", "--input", str(tmp_path)]) == 1
        assert "no snapshot" in capsys.readouterr().err
        # only snapshot_t<digits>.csv names a snapshot
        (tmp_path / "snapshot_tlast.csv").write_text("t,firm_id,size,output,sold\n")
        assert cli.main(["analyze", "--input", str(tmp_path)]) == 1
        assert "no snapshot" in capsys.readouterr().err
        # the latest snapshot holds no firm to analyze
        (tmp_path / "snapshot_t5.csv").write_text("t,firm_id,size,output,sold\n5,0,9,0,0\n")
        (tmp_path / "snapshot_t10.csv").write_text("t,firm_id,size,output,sold\n10,0,0,0,0\n")
        assert cli.main(["analyze", "--input", str(tmp_path)]) == 1
        assert "no positive size" in capsys.readouterr().err
        # a malformed latest snapshot, or one holding a size that is not
        # finite or is negative
        for row in ("10,0,abc,0,0", "10,0", "10,0,inf,0,0", "10,0,nan,0,0", "10,0,-5,0,0"):
            (tmp_path / "snapshot_t10.csv").write_text(
                f"t,firm_id,size,output,sold\n10,1,9,0,0\n{row}\n")
            assert cli.main(["analyze", "--input", str(tmp_path)]) == 1, row
            assert "config error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "snapshot_t10.csv", "snapshot_t5.csv", "snapshot_tlast.csv"]
        # a latest snapshot that cannot be read as a file
        (tmp_path / "snapshot_t20.csv").mkdir()
        assert cli.main(["analyze", "--input", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_oracle_pmf_table(self, capsys):
        assert cli.main(["oracle", "pmf", "--size", "1", "--margin", "0.1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,probability"
        assert [row.split(",")[0] for row in lines[1:]] == ["0", "1", "2"]
        assert float(lines[1].split(",")[1]) == pytest.approx(0.1 / 1.21, abs=1e-9)

    def test_oracle_density_table(self, capsys):
        assert cli.main(["oracle", "density", "--alpha", "0.7", "--beta", "0.5",
                         "--cutoff", "5", "--points", "42"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "g,density"
        values = np.array([[float(v) for v in row.split(",")] for row in lines[1:]])
        assert (values[:, 1] >= 0).all()
        assert abs(np.trapezoid(values[:, 1], values[:, 0]) - 1.0) < 1e-6

    def test_oracle_divergent_params_exit_code(self, capsys):
        code = cli.main(["oracle", "density", "--alpha", "0.7", "--beta", "0.5"])
        assert code == 1
        assert "diverges" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        "pmf --size 31", "pmf --size 0", "pmf --size 3 --margin 1.5",
        "pmf --size 3 --margin nan", "density --alpha 0.3 --beta 0.9",
        "density --alpha 0.3 --beta 0.5 --points 2", "density --alpha nan --beta 0.5",
        "density --alpha 0.3 --beta 0.5 --g-max inf",
    ])
    def test_oracle_invalid_parameter_is_config_error(self, args, capsys):
        assert cli.main(["oracle", *args.split()]) == 1
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert captured.out == ""

    def test_nine_significant_digit_rendering(self, tmp_path):
        out = tmp_path / "out"
        cli.main(["run", "--preset", "Custom", "--n-firms", "30",
                  "--n-workers", "900", "--iterations", "10", "--seed", "1",
                  "-o", str(out)])
        header, first = (out / "seed_00001" / "ccdf.csv").read_text().splitlines()[:2]
        assert header == "size,prob"
        prob = first.split(",")[1]
        assert len(prob.replace(".", "").replace("-", "").lstrip("0")) <= 9


# Hypothesis draws early list entries most often: valid values come first.
INTS = ["1", "2", "3", "5", "10", "100", "0", "-1"]
FLOATS = ["0.05", "0.5", "1", "1.5", "2", "1e9", "1e200", "1e300", "1e-170", "5e-324", "0",
          "-1", "nan"]
FIELD_TYPES = {**typing.get_type_hints(BaselineConfig), **typing.get_type_hints(ModelConfig)}


def flag_values(key):
    kind = FIELD_TYPES[key]
    if kind in (int, float):
        return INTS if kind is int else FLOATS
    return [member.value for member in kind] + ["Banana"]


@st.composite
def tiny_runs(draw):
    """Settings of one tiny run, key -> raw value: a preset with up to 3 of
    its keys set from small value lists, at most 2 seeds and 2 workers, 1-3
    iterations and at most 200 workers (the Marsili step holds one label per
    worker)."""
    preset = draw(st.sampled_from(sorted(cli.PRESETS)))
    keys = cli.PRESETS[preset].keys
    entries = {"preset": preset, "n_firms" if "n_firms" in keys else "n_units": "20",
               "n_workers": "200", "iterations": draw(st.sampled_from(["1", "2", "3"]))}
    for key in draw(st.lists(st.sampled_from(sorted(keys - {"iterations"})),
                             max_size=3, unique=True)):
        entries[key] = draw(st.sampled_from(flag_values(key)))
    seeds = draw(st.lists(st.sampled_from(INTS), min_size=1, max_size=2, unique=True))
    entries["seeds"] = ",".join(seeds)
    entries["workers"] = draw(st.sampled_from(["1", "2"]))
    extra = draw(st.sampled_from([None, "snapshot_times", "min_size"]))
    if extra == "snapshot_times":
        entries[extra] = draw(st.sampled_from(["1", "1,2", "2,1", "0,1", "3", "5"]))
    elif extra == "min_size":
        entries[extra] = draw(st.sampled_from(FLOATS))
    return entries


def assert_exits_cleanly(argv, written):
    """``cli.main(argv)`` succeeds, or is a config error that leaves no path
    of ``written`` behind and prints no warning; the one runtime error it
    may meet is a unit outgrowing an integer."""
    err = io.StringIO()
    with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert code in (0, 1, 2), err.getvalue()
    if code == 1:
        assert not any(path.exists() for path in written), err.getvalue()
        assert not caught, [str(w.message) for w in caught]
    if code == 2:
        assert "a unit grew to size" in err.getvalue()


@settings(max_examples=400, derandomize=True, deadline=None)
@given(tiny_runs())
def test_any_tiny_run_exits_cleanly(entries):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in entries.items()]
        assert_exits_cleanly(["run", *flags, "-o", str(out)], [out])


# Lines a config file may hold besides its settings: comments and blanks,
# keys that are unknown or spelled as flags, and malformed lines. The flag
# -o overrides the output_dir line.
ODD_LINES = ["# a comment", "", "   ", "output_dir = elsewhere", "banana = 1", "Preset = Custom",
             "n-workers = 200", "seed", "= 3", "iterations =", "iterations = 2 = 3", "[run]",
             "\ufeffpreset = Custom", "seeds = ,", "workers = 2 # two processes"]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(tiny_runs(), st.lists(st.tuples(st.integers(0, 20), st.sampled_from(ODD_LINES)),
                             max_size=3),
       st.sampled_from(["\n", "\r\n"]), st.booleans(), st.booleans())
def test_any_config_file_exits_cleanly(entries, odd, newline, undecodable, bom):
    lines = [f"{key} = {value}" for key, value in entries.items()]
    for at, line in odd:
        lines.insert(at, line)
    text = ((codecs.BOM_UTF8 if bom else b"") + newline.join(lines).encode()
            + (b"\xff\n" if undecodable else b""))
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        config.write_bytes(text)
        assert_exits_cleanly(["run", "--config", str(config), "-o", str(out)], [out])


def test_config_file_may_start_with_a_byte_order_mark(tmp_path):
    # Some editors save UTF-8 with a leading byte-order mark; the run is the
    # same as from the file without it.
    text = b"preset = Additive\nn_units = 20\nn_workers = 200\niterations = 2\n"
    manifests = []
    for name, data in (("plain", text), ("bom", codecs.BOM_UTF8 + text)):
        config, out = tmp_path / f"{name}.cfg", tmp_path / name
        config.write_bytes(data)
        assert cli.main(["run", "--config", str(config), "-o", str(out)]) == 0
        manifests.append((out / "manifest.csv").read_bytes())
    assert manifests[0] == manifests[1]


# Snapshot sizes a run may write, and rows a run never writes: short, long,
# blank, a comment, another delimiter, or a size that is not a finite
# non-negative number.
SIZES = ["12", "30", "100", "1000", "10", "2", "1", "3.5", "0", "-0", "1e308", "5e-324"]
ODD_ROWS = ["5,0", "5,0,9,0,0,0", "", "  ", "# note", "5;0;9;0;0", *(
    f"5,0,{size},0,0" for size in ["-1", "nan", "inf", "-inf", "1e400", "abc", "", " 7 ", "0x10"])]


@st.composite
def snapshot_bytes(draw):
    """The bytes of a snapshot file: the header (or none), then rows of
    ``t,firm_id,size,output,sold`` with drawn sizes, up to two odd rows, and
    maybe a byte that is not UTF-8."""
    rows = [f"5,{i},{size},0,0" for i, size in enumerate(
        draw(st.lists(st.sampled_from(SIZES), max_size=30)))]
    for at, row in draw(st.lists(st.tuples(st.integers(0, 30), st.sampled_from(ODD_ROWS)),
                                 max_size=2)):
        rows.insert(at, row)
    header = draw(st.sampled_from([["t,firm_id,size,output,sold"], [""], []]))
    text = draw(st.sampled_from(["\n", "\r\n"])).join([*header, *rows])
    text += draw(st.sampled_from(["\n", ""]))
    return text.encode() + draw(st.sampled_from([b"", b"\xff"]))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(snapshot_bytes(), st.sampled_from(["snapshot_t5.csv", "snapshot_t0005.csv"]))
def test_any_snapshot_analyzes_cleanly(data, name):
    with tempfile.TemporaryDirectory() as tmp:
        snapshots, out = Path(tmp) / "in", Path(tmp) / "out"
        snapshots.mkdir()
        (snapshots / name).write_bytes(data)
        assert_exits_cleanly(["analyze", "--input", str(snapshots), "--out", str(out)], [out])
        assert [p.name for p in snapshots.iterdir()] == [name]
