"""Self-tests of the benchmark: metric names, every workload at a tiny size,
the output gate and the removal of tracing wrappers.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import json
import re
from pathlib import Path

import numpy as np
import pytest

import bench
from firmgrowth import io
from metrics import END_TO_END_UNITS, LAYERS, PER_LAYER_UNITS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def test_metric_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    for name in [*END_TO_END_UNITS, *PER_LAYER_UNITS]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]{1,64}", name), name


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_runs_at_tiny_size(workload, tmp_path):
    res = bench.measure(workload, seed=3, seconds=0, trace=True, out_dir=tmp_path, tiny=True)
    assert res["failed"] == 0, res["problems"]
    assert res["attempted"] == 4  # two untraced and two traced runs
    layers = res["layers"]
    assert set(layers) == set(PER_LAYER_UNITS) - {"setup.import_s", "setup.init_ms"}
    parts = (sum(layers[f"{layer}.layer_self_ms"] for layer in LAYERS)
             + layers["cli.self_ms"] + layers["trace.self_ms"])
    assert parts == pytest.approx(layers["trace.run_s"] * 1e3 / res["iterations"], rel=1e-9)
    assert (tmp_path / "spans.csv").is_file()


def test_corrupted_output_file_counts_as_failed(tmp_path, monkeypatch):
    write_manifest = io.write_manifest

    def write_then_corrupt(path, config_rows, file_rows):
        digest = write_manifest(path, config_rows, file_rows)
        victim = Path(path).parent / file_rows[0][2]
        victim.write_bytes(victim.read_bytes() + b"0\n")
        return digest

    monkeypatch.setattr(io, "write_manifest", write_then_corrupt)
    res = bench.measure("scenario_ii", seed=3, seconds=0, trace=False, out_dir=tmp_path,
                        tiny=True)
    assert res["failed"] == res["attempted"] == 2
    assert any("sha256 differs" in p for p in res["problems"])


@pytest.mark.parametrize("workload", ["scenario_ii", "marsili"])
def test_broken_conservation_counts_as_failed(workload, tmp_path, monkeypatch):
    write_snapshot = io.write_snapshot

    def write_doubled(path, t, sizes, outputs, solds):
        write_snapshot(path, t, 2 * np.asarray(sizes), outputs, solds)

    monkeypatch.setattr(io, "write_snapshot", write_doubled)
    res = bench.measure(workload, seed=3, seconds=0, trace=False, out_dir=tmp_path, tiny=True)
    assert res["failed"] == res["attempted"] == 2
    assert res["problems"]


def test_tracing_leaves_no_wrapper_installed(tmp_path):
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in bench._targets()]
    bench.measure("scenario_i", seed=3, seconds=0, trace=True, out_dir=tmp_path, tiny=True)
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in originals)

    tracer = bench.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.active(run_id=0):
            assert all(owner.__dict__[attr] is not orig for owner, attr, orig in originals)
            raise RuntimeError("a failing traced run")
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in originals)
