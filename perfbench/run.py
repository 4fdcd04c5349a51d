"""firmgrowth benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload scenario_ii --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. Set-up is probed ``SETUP_PROBES`` times in
fresh interpreters; the workload then runs in one child process for
``--seconds``. All children get one BLAS/OpenMP thread. Human-readable lines
come first; the last line of standard output is the JSON result. With
``--trace 0`` it holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run (see README.md in this directory).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child(args: list[str], timeout: float) -> dict:
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args[0]} timed out after {timeout:.0f} s") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe_setup(workload: str, seed: int) -> dict:
    """Fresh interpreter to initial state; ``setup_s`` is read on one clock."""
    t0 = time.perf_counter()
    out = _child(["setup", workload, str(seed)], timeout=60)
    out["setup_s"] = out.pop("t_end") - t0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "firmgrowth" / "cli.py").is_file():
        print(f"no firmgrowth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from metrics import END_TO_END_UNITS, LAYERS, PER_LAYER_UNITS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; options: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 0:
        print("--seed and --seconds must be non-negative", file=sys.stderr)
        return 2

    out_dir = ROOT / "perfbench_runs" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        res = _child(["workload", args.workload, str(args.seed), str(args.seconds),
                      str(args.trace), str(out_dir)], timeout=CHILD_TIMEOUT_S)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    setup = {key: statistics.median(s[key] for s in setups)
             for key in ("setup_s", "import_s", "init_ms")}
    env = res["env"]
    print(f"env python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, cpu {env['cpu']}")
    print(f"workload {args.workload}, seed {args.seed}: {len(res['run_walls_s'])} untraced "
          f"runs of {res['iterations']} iterations; fingerprint {res['fingerprint']}")
    walls = sorted(res["run_walls_s"])
    print(f"untraced run wall s: min {walls[0]:.4f}, median {res['run_s']:.4f}, "
          f"max {walls[-1]:.4f} over {len(walls)} runs")
    print(f"setup, median of {SETUP_PROBES} fresh interpreters: {setup['setup_s']:.4f} s, "
          f"of which import {setup['import_s']:.4f} s and init {setup['init_ms']:.3f} ms")
    for problem in res["problems"]:
        print(f"problem: {problem}")
    print(f"error_rate {res['failed'] / res['attempted']:.4g} "
          f"({res['failed']} of {res['attempted']} runs failed)")

    correct = res["failed"] == 0
    if args.trace:
        layers = res["layers"]
        metrics = {
            **layers,
            "setup.import_s": setup["import_s"],
            "setup.init_ms": setup["init_ms"],
        }
        parts = (sum(layers[f"{layer}.layer_self_ms"] for layer in LAYERS)
                 + layers["cli.self_ms"] + layers["trace.self_ms"])
        total = layers["trace.run_s"] * 1e3 / res["iterations"]
        print(f"traced run {layers['trace.run_s']:.4f} s = {total:.6f} ms/iter; "
              f"layer self + trace + cli = {parts:.6f} ms/iter; {res['spans']} spans")
        correct = correct and abs(parts - total) <= 1e-6 * total
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "run_s": res["run_s"],
            "iters_per_s": res["iters_per_s"],
            "setup_s": setup["setup_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
