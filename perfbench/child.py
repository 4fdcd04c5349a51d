"""Child processes of the benchmark; ``run.py`` starts them.

``setup WORKLOAD SEED`` is a fresh interpreter that imports ``firmgrowth.cli``,
resolves the workload's spec and builds its initial state, then prints when
it finished on the system-wide monotonic clock. It imports nothing else
before that, so that it measures only what a user of the CLI waits for.

``workload WORKLOAD SEED SECONDS TRACE OUT_DIR`` runs ``bench.measure`` and
prints its result with the environment and the child's peak resident memory.
"""
import json
import sys
import time


def setup(workload: str, seed: int) -> dict:
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    from firmgrowth import cli
    t1 = time.perf_counter()
    from firmgrowth.model import Economy
    from workloads import make_spec

    spec = make_spec(workload, seed, root / "perfbench_runs" / "unused")
    kind, cfg = cli.materialize(spec, seed)
    if kind == "model":
        Economy(cfg)
    else:
        cfg.initial_sizes(integer=kind != "additive")
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "init_ms": (t2 - t1) * 1e3, "t_end": t2}


def workload(name: str, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    import resource

    import bench

    result = bench.measure(name, seed, seconds, trace, out_dir)
    result["env"] = bench.environment()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


if __name__ == "__main__":
    mode, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    if mode == "setup":
        out = setup(name, seed)
    else:
        out = workload(name, seed, float(sys.argv[4]), sys.argv[5] == "1", sys.argv[6])
    print(json.dumps(out))
