"""Names and units of the benchmark's metrics (plain data, no imports)."""

END_TO_END_UNITS = {"run_s": "s", "iters_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}

LAYERS = ("rng", "model", "baselines", "analytics", "io")

# Per-layer metrics of a traced run, with their units. ``*_per_iter`` and
# the plain ``*_ms`` layer times are per iteration of the run.
PER_LAYER_UNITS = {
    "rng.substream_us": "us",
    "rng.substream_per_iter": "count",
    "model.step_ms_p50": "ms",
    "model.step_ms_p90": "ms",
    "model.self_ms": "ms",
    "model.allocate_ms": "ms",
    "model.offer_ms": "ms",
    "model.allocate_bind_frac": "ratio",
    "model.replace_ms": "ms",
    "model.entrants_per_iter": "count",
    "model.round_ms": "ms",
    "model.round_calls_per_iter": "count",
    "baselines.step_ms_p50": "ms",
    "baselines.step_ms_p90": "ms",
    "baselines.us_per_move": "us",
    "analytics.update_us": "us",
    "analytics.records_per_update": "count",
    "analytics.ns_per_record": "ns",
    "analytics.size_bins_per_update": "count",
    "analytics.finalize_ms": "ms",
    "io.snapshot_ms": "ms",
    "io.us_per_row": "us",
    "io.bytes_written": "bytes",
    "io.hash_ms": "ms",
    **{f"{layer}.layer_self_ms": "ms" for layer in LAYERS},
    "cli.self_ms": "ms",
    "trace.self_ms": "ms",
    "trace.run_s": "s",
    "trace.overhead_frac": "ratio",
    "setup.import_s": "s",
    "setup.init_ms": "ms",
}
