//! The benchmark's fixed names: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root lists the same names (a test holds the two together),
//! and later issues cite them.

pub const WORKLOADS: [&str; 5] = [
    "compile-cold",
    "serve-light",
    "serve-discovery",
    "serve-churn",
    "discover-paged",
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// before the change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        lower_is_better: false,
        bound: 0.20,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        lower_is_better: true,
        bound: 0.20,
    },
    EndToEnd {
        name: "op_ms_p90",
        unit: "ms",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        lower_is_better: true,
        bound: 0.10,
    },
    EndToEnd {
        name: "subopt_max",
        unit: "ratio",
        lower_is_better: true,
        bound: 0.01,
    },
    EndToEnd {
        name: "subopt_mean",
        unit: "ratio",
        lower_is_better: true,
        bound: 0.01,
    },
];

/// Per-layer metrics, `(name, unit)`, grouped by the crate they measure.
/// A traced run reports every one of them; a layer the workload does not
/// call reads 0.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("optimizer.parse_us", "us"),
    ("optimizer.new_us", "us"),
    ("optimizer.optimize_us", "us"),
    ("optimizer.matrix_ms", "ms"),
    ("optimizer.matrix_cells", "count"),
    ("optimizer.recost_ns_per_cell", "ns"),
    ("ess.surface_ms", "ms"),
    ("ess.surface_cells", "count"),
    ("ess.posp_plans", "count"),
    ("ess.contours", "count"),
    ("ess.rho_red", "count"),
    ("ess.contours_us", "us"),
    ("ess.reduce_ms", "ms"),
    ("core.penalty_ms", "ms"),
    ("core.sb_us_p50", "us"),
    ("core.sb_us_p90", "us"),
    ("core.ab_us_p50", "us"),
    ("core.ab_us_p90", "us"),
    ("core.pb_us_p50", "us"),
    ("core.pb_us_p90", "us"),
    ("core.native_us_p50", "us"),
    ("core.pa_us_p50", "us"),
    ("core.execs_per_run", "1/op"),
    ("core.loop_overhead_frac", "ratio"),
    ("artifacts.encode_ms", "ms"),
    ("artifacts.save_ms", "ms"),
    ("artifacts.bytes", "bytes"),
    ("artifacts.checksum_ms", "ms"),
    ("artifacts.decode_ms", "ms"),
    ("artifacts.encode_mb_s", "MB/s"),
    ("artifacts.decode_mb_s", "MB/s"),
    ("server.hydrate_ms", "ms"),
    ("server.parse_us", "us"),
    ("server.dispatch_us_p50", "us"),
    ("server.dispatch_us_p90", "us"),
    ("server.rtt_us_p50", "us"),
    ("server.rtt_us_p99", "us"),
    ("server.wire_overhead_us", "us"),
    ("server.resp_bytes_per_op", "bytes"),
    ("server.stats_handler_us_p50", "us"),
    ("server.cache_cold_loads", "1/op"),
    ("server.cache_evictions", "1/op"),
    ("server.cache_warm_hits", "1/op"),
    ("server.shed", "count"),
    ("server.errors", "count"),
    ("executor.exec_ms_per_op", "ms"),
    ("executor.spill_calls", "1/op"),
    ("executor.full_calls", "1/op"),
    ("executor.full_4d_ms", "ms"),
    ("executor.cost_per_s", "cost/s"),
    ("executor.batch_fallbacks", "count"),
    ("storage.pool_hit_ratio", "ratio"),
    ("storage.pool_misses", "1/op"),
    ("storage.pool_evictions", "1/op"),
    ("storage.flushes", "1/op"),
    ("storage.spill_pages", "1/op"),
    ("storage.pool_io_ms", "ms"),
    ("storage.materialize_ms", "ms"),
    ("catalog.datagen_ms", "ms"),
    ("harness.trace_overhead_frac", "ratio"),
    ("harness.samples", "count"),
    ("harness.traced_samples", "count"),
    ("harness.spans", "count"),
];

/// Per-layer metrics that are counts, not timings: with one client and no
/// timers they repeat exactly between two runs of the same rounds (which
/// `--quick` fixes), as do `subopt_max` and `subopt_mean`.
pub const COUNTERS: [&str; 24] = [
    "optimizer.matrix_cells",
    "ess.surface_cells",
    "ess.posp_plans",
    "ess.contours",
    "ess.rho_red",
    "core.execs_per_run",
    "artifacts.bytes",
    "server.resp_bytes_per_op",
    "server.cache_cold_loads",
    "server.cache_evictions",
    "server.cache_warm_hits",
    "server.shed",
    "server.errors",
    "executor.spill_calls",
    "executor.full_calls",
    "executor.batch_fallbacks",
    "storage.pool_hit_ratio",
    "storage.pool_misses",
    "storage.pool_evictions",
    "storage.flushes",
    "storage.spill_pages",
    "harness.samples",
    "harness.traced_samples",
    "harness.spans",
];
