//! Batch-vs-row executor wall-clock gate.
//!
//! The vectorized engine exists to make the wall-clock experiments run at
//! 10-100x dataset scale; this bench measures what it buys and gates the
//! claim. On the 4D_Q91 workload it times `run_full` on the row-at-a-time
//! reference engine vs the batch engine — on the optimizer's plan at the
//! true selectivities and on the all-hash-join variant of it — in two
//! regimes:
//!
//! - **uniform** (no planted estimation error, join fan-out ~1): the
//!   probe/scan-bound shape where vectorization shines. Run at 1x and at
//!   scale (default 10x, `RQP_SCALE` overrides); the scaled hash-plan
//!   speedup must be >= 5x (the line CI greps: `batch exec check: PASS`).
//! - **planted-error** (the TAB3 row's error vector, ~17x join fan-out): an
//!   output-materialization-bound shape where both engines converge on
//!   the same memcpy cost. Reported, not gated — an honest upper and
//!   lower bracket on what batching buys.
//!
//! The scaled leg scales the *catalog* (`tpcds::catalog(sf * scale)`):
//! rows and NDVs grow together, so join fan-out stays TPC-DS-like and
//! full-run work grows ~linearly. (Multiplying rows under fixed domains
//! instead would compound planted join selectivities into a combinatorial
//! output blowup on unbudgeted full runs of a 4-join tree.)
//!
//! Before any timing, outcomes are asserted bit-identical (`rows_out` and
//! `spent.to_bits()`), and a small 2D discovery fixture asserts that full
//! SpillBound / AlignedBound runs produce byte-identical serialized
//! reports across {reference engine, batch Engine} x {in-memory, paged}
//! — speed must not move a single reported bit.

use rqp::catalog::tpcds;
use rqp::core::{AlignedBound, SpillBound};
use rqp::ess::EssSurface;
use rqp::executor::reference::Executor;
use rqp::executor::{DataStore, Engine, PlanEngine};
use rqp::optimizer::{
    CostParams, EnumerationMode, JoinMethod, Optimizer, PlanNode, QuerySpec, ScanMethod,
};
use rqp::runner::{measure_qa, ExecOracle};
use rqp::storage::{PagedStore, StorageConfig};
use rqp::workloads::{executable_genspec_with_errors, q91_with_dims};
use rqp_catalog::{Catalog, DataSet};
use rqp_common::MultiGrid;
use std::time::{Duration, Instant};

/// Best-of-N wall clock for `f`. Fast runs get a warmup plus at least 3
/// and at most 15 iterations (~2 s); a run already taking multiple
/// seconds is its own measurement — at that length the work dwarfs
/// cache-warmup noise, and the scaled row-engine runs are too slow to
/// repeat. Best (not mean) because the comparison is of engine work,
/// not allocator noise.
fn best_secs(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let first = t0.elapsed();
    if first >= Duration::from_secs(2) {
        return first.as_secs_f64();
    }
    let mut best = f64::INFINITY;
    let mut spent = Duration::ZERO;
    let mut iters = 0usize;
    while iters < 3 || (spent < Duration::from_secs(2) && iters < 15) {
        let t = Instant::now();
        f();
        let dt = t.elapsed();
        spent += dt;
        best = best.min(dt.as_secs_f64());
        iters += 1;
    }
    best
}

/// The same join tree with every scan forced sequential and every join
/// forced hash: the canonical vectorized shape, independent of what scan
/// methods the optimizer happened to pick at this scale.
fn force_hash(p: &PlanNode) -> PlanNode {
    match p {
        PlanNode::Scan { rel, filters, .. } => PlanNode::Scan {
            rel: *rel,
            method: ScanMethod::SeqScan,
            filters: filters.clone(),
        },
        PlanNode::Join {
            left, right, preds, ..
        } => PlanNode::Join {
            method: JoinMethod::HashJoin,
            left: Box::new(force_hash(left)),
            right: Box::new(force_hash(right)),
            preds: preds.clone(),
        },
    }
}

/// Row-vs-batch timings for one dataset scale, after asserting
/// bit-identical outcomes. Always times the all-hash-join plan (the
/// vectorization showcase and the gated number); `time_opt_plan` adds
/// the optimizer's plan at qa — only sensible at 1x, where a
/// nested-loop choice cannot blow the runtime up quadratically.
/// Returns the hash-plan speedup.
fn compare_at_scale(
    label: &str,
    catalog: &Catalog,
    query: &QuerySpec,
    errors: &[f64],
    scale: f64,
    time_opt_plan: bool,
) -> f64 {
    let spec = executable_genspec_with_errors(catalog, query, 20260707, errors);
    let data = DataSet::generate(catalog, &spec).expect("generate");
    let store = DataStore::new(catalog, data);
    let qa = measure_qa(&store, query);
    let opt = Optimizer::new(
        catalog,
        query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .expect("valid query");
    let (opt_plan, _) = opt.optimize_at(&qa);
    let hash_plan = force_hash(&opt_plan);

    let row = Executor::new(catalog, query, &store, CostParams::default());
    let batch = Engine::new(catalog, query, &store, CostParams::default());
    let mut plans = vec![&hash_plan];
    if time_opt_plan {
        plans.push(&opt_plan);
    }
    let mut rows_out = 0;
    for plan in &plans {
        let a = row.run_full(plan, f64::INFINITY).expect("row engine");
        let b = batch.run_full(plan, f64::INFINITY).expect("batch engine");
        rows_out = a.rows_out;
        assert_eq!(a.rows_out, b.rows_out, "row counts diverged at {scale}x");
        assert_eq!(
            a.spent.to_bits(),
            b.spent.to_bits(),
            "metered cost diverged at {scale}x: {} vs {}",
            a.spent,
            b.spent
        );
    }

    let t_row_hash = best_secs(|| {
        row.run_full(&hash_plan, f64::INFINITY).unwrap();
    });
    let t_batch_hash = best_secs(|| {
        batch.run_full(&hash_plan, f64::INFINITY).unwrap();
    });
    let hash_speedup = t_row_hash / t_batch_hash;
    let opt_part = if time_opt_plan {
        let t_row_opt = best_secs(|| {
            row.run_full(&opt_plan, f64::INFINITY).unwrap();
        });
        let t_batch_opt = best_secs(|| {
            batch.run_full(&opt_plan, f64::INFINITY).unwrap();
        });
        format!(
            " | optimizer plan: row {:.3} ms, batch {:.3} ms ({:.2}x)",
            t_row_opt * 1e3,
            t_batch_opt * 1e3,
            t_row_opt / t_batch_opt,
        )
    } else {
        String::new()
    };
    println!(
        "{label:>13} {scale:>5.1}x ({rows_out} rows out) | hash plan: row {:.3} ms, batch {:.3} ms ({hash_speedup:.2}x){opt_part}",
        t_row_hash * 1e3,
        t_batch_hash * 1e3,
    );
    hash_speedup
}

/// Full SB + AB discovery over `store` through engine `mk`, serialized.
/// serde_json round-trips f64 exactly, so string equality is bit equality
/// for every budget, spent cost, and learnt selectivity in the report.
fn discovery_reports<E: PlanEngine>(
    opt: &Optimizer,
    surface: &EssSurface,
    mk: &dyn Fn() -> E,
) -> Vec<String> {
    ["sb", "ab"]
        .iter()
        .map(|algo| {
            let mut oracle = ExecOracle::new(mk(), opt, surface.grid());
            let report = match *algo {
                "sb" => SpillBound::new(surface, opt, 2.0).run(&mut oracle),
                _ => AlignedBound::new(surface, opt, 2.0).run(&mut oracle),
            }
            .unwrap_or_else(|e| panic!("{algo} completes: {e}"));
            format!(
                "{algo} {} {}",
                report.total_cost.to_bits(),
                serde_json::to_string(&report).expect("serialize report")
            )
        })
        .collect()
}

/// SB/AB discovery must not change by a bit across engine x backend.
fn assert_discovery_bit_identical() {
    let catalog = tpcds::catalog(0.05);
    let bench = q91_with_dims(&catalog, 2);
    let query = &bench.query;
    let spec = executable_genspec_with_errors(&catalog, query, 42, &[50.0, 20.0]);
    let data = DataSet::generate(&catalog, &spec).expect("generate");
    let paged = PagedStore::materialize(
        &catalog,
        &data,
        StorageConfig::default().with_pool_frames(32),
    )
    .expect("materialize");
    let mem = DataStore::new(&catalog, data);
    let opt = Optimizer::new(
        &catalog,
        query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .expect("valid query");
    let surface = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-7, 8));

    let row_mem = discovery_reports(&opt, &surface, &|| {
        Executor::new(&catalog, query, &mem, CostParams::default())
    });
    let row_paged = discovery_reports(&opt, &surface, &|| {
        Executor::new(&catalog, query, &paged, CostParams::default())
    });
    let batch_mem = discovery_reports(&opt, &surface, &|| {
        Engine::new(&catalog, query, &mem, CostParams::default())
    });
    let batch_paged = discovery_reports(&opt, &surface, &|| {
        Engine::new(&catalog, query, &paged, CostParams::default())
    });
    assert_eq!(row_mem, batch_mem, "engines diverged on the mem backend");
    assert_eq!(row_mem, row_paged, "row engine diverged across backends");
    assert_eq!(row_mem, batch_paged, "engine diverged on the paged backend");
    println!(
        "SB/AB discovery reports bit-identical across engines and backends (2D_Q91, 8-pt grid)"
    );
}

fn main() {
    let scale: f64 = std::env::var("RQP_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|f: &f64| *f > 0.0)
        .unwrap_or(10.0);
    let uniform = [1.0, 1.0, 1.0, 1.0];
    let tab3_errors = [30.0, 10.0, 50.0, 20.0];

    println!("=== batch vs row executor wall-clock (4D_Q91, scale knob RQP_SCALE) ===");
    let catalog = tpcds::catalog(0.1);
    let bench = q91_with_dims(&catalog, 4);
    compare_at_scale("uniform", &catalog, &bench.query, &uniform, 1.0, true);
    compare_at_scale(
        "planted-error",
        &catalog,
        &bench.query,
        &tab3_errors,
        1.0,
        true,
    );
    let big_catalog = tpcds::catalog(0.1 * scale);
    let big_bench = q91_with_dims(&big_catalog, 4);
    let hash_speedup = compare_at_scale(
        "uniform",
        &big_catalog,
        &big_bench.query,
        &uniform,
        scale,
        false,
    );

    assert_discovery_bit_identical();

    if hash_speedup >= 5.0 {
        println!(
            "batch exec check: PASS ({hash_speedup:.2}x >= 5x batch-vs-row at {scale}x scale)"
        );
    } else {
        println!("batch exec check: FAIL ({hash_speedup:.2}x < 5x batch-vs-row at {scale}x scale)");
        std::process::exit(1);
    }
}
