//! Out-of-core execution — working set larger than the buffer pool.
//!
//! The TAB3 drill-down of `rqp figures`, re-run over the slotted-page heap
//! store with a pool budget deliberately smaller than the query's working
//! set (`RQP_POOL_FRAMES`, default 8 frames = 64 KiB). Every scan pins
//! pages through the pool and spill-mode output is written through it, so
//! the eviction counters expose what the cost model only predicts: the
//! native optimizer's misestimated plan churns the pool (eviction storm,
//! aborted at 200x the optimal cost), while SpillBound / AlignedBound
//! keep their discovery I/O — and their total cost — within the D²+3D
//! MSO bound.
//!
//! PASS requires: (1) bit-identical ground-truth qa between the
//! in-memory and paged backends, (2) SB and AB within the MSO bound,
//! (3) native evictions > 10x either robust strategy's.

use rqp::catalog::tpcds;
use rqp::core::{AlignedBound, SpillBound};
use rqp::ess::EssSurface;
// The row-at-a-time reference engine, not `Engine`: the batch engine
// gathers a whole probe batch's hash-join output before its emit ledger
// trips the budget, and the native plan's fan-out here (200x cap, 8-frame
// pool) then needs more than 6 GB. Bounding that gather is a memory and
// performance trade of its own (ROADMAP item 8).
use rqp::executor::reference::Executor;
use rqp::executor::{DataStore, PlanEngine, TableStore};
use rqp::experiments::write_json;
use rqp::obs::MetricValue;
use rqp::optimizer::{CostParams, EnumerationMode, Optimizer};
use rqp::runner::{measure_qa, ExecOracle};
use rqp::storage::{PagedStore, StorageConfig, PAGE_HEADER_LEN};
use rqp_catalog::DataSet;
use serde::Serialize;
use std::time::Instant;

fn counter(store: &PagedStore, name: &str) -> u64 {
    store
        .registry()
        .snapshot()
        .into_iter()
        .find_map(|(n, v)| match v {
            MetricValue::Counter(c) if n == name => Some(c),
            _ => None,
        })
        .unwrap_or(0)
}

#[derive(Serialize)]
struct StrategyRow {
    name: String,
    wall_secs: f64,
    metered_cost: f64,
    sub_optimality: f64,
    completed: bool,
    evictions: u64,
    misses: u64,
    hits: u64,
    spill_pages: u64,
}

fn main() {
    let config = StorageConfig::from_env()
        .expect("storage env knobs")
        .with_pool_frames(
            std::env::var(rqp::storage::ENV_POOL_FRAMES)
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(8),
        )
        .validated()
        .expect("valid storage config");
    let catalog = tpcds::catalog(0.1);
    let bench = rqp::workloads::q91_with_dims(&catalog, 4);
    let query = &bench.query;
    let d = query.ndims();
    let bound = rqp::core::spillbound_guarantee(d);
    let errors = [100.0, 30.0, 80.0, 50.0];
    let spec =
        rqp::workloads::executable_genspec_with_errors(&catalog, query, 20260707, &errors[..d]);
    let data = DataSet::generate(&catalog, &spec).expect("generate");

    // Working set in pages: every scanned heap file, at the configured
    // page geometry.
    let mut tables: Vec<usize> = query.relations.clone();
    tables.sort_unstable();
    tables.dedup();
    let working_set: usize = tables
        .iter()
        .filter_map(|&tid| data.table(tid))
        .map(|t| {
            let cap = (config.page_size - PAGE_HEADER_LEN) / (t.columns.len() * 8 + 2);
            t.rows().div_ceil(cap.max(1))
        })
        .sum();
    println!(
        "=== Out-of-core execution: {} over the paged store ===",
        query.name
    );
    println!(
        "pool: {} frames x {} B = {} KiB; working set: {working_set} pages \
         ({:.1}x the pool)",
        config.pool_frames,
        config.page_size,
        (config.pool_frames * config.page_size) >> 10,
        working_set as f64 / config.pool_frames as f64
    );
    assert!(
        working_set > 2 * config.pool_frames,
        "experiment premise: working set ({working_set} pages) must exceed the pool \
         ({} frames)",
        config.pool_frames
    );

    // Ground truth must be backend-independent, bit for bit.
    let paged_probe = PagedStore::materialize(&catalog, &data, config).expect("materialize");
    let qa_paged = measure_qa(&paged_probe, query);
    drop(paged_probe);
    let mem = DataStore::new(&catalog, data.clone());
    let qa = measure_qa(&mem as &dyn TableStore, query);
    assert_eq!(
        qa.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
        qa_paged.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
        "paged and in-memory ground truth diverged"
    );
    let qa_fmt: Vec<String> = qa.iter().map(|s| format!("{s:.2e}")).collect();
    println!(
        "measured qa = ({}) [bit-identical across backends]",
        qa_fmt.join(", ")
    );

    let opt = Optimizer::new(
        &catalog,
        query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .expect("valid");
    let surface = EssSurface::build(&opt, bench.grid());

    // Each strategy gets a fresh store + registry so its pool counters
    // are isolated.
    let fresh = || PagedStore::materialize(&catalog, &data, config).expect("materialize");
    let row =
        |name: &str, store: &PagedStore, wall: f64, cost: f64, opt_cost: f64, completed: bool| {
            StrategyRow {
                name: name.into(),
                wall_secs: wall,
                metered_cost: cost,
                sub_optimality: cost / opt_cost,
                completed,
                evictions: counter(store, "storage.pool.evictions"),
                misses: counter(store, "storage.pool.misses"),
                hits: counter(store, "storage.pool.hits"),
                spill_pages: counter(store, "storage.spill.pages"),
            }
        };

    // Optimal: the plan at the true selectivities, unbudgeted.
    let store = fresh();
    let (opt_plan, _) = opt.optimize_at(&qa);
    let t = Instant::now();
    let opt_out = Executor::new(&catalog, query, &store, CostParams::default())
        .run_full(&opt_plan, f64::INFINITY)
        .expect("optimal runs");
    let optimal = row(
        "optimal",
        &store,
        t.elapsed().as_secs_f64(),
        opt_out.spent,
        opt_out.spent,
        true,
    );
    drop(store);

    // Native: trusts its estimates; capped at 200x optimal so the
    // harness terminates (the unbounded run is the paper's point).
    let store = fresh();
    let est: Vec<f64> = query.epps.iter().map(|&p| opt.base_sels().get(p)).collect();
    let (native_plan, _) = opt.optimize_at(&est);
    let t = Instant::now();
    let nat = Executor::new(&catalog, query, &store, CostParams::default())
        .run_full(&native_plan, 200.0 * opt_out.spent)
        .expect("native runs");
    let native = row(
        "native",
        &store,
        t.elapsed().as_secs_f64(),
        nat.spent,
        opt_out.spent,
        nat.completed,
    );
    drop(store);

    // SpillBound / AlignedBound: discovery through the pool, spill-mode
    // output written through it too.
    let store = fresh();
    let sb = SpillBound::new(&surface, &opt, 2.0);
    let mut oracle = ExecOracle::new(
        Executor::new(&catalog, query, &store, CostParams::default()),
        &opt,
        surface.grid(),
    );
    let report = sb.run(&mut oracle).expect("SB completes");
    let sb_row = row(
        "SpillBound",
        &store,
        oracle.total_time().as_secs_f64(),
        report.total_cost,
        opt_out.spent,
        true,
    );
    drop(store);

    let store = fresh();
    let ab = AlignedBound::new(&surface, &opt, 2.0);
    let mut oracle = ExecOracle::new(
        Executor::new(&catalog, query, &store, CostParams::default()),
        &opt,
        surface.grid(),
    );
    let report = ab.run(&mut oracle).expect("AB completes");
    let ab_row = row(
        "AlignedBound",
        &store,
        oracle.total_time().as_secs_f64(),
        report.total_cost,
        opt_out.spent,
        true,
    );
    drop(store);

    // Durability-journal overhead: the same SpillBound discovery with
    // the intent journal enabled (a checksummed append + fsync barrier
    // bracketing every heap extension and spill-file commit) must stay
    // within 5% extra wall clock end to end — materialization included,
    // since that is where the heap-extend barriers land.
    let timed_sb = |cfg: StorageConfig| {
        let t = Instant::now();
        let store = PagedStore::materialize(&catalog, &data, cfg).expect("materialize");
        let sb = SpillBound::new(&surface, &opt, 2.0);
        let mut oracle = ExecOracle::new(
            Executor::new(&catalog, query, &store, CostParams::default()),
            &opt,
            surface.grid(),
        );
        let report = sb.run(&mut oracle).expect("SB completes");
        (t.elapsed().as_secs_f64(), report.total_cost.to_bits())
    };
    // Interleaved best-of-two per config damps filesystem noise.
    let (mut plain_wall, mut journal_wall) = (f64::INFINITY, f64::INFINITY);
    let (mut plain_bits, mut journal_bits) = (0u64, 0u64);
    for _ in 0..2 {
        let (wall, bits) = timed_sb(config);
        plain_wall = plain_wall.min(wall);
        plain_bits = bits;
        let (wall, bits) = timed_sb(config.with_journal(true));
        journal_wall = journal_wall.min(wall);
        journal_bits = bits;
    }
    assert_eq!(
        plain_bits, journal_bits,
        "enabling the journal changed the discovery outcome"
    );
    let journal_overhead = journal_wall / plain_wall - 1.0;
    let journal_ok = journal_overhead <= 0.05;
    println!(
        "\njournal overhead: SB materialize+discover {plain_wall:.3}s plain vs \
         {journal_wall:.3}s journaled -> {:+.1}% (budget 5%)",
        journal_overhead * 100.0
    );

    let rows = [optimal, native, sb_row, ab_row];
    println!(
        "\n{:<12} {:>9} {:>12} {:>8} {:>10} {:>10} {:>10} {:>11}",
        "strategy", "wall (s)", "cost", "sub-opt", "evictions", "misses", "hits", "spill pages"
    );
    for r in &rows {
        println!(
            "{:<12} {:>9.3} {:>12.0} {:>8.2} {:>10} {:>10} {:>10} {:>11}{}",
            r.name,
            r.wall_secs,
            r.metered_cost,
            r.sub_optimality,
            r.evictions,
            r.misses,
            r.hits,
            r.spill_pages,
            if r.completed {
                ""
            } else {
                "  (ABORTED at 200x)"
            }
        );
    }

    let robust_ev = rows[2].evictions.max(rows[3].evictions);
    let storm = rows[1].evictions as f64 / robust_ev.max(1) as f64;
    let sb_ok = rows[2].sub_optimality <= bound * (1.0 + 1e-9);
    let ab_ok = rows[3].sub_optimality <= bound * (1.0 + 1e-9);
    println!(
        "\neviction storm: native {} vs robust max {} -> {storm:.1}x; \
         SB {:.2} / AB {:.2} vs MSO bound {bound}",
        rows[1].evictions, robust_ev, rows[2].sub_optimality, rows[3].sub_optimality
    );

    #[derive(Serialize)]
    struct Out {
        pool_frames: usize,
        page_size: usize,
        working_set_pages: usize,
        qa: Vec<f64>,
        mso_bound: f64,
        eviction_storm_ratio: f64,
        journal_overhead: f64,
        rows: Vec<StrategyRow>,
    }
    write_json(
        "outofcore",
        &Out {
            pool_frames: config.pool_frames,
            page_size: config.page_size,
            working_set_pages: working_set,
            qa,
            mso_bound: bound,
            eviction_storm_ratio: storm,
            journal_overhead,
            rows: rows.into(),
        },
    );

    if storm > 10.0 && sb_ok && ab_ok && journal_ok {
        println!("outofcore PASS: bounded strategies stay within D²+3D while native thrashes");
    } else {
        println!(
            "outofcore FAIL: storm {storm:.1}x (need > 10), SB within bound: {sb_ok}, \
             AB within bound: {ab_ok}, journal overhead {:.1}% (budget 5%)",
            journal_overhead * 100.0
        );
        std::process::exit(1);
    }
}
