//! Lazy vs dense ESS discovery — optimizer calls and build wall-clock.
//!
//! The dense path optimizes every grid cell up front; the lazy path
//! materializes only what contour discovery and SpillBound's axis-probe
//! selections actually touch. This bench sweeps the full paper suite
//! (plus 2D_Q91) at the *default* grid resolutions and reports, per
//! query: dense optimizer calls (= grid size) and build time vs lazy
//! optimizer calls, materialized cells, and build time.
//!
//! The acceptance bound is asserted, not just reported: on every 4D+
//! suite query the lazy build must spend at most 20% of the dense
//! optimizer-call budget.

use rqp::catalog::tpcds;
use rqp::core::{CostOracle, SelectionMode, SpillBound};
use rqp::ess::{ContourSet, EssSurface, LazySurface, SurfaceAccess};
use rqp::experiments::{fmt, print_table, write_json};
use rqp::optimizer::{CostParams, EnumerationMode, Optimizer};
use rqp::workloads::{paper_suite, q91_with_dims};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    query: String,
    dims: usize,
    grid_len: usize,
    dense_calls: u64,
    dense_secs: f64,
    lazy_calls: u64,
    lazy_cells: usize,
    lazy_secs: f64,
    call_ratio: f64,
}

/// The deterministic warm-up sample the lazy compile uses: both corners,
/// the center, and each axis-extreme corner.
fn warmup_coords(d: usize, n: usize) -> Vec<Vec<usize>> {
    let mut sample = vec![vec![0; d], vec![n - 1; d], vec![n / 2; d]];
    for j in 0..d {
        let mut lo = vec![0; d];
        lo[j] = n - 1;
        let mut hi = vec![n - 1; d];
        hi[j] = 0;
        sample.push(lo);
        sample.push(hi);
    }
    sample
}

fn main() {
    let catalog = tpcds::catalog_sf100();
    let mut benches = vec![q91_with_dims(&catalog, 2)];
    benches.extend(paper_suite(&catalog));
    let mut rows = Vec::new();
    for bench in benches {
        let name = bench.name().to_string();
        let d = bench.query.ndims();
        let n = bench.grid_points;
        let opt = Optimizer::new(
            &catalog,
            &bench.query,
            CostParams::default(),
            EnumerationMode::LeftDeep,
        )
        .expect("suite query valid");

        let t0 = std::time::Instant::now();
        let dense = EssSurface::build(&opt, bench.grid());
        let dense_secs = t0.elapsed().as_secs_f64();
        let grid_len = dense.len();

        let t1 = std::time::Instant::now();
        let lazy = LazySurface::new(&opt, bench.grid());
        let _contours = ContourSet::build(&lazy, 2.0);
        let sb = SpillBound::with_mode(&lazy, &opt, 2.0, SelectionMode::AxisProbe);
        for coords in warmup_coords(d, n) {
            let qa = lazy.grid().flat(&coords);
            let mut oracle = CostOracle::at_grid(&opt, lazy.grid(), qa);
            sb.run(&mut oracle).expect("lazy discovery completes");
        }
        let lazy_secs = t1.elapsed().as_secs_f64();

        let lazy_calls = lazy.optimizer_calls();
        let call_ratio = lazy_calls as f64 / grid_len as f64;
        rows.push(Row {
            query: name.clone(),
            dims: d,
            grid_len,
            dense_calls: grid_len as u64,
            dense_secs,
            lazy_calls,
            lazy_cells: lazy.cells_materialized(),
            lazy_secs,
            call_ratio,
        });
        eprintln!("[{name}: dense {dense_secs:.2}s, lazy {lazy_secs:.3}s]");
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.query.clone(),
                r.dims.to_string(),
                r.grid_len.to_string(),
                format!("{:.3}", r.dense_secs),
                r.lazy_calls.to_string(),
                r.lazy_cells.to_string(),
                format!("{:.3}", r.lazy_secs),
                fmt(100.0 * r.call_ratio, 2) + "%",
            ]
        })
        .collect();
    print_table(
        "Lazy vs dense ESS build (dense calls = grid size)",
        &[
            "query",
            "D",
            "grid",
            "dense s",
            "lazy calls",
            "lazy cells",
            "lazy s",
            "calls/grid",
        ],
        &table,
    );

    // The acceptance bound: every 4D+ suite query stays within 20% of
    // the dense optimizer-call budget.
    let mut ok = true;
    for r in rows.iter().filter(|r| r.dims >= 4) {
        if r.lazy_calls as f64 > 0.2 * r.grid_len as f64 {
            ok = false;
            println!(
                "FAIL {}: {} lazy calls > 20% of {} grid cells",
                r.query, r.lazy_calls, r.grid_len
            );
        }
    }
    if ok {
        println!("\nPASS: all 4D+ suite queries within 20% of the dense optimizer-call budget");
    } else {
        std::process::exit(1);
    }
    write_json("lazy_ess", &rows);
}
