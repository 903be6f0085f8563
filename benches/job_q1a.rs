//! §6.5 — Join Order Benchmark Query 1a: native vs SpillBound vs
//! AlignedBound.
//!
//! JOB is designed to break native optimizers. Paper shape to reproduce:
//! the native optimizer's MSO goes "well above 6,000" while SB stays
//! around 12 and AB below 9.

use rqp::catalog::imdb;
use rqp::core::native::native_mso_worst_case;
use rqp::core::{CostSource, Params, Strategy};
use rqp::ess::EssSurface;
use rqp::experiments::{fmt, print_table, sweep, write_json};
use rqp::optimizer::{CostParams, EnumerationMode, Optimizer};
use rqp::workloads::job;
use rqp_common::MultiGrid;
use serde::Serialize;

#[derive(Serialize)]
struct Out {
    native_fixed: f64,
    native_worst: f64,
    sb_msoe: f64,
    ab_msoe: f64,
    sb_guarantee: f64,
}

fn main() {
    let catalog = imdb::catalog_full();
    let query = job::q1a(&catalog);
    let d = query.ndims();
    println!("JOB Q1a over the mini-IMDB catalog ({d} epps)");

    let opt = Optimizer::new(
        &catalog,
        &query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .expect("valid");
    let grid = MultiGrid::uniform(d, 1e-7, 24);
    let surface = EssSurface::build(&opt, grid);
    println!(
        "surface: {} locations, {} POSP plans",
        surface.len(),
        surface.posp_size()
    );

    let sweep = |s| sweep(s, CostSource::Recost(&surface, &opt), &Params::default(), 1).0;
    let native = sweep(Strategy::Native);
    let native_worst = native_mso_worst_case(&surface, &opt);
    let sb = sweep(Strategy::SpillBound);
    let ab = sweep(Strategy::AlignedBound);

    print_table(
        "JOB Q1a: MSO (paper: native > 6000, SB ≈ 12, AB < 9)",
        &["strategy", "MSO"],
        &[
            vec!["native (fixed qe)".into(), fmt(native.mso, 1)],
            vec!["native (worst qe)".into(), fmt(native_worst, 1)],
            vec!["SpillBound".into(), fmt(sb.mso, 1)],
            vec!["AlignedBound".into(), fmt(ab.mso, 1)],
        ],
    );
    println!(
        "\nguarantees: SB/AB ≤ D²+3D = {}; AB lower end 2D+2 = {}",
        rqp::core::spillbound_guarantee(d),
        rqp::core::aligned_guarantee_lower(d)
    );
    assert!(sb.mso <= rqp::core::spillbound_guarantee(d) * (1.0 + 1e-9));
    write_json(
        "job_q1a",
        &Out {
            native_fixed: native.mso,
            native_worst,
            sb_msoe: sb.mso,
            ab_msoe: ab.mso,
            sb_guarantee: rqp::core::spillbound_guarantee(d),
        },
    );
}
