//! Compares all four strategies on one benchmark query.
//!
//! Reproduces the paper's central empirical claim on a single query: the
//! native optimizer's worst case is enormous, PlanBouquet bounds it
//! behaviorally, SpillBound bounds it structurally (`D²+3D`), and
//! AlignedBound pushes the empirical MSO toward the `2D+2` ideal.
//!
//! Run with: `cargo run --release --example robust_vs_native [query]`
//! where `query` is one of the suite names (default `3D_Q96`).

use rqp::catalog::tpcds;
use rqp::core::native::native_mso_worst_case;
use rqp::experiments::{compare, Experiment};
use rqp::figures::{Cell, Table};
use rqp::optimizer::EnumerationMode;
use rqp::workloads::paper_suite;
use std::time::Instant;

fn main() {
    let want = std::env::args().nth(1).unwrap_or_else(|| "3D_Q96".into());
    let catalog = tpcds::catalog_sf100();
    let bench = paper_suite(&catalog)
        .into_iter()
        .find(|b| b.name() == want)
        .unwrap_or_else(|| {
            let names: Vec<String> = paper_suite(&catalog)
                .iter()
                .map(|b| b.name().to_string())
                .collect();
            panic!("unknown query {want}; available: {}", names.join(", "))
        });

    println!("building ESS for {want} ...");
    let t = Instant::now();
    let exp = Experiment::build(catalog, bench, EnumerationMode::LeftDeep);
    println!(
        "surface: {} locations, {} POSP plans ({:.2}s)",
        exp.surface.len(),
        exp.surface.posp_size(),
        t.elapsed().as_secs_f64()
    );

    let t = Instant::now();
    let row = compare(&exp, 2.0, 0.2);
    let opt = exp.optimizer();
    let native_worst = native_mso_worst_case(&exp.surface, &opt);
    println!(
        "exhaustive evaluation over {} locations ({:.2}s)",
        exp.surface.len(),
        t.elapsed().as_secs_f64()
    );

    let mut table = Table::new(&["strategy", "MSO guarantee", "MSO empirical", "ASO"]);
    let inf = f64::INFINITY;
    for (name, msog, msoe, aso) in [
        ("native (fixed qe)".to_string(), inf, row.msoe_native, None),
        ("native (worst qe)".to_string(), inf, native_worst, None),
        (
            "PlanBouquet".into(),
            row.msog_pb,
            row.msoe_pb,
            Some(row.aso_pb),
        ),
        (
            "SpillBound".into(),
            row.msog_sb,
            row.msoe_sb,
            Some(row.aso_sb),
        ),
        (
            format!("AlignedBound (≥{})", row.msog_ab_lower),
            row.msog_sb,
            row.msoe_ab,
            Some(row.aso_ab),
        ),
    ] {
        let aso = aso.map_or("-".into(), |a| Cell::Num(a, 2));
        table.push(vec![
            name.into(),
            Cell::Num(msog, 1),
            Cell::Num(msoe, 1),
            aso,
        ]);
    }
    println!(
        "{want}: worst/average sub-optimality\n\n{}",
        table.markdown()
    );
    println!(
        "ρ_red = {} (anorexic λ=0.2); AB max part penalty = {:.2}",
        row.rho_red, row.ab_max_penalty
    );
}
