//! Sub-optimality geography: where in the ESS each strategy hurts.
//!
//! Renders ASCII heat maps of per-location sub-optimality over a 2D ESS
//! for the native optimizer, PlanBouquet, SpillBound and AlignedBound —
//! the spatial view behind the paper's Fig. 12 histogram. Native pain
//! concentrates far from its estimate; the robust algorithms flatten the
//! whole space to single digits.
//!
//! Run with: `cargo run --release --example subopt_heatmap [query]`
//! (2-epp configurations only; default `2D_Q91`).

use rqp::catalog::tpcds;
use rqp::core::{CostSource, EvalContext, Params, Strategy, SubOptStats};
use rqp::experiments::{sweep, Experiment};
use rqp::optimizer::EnumerationMode;
use rqp::workloads::q91_with_dims;

/// Glyph ramp: sub-optimality 1 → blank, up to >100 → '#'.
fn glyph(sub: f64) -> char {
    match sub {
        s if s < 1.5 => '·',
        s if s < 3.0 => ':',
        s if s < 5.0 => '+',
        s if s < 10.0 => 'x',
        s if s < 30.0 => 'X',
        s if s < 100.0 => '%',
        _ => '#',
    }
}

fn heatmap(title: &str, stats: &SubOptStats, nx: usize, ny: usize) {
    println!(
        "\n{title}: MSO {:.1}, ASO {:.2}, median {:.2}",
        stats.mso,
        stats.aso,
        stats.percentile(50.0)
    );
    for y in (0..ny).rev() {
        let row: String = (0..nx).map(|x| glyph(stats.subopts[y * nx + x])).collect();
        println!("  |{row}|");
    }
    println!("  +{}+", "-".repeat(nx));
}

fn main() {
    let catalog = tpcds::catalog_sf100();
    let bench = q91_with_dims(&catalog, 2);
    let exp = Experiment::build(catalog, bench, EnumerationMode::LeftDeep);
    let opt = exp.optimizer();
    let grid = exp.surface.grid();
    let (nx, ny) = (grid.dim(0).len(), grid.dim(1).len());
    println!("sub-optimality heat maps over the 2D_Q91 ESS ({nx}×{ny}, x = dim 0 →, y = dim 1 ↑)");
    println!("legend: · <1.5   : <3   + <5   x <10   X <30   % <100   # ≥100");

    let ctx = EvalContext::new(&exp.surface, &opt);
    let stats: Vec<SubOptStats> = (Strategy::ALL.into_iter())
        .map(|s| {
            let (stats, _) = sweep(s, CostSource::Matrix(&ctx), &Params::default(), 1);
            heatmap(s.name(), &stats, nx, ny);
            stats
        })
        .collect();
    let worst = |s: Strategy| grid.coords(stats[s as usize].worst_qa);
    println!(
        "\nworst locations — native: {:?}, SB: {:?} (grid coords)",
        worst(Strategy::Native),
        worst(Strategy::SpillBound)
    );
}
