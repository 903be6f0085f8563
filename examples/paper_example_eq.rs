//! The paper's introductory walk-through (Figs. 1–2) on the example query
//! `EQ`: *"SELECT * FROM part, lineitem, orders WHERE ... retailprice <
//! 1000"* with two error-prone join predicates.
//!
//! Reproduces the §1.1/§1.2 narrative: the iso-cost contours of the 2D
//! ESS, PlanBouquet's contour-by-contour budgeted execution sequence
//! (`P1|C, P2|2C, P3|2C, ...`), SpillBound's much shorter sequence, and
//! the resulting cost savings (the paper reports "more than 50 percent"
//! for its scenario).
//!
//! Run with: `cargo run --release --example paper_example_eq`

use rqp::catalog::tpch;
use rqp::common::MultiGrid;
use rqp::core::report::ExecMode;
use rqp::core::{CostOracle, PlanBouquet, SpillBound};
use rqp::ess::EssSurface;
use rqp::optimizer::{CostParams, EnumerationMode, Optimizer};
use rqp::workloads::example_query_eq;

fn main() {
    let catalog = tpch::catalog(1.0);
    let query = example_query_eq(&catalog);
    println!(
        "the paper's example query EQ (Fig. 1):\n{}\n",
        query.to_sql(&catalog)
    );

    let opt = Optimizer::new(
        &catalog,
        &query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .expect("EQ is valid");
    let surface = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-7, 24));
    println!(
        "2D ESS: {} locations, {} POSP plans, costs [{:.3e}, {:.3e}]",
        surface.len(),
        surface.posp_size(),
        surface.cmin(),
        surface.cmax()
    );

    let pb = PlanBouquet::new(&surface, &opt, 2.0, 0.2);
    let sb = SpillBound::new(&surface, &opt, 2.0);
    println!(
        "bouquet: ρ_red = {} → PB guarantee {:.1}; SB guarantee D²+3D = {}",
        pb.rho_red(),
        pb.mso_guarantee(),
        sb.mso_guarantee()
    );

    // A query instance in an intermediate region, like Fig. 2a's q.
    let grid = surface.grid();
    let qa = grid.flat(&[14, 10]);
    let qa_sels = grid.sels(qa);
    println!(
        "\nhidden query location qa = ({:.2e}, {:.2e}), optimal cost {:.3e}\n",
        qa_sels[0],
        qa_sels[1],
        surface.opt_cost(qa)
    );

    let fmt_seq = |report: &rqp::core::RunReport| -> String {
        report
            .records
            .iter()
            .map(|r| {
                let p = r.plan_id.map_or("P?".into(), |p| format!("P{p}"));
                match r.mode {
                    // lowercase p for spill-mode, as in the paper's traces
                    ExecMode::Spill { .. } => format!("{}|{:.2e}", p.to_lowercase(), r.budget),
                    ExecMode::Full => format!("{p}|{:.2e}", r.budget),
                }
            })
            .collect::<Vec<_>>()
            .join(", ")
    };

    let mut oracle = CostOracle::at_grid(&opt, grid, qa);
    let pb_report = pb.run(&mut oracle).expect("PB completes");
    println!(
        "PlanBouquet sequence ({} executions, total {:.3e}):\n  {}\n",
        pb_report.executions(),
        pb_report.total_cost,
        fmt_seq(&pb_report)
    );

    let mut oracle = CostOracle::at_grid(&opt, grid, qa);
    let sb_report = sb.run(&mut oracle).expect("SB completes");
    println!(
        "SpillBound sequence ({} executions, total {:.3e}):\n  {}\n",
        sb_report.executions(),
        sb_report.total_cost,
        fmt_seq(&sb_report)
    );

    let savings = 100.0 * (1.0 - sb_report.total_cost / pb_report.total_cost);
    println!(
        "sub-optimality: PB {:.2} vs SB {:.2} → SpillBound saves {savings:.0}% \
         (the paper's scenario saved \"more than 50 percent\")",
        pb_report.sub_optimality(surface.opt_cost(qa)),
        sb_report.sub_optimality(surface.opt_cost(qa)),
    );
}
