//! Figure 7 — SpillBound execution trace on 2D_Q91.
//!
//! The paper follows 2D_Q91 (epps: catalog-side date join, customer ⋈
//! customer-address) from the origin to `qa = (0.04, 0.1)`, printing the
//! Manhattan profile of the running location `q_run`. Shape to reproduce:
//! alternating spill executions walk `q_run` outward contour by contour
//! until one epp is fully learnt, then the 1D bouquet finishes.

use rqp::catalog::tpcds;
use rqp::core::report::ExecMode;
use rqp::core::{CostOracle, Outcome, SpillBound};
use rqp::experiments::write_json;
use rqp::optimizer::EnumerationMode;
use rqp::workloads::q91_with_dims;
use serde::Serialize;

#[derive(Serialize)]
struct TraceStep {
    contour: usize,
    plan: Option<usize>,
    spill_dim: Option<usize>,
    budget: f64,
    qrun: Vec<f64>,
}

fn main() {
    let catalog = tpcds::catalog_sf100();
    let bench = q91_with_dims(&catalog, 2);
    let exp = rqp::experiments::Experiment::build(catalog, bench, EnumerationMode::LeftDeep);
    let opt = exp.optimizer();
    let grid = exp.surface.grid();
    let sb = SpillBound::new(&exp.surface, &opt, 2.0);

    // The paper's qa = (0.04, 0.1); snap to the grid.
    let qa_coords = vec![grid.dim(0).nearest_idx(0.04), grid.dim(1).nearest_idx(0.1)];
    let qa = grid.flat(&qa_coords);
    let qa_sels = grid.sels(qa);
    println!(
        "2D_Q91 trace, qa = ({:.3e}, {:.3e}) [paper: (0.04, 0.1)]",
        qa_sels[0], qa_sels[1]
    );

    let mut oracle = CostOracle::at_grid(&opt, grid, qa);
    let report = sb.run(&mut oracle).expect("completes");

    // Rebuild the Manhattan profile of q_run from the trace.
    let mut qrun = vec![0.0f64; 2];
    let mut steps = Vec::new();
    println!("\n  step | contour | plan | move                      | q_run after");
    for (k, r) in report.records.iter().enumerate() {
        let (dim, desc) = match (r.mode, r.outcome) {
            (ExecMode::Spill { dim }, Outcome::TimedOut { lower_bound }) => {
                qrun[dim] = qrun[dim].max(lower_bound);
                (
                    Some(dim),
                    format!("spill e{dim}: q_run.{dim} → {lower_bound:.2e}"),
                )
            }
            (ExecMode::Spill { dim }, Outcome::Completed { sel: Some(s) }) => {
                qrun[dim] = s;
                (Some(dim), format!("spill e{dim}: LEARNT {s:.2e}"))
            }
            (ExecMode::Full, Outcome::Completed { .. }) => (None, "full: query done".into()),
            (ExecMode::Full, Outcome::TimedOut { .. }) => (None, "full: timed out".into()),
            _ => (None, "-".into()),
        };
        println!(
            "  {:>4} | IC{:<5} | P{:<3} | {:<25} | ({:.2e}, {:.2e})",
            k + 1,
            r.contour + 1,
            r.plan_id.unwrap_or(999),
            desc,
            qrun[0],
            qrun[1]
        );
        steps.push(TraceStep {
            contour: r.contour,
            plan: r.plan_id,
            spill_dim: dim,
            budget: r.budget,
            qrun: qrun.clone(),
        });
    }
    if let Some(art) = rqp::core::report::render_trace_2d(&report, grid) {
        println!("\n{art}");
    }
    let subopt = report.sub_optimality(exp.surface.opt_cost(qa));
    println!(
        "\nexecutions: {}, sub-optimality {:.2} (guarantee 10)",
        report.executions(),
        subopt
    );
    assert!(subopt <= 10.0 + 1e-9);
    write_json("fig07_trace", &steps);
}
