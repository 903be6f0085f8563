//! Quickstart: robust processing of a TPC-DS query with SpillBound.
//!
//! Builds the error-prone selectivity space for TPC-DS Q91 with two
//! error-prone joins (the paper's Fig. 7 scenario), then runs SpillBound
//! against a hidden true location and prints the discovery trace — the
//! budgeted spill-mode executions, the selectivities learnt, and the final
//! sub-optimality vs. the `D² + 3D = 10` guarantee.
//!
//! Run with: `cargo run --release --example quickstart`

use rqp::catalog::tpcds;
use rqp::common::MultiGrid;
use rqp::core::report::ExecMode;
use rqp::core::{CostOracle, Outcome, SpillBound};
use rqp::ess::EssSurface;
use rqp::optimizer::{CostParams, EnumerationMode, Optimizer};
use rqp::workloads;
use std::time::Instant;

fn main() {
    // 1. The TPC-DS catalog at the paper's scale (SF = 100) and Q91 with
    //    two error-prone join predicates.
    let catalog = tpcds::catalog_sf100();
    let bench = workloads::q91_with_dims(&catalog, 2);
    let d = bench.query.ndims();
    println!(
        "query: {} ({} relations, D = {d} error-prone joins)",
        bench.query.name,
        bench.query.relations.len()
    );
    for (j, &p) in bench.query.epps.iter().enumerate() {
        println!("  dim {j}: {}", bench.query.predicates[p].label);
    }

    // 2. Build the optimizer and sweep it over the ESS grid (selectivity
    //    injection) to obtain the POSP / optimal cost surface.
    let opt = Optimizer::new(
        &catalog,
        &bench.query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .expect("workload query is valid");
    let grid = MultiGrid::uniform(d, 1e-7, 24);
    let t = Instant::now();
    let surface = EssSurface::build(&opt, grid);
    println!(
        "\nESS: {} locations, {} POSP plans, cost range [{:.3e}, {:.3e}] ({} ms to build)",
        surface.len(),
        surface.posp_size(),
        surface.cmin(),
        surface.cmax(),
        t.elapsed().as_millis()
    );

    // 3. Compile SpillBound and pick a hidden true location qa.
    let sb = SpillBound::new(&surface, &opt, 2.0);
    println!(
        "contours: {} (cost-doubling), MSO guarantee: {}",
        sb.contours().len(),
        sb.mso_guarantee()
    );
    let qa = surface.grid().flat(&[16, 13]);
    let qa_sels = surface.grid().sels(qa);
    let qa_fmt: Vec<String> = qa_sels.iter().map(|s| format!("{s:.3e}")).collect();
    println!("\nhidden true location qa = ({})", qa_fmt.join(", "));

    // 4. Discover.
    let mut oracle = CostOracle::at_grid(&opt, surface.grid(), qa);
    let report = sb.run(&mut oracle).expect("discovery completes");
    println!("\ndiscovery trace:");
    for r in &report.records {
        let mode = match r.mode {
            ExecMode::Spill { dim } => format!("spill(dim {dim})"),
            ExecMode::Full => "full".to_string(),
        };
        let outcome = match r.outcome {
            Outcome::Completed { sel: Some(s) } => format!("completed, learnt sel {s:.3e}"),
            Outcome::Completed { sel: None } => "completed — query done".to_string(),
            Outcome::TimedOut { lower_bound } => {
                format!("timed out, qa > {lower_bound:.3e}")
            }
        };
        println!(
            "  IC{:<2} plan {:>3}  {:<13} budget {:>12.0}  spent {:>12.0}  {}",
            r.contour + 1,
            r.plan_id.map_or("new".into(), |p| p.to_string()),
            mode,
            r.budget,
            r.spent,
            outcome
        );
    }

    // 5. The verdict.
    let subopt = report.sub_optimality(surface.opt_cost(qa));
    println!(
        "\ntotal cost {:.0} vs oracle-optimal {:.0} → sub-optimality {subopt:.2} (guarantee {})",
        report.total_cost,
        surface.opt_cost(qa),
        sb.mso_guarantee()
    );
    assert!(subopt <= sb.mso_guarantee());
    println!("within the platform-independent D²+3D bound ✓");
}
