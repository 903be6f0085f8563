//! The full engine lifecycle: generate skewed data, ANALYZE, watch the
//! native estimate still miss the join selectivities, and let SpillBound
//! discover them with a bounded overhead.
//!
//! This demonstrates the paper's premise end-to-end on real data: even
//! *freshly collected* statistics (exact NDVs, equi-depth histograms)
//! estimate filters well but mis-estimate correlated join selectivities —
//! and the ESS-based algorithms do not care, because they never trust
//! estimates in the first place.
//!
//! Run with: `cargo run --release --example analyze_and_discover`

use rqp::catalog::{analyze, tpcds, DataSet};
use rqp::core::{CostOracle, CostSource, Params, SpillBound, Strategy};
use rqp::ess::EssSurface;
use rqp::executor::DataStore;
use rqp::optimizer::{CostParams, EnumerationMode, Optimizer, PredicateKind};
use rqp::runner::measure_qa;
use rqp::workloads::{executable_genspec_with_errors, q91_with_dims};
use rqp_common::MultiGrid;

fn main() {
    // 1. Generate data whose join selectivities are 40×/15× the textbook
    //    estimates (emulating correlation the statistics cannot see).
    let mut catalog = tpcds::catalog(0.05);
    let bench = q91_with_dims(&catalog, 2);
    let query = bench.query.clone();
    let spec = executable_genspec_with_errors(&catalog, &query, 7, &[40.0, 15.0]);
    let data = DataSet::generate(&catalog, &spec).expect("generate");

    // 2. ANALYZE: refresh every statistic from the actual data.
    analyze::analyze(&mut catalog, &data, analyze::DEFAULT_BUCKETS);
    println!("ANALYZE complete: statistics now reflect the materialized data");

    // 3. Even so, the join estimates miss the truth by the planted factor.
    let store = DataStore::new(&catalog, data);
    let qa = measure_qa(&store, &query);
    let opt = Optimizer::new(
        &catalog,
        &query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .expect("valid");
    println!("\nepp join predicates — estimate vs truth after ANALYZE:");
    for (j, &p) in query.epps.iter().enumerate() {
        let est = opt.base_sels().get(p);
        println!(
            "  dim {j} ({}): estimate {est:.2e}, truth {:.2e} ({}× off)",
            query.predicates[p].label,
            qa[j],
            (qa[j] / est).round()
        );
        assert!(matches!(
            query.predicates[p].kind,
            PredicateKind::Join { .. }
        ));
    }

    // 4. SpillBound does not care: bounded discovery regardless.
    let surface = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-7, 16));
    let sb = SpillBound::new(&surface, &opt, 2.0);
    let grid = surface.grid();
    let coords: Vec<usize> = qa
        .iter()
        .enumerate()
        .map(|(j, &s)| grid.dim(j).nearest_idx(s))
        .collect();
    let qa_idx = grid.flat(&coords);
    let mut oracle = CostOracle::at_grid(&opt, grid, qa_idx);
    let report = sb.run(&mut oracle).expect("discovery completes");
    let subopt = report.sub_optimality(surface.opt_cost(qa_idx));
    println!(
        "\nSpillBound: {} executions, sub-optimality {subopt:.2} ≤ guarantee {}",
        report.executions(),
        sb.mso_guarantee()
    );
    assert!(subopt <= sb.mso_guarantee());

    // 5. The native optimizer's exposure at the same location:
    let source = CostSource::Recost(&surface, &opt);
    let native = (Strategy::Native.compile(source, &Params::default())).expect("native compiles");
    let report = native.run(&mut CostOracle::at_grid(&opt, grid, qa_idx));
    println!(
        "native optimizer at the same truth: sub-optimality {:.2} (no guarantee)",
        report
            .expect("one execution")
            .sub_optimality(surface.opt_cost(qa_idx))
    );
}
