//! Integration tests: the execution engine against the discovery stack.
//!
//! These exercise the full loop the paper's modified PostgreSQL performs:
//! real budgeted/spill-mode executions over materialized data, driving
//! SpillBound/AlignedBound end-to-end, and cross-checking the
//! executor-backed oracle against the analytical cost oracle.

use rqp::catalog::tpcds;
use rqp::core::{AlignedBound, SpillBound};
use rqp::ess::EssSurface;
use rqp::executor::{DataStore, Executor};
use rqp::optimizer::{CostParams, EnumerationMode, Optimizer};
use rqp::runner::{measure_qa, ExecOracle};
use rqp::workloads::{executable_genspec, executable_genspec_with_errors, q91_with_dims};
use rqp_catalog::DataSet;
use rqp_common::MultiGrid;

struct Fixture {
    catalog: &'static rqp::catalog::Catalog,
    query: &'static rqp::optimizer::QuerySpec,
    store: DataStore,
}

fn fixture(scale: f64, dims: usize, errors: Option<&[f64]>) -> Fixture {
    let catalog: &'static _ = Box::leak(Box::new(tpcds::catalog(scale)));
    let bench = q91_with_dims(catalog, dims);
    let query: &'static _ = Box::leak(Box::new(bench.query.clone()));
    let spec = match errors {
        Some(e) => executable_genspec_with_errors(catalog, query, 42, e),
        None => executable_genspec(catalog, query, 42),
    };
    let data = DataSet::generate(catalog, &spec).expect("generate");
    let store = DataStore::new(catalog, data);
    Fixture {
        catalog,
        query,
        store,
    }
}

#[test]
fn spillbound_completes_with_real_executor() {
    let fx = fixture(0.05, 2, Some(&[50.0, 20.0]));
    let opt = Optimizer::new(
        fx.catalog,
        fx.query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .unwrap();
    let surface = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-7, 12));
    let sb = SpillBound::new(&surface, &opt, 2.0);
    let exec = Executor::new(fx.catalog, fx.query, &fx.store, CostParams::default());
    let mut oracle = ExecOracle::new(exec, &opt, surface.grid());
    let report = sb.run(&mut oracle).expect("SB completes on real engine");
    assert!(report.completed);
    assert!(report.total_cost > 0.0);
    assert_eq!(oracle.timings.len(), report.executions());
}

#[test]
fn alignedbound_completes_with_real_executor() {
    let fx = fixture(0.05, 2, Some(&[50.0, 20.0]));
    let opt = Optimizer::new(
        fx.catalog,
        fx.query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .unwrap();
    let surface = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-7, 12));
    let ab = AlignedBound::new(&surface, &opt, 2.0);
    let exec = Executor::new(fx.catalog, fx.query, &fx.store, CostParams::default());
    let mut oracle = ExecOracle::new(exec, &opt, surface.grid());
    let report = ab.run(&mut oracle).expect("AB completes on real engine");
    assert!(report.completed);
}

#[test]
fn real_runs_learn_true_selectivities() {
    let fx = fixture(0.05, 2, Some(&[100.0, 10.0]));
    let opt = Optimizer::new(
        fx.catalog,
        fx.query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .unwrap();
    let surface = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-7, 12));
    let qa = measure_qa(&fx.store, fx.query);
    let sb = SpillBound::new(&surface, &opt, 2.0);
    let exec = Executor::new(fx.catalog, fx.query, &fx.store, CostParams::default());
    let mut oracle = ExecOracle::new(exec, &opt, surface.grid());
    let report = sb.run(&mut oracle).expect("completes");
    for (j, learnt) in report.learnt.iter().enumerate() {
        if let Some(s) = learnt {
            let truth = qa[j];
            // Observed selectivities are conditioned on the spilled
            // subtree's filtered inputs; with skew-injected data that
            // legitimately deviates a little from the marginal truth.
            assert!(
                (s - truth).abs() / truth < 0.2,
                "dim {j}: learnt {s} vs measured truth {truth}"
            );
        }
    }
}

#[test]
fn executor_result_counts_are_plan_invariant() {
    // Robustness cornerstone: whatever plan discovery executes, the final
    // result is the same relation.
    let fx = fixture(0.03, 2, None);
    let opt = Optimizer::new(
        fx.catalog,
        fx.query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .unwrap();
    let exec = Executor::new(fx.catalog, fx.query, &fx.store, CostParams::default());
    let mut counts = Vec::new();
    for sels in [[1e-6, 1e-6], [1e-3, 1e-2], [0.5, 0.9]] {
        let (plan, _) = opt.optimize_at(&sels);
        let out = exec.run_full(&plan, f64::INFINITY).expect("runs");
        assert!(out.completed);
        counts.push(out.rows_out);
    }
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "plans disagree on the result: {counts:?}"
    );
}

#[test]
fn budget_timeouts_discard_results_and_charge_budget() {
    let fx = fixture(0.03, 2, None);
    let opt = Optimizer::new(
        fx.catalog,
        fx.query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .unwrap();
    let exec = Executor::new(fx.catalog, fx.query, &fx.store, CostParams::default());
    let (plan, _) = opt.optimize_at(&[1e-3, 1e-3]);
    let full = exec.run_full(&plan, f64::INFINITY).expect("runs");
    let tiny = full.spent * 0.1;
    let out = exec.run_full(&plan, tiny).expect("runs");
    assert!(!out.completed);
    assert_eq!(out.rows_out, 0);
    assert!((out.spent - tiny).abs() < 1e-9);
}

#[test]
fn cost_oracle_and_exec_oracle_agree_on_plan_choices() {
    // With data generated to match the statistics, both oracles should
    // drive SpillBound through the same contour progression.
    let fx = fixture(0.05, 2, None);
    let opt = Optimizer::new(
        fx.catalog,
        fx.query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .unwrap();
    let surface = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-7, 10));
    let qa = measure_qa(&fx.store, fx.query);

    let sb = SpillBound::new(&surface, &opt, 2.0);
    let exec = Executor::new(fx.catalog, fx.query, &fx.store, CostParams::default());
    let mut real = ExecOracle::new(exec, &opt, surface.grid());
    let real_report = sb.run(&mut real).expect("real completes");

    let mut cost = rqp::core::CostOracle::new(&opt, surface.grid(), &qa);
    let cost_report = sb.run(&mut cost).expect("cost completes");

    // Same final contour within one step (metering vs model wobble).
    let rc = real_report.last_contour().unwrap() as i64;
    let cc = cost_report.last_contour().unwrap() as i64;
    assert!(
        (rc - cc).abs() <= 1,
        "real finished at contour {rc}, cost model at {cc}"
    );
}
