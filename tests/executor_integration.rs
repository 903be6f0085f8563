//! Integration tests: the execution engine against the discovery stack.
//!
//! These exercise the full loop the paper's modified PostgreSQL performs:
//! real budgeted/spill-mode executions over materialized data, driving
//! SpillBound/AlignedBound end-to-end, and cross-checking the
//! executor-backed oracle against the analytical cost oracle. The engine
//! itself — budget aborts, spill observations, injected faults, plan
//! validation, and bit-equality with the reference engine — is checked on
//! a toy star join.

use rqp::catalog::tpcds;
use rqp::core::{AlignedBound, SpillBound};
use rqp::ess::EssSurface;
use rqp::executor::{
    reference::Executor, validate, DataStore, Engine, NodeObservation, PlanEngine,
};
use rqp::faults::{FaultPlan, FaultSite};
use rqp::optimizer::{
    CostParams, EnumerationMode, JoinMethod, Optimizer, PlanNode, Predicate, PredicateKind,
    QuerySpec, ScanMethod,
};
use rqp::runner::{measure_qa, ExecOracle};
use rqp::workloads::{executable_genspec, executable_genspec_with_errors, q91_with_dims};
use rqp_catalog::datagen::{ColumnGen, GenSpec, TableGenSpec};
use rqp_catalog::{Catalog, Column, ColumnStats, DataSet, DataType, Table};
use rqp_common::{MultiGrid, RqpError};
use std::sync::Arc;

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
    let exec = Engine::new(fx.catalog, fx.query, &fx.store, CostParams::default());
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
    let exec = Engine::new(fx.catalog, fx.query, &fx.store, CostParams::default());
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
    let exec = Engine::new(fx.catalog, fx.query, &fx.store, CostParams::default());
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
    let exec = Engine::new(fx.catalog, fx.query, &fx.store, CostParams::default());
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
    let exec = Engine::new(fx.catalog, fx.query, &fx.store, CostParams::default());
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
    let exec = Engine::new(fx.catalog, fx.query, &fx.store, CostParams::default());
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

// ------------------------------------------------- engine against a toy star

/// fact(5000 rows, fk uniform-100 indexed, v uniform-100) ⋈ dim(100 rows,
/// serial indexed pk), filter `fact.v <= 49`: a planted join selectivity
/// of 1/100 and a filter selectivity of about 1/2.
fn toy() -> (Catalog, QuerySpec, DataStore) {
    let mut cat = Catalog::new();
    let fact = cat
        .add_table(Table::new(
            "fact",
            5_000,
            vec![
                Column::new("fk", DataType::Int, ColumnStats::uniform(100)).with_index(),
                Column::new("v", DataType::Int, ColumnStats::uniform(100)),
            ],
        ))
        .unwrap();
    let dim = cat
        .add_table(Table::new(
            "dim",
            100,
            vec![Column::new("k", DataType::Int, ColumnStats::uniform(100)).with_index()],
        ))
        .unwrap();
    let query = QuerySpec {
        name: "exec_test".into(),
        relations: vec![fact, dim],
        predicates: vec![
            Predicate {
                label: "fk=k".into(),
                kind: PredicateKind::Join {
                    left: 0,
                    left_col: 0,
                    right: 1,
                    right_col: 0,
                },
            },
            Predicate {
                label: "v<=49".into(),
                kind: PredicateKind::FilterLe {
                    rel: 0,
                    col: 1,
                    value: 49,
                },
            },
        ],
        epps: vec![0],
    };
    let data = DataSet::generate(
        &cat,
        &GenSpec {
            seed: 11,
            tables: vec![
                TableGenSpec {
                    table: fact,
                    rows: 5_000,
                    columns: vec![
                        ColumnGen::Uniform { domain: 100 },
                        ColumnGen::Uniform { domain: 100 },
                    ],
                },
                TableGenSpec {
                    table: dim,
                    rows: 100,
                    columns: vec![ColumnGen::Serial],
                },
            ],
        },
    )
    .unwrap();
    let store = DataStore::new(&cat, data);
    (cat, query, store)
}

/// Every fact row matches exactly one dim row; the filter keeps v <= 49.
fn toy_rows(store: &DataStore) -> u64 {
    let fact = store.table(0).unwrap();
    (0..fact.rows()).filter(|&r| fact.col(1)[r] <= 49).count() as u64
}

/// fact (filtered by `filters`) ⋈ dim. An index-NL join absorbs its
/// inner scan, whatever that scan's method, so it gets an unfiltered
/// index scan no other operator could run.
fn toy_plan(method: JoinMethod, filters: Vec<usize>) -> PlanNode {
    let inner = if method == JoinMethod::IndexNLJoin {
        ScanMethod::IndexScan
    } else {
        ScanMethod::SeqScan
    };
    PlanNode::Join {
        method,
        left: Box::new(PlanNode::Scan {
            rel: 0,
            method: ScanMethod::SeqScan,
            filters,
        }),
        right: Box::new(PlanNode::Scan {
            rel: 1,
            method: inner,
            filters: vec![],
        }),
        preds: vec![0],
    }
}

const METHODS: [JoinMethod; 4] = [
    JoinMethod::HashJoin,
    JoinMethod::SortMergeJoin,
    JoinMethod::NestedLoopJoin,
    JoinMethod::IndexNLJoin,
];

#[test]
fn all_join_methods_agree_on_result_count() {
    let (cat, query, store) = toy();
    let engine = Engine::new(&cat, &query, &store, CostParams::default());
    let expected = toy_rows(&store);
    assert!(expected > 2000, "sanity: ~2500 expected, got {expected}");
    for method in METHODS {
        let out = engine
            .run_full(&toy_plan(method, vec![1]), f64::INFINITY)
            .unwrap();
        assert!(out.completed);
        assert_eq!(out.rows_out, expected, "{method:?} row count");
        assert!(out.spent > 0.0);
    }
}

#[test]
fn budget_abort_discards_the_output() {
    let (cat, query, store) = toy();
    let engine = Engine::new(&cat, &query, &store, CostParams::default());
    let plan = toy_plan(JoinMethod::HashJoin, vec![1]);
    let full = engine.run_full(&plan, f64::INFINITY).unwrap();
    let out = engine.run_full(&plan, full.spent * 0.3).unwrap();
    assert!(!out.completed);
    assert_eq!(out.rows_out, 0, "partial results discarded");
    assert!((out.spent - full.spent * 0.3).abs() < 1e-9);
}

#[test]
fn spill_mode_observes_planted_selectivities() {
    let (cat, query, store) = toy();
    let engine = Engine::new(&cat, &query, &store, CostParams::default());
    let plan = toy_plan(JoinMethod::HashJoin, vec![1]);
    let run = engine.run_spill(&plan, 0, f64::INFINITY).unwrap();
    assert!(run.completed);
    let sel = run.observation.unwrap().combined_selectivity();
    assert!(
        (sel - 0.01).abs() / 0.01 < 0.1,
        "observed join selectivity {sel} should be ~0.01"
    );
    // Spilling on the filter runs only the fact scan.
    let run_f = engine.run_spill(&plan, 1, f64::INFINITY).unwrap();
    assert!(run_f.completed);
    match run_f.observation.unwrap() {
        NodeObservation::Scan { in_rows, out_rows } => {
            assert_eq!(in_rows, 5_000);
            let sel = out_rows as f64 / in_rows as f64;
            assert!((sel - 0.5).abs() < 0.05, "filter sel {sel} ~ 0.5");
        }
        other => panic!("filter spill must observe a scan, got {other:?}"),
    }
    assert!(run_f.spent < run.spent, "scan subtree cheaper than join");
}

#[test]
fn injected_faults_abort_with_a_typed_error() {
    let (cat, query, store) = toy();
    let plan = toy_plan(JoinMethod::HashJoin, vec![1]);
    let plain = Engine::new(&cat, &query, &store, CostParams::default());
    let full = plain.run_full(&plan, f64::INFINITY).unwrap();
    let spill = plain.run_spill(&plan, 0, f64::INFINITY).unwrap();
    let faulted = |site| {
        Engine::new(&cat, &query, &store, CostParams::default())
            .with_faults(Arc::new(FaultPlan::new(7).with_site(site, 1.0)))
    };
    // Unbudgeted runs abort at once; budgeted ones strictly inside the
    // budget, which the run would not have exhausted.
    for budget in [f64::INFINITY, full.spent * 2.0] {
        let err = faulted(FaultSite::ExecFull)
            .run_full(&plan, budget)
            .unwrap_err();
        assert!(matches!(err, RqpError::Fault(_)), "got {err:?}");
        assert_eq!(err.kind(), "execution_fault");
    }
    let err = faulted(FaultSite::ExecSpill)
        .run_spill(&plan, 0, spill.spent * 2.0)
        .unwrap_err();
    assert!(matches!(err, RqpError::Fault(_)), "got {err:?}");

    // A zero-rate plan is a no-op.
    let quiet = Engine::new(&cat, &query, &store, CostParams::default())
        .with_faults(Arc::new(FaultPlan::new(7)));
    assert_eq!(quiet.run_full(&plan, f64::INFINITY).unwrap(), full);
    assert_eq!(quiet.run_spill(&plan, 0, f64::INFINITY).unwrap(), spill);
}

#[test]
fn spill_on_a_missing_predicate_errors() {
    let (cat, query, store) = toy();
    let engine = Engine::new(&cat, &query, &store, CostParams::default());
    let plan = PlanNode::Scan {
        rel: 0,
        method: ScanMethod::SeqScan,
        filters: vec![1],
    };
    assert!(matches!(
        engine.run_spill(&plan, 0, 1e9),
        Err(RqpError::Execution(_))
    ));
}

#[test]
fn metered_cost_tracks_the_cost_model() {
    // With exact cardinality estimates, the metered cost is within a
    // small factor of the cost model's.
    let (cat, query, store) = toy();
    let engine = Engine::new(&cat, &query, &store, CostParams::default());
    let opt = Optimizer::new(
        &cat,
        &query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .unwrap();
    let mut sels = opt.base_sels().clone();
    sels.set(0, 0.01); // planted
    sels.set(1, toy_rows(&store) as f64 / 5_000.0);
    let (plan, modeled) = opt.optimize_with(&sels);
    let out = engine.run_full(&plan, f64::INFINITY).unwrap();
    assert!(out.completed);
    let ratio = out.spent / modeled;
    assert!(
        (0.3..3.0).contains(&ratio),
        "metered {} vs modeled {modeled}: ratio {ratio}",
        out.spent
    );
}

/// The two plan shapes no engine can run are typed execution errors from
/// the one validation, in full and spill mode, on both engines.
#[test]
fn malformed_plan_shapes_are_execution_errors() {
    let (cat, query, store) = toy();
    let engine = Engine::new(&cat, &query, &store, CostParams::default());
    let reference = Executor::new(&cat, &query, &store, CostParams::default());
    let unfiltered_index_scan = PlanNode::Scan {
        rel: 0,
        method: ScanMethod::IndexScan,
        filters: vec![],
    };
    let index_nl_over_a_join = PlanNode::Join {
        method: JoinMethod::IndexNLJoin,
        left: Box::new(PlanNode::Scan {
            rel: 0,
            method: ScanMethod::SeqScan,
            filters: vec![1],
        }),
        right: Box::new(toy_plan(JoinMethod::HashJoin, vec![])),
        preds: vec![0],
    };
    for (plan, msg) in [
        (&unfiltered_index_scan, "index scan without driving filter"),
        (
            &index_nl_over_a_join,
            "index nested-loop inner must be a scan",
        ),
    ] {
        let is_typed = |r: rqp::common::Result<()>| matches!(r, Err(RqpError::Execution(m)) if m.contains(msg));
        assert!(is_typed(validate(plan)), "{msg}");
        assert!(is_typed(engine.run_full(plan, f64::INFINITY).map(|_| ())));
        assert!(is_typed(
            reference.run_full(plan, f64::INFINITY).map(|_| ())
        ));
    }
    assert!(matches!(
        engine.run_spill(&index_nl_over_a_join, 0, f64::INFINITY),
        Err(RqpError::Execution(_))
    ));
}

/// The batch engine reproduces the reference engine bit for bit on every
/// join method, in full and spill mode, and under budgets that trip.
#[test]
fn engine_matches_the_reference_bitwise() {
    let (cat, query, store) = toy();
    let reference = Executor::new(&cat, &query, &store, CostParams::default());
    let engine = Engine::new(&cat, &query, &store, CostParams::default());
    for method in METHODS {
        for filters in [vec![], vec![1]] {
            let plan = toy_plan(method, filters.clone());
            let a = reference.run_full(&plan, f64::INFINITY).unwrap();
            let b = engine.run_full(&plan, f64::INFINITY).unwrap();
            assert_eq!(a.rows_out, b.rows_out, "{plan:?}");
            assert_eq!(a.spent.to_bits(), b.spent.to_bits(), "{plan:?}");
            for &pred in [0].iter().chain(&filters) {
                let sa = reference.run_spill(&plan, pred, f64::INFINITY).unwrap();
                let sb = engine.run_spill(&plan, pred, f64::INFINITY).unwrap();
                assert_eq!(sa.observation, sb.observation, "{plan:?} pred {pred}");
                assert_eq!(sa.spent.to_bits(), sb.spent.to_bits());
            }
        }
    }
    let plan = toy_plan(JoinMethod::HashJoin, vec![1]);
    let full = engine.run_full(&plan, f64::INFINITY).unwrap();
    for frac in [0.25, 0.5, 0.9, 0.999, 1.0] {
        let budget = full.spent * frac;
        let a = reference.run_full(&plan, budget).unwrap();
        let b = engine.run_full(&plan, budget).unwrap();
        assert_eq!(a, b, "frac {frac}");
        assert_eq!(a.spent.to_bits(), b.spent.to_bits());
        // Exactly at budget completes: spend == budget passes.
        assert_eq!(b.completed, frac == 1.0);
    }
}
