//! The batch engine must be bit-compatible with the row-at-a-time reference.
//!
//! Budgeted execution, spill-mode runs, metered costs, and discovery
//! reports are the *observable* outputs the robustness algorithms reason
//! about; switching engines must not move a single bit of any of them.
//! Property layer: random plan shapes (all four join methods, seq/index
//! scans, both join orientations) x random budgets x both `TableStore`
//! backends produce bit-identical `ExecOutcome`s and `SpillRun`s, and so
//! do optimizer-chosen plans at random ESS locations. Edge layer: row
//! counts straddling `BATCH_SIZE`, empty and single-row tables, filter
//! selectivities of exactly 0 and 1, and budgets expiring exactly on a
//! batch edge. Coverage layer: every plan the paper suite's optimizer can
//! emit passes the plan validation both engines share, and full SB/AB
//! discovery through the batch [`Engine`] reproduces the row-at-a-time
//! reference engine's reports byte for byte.

use proptest::prelude::*;
use rqp::catalog::tpcds;
use rqp::core::{AlignedBound, SpillBound};
use rqp::ess::EssSurface;
use rqp::executor::reference::Executor;
use rqp::executor::{validate, DataStore, Engine, PlanEngine, TableStore, BATCH_SIZE};
use rqp::optimizer::{
    CostParams, EnumerationMode, JoinMethod, Optimizer, PlanNode, Predicate, PredicateKind,
    QuerySpec, ScanMethod,
};
use rqp::runner::ExecOracle;
use rqp::storage::{PagedStore, StorageConfig};
use rqp::workloads::{executable_genspec_with_errors, paper_suite, q91_with_dims};
use rqp_catalog::datagen::{ColumnGen, DataSet, GenSpec, TableGenSpec};
use rqp_catalog::{Catalog, Column, ColumnStats, DataType, Table};
use rqp_common::MultiGrid;
use std::sync::OnceLock;

// ---------------------------------------------------------------- fixture

/// fact(`fact_rows`, fk uniform-100 indexed, v uniform-100 indexed) ⋈
/// dim(100, serial pk indexed), filter `fact.v <= filter_le`. The indexed
/// filter column makes standalone `IndexScan` plans compilable, unlike
/// the executor's internal fixture.
fn build(fact_rows: u64, filter_le: i64) -> (Catalog, QuerySpec, DataSet) {
    let mut cat = Catalog::new();
    let fact = cat
        .add_table(Table::new(
            "fact",
            fact_rows,
            vec![
                Column::new("fk", DataType::Int, ColumnStats::uniform(100)).with_index(),
                Column::new("v", DataType::Int, ColumnStats::uniform(100)).with_index(),
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
        name: "batch_vs_row".into(),
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
                label: format!("v<={filter_le}"),
                kind: PredicateKind::FilterLe {
                    rel: 0,
                    col: 1,
                    value: filter_le,
                },
            },
        ],
        epps: vec![0, 1],
    };
    let data = DataSet::generate(
        &cat,
        &GenSpec {
            seed: 23,
            tables: vec![
                TableGenSpec {
                    table: fact,
                    rows: fact_rows,
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
    (cat, query, data)
}

struct Fx {
    catalog: Catalog,
    query: QuerySpec,
    mem: DataStore,
    paged: PagedStore,
}

fn fx_from(fact_rows: u64, filter_le: i64, pool_frames: usize) -> Fx {
    let (catalog, query, data) = build(fact_rows, filter_le);
    let paged = PagedStore::materialize(
        &catalog,
        &data,
        StorageConfig::default().with_pool_frames(pool_frames),
    )
    .expect("materialize");
    let mem = DataStore::new(&catalog, data);
    Fx {
        catalog,
        query,
        mem,
        paged,
    }
}

/// Shared 4000-row fixture for the property tests (built once; the
/// 16-frame pool is far smaller than the fact table's page count).
fn fx() -> &'static Fx {
    static FX: OnceLock<Fx> = OnceLock::new();
    FX.get_or_init(|| fx_from(4000, 49, 16))
}

// ------------------------------------------------------------ differential

/// Runs `plan` under `budget` on the reference engine and the batch
/// `Engine` over both backends, asserting bit-identical full outcomes
/// and spill runs (for every predicate in `spill_preds`), and mem/paged
/// agreement within the batch engine.
fn assert_bit_identical(fx: &Fx, plan: &PlanNode, budget: f64, spill_preds: &[usize]) {
    let mut batch_spent_bits = Vec::new();
    for store in [&fx.mem as &dyn TableStore, &fx.paged as &dyn TableStore] {
        let row = Executor::new(&fx.catalog, &fx.query, store, CostParams::default());
        let engine = Engine::new(&fx.catalog, &fx.query, store, CostParams::default());
        let a = row.run_full(plan, budget).expect("row engine");
        let b = engine.run_full(plan, budget).expect("batch engine");
        assert_eq!(a.completed, b.completed, "completion diverged");
        assert_eq!(a.rows_out, b.rows_out, "row count diverged");
        assert_eq!(
            a.spent.to_bits(),
            b.spent.to_bits(),
            "metered cost diverged: {} vs {}",
            a.spent,
            b.spent
        );
        batch_spent_bits.push((b.completed, b.rows_out, b.spent.to_bits()));
        for &pred in spill_preds {
            let sa = row.run_spill(plan, pred, budget).expect("row spill");
            let sb = engine.run_spill(plan, pred, budget).expect("batch spill");
            assert_eq!(sa.completed, sb.completed, "spill completion diverged");
            assert_eq!(sa.observation, sb.observation, "spill observation diverged");
            assert_eq!(
                sa.spent.to_bits(),
                sb.spent.to_bits(),
                "spill cost diverged on pred {pred}: {} vs {}",
                sa.spent,
                sb.spent
            );
        }
    }
    assert_eq!(
        batch_spent_bits[0], batch_spent_bits[1],
        "batch engine diverged between mem and paged backends"
    );
}

const METHODS: [JoinMethod; 4] = [
    JoinMethod::HashJoin,
    JoinMethod::SortMergeJoin,
    JoinMethod::NestedLoopJoin,
    JoinMethod::IndexNLJoin,
];

/// fact ⋈ dim with the fact side optionally filtered / index-driven, in
/// either join orientation.
fn join_plan(method: JoinMethod, index_scan: bool, with_filter: bool, swap: bool) -> PlanNode {
    let fact = PlanNode::Scan {
        rel: 0,
        method: if index_scan && with_filter {
            ScanMethod::IndexScan
        } else {
            ScanMethod::SeqScan
        },
        filters: if with_filter { vec![1] } else { vec![] },
    };
    let dim = PlanNode::Scan {
        rel: 1,
        method: ScanMethod::SeqScan,
        filters: vec![],
    };
    let (left, right) = if swap { (dim, fact) } else { (fact, dim) };
    PlanNode::Join {
        method,
        left: Box::new(left),
        right: Box::new(right),
        preds: vec![0],
    }
}

/// Full-run metered cost of `plan` on the reference engine (the budget
/// scale).
fn full_cost(fx: &Fx, plan: &PlanNode) -> f64 {
    Executor::new(&fx.catalog, &fx.query, &fx.mem, CostParams::default())
        .run_full(plan, f64::INFINITY)
        .expect("unbudgeted run")
        .spent
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random plan shape x random budget fraction: both engines, both
    /// backends, full and spill mode, bit-identical.
    #[test]
    fn random_plans_bit_identical(
        m in 0usize..4,
        index_scan in any::<bool>(),
        with_filter in any::<bool>(),
        swap in any::<bool>(),
        frac in 0.02f64..1.3,
    ) {
        let fx = fx();
        let plan = join_plan(METHODS[m], index_scan, with_filter, swap);
        let budget = frac * full_cost(fx, &plan);
        let spill: &[usize] = if with_filter { &[0, 1] } else { &[0] };
        assert_bit_identical(fx, &plan, budget, spill);
    }

    /// Optimizer-chosen plans at random ESS locations (the plans the
    /// discovery algorithms actually execute), random budgets included.
    #[test]
    fn optimizer_plans_bit_identical(
        s0 in 1e-6f64..0.9,
        s1 in 1e-6f64..0.9,
        frac in 0.05f64..1.2,
    ) {
        let fx = fx();
        let opt = Optimizer::new(
            &fx.catalog,
            &fx.query,
            CostParams::default(),
            EnumerationMode::LeftDeep,
        )
        .expect("valid query");
        let (plan, _) = opt.optimize_at(&[s0, s1]);
        prop_assert!(validate(&plan).is_ok(), "optimizer emitted an invalid plan");
        let budget = frac * full_cost(fx, &plan);
        assert_bit_identical(fx, &plan, budget, &[0]);
    }
}

// ------------------------------------------------------------- edge cases

/// Row counts straddling the batch size (and empty / single-row tables)
/// keep the engines bit-identical in full and spill mode.
#[test]
fn row_counts_straddling_batch_size() {
    for rows in [
        0,
        1,
        BATCH_SIZE as u64 - 1,
        BATCH_SIZE as u64,
        BATCH_SIZE as u64 + 1,
        2 * BATCH_SIZE as u64 + 17,
    ] {
        let fx = fx_from(rows, 49, 8);
        for method in METHODS {
            let plan = join_plan(method, false, true, false);
            assert_bit_identical(&fx, &plan, f64::INFINITY, &[0, 1]);
        }
    }
}

/// Mid-batch filter selectivity of exactly 0 (`v <= -1`) and exactly 1
/// (`v <= 99` over a 0..=99 domain): the selection-vector fast paths.
#[test]
fn filter_selectivity_extremes() {
    for filter_le in [-1, 99] {
        let fx = fx_from(3000, filter_le, 8);
        for method in METHODS {
            for index_scan in [false, true] {
                let plan = join_plan(method, index_scan, true, false);
                assert_bit_identical(&fx, &plan, f64::INFINITY, &[0, 1]);
            }
        }
    }
}

/// Budgets expiring exactly on a batch edge. A bare sequential scan
/// charges a constant per-tuple rate with checks quantized at
/// `BATCH_SIZE`, so `rate * k*BATCH_SIZE` (and one-ulp neighbours) lands
/// a budget exactly on / beside a check point; and a budget equal to the
/// full metered cost must complete (the trip condition is strictly
/// greater), while one ulp below must time out — identically in both
/// engines.
#[test]
fn budget_expiring_on_batch_edges() {
    let rows = 4 * BATCH_SIZE as u64;
    let fx = fx_from(rows, 49, 8);
    let scan = PlanNode::Scan {
        rel: 0,
        method: ScanMethod::SeqScan,
        filters: vec![],
    };
    let total = full_cost(&fx, &scan);
    let rate = total / rows as f64;
    let ulp_down = |x: f64| f64::from_bits(x.to_bits() - 1);
    let ulp_up = |x: f64| f64::from_bits(x.to_bits() + 1);
    for k in [1u64, 2, 3, 4] {
        let edge = rate * (k * BATCH_SIZE as u64) as f64;
        for budget in [ulp_down(edge), edge, ulp_up(edge)] {
            assert_bit_identical(&fx, &scan, budget, &[]);
        }
    }
    // Exactly the full cost completes; one ulp below does not.
    let row = Executor::new(&fx.catalog, &fx.query, &fx.mem, CostParams::default());
    assert!(row.run_full(&scan, total).unwrap().completed);
    assert!(!row.run_full(&scan, ulp_down(total)).unwrap().completed);
    assert_bit_identical(&fx, &scan, total, &[]);
    assert_bit_identical(&fx, &scan, ulp_down(total), &[]);
    // The same boundary behavior through a join (checks interleave
    // across operators, outcomes stay position-independent).
    let plan = join_plan(JoinMethod::HashJoin, false, true, false);
    let jtotal = full_cost(&fx, &plan);
    for budget in [jtotal, ulp_down(jtotal), 0.5 * jtotal] {
        assert_bit_identical(&fx, &plan, budget, &[0, 1]);
    }
}

// ---------------------------------------------------------------- coverage

/// Every plan the optimizer can emit for the whole paper suite passes the
/// plan validation: neither engine would reject it.
#[test]
fn paper_suite_plans_never_fall_back() {
    let catalog = tpcds::catalog_sf100();
    for bench in paper_suite(&catalog) {
        let opt = Optimizer::new(
            &catalog,
            &bench.query,
            CostParams::default(),
            EnumerationMode::LeftDeep,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
        let d = bench.query.ndims();
        let mut locations = vec![vec![1e-6; d], vec![0.5; d], vec![0.9; d]];
        for j in 0..d {
            let mut one_hot = vec![1e-6; d];
            one_hot[j] = 0.3;
            locations.push(one_hot);
        }
        for sels in &locations {
            let (plan, _) = opt.optimize_at(sels);
            if let Err(e) = validate(&plan) {
                panic!(
                    "{} at {sels:?}: optimizer emitted an invalid plan: {e}",
                    bench.name()
                );
            }
        }
    }
}

/// Full SB/AB discovery through the batch engine is byte-identical to the
/// reference engine's reports on both backends.
#[test]
fn discovery_reports_bit_identical_between_engines() {
    let catalog = tpcds::catalog(0.05);
    let bench = q91_with_dims(&catalog, 2);
    let query = &bench.query;
    let spec = executable_genspec_with_errors(&catalog, query, 42, &[50.0, 20.0]);
    let data = DataSet::generate(&catalog, &spec).expect("generate");
    let paged = PagedStore::materialize(
        &catalog,
        &data,
        StorageConfig::default().with_pool_frames(32),
    )
    .expect("materialize");
    let mem = DataStore::new(&catalog, data);
    let opt = Optimizer::new(
        &catalog,
        query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .expect("valid query");
    let surface = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-7, 6));

    // serde_json round-trips f64 exactly: string equality is bit
    // equality for every budget, cost, and learnt selectivity.
    let mut reports: Vec<Vec<String>> = Vec::new();
    for store in [&mem as &dyn TableStore, &paged as &dyn TableStore] {
        for engine in [true, false] {
            let mut out = Vec::new();
            for algo in ["sb", "ab"] {
                let report = if engine {
                    let exec = Engine::new(&catalog, query, store, CostParams::default());
                    let mut oracle = ExecOracle::new(exec, &opt, surface.grid());
                    match algo {
                        "sb" => SpillBound::new(&surface, &opt, 2.0).run(&mut oracle),
                        _ => AlignedBound::new(&surface, &opt, 2.0).run(&mut oracle),
                    }
                } else {
                    let exec = Executor::new(&catalog, query, store, CostParams::default());
                    let mut oracle = ExecOracle::new(exec, &opt, surface.grid());
                    match algo {
                        "sb" => SpillBound::new(&surface, &opt, 2.0).run(&mut oracle),
                        _ => AlignedBound::new(&surface, &opt, 2.0).run(&mut oracle),
                    }
                }
                .unwrap_or_else(|e| panic!("{algo} completes: {e}"));
                out.push(format!(
                    "{algo} {} {}",
                    report.total_cost.to_bits(),
                    serde_json::to_string(&report).expect("serialize")
                ));
            }
            reports.push(out);
        }
    }
    for r in &reports[1..] {
        assert_eq!(&reports[0], r, "discovery reports diverged");
    }
}
