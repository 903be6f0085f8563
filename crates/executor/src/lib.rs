//! A vectorized execution engine with the paper's engine extensions.
//!
//! The paper modified PostgreSQL with four features (§6.1): abstract-plan
//! execution, time-limited execution, spilling, and selectivity
//! monitoring. This crate provides all four natively over the synthetic
//! datasets of `rqp-catalog`:
//!
//! * **abstract-plan execution** — any [`rqp_optimizer::PlanNode`] is
//!   validated and lowered once ([`validate`]) and runs as a tree of
//!   batch-at-a-time operators ([`Engine`]);
//! * **budget-limited execution** — every operator meters its work in the
//!   same abstract cost units as the optimizer's cost model and aborts the
//!   moment the assigned budget is exhausted ([`meter::Meter`]);
//! * **spill-mode execution** — the subtree rooted at a chosen predicate's
//!   node runs alone, its output counted and discarded (§3.1.2);
//! * **selectivity monitoring** — join/filter nodes report exact input and
//!   output tuple counts, from which true predicate selectivities are
//!   computed ([`NodeObservation`]).
//!
//! [`reference::Executor`] is a row-at-a-time engine over the same
//! lowering, kept as the oracle the differential tests compare against.
//!
//! ```
//! use rqp_catalog::{datagen::{ColumnGen, GenSpec, TableGenSpec}, Catalog, Column, ColumnStats, DataSet, DataType, Table};
//! use rqp_executor::{DataStore, Engine, PlanEngine};
//! use rqp_optimizer::{CostParams, EnumerationMode, Optimizer, Predicate, PredicateKind, QuerySpec};
//!
//! // fact(fk) ⋈ dim(k) over 1000 generated rows.
//! let mut catalog = Catalog::new();
//! let fact = catalog.add_table(Table::new("fact", 1_000, vec![
//!     Column::new("fk", DataType::Int, ColumnStats::uniform(50)).with_index(),
//! ])).unwrap();
//! let dim = catalog.add_table(Table::new("dim", 50, vec![
//!     Column::new("k", DataType::Int, ColumnStats::uniform(50)).with_index(),
//! ])).unwrap();
//! let query = QuerySpec {
//!     name: "demo".into(),
//!     relations: vec![fact, dim],
//!     predicates: vec![Predicate {
//!         label: "fk=k".into(),
//!         kind: PredicateKind::Join { left: 0, left_col: 0, right: 1, right_col: 0 },
//!     }],
//!     epps: vec![0],
//! };
//! let data = DataSet::generate(&catalog, &GenSpec {
//!     seed: 1,
//!     tables: vec![
//!         TableGenSpec { table: fact, rows: 1_000, columns: vec![ColumnGen::Uniform { domain: 50 }] },
//!         TableGenSpec { table: dim, rows: 50, columns: vec![ColumnGen::Serial] },
//!     ],
//! }).unwrap();
//! let store = DataStore::new(&catalog, data);
//! let opt = Optimizer::new(&catalog, &query, CostParams::default(),
//!                          EnumerationMode::LeftDeep).unwrap();
//! let engine = Engine::new(&catalog, &query, &store, CostParams::default());
//!
//! // Unbudgeted run: every fact row matches exactly one dim row.
//! let (plan, _) = opt.optimize_at(&[0.02]);
//! let out = engine.run_full(&plan, f64::INFINITY).unwrap();
//! assert!(out.completed);
//! assert_eq!(out.rows_out, 1_000);
//!
//! // Budget-limited run: a starved budget aborts and discards output.
//! let starved = engine.run_full(&plan, out.spent * 0.1).unwrap();
//! assert!(!starved.completed);
//! assert_eq!(starved.rows_out, 0);
//! ```

pub mod batch;
pub mod meter;
mod plan;
pub mod reference;
mod run;
pub mod store;

pub use batch::{Engine, BATCH_SIZE};
pub use meter::{ExecError, Ledger, Meter, CHARGE_QUANTUM};
pub use plan::validate;
pub use run::{ExecOutcome, NodeObservation, PlanEngine, SpillRun};
pub use store::DataStore;
// Backend-neutral storage view: the engines run against any `TableStore`
// (in-memory `DataStore` or out-of-core `rqp_storage::PagedStore`).
pub use rqp_storage::{TableRef, TableStore};
