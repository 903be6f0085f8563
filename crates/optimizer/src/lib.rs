//! A cost-based query optimizer with *selectivity injection*.
//!
//! This crate reproduces the engine-side machinery the paper adds to
//! PostgreSQL (§6.1): the ability to optimize a query **at an arbitrary
//! location of the error-prone selectivity space (ESS)** by injecting
//! selectivities for the error-prone predicates (epps), to **re-cost a
//! fixed plan** at any other location ("abstract plan" costing), to
//! decompose a plan into pipelines and identify its **spill node**
//! (§3.1.3), and to obtain the **least-cost plan that spills on a chosen
//! epp** (needed by AlignedBound, §6.1).
//!
//! The optimizer itself is a from-scratch Selinger-style dynamic program
//! over SPJ join graphs with sequential/index scans and hash, sort-merge,
//! nested-loop and index-nested-loop joins, costed by a PostgreSQL-flavored
//! analytical model ([`cost::CostParams`]). Two properties matter for the
//! paper's guarantees and are enforced by tests:
//!
//! * **Plan Cost Monotonicity (PCM)**: `Cost(P, q)` is non-decreasing in
//!   every epp selectivity, strictly increasing once the epp's predicate
//!   contributes output tuples (§2.4, Eq. 5);
//! * **Optimality**: the DP returns the minimum-cost plan in its search
//!   space, so the optimal cost surface is well-defined.
//!
//! ```
//! use rqp_catalog::tpcds;
//! use rqp_optimizer::{CostParams, EnumerationMode, Optimizer, Predicate, PredicateKind, QuerySpec};
//!
//! let catalog = tpcds::catalog_sf100();
//! let query = QuerySpec {
//!     name: "demo".into(),
//!     relations: vec![
//!         catalog.table_id("store_sales").unwrap(),
//!         catalog.table_id("date_dim").unwrap(),
//!     ],
//!     predicates: vec![Predicate {
//!         label: "ss⋈d".into(),
//!         kind: PredicateKind::Join { left: 0, left_col: 0, right: 1, right_col: 0 },
//!     }],
//!     epps: vec![0],
//! };
//! let opt = Optimizer::new(&catalog, &query, CostParams::default(),
//!                          EnumerationMode::LeftDeep).unwrap();
//! // Selectivity injection: optimize the same query at two ESS locations.
//! let (cheap_plan, cheap) = opt.optimize_at(&[1e-6]);
//! let (big_plan, big) = opt.optimize_at(&[1.0]);
//! assert!(cheap < big);                                   // PCM
//! // Abstract-plan costing: re-cost a fixed plan elsewhere.
//! let recost = opt.cost_plan(&cheap_plan, &opt.sels_at(&[1.0]));
//! assert!(recost >= big);                                 // DP optimality
//! # let _ = big_plan;
//! ```

pub mod constrained;
pub mod cost;
pub mod cost_matrix;
pub mod dp;
pub mod parser;
pub mod pipeline;
pub mod plan;
pub mod query;

pub use cost::{CostModel, CostParams};
pub use cost_matrix::{CostMatrix, RecostSweep};
pub use dp::{DpSweep, EnumerationMode, Optimizer, PlanKey};
pub use parser::parse_sql;
pub use plan::{JoinMethod, PlanId, PlanNode, PlanPool, ScanMethod};
pub use query::{PredId, Predicate, PredicateKind, QuerySpec, RelIdx, Sels};
