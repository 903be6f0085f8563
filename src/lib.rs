//! # rqp — Platform-Independent Robust Query Processing
//!
//! A from-scratch Rust reproduction of *"Platform-Independent Robust Query
//! Processing"* (Karthik, Haritsa, Kenkre, Pandit, Krishnan; ICDE'16 /
//! TKDE'19): the **SpillBound** and **AlignedBound** selectivity-discovery
//! algorithms with provable Maximum Sub-Optimality (MSO) guarantees, the
//! **PlanBouquet** baseline, and every substrate they need — a cost-based
//! optimizer with selectivity injection, a budgeted/spill-capable
//! execution engine, and the error-prone selectivity space (ESS)
//! machinery.
//!
//! ## Quickstart
//!
//! ```
//! use rqp::catalog::tpcds;
//! use rqp::common::MultiGrid;
//! use rqp::core::{CostOracle, SpillBound};
//! use rqp::ess::EssSurface;
//! use rqp::optimizer::{CostParams, EnumerationMode, Optimizer};
//! use rqp::workloads;
//!
//! // 1. Catalog + query: TPC-DS Q91 with two error-prone joins.
//! let catalog = tpcds::catalog_sf100();
//! let bench = workloads::q91_with_dims(&catalog, 2);
//!
//! // 2. Optimizer with selectivity injection, and the POSP surface.
//! let opt = Optimizer::new(
//!     &catalog, &bench.query, CostParams::default(), EnumerationMode::LeftDeep,
//! ).unwrap();
//! let grid = MultiGrid::uniform(2, 1e-6, 8);
//! let surface = EssSurface::build(&opt, grid);
//!
//! // 3. Run SpillBound against a hidden true location.
//! let mut sb = SpillBound::new(&surface, &opt, 2.0);
//! let qa = surface.grid().flat(&[5, 3]);
//! let mut oracle = CostOracle::at_grid(&opt, surface.grid(), qa);
//! let report = sb.run(&mut oracle).unwrap();
//! assert!(report.completed);
//! assert!(report.sub_optimality(surface.opt_cost(qa)) <= sb.mso_guarantee());
//! ```

pub use rqp_artifacts as artifacts;
pub use rqp_catalog as catalog;
pub use rqp_common as common;
pub use rqp_core as core;
pub use rqp_ess as ess;
pub use rqp_executor as executor;
pub use rqp_faults as faults;
pub use rqp_obs as obs;
pub use rqp_optimizer as optimizer;
pub use rqp_server as server;
pub use rqp_storage as storage;
pub use rqp_workloads as workloads;

pub mod experiments;
pub mod figures;
pub mod runner;
