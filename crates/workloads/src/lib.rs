//! Benchmark workloads (§6.1).
//!
//! The paper's test suite is "representative SPJ queries from the TPC-DS
//! benchmark, operating at the base size of 100 GB", with 2–6 error-prone
//! join predicates, named `xD_Qz` (x = epp count, z = TPC-DS query
//! number), plus Query 1a of the Join Order Benchmark (§6.5). This crate
//! defines those join-graph cores over the catalogs of `rqp-catalog`,
//! the per-query ESS grid resolutions, and dataset recipes for
//! executor-backed (wall-clock) runs.
//!
//! ```
//! use rqp_catalog::tpcds;
//! use rqp_workloads::{paper_suite, q91_with_dims};
//!
//! let catalog = tpcds::catalog_sf100();
//! assert_eq!(paper_suite(&catalog).len(), 11);
//! let q = q91_with_dims(&catalog, 4);
//! assert_eq!(q.name(), "4D_Q91");
//! assert_eq!(q.grid().ndims(), 4);
//! println!("{}", q.query.to_sql(&catalog));
//! ```

pub mod builder;
pub mod example;
pub mod job;
pub mod suite;
pub mod tpcds_queries;

pub use builder::QueryBuilder;
pub use example::example_query_eq;
pub use suite::{
    executable_genspec, executable_genspec_with_errors, find, paper_suite, q91_with_dims,
    zipf_exponent_for, BenchQuery,
};

pub use suite::{dimensionality_matrix, with_first_epps};
