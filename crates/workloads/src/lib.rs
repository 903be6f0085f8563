//! Benchmark workloads (§6.1).
//!
//! The paper's test suite is "representative SPJ queries from the TPC-DS
//! benchmark, operating at the base size of 100 GB", with 2–6 error-prone
//! join predicates, named `xD_Qz` (x = epp count, z = TPC-DS query
//! number), plus Query 1a of the Join Order Benchmark (§6.5). This crate
//! writes each of those join-graph cores as SQL text under `sql/`, read by
//! [`rqp_optimizer::parse_sql`] over the catalogs of `rqp-catalog`, and
//! adds the per-query ESS grid resolutions and dataset recipes for
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

pub mod example;
pub mod job;
pub mod suite;
pub mod tpcds_queries;

pub use example::example_query_eq;
pub use suite::{
    executable_genspec, executable_genspec_with_errors, find, paper_suite, q91_with_dims,
    zipf_exponent_for, BenchQuery,
};

use rqp_catalog::Catalog;
use rqp_optimizer::{parse_sql, QuerySpec};

/// Parses one of the crate's SQL definitions as the query `name`.
///
/// # Panics
/// Panics with the parse error: the definitions are static, so an error
/// is a bug.
fn parse(catalog: &Catalog, name: &str, sql: &str) -> QuerySpec {
    parse_sql(catalog, name, sql)
        .unwrap_or_else(|e| panic!("workload definition {name} invalid: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_catalog::{imdb, tpcds, tpch};

    /// Every definition the crate ships, grouped with its catalog.
    fn definitions() -> Vec<(Catalog, Vec<QuerySpec>)> {
        let tpcds = tpcds::catalog_sf100();
        let mut suite: Vec<QuerySpec> = paper_suite(&tpcds).into_iter().map(|b| b.query).collect();
        suite.extend([2, 3, 5].map(|d| q91_with_dims(&tpcds, d).query));
        let imdb = imdb::catalog_full();
        let job = vec![job::q1a(&imdb)];
        let tpch = tpch::catalog(1.0);
        let eq = vec![example_query_eq(&tpch)];
        vec![(tpcds, suite), (imdb, job), (tpch, eq)]
    }

    fn json(q: &QuerySpec) -> String {
        serde_json::to_string(q).unwrap()
    }

    #[test]
    fn every_definition_is_pinned() {
        // checksum64 of each definition's serde JSON. Artifacts, digests,
        // goldens and figures all start from these bytes, so an edit to a
        // `.sql` file that moves one changes every one of them.
        const PINNED: [(&str, u64); 16] = [
            ("3D_Q15", 0xcca1c86ff5627773),
            ("3D_Q96", 0x22798d4d3214ba36),
            ("4D_Q7", 0xbd9595dada59091a),
            ("4D_Q26", 0xe733374906e46598),
            ("4D_Q27", 0xfc35af51b41f3e22),
            ("4D_Q91", 0xdaf37a997701617d),
            ("5D_Q19", 0x0f8c8c09e06b053a),
            ("5D_Q29", 0xab4fcd8de72e10ca),
            ("5D_Q84", 0xac8e05009280aa2e),
            ("6D_Q18", 0xf1ae98408d224f3e),
            ("6D_Q91", 0xc46f7a9b40e3589f),
            ("2D_Q91", 0xae3c47bcf3ac6184),
            ("3D_Q91", 0xe5327a28f24400d6),
            ("5D_Q91", 0xea53031215f97349),
            ("JOB_Q1a", 0x586aedcd36b41028),
            ("EQ", 0x0ebcdae949b243a3),
        ];
        let got: Vec<(String, u64)> = definitions()
            .iter()
            .flat_map(|(_, qs)| qs)
            .map(|q| {
                (
                    q.name.clone(),
                    rqp_artifacts::checksum64(json(q).as_bytes()),
                )
            })
            .collect();
        let want: Vec<(String, u64)> = PINNED.iter().map(|&(n, c)| (n.to_string(), c)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn rendered_sql_parses_back_byte_equal() {
        for (catalog, queries) in definitions() {
            for q in queries {
                let back = parse_sql(&catalog, &q.name, &q.to_sql(&catalog)).unwrap();
                assert_eq!(json(&back), json(&q), "{}", q.name);
            }
        }
    }
}
