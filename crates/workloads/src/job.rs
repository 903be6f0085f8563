//! Join Order Benchmark Query 1a (§6.5), written in `sql/job_q1a.sql`.
//!
//! JOB runs over IMDB and is designed to be hostile to native optimizers:
//! correlated predicates make its join selectivities badly mis-estimated.
//! As in the paper, we drop the implicit (cyclic) predicates so the
//! selectivity-independence assumption holds, and mark the two
//! fact-to-title joins error-prone.

use rqp_catalog::Catalog;
use rqp_optimizer::QuerySpec;

/// JOB Q1a core over a [`rqp_catalog::imdb`] catalog (2 epps).
pub fn q1a(catalog: &Catalog) -> QuerySpec {
    crate::parse(catalog, "JOB_Q1a", include_str!("../sql/job_q1a.sql"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_catalog::imdb;

    #[test]
    fn q1a_validates() {
        let cat = imdb::catalog_full();
        let q = q1a(&cat);
        assert_eq!(q.ndims(), 2);
        assert_eq!(q.relations.len(), 5);
        q.validate(&cat).unwrap();
    }
}
