//! The paper's introductory example query `EQ` (Fig. 1), written in
//! `sql/eq.sql`: `part ⋈ lineitem ⋈ orders` with both joins error-prone
//! and the price filter reliably estimated — the configuration whose 2D
//! ESS, iso-cost contours and bouquet/SpillBound execution sequences
//! Fig. 2 walks through.

use rqp_catalog::Catalog;
use rqp_optimizer::QuerySpec;

/// `EQ` over a [`rqp_catalog::tpch`] catalog.
pub fn example_query_eq(catalog: &Catalog) -> QuerySpec {
    crate::parse(catalog, "EQ", include_str!("../sql/eq.sql"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_catalog::tpch;

    #[test]
    fn eq_matches_fig1() {
        let cat = tpch::catalog(1.0);
        let q = example_query_eq(&cat);
        assert_eq!(q.ndims(), 2, "two error-prone joins");
        assert_eq!(q.relations.len(), 3);
        assert_eq!(q.predicates.len(), 3);
        q.validate(&cat).unwrap();
        let sql = q.to_sql(&cat);
        assert!(sql.contains("p_retailprice <= 999"));
    }
}
