//! SPJ cores of the paper's TPC-DS queries, one `sql/qN.sql` file each.
//!
//! Each file reproduces the join-graph geometry (chain / star / branch)
//! and the error-prone join predicates of the corresponding `xD_Qz`
//! configuration in the paper's evaluation; its header comment describes
//! that geometry. The epp *order* defines the ESS dimensions. Filters
//! model the queries' constant predicates — these are assumed accurately
//! estimated (non-epp), per the paper's framework.

use crate::parse;
use rqp_catalog::Catalog;
use rqp_optimizer::QuerySpec;

/// TPC-DS Q91 core with its first `dims ∈ 2..=6` join predicates
/// error-prone (Fig. 9 sweeps exactly this), named `{dims}D_Q91`.
pub fn q91(catalog: &Catalog, dims: usize) -> QuerySpec {
    assert!((2..=6).contains(&dims), "Q91 supports 2..=6 epps");
    let mut q = parse(
        catalog,
        &format!("{dims}D_Q91"),
        include_str!("../sql/q91.sql"),
    );
    q.epps.truncate(dims);
    q
}

/// TPC-DS Q7 core, `4D_Q7`.
pub fn q7(catalog: &Catalog) -> QuerySpec {
    parse(catalog, "4D_Q7", include_str!("../sql/q7.sql"))
}

/// TPC-DS Q15 core, `3D_Q15`.
pub fn q15(catalog: &Catalog) -> QuerySpec {
    parse(catalog, "3D_Q15", include_str!("../sql/q15.sql"))
}

/// TPC-DS Q18 core, `6D_Q18`.
pub fn q18(catalog: &Catalog) -> QuerySpec {
    parse(catalog, "6D_Q18", include_str!("../sql/q18.sql"))
}

/// TPC-DS Q19 core, `5D_Q19`.
pub fn q19(catalog: &Catalog) -> QuerySpec {
    parse(catalog, "5D_Q19", include_str!("../sql/q19.sql"))
}

/// TPC-DS Q26 core, `4D_Q26`.
pub fn q26(catalog: &Catalog) -> QuerySpec {
    parse(catalog, "4D_Q26", include_str!("../sql/q26.sql"))
}

/// TPC-DS Q27 core, `4D_Q27`.
pub fn q27(catalog: &Catalog) -> QuerySpec {
    parse(catalog, "4D_Q27", include_str!("../sql/q27.sql"))
}

/// TPC-DS Q29 core, `5D_Q29`.
pub fn q29(catalog: &Catalog) -> QuerySpec {
    parse(catalog, "5D_Q29", include_str!("../sql/q29.sql"))
}

/// TPC-DS Q84 core, `5D_Q84`.
pub fn q84(catalog: &Catalog) -> QuerySpec {
    parse(catalog, "5D_Q84", include_str!("../sql/q84.sql"))
}

/// TPC-DS Q96 core, `3D_Q96`.
pub fn q96(catalog: &Catalog) -> QuerySpec {
    parse(catalog, "3D_Q96", include_str!("../sql/q96.sql"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_catalog::tpcds;

    #[test]
    fn all_queries_validate_at_sf100() {
        let cat = tpcds::catalog_sf100();
        for (q, d) in [
            (q7(&cat), 4),
            (q15(&cat), 3),
            (q18(&cat), 6),
            (q19(&cat), 5),
            (q26(&cat), 4),
            (q27(&cat), 4),
            (q29(&cat), 5),
            (q84(&cat), 5),
            (q96(&cat), 3),
        ] {
            assert_eq!(q.ndims(), d, "{}", q.name);
            q.validate(&cat).unwrap();
        }
        for d in 2..=6 {
            let q = q91(&cat, d);
            assert_eq!(q.ndims(), d);
            q.validate(&cat).unwrap();
        }
    }

    #[test]
    fn q18_uses_customer_demographics_twice() {
        let cat = tpcds::catalog_sf100();
        let q = q18(&cat);
        let cd_id = cat.table_id("customer_demographics").unwrap();
        let count = q.relations.iter().filter(|&&t| t == cd_id).count();
        assert_eq!(count, 2);
    }

    #[test]
    fn epp_dimensions_are_joins() {
        let cat = tpcds::catalog_sf100();
        for q in [q7(&cat), q91(&cat, 6), q96(&cat)] {
            for &e in &q.epps {
                assert!(
                    q.predicates[e].kind.is_join(),
                    "{}: epp {} must be a join",
                    q.name,
                    q.predicates[e].label
                );
            }
        }
    }
}
