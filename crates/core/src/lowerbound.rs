//! The Ω(D) lower-bound family (Theorem 4.6).
//!
//! The paper proves that *no* deterministic half-space pruning algorithm
//! can guarantee MSO below `D`: an adversary hides `qa` on one of the `D`
//! axes of a selectivity space whose optimal cost is driven by a single
//! dimension at a time, so any algorithm must "pay" for each dimension it
//! probes before the adversary reveals the last one.
//!
//! The proof is information-theoretic; what we *can* reproduce
//! computationally is the witness family: a `D`-dimensional star query
//! whose ESS realizes the axis-spike structure, on which SpillBound's
//! measured MSOe indeed grows at least linearly in `D` — demonstrating
//! that the `Θ(D)`-vs-`D²` gap the paper closes with AlignedBound is real
//! and not an artifact of loose analysis.

use rqp_catalog::{Catalog, Column, ColumnStats, DataType, Table};
use rqp_optimizer::{Predicate, PredicateKind, QuerySpec};

/// Builds the adversarial `d`-dimensional query family: a symmetric star
/// join in which every dimension alone can blow the cost up by orders of
/// magnitude, so discovery cannot shortcut any axis.
pub fn adversarial_query(d: usize) -> (Catalog, QuerySpec) {
    assert!((2..=6).contains(&d), "family defined for 2..=6 dims");
    let mut cat = Catalog::new();
    // Symmetric dimensions: equal cardinalities make every axis equally
    // plausible to the algorithm (the adversary's requirement).
    let dim_rows = 50_000u64;
    let mut fact_cols: Vec<Column> = (0..d)
        .map(|j| {
            Column::new(
                format!("f{j}"),
                DataType::Int,
                ColumnStats::uniform(dim_rows),
            )
            .with_index()
        })
        .collect();
    fact_cols.push(Column::new(
        "payload",
        DataType::Int,
        ColumnStats::uniform(1_000),
    ));
    cat.add_table(Table::new("fact", 2_000_000, fact_cols))
        .unwrap();
    for j in 0..d {
        cat.add_table(Table::new(
            format!("dim{j}"),
            dim_rows,
            vec![
                Column::new("k", DataType::Int, ColumnStats::uniform(dim_rows)).with_index(),
                Column::new("a", DataType::Int, ColumnStats::uniform(50)),
            ],
        ))
        .unwrap();
    }
    let query = QuerySpec {
        name: format!("{d}D_adversarial"),
        relations: (0..=d).collect(),
        predicates: (0..d)
            .map(|j| Predicate {
                label: format!("f⋈d{j}"),
                kind: PredicateKind::Join {
                    left: 0,
                    left_col: j,
                    right: j + 1,
                    right_col: 0,
                },
            })
            .collect(),
        epps: (0..d).collect(),
    };
    (cat, query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate_strategy, CostSource, Params, Strategy};
    use rqp_common::MultiGrid;
    use rqp_ess::EssSurface;
    use rqp_optimizer::{CostParams, EnumerationMode, Optimizer};

    #[test]
    fn family_constructs_and_validates() {
        for d in 2..=4 {
            let (cat, q) = adversarial_query(d);
            q.validate(&cat).unwrap();
            assert_eq!(q.ndims(), d);
        }
    }

    #[test]
    fn spillbound_mso_at_least_linear_in_d() {
        // Theorem 4.6 witness: on the adversarial family, measured MSOe of
        // SpillBound is at least D (the lower bound holds with room to
        // spare for any half-space pruning discovery algorithm).
        for (d, n) in [(2usize, 10usize), (3, 7)] {
            let (cat, q) = adversarial_query(d);
            let opt =
                Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
            let surface = EssSurface::build(&opt, MultiGrid::uniform(d, 1e-6, n));
            let sb = Strategy::SpillBound
                .compile(CostSource::Recost(&surface, &opt), &Params::default());
            let stats = evaluate_strategy(&sb.unwrap(), 1).unwrap();
            assert!(
                stats.mso >= d as f64,
                "{d}D adversarial: MSOe {} below the Ω(D) bound",
                stats.mso
            );
            // ... and of course still within the D²+3D guarantee.
            assert!(stats.mso <= crate::spillbound_guarantee(d) * (1.0 + 1e-6));
        }
    }
}
