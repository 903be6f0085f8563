//! Robust query processing with provable MSO guarantees.
//!
//! This crate implements the paper's algorithms on top of the ESS
//! machinery:
//!
//! * [`planbouquet`] — the PlanBouquet baseline \[Dutt & Haritsa,
//!   TODS'16\]: calibrated cost-budgeted executions of anorexic-reduced
//!   contour plan sets; MSO ≤ `4(1+λ)ρ` (a *behavioral* bound — `ρ`
//!   depends on the optimizer and platform);
//! * [`spillbound`] — SpillBound (§4): half-space pruning via spill-mode
//!   executions plus contour-density-independent plan selection; MSO ≤
//!   `D² + 3D` (a *structural* bound — only the query's epp count
//!   matters);
//! * [`alignedbound`] — AlignedBound (§5): exploits (and induces)
//!   contour / predicate-set alignment to approach the `Ω(D)` lower
//!   bound; MSO ∈ `[2D + 2, D² + 3D]`;
//! * [`native`] — the conventional optimizer baseline that trusts its
//!   estimate `qe` (no guarantee; MSO can be astronomically large);
//! * [`penalty`] — penalty-aware single-plan selection (the PARQO-style
//!   fourth strategy): minimize expected sub-optimality or CVaR tail
//!   risk over a seeded selectivity-error prior, with the chosen plan's
//!   expected penalty ≤ the native plan's by construction;
//! * [`oracle`] — the budgeted-execution abstraction: the cost-model
//!   simulation used for all MSO experiments (as in the paper, §6), with
//!   an executor-backed implementation living in the workspace root for
//!   wall-clock runs;
//! * [`strategy`] — the table of strategies: a [`Strategy`] is parsed
//!   from its name once and compiled into one [`Compiled`] form that
//!   every entry point runs;
//! * [`eval`] — exhaustive empirical evaluation over the ESS grid: MSOe,
//!   ASO, sub-optimality histograms (Figs. 10–13);
//! * [`lowerbound`] — the adversarial query family matching the `Ω(D)`
//!   lower bound of Theorem 4.6;
//! * [`pop`] — a POP-style mid-query re-optimization baseline (the §8
//!   related-work heuristic), to quantify what the guarantees buy.
//!
//! ```
//! use rqp_catalog::tpcds;
//! use rqp_common::MultiGrid;
//! use rqp_core::{CostOracle, SpillBound};
//! use rqp_ess::EssSurface;
//! use rqp_optimizer::{CostParams, EnumerationMode, Optimizer, Predicate, PredicateKind, QuerySpec};
//!
//! let catalog = tpcds::catalog_sf100();
//! let query = QuerySpec {
//!     name: "demo".into(),
//!     relations: vec![
//!         catalog.table_id("catalog_returns").unwrap(),
//!         catalog.table_id("date_dim").unwrap(),
//!         catalog.table_id("customer").unwrap(),
//!     ],
//!     predicates: vec![
//!         Predicate { label: "cr⋈d".into(), kind: PredicateKind::Join { left: 0, left_col: 0, right: 1, right_col: 0 } },
//!         Predicate { label: "cr⋈c".into(), kind: PredicateKind::Join { left: 0, left_col: 2, right: 2, right_col: 0 } },
//!     ],
//!     epps: vec![0, 1],
//! };
//! let opt = Optimizer::new(&catalog, &query, CostParams::default(),
//!                          EnumerationMode::LeftDeep).unwrap();
//! let surface = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-6, 8));
//! let mut sb = SpillBound::new(&surface, &opt, 2.0);
//! let qa = surface.grid().flat(&[5, 3]);                  // hidden truth
//! let mut oracle = CostOracle::at_grid(&opt, surface.grid(), qa);
//! let report = sb.run(&mut oracle).unwrap();
//! assert!(report.completed);
//! assert!(report.sub_optimality(surface.opt_cost(qa)) <= sb.mso_guarantee());
//! ```

pub mod accounting;
pub mod alignedbound;
pub mod cached;
pub(crate) mod discovery;
pub mod eval;
pub mod faulty;
pub mod lowerbound;
pub mod native;
pub mod oracle;
pub mod penalty;
pub mod planbouquet;
pub mod pop;
pub mod report;
pub mod spillbound;
pub mod strategy;

pub use alignedbound::AlignedBound;
pub use cached::{CachedOracle, EvalContext, SpillMemo};
pub use discovery::MemoStats;
pub use eval::{evaluate, evaluate_parallel, evaluate_strategy, SubOptStats};
pub use faulty::{FaultStats, FaultyOracle};
pub use native::NativeChoice;
pub use oracle::{CostOracle, ExecutionOracle, FullOutcome, NoisyCostOracle, SpillOutcome};
pub use penalty::{
    Objective, PenaltyConfig, PenaltySelection, PlanRisk, PriorConfig, SelectivityPrior,
};
pub use planbouquet::PlanBouquet;
pub use pop::PopReoptimizer;
pub use report::{ExecutionRecord, Outcome, RunReport};
pub use spillbound::{SelectionMode, SpillBound};
pub use strategy::{Compiled, CostSource, Params, Strategy};

/// The MSO guarantee of SpillBound: `D² + 3D` (Theorem 4.5). Platform
/// independent — computable by query inspection alone.
pub fn spillbound_guarantee(d: usize) -> f64 {
    (d * d + 3 * d) as f64
}

/// The lower end of AlignedBound's guarantee range: `2D + 2` (Theorem
/// 5.1, attained when every contour is aligned).
pub fn aligned_guarantee_lower(d: usize) -> f64 {
    (2 * d + 2) as f64
}

/// The PlanBouquet guarantee `4(1+λ)ρ_red` (a behavioral bound: `ρ_red`
/// is the post-reduction maximum contour density on this platform).
pub fn planbouquet_guarantee(lambda: f64, rho_red: usize) -> f64 {
    planbouquet_guarantee_ratio(lambda, rho_red, 2.0)
}

/// PlanBouquet's guarantee generalized to an arbitrary inter-contour cost
/// ratio `r > 1`: `(1+λ)·ρ_red·r²/(r−1)` (the geometric-sum constant
/// `r²/(r−1)` is minimized at `r = 2`, which is why the paper doubles —
/// proved ideal for PlanBouquet in \[1\]).
pub fn planbouquet_guarantee_ratio(lambda: f64, rho_red: usize, r: f64) -> f64 {
    assert!(r > 1.0, "contour ratio must exceed 1");
    (1.0 + lambda) * rho_red as f64 * r * r / (r - 1.0)
}

/// SpillBound's MSO guarantee generalized to an arbitrary inter-contour
/// cost ratio `r > 1` (§4.2 remark): `D·r²/(r−1) + D(D−1)·r/2`. At `r = 2`
/// this reduces to `D² + 3D`; the 2-epp optimum sits near `r ≈ 1.8`
/// (9.9 vs 10).
pub fn spillbound_guarantee_ratio(d: usize, r: f64) -> f64 {
    assert!(r > 1.0, "contour ratio must exceed 1");
    let d = d as f64;
    d * r * r / (r - 1.0) + d * (d - 1.0) * r / 2.0
}

/// The inter-contour cost ratio minimizing
/// [`spillbound_guarantee_ratio`] for a `D`-epp query — "cost doubling is
/// not the ideal choice for SpillBound" (§4.2 remark). Solved by ternary
/// search (the guarantee is unimodal in `r` on `(1, ∞)`).
pub fn optimal_contour_ratio(d: usize) -> f64 {
    let (mut lo, mut hi) = (1.01f64, 4.0f64);
    for _ in 0..200 {
        let m1 = lo + (hi - lo) / 3.0;
        let m2 = hi - (hi - lo) / 3.0;
        if spillbound_guarantee_ratio(d, m1) < spillbound_guarantee_ratio(d, m2) {
            hi = m2;
        } else {
            lo = m1;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
pub(crate) mod test_fixtures {
    use rqp_catalog::{Catalog, Column, ColumnStats, DataType, Table};
    use rqp_common::MultiGrid;
    use rqp_ess::EssSurface;
    use rqp_optimizer::{
        CostParams, EnumerationMode, Optimizer, Predicate, PredicateKind, QuerySpec,
    };

    /// A built fixture: optimizer + POSP surface over leaked (test-only)
    /// catalog and query, avoiding self-referential struct plumbing.
    pub struct Fixture {
        pub opt: Optimizer<'static>,
        pub surface: EssSurface,
        #[allow(dead_code)]
        pub query: &'static QuerySpec,
    }

    fn star_catalog(dims: usize) -> Catalog {
        let mut cat = Catalog::new();
        let mut fact_cols = Vec::new();
        let dim_rows = [10_000u64, 1_000, 300, 5_000, 100, 2_000];
        for (j, &rows) in dim_rows.iter().take(dims).enumerate() {
            fact_cols.push(
                Column::new(format!("f{j}"), DataType::Int, ColumnStats::uniform(rows))
                    .with_index(),
            );
        }
        fact_cols.push(Column::new("v", DataType::Int, ColumnStats::uniform(1_000)));
        cat.add_table(Table::new("fact", 1_000_000, fact_cols))
            .unwrap();
        for (j, &rows) in dim_rows.iter().take(dims).enumerate() {
            cat.add_table(Table::new(
                format!("dim{j}"),
                rows,
                vec![
                    Column::new("k", DataType::Int, ColumnStats::uniform(rows)).with_index(),
                    Column::new("a", DataType::Int, ColumnStats::uniform(50)),
                ],
            ))
            .unwrap();
        }
        cat
    }

    fn star_query(dims: usize) -> QuerySpec {
        let mut predicates: Vec<Predicate> = (0..dims)
            .map(|j| Predicate {
                label: format!("f-d{j}"),
                kind: PredicateKind::Join {
                    left: 0,
                    left_col: j,
                    right: j + 1,
                    right_col: 0,
                },
            })
            .collect();
        predicates.push(Predicate {
            label: "fv".into(),
            kind: PredicateKind::FilterLe {
                rel: 0,
                col: dims,
                value: 99,
            },
        });
        QuerySpec {
            name: format!("{dims}D_star"),
            relations: (0..=dims).collect(),
            predicates,
            epps: (0..dims).collect(),
        }
    }

    /// Builds a `dims`-epp star fixture with `n` grid points per dimension.
    pub fn star_surface(dims: usize, n: usize) -> Fixture {
        let cat: &'static Catalog = Box::leak(Box::new(star_catalog(dims)));
        let query: &'static QuerySpec = Box::leak(Box::new(star_query(dims)));
        let opt = Optimizer::new(cat, query, CostParams::default(), EnumerationMode::LeftDeep)
            .expect("fixture query valid");
        let surface = EssSurface::build(&opt, MultiGrid::uniform(dims, 1e-5, n));
        Fixture {
            opt,
            surface,
            query,
        }
    }

    /// The canonical 2-epp fixture.
    pub fn star2_surface(n: usize) -> Fixture {
        star_surface(2, n)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn guarantee_formulas() {
        assert_eq!(super::spillbound_guarantee(2), 10.0);
        // ratio-generalized formula reduces to D²+3D at r=2
        for d in 2..=6 {
            assert!(
                (super::spillbound_guarantee_ratio(d, 2.0) - super::spillbound_guarantee(d)).abs()
                    < 1e-12
            );
        }
        assert!((super::spillbound_guarantee_ratio(2, 1.8) - 9.9).abs() < 1e-12);
        // the ideal 2-epp ratio is near 1.8 (§4.2); higher D pushes the
        // optimum lower, and the improvement over doubling stays marginal
        let r2 = super::optimal_contour_ratio(2);
        assert!((1.7..1.9).contains(&r2), "ideal 2D ratio {r2}");
        for d in 2..=6 {
            let r = super::optimal_contour_ratio(d);
            let best = super::spillbound_guarantee_ratio(d, r);
            let doubling = super::spillbound_guarantee(d);
            assert!(best <= doubling);
            assert!(best >= doubling * 0.9, "improvement is marginal (§4.2)");
        }
        assert_eq!(super::spillbound_guarantee(6), 54.0);
        assert_eq!(super::aligned_guarantee_lower(4), 10.0);
        assert_eq!(super::planbouquet_guarantee(0.2, 5), 24.0);
    }
}
