//! Randomized cross-crate properties: random catalogs and random acyclic
//! join-graph geometries (chains, stars, branches — the shapes the paper's
//! workload spans), checked for optimizer optimality, PCM, surface
//! monotonicity, contour covering, the SpillBound guarantee, and the
//! incremental compile sweeps against one optimizer call per cell.

#[path = "support/per_cell.rs"]
mod per_cell;

use proptest::prelude::*;
use rqp::catalog::{Catalog, Column, ColumnStats, DataType, Table};
use rqp::core::{spillbound_guarantee, CostOracle, SpillBound};
use rqp::ess::anorexic::{reduce_all, reduce_all_with};
use rqp::ess::{ContourSet, EssSurface, EssView, LazySurface};
use rqp::optimizer::{
    CostMatrix, CostParams, EnumerationMode, Optimizer, Predicate, PredicateKind, QuerySpec,
};
use rqp_common::MultiGrid;

/// A randomly-shaped acyclic query over a randomly-sized catalog.
#[derive(Debug, Clone)]
struct RandomQuery {
    catalog: Catalog,
    query: QuerySpec,
}

fn random_query_strategy() -> impl Strategy<Value = RandomQuery> {
    // 3..=6 relations; each non-root attaches to a random earlier relation
    // (random tree = chains, stars and branches all arise).
    let rels = 3usize..=6;
    (
        rels,
        proptest::collection::vec(2u64..2_000_000, 6),
        proptest::collection::vec(0usize..100, 6),
        any::<bool>(),
    )
        .prop_map(|(n, sizes, attach, index_all)| {
            let mut catalog = Catalog::new();
            for (i, rows) in sizes.iter().take(n).enumerate() {
                let mut cols = vec![
                    Column::new("k", DataType::Int, ColumnStats::uniform(*rows)).with_index(),
                    Column::new(
                        "fk",
                        DataType::Int,
                        ColumnStats::uniform((*rows).max(10) / 2),
                    ),
                ];
                if index_all {
                    cols[1].indexed = true;
                }
                catalog
                    .add_table(Table::new(format!("t{i}"), *rows, cols))
                    .unwrap();
            }
            let mut predicates = Vec::new();
            for (r, &a) in attach.iter().enumerate().take(n).skip(1) {
                let parent = a % r;
                predicates.push(Predicate {
                    label: format!("t{parent}~t{r}"),
                    kind: PredicateKind::Join {
                        left: parent,
                        left_col: 1,
                        right: r,
                        right_col: 0,
                    },
                });
            }
            // first two joins are error-prone
            let query = QuerySpec {
                name: "random".into(),
                relations: (0..n).collect(),
                predicates,
                epps: vec![0, 1],
            };
            RandomQuery { catalog, query }
        })
}

/// [`random_query_strategy`] plus `<=` filters on some relations — on the
/// indexed key, so index scans and index nested-loop inners carry them, or
/// on the foreign key — and one to three epps drawn from joins and filters
/// alike, the first filter always among them.
fn filtered_query_strategy() -> impl Strategy<Value = RandomQuery> {
    (
        random_query_strategy(),
        proptest::collection::vec((0usize..3, 1i64..5_000), 6),
        proptest::collection::vec(any::<bool>(), 12),
    )
        .prop_map(|(mut rq, filters, picks)| {
            let joins = rq.query.predicates.len();
            let n = rq.query.relations.len();
            for (rel, &(col, value)) in filters.iter().enumerate().take(n) {
                // Column 2 means no filter on this relation.
                if col < 2 {
                    rq.query.predicates.push(Predicate {
                        label: format!("t{rel}.c{col}<={value}"),
                        kind: PredicateKind::FilterLe { rel, col, value },
                    });
                }
            }
            let npreds = rq.query.predicates.len();
            let mut epps: Vec<usize> = (0..npreds).filter(|&p| picks[p]).collect();
            if joins < npreds && !epps.contains(&joins) {
                epps.insert(0, joins);
            }
            epps.truncate(3);
            if epps.is_empty() {
                epps.push(0);
            }
            rq.query.epps = epps;
            rq
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_queries_validate_and_optimize(rq in random_query_strategy()) {
        rq.query.validate(&rq.catalog).unwrap();
        let opt = Optimizer::new(&rq.catalog, &rq.query, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let (plan, cost) = opt.optimize_at(&[1e-3, 1e-2]);
        prop_assert!(cost > 0.0);
        prop_assert_eq!(plan.rel_mask().count_ones() as usize, rq.query.relations.len());
        // every predicate applied exactly once
        let mut preds = plan.all_preds();
        preds.sort_unstable();
        let expect: Vec<usize> = (0..rq.query.predicates.len()).collect();
        prop_assert_eq!(preds, expect);
        // DP cost equals recost of its own plan
        let sels = opt.sels_at(&[1e-3, 1e-2]);
        let recost = opt.cost_plan(&plan, &sels);
        prop_assert!((recost - cost).abs() <= 1e-6 * cost.max(1.0));
    }

    #[test]
    fn bushy_never_loses_to_left_deep_on_random_queries(rq in random_query_strategy()) {
        let ld = Optimizer::new(&rq.catalog, &rq.query, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let bu = Optimizer::new(&rq.catalog, &rq.query, CostParams::default(), EnumerationMode::Bushy).unwrap();
        for sels in [[1e-5, 1e-5], [1e-2, 0.3], [1.0, 1.0]] {
            let (_, c_ld) = ld.optimize_at(&sels);
            let (_, c_bu) = bu.optimize_at(&sels);
            prop_assert!(c_bu <= c_ld * (1.0 + 1e-9), "bushy {} > left-deep {}", c_bu, c_ld);
        }
    }

    #[test]
    fn random_surfaces_are_monotone_with_covering_contours(rq in random_query_strategy()) {
        let opt = Optimizer::new(&rq.catalog, &rq.query, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let surface = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-6, 7));
        surface.check_monotone().unwrap();
        let contours = ContourSet::build(&surface, 2.0);
        let view = EssView::full(2);
        for i in 0..contours.len() {
            let frontier = contours.locations(&surface, &view, i);
            for qa in surface.grid().iter() {
                if surface.opt_cost(qa) <= contours.cost(i) {
                    prop_assert!(
                        frontier.iter().any(|&f| surface.grid().dominates_eq(f, qa)),
                        "covering violated on contour {}", i
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The anorexic cover over matrix lookups equals the recosting one,
    /// and the one-pass skylines equal the per-contour ones, dense and
    /// lazy, on random join graphs at a few swallowing thresholds.
    #[test]
    fn matrix_backed_reduction_matches_recosting_on_random_queries(
        rq in random_query_strategy(),
        lambda_tenths in 0u32..6,
    ) {
        let opt = Optimizer::new(&rq.catalog, &rq.query, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let surface = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-6, 7));
        let contours = ContourSet::build(&surface, 2.0);
        let matrix = CostMatrix::build(&opt, surface.pool(), surface.grid());
        let lambda = lambda_tenths as f64 / 10.0;
        let recosted = reduce_all(&surface, &opt, &contours, lambda);
        let looked_up = reduce_all_with(&surface, &contours, lambda, |pid, q| matrix.cost(pid, q));
        prop_assert_eq!(recosted, looked_up);

        let lazy = LazySurface::new(&opt, MultiGrid::uniform(2, 1e-6, 7));
        let view = EssView::full(2);
        let one_pass = contours.all_locations(&surface);
        for (i, locs) in one_pass.iter().enumerate() {
            prop_assert_eq!(locs, &contours.locations(&surface, &view, i));
            prop_assert_eq!(locs, &contours.locations(&lazy, &view, i));
        }
        // Last, because the pass materializes the lazy surface.
        prop_assert_eq!(&one_pass, &contours.all_locations(&lazy));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The incremental surface and recost sweeps equal one optimizer call
    /// per cell on random join graphs whose epps include filters, so the
    /// filter-epp and index nested-loop inner-filter dependencies are
    /// exercised, in both enumeration modes at 1, 2 and 3 threads.
    #[test]
    fn incremental_sweeps_match_per_cell_on_random_filtered_queries(rq in filtered_query_strategy()) {
        let grid = MultiGrid::uniform(rq.query.ndims(), 1e-6, 5);
        for mode in [EnumerationMode::LeftDeep, EnumerationMode::Bushy] {
            let opt = Optimizer::new(&rq.catalog, &rq.query, CostParams::default(), mode).unwrap();
            let checked = per_cell::check_sweeps(&opt, &grid, &[1, 2, 3]);
            prop_assert!(checked.is_ok(), "{}: {:?}", mode, checked);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn spillbound_guarantee_on_random_queries(rq in random_query_strategy(), cx in 0usize..7, cy in 0usize..7) {
        let opt = Optimizer::new(&rq.catalog, &rq.query, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let surface = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-6, 7));
        let sb = SpillBound::new(&surface, &opt, 2.0);
        let qa = surface.grid().flat(&[cx, cy]);
        let mut oracle = CostOracle::at_grid(&opt, surface.grid(), qa);
        let report = sb.run(&mut oracle).unwrap();
        prop_assert!(report.completed);
        let sub = report.sub_optimality(surface.opt_cost(qa));
        prop_assert!(sub <= spillbound_guarantee(2) * (1.0 + 1e-6), "subopt {}", sub);
    }
}
