//! Integration tests: the paper's MSO guarantees hold exhaustively on the
//! real TPC-DS workloads (cost-based oracle, small grids for speed).

use rqp::catalog::tpcds;
use rqp::core::{
    aligned_guarantee_lower, evaluate_strategy, spillbound_guarantee, AlignedBound, CostOracle,
    CostSource, EvalContext, Params, PlanBouquet, SpillBound, Strategy,
};
use rqp::ess::{ContourSet, EssSurface, EssView};
use rqp::optimizer::{CostParams, EnumerationMode, Optimizer};
use rqp::workloads::tpcds_queries as q;
use rqp_common::MultiGrid;

fn build(
    catalog: &rqp::catalog::Catalog,
    query: &rqp::optimizer::QuerySpec,
    n: usize,
) -> (Optimizer<'static>, EssSurface) {
    // Tests leak the catalog/query to get 'static lifetimes; fine for a
    // test process.
    let catalog: &'static _ = Box::leak(Box::new(catalog.clone()));
    let query: &'static _ = Box::leak(Box::new(query.clone()));
    let opt = Optimizer::new(
        catalog,
        query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .expect("valid");
    let grid = MultiGrid::uniform(query.ndims(), 1e-7, n);
    let surface = EssSurface::build(&opt, grid);
    (opt, surface)
}

#[test]
fn spillbound_guarantee_holds_exhaustively_on_q15() {
    let catalog = tpcds::catalog_sf100();
    let query = q::q15(&catalog);
    let (opt, surface) = build(&catalog, &query, 7);
    let sb = SpillBound::new(&surface, &opt, 2.0);
    let bound = spillbound_guarantee(3);
    for qa in surface.grid().iter() {
        let mut oracle = CostOracle::at_grid(&opt, surface.grid(), qa);
        let report = sb.run(&mut oracle).expect("SB completes");
        assert!(report.completed);
        let sub = report.sub_optimality(surface.opt_cost(qa));
        assert!(
            sub <= bound * (1.0 + 1e-6),
            "qa {:?}: {sub} > {bound}",
            surface.grid().coords(qa)
        );
    }
}

#[test]
fn alignedbound_guarantee_holds_exhaustively_on_q96() {
    let catalog = tpcds::catalog_sf100();
    let query = q::q96(&catalog);
    let (opt, surface) = build(&catalog, &query, 7);
    let ab = AlignedBound::new(&surface, &opt, 2.0);
    let bound = spillbound_guarantee(3);
    let mut best_seen = f64::MAX;
    for qa in surface.grid().iter() {
        let mut oracle = CostOracle::at_grid(&opt, surface.grid(), qa);
        let report = ab.run(&mut oracle).expect("AB completes");
        let sub = report.sub_optimality(surface.opt_cost(qa));
        assert!(sub <= bound * (1.0 + 1e-6));
        best_seen = best_seen.min(sub);
    }
    // Sanity: somewhere in the space discovery is cheap.
    assert!(best_seen < aligned_guarantee_lower(3));
}

#[test]
fn planbouquet_guarantee_holds_exhaustively_on_q7() {
    let catalog = tpcds::catalog_sf100();
    let query = q::q7(&catalog);
    let (opt, surface) = build(&catalog, &query, 5);
    let pb = PlanBouquet::new(&surface, &opt, 2.0, 0.2);
    let bound = pb.mso_guarantee();
    for qa in surface.grid().iter() {
        let mut oracle = CostOracle::at_grid(&opt, surface.grid(), qa);
        let report = pb.run(&mut oracle).expect("PB completes");
        let sub = report.sub_optimality(surface.opt_cost(qa));
        assert!(sub <= bound * (1.0 + 1e-6), "{sub} > {bound}");
    }
}

#[test]
fn optimal_cost_surfaces_are_monotone_for_the_suite() {
    let catalog = tpcds::catalog_sf100();
    for query in [q::q15(&catalog), q::q96(&catalog), q::q91(&catalog, 3)] {
        let (_, surface) = build(&catalog, &query, 6);
        surface
            .check_monotone()
            .unwrap_or_else(|e| panic!("{}: {e}", query.name));
    }
}

#[test]
fn contour_covering_holds_on_real_workload() {
    let catalog = tpcds::catalog_sf100();
    let query = q::q91(&catalog, 3);
    let (_, surface) = build(&catalog, &query, 6);
    let contours = ContourSet::build(&surface, 2.0);
    let view = EssView::full(3);
    for i in 0..contours.len() {
        let frontier = contours.locations(&surface, &view, i);
        for qa in surface.grid().iter() {
            if surface.opt_cost(qa) <= contours.cost(i) {
                assert!(
                    frontier.iter().any(|&f| surface.grid().dominates_eq(f, qa)),
                    "contour {i} misses {:?}",
                    surface.grid().coords(qa)
                );
            }
        }
    }
}

#[test]
fn learnt_selectivities_are_exact_on_q26() {
    let catalog = tpcds::catalog_sf100();
    let query = q::q26(&catalog);
    let (opt, surface) = build(&catalog, &query, 5);
    let sb = SpillBound::new(&surface, &opt, 2.0);
    // A handful of interior locations.
    for coords in [[2, 3, 1, 4], [4, 4, 4, 4], [0, 2, 3, 1]] {
        let qa = surface.grid().flat(&coords);
        let mut oracle = CostOracle::at_grid(&opt, surface.grid(), qa);
        let report = sb.run(&mut oracle).expect("completes");
        for (j, learnt) in report.learnt.iter().enumerate() {
            if let Some(s) = learnt {
                let truth = surface.grid().sel_at(qa, j);
                assert!(
                    (s - truth).abs() <= 1e-12,
                    "dim {j}: learnt {s} vs truth {truth}"
                );
            }
        }
    }
}

#[test]
fn spillbound_beats_planbouquet_empirically_on_q91_4d() {
    let catalog = tpcds::catalog_sf100();
    let query = q::q91(&catalog, 4);
    let (opt, surface) = build(&catalog, &query, 5);
    let ctx = EvalContext::new(&surface, &opt);
    let sweep = |s: Strategy, source| {
        let compiled = s.compile(source, &Params::default()).unwrap();
        evaluate_strategy(&compiled, 1).unwrap()
    };
    let sb = sweep(Strategy::SpillBound, CostSource::Recost(&surface, &opt));
    let pb = sweep(Strategy::PlanBouquet, CostSource::Matrix(&ctx));
    // Fig. 10's shape: SB's empirical MSO does not lose to PB's.
    assert!(
        sb.mso <= pb.mso * 1.1,
        "SB MSOe {} vs PB MSOe {}",
        sb.mso,
        pb.mso
    );
    // Fig. 11's shape: nor does its average case.
    assert!(
        sb.aso <= pb.aso * 1.1,
        "SB ASO {} vs PB ASO {}",
        sb.aso,
        pb.aso
    );
}
