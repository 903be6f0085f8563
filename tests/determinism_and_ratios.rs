//! Integration tests: determinism of the discovery algorithms and
//! correctness of the guarantees at non-default contour ratios, exercised
//! on the paper's example query `EQ` (Fig. 1).

use rqp::catalog::tpch;
use rqp::core::accounting::verify_spillbound_run;
use rqp::core::{
    planbouquet_guarantee_ratio, spillbound_guarantee_ratio, AlignedBound, CostOracle, PlanBouquet,
    SpillBound,
};
use rqp::ess::EssSurface;
use rqp::optimizer::{CostParams, EnumerationMode, Optimizer};
use rqp::workloads::example_query_eq;
use rqp_common::MultiGrid;

struct Fx {
    opt: Optimizer<'static>,
    surface: EssSurface,
}

fn eq_fixture(n: usize) -> Fx {
    let catalog: &'static _ = Box::leak(Box::new(tpch::catalog(0.5)));
    let query: &'static _ = Box::leak(Box::new(example_query_eq(catalog)));
    let opt = Optimizer::new(
        catalog,
        query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .expect("EQ valid");
    let surface = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-7, n));
    Fx { opt, surface }
}

#[test]
fn planbouquet_guarantee_holds_at_non_doubling_ratios() {
    let fx = eq_fixture(10);
    for ratio in [1.5, 2.0, 3.0] {
        let pb = PlanBouquet::new(&fx.surface, &fx.opt, ratio, 0.2);
        let bound = pb.mso_guarantee();
        assert!((bound - planbouquet_guarantee_ratio(0.2, pb.rho_red(), ratio)).abs() < 1e-9);
        for qa in fx.surface.grid().iter() {
            let mut oracle = CostOracle::at_grid(&fx.opt, fx.surface.grid(), qa);
            let report = pb.run(&mut oracle).expect("PB completes");
            let sub = report.sub_optimality(fx.surface.opt_cost(qa));
            assert!(
                sub <= bound * (1.0 + 1e-6),
                "ratio {ratio}, qa {:?}: {sub} > {bound}",
                fx.surface.grid().coords(qa)
            );
        }
    }
}

#[test]
fn spillbound_guarantee_holds_at_non_doubling_ratios() {
    let fx = eq_fixture(10);
    for ratio in [1.5, 1.8, 2.5] {
        let sb = SpillBound::new(&fx.surface, &fx.opt, ratio);
        let bound = spillbound_guarantee_ratio(2, ratio);
        for qa in fx.surface.grid().iter() {
            let mut oracle = CostOracle::at_grid(&fx.opt, fx.surface.grid(), qa);
            let report = sb.run(&mut oracle).expect("SB completes");
            let sub = report.sub_optimality(fx.surface.opt_cost(qa));
            assert!(
                sub <= bound * (1.0 + 1e-6),
                "ratio {ratio}, qa {:?}: {sub} > {bound}",
                fx.surface.grid().coords(qa)
            );
        }
    }
}

#[test]
fn discovery_runs_are_deterministic() {
    let fx = eq_fixture(12);
    // Two independent instances must produce identical traces everywhere.
    let mut sb1 = SpillBound::new(&fx.surface, &fx.opt, 2.0);
    let mut sb2 = SpillBound::new(&fx.surface, &fx.opt, 2.0);
    let mut ab1 = AlignedBound::new(&fx.surface, &fx.opt, 2.0);
    let mut ab2 = AlignedBound::new(&fx.surface, &fx.opt, 2.0);
    for qa in fx.surface.grid().iter().step_by(7) {
        let run = |sb: &mut SpillBound<'_>| {
            let mut o = CostOracle::at_grid(&fx.opt, fx.surface.grid(), qa);
            sb.run(&mut o).unwrap()
        };
        let (a, b) = (run(&mut sb1), run(&mut sb2));
        assert_eq!(a.total_cost, b.total_cost);
        assert_eq!(a.executions(), b.executions());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.plan_fingerprint, y.plan_fingerprint);
            assert_eq!(x.budget, y.budget);
        }
        let runa = |ab: &mut AlignedBound<'_>| {
            let mut o = CostOracle::at_grid(&fx.opt, fx.surface.grid(), qa);
            ab.run(&mut o).unwrap()
        };
        let (a, b) = (runa(&mut ab1), runa(&mut ab2));
        assert_eq!(a.total_cost, b.total_cost);
        assert_eq!(a.executions(), b.executions());
    }
}

#[test]
fn accounting_verifies_on_the_example_query() {
    let fx = eq_fixture(12);
    let sb = SpillBound::new(&fx.surface, &fx.opt, 2.0);
    for qa in fx.surface.grid().iter() {
        let mut oracle = CostOracle::at_grid(&fx.opt, fx.surface.grid(), qa);
        let report = sb.run(&mut oracle).unwrap();
        verify_spillbound_run(&report, 2)
            .unwrap_or_else(|e| panic!("qa {:?}: {e}", fx.surface.grid().coords(qa)));
    }
}

#[test]
fn memoized_and_fresh_instances_agree() {
    // An instance that has already swept many locations (warm caches) must
    // behave identically to a cold one.
    let fx = eq_fixture(10);
    let warm = SpillBound::new(&fx.surface, &fx.opt, 2.0);
    for qa in fx.surface.grid().iter() {
        let mut o = CostOracle::at_grid(&fx.opt, fx.surface.grid(), qa);
        warm.run(&mut o).unwrap();
    }
    for qa in fx.surface.grid().iter().step_by(11) {
        let cold = SpillBound::new(&fx.surface, &fx.opt, 2.0);
        let mut o1 = CostOracle::at_grid(&fx.opt, fx.surface.grid(), qa);
        let mut o2 = CostOracle::at_grid(&fx.opt, fx.surface.grid(), qa);
        let a = warm.run(&mut o1).unwrap();
        let b = cold.run(&mut o2).unwrap();
        assert_eq!(a.total_cost, b.total_cost, "warm vs cold divergence");
    }
}

#[test]
fn filter_epps_are_discoverable_too() {
    // The paper's EQ notes the price filter *could* be error-prone; our
    // machinery supports filter epps (the spill node is then a scan).
    // Re-dimension EQ with (join, filter) epps and check SB end-to-end.
    let catalog: &'static _ = Box::leak(Box::new(tpch::catalog(0.5)));
    let mut query = example_query_eq(catalog);
    // predicates: [p⋈l join, o⋈l join, p_retailprice<=999 filter]
    query.epps = vec![0, 2];
    let query: &'static _ = Box::leak(Box::new(query));
    query.validate(catalog).unwrap();
    let opt = Optimizer::new(
        catalog,
        query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .expect("filter-epp EQ valid");
    let surface = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-5, 9));
    surface.check_monotone().unwrap();
    let sb = SpillBound::new(&surface, &opt, 2.0);
    for qa in surface.grid().iter() {
        let mut oracle = CostOracle::at_grid(&opt, surface.grid(), qa);
        let report = sb.run(&mut oracle).expect("SB completes with a filter epp");
        let sub = report.sub_optimality(surface.opt_cost(qa));
        assert!(
            sub <= spillbound_guarantee_ratio(2, 2.0) * (1.0 + 1e-6),
            "qa {:?}: {sub}",
            surface.grid().coords(qa)
        );
        // learnt filter selectivity (dim 1) must equal the truth when learnt
        if let Some(s) = report.learnt[1] {
            let truth = surface.grid().sel_at(qa, 1);
            assert!((s - truth).abs() <= 1e-12);
        }
    }
}
