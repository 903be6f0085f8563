//! Dense-vs-lazy differential suite: the lazy, contour-only ESS path
//! must be *indistinguishable* from the dense one wherever both are
//! defined — identical contour location sets, identical anorexic-reduced
//! bouquets (compared by plan fingerprint; raw plan ids differ because
//! the lazy pool interns in materialization order), and bit-equal
//! SB/AB/PB MSOe sweeps.

use proptest::prelude::*;
use rqp::catalog::tpcds;
use rqp::core::{evaluate_strategy, CostSource, Params, Strategy, SubOptStats};
use rqp::ess::anorexic::reduce_all;
use rqp::ess::{ContourSet, EssSurface, EssView, LazySurface, SurfaceAccess};
use rqp::optimizer::{CostParams, EnumerationMode, Optimizer};
use rqp::workloads::{paper_suite, q91_with_dims, BenchQuery};

/// The 2D/3D identity workload at debug-tractable resolutions.
fn identity_benches() -> Vec<BenchQuery> {
    let catalog = tpcds::catalog_sf100();
    let mut out = vec![q91_with_dims(&catalog, 2).with_grid_points(12)];
    out.extend(
        paper_suite(&catalog)
            .into_iter()
            .filter(|b| b.query.ndims() == 3)
            .map(|b| b.with_grid_points(6)),
    );
    assert!(out.len() >= 3, "expected 2D_Q91 plus the 3D suite queries");
    out
}

fn optimizer_for<'a>(catalog: &'a rqp::catalog::Catalog, bench: &'a BenchQuery) -> Optimizer<'a> {
    Optimizer::new(
        catalog,
        &bench.query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .expect("suite query valid")
}

/// Compiles `s` by recosting over `surface` and sweeps it: the stats
/// and AlignedBound's maximum part penalty.
fn sweep(
    s: Strategy,
    surface: &dyn SurfaceAccess,
    opt: &Optimizer<'_>,
) -> (SubOptStats, Option<u64>) {
    let compiled = s
        .compile(CostSource::Recost(surface, opt), &Params::default())
        .unwrap();
    let stats = evaluate_strategy(&compiled, 1).unwrap();
    (stats, compiled.observed_max_penalty().map(f64::to_bits))
}

fn bit_equal(a: &SubOptStats, b: &SubOptStats) -> bool {
    a.mso.to_bits() == b.mso.to_bits()
        && a.aso.to_bits() == b.aso.to_bits()
        && a.worst_qa == b.worst_qa
        && a.subopts.len() == b.subopts.len()
        && a.subopts
            .iter()
            .zip(&b.subopts)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Contour schedules and per-contour location sets agree exactly: the
/// lazy per-fiber binary-search skyline enumerates the same maximal
/// locations the dense exact predicate keeps.
#[test]
fn lazy_contour_locations_match_dense() {
    let catalog = tpcds::catalog_sf100();
    for bench in identity_benches() {
        let opt = optimizer_for(&catalog, &bench);
        let dense = EssSurface::build(&opt, bench.grid());
        let lazy = LazySurface::new(&opt, bench.grid());
        let dc = ContourSet::build(&dense, 2.0);
        let lc = ContourSet::build(&lazy, 2.0);
        assert_eq!(
            dc.len(),
            lc.len(),
            "{}: contour counts differ",
            bench.name()
        );
        for (a, b) in dc.costs().iter().zip(lc.costs()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{}: contour costs differ",
                bench.name()
            );
        }
        let view = EssView::full(bench.query.ndims());
        for i in 0..dc.len() {
            let mut dl = dc.locations(&dense, &view, i);
            let mut ll = lc.locations(&lazy, &view, i);
            dl.sort_unstable();
            ll.sort_unstable();
            assert_eq!(
                dl,
                ll,
                "{}: contour {i} location sets differ (dense {} vs lazy {})",
                bench.name(),
                dl.len(),
                ll.len()
            );
        }
    }
}

/// Anorexic reduction picks the same bouquet on both paths. Plan ids are
/// pool-local (the lazy pool interns in materialization order), so the
/// comparison is by plan fingerprint, per contour, in selection order.
#[test]
fn lazy_anorexic_bouquets_match_dense() {
    let catalog = tpcds::catalog_sf100();
    for bench in identity_benches() {
        let opt = optimizer_for(&catalog, &bench);
        let dense = EssSurface::build(&opt, bench.grid());
        let lazy = LazySurface::new(&opt, bench.grid());
        let dc = ContourSet::build(&dense, 2.0);
        let lc = ContourSet::build(&lazy, 2.0);
        let (dr, d_rho) = reduce_all(&dense, &opt, &dc, 0.2);
        let (lr, l_rho) = reduce_all(&lazy, &opt, &lc, 0.2);
        assert_eq!(d_rho, l_rho, "{}: rho_red differs", bench.name());
        assert_eq!(dr.len(), lr.len());
        for (i, (a, b)) in dr.iter().zip(&lr).enumerate() {
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
            let da: Vec<u64> = a
                .plans
                .iter()
                .map(|&pid| SurfaceAccess::plan_clone(&dense, pid).fingerprint())
                .collect();
            let lb: Vec<u64> = b
                .plans
                .iter()
                .map(|&pid| SurfaceAccess::plan_clone(&lazy, pid).fingerprint())
                .collect();
            assert_eq!(da, lb, "{}: contour {i} bouquet differs", bench.name());
        }
    }
}

/// The exhaustive MSOe sweep of every strategy is bit-equal between the
/// dense surface and a lazy surface (which materializes cells on demand
/// as the sweep touches them).
#[test]
fn lazy_msoe_reports_bit_equal_to_dense() {
    let catalog = tpcds::catalog_sf100();
    for bench in identity_benches() {
        let opt = optimizer_for(&catalog, &bench);
        let dense = EssSurface::build(&opt, bench.grid());
        let lazy = LazySurface::new(&opt, bench.grid());

        // In table order, so PenaltyAware compiles last: its candidates
        // are the plans a surface has interned, and by then the earlier
        // sweeps have materialized every lazy cell.
        for s in Strategy::ALL {
            let (d, d_pen) = sweep(s, &dense, &opt);
            let (l, l_pen) = sweep(s, &lazy, &opt);
            assert!(
                bit_equal(&d, &l),
                "{}: {} MSOe diverged",
                bench.name(),
                s.name()
            );
            assert_eq!(d_pen, l_pen, "{}: {} penalty", bench.name(), s.name());
        }
    }
}

proptest! {
    // Randomized differential coverage on top of the fixed suite: random
    // resolutions and selectivity floors, same identity requirements.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn lazy_matches_dense_on_random_grids(
        n in 5usize..9,
        min_exp in 5u32..8,
    ) {
        let catalog = tpcds::catalog_sf100();
        let bench = q91_with_dims(&catalog, 2);
        let opt = optimizer_for(&catalog, &bench);
        let min_sel = 10f64.powi(-(min_exp as i32));
        let grid = rqp_common::MultiGrid::uniform(2, min_sel, n);
        let dense = EssSurface::build(&opt, grid.clone());
        let lazy = LazySurface::new(&opt, grid);
        let dc = ContourSet::build(&dense, 2.0);
        let lc = ContourSet::build(&lazy, 2.0);
        prop_assert_eq!(dc.len(), lc.len());
        let view = EssView::full(2);
        for i in 0..dc.len() {
            let mut dl = dc.locations(&dense, &view, i);
            let mut ll = lc.locations(&lazy, &view, i);
            dl.sort_unstable();
            ll.sort_unstable();
            prop_assert_eq!(dl, ll, "contour {} location sets differ", i);
        }
        let (d_sb, _) = sweep(Strategy::SpillBound, &dense, &opt);
        let (l_sb, _) = sweep(Strategy::SpillBound, &lazy, &opt);
        prop_assert!(bit_equal(&d_sb, &l_sb), "SB MSOe diverged on a random grid");
    }
}
