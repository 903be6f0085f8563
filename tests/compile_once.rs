//! Differential and golden suite for the compile path that does each unit
//! of work once: the matrix-backed anorexic cover against the recosting
//! one, the one-pass skylines against the per-contour scans, and the
//! in-place artifact encoder against pinned file checksums.

use rqp::artifacts::{checksum64, CompiledArtifact};
use rqp::catalog::tpcds;
use rqp::ess::anorexic::{reduce_all, reduce_all_with};
use rqp::ess::{ContourSet, EssSurface, EssView, LazySurface};
use rqp::optimizer::{CostMatrix, CostParams, EnumerationMode, Optimizer};
use rqp::workloads::{paper_suite, BenchQuery};

fn optimizer_for<'a>(catalog: &'a rqp::catalog::Catalog, bench: &'a BenchQuery) -> Optimizer<'a> {
    Optimizer::new(
        catalog,
        &bench.query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .expect("suite query valid")
}

/// On every non-6D suite query at its default grid: the cover over matrix
/// lookups picks the bouquet the recosting cover picks, and one grid pass
/// finds the skylines the per-contour scans find — on the dense surface
/// and, for the 3D queries, through a lazy surface's fiber searches.
#[test]
fn matrix_backed_reduction_and_one_pass_skylines_match_on_the_suite() {
    let catalog = tpcds::catalog_sf100();
    let mut checked = 0;
    for bench in paper_suite(&catalog) {
        let d = bench.query.ndims();
        if d >= 6 {
            continue;
        }
        let opt = optimizer_for(&catalog, &bench);
        let surface = EssSurface::build_parallel(&opt, bench.grid(), 2);
        let contours = ContourSet::build(&surface, 2.0);
        let matrix = CostMatrix::build_parallel(&opt, surface.pool(), surface.grid(), 2);

        let recosted = reduce_all(&surface, &opt, &contours, 0.2);
        let looked_up = reduce_all_with(&surface, &contours, 0.2, |pid, q| matrix.cost(pid, q));
        assert_eq!(recosted, looked_up, "{}: bouquets differ", bench.name());

        let view = EssView::full(d);
        let one_pass = contours.all_locations(&surface);
        assert_eq!(one_pass.len(), contours.len());
        let lazy = (d == 3).then(|| LazySurface::new(&opt, bench.grid()));
        for (i, locs) in one_pass.iter().enumerate() {
            assert_eq!(
                locs,
                &contours.locations(&surface, &view, i),
                "{}: contour {i}, dense scan",
                bench.name()
            );
            if let Some(lazy) = &lazy {
                assert_eq!(
                    locs,
                    &contours.locations(lazy, &view, i),
                    "{}: contour {i}, lazy fiber search",
                    bench.name()
                );
            }
        }
        checked += 1;
    }
    assert_eq!(checked, 9, "two 3D, four 4D and three 5D suite queries");
}

/// The files `rqp compile` writes, pinned: the in-place encoder, the
/// stage order and the matrix-backed cover must not move one byte.
#[test]
fn compiled_artifact_bytes_are_pinned() {
    let catalog = tpcds::catalog_sf100();
    let suite = paper_suite(&catalog);
    for (name, pinned) in [
        ("3D_Q15", 0x0cc3_1961_34f3_9145u64),
        ("4D_Q91", 0x16fd_2006_7d06_6951),
        ("5D_Q29", 0x8dfa_2805_4bbc_a676),
    ] {
        let bench = suite
            .iter()
            .find(|b| b.name() == name)
            .expect("suite query");
        let opt = optimizer_for(&catalog, bench);
        let bytes = CompiledArtifact::compile(&opt, bench.grid(), 2.0, 0.2, 2).to_bytes();
        assert_eq!(
            checksum64(&bytes),
            pinned,
            "{name}: checksum {:016x} of {} bytes",
            checksum64(&bytes),
            bytes.len()
        );
        let back = CompiledArtifact::from_bytes(&bytes).expect("own bytes load");
        assert_eq!(back.to_bytes(), bytes, "{name}: re-encode of the reload");
    }
}
