//! Differential and golden suite for the compile path that does each unit
//! of work once: the incremental surface and recost sweeps against one
//! optimizer call per cell, the matrix-backed anorexic cover against the
//! recosting one, the one-pass skylines against the per-contour scans,
//! and the artifact encoder against pinned file checksums and pinned,
//! format-independent content digests.

#[path = "support/per_cell.rs"]
mod per_cell;

use rqp::artifacts::{checksum64, CompiledArtifact};
use rqp::catalog::tpcds;
use rqp::ess::anorexic::{reduce_all, reduce_all_with};
use rqp::ess::{ContourSet, EssSurface, EssView, LazySurface};
use rqp::optimizer::{CostMatrix, CostParams, EnumerationMode, Optimizer};
use rqp::workloads::{paper_suite, BenchQuery};

/// On every non-6D suite query at its default grid, at 1, 2 and 3
/// threads: the surface and the matrix equal the per-cell reference bit
/// for bit, plan ids and pool order included. The two 3D queries also run
/// with bushy enumeration.
#[test]
fn compile_sweeps_match_the_per_cell_reference_on_the_suite() {
    let catalog = tpcds::catalog_sf100();
    let mut checked = 0;
    for bench in paper_suite(&catalog) {
        let d = bench.query.ndims();
        if d >= 6 {
            continue;
        }
        let modes: &[EnumerationMode] = match d {
            3 => &[EnumerationMode::LeftDeep, EnumerationMode::Bushy],
            _ => &[EnumerationMode::LeftDeep],
        };
        for &mode in modes {
            let opt = Optimizer::new(&catalog, &bench.query, CostParams::default(), mode)
                .expect("suite query valid");
            if let Err(e) = per_cell::check_sweeps(&opt, &bench.grid(), &[1, 2, 3]) {
                panic!("{} ({mode}): {e}", bench.name());
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 11, "nine left-deep and two bushy sweeps");
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
        ("3D_Q15", 0xf308_9c41_e097_1981u64),
        ("4D_Q91", 0xa50c_c093_6089_bfac),
        ("5D_Q29", 0xaf8a_9950_5b65_43fc),
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

/// What a compiled artifact holds, whatever the file format: every
/// matrix cell's little-endian bytes (plan-major), every cell's optimal
/// cost bits and plan id, then the compact JSON of the query, plan pool,
/// contours, bouquet and penalty summary, through [`checksum64`].
fn content_digest(a: &CompiledArtifact) -> u64 {
    let mut bytes = Vec::new();
    for pid in 0..a.matrix.nplans() {
        bytes.extend(a.matrix.row(pid).iter().flat_map(|c| c.to_le_bytes()));
    }
    let cells = 0..a.surface.len();
    bytes.extend(
        cells
            .clone()
            .flat_map(|q| a.surface.opt_cost(q).to_bits().to_le_bytes()),
    );
    bytes.extend(cells.flat_map(|q| (a.surface.plan_id(q) as u64).to_le_bytes()));
    for json in [
        serde_json::to_string(&a.query),
        serde_json::to_string(a.surface.pool()),
        serde_json::to_string(&a.contours),
        serde_json::to_string(&a.bouquet),
        serde_json::to_string(&a.penalty),
    ] {
        bytes.extend(json.expect("artifact part serializes").into_bytes());
    }
    checksum64(&bytes)
}

/// The content of the files `rqp compile` writes, pinned independently of
/// their encoding: a format change must leave every digest where it is,
/// freshly compiled and after a round trip through the file bytes.
#[test]
fn compiled_artifact_content_is_pinned() {
    let catalog = tpcds::catalog_sf100();
    let suite = paper_suite(&catalog);
    for (name, pinned) in [
        ("3D_Q15", 0xab75_ad76_cb03_bd06u64),
        ("4D_Q91", 0x471b_836e_6b6d_5e8b),
        ("5D_Q29", 0xffa7_4ac4_8bf4_08fa),
    ] {
        let bench = suite
            .iter()
            .find(|b| b.name() == name)
            .expect("suite query");
        let opt = optimizer_for(&catalog, bench);
        let artifact = CompiledArtifact::compile(&opt, bench.grid(), 2.0, 0.2, 2);
        let back = CompiledArtifact::from_bytes(&artifact.to_bytes()).expect("own bytes load");
        for (what, a) in [("compiled", &artifact), ("reloaded", &back)] {
            let digest = content_digest(a);
            assert_eq!(
                digest, pinned,
                "{name} ({what}): content digest {digest:016x}"
            );
        }
    }
}
