//! Property-based round-trip tests for the artifact store (rqp-artifacts):
//! compile → save → load must evaluate bit-equal to the in-memory build
//! for every strategy of the table across random grids, and
//! arbitrary single-byte corruption must surface as a typed error, never
//! a panic.

use proptest::prelude::*;
use rqp::artifacts::{
    compile_or_load_with, ArtifactError, ColdReason, CompiledArtifact, Provenance,
};
use rqp::catalog::{tpcds, Catalog};
use rqp::core::{evaluate_strategy, CostSource, EvalContext, Params, Strategy, SubOptStats};
use rqp::faults::{FaultPlan, FaultSite};
use rqp::optimizer::{CostParams, EnumerationMode, Optimizer, QuerySpec};
use rqp_common::MultiGrid;
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

struct Fx {
    catalog: Catalog,
    query: QuerySpec,
}

// Reuse one catalog/query across proptest cases (construction dominates).
fn fx() -> &'static Fx {
    static FX: OnceLock<Fx> = OnceLock::new();
    FX.get_or_init(|| {
        let catalog = tpcds::catalog_sf100();
        let query = rqp::workloads::q91_with_dims(&catalog, 2).query;
        Fx { catalog, query }
    })
}

fn optimizer(f: &Fx) -> Optimizer<'_> {
    Optimizer::new(
        &f.catalog,
        &f.query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .unwrap()
}

/// A scratch path unique to this process and call site.
fn scratch(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "rqp-roundtrip-{}-{tag}-{n}.rqpa",
        std::process::id()
    ))
}

fn bit_equal(a: &SubOptStats, b: &SubOptStats) -> bool {
    a.mso.to_bits() == b.mso.to_bits()
        && a.worst_qa == b.worst_qa
        && a.subopts.len() == b.subopts.len()
        && a.subopts
            .iter()
            .zip(&b.subopts)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    // Each case compiles a full (small) ESS; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// compile → save → load → evaluate is bit-equal to the in-memory
    /// pipeline for all four algorithms, over random grids and ratios.
    #[test]
    fn saved_artifact_evaluates_bit_equal(
        n in 5usize..9,
        min_exp in 5u32..8,
        ratio_tenths in 15u32..26,
        threads in 1usize..4,
    ) {
        let f = fx();
        let opt = optimizer(f);
        let grid = MultiGrid::uniform(2, 10f64.powi(-(min_exp as i32)), n);
        let ratio = ratio_tenths as f64 / 10.0;

        let artifact = CompiledArtifact::compile(&opt, grid, ratio, 0.2, threads);
        let path = scratch("eval");
        artifact.save(&path).unwrap();
        let loaded = CompiledArtifact::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        // The loaded half runs entirely off deserialized state: its own
        // optimizer is rebuilt from the stored QuerySpec.
        let loaded_opt = Optimizer::new(
            &f.catalog,
            &loaded.query,
            CostParams::default(),
            EnumerationMode::LeftDeep,
        )
        .unwrap();
        let mem =
            EvalContext::from_parts(&artifact.surface, &opt, Cow::Borrowed(&artifact.matrix))
                .unwrap();
        let warm = EvalContext::from_parts(
            &loaded.surface,
            &loaded_opt,
            Cow::Borrowed(&loaded.matrix),
        )
        .unwrap();

        let params = Params { ratio, ..Params::default() };
        let sweep = |s: Strategy, ctx| {
            let compiled = s.compile(CostSource::Matrix(ctx), &params).unwrap();
            let stats = evaluate_strategy(&compiled, threads).unwrap();
            (stats, compiled.observed_max_penalty().map(f64::to_bits))
        };
        for s in Strategy::ALL {
            let ((m, pen_m), (w, pen_w)) = (sweep(s, &mem), sweep(s, &warm));
            prop_assert!(bit_equal(&m, &w), "{} diverged after round-trip", s.name());
            prop_assert_eq!(pen_m, pen_w);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single-byte mutation of a valid artifact either still decodes
    /// to the identical artifact (a byte the checksum ignores does not
    /// exist — so in practice: header-field typos, checksum mismatches,
    /// or truncation) or yields a typed error. It never panics.
    #[test]
    fn corrupted_bytes_never_panic(
        pos_seed in any::<usize>(),
        xor in 1u8..=255,
        truncate_to_seed in any::<usize>(),
    ) {
        static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
        let bytes = BYTES.get_or_init(|| {
            let f = fx();
            let opt = optimizer(f);
            CompiledArtifact::compile(&opt, MultiGrid::uniform(2, 1e-5, 5), 2.0, 0.2, 1)
                .to_bytes()
        });

        // Flip one byte anywhere in the stream.
        let mut flipped = bytes.clone();
        let pos = pos_seed % flipped.len();
        flipped[pos] ^= xor;
        match CompiledArtifact::from_bytes(&flipped) {
            Ok(_) => prop_assert!(false, "corruption at byte {pos} went undetected"),
            Err(
                ArtifactError::BadHeader(_)
                | ArtifactError::BadMagic(_)
                | ArtifactError::UnsupportedVersion { .. }
                | ArtifactError::Truncated { .. }
                | ArtifactError::ChecksumMismatch { .. }
                | ArtifactError::Decode(_)
                | ArtifactError::Invalid(_),
            ) => {}
            Err(e) => prop_assert!(false, "unexpected error class: {e}"),
        }

        // Truncate to an arbitrary prefix.
        let cut = truncate_to_seed % bytes.len();
        prop_assert!(
            CompiledArtifact::from_bytes(&bytes[..cut]).is_err(),
            "truncation to {cut} bytes went undetected"
        );
    }
}

/// One small compiled artifact for the fault-injection tests.
fn small_artifact() -> CompiledArtifact {
    let f = fx();
    let opt = optimizer(f);
    CompiledArtifact::compile(&opt, MultiGrid::uniform(2, 1e-5, 5), 2.0, 0.2, 1)
}

/// A torn (injected short) write must error out before the atomic
/// rename: whatever was visible at the path beforehand stays visible
/// and intact, and only the `.tmp` scratch file holds the truncation.
#[test]
fn torn_write_never_exposes_a_partial_artifact() {
    let artifact = small_artifact();
    let path = scratch("torn");

    // Torn write onto an empty path: nothing becomes visible.
    let plan = FaultPlan::new(3).with_site(FaultSite::StoreSave, 1.0);
    let err = artifact.save_with(&path, Some(&plan)).unwrap_err();
    assert!(matches!(err, ArtifactError::Io(_)), "{err}");
    assert!(!path.exists(), "torn write must not surface at {path:?}");

    // Torn write over a valid artifact: the old one survives bit-equal.
    artifact.save(&path).unwrap();
    let before = std::fs::read(&path).unwrap();
    let err = artifact.save_with(&path, Some(&plan)).unwrap_err();
    assert!(matches!(err, ArtifactError::Io(_)), "{err}");
    assert_eq!(std::fs::read(&path).unwrap(), before, "artifact was torn");
    CompiledArtifact::load(&path).unwrap();

    // The truncated scratch file is where the tear landed.
    let tmp = path.with_extension("tmp");
    assert!(std::fs::metadata(&tmp).unwrap().len() < before.len() as u64);

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&tmp).ok();
}

/// A single transient read fault is retried once and the warm load
/// still succeeds.
#[test]
fn transient_load_fault_is_retried_to_a_warm_load() {
    let f = fx();
    let opt = optimizer(f);
    let grid = MultiGrid::uniform(2, 1e-5, 5);
    let path = scratch("retry");
    small_artifact().save(&path).unwrap();

    let plan = FaultPlan::new(5).with_fail_first(FaultSite::StoreLoad, 1);
    let (_, prov) = compile_or_load_with(&path, &opt, &grid, 2.0, 0.2, 1, Some(&plan)).unwrap();
    assert!(
        matches!(prov, Provenance::Warm { .. }),
        "one transient fault must not force a recompile: {prov:?}"
    );
    assert_eq!(plan.injected(FaultSite::StoreLoad), 1);

    std::fs::remove_file(&path).ok();
}

/// Persistent read faults degrade to a recompile (the store is an
/// accelerator, never a point of failure): cold provenance with a
/// `Corrupt` reason, and a usable artifact either way.
#[test]
fn persistent_load_faults_degrade_to_recompile() {
    let f = fx();
    let opt = optimizer(f);
    let grid = MultiGrid::uniform(2, 1e-5, 5);
    let path = scratch("degrade");
    small_artifact().save(&path).unwrap();

    let plan = FaultPlan::new(9).with_site(FaultSite::StoreLoad, 1.0);
    let (artifact, prov) =
        compile_or_load_with(&path, &opt, &grid, 2.0, 0.2, 1, Some(&plan)).unwrap();
    match &prov {
        Provenance::Cold {
            reason: ColdReason::Corrupt(msg),
            ..
        } => assert!(msg.contains("injected"), "unexpected reason: {msg}"),
        other => panic!("expected a cold recompile with a corrupt reason, got {other:?}"),
    }
    assert_eq!(artifact.surface.len(), 25);

    std::fs::remove_file(&path).ok();
}
