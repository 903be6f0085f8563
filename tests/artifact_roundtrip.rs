//! Property-based round-trip tests for the artifact store (rqp-artifacts):
//! compile → save → load must evaluate bit-equal to the in-memory build
//! for every strategy of the table across random grids, and
//! arbitrary single-byte corruption — or a file of a format version this
//! build does not read, or a checksummed file whose grid is inconsistent —
//! must surface as a typed error, never a panic.

use proptest::prelude::*;
use rqp::artifacts::{
    checksum64, compile_or_load_with, ArtifactError, ArtifactStore, ColdReason, CompiledArtifact,
    Provenance, FORMAT_VERSION, MAGIC,
};
use rqp::catalog::{tpcds, Catalog};
use rqp::core::{
    evaluate_strategy, CostSource, EvalContext, Params, PenaltyConfig, PriorConfig, Strategy,
    SubOptStats,
};
use rqp::faults::{FaultPlan, FaultSite};
use rqp::obs::Tracer;
use rqp::optimizer::{CostParams, EnumerationMode, Optimizer, QuerySpec};
use rqp::server::{parse_request, recover_dir, ArtifactCache, Registry, ServedQuery};
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

/// Hydration derives ρ_red from the bouquet instead of trusting the
/// stored value: an artifact that says otherwise, or whose bouquet is not
/// at the surface's contour costs, is refused with a typed error rather
/// than served with a wrong PlanBouquet guarantee.
#[test]
fn hydration_derives_rho_red_instead_of_trusting_it() {
    let catalog: &'static Catalog = &fx().catalog;
    let good = small_artifact();
    let rho_red = good.rho_red;
    let served = ServedQuery::from_artifact(good.clone(), catalog).unwrap();
    let explain = served.explain_body().unwrap().render();
    assert!(
        explain.contains(&format!("\"rho_red\":{rho_red},")),
        "{explain}"
    );

    let mut wrong = good.clone();
    wrong.rho_red += 1;
    let err = ServedQuery::from_artifact(wrong, catalog)
        .err()
        .expect("refused");
    assert!(err.contains("rho_red"), "{err}");

    let mut shifted = good;
    shifted.bouquet[0].cost *= 2.0;
    let err = ServedQuery::from_artifact(shifted, catalog)
        .err()
        .expect("refused");
    assert!(err.contains("reduced contour 0"), "{err}");
}

/// A small artifact carrying its offline penalty selection.
fn small_artifact_with_penalty() -> CompiledArtifact {
    let art = small_artifact();
    let prior = PriorConfig::default();
    let cfg = PenaltyConfig::default();
    let (summary, _) =
        rqp::experiments::penalty_summary(&art, &optimizer(fx()), prior, &cfg).unwrap();
    art.with_penalty(summary)
}

/// The body of `method` at `qa`, or its `(kind, message)` error.
fn answer(served: &ServedQuery, method: &str) -> Result<String, (String, String)> {
    served.handle(method, &[0.01, 0.001]).0.map(|b| b.render())
}

/// PenaltyAware's selection is derived by its first reader, not by the
/// load, and checked then: an artifact whose persisted choice was
/// doctored (under a valid checksum) still loads and serves discovery
/// byte-equal to the good one, while `run_penaltyaware` and `explain`
/// fail with a typed error naming the disagreement, on every call.
#[test]
fn penalty_selection_is_derived_and_checked_on_first_use() {
    let catalog: &'static Catalog = &fx().catalog;
    let good = small_artifact_with_penalty();
    let fp = good.penalty.as_ref().unwrap().chosen_fingerprint.clone();
    let bad_fp = if fp == "0000000000000000" {
        "0000000000000001".to_string()
    } else {
        "0000000000000000".to_string()
    };
    let field = |fp: &str| format!(r#""chosen_fingerprint":"{fp}""#);
    let cells = good.surface.grid().len();
    let bytes = reseal(&good, cells, |meta| {
        assert!(meta.contains(&field(&fp)), "{meta}");
        meta.replacen(&field(&fp), &field(&bad_fp), 1)
    });
    let doctored = CompiledArtifact::from_bytes(&bytes).unwrap();
    assert_eq!(
        doctored.penalty.as_ref().unwrap().chosen_fingerprint,
        bad_fp
    );

    let good = ServedQuery::from_artifact(good, catalog).unwrap();
    let bad = ServedQuery::from_artifact(doctored, catalog).expect("the load checks no selection");
    let sb = answer(&good, "run_spillbound").unwrap();
    assert_eq!(answer(&bad, "run_spillbound").unwrap(), sb);
    assert!(answer(&good, "run_penaltyaware").unwrap().contains(&fp));
    assert!(answer(&good, "explain").unwrap().contains(&fp));
    for method in ["run_penaltyaware", "explain", "run_penaltyaware", "explain"] {
        let (kind, msg) = answer(&bad, method).expect_err(method);
        assert_eq!(kind, "internal", "{method}: {msg}");
        assert!(
            msg.contains("persisted penalty selection"),
            "{method}: {msg}"
        );
        assert!(
            msg.contains(&bad_fp) && msg.contains(&fp),
            "{method}: {msg}"
        );
    }
    assert!(bad.explain_body().is_err());
    assert_eq!(answer(&bad, "run_spillbound").unwrap(), sb);
}

/// The first-use derivation is order- and race-free: explain → PA → SB,
/// SB → PA → explain, and eight threads calling `explain` at once on
/// fresh queries all give byte-identical bodies.
#[test]
fn first_use_derivation_is_independent_of_call_order() {
    let catalog: &'static Catalog = &fx().catalog;
    let art = small_artifact_with_penalty();
    let fresh = || ServedQuery::from_artifact(art.clone(), catalog).unwrap();
    let methods = ["explain", "run_penaltyaware", "run_spillbound"];
    let forward = fresh();
    let expected: Vec<String> = methods
        .iter()
        .map(|m| answer(&forward, m).unwrap())
        .collect();
    let backward = fresh();
    for (m, want) in methods.iter().zip(&expected).rev() {
        assert_eq!(&answer(&backward, m).unwrap(), want, "{m}");
    }
    let shared = fresh();
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| scope.spawn(|| answer(&shared, "explain").unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(bodies.iter().all(|b| b == &expected[0]));
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

/// A contour-only version-2 file, as older builds wrote next to the dense
/// artifacts (`<name>.lazy.rqpa`): a well-formed envelope whose payload
/// this build has no decoder for. The decoder refuses it with a typed
/// error, the serving cache answers a request for it with one instead of
/// panicking, and recovery moves it to quarantine.
#[test]
fn a_leftover_version_2_file_is_refused_and_quarantined() {
    let dir = scratch("v2").with_extension("");
    std::fs::create_dir_all(&dir).unwrap();
    let payload = r#"{"cell_idx":[0,3],"cell_costs":"3ff0000000000000","matrix":{}}"#;
    let header = format!(
        r#"{{"magic":"{MAGIC}","version":2,"checksum":"{:016x}","payload_len":{}}}"#,
        checksum64(payload.as_bytes()),
        payload.len()
    );
    let path = dir.join("x.lazy.rqpa");
    std::fs::write(&path, format!("{header}\n{payload}")).unwrap();

    match CompiledArtifact::load(&path) {
        Err(ArtifactError::UnsupportedVersion {
            found: 2,
            supported: 3,
        }) => {}
        other => panic!("expected UnsupportedVersion {{ found: 2 }}, got {other:?}"),
    }

    let cache = ArtifactCache::new(ArtifactStore::new(&dir), &fx().catalog, 1 << 20);
    match cache.get("x.lazy") {
        Err((kind, msg)) => {
            assert_eq!(kind, "internal", "{msg}");
            assert!(msg.contains("unsupported format version 2"), "{msg}");
        }
        Ok(_) => panic!("a version-2 file was served"),
    }

    let report = recover_dir(&dir, &Tracer::disabled());
    assert_eq!(report.quarantined_files, vec!["x.lazy.rqpa".to_string()]);
    assert!(!path.exists(), "the version-2 file stayed in the store");
    assert!(dir.join("quarantine").join("x.lazy.rqpa").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// A store holding one loadable artifact next to a version-1 and a
/// version-2 file, as older builds wrote them: `list_queries` and the
/// `unknown_query` error advertise only the name that loads.
#[test]
fn only_loadable_artifacts_are_listed() {
    let dir = scratch("listed").with_extension("");
    std::fs::create_dir_all(&dir).unwrap();
    small_artifact().save(&dir.join("q.rqpa")).unwrap();
    for (name, version) in [("old", 1), ("x.lazy", 2)] {
        let payload = r#"{"query":{}}"#;
        let header = format!(
            r#"{{"magic":"{MAGIC}","version":{version},"checksum":"{:016x}","payload_len":{}}}"#,
            checksum64(payload.as_bytes()),
            payload.len()
        );
        std::fs::write(
            dir.join(format!("{name}.rqpa")),
            format!("{header}\n{payload}"),
        )
        .unwrap();
    }

    let cache = ArtifactCache::new(ArtifactStore::new(&dir), &fx().catalog, 1 << 20);
    let registry = Registry::new().with_cache(cache);
    let call = |line: &str| registry.dispatch(&parse_request(line).unwrap()).0;
    let listed = call(r#"{"id":0,"method":"list_queries"}"#)
        .unwrap()
        .render();
    assert_eq!(listed, r#"["q"]"#);
    match call(r#"{"id":1,"method":"explain","query":"nope"}"#) {
        Err((kind, msg)) => {
            assert_eq!(kind, "unknown_query", "{msg}");
            assert!(msg.ends_with("(available: q)"), "{msg}");
        }
        Ok(_) => panic!("an unknown query was served"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `art`'s bytes with its meta rewritten by `doctor` and its sections cut
/// to their first `cells` cells (each matrix row to its first `cells`),
/// resealed under a fresh header and checksum: a well-formed file that
/// only the meta checks can refuse.
fn reseal(art: &CompiledArtifact, cells: usize, doctor: impl Fn(&str) -> String) -> Vec<u8> {
    let bytes = art.to_bytes();
    let payload = &bytes[bytes.iter().position(|&b| b == b'\n').unwrap() + 1..];
    let meta_len = u64::from_le_bytes(payload[..8].try_into().unwrap()) as usize;
    let meta = doctor(std::str::from_utf8(&payload[8..8 + meta_len]).unwrap());
    let (n, sections) = (art.surface.grid().len(), &payload[8 + meta_len..]);
    let mut out = (meta.len() as u64).to_le_bytes().to_vec();
    out.extend(meta.as_bytes());
    out.extend(&sections[..8 * cells]);
    out.extend(&sections[8 * n..8 * n + 4 * cells]);
    for row in sections[12 * n..].chunks(8 * n) {
        out.extend(&row[..8 * cells]);
    }
    let header = format!(
        r#"{{"magic":"{MAGIC}","version":{FORMAT_VERSION},"checksum":"{:016x}","payload_len":{}}}"#,
        checksum64(&out),
        out.len()
    );
    [header.as_bytes(), b"\n", &out].concat()
}

/// A checksummed artifact whose grid disagrees with itself is refused
/// at decode with a typed error: a `total` below its dims' product (with
/// sections sized for that total), no dimensions, a one-point and a
/// descending selectivity grid.
#[test]
fn doctored_grids_are_refused_with_typed_errors() {
    let art = small_artifact();
    let bytes = art.to_bytes();
    let text = String::from_utf8_lossy(&bytes);
    let shape = r#""strides":[1,5],"total":25"#;
    assert!(text.contains(shape), "a 5x5 grid");
    let first = text.find(r#"{"points":["#).unwrap() + r#"{"points":["#.len();
    let points = &text[first..first + text[first..].find(']').unwrap()];
    let dims_at = text.find(r#""dims":["#).unwrap();
    let dims = &text[dims_at..text.find(shape).unwrap() + shape.len()];

    let descending = points.split(',').rev().collect::<Vec<_>>().join(",");
    let cases = [
        ("a wrong total", 4, shape.replace("25", "4")),
        (
            "no dimensions",
            1,
            r#""dims":[],"strides":[],"total":1"#.to_string(),
        ),
        (
            "a one-point grid",
            5,
            (dims.replacen(points, "1", 1)).replace(shape, r#""strides":[1,1],"total":5"#),
        ),
        (
            "a descending grid",
            25,
            dims.replacen(points, &descending, 1),
        ),
    ];
    for (what, cells, doctored) in cases {
        let from = if doctored.starts_with(r#""dims""#) {
            dims
        } else {
            shape
        };
        let bytes = reseal(&art, cells, |meta| meta.replacen(from, &doctored, 1));
        match CompiledArtifact::from_bytes(&bytes) {
            Err(ArtifactError::Decode(msg)) => assert!(msg.contains("grid"), "{what}: {msg}"),
            other => panic!("{what}: expected a typed Decode error, got {other:?}"),
        }
    }
    // The resealing itself is sound: the undoctored file loads.
    CompiledArtifact::from_bytes(&reseal(&art, 25, str::to_string)).unwrap();
}
