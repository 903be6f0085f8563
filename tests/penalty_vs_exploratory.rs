//! Differential suite for the penalty-aware strategy vs the exploratory
//! ones and its own evaluation paths:
//!
//! * expected-case guarantee: under any prior, the chosen plan's
//!   expected sub-optimality never exceeds the native plan's (the native
//!   plan is always a candidate);
//! * CVaR of the selection is monotone non-decreasing in alpha;
//! * the selection is bit-identical at any thread count and across the
//!   dense matrix-backed, dense direct-recost, and lazy-surface paths
//!   (compared by fingerprint — pool ids are an ordering artifact);
//! * artifact save → load → re-select reproduces the persisted
//!   [`PenaltySummary`] bit-for-bit;
//! * every risk of the default selection on 3D_Q15 and 4D_Q91 matches
//!   a digest pinned before the risk kernel was rewritten.

use proptest::prelude::*;
use rqp::artifacts::CompiledArtifact;
use rqp::catalog::{tpcds, Catalog};
use rqp::core::{
    penalty, CostSource, EvalContext, Objective, Params, PenaltyConfig, PenaltySelection, PlanRisk,
    PriorConfig, SelectivityPrior, Strategy,
};
use rqp::ess::{EssSurface, LazySurface, SurfaceAccess};
use rqp::optimizer::{CostParams, EnumerationMode, Optimizer, QuerySpec};
use rqp_common::MultiGrid;
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

fn risk_bits(r: &PlanRisk) -> (u64, u64, u64) {
    (r.fingerprint, r.expected.to_bits(), r.cvar.to_bits())
}

/// Selections agree on everything pool-order-independent: the winner,
/// the native baseline, the prior identity, and the full multiset of
/// per-candidate risks keyed by fingerprint.
fn assert_selections_equivalent(label: &str, a: &PenaltySelection, b: &PenaltySelection) {
    assert_eq!(a.prior_hash, b.prior_hash, "{label}: prior hash");
    assert_eq!(
        risk_bits(&a.chosen),
        risk_bits(&b.chosen),
        "{label}: chosen"
    );
    assert_eq!(
        risk_bits(&a.native),
        risk_bits(&b.native),
        "{label}: native"
    );
    let key = |risks: &[PlanRisk]| {
        let mut v: Vec<(u64, u64, u64)> = risks.iter().map(risk_bits).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(key(&a.risks), key(&b.risks), "{label}: risk multiset");
}

proptest! {
    // Each case builds a full (small) dense surface; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The guarantee the strategy is named for: whatever the prior, the
    /// winner's expected sub-optimality under it is never worse than the
    /// native optimizer's plan (which is always in the candidate set).
    #[test]
    fn expected_penalty_never_exceeds_native(
        n in 5usize..10,
        min_exp in 5u32..8,
        e0 in -6.0f64..=0.0,
        e1 in -6.0f64..=0.0,
        sigma in 0.2f64..3.0,
        jitter in 0.0f64..0.8,
        seed in 0u64..u64::MAX,
    ) {
        let f = fx();
        let opt = optimizer(f);
        let surface = EssSurface::build(&opt, MultiGrid::uniform(2, 10f64.powi(-(min_exp as i32)), n));
        let prior = SelectivityPrior::lognormal(
            surface.grid(),
            &[10f64.powf(e0), 10f64.powf(e1)],
            PriorConfig { seed, sigma, jitter },
        ).unwrap();
        let ctx = EvalContext::new(&surface, &opt);
        let cfg = PenaltyConfig { alpha: 0.9, objective: Objective::Expected };
        let sel = penalty::select(&ctx, &prior, &cfg, 1).unwrap();
        prop_assert!(
            sel.chosen.expected <= sel.native.expected,
            "chosen expected {} > native {}",
            sel.chosen.expected,
            sel.native.expected
        );
        // The native baseline really is the native plan's risk.
        prop_assert!(sel.risks.iter().any(|r| r.fingerprint == sel.native.fingerprint));
        prop_assert!(sel.expected_improvement() >= 0.0);
    }

    /// Chosen CVaR is monotone in alpha: a deeper tail can only look
    /// worse, for the selection as a whole (min over candidates of
    /// per-candidate monotone functions is monotone).
    #[test]
    fn chosen_cvar_monotone_in_alpha(
        n in 5usize..9,
        e0 in -6.0f64..=0.0,
        e1 in -6.0f64..=0.0,
        sigma in 0.3f64..2.5,
        seed in 0u64..1_000_000,
    ) {
        let f = fx();
        let opt = optimizer(f);
        let surface = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-7, n));
        let prior = SelectivityPrior::lognormal(
            surface.grid(),
            &[10f64.powf(e0), 10f64.powf(e1)],
            PriorConfig { seed, sigma, jitter: 0.1 },
        ).unwrap();
        let ctx = EvalContext::new(&surface, &opt);
        let mut prev: Option<f64> = None;
        for alpha in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let cfg = PenaltyConfig { alpha, objective: Objective::Cvar };
            let sel = penalty::select(&ctx, &prior, &cfg, 1).unwrap();
            prop_assert!(
                sel.chosen.cvar >= sel.chosen.expected * (1.0 - 1e-12),
                "CVaR {} below expectation {} at alpha {alpha}",
                sel.chosen.cvar, sel.chosen.expected
            );
            if let Some(p) = prev {
                prop_assert!(
                    sel.chosen.cvar >= p * (1.0 - 1e-12),
                    "chosen CVaR not monotone: {p} -> {} at alpha {alpha}",
                    sel.chosen.cvar
                );
            }
            prev = Some(sel.chosen.cvar);
        }
    }

    /// One selection, five paths: sequential matrix-backed, parallel at
    /// 2..8 threads, direct dense recost, and the lazy surface must all
    /// produce the same winner with bit-equal risks.
    #[test]
    fn selection_bit_identical_across_threads_and_surfaces(
        n in 5usize..9,
        e0 in -6.0f64..=0.0,
        e1 in -6.0f64..=0.0,
        sigma in 0.3f64..2.5,
        seed in 0u64..1_000_000,
        threads in 2usize..8,
        alpha_pct in 0u32..=100,
    ) {
        let f = fx();
        let opt = optimizer(f);
        let grid = MultiGrid::uniform(2, 1e-7, n);
        let surface = EssSurface::build(&opt, grid.clone());
        let prior = SelectivityPrior::lognormal(
            surface.grid(),
            &[10f64.powf(e0), 10f64.powf(e1)],
            PriorConfig { seed, sigma, jitter: 0.1 },
        ).unwrap();
        let cfg = PenaltyConfig { alpha: alpha_pct as f64 / 100.0, objective: Objective::Expected };
        let ctx = EvalContext::new(&surface, &opt);

        let seq = penalty::select(&ctx, &prior, &cfg, 1).unwrap();
        let par = penalty::select(&ctx, &prior, &cfg, threads).unwrap();
        assert_selections_equivalent(&format!("seq vs {threads} threads"), &seq, &par);
        // Same pool order on the same context: the full risk vectors,
        // not just the multiset, are bit-equal.
        prop_assert_eq!(seq.risks.len(), par.risks.len());
        for (a, b) in seq.risks.iter().zip(&par.risks) {
            prop_assert_eq!(risk_bits(a), risk_bits(b));
        }

        let direct = penalty::select_on(&surface, &opt, &prior, &cfg).unwrap();
        assert_selections_equivalent("matrix vs direct recost", &seq, &direct);

        // Fully materialize the lazy surface in a scrambled order so its
        // pool interns the same plan *set* as the dense one under a
        // different id numbering — the comparison must not notice.
        let lazy = LazySurface::new(&opt, grid);
        let len = lazy.grid().len();
        let stride = (seed as usize % len).max(1) | 1; // odd → coprime with 2^k, walks all cells for our sizes
        let mut visited = 0usize;
        let mut qa = seed as usize % len;
        while visited < 2 * len {
            let _ = lazy.plan_id(qa % len);
            qa += stride;
            visited += 1;
        }
        for qa in 0..len {
            let _ = lazy.plan_id(qa);
        }
        prop_assert_eq!(lazy.pool_len(), surface.pool_len(), "pools intern different plan sets");
        let on_lazy = penalty::select_on(&lazy, &opt, &prior, &cfg).unwrap();
        assert_selections_equivalent("dense vs lazy", &seq, &on_lazy);
    }
}

/// A scratch path unique to this process and call site.
fn scratch(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("rqp-penalty-{}-{tag}-{n}.rqpa", std::process::id()))
}

/// Compile → attach the penalty summary → save → load → re-select from
/// the loaded artifact's surface and matrix: the persisted summary and
/// the recomputed selection must agree bit-for-bit, and a second save →
/// load round-trip must preserve the summary exactly.
#[test]
fn artifact_roundtrip_reselects_bit_equal() {
    let f = fx();
    let opt = optimizer(f);
    let cfg = PenaltyConfig::default();
    let artifact = CompiledArtifact::compile(&opt, MultiGrid::uniform(2, 1e-6, 8), 2.0, 0.2, 2);
    let (summary, sel) =
        rqp::experiments::penalty_summary(&artifact, &opt, PriorConfig::default(), &cfg).unwrap();
    assert_eq!(summary.prior_hash_u64(), Some(sel.prior_hash));
    assert_eq!(
        summary.chosen_fingerprint_u64(),
        Some(sel.chosen.fingerprint)
    );
    let artifact = artifact.with_penalty(summary.clone());

    let path = scratch("roundtrip");
    artifact.save(&path).unwrap();
    let loaded = CompiledArtifact::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let persisted = loaded.penalty.clone().expect("summary persisted");
    assert_eq!(persisted, summary, "summary changed across save/load");

    // Re-select from the loaded surface + matrix with the persisted
    // prior configuration: bit-equal to the compile-time selection.
    let prior_config = PriorConfig {
        seed: persisted.prior_seed,
        sigma: persisted.prior_sigma,
        jitter: persisted.prior_jitter,
    };
    let (resummary, resel) =
        rqp::experiments::penalty_summary(&loaded, &opt, prior_config, &cfg).unwrap();
    assert_eq!(
        resummary, persisted,
        "re-selection diverged from the persisted summary"
    );
    assert_eq!(resel.prior_hash, sel.prior_hash);
    assert_eq!(resel.chosen.fingerprint, sel.chosen.fingerprint);
    assert_eq!(
        resel.chosen.expected.to_bits(),
        sel.chosen.expected.to_bits()
    );
    assert_eq!(resel.chosen.cvar.to_bits(), sel.chosen.cvar.to_bits());
    assert_eq!(
        resel.native.expected.to_bits(),
        sel.native.expected.to_bits()
    );
}

/// FNV-1a over every field of a selection that a risk kernel produces:
/// each candidate's `(plan id, fingerprint, expected bits, CVaR bits)`,
/// then the chosen and native risks, then the prior hash.
fn selection_digest(sel: &PenaltySelection) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in sel.risks.iter().chain([&sel.chosen, &sel.native]) {
        eat(r.plan_id.map_or(u64::MAX, |p| p as u64));
        let (fp, e, c) = risk_bits(r);
        [fp, e, c].into_iter().for_each(&mut eat);
    }
    eat(sel.prior_hash);
    h
}

/// The default selection on two suite queries at their suite grids,
/// pinned bit for bit over both cost sources. The digests were computed
/// at the parent of the allocation-light risk kernel, so any change to
/// the kernel's float operations or their order moves them.
#[test]
fn default_selection_risks_are_pinned() {
    let catalog = tpcds::catalog_sf100();
    let suite = rqp::workloads::paper_suite(&catalog);
    for (name, pinned) in [
        ("3D_Q15", 0x9c3c_7602_fde1_2e3eu64),
        ("4D_Q91", 0x54c3_0115_fbac_189a),
    ] {
        let bench = suite.iter().find(|b| b.name() == name).expect("suite");
        let opt = Optimizer::new(
            &catalog,
            &bench.query,
            CostParams::default(),
            EnumerationMode::LeftDeep,
        )
        .unwrap();
        let surface = EssSurface::build_parallel(&opt, bench.grid(), 2);
        let ctx = EvalContext::with_threads(&surface, &opt, 2);
        let sources = [
            ("matrix", CostSource::Matrix(&ctx)),
            ("recost", CostSource::Recost(&surface, &opt)),
        ];
        for (label, source) in sources {
            let pa = Strategy::PenaltyAware
                .compile(source, &Params::default())
                .unwrap();
            let digest = selection_digest(pa.penalty_selection().expect("PA"));
            assert_eq!(digest, pinned, "{name} {label}: digest {digest:#018x}");
        }
    }
}

/// An artifact compiled without a penalty-aware selection saves and
/// loads with `penalty: None`.
#[test]
fn pre_penalty_artifacts_still_load() {
    let f = fx();
    let opt = optimizer(f);
    let artifact = CompiledArtifact::compile(&opt, MultiGrid::uniform(2, 1e-6, 6), 2.0, 0.2, 1);
    assert!(
        artifact.penalty.is_none(),
        "compile() must not attach a summary"
    );
    let path = scratch("v1");
    artifact.save(&path).unwrap();
    let loaded = CompiledArtifact::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(loaded.penalty.is_none());
    assert_eq!(loaded.surface.len(), artifact.surface.len());
}
