//! Golden paper-conformance suite.
//!
//! Pins the paper-facing numbers for the shipped 2D/4D Q91 workloads —
//! POSP size, iso-cost contour count, anorexic-reduced bouquet size
//! (ρ_red), and the empirical MSO of each algorithm — against the
//! checked-in `tests/golden/paper_conformance.json`, plus a lazily-built
//! high-resolution entry (6D_Q18 at 16 points/dim — 16.7M grid cells, a
//! resolution the dense path cannot reach in test time): contour count,
//! materialized-cell and optimizer-call counts, the anorexic density of
//! the first contours, and sampled SpillBound sub-optimality. Any drift
//! in the optimizer, contour geometry, or discovery algorithms fails the
//! test with a diff; regenerate intentionally with
//!
//! ```text
//! RQP_BLESS=1 cargo test --test paper_conformance
//! ```
//!
//! Alongside the golden comparison, the SpillBound bound is asserted
//! per query location: every sub-optimality must stay within D²+3D.

use rqp::catalog::tpcds;
use rqp::core::{
    evaluate_strategy, spillbound_guarantee, AlignedBound, CostOracle, CostSource, EvalContext,
    Params, PlanBouquet, SpillBound, Strategy, SubOptStats,
};
use rqp::ess::anorexic::reduce_contour;
use rqp::ess::{ContourSet, EssSurface, EssView, LazySurface, SurfaceAccess};
use rqp::executor::{DataStore, Engine, Executor};
use rqp::optimizer::{CostParams, EnumerationMode, Optimizer};
use rqp::runner::ExecOracle;
use rqp::workloads::{executable_genspec_with_errors, paper_suite, q91_with_dims};
use rqp_catalog::DataSet;
use rqp_common::MultiGrid;
use std::fmt::Write as _;
use std::path::PathBuf;

const RATIO: f64 = 2.0;
const LAMBDA: f64 = 0.2;

/// One workload's pinned numbers, in golden-file order. Dense entries
/// fill the exhaustive-sweep fields; the lazy entry fills the
/// materialization accounting and sampled fields instead.
struct Conformance {
    name: String,
    grid_points: usize,
    posp_size: Option<usize>,
    contours: usize,
    rho_red: Option<usize>,
    msoe_sb: Option<f64>,
    msoe_ab: Option<f64>,
    msoe_pb: Option<f64>,
    cells_materialized: Option<usize>,
    optimizer_calls: Option<u64>,
    rho_red_prefix: Option<usize>,
    msoe_sb_sample: Option<f64>,
}

/// Runs the full pipeline for Q91 at dimensionality `d` on a reduced
/// grid (debug-mode tractable) and collects the conformance numbers.
fn measure(d: usize, grid_points: usize, with_ab: bool) -> Conformance {
    let catalog = tpcds::catalog_sf100();
    let mut bench = q91_with_dims(&catalog, d);
    bench.grid_points = grid_points;
    let name = bench.name().to_string();
    let opt = Optimizer::new(
        &catalog,
        &bench.query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .expect("valid query");
    let surface = EssSurface::build(&opt, bench.grid());
    let ctx = EvalContext::with_threads(&surface, &opt, 1);
    let pb = PlanBouquet::new(&surface, &opt, RATIO, LAMBDA);

    let sweep = |s: Strategy| -> SubOptStats {
        let params = Params {
            ratio: RATIO,
            lambda: LAMBDA,
            ..Params::default()
        };
        let compiled = s
            .compile(CostSource::Matrix(&ctx), &params)
            .expect("compiles");
        evaluate_strategy(&compiled, 1).unwrap_or_else(|e| panic!("{} sweep: {e}", s.name()))
    };
    let sb_stats = sweep(Strategy::SpillBound);
    // Satellite guarantee check: D²+3D per location, not just globally.
    let bound = spillbound_guarantee(d);
    for (qa, sub) in sb_stats.subopts.iter().enumerate() {
        assert!(
            *sub <= bound * (1.0 + 1e-6),
            "{name}: SB sub-optimality {sub} at location {qa} exceeds D²+3D = {bound}"
        );
    }
    let msoe_ab = with_ab.then(|| {
        let ab_stats = sweep(Strategy::AlignedBound);
        for (qa, sub) in ab_stats.subopts.iter().enumerate() {
            assert!(
                *sub <= bound * (1.0 + 1e-6),
                "{name}: AB sub-optimality {sub} at location {qa} exceeds D²+3D = {bound}"
            );
        }
        ab_stats.mso
    });
    let pb_stats = sweep(Strategy::PlanBouquet);

    Conformance {
        name,
        grid_points,
        posp_size: Some(surface.posp_size()),
        contours: pb.contours().len(),
        rho_red: Some(pb.rho_red()),
        msoe_sb: Some(sb_stats.mso),
        msoe_ab,
        msoe_pb: Some(pb_stats.mso),
        cells_materialized: None,
        optimizer_calls: None,
        rho_red_prefix: None,
        msoe_sb_sample: None,
    }
}

/// The lazy high-resolution entry: 6D_Q18 at 16 points/dim. The dense
/// pipeline cannot build this grid (16.7M optimizer calls); the lazy
/// path pins instead:
///
/// * the contour count of the 16^6 schedule,
/// * ρ of the anorexic reduction over the first three contour skylines
///   (level sets near `cmin` are small, so their skylines are cheap),
/// * exact-mode SpillBound sub-optimality at a deterministic low-contour
///   qa sample, each run asserted within D²+3D,
/// * the total cells materialized / optimizer calls after all of the
///   above — the lazy path's entire cost, pinned so a regression that
///   silently densifies discovery fails the golden diff.
fn measure_lazy_6d(grid_points: usize) -> Conformance {
    let catalog = tpcds::catalog_sf100();
    let bench = paper_suite(&catalog)
        .into_iter()
        .find(|b| b.name() == "6D_Q18")
        .expect("6D_Q18 in the suite")
        .with_grid_points(grid_points);
    let d = bench.query.ndims();
    let opt = Optimizer::new(
        &catalog,
        &bench.query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .expect("valid query");
    let lazy = LazySurface::new(&opt, bench.grid());
    let contours = ContourSet::build(&lazy, RATIO);
    let view = EssView::full(d);

    let mut rho_red_prefix = 0usize;
    for i in 0..3.min(contours.len()) {
        let locs = contours.locations(&lazy, &view, i);
        assert!(!locs.is_empty(), "contour {i} has an empty skyline");
        let reduced = reduce_contour(&lazy, &opt, &locs, contours.cost(i), LAMBDA);
        rho_red_prefix = rho_red_prefix.max(reduced.plans.len());
    }

    // Deterministic low-contour sample: exact-mode SpillBound only
    // enumerates the skylines of the contours a run actually crosses,
    // which stay near the origin for these locations.
    let sample: [[usize; 6]; 6] = [
        [0, 0, 0, 0, 0, 0],
        [1, 1, 1, 1, 1, 1],
        [2, 2, 2, 2, 2, 2],
        [3, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 3],
        [1, 2, 0, 1, 0, 2],
    ];
    let bound = spillbound_guarantee(d);
    let sb = SpillBound::new(&lazy, &opt, RATIO);
    let mut msoe_sb_sample = 0.0f64;
    for coords in &sample {
        let qa = lazy.grid().flat(coords);
        let mut oracle = CostOracle::at_grid(&opt, lazy.grid(), qa);
        let report = sb.run(&mut oracle).expect("discovery completes");
        assert!(
            report.completed,
            "6D_Q18 lazy: run at {coords:?} incomplete"
        );
        let sub = report.sub_optimality(lazy.opt_cost(qa));
        assert!(
            sub <= bound * (1.0 + 1e-6),
            "6D_Q18 lazy: SB sub-optimality {sub} at {coords:?} exceeds D²+3D = {bound}"
        );
        msoe_sb_sample = msoe_sb_sample.max(sub);
    }

    Conformance {
        name: "6D_Q18_lazy".into(),
        grid_points,
        posp_size: None,
        contours: contours.len(),
        rho_red: None,
        msoe_sb: None,
        msoe_ab: None,
        msoe_pb: None,
        cells_materialized: Some(lazy.cells_materialized()),
        optimizer_calls: Some(lazy.optimizer_calls()),
        rho_red_prefix: Some(rho_red_prefix),
        msoe_sb_sample: Some(msoe_sb_sample),
    }
}

/// Shortest-round-trip float rendering, matching the JSONL trace format.
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

fn render(rows: &[Conformance]) -> String {
    let mut out = String::from("{\n");
    for (i, r) in rows.iter().enumerate() {
        let mut fields: Vec<(&str, String)> = vec![("grid_points", r.grid_points.to_string())];
        if let Some(v) = r.posp_size {
            fields.push(("posp_size", v.to_string()));
        }
        fields.push(("contours", r.contours.to_string()));
        if let Some(v) = r.rho_red {
            fields.push(("rho_red", v.to_string()));
        }
        if let Some(v) = r.msoe_sb {
            fields.push(("msoe_sb", fmt_f64(v)));
        }
        if let Some(v) = r.msoe_ab {
            fields.push(("msoe_ab", fmt_f64(v)));
        }
        if let Some(v) = r.msoe_pb {
            fields.push(("msoe_pb", fmt_f64(v)));
        }
        if let Some(v) = r.cells_materialized {
            fields.push(("cells_materialized", v.to_string()));
        }
        if let Some(v) = r.optimizer_calls {
            fields.push(("optimizer_calls", v.to_string()));
        }
        if let Some(v) = r.rho_red_prefix {
            fields.push(("rho_red_prefix", v.to_string()));
        }
        if let Some(v) = r.msoe_sb_sample {
            fields.push(("msoe_sb_sample", fmt_f64(v)));
        }
        let _ = writeln!(out, "  \"{}\": {{", r.name);
        for (k, (key, value)) in fields.iter().enumerate() {
            let comma = if k + 1 < fields.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{key}\": {value}{comma}");
        }
        let _ = writeln!(out, "  }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    out.push_str("}\n");
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/paper_conformance.json")
}

/// Executor-backed discovery golden: full SB and AB runs over the
/// executable 2D_Q91 workload, serialized with exact floats (shortest
/// round-trip rendering), pinned in `tests/golden/batch_discovery.json`.
/// Both the row engine and the vectorized [`Engine`] must reproduce the
/// checked-in bytes — the batch engine cannot drift a single budget,
/// spent cost, or learnt selectivity that the goldens pin, so switching
/// engines never forces a re-bless. Regenerate intentionally with
/// `RQP_BLESS=1 cargo test --test paper_conformance batch_engine`.
#[test]
fn batch_engine_discovery_matches_golden() {
    let catalog = tpcds::catalog(0.05);
    let bench = q91_with_dims(&catalog, 2);
    let query = &bench.query;
    let spec = executable_genspec_with_errors(&catalog, query, 42, &[50.0, 20.0]);
    let data = DataSet::generate(&catalog, &spec).expect("generate");
    let store = DataStore::new(&catalog, data);
    let opt = Optimizer::new(
        &catalog,
        query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .expect("valid query");
    let surface = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-7, 6));

    let discover = |batch: bool| -> String {
        let mut out = String::new();
        for algo in ["sb", "ab"] {
            let report = if batch {
                let exec = Engine::new(&catalog, query, &store, CostParams::default());
                let mut oracle = ExecOracle::new(exec, &opt, surface.grid());
                match algo {
                    "sb" => SpillBound::new(&surface, &opt, RATIO).run(&mut oracle),
                    _ => AlignedBound::new(&surface, &opt, RATIO).run(&mut oracle),
                }
            } else {
                let exec = Executor::new(&catalog, query, &store, CostParams::default());
                let mut oracle = ExecOracle::new(exec, &opt, surface.grid());
                match algo {
                    "sb" => SpillBound::new(&surface, &opt, RATIO).run(&mut oracle),
                    _ => AlignedBound::new(&surface, &opt, RATIO).run(&mut oracle),
                }
            }
            .unwrap_or_else(|e| panic!("{algo} completes: {e}"));
            let _ = writeln!(
                out,
                "{algo} cost_bits={} {}",
                report.total_cost.to_bits(),
                serde_json::to_string(&report).expect("serialize report")
            );
        }
        out
    };
    let row = discover(false);
    let batch = discover(true);
    assert_eq!(
        row, batch,
        "row and batch engines rendered different discovery reports"
    );

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/batch_discovery.json");
    if std::env::var_os("RQP_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, &batch).expect("write golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); generate it with RQP_BLESS=1 cargo test --test paper_conformance batch_engine",
            path.display()
        )
    });
    assert_eq!(
        batch,
        expected,
        "executor-backed discovery drifted from {}.\n\
         If the change is intentional, regenerate with:\n\
         RQP_BLESS=1 cargo test --test paper_conformance batch_engine",
        path.display()
    );
}

/// Penalty-aware conformance golden: the selection (chosen pool plan,
/// structural fingerprint, prior hash, expected penalty, CVaR) and its
/// exhaustive MSOe/ASO for 2D/4D Q91 under a fixed prior seed, pinned
/// in `tests/golden/penalty_conformance.json`. The floats are rendered
/// shortest-round-trip, so a single-ulp drift anywhere in the prior
/// construction, recost arithmetic, or risk integration fails the diff.
/// Regenerate intentionally with
/// `RQP_BLESS=1 cargo test --test paper_conformance penalty_selection`
/// (the name filter leaves the other goldens untouched).
#[test]
fn penalty_selection_matches_golden() {
    use rqp::core::{Objective, PenaltyConfig, PriorConfig};

    const PRIOR_SEED: u64 = 20260809;
    let catalog = tpcds::catalog_sf100();
    let mut out = String::from("{\n");
    let configs = [(2usize, 12usize), (4, 4)];
    for (i, (d, grid_points)) in configs.iter().enumerate() {
        let mut bench = q91_with_dims(&catalog, *d);
        bench.grid_points = *grid_points;
        let name = bench.name().to_string();
        let opt = Optimizer::new(
            &catalog,
            &bench.query,
            CostParams::default(),
            EnumerationMode::LeftDeep,
        )
        .expect("valid query");
        let surface = EssSurface::build(&opt, bench.grid());
        let ctx = EvalContext::with_threads(&surface, &opt, 1);
        let params = Params {
            prior: PriorConfig {
                seed: PRIOR_SEED,
                sigma: 1.0,
                jitter: 0.1,
            },
            penalty: PenaltyConfig {
                alpha: 0.9,
                objective: Objective::Expected,
            },
            ..Params::default()
        };
        let pa = (Strategy::PenaltyAware.compile(CostSource::Matrix(&ctx), &params))
            .expect("prior over the ESS grid");
        let stats = evaluate_strategy(&pa, 1).expect("PA sweep");
        let sel = pa.penalty_selection().expect("a selection");
        assert!(
            sel.chosen.expected <= sel.native.expected,
            "{name}: chosen expected {} exceeds native {}",
            sel.chosen.expected,
            sel.native.expected
        );
        let _ = writeln!(out, "  \"{name}\": {{");
        let _ = writeln!(out, "    \"grid_points\": {grid_points},");
        let _ = writeln!(out, "    \"prior_seed\": {PRIOR_SEED},");
        let _ = writeln!(out, "    \"prior_hash\": \"{:016x}\",", sel.prior_hash);
        let _ = writeln!(
            out,
            "    \"chosen_plan\": {},",
            sel.chosen
                .plan_id
                .map(|p| p.to_string())
                .unwrap_or_else(|| "null".into())
        );
        let _ = writeln!(
            out,
            "    \"chosen_fingerprint\": \"{:016x}\",",
            sel.chosen.fingerprint
        );
        let _ = writeln!(
            out,
            "    \"expected_penalty\": {},",
            fmt_f64(sel.chosen.expected)
        );
        let _ = writeln!(out, "    \"cvar\": {},", fmt_f64(sel.chosen.cvar));
        let _ = writeln!(
            out,
            "    \"native_expected\": {},",
            fmt_f64(sel.native.expected)
        );
        let _ = writeln!(out, "    \"msoe_pa\": {},", fmt_f64(stats.mso));
        let _ = writeln!(out, "    \"aso_pa\": {}", fmt_f64(stats.aso));
        let _ = writeln!(out, "  }}{}", if i + 1 < configs.len() { "," } else { "" });
    }
    out.push_str("}\n");

    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/penalty_conformance.json");
    if std::env::var_os("RQP_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, &out).expect("write golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); generate it with RQP_BLESS=1 cargo test --test paper_conformance penalty_selection",
            path.display()
        )
    });
    assert_eq!(
        out,
        expected,
        "penalty-aware conformance drifted from {}.\n\
         If the change is intentional, regenerate with:\n\
         RQP_BLESS=1 cargo test --test paper_conformance penalty_selection",
        path.display()
    );
}

#[test]
fn golden_numbers_match() {
    let rows = vec![
        measure(2, 12, true),
        measure(4, 4, false),
        measure_lazy_6d(16),
    ];
    let actual = render(&rows);
    let path = golden_path();
    if std::env::var_os("RQP_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, &actual).expect("write golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); generate it with RQP_BLESS=1 cargo test --test paper_conformance",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "paper-conformance numbers drifted from {}.\n\
         If the change is intentional, regenerate with:\n\
         RQP_BLESS=1 cargo test --test paper_conformance",
        path.display()
    );
}
