//! Shared experiment harness for the benchmark binaries.
//!
//! Each `benches/` target regenerates one table or figure of the paper;
//! they all share this plumbing: building the POSP surface for a workload
//! query, computing guarantees and exhaustive empirical statistics for
//! every algorithm, and persisting machine-readable results under
//! `target/experiments/` (the source for `EXPERIMENTS.md`).

use rqp_artifacts::{CompiledArtifact, PenaltySummary};
use rqp_catalog::Catalog;
use rqp_core::{
    evaluate_strategy, Compiled, CostSource, EvalContext, Params, PenaltyConfig, PenaltySelection,
    PriorConfig, Strategy, SubOptStats,
};
use rqp_ess::EssSurface;
use rqp_optimizer::{CostParams, EnumerationMode, Optimizer};
use rqp_workloads::BenchQuery;
use serde::Serialize;
use std::borrow::Cow;
use std::path::PathBuf;
use std::time::Instant;

/// Worker threads for parallel evaluation, from the `RQP_THREADS`
/// environment variable (defaults to the machine's parallelism).
pub use rqp_common::env_threads;

/// A workload query compiled against its catalog, with the POSP surface
/// built.
pub struct Experiment {
    /// The catalog the query runs over.
    pub catalog: Box<Catalog>,
    /// The benchmark configuration.
    pub bench: BenchQuery,
    /// The optimal cost surface over the configured grid.
    pub surface: EssSurface,
    /// Seconds spent building the surface (the paper's "preprocessing
    /// overhead").
    pub build_secs: f64,
}

impl Experiment {
    /// Sweeps the optimizer over the query's grid and records the surface.
    pub fn build(catalog: Catalog, bench: BenchQuery, mode: EnumerationMode) -> Self {
        let catalog = Box::new(catalog);
        let start = Instant::now();
        let surface = {
            let opt = Optimizer::new(&catalog, &bench.query, CostParams::default(), mode)
                .unwrap_or_else(|e| panic!("{}: {e}", bench.query.name));
            EssSurface::build(&opt, bench.grid())
        };
        let build_secs = start.elapsed().as_secs_f64();
        Self {
            catalog,
            bench,
            surface,
            build_secs,
        }
    }

    /// A fresh optimizer bound to this experiment's catalog and query.
    pub fn optimizer(&self) -> Optimizer<'_> {
        Optimizer::new(
            &self.catalog,
            &self.bench.query,
            CostParams::default(),
            EnumerationMode::LeftDeep,
        )
        .expect("validated at build")
    }
}

/// Full comparison of one query across algorithms — the data behind
/// Figs. 8, 10, 11, 13 and Table 4.
#[derive(Debug, Clone, PartialEq, Serialize, serde::Deserialize)]
pub struct ComparisonRow {
    /// Query name (`xD_Qz`).
    pub name: String,
    /// Number of epps `D`.
    pub d: usize,
    /// Post-anorexic-reduction maximum contour density.
    pub rho_red: usize,
    /// PlanBouquet guarantee `4(1+λ)ρ_red` (behavioral).
    pub msog_pb: f64,
    /// SpillBound guarantee `D²+3D` (structural).
    pub msog_sb: f64,
    /// AlignedBound guarantee lower end `2D+2`.
    pub msog_ab_lower: f64,
    /// Empirical MSO of PlanBouquet.
    pub msoe_pb: f64,
    /// Empirical MSO of SpillBound.
    pub msoe_sb: f64,
    /// Empirical MSO of AlignedBound.
    pub msoe_ab: f64,
    /// Average sub-optimality of PlanBouquet.
    pub aso_pb: f64,
    /// Average sub-optimality of SpillBound.
    pub aso_sb: f64,
    /// Average sub-optimality of AlignedBound.
    pub aso_ab: f64,
    /// Empirical MSO of the native optimizer (fixed estimate).
    pub msoe_native: f64,
    /// Average sub-optimality of the native optimizer (uniform prior).
    pub aso_native: f64,
    /// Empirical MSO of the penalty-aware single-plan strategy.
    pub msoe_pa: f64,
    /// Average sub-optimality of the penalty-aware strategy (uniform).
    pub aso_pa: f64,
    /// Prior-weighted ASO (expected penalty) of the penalty-aware
    /// choice under the seeded selectivity-error prior.
    pub aso_prior_pa: f64,
    /// Prior-weighted ASO of the native plan under the same prior —
    /// `aso_prior_pa <= aso_prior_native` by construction (the fig14
    /// gate).
    pub aso_prior_native: f64,
    /// CVaR (alpha = 0.9) of the penalty-aware choice under the prior.
    pub pa_cvar: f64,
    /// Maximum AlignedBound part penalty observed (Table 4).
    pub ab_max_penalty: f64,
    /// Surface preprocessing seconds.
    pub build_secs: f64,
}

impl ComparisonRow {
    /// `(MSOg, MSOe, ASO)` of strategy `s`. MSOg is infinite for the
    /// fixed-plan strategies, which have no MSO guarantee.
    pub fn stats(&self, s: Strategy) -> (f64, f64, f64) {
        match s {
            Strategy::Native => (f64::INFINITY, self.msoe_native, self.aso_native),
            Strategy::PlanBouquet => (self.msog_pb, self.msoe_pb, self.aso_pb),
            Strategy::SpillBound => (self.msog_sb, self.msoe_sb, self.aso_sb),
            Strategy::AlignedBound => (self.msog_sb, self.msoe_ab, self.aso_ab),
            Strategy::PenaltyAware => (f64::INFINITY, self.msoe_pa, self.aso_pa),
        }
    }
}

/// Runs the complete per-query comparison (every strategy of the table,
/// exhaustive over the grid) with `RQP_THREADS` worker threads.
pub fn compare(exp: &Experiment, ratio: f64, lambda: f64) -> ComparisonRow {
    compare_with_threads(exp, ratio, lambda, env_threads())
}

/// Compiles `s` over `source` and sweeps it with `threads` workers,
/// panicking on failure (harness use). The compiled value carries the
/// sweep's side results: AlignedBound's penalty, PenaltyAware's selection.
pub fn sweep<'a>(
    s: Strategy,
    source: CostSource<'a>,
    params: &Params,
    threads: usize,
) -> (SubOptStats, Compiled<'a>) {
    let compiled =
        (s.compile(source, params)).unwrap_or_else(|e| panic!("{} compile: {e}", s.name()));
    let stats = evaluate_strategy(&compiled, threads)
        .unwrap_or_else(|e| panic!("{} evaluation: {e}", s.name()));
    (stats, compiled)
}

/// [`compare`] with an explicit thread count. Every strategy shares a
/// single plan×location cost matrix ([`EvalContext`]); the matrix build
/// and the per-location sweeps both fan out across `threads` workers, and
/// the results are bit-equal to a sequential run.
pub fn compare_with_threads(
    exp: &Experiment,
    ratio: f64,
    lambda: f64,
    threads: usize,
) -> ComparisonRow {
    let opt = exp.optimizer();
    let d = exp.bench.query.ndims();
    let ctx = EvalContext::with_threads(&exp.surface, &opt, threads);
    let params = Params {
        ratio,
        lambda,
        ..Params::default()
    };
    let [(native, _), (pb, pb_c), (sb, _), (ab, ab_c), (pa, pa_c)] =
        Strategy::ALL.map(|s| sweep(s, CostSource::Matrix(&ctx), &params, threads));
    let pa_sel = pa_c.penalty_selection().expect("a penalty-aware selection");
    ComparisonRow {
        name: exp.bench.query.name.clone(),
        d,
        rho_red: pb_c.bouquet().expect("a bouquet").rho_red(),
        msog_pb: pb_c.mso_guarantee(),
        msog_sb: rqp_core::spillbound_guarantee(d),
        msog_ab_lower: rqp_core::aligned_guarantee_lower(d),
        msoe_pb: pb.mso,
        msoe_sb: sb.mso,
        msoe_ab: ab.mso,
        aso_pb: pb.aso,
        aso_sb: sb.aso,
        aso_ab: ab.aso,
        msoe_native: native.mso,
        aso_native: native.aso,
        msoe_pa: pa.mso,
        aso_pa: pa.aso,
        aso_prior_pa: pa_sel.chosen.expected,
        aso_prior_native: pa_sel.native.expected,
        pa_cvar: pa_sel.chosen.cvar,
        ab_max_penalty: ab_c.observed_max_penalty().expect("AlignedBound's penalty"),
        build_secs: exp.build_secs,
    }
}

/// Runs the offline penalty-aware selection for a compiled artifact and
/// packages it as the persistable [`PenaltySummary`]. The selection is
/// the table's PenaltyAware compile over the artifact's matrix — the same
/// construction the server uses when it re-verifies a loaded artifact, so
/// the compile-time and serve-time selections are bit-comparable.
pub fn penalty_summary(
    artifact: &CompiledArtifact,
    opt: &Optimizer<'_>,
    prior_config: PriorConfig,
    cfg: &PenaltyConfig,
) -> rqp_common::Result<(PenaltySummary, PenaltySelection)> {
    let ctx = EvalContext::from_parts(&artifact.surface, opt, Cow::Borrowed(&artifact.matrix))?;
    let params = Params {
        prior: prior_config,
        penalty: *cfg,
        ..Params::default()
    };
    let pa = Strategy::PenaltyAware.compile(CostSource::Matrix(&ctx), &params)?;
    let sel = pa
        .penalty_selection()
        .expect("a penalty-aware selection")
        .clone();
    let summary = PenaltySummary {
        prior_seed: prior_config.seed,
        prior_sigma: prior_config.sigma,
        prior_jitter: prior_config.jitter,
        alpha: sel.alpha,
        prior_hash: format!("{:016x}", sel.prior_hash),
        chosen_plan: sel.chosen.plan_id,
        chosen_fingerprint: format!("{:016x}", sel.chosen.fingerprint),
        expected: sel.chosen.expected,
        cvar: sel.chosen.cvar,
        native_expected: sel.native.expected,
    };
    Ok((summary, sel))
}

/// Sequential-vs-parallel wall-clock comparison for one query's
/// exhaustive evaluation (matrix build + every strategy's sweep).
#[derive(Debug, Clone, Serialize, serde::Deserialize)]
pub struct SpeedupRow {
    /// Query name.
    pub name: String,
    /// Worker threads used for the parallel run.
    pub threads: usize,
    /// Wall-clock seconds of the seed's evaluation path (recost per
    /// location, no shared matrix, single-threaded).
    pub seed_secs: f64,
    /// Wall-clock seconds of the single-threaded cached evaluation.
    pub seq_secs: f64,
    /// Wall-clock seconds of the `threads`-worker cached evaluation.
    pub par_secs: f64,
    /// `seq_secs / par_secs` (thread scaling alone).
    pub speedup: f64,
    /// `seed_secs / par_secs` (shared matrix + memoization + threads).
    pub speedup_vs_seed: f64,
}

/// Times the full every-strategy evaluation of `exp` sequentially and
/// with `threads` workers, panicking if the two disagree bit-for-bit on
/// any reported statistic. The returned row is what the fig10–fig13 and
/// micro harnesses print as their "parallel evaluation" section.
pub fn measure_speedup(exp: &Experiment, ratio: f64, lambda: f64, threads: usize) -> SpeedupRow {
    // The seed's evaluation path: one full recost (or spill binary search
    // with per-probe recosting) per strategy per grid location.
    let opt = exp.optimizer();
    let params = Params {
        ratio,
        lambda,
        ..Params::default()
    };
    let ts = Instant::now();
    let seed =
        Strategy::ALL.map(|s| sweep(s, CostSource::Recost(&exp.surface, &opt), &params, 1).0);
    let seed_secs = ts.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let seq = compare_with_threads(exp, ratio, lambda, 1);
    let seq_secs = t0.elapsed().as_secs_f64();
    for (s, seed) in Strategy::ALL.into_iter().zip(seed) {
        let (seed, cached) = (seed.mso, seq.stats(s).1);
        assert_eq!(
            seed.to_bits(),
            cached.to_bits(),
            "{}: {} MSOe diverged between the seed path ({seed}) and the cached path ({cached})",
            exp.bench.query.name,
            s.name()
        );
    }
    let t1 = Instant::now();
    let par = compare_with_threads(exp, ratio, lambda, threads);
    let par_secs = t1.elapsed().as_secs_f64();
    // Every statistic is finite and at least 1, so `==` is bit equality.
    assert_eq!(
        seq, par,
        "{}: the sequential and {threads}-thread comparisons diverged",
        exp.bench.query.name
    );
    SpeedupRow {
        name: exp.bench.query.name.clone(),
        threads,
        seed_secs,
        seq_secs,
        par_secs,
        speedup: seq_secs / par_secs,
        speedup_vs_seed: seed_secs / par_secs,
    }
}

/// Prints a [`SpeedupRow`] in the shared harness format.
pub fn print_speedup(row: &SpeedupRow) {
    println!(
        "[parallel evaluation] {}: seed path {:.3}s, cached sequential {:.3}s, {} threads \
         {:.3}s -> {:.2}x vs cached sequential, {:.2}x vs the seed path \
         (bit-equal results; set RQP_THREADS to change the worker count)",
        row.name,
        row.seed_secs,
        row.seq_secs,
        row.threads,
        row.par_secs,
        row.speedup,
        row.speedup_vs_seed
    );
}

/// Worker-thread count for a harness or CLI invocation, resolved in
/// priority order: a `--threads N` command-line override, then the
/// `RQP_THREADS` environment knob, then `default`. Every bench harness
/// and the `rqp` CLI share this one resolution (it used to be
/// copy-pasted per harness).
pub fn harness_threads(default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == "--threads") {
        if let Some(n) = args.get(pos + 1).and_then(|s| s.parse::<usize>().ok()) {
            if n >= 1 {
                return n;
            }
        }
        eprintln!("--threads expects a positive integer; falling back to RQP_THREADS/default");
    }
    if std::env::var_os("RQP_THREADS").is_some() {
        env_threads()
    } else {
        default
    }
}

/// The standard "parallel evaluation" trailer shared by the figure
/// harnesses: measures the sequential-vs-parallel speedup of the full
/// every-strategy sweep on `dD_Q91`, prints it, and persists it as
/// `target/experiments/<json_name>.json`. The worker count comes from
/// [`harness_threads`] (`--threads N`, then `RQP_THREADS`, then 4).
pub fn speedup_section(d: usize, json_name: &str) -> SpeedupRow {
    let threads = harness_threads(4);
    let catalog = rqp_catalog::tpcds::catalog_sf100();
    let bench = rqp_workloads::q91_with_dims(&catalog, d);
    let exp = Experiment::build(catalog, bench, EnumerationMode::LeftDeep);
    let row = measure_speedup(&exp, 2.0, 0.2, threads);
    print_speedup(&row);
    write_json(json_name, &row);
    row
}

/// Directory where benchmark harnesses persist their results.
pub fn output_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// Persists a result as pretty JSON under `target/experiments/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = output_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize experiment");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("[saved {}]", path.display());
}

/// Prints an aligned plain-text table (benchmark harness output format).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Rounds to a fixed number of decimals for table display.
pub fn fmt(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Re-export of [`rqp_core::spillbound_guarantee_ratio`] for the bench
/// harnesses.
pub use rqp_core::spillbound_guarantee_ratio;

/// Computes (or loads from `target/experiments/suite_comparison.json`) the
/// full-suite comparison. Several figure harnesses share this data; the
/// first one to run pays the cost.
pub fn suite_comparison_cached() -> Vec<ComparisonRow> {
    let path = output_dir().join("suite_comparison.json");
    // The cache is keyed by nothing but its presence: after changing any
    // algorithm or workload, delete target/experiments/ or set
    // RQP_FORCE_RECOMPUTE=1 to avoid silently reusing stale numbers.
    let force = std::env::var_os("RQP_FORCE_RECOMPUTE").is_some();
    if force {
        let _ = std::fs::remove_file(&path);
    }
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(rows) = serde_json::from_str::<Vec<ComparisonRow>>(&text) {
            let expected = rqp_workloads::paper_suite(&rqp_catalog::tpcds::catalog_sf100()).len();
            if rows.len() == expected {
                println!("[reusing cached {}]", path.display());
                return rows;
            }
        }
    }
    let catalog = rqp_catalog::tpcds::catalog_sf100();
    let suite = rqp_workloads::paper_suite(&catalog);
    let threads = env_threads();
    let mut rows = Vec::with_capacity(suite.len());
    for bench in suite {
        let name = bench.query.name.clone();
        eprintln!("[evaluating {name} with {threads} thread(s) ...]");
        let exp = Experiment::build(
            rqp_catalog::tpcds::catalog_sf100(),
            bench,
            EnumerationMode::LeftDeep,
        );
        rows.push(compare(&exp, 2.0, 0.2));
    }
    write_json("suite_comparison", &rows);
    rows
}

/// Renders the suite comparison as a markdown report (the generated
/// companion to `EXPERIMENTS.md`), written to
/// `target/experiments/report.md` by [`write_report`].
pub fn render_report(rows: &[ComparisonRow]) -> String {
    use std::fmt::Write as _;
    let mut md = String::from(
        "# rqp experiment report\n\n\
         Generated from the exhaustive suite comparison (MSO guarantees, \
         empirical MSO/ASO, AlignedBound penalties).\n\n\
         | query | D | ρ_red | PB MSOg | SB MSOg | PB MSOe | SB MSOe | AB MSOe | 2D+2 | PB ASO | SB ASO | AB ASO | AB max ε | native MSOe |\n\
         |---|---|---|---|---|---|---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        let _ = writeln!(
            md,
            "| {} | {} | {} | {:.1} | {:.0} | {:.1} | {:.1} | {:.1} | {:.0} | {:.2} | {:.2} | {:.2} | {:.2} | {:.3e} |",
            r.name,
            r.d,
            r.rho_red,
            r.msog_pb,
            r.msog_sb,
            r.msoe_pb,
            r.msoe_sb,
            r.msoe_ab,
            r.msog_ab_lower,
            r.aso_pb,
            r.aso_sb,
            r.aso_ab,
            r.ab_max_penalty,
            r.msoe_native,
        );
    }
    let sb_wins = rows.iter().filter(|r| r.msoe_sb <= r.msoe_pb).count();
    let ab_wins = rows.iter().filter(|r| r.msoe_ab <= r.msoe_sb).count();
    let _ = write!(
        md,
        "\n- SpillBound ≤ PlanBouquet (MSOe): {sb_wins}/{} queries\n\
         - AlignedBound ≤ SpillBound (MSOe): {ab_wins}/{} queries\n\
         - every SB MSOe within its D²+3D guarantee: {}\n",
        rows.len(),
        rows.len(),
        rows.iter().all(|r| r.msoe_sb <= r.msog_sb * (1.0 + 1e-9)),
    );
    md
}

/// Writes [`render_report`] output to `target/experiments/report.md`.
pub fn write_report(rows: &[ComparisonRow]) {
    let path = output_dir().join("report.md");
    std::fs::write(&path, render_report(rows))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("[saved {}]", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, msoe_sb: f64, msoe_pb: f64) -> ComparisonRow {
        ComparisonRow {
            name: name.into(),
            d: 3,
            rho_red: 5,
            msog_pb: 24.0,
            msog_sb: 18.0,
            msog_ab_lower: 8.0,
            msoe_pb,
            msoe_sb,
            msoe_ab: msoe_sb * 0.9,
            aso_pb: 4.0,
            aso_sb: 2.0,
            aso_ab: 1.9,
            msoe_native: 1e6,
            aso_native: 9.0e5,
            msoe_pa: 1.5,
            aso_pa: 1.2,
            aso_prior_pa: 1.1,
            aso_prior_native: 1.3,
            pa_cvar: 2.0,
            ab_max_penalty: 2.5,
            build_secs: 0.1,
        }
    }

    #[test]
    fn report_contains_rows_and_verdicts() {
        let rows = vec![row("3D_QA", 10.0, 20.0), row("3D_QB", 12.0, 15.0)];
        let md = render_report(&rows);
        assert!(md.contains("| 3D_QA |"));
        assert!(md.contains("| 3D_QB |"));
        assert!(md.contains("SpillBound ≤ PlanBouquet (MSOe): 2/2"));
        assert!(md.contains("within its D²+3D guarantee: true"));
    }

    #[test]
    fn ratio_guarantee_reexport_consistent() {
        assert_eq!(spillbound_guarantee_ratio(2, 2.0), 10.0);
    }

    #[test]
    fn print_table_is_well_formed() {
        // smoke: no panic on ragged-ish content, alignment computed
        print_table(
            "t",
            &["a", "long-header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
