//! Shared experiment plumbing for the figures table, the CLI, the benches
//! and the examples: building the POSP surface for a workload query,
//! computing guarantees and exhaustive empirical statistics for every
//! strategy, and persisting machine-readable results under
//! `target/experiments/`.

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
/// Figs. 8, 10, 11, 13, 14 and Table 4.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Query name (`xD_Qz`).
    pub name: String,
    /// Number of epps `D`.
    pub d: usize,
    /// Post-anorexic-reduction maximum contour density.
    pub rho_red: usize,
    /// `(MSOg, MSOe, ASO)` per strategy, in [`Strategy::ALL`] order; read
    /// through [`stats`](Self::stats).
    pub strategies: [(f64, f64, f64); 5],
    /// Prior-weighted ASO (expected penalty) of the penalty-aware
    /// choice under the seeded selectivity-error prior.
    pub aso_prior_pa: f64,
    /// Prior-weighted ASO of the native plan under the same prior —
    /// `aso_prior_pa <= aso_prior_native` by construction (FIG14's
    /// claim).
    pub aso_prior_native: f64,
    /// CVaR (alpha = 0.9) of the penalty-aware choice under the prior.
    pub pa_cvar: f64,
    /// Maximum AlignedBound part penalty observed (Table 4).
    pub ab_max_penalty: f64,
}

impl ComparisonRow {
    /// `(MSOg, MSOe, ASO)` of strategy `s`. MSOg is infinite for the
    /// fixed-plan strategies, which have no MSO guarantee.
    pub fn stats(&self, s: Strategy) -> (f64, f64, f64) {
        self.strategies[s as usize]
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
    let swept = Strategy::ALL.map(|s| sweep(s, CostSource::Matrix(&ctx), &params, threads));
    let [_, (_, pb_c), _, (_, ab_c), (_, pa_c)] = &swept;
    let pa_sel = pa_c.penalty_selection().expect("a penalty-aware selection");
    ComparisonRow {
        name: exp.bench.query.name.clone(),
        d,
        rho_red: pb_c.bouquet().expect("a bouquet").rho_red(),
        strategies: swept
            .each_ref()
            .map(|(s, c)| (c.mso_guarantee(), s.mso, s.aso)),
        aso_prior_pa: pa_sel.chosen.expected,
        aso_prior_native: pa_sel.native.expected,
        pa_cvar: pa_sel.chosen.cvar,
        ab_max_penalty: ab_c.observed_max_penalty().expect("AlignedBound's penalty"),
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

/// Directory where `rqp figures` and the bench harnesses persist results.
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
