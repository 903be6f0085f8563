//! Empirical evaluation over the ESS (§6.2.3–6.2.5).
//!
//! The paper evaluates MSOe "by explicitly and exhaustively considering
//! each and every location in the ESS to be `qa`" and taking the maximum
//! (and, for ASO, the mean) of the resulting sub-optimalities. This module
//! provides that harness plus the sub-optimality histogram of Fig. 12.

use crate::alignedbound::AlignedBound;
use crate::cached::{CachedOracle, EvalContext, SpillMemo};
use crate::oracle::CostOracle;
use crate::penalty::{self, PenaltyConfig, PenaltySelection, SelectivityPrior};
use crate::planbouquet::PlanBouquet;
use crate::spillbound::SpillBound;
use rqp_common::{chunk_bounds, GridIdx, Result};
use rqp_ess::{EssSurface, SurfaceAccess};
use rqp_optimizer::Optimizer;
use serde::{Deserialize, Serialize};

/// Aggregate sub-optimality statistics over an exhaustive ESS sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubOptStats {
    /// Maximum sub-optimality (MSOe, Eq. 4).
    pub mso: f64,
    /// Average sub-optimality (ASO, Eq. 8, uniform prior over `qa`).
    pub aso: f64,
    /// The worst-case location.
    pub worst_qa: GridIdx,
    /// Per-location sub-optimalities, indexed by flat grid index.
    pub subopts: Vec<f64>,
}

impl SubOptStats {
    /// Folds per-location sub-optimalities into the aggregate.
    pub fn from_subopts(subopts: Vec<f64>) -> Self {
        assert!(!subopts.is_empty());
        let (mut mso, mut worst) = (0.0f64, 0usize);
        let mut sum = 0.0;
        for (i, &s) in subopts.iter().enumerate() {
            sum += s;
            if s > mso {
                mso = s;
                worst = i;
            }
        }
        Self {
            mso,
            aso: sum / subopts.len() as f64,
            worst_qa: worst,
            subopts,
        }
    }

    /// Histogram of sub-optimalities with the given bucket `width`
    /// (Fig. 12 uses 5): returns `(bucket upper bound, percentage)` rows.
    pub fn histogram(&self, width: f64) -> Vec<(f64, f64)> {
        assert!(width > 0.0);
        let max = self.mso;
        let nbuckets = (max / width).ceil().max(1.0) as usize;
        let mut counts = vec![0usize; nbuckets];
        for &s in &self.subopts {
            let b = ((s / width) as usize).min(nbuckets - 1);
            counts[b] += 1;
        }
        let n = self.subopts.len() as f64;
        counts
            .iter()
            .enumerate()
            .map(|(b, &c)| ((b as f64 + 1.0) * width, 100.0 * c as f64 / n))
            .collect()
    }

    /// Percentage of locations with sub-optimality at most `cap`.
    pub fn percent_within(&self, cap: f64) -> f64 {
        let n = self.subopts.iter().filter(|&&s| s <= cap).count();
        100.0 * n as f64 / self.subopts.len() as f64
    }

    /// The `p`-th percentile of the sub-optimality distribution
    /// (`p ∈ [0, 100]`, nearest-rank definition). `percentile(100.0)` is
    /// the MSO; median and tail percentiles characterize how concentrated
    /// the robustness is (the Fig. 12 story in one number).
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile in [0, 100]");
        let mut sorted = self.subopts.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN sub-optimality"));
        let n = sorted.len();
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        sorted[rank - 1]
    }
}

/// Sweeps every grid location as `qa`, mapping it through `subopt_of`.
///
/// Accepts any [`SurfaceAccess`]; note that an exhaustive sweep over a
/// [`rqp_ess::LazySurface`] materializes the whole grid (the denominator
/// needs `opt_cost(qa)` everywhere), which is exactly what the
/// dense-vs-lazy differential tests rely on.
pub fn evaluate<F>(surface: &dyn SurfaceAccess, mut subopt_of: F) -> Result<SubOptStats>
where
    F: FnMut(GridIdx) -> Result<f64>,
{
    let mut subopts = Vec::with_capacity(surface.grid().len());
    for qa in surface.grid().iter() {
        subopts.push(subopt_of(qa)?);
    }
    Ok(SubOptStats::from_subopts(subopts))
}

/// Parallel exhaustive sweep: partitions the grid across `threads`
/// scoped worker threads with [`chunk_bounds`], each running its own
/// evaluation closure built by `make`.
///
/// Per-location sub-optimalities are pure functions of the location, so
/// the concatenated chunk results are **bit-equal** to the sequential
/// [`evaluate`] regardless of thread count (asserted by tests and the
/// workspace property suite). Errors are reported from the lowest grid
/// index that failed, matching sequential behavior.
pub fn evaluate_parallel<G, F>(
    surface: &dyn SurfaceAccess,
    threads: usize,
    make: G,
) -> Result<SubOptStats>
where
    G: Fn() -> F + Sync,
    F: FnMut(GridIdx) -> Result<f64>,
{
    let bounds = chunk_bounds(surface.grid().len(), threads);
    if bounds.len() <= 1 {
        return evaluate(surface, make());
    }
    let chunks = std::thread::scope(|s| {
        let make = &make;
        let handles: Vec<_> = bounds
            .iter()
            .map(|&(lo, hi)| {
                s.spawn(move || -> Result<Vec<f64>> {
                    let mut subopt_of = make();
                    (lo..hi).map(&mut subopt_of).collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("evaluation worker panicked"))
            .collect::<Vec<_>>()
    });
    let mut subopts = Vec::with_capacity(surface.grid().len());
    for chunk in chunks {
        subopts.extend(chunk?);
    }
    Ok(SubOptStats::from_subopts(subopts))
}

/// Exhaustive MSOe/ASO evaluation of SpillBound.
pub fn evaluate_spillbound(
    surface: &dyn SurfaceAccess,
    opt: &Optimizer<'_>,
    ratio: f64,
) -> Result<SubOptStats> {
    let sb = SpillBound::new(surface, opt, ratio);
    evaluate(surface, |qa| {
        let mut oracle = CostOracle::at_grid(opt, surface.grid(), qa);
        let report = sb.run(&mut oracle)?;
        Ok(report.sub_optimality(surface.opt_cost(qa)))
    })
}

/// Exhaustive SpillBound evaluation through the shared cost matrix
/// (bit-equal to [`evaluate_spillbound`], asserted by tests).
pub fn evaluate_spillbound_ctx(ctx: &EvalContext<'_>, ratio: f64) -> Result<SubOptStats> {
    evaluate_spillbound_parallel(ctx, ratio, 1)
}

/// Parallel [`evaluate_spillbound_ctx`]: the workers share one compiled
/// SpillBound, whose selections do not depend on `qa`, and each owns a
/// spill memo, so per-location results stay bit-equal.
pub fn evaluate_spillbound_parallel(
    ctx: &EvalContext<'_>,
    ratio: f64,
    threads: usize,
) -> Result<SubOptStats> {
    let sb = &SpillBound::new(ctx.surface(), ctx.opt(), ratio);
    evaluate_parallel(ctx.surface(), threads, || {
        let mut memo = SpillMemo::new();
        move |qa| {
            let mut oracle = CachedOracle::at_grid(ctx, qa, &mut memo);
            let report = sb.run(&mut oracle)?;
            Ok(report.sub_optimality(ctx.surface().opt_cost(qa)))
        }
    })
}

/// Exhaustive MSOe/ASO evaluation of AlignedBound. Also returns the
/// maximum part penalty observed (Table 4).
pub fn evaluate_alignedbound(
    surface: &dyn SurfaceAccess,
    opt: &Optimizer<'_>,
    ratio: f64,
) -> Result<(SubOptStats, f64)> {
    let ab = AlignedBound::new(surface, opt, ratio);
    let stats = evaluate(surface, |qa| {
        let mut oracle = CostOracle::at_grid(opt, surface.grid(), qa);
        let report = ab.run(&mut oracle)?;
        Ok(report.sub_optimality(surface.opt_cost(qa)))
    })?;
    Ok((stats, ab.observed_max_penalty()))
}

/// Exhaustive AlignedBound evaluation through the shared cost matrix
/// (bit-equal to [`evaluate_alignedbound`], asserted by tests).
pub fn evaluate_alignedbound_ctx(ctx: &EvalContext<'_>, ratio: f64) -> Result<(SubOptStats, f64)> {
    evaluate_alignedbound_parallel(ctx, ratio, 1)
}

/// Parallel [`evaluate_alignedbound_ctx`]. The workers share one compiled
/// AlignedBound; its observed maximum penalty is the maximum over all
/// runs, whichever thread made them, which is the sequential sweep's.
pub fn evaluate_alignedbound_parallel(
    ctx: &EvalContext<'_>,
    ratio: f64,
    threads: usize,
) -> Result<(SubOptStats, f64)> {
    let ab = &AlignedBound::new(ctx.surface(), ctx.opt(), ratio);
    let stats = evaluate_parallel(ctx.surface(), threads, || {
        let mut memo = SpillMemo::new();
        move |qa| {
            let mut oracle = CachedOracle::at_grid(ctx, qa, &mut memo);
            let report = ab.run(&mut oracle)?;
            Ok(report.sub_optimality(ctx.surface().opt_cost(qa)))
        }
    })?;
    Ok((stats, ab.observed_max_penalty()))
}

/// Exhaustive MSOe/ASO evaluation of PlanBouquet, by running the full
/// discovery sequence through the cost oracle at every location.
pub fn evaluate_planbouquet(
    surface: &dyn SurfaceAccess,
    opt: &Optimizer<'_>,
    ratio: f64,
    lambda: f64,
) -> Result<SubOptStats> {
    let pb = PlanBouquet::new(surface, opt, ratio, lambda);
    evaluate(surface, |qa| {
        let mut oracle = CostOracle::at_grid(opt, surface.grid(), qa);
        let report = pb.run(&mut oracle)?;
        Ok(report.sub_optimality(surface.opt_cost(qa)))
    })
}

/// Exhaustive PlanBouquet evaluation via a precomputed plan-cost matrix.
///
/// Semantically identical to [`evaluate_planbouquet`] (asserted by test)
/// but `O(|POSP|·|grid|)` recosting instead of re-walking plan trees
/// inside every discovery run — the bouquet executes the same plan list
/// at every location, so the cost matrix is shared. Builds a throwaway
/// [`EvalContext`]; callers that also evaluate SB/AB/native should build
/// the context once and use [`evaluate_planbouquet_ctx`].
pub fn evaluate_planbouquet_fast(
    surface: &EssSurface,
    opt: &Optimizer<'_>,
    ratio: f64,
    lambda: f64,
) -> Result<SubOptStats> {
    let ctx = EvalContext::new(surface, opt);
    evaluate_planbouquet_ctx(&ctx, ratio, lambda)
}

/// PlanBouquet's discovery sequence replayed at `qa` as plain budget
/// arithmetic over the cost matrix: charge the budget for every plan
/// that times out, the true cost for the first that completes.
fn bouquet_subopt(
    ctx: &EvalContext<'_>,
    pb: &PlanBouquet<'_>,
    lambda: f64,
    qa: GridIdx,
) -> Result<f64> {
    let mut total = 0.0;
    for i in 0..pb.contours().len() {
        let budget = (1.0 + lambda) * pb.contours().cost(i);
        for &pid in pb.contour_plans(i) {
            let c = ctx.matrix().cost(pid, qa);
            if rqp_common::cost_le(c, budget) {
                total += c;
                return Ok(total / ctx.surface().opt_cost(qa));
            }
            total += budget;
        }
    }
    Err(rqp_common::RqpError::Discovery(
        "bouquet fast path exhausted contours".into(),
    ))
}

/// Exhaustive PlanBouquet evaluation through a shared [`EvalContext`].
pub fn evaluate_planbouquet_ctx(
    ctx: &EvalContext<'_>,
    ratio: f64,
    lambda: f64,
) -> Result<SubOptStats> {
    let pb = PlanBouquet::from_ctx(ctx, ratio, lambda);
    evaluate(ctx.surface(), |qa| bouquet_subopt(ctx, &pb, lambda, qa))
}

/// Parallel [`evaluate_planbouquet_ctx`]: the compiled bouquet is
/// immutable during replay, so one instance is shared by all workers.
pub fn evaluate_planbouquet_parallel(
    ctx: &EvalContext<'_>,
    ratio: f64,
    lambda: f64,
    threads: usize,
) -> Result<SubOptStats> {
    let pb = PlanBouquet::from_ctx(ctx, ratio, lambda);
    let pb = &pb;
    evaluate_parallel(ctx.surface(), threads, move || {
        move |qa| bouquet_subopt(ctx, pb, lambda, qa)
    })
}

/// Exhaustive sub-optimality evaluation of the native optimizer with its
/// fixed statistics-derived estimate.
pub fn evaluate_native(surface: &EssSurface, opt: &Optimizer<'_>) -> Result<SubOptStats> {
    let choice = crate::native::NativeChoice::compute(surface, opt);
    evaluate(surface, |qa| Ok(choice.sub_optimality(surface, opt, qa)))
}

/// Exhaustive native-optimizer evaluation through a shared
/// [`EvalContext`]: when the native plan is in the POSP pool its matrix
/// row already holds every recost; otherwise costs are computed directly
/// (same arithmetic either way).
pub fn evaluate_native_ctx(ctx: &EvalContext<'_>) -> Result<SubOptStats> {
    let choice = crate::native::NativeChoice::compute(ctx.surface(), ctx.opt());
    match ctx.surface().pool().find(&choice.plan) {
        Some(pid) => evaluate(ctx.surface(), |qa| {
            Ok(ctx.matrix().cost(pid, qa) / ctx.surface().opt_cost(qa))
        }),
        None => evaluate(ctx.surface(), |qa| {
            Ok(choice.sub_optimality(ctx.surface(), ctx.opt(), qa))
        }),
    }
}

/// Exhaustive sub-optimality sweep of `selection`'s chosen plan: like
/// the native evaluator, a single fixed plan is charged its full recost
/// at every location.
fn penalty_subopt_sweep(
    ctx: &EvalContext<'_>,
    selection: &PenaltySelection,
    threads: usize,
) -> Result<SubOptStats> {
    match selection.chosen.plan_id {
        Some(pid) => evaluate_parallel(ctx.surface(), threads, || {
            move |qa| Ok(ctx.matrix().cost(pid, qa) / ctx.surface().opt_cost(qa))
        }),
        None => {
            let plan = &selection.chosen_plan;
            evaluate_parallel(ctx.surface(), threads, move || {
                move |qa| {
                    let sels = ctx.opt().sels_at(&ctx.grid().sels(qa));
                    Ok(ctx.opt().cost_plan(plan, &sels) / ctx.surface().opt_cost(qa))
                }
            })
        }
    }
}

/// Exhaustive MSOe/ASO evaluation of the penalty-aware strategy: select
/// the risk-minimizing plan under `prior`, then sweep its
/// sub-optimality over the grid. Returns the stats and the selection
/// (whose `chosen.expected` is the prior-weighted ASO).
pub fn evaluate_penaltyaware_ctx(
    ctx: &EvalContext<'_>,
    prior: &SelectivityPrior,
    cfg: &PenaltyConfig,
) -> Result<(SubOptStats, PenaltySelection)> {
    let selection = penalty::select_ctx(ctx, prior, cfg)?;
    let stats = penalty_subopt_sweep(ctx, &selection, 1)?;
    Ok((stats, selection))
}

/// Parallel [`evaluate_penaltyaware_ctx`]: both the per-candidate risk
/// integration and the chosen plan's sub-optimality sweep fan out over
/// `threads` workers, bit-equal to the sequential path.
pub fn evaluate_penaltyaware_parallel(
    ctx: &EvalContext<'_>,
    prior: &SelectivityPrior,
    cfg: &PenaltyConfig,
    threads: usize,
) -> Result<(SubOptStats, PenaltySelection)> {
    let selection = penalty::select_parallel(ctx, prior, cfg, threads)?;
    let stats = penalty_subopt_sweep(ctx, &selection, threads)?;
    Ok((stats, selection))
}

/// [`evaluate_penaltyaware_ctx`] without a prebuilt context: selection
/// and sweep recost directly through the optimizer (bit-equal to the
/// matrix-backed path, asserted by tests).
pub fn evaluate_penaltyaware(
    surface: &EssSurface,
    opt: &Optimizer<'_>,
    prior: &SelectivityPrior,
    cfg: &PenaltyConfig,
) -> Result<(SubOptStats, PenaltySelection)> {
    let selection = penalty::select_on(surface, opt, prior, cfg)?;
    let plan = &selection.chosen_plan;
    let stats = evaluate(surface, |qa| {
        let sels = opt.sels_at(&surface.grid().sels(qa));
        Ok(opt.cost_plan(plan, &sels) / surface.opt_cost(qa))
    })?;
    Ok((stats, selection))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::star2_surface;

    #[test]
    fn stats_aggregation() {
        let s = SubOptStats::from_subopts(vec![1.0, 3.0, 2.0, 8.0]);
        assert_eq!(s.mso, 8.0);
        assert_eq!(s.worst_qa, 3);
        assert!((s.aso - 3.5).abs() < 1e-12);
        assert!((s.percent_within(3.0) - 75.0).abs() < 1e-12);
        let hist = s.histogram(5.0);
        assert_eq!(hist.len(), 2);
        assert!((hist[0].1 - 75.0).abs() < 1e-12);
        assert!((hist[1].1 - 25.0).abs() < 1e-12);
        assert_eq!(s.percentile(100.0), 8.0);
        assert_eq!(s.percentile(50.0), 2.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(75.0), 3.0);
    }

    #[test]
    fn planbouquet_fast_path_matches_oracle_path() {
        let fx = star2_surface(10);
        let slow = evaluate_planbouquet(&fx.surface, &fx.opt, 2.0, 0.2).unwrap();
        let fast = evaluate_planbouquet_fast(&fx.surface, &fx.opt, 2.0, 0.2).unwrap();
        assert_eq!(slow.subopts.len(), fast.subopts.len());
        for (qa, (a, b)) in slow.subopts.iter().zip(&fast.subopts).enumerate() {
            assert!(
                (a - b).abs() <= 1e-9 * a.max(1.0),
                "qa {qa}: oracle {a} vs fast {b}"
            );
        }
    }

    fn assert_bit_equal(label: &str, a: &SubOptStats, b: &SubOptStats) {
        assert_eq!(a.subopts.len(), b.subopts.len(), "{label}: length");
        for (qa, (x, y)) in a.subopts.iter().zip(&b.subopts).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: qa {qa}: {x} vs {y}");
        }
        assert_eq!(a.mso.to_bits(), b.mso.to_bits(), "{label}: mso");
        assert_eq!(a.worst_qa, b.worst_qa, "{label}: worst_qa");
    }

    #[test]
    fn cached_evaluators_bit_equal_to_oracle_path() {
        let fx = star2_surface(10);
        let ctx = EvalContext::new(&fx.surface, &fx.opt);

        let sb = evaluate_spillbound(&fx.surface, &fx.opt, 2.0).unwrap();
        let sb_ctx = evaluate_spillbound_ctx(&ctx, 2.0).unwrap();
        assert_bit_equal("spillbound", &sb, &sb_ctx);

        let (ab, ab_pen) = evaluate_alignedbound(&fx.surface, &fx.opt, 2.0).unwrap();
        let (ab_ctx, ab_ctx_pen) = evaluate_alignedbound_ctx(&ctx, 2.0).unwrap();
        assert_bit_equal("alignedbound", &ab, &ab_ctx);
        assert_eq!(ab_pen.to_bits(), ab_ctx_pen.to_bits(), "penalty");

        let native = evaluate_native(&fx.surface, &fx.opt).unwrap();
        let native_ctx = evaluate_native_ctx(&ctx).unwrap();
        assert_bit_equal("native", &native, &native_ctx);
    }

    #[test]
    fn parallel_evaluators_bit_equal_to_sequential() {
        let fx = star2_surface(10);
        let ctx = EvalContext::new(&fx.surface, &fx.opt);
        let sb_seq = evaluate_spillbound_ctx(&ctx, 2.0).unwrap();
        let (ab_seq, ab_seq_pen) = evaluate_alignedbound_ctx(&ctx, 2.0).unwrap();
        let pb_seq = evaluate_planbouquet_ctx(&ctx, 2.0, 0.2).unwrap();
        for threads in [1usize, 2, 3, 7] {
            let sb = evaluate_spillbound_parallel(&ctx, 2.0, threads).unwrap();
            assert_bit_equal(&format!("SB x{threads}"), &sb_seq, &sb);
            let (ab, ab_pen) = evaluate_alignedbound_parallel(&ctx, 2.0, threads).unwrap();
            assert_bit_equal(&format!("AB x{threads}"), &ab_seq, &ab);
            assert_eq!(
                ab_seq_pen.to_bits(),
                ab_pen.to_bits(),
                "AB penalty x{threads}"
            );
            let pb = evaluate_planbouquet_parallel(&ctx, 2.0, 0.2, threads).unwrap();
            assert_bit_equal(&format!("PB x{threads}"), &pb_seq, &pb);
        }
    }

    #[test]
    fn generic_evaluate_parallel_matches_sequential() {
        let fx = star2_surface(8);
        let subopt = |qa: GridIdx| Ok((qa as f64).sin().abs() + 1.0);
        let seq = evaluate(&fx.surface, subopt).unwrap();
        for threads in [2usize, 5, 64] {
            let par = evaluate_parallel(&fx.surface, threads, || subopt).unwrap();
            assert_bit_equal(&format!("generic x{threads}"), &seq, &par);
        }
    }

    #[test]
    fn penaltyaware_paths_bit_equal_and_beat_native_expectation() {
        let fx = star2_surface(10);
        let ctx = EvalContext::new(&fx.surface, &fx.opt);
        let choice = crate::native::NativeChoice::compute(&fx.surface, &fx.opt);
        let prior = SelectivityPrior::lognormal(
            fx.surface.grid(),
            &choice.qe_sels,
            crate::penalty::PriorConfig::default(),
        )
        .unwrap();
        let cfg = PenaltyConfig::default();
        let (seq, sel_seq) = evaluate_penaltyaware_ctx(&ctx, &prior, &cfg).unwrap();
        let (direct, sel_direct) =
            evaluate_penaltyaware(&fx.surface, &fx.opt, &prior, &cfg).unwrap();
        assert_bit_equal("penalty direct", &seq, &direct);
        assert_eq!(sel_seq.chosen.fingerprint, sel_direct.chosen.fingerprint);
        for threads in [2usize, 3, 7] {
            let (par, sel_par) =
                evaluate_penaltyaware_parallel(&ctx, &prior, &cfg, threads).unwrap();
            assert_bit_equal(&format!("penalty x{threads}"), &seq, &par);
            assert_eq!(
                sel_seq.chosen.expected.to_bits(),
                sel_par.chosen.expected.to_bits()
            );
        }
        // the ≤-native guarantee, in its prior-weighted form
        assert!(sel_seq.chosen.expected <= sel_seq.native.expected);
    }

    #[test]
    fn spillbound_beats_planbouquet_on_fixture() {
        let fx = star2_surface(10);
        let sb = evaluate_spillbound(&fx.surface, &fx.opt, 2.0).unwrap();
        let pb = evaluate_planbouquet(&fx.surface, &fx.opt, 2.0, 0.2).unwrap();
        // The paper's headline empirical finding: SB's MSOe beats PB's for
        // every query studied (Fig. 10); this fixture should agree.
        assert!(
            sb.mso <= pb.mso * 1.05,
            "SB MSOe {} should not lose to PB MSOe {}",
            sb.mso,
            pb.mso
        );
        assert!(sb.mso >= 1.0 && pb.mso >= 1.0);
    }

    #[test]
    fn alignedbound_within_guarantees() {
        let fx = star2_surface(10);
        let (ab, max_penalty) = evaluate_alignedbound(&fx.surface, &fx.opt, 2.0).unwrap();
        assert!(ab.mso <= crate::spillbound_guarantee(2) * (1.0 + 1e-6));
        assert!(max_penalty >= 1.0);
    }

    #[test]
    fn native_mso_dwarfs_robust_algorithms() {
        let fx = star2_surface(10);
        let native = evaluate_native(&fx.surface, &fx.opt).unwrap();
        let sb = evaluate_spillbound(&fx.surface, &fx.opt, 2.0).unwrap();
        assert!(
            native.mso > sb.mso,
            "native MSO {} should exceed SB MSOe {}",
            native.mso,
            sb.mso
        );
    }
}
