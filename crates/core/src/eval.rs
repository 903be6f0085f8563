//! Empirical evaluation over the ESS (§6.2.3–6.2.5).
//!
//! The paper evaluates MSOe "by explicitly and exhaustively considering
//! each and every location in the ESS to be `qa`" and taking the maximum
//! (and, for ASO, the mean) of the resulting sub-optimalities. This module
//! provides that harness — one sweep for every [`crate::Strategy`] —
//! plus the sub-optimality histogram of Fig. 12.

use crate::cached::{CachedOracle, SpillMemo};
use crate::oracle::CostOracle;
use crate::strategy::{Compiled, CostSource};
use rqp_common::{chunk_bounds, GridIdx, Result};
use rqp_ess::SurfaceAccess;
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

/// Exhaustive MSOe/ASO evaluation of a compiled strategy over `threads`
/// workers, bit-equal at any thread count. The oracle follows the cost
/// source: a [`CachedOracle`] (one [`SpillMemo`] per worker) over a
/// [`CostSource::Matrix`], a [`CostOracle`] over a [`CostSource::Recost`],
/// with the same bits. Side results (AlignedBound's maximum part penalty,
/// PenaltyAware's selection) are read off `compiled` after.
pub fn evaluate_strategy(compiled: &Compiled<'_>, threads: usize) -> Result<SubOptStats> {
    let surface = compiled.source().surface();
    evaluate_parallel(surface, threads, || {
        let mut memo = SpillMemo::new();
        move |qa| {
            let report = match compiled.source() {
                CostSource::Matrix(ctx) => {
                    compiled.run(&mut CachedOracle::at_grid(ctx, qa, &mut memo))
                }
                CostSource::Recost(_, opt) => {
                    compiled.run(&mut CostOracle::at_grid(opt, surface.grid(), qa))
                }
            }?;
            Ok(report.sub_optimality(surface.opt_cost(qa)))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::star2_surface;
    use crate::{EvalContext, Params, Strategy};

    #[test]
    fn stats_aggregation() {
        let s = SubOptStats::from_subopts(vec![1.0, 3.0, 2.0, 8.0]);
        assert_eq!(s.mso, 8.0);
        assert_eq!(s.worst_qa, 3);
        assert!((s.aso - 3.5).abs() < 1e-12);
        let hist = s.histogram(5.0);
        assert_eq!(hist.len(), 2);
        assert!((hist[0].1 - 75.0).abs() < 1e-12);
        assert!((hist[1].1 - 25.0).abs() < 1e-12);
        assert_eq!(s.percentile(100.0), 8.0);
        assert_eq!(s.percentile(50.0), 2.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(75.0), 3.0);
    }

    fn assert_bit_equal(label: &str, a: &SubOptStats, b: &SubOptStats) {
        assert_eq!(a.subopts.len(), b.subopts.len(), "{label}: length");
        for (qa, (x, y)) in a.subopts.iter().zip(&b.subopts).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: qa {qa}: {x} vs {y}");
        }
        assert_eq!(a.mso.to_bits(), b.mso.to_bits(), "{label}: mso");
        assert_eq!(a.worst_qa, b.worst_qa, "{label}: worst_qa");
    }

    /// Compiles `s` over `source` and sweeps it at `threads`.
    fn sweep<'a>(
        s: Strategy,
        source: CostSource<'a>,
        threads: usize,
    ) -> (SubOptStats, Compiled<'a>) {
        let compiled = s.compile(source, &Params::default()).unwrap();
        (evaluate_strategy(&compiled, threads).unwrap(), compiled)
    }

    #[test]
    fn matrix_backed_sweeps_bit_equal_to_recosting() {
        let fx = star2_surface(10);
        let ctx = EvalContext::new(&fx.surface, &fx.opt);
        for s in Strategy::ALL {
            let (cached, c) = sweep(s, CostSource::Matrix(&ctx), 1);
            let (direct, d) = sweep(s, CostSource::Recost(&fx.surface, &fx.opt), 1);
            assert_bit_equal(s.name(), &direct, &cached);
            let penalty = |c: &Compiled<'_>| c.observed_max_penalty().map(f64::to_bits);
            assert_eq!(penalty(&c), penalty(&d), "{}: penalty", s.name());
        }
    }

    #[test]
    fn parallel_evaluators_bit_equal_to_sequential() {
        let fx = star2_surface(10);
        let ctx = EvalContext::new(&fx.surface, &fx.opt);
        for s in Strategy::ALL {
            let (seq, seq_c) = sweep(s, CostSource::Matrix(&ctx), 1);
            for threads in [1usize, 2, 3, 7] {
                let (par, par_c) = sweep(s, CostSource::Matrix(&ctx), threads);
                assert_bit_equal(&format!("{} x{threads}", s.name()), &seq, &par);
                assert_eq!(
                    seq_c.observed_max_penalty().map(f64::to_bits),
                    par_c.observed_max_penalty().map(f64::to_bits),
                    "{} penalty x{threads}",
                    s.name()
                );
            }
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
        let (seq, c) = sweep(Strategy::PenaltyAware, CostSource::Matrix(&ctx), 1);
        let direct = CostSource::Recost(&fx.surface, &fx.opt);
        let (direct_stats, d) = sweep(Strategy::PenaltyAware, direct, 1);
        assert_bit_equal("penalty direct", &seq, &direct_stats);
        let (sel, sel_direct) = (
            c.penalty_selection().unwrap(),
            d.penalty_selection().unwrap(),
        );
        assert_eq!(sel.chosen.fingerprint, sel_direct.chosen.fingerprint);
        assert_eq!(
            sel.chosen.expected.to_bits(),
            sel_direct.chosen.expected.to_bits()
        );
        for threads in [2usize, 3, 7] {
            let (par, _) = sweep(Strategy::PenaltyAware, CostSource::Matrix(&ctx), threads);
            assert_bit_equal(&format!("penalty x{threads}"), &seq, &par);
        }
        // the ≤-native guarantee, in its prior-weighted form
        assert!(sel.chosen.expected <= sel.native.expected);
    }

    #[test]
    fn spillbound_beats_planbouquet_on_fixture() {
        let fx = star2_surface(10);
        let direct = CostSource::Recost(&fx.surface, &fx.opt);
        let (sb, _) = sweep(Strategy::SpillBound, direct, 1);
        let (pb, _) = sweep(Strategy::PlanBouquet, direct, 1);
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
        let direct = CostSource::Recost(&fx.surface, &fx.opt);
        let (ab, c) = sweep(Strategy::AlignedBound, direct, 1);
        assert!(ab.mso <= crate::spillbound_guarantee(2) * (1.0 + 1e-6));
        assert!(c.observed_max_penalty().unwrap() >= 1.0);
    }

    #[test]
    fn native_mso_dwarfs_robust_algorithms() {
        let fx = star2_surface(10);
        let direct = CostSource::Recost(&fx.surface, &fx.opt);
        let (native, _) = sweep(Strategy::Native, direct, 1);
        let (sb, _) = sweep(Strategy::SpillBound, direct, 1);
        assert!(
            native.mso > sb.mso,
            "native MSO {} should exceed SB MSOe {}",
            native.mso,
            sb.mso
        );
    }
}
