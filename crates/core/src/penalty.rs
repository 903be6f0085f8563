//! Penalty-aware single-plan selection (the fourth strategy).
//!
//! SB/AB/PB buy robustness through *exploratory execution*: budgeted
//! probes at run time, with a worst-case MSO bound. The PARQO line of
//! work (arXiv 2406.01526, 2401.15210) takes the opposite point in the
//! design space — pick **one** plan offline by integrating a penalty
//! (sub-optimality) measure over a distribution of selectivity-estimate
//! errors, and run it with no in-flight adaptation. This module
//! implements that strategy over the existing surface / recost-matrix
//! machinery:
//!
//! * [`SelectivityPrior`] — a seeded, deterministic log-normal-style
//!   multiplicative error prior around the native estimate `qe`,
//!   discretized onto the ESS grid and renormalized with compensated
//!   (Neumaier) summation;
//! * [`PenaltyConfig`] — the risk objective: expected sub-optimality,
//!   or CVaR tail risk at a configurable `alpha`;
//! * [`select`] / [`select_on`] — evaluate every candidate POSP plan
//!   (plus the native choice) against the prior and pick the risk
//!   minimizer, reading the cost matrix or recosting. Per-plan risk is a
//!   pure function of the plan, so every thread count and both cost
//!   sources are bit-identical;
//! * [`select_ctx_faulted`] — the same selection under injected oracle
//!   faults: transients are absorbed by retries (bit-identical
//!   selection), persistent faults surface as a typed
//!   [`RqpError::Fault`].
//!
//! Because the candidate set always contains the native plan, the
//! chosen plan's expected sub-optimality under the prior is ≤ the
//! native plan's *by construction* — the guarantee the fig14 bench
//! gate and the differential suite pin.
//!
//! Every path scores candidates with one kernel, `risk`, over a row of
//! costs by flat grid index: a matrix row read in place, or one scratch
//! row recosted at the prior's support. Its ordering contract:
//!
//! * the expected penalty is the Neumaier sum of `w·p` in grid order;
//! * CVaR consumes cells in ascending `(!p.to_bits(), pos)`, `pos` being
//!   the cell's rank in grid order. For non-negative, non-NaN penalties
//!   that is descending penalty with ties in grid order — the order of
//!   the comparator sort it replaced — and unique, so sorting only the
//!   prefix the tail needs (select a block, sort it, grow) runs the same
//!   float operations on the same values in the same order;
//! * a NaN or negative penalty panics.

use crate::cached::EvalContext;
use crate::faulty::FaultStats;
use crate::native::NativeChoice;
use crate::strategy::CostSource;
use rqp_common::{chunk_bounds, Cost, GridIdx, MultiGrid, Result, RqpError};
use rqp_ess::SurfaceAccess;
use rqp_faults::{FaultPlan, FaultSite, RetryPolicy};
use rqp_optimizer::{Optimizer, PlanId, PlanNode};

/// Shape of the selectivity-error prior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriorConfig {
    /// Seed for the deterministic per-cell jitter (SplitMix64).
    pub seed: u64,
    /// Width of the multiplicative error kernel, in log₁₀ decades —
    /// `sigma = 1.0` means "one order of magnitude" errors are typical,
    /// matching the 30–100× misestimates the paper measures.
    pub sigma: f64,
    /// Relative amplitude of the seeded per-cell jitter in `[0, 1)`;
    /// `0.1` makes the seed observable in goldens without drowning the
    /// kernel.
    pub jitter: f64,
}

impl Default for PriorConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            sigma: 1.0,
            jitter: 0.1,
        }
    }
}

/// A discretized probability distribution over ESS grid locations:
/// "where might the true `qa` be, given the optimizer estimated `qe`?"
#[derive(Debug, Clone)]
pub struct SelectivityPrior {
    config: PriorConfig,
    center: Vec<f64>,
    /// Cell weights indexed by flat grid index; non-negative, and
    /// renormalized so the compensated sum is 1 within 1 ulp.
    weights: Vec<f64>,
}

/// SplitMix64 finalizer — the workspace-standard seeded generator.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` from the top 53 bits of a hash.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Compensated (Neumaier) accumulator: the error term tracks what plain
/// summation drops, so the total is within ~1 ulp of the exact sum for
/// same-sign inputs.
#[derive(Default)]
struct Neumaier {
    sum: f64,
    comp: f64,
}

impl Neumaier {
    fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.comp += (self.sum - t) + x;
        } else {
            self.comp += (x - t) + self.sum;
        }
        self.sum = t;
    }

    fn total(&self) -> f64 {
        self.sum + self.comp
    }
}

/// Compensated (Neumaier) summation of `xs` in order.
pub fn neumaier_sum(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut acc = Neumaier::default();
    xs.into_iter().for_each(|x| acc.add(x));
    acc.total()
}

impl SelectivityPrior {
    /// Builds the log-normal-style prior: for each grid cell the kernel
    /// is `∏_j exp(−½·((log₁₀ s_j − log₁₀ c_j)/σ)²)`, multiplied by a
    /// seeded per-cell jitter factor, then renormalized. Deterministic:
    /// the same `(grid, center, config)` always produces bit-identical
    /// weights.
    pub fn lognormal(grid: &MultiGrid, center: &[f64], config: PriorConfig) -> Result<Self> {
        if center.len() != grid.ndims() {
            return Err(RqpError::Config(format!(
                "prior center has {} dims, grid has {}",
                center.len(),
                grid.ndims()
            )));
        }
        if config.sigma <= 0.0 || !config.sigma.is_finite() {
            return Err(RqpError::Config(format!(
                "prior sigma must be positive and finite, got {}",
                config.sigma
            )));
        }
        if !(0.0..1.0).contains(&config.jitter) {
            return Err(RqpError::Config(format!(
                "prior jitter must be in [0, 1), got {}",
                config.jitter
            )));
        }
        let log_center: Vec<f64> = center
            .iter()
            .map(|c| c.max(f64::MIN_POSITIVE).log10())
            .collect();
        let mut weights = Vec::with_capacity(grid.len());
        for idx in grid.iter() {
            let mut w = 1.0f64;
            for (j, lc) in log_center.iter().enumerate() {
                let z = (grid.sel_at(idx, j).log10() - lc) / config.sigma;
                w *= (-0.5 * z * z).exp();
            }
            let u = unit(splitmix64(
                config.seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ));
            w *= 1.0 + config.jitter * (2.0 * u - 1.0);
            weights.push(w);
        }
        let mut prior = Self {
            config,
            center: center.to_vec(),
            weights,
        };
        prior.normalize()?;
        Ok(prior)
    }

    /// A degenerate point-mass prior: all probability at grid location
    /// `qa` (zero width, zero jitter).
    pub fn delta(grid: &MultiGrid, qa: GridIdx) -> Self {
        let mut weights = vec![0.0; grid.len()];
        weights[qa] = 1.0;
        Self {
            config: PriorConfig {
                seed: 0,
                sigma: 0.0,
                jitter: 0.0,
            },
            center: grid.sels(qa),
            weights,
        }
    }

    /// Renormalizes the weights so the compensated sum is 1 within
    /// 1 ulp: divide by the compensated total, then fold the residual
    /// into the heaviest cell (repeating if a rounding step reopens the
    /// gap).
    fn normalize(&mut self) -> Result<()> {
        let total = neumaier_sum(self.weights.iter().copied());
        if total <= 0.0 || !total.is_finite() {
            return Err(RqpError::Config(format!(
                "prior has non-positive total mass {total}"
            )));
        }
        for w in &mut self.weights {
            *w /= total;
        }
        let heaviest = self
            .weights
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite weights"))
            .map(|(i, _)| i)
            .expect("non-empty grid");
        for _ in 0..4 {
            let sum = neumaier_sum(self.weights.iter().copied());
            let residual = 1.0 - sum;
            if residual == 0.0 {
                break;
            }
            self.weights[heaviest] += residual;
        }
        Ok(())
    }

    /// The prior's configuration.
    pub fn config(&self) -> PriorConfig {
        self.config
    }

    /// The center (the native estimate `qe`) this prior was built
    /// around, one selectivity per error-prone predicate.
    pub fn center(&self) -> &[f64] {
        &self.center
    }

    /// Weight of grid cell `idx`.
    pub fn weight(&self, idx: GridIdx) -> f64 {
        self.weights[idx]
    }

    /// All cell weights, indexed by flat grid index.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Compensated total mass (1 within 1 ulp after construction).
    pub fn total(&self) -> f64 {
        neumaier_sum(self.weights.iter().copied())
    }

    /// FNV-1a hash over the prior's configuration and weight bit
    /// patterns — the identity that persists into compiled artifacts so
    /// a served selection can prove which prior produced it.
    pub fn hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: [u8; 8]| {
            for b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
        };
        eat(self.config.seed.to_le_bytes());
        eat(self.config.sigma.to_bits().to_le_bytes());
        eat(self.config.jitter.to_bits().to_le_bytes());
        for c in &self.center {
            eat(c.to_bits().to_le_bytes());
        }
        for w in &self.weights {
            eat(w.to_bits().to_le_bytes());
        }
        h
    }
}

/// Which risk functional the selection minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Expected sub-optimality under the prior. Because the native plan
    /// is always a candidate, the winner's expected penalty is ≤ the
    /// native plan's by construction.
    Expected,
    /// Conditional value-at-risk: the mean sub-optimality of the worst
    /// `(1 − alpha)` tail of the prior.
    Cvar,
}

/// Risk-objective configuration for a selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PenaltyConfig {
    /// CVaR tail level in `[0, 1]`: `alpha = 0` is the full expectation,
    /// `alpha = 1` the worst case over the prior's support.
    pub alpha: f64,
    /// The functional the winner minimizes (both are always reported).
    pub objective: Objective,
}

impl Default for PenaltyConfig {
    fn default() -> Self {
        Self {
            alpha: 0.9,
            objective: Objective::Expected,
        }
    }
}

/// Risk of one candidate plan under the prior.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRisk {
    /// Pool id, when the candidate is interned in the surface's pool
    /// (the native plan may not be).
    pub plan_id: Option<PlanId>,
    /// Structural fingerprint — the pool-order-independent identity.
    pub fingerprint: u64,
    /// Expected sub-optimality `E[Cost(p, q)/Cost(opt, q)]` under the
    /// prior (compensated sum in grid order).
    pub expected: f64,
    /// CVaR of the sub-optimality at the configured `alpha`.
    pub cvar: f64,
}

impl PlanRisk {
    /// The value the selection minimizes under `objective`.
    pub fn objective_value(&self, objective: Objective) -> f64 {
        match objective {
            Objective::Expected => self.expected,
            Objective::Cvar => self.cvar,
        }
    }
}

/// The outcome of a penalty-aware selection.
#[derive(Debug, Clone)]
pub struct PenaltySelection {
    /// The risk minimizer.
    pub chosen: PlanRisk,
    /// An owned copy of the winning plan.
    pub chosen_plan: PlanNode,
    /// The native plan's risk (the baseline the guarantee compares to).
    pub native: PlanRisk,
    /// Every candidate's risk, pool-id order with the native candidate
    /// appended when it is not interned in the pool.
    pub risks: Vec<PlanRisk>,
    /// Identity of the prior the selection integrated over.
    pub prior_hash: u64,
    /// The CVaR tail level the risks were computed at.
    pub alpha: f64,
    /// The functional the winner minimized.
    pub objective: Objective,
}

impl PenaltySelection {
    /// The guarantee the differential suite pins: with the native plan
    /// in the candidate set, the chosen plan's expected penalty cannot
    /// exceed the native plan's.
    pub fn expected_improvement(&self) -> f64 {
        self.native.expected - self.chosen.expected
    }
}

/// The candidate plans with their pool ids (`None`: not interned).
type Candidates = Vec<(Option<PlanId>, PlanNode)>;

/// The prior's support: `(flat index, weight, optimal cost)` of every
/// cell with non-zero mass, in grid order, gathered once per selection.
type Support = Vec<(GridIdx, f64, Cost)>;

/// Keys the CVaR walk sorts at first; each further block doubles.
const FIRST_BLOCK: usize = 512;

/// The risk kernel: the expected penalty and the CVaR at `alpha` of the
/// candidate that costs `row[qa]` at flat index `qa`, over `support`.
/// `keys` is scratch, reused across candidates.
fn risk(
    row: &[Cost],
    support: &[(GridIdx, f64, Cost)],
    alpha: f64,
    keys: &mut Vec<(u64, usize)>,
) -> (f64, f64) {
    keys.clear();
    let mut expected = Neumaier::default();
    for (pos, &(qa, w, opt)) in support.iter().enumerate() {
        let p = row[qa] / opt;
        // Bit order is float order only for non-negative, non-NaN values.
        assert!(
            p.to_bits() <= f64::INFINITY.to_bits(),
            "penalty {p} is negative or NaN"
        );
        expected.add(w * p);
        keys.push((!p.to_bits(), pos));
    }
    (expected.total(), cvar(keys, support, alpha))
}

/// CVaR at `alpha`: the mean penalty over the worst `(1 − alpha)` of
/// prior mass, consuming cells in ascending key order — descending
/// penalty, ties in grid order (see the module doc). Only the prefix the
/// tail needs is ordered: each block of the smallest unconsumed keys is
/// selected, then sorted. When the whole tail fits inside the first cell
/// — in particular for a point-mass prior — the result is exactly that
/// cell's penalty.
fn cvar(keys: &mut [(u64, usize)], support: &[(GridIdx, f64, Cost)], alpha: f64) -> f64 {
    let penalty = |k: &(u64, usize)| f64::from_bits(!k.0);
    let tail = (1.0 - alpha).clamp(0.0, 1.0);
    if tail == 0.0 {
        return keys.iter().min().map_or(1.0, penalty);
    }
    let mut remaining = tail;
    let mut acc = Neumaier::default();
    let mut first = true;
    let (mut done, mut block) = (0, FIRST_BLOCK);
    while done < keys.len() {
        let rest = &mut keys[done..];
        let m = block.min(rest.len());
        if m < rest.len() {
            rest.select_nth_unstable(m);
        }
        rest[..m].sort_unstable();
        for k in &rest[..m] {
            let (w, p) = (support[k.1].1, penalty(k));
            let take = w.min(remaining);
            if first && take == remaining {
                // The entire tail lies inside this one cell: CVaR is its
                // penalty, exactly (no divide round-trip).
                return p;
            }
            first = false;
            acc.add(take * p);
            remaining -= take;
            if remaining <= 0.0 {
                return acc.total() / tail;
            }
        }
        (done, block) = (done + m, 2 * block);
    }
    acc.total() / tail
}

/// The candidate set — every pool plan in id order, plus the native plan
/// (id `None`) when it is not interned in the pool — the index of the
/// native candidate within it, and the prior's support.
fn candidates(
    source: CostSource<'_>,
    native: NativeChoice,
    prior: &SelectivityPrior,
    cfg: &PenaltyConfig,
) -> Result<(Candidates, usize, Support)> {
    let surface = source.surface();
    validate(prior, surface.grid(), cfg)?;
    let mut cands: Candidates = (0..surface.pool_len())
        .map(|pid| (Some(pid), surface.plan_clone(pid)))
        .collect();
    let native_idx = native.plan_id.unwrap_or(cands.len());
    if native.plan_id.is_none() {
        cands.push((None, native.plan));
    }
    let support = (prior.weights().iter().enumerate())
        .filter(|(_, &w)| w != 0.0)
        .map(|(qa, &w)| (qa, w, surface.opt_cost(qa)))
        .collect();
    Ok((cands, native_idx, support))
}

/// Every candidate's risk, in order: a pool candidate over a matrix reads
/// its row in place, any other is recosted into one scratch row at the
/// support's cells. `gate` runs before each candidate and may abort.
fn risks(
    source: CostSource<'_>,
    support: &[(GridIdx, f64, Cost)],
    alpha: f64,
    cands: &[(Option<PlanId>, PlanNode)],
    mut gate: impl FnMut(Option<PlanId>) -> Result<()>,
) -> Result<Vec<PlanRisk>> {
    let (opt, grid) = (source.opt(), source.surface().grid());
    let mut keys = Vec::with_capacity(support.len());
    let mut scratch = Vec::new();
    (cands.iter())
        .map(|(pid, plan)| {
            gate(*pid)?;
            let row = match (source, *pid) {
                (CostSource::Matrix(ctx), Some(pid)) => ctx.matrix().row(pid),
                _ => {
                    scratch.resize(grid.len(), 0.0);
                    for &(qa, ..) in support {
                        scratch[qa] = opt.cost_plan(plan, &opt.sels_at(&grid.sels(qa)));
                    }
                    &scratch[..]
                }
            };
            let (expected, cvar) = risk(row, support, alpha, &mut keys);
            Ok(PlanRisk {
                plan_id: *pid,
                fingerprint: plan.fingerprint(),
                expected,
                cvar,
            })
        })
        .collect()
}

/// Picks the winner: minimal objective value, ties broken by smaller
/// fingerprint (pool-order independent, so dense and lazy surfaces
/// agree).
fn pick(risks: &[PlanRisk], objective: Objective) -> usize {
    let mut best = 0usize;
    for (i, r) in risks.iter().enumerate().skip(1) {
        let (bv, rv) = (
            risks[best].objective_value(objective),
            r.objective_value(objective),
        );
        if rv < bv || (rv == bv && r.fingerprint < risks[best].fingerprint) {
            best = i;
        }
    }
    best
}

fn assemble(
    mut cands: Candidates,
    native_idx: usize,
    risks: Vec<PlanRisk>,
    prior: &SelectivityPrior,
    cfg: &PenaltyConfig,
) -> PenaltySelection {
    let winner = pick(&risks, cfg.objective);
    PenaltySelection {
        chosen: risks[winner].clone(),
        chosen_plan: cands.swap_remove(winner).1,
        native: risks[native_idx].clone(),
        risks,
        prior_hash: prior.hash(),
        alpha: cfg.alpha,
        objective: cfg.objective,
    }
}

fn validate(prior: &SelectivityPrior, grid: &MultiGrid, cfg: &PenaltyConfig) -> Result<()> {
    if !(0.0..=1.0).contains(&cfg.alpha) {
        return Err(RqpError::Config(format!(
            "CVaR alpha must be in [0, 1], got {}",
            cfg.alpha
        )));
    }
    if prior.weights().len() != grid.len() {
        return Err(RqpError::Config(format!(
            "prior has {} cells, grid has {}",
            prior.weights().len(),
            grid.len()
        )));
    }
    Ok(())
}

/// Penalty-aware selection over any [`SurfaceAccess`] (dense or lazy),
/// recosting candidates directly through the optimizer. Bit-identical
/// to the matrix-backed [`select`] because matrix cells are computed by
/// the same `cost_plan` calls.
pub fn select_on(
    surface: &dyn SurfaceAccess,
    opt: &Optimizer<'_>,
    prior: &SelectivityPrior,
    cfg: &PenaltyConfig,
) -> Result<PenaltySelection> {
    let native = NativeChoice::compute(surface, opt);
    selection(CostSource::Recost(surface, opt), native, prior, cfg, 1)
}

/// Matrix-backed penalty-aware selection: pool candidates read their
/// recosts straight out of the [`EvalContext`] matrix; only a
/// non-interned native plan recosts directly (the same arithmetic).
/// Bit-equal at any number of `threads`.
pub fn select(
    ctx: &EvalContext<'_>,
    prior: &SelectivityPrior,
    cfg: &PenaltyConfig,
    threads: usize,
) -> Result<PenaltySelection> {
    let native = NativeChoice::compute(ctx.surface(), ctx.opt());
    selection(CostSource::Matrix(ctx), native, prior, cfg, threads)
}

/// The selection [`select`], [`select_on`] and the strategy table run,
/// given the native choice. Candidates are partitioned across `threads`
/// scoped workers with [`chunk_bounds`] (none are spawned at one
/// thread), each with its own scratch; per-candidate risks are pure, so
/// the selection is bit-equal at any thread count.
pub(crate) fn selection(
    source: CostSource<'_>,
    native: NativeChoice,
    prior: &SelectivityPrior,
    cfg: &PenaltyConfig,
    threads: usize,
) -> Result<PenaltySelection> {
    let (cands, native_idx, support) = candidates(source, native, prior, cfg)?;
    let chunk_risks =
        |(lo, hi): (usize, usize)| risks(source, &support, cfg.alpha, &cands[lo..hi], |_| Ok(()));
    let bounds = chunk_bounds(cands.len(), threads);
    let risks = if bounds.len() <= 1 {
        chunk_risks((0, cands.len()))?
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (bounds.iter())
                .map(|&b| s.spawn(move || chunk_risks(b)))
                .collect();
            (handles.into_iter())
                .map(|h| h.join().expect("risk worker panicked"))
                .collect::<Result<Vec<_>>>()
        })?
        .concat()
    };
    Ok(assemble(cands, native_idx, risks, prior, cfg))
}

/// [`select`] under injected oracle faults: each candidate's risk
/// integration is one fallible oracle call at
/// [`FaultSite::OracleFull`], retried under `retry`. Absorbed
/// transients recompute the identical pure risk, so the selection is
/// bit-identical to the un-faulted path; a fault persisting through
/// every attempt yields a typed [`RqpError::Fault`]. Returns the
/// selection plus the fault accounting.
pub fn select_ctx_faulted(
    ctx: &EvalContext<'_>,
    prior: &SelectivityPrior,
    cfg: &PenaltyConfig,
    plan: &FaultPlan,
    retry: &RetryPolicy,
) -> Result<(PenaltySelection, FaultStats)> {
    let source = CostSource::Matrix(ctx);
    let native = NativeChoice::compute(ctx.surface(), ctx.opt());
    let (cands, native_idx, support) = candidates(source, native, prior, cfg)?;
    let mut stats = FaultStats::default();
    let attempts = retry.max_attempts.max(1);
    let shot = |pid: Option<PlanId>| {
        for attempt in 0..attempts {
            if plan.shot(FaultSite::OracleFull).is_none() {
                return Ok(());
            }
            stats.faults_injected += 1;
            if attempt + 1 < attempts {
                stats.retries += 1;
                stats.backoff_total += retry.backoff(attempt);
                retry.pause(attempt);
            }
        }
        Err(RqpError::Fault(format!(
            "transient fault at {} persisted through {attempts} attempts \
             during risk evaluation of candidate {pid:?}",
            FaultSite::OracleFull.name(),
        )))
    };
    let risks = risks(source, &support, cfg.alpha, &cands, shot)?;
    Ok((assemble(cands, native_idx, risks, prior, cfg), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cached::EvalContext;
    use crate::test_fixtures::star2_surface;
    use proptest::prelude::*;

    /// The comparator-sort CVaR the prefix kernel replaced, verbatim: the
    /// oracle [`cvar`] must match bit for bit.
    fn cvar_reference(cells: &[(GridIdx, f64, f64)], alpha: f64) -> f64 {
        let mut sorted: Vec<&(GridIdx, f64, f64)> = cells.iter().collect();
        sorted.sort_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .expect("finite penalties")
                .then_with(|| a.0.cmp(&b.0))
        });
        let tail = (1.0 - alpha).clamp(0.0, 1.0);
        if tail == 0.0 {
            return sorted.first().map(|c| c.2).unwrap_or(1.0);
        }
        let mut remaining = tail;
        let mut acc = 0.0f64;
        let mut comp = 0.0f64;
        let mut first = true;
        for &&(_, w, p) in &sorted {
            let take = w.min(remaining);
            if first && take == remaining {
                // The entire tail lies inside this one cell: CVaR is its
                // penalty, exactly (no divide round-trip).
                return p;
            }
            first = false;
            let x = take * p;
            let t = acc + x;
            if acc.abs() >= x.abs() {
                comp += (acc - t) + x;
            } else {
                comp += (x - t) + acc;
            }
            acc = t;
            remaining -= take;
            if remaining <= 0.0 {
                break;
            }
        }
        (acc + comp) / tail
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The kernel returns the oracle's bits. Penalties are drawn from
        /// `levels` distinct values so ties are forced; weights include
        /// zeros (cells outside the support) and, on `dominant`, one cell
        /// carrying most of the mass.
        #[test]
        fn kernel_matches_comparator_sort_bit_for_bit(
            cells in proptest::collection::vec((0u32..1000, 0u32..4, 0u32..1000), 1..=5000),
            levels in 1u32..1000,
            dominant in 0usize..5000,
            heavy in any::<bool>(),
        ) {
            let n = cells.len();
            let mut row = Vec::with_capacity(n);
            let mut weights = Vec::with_capacity(n);
            for (i, &(level, zero, w)) in cells.iter().enumerate() {
                row.push(f64::from(level % levels) * 0.37 + 1.0);
                let w = if zero == 0 { 0.0 } else { f64::from(w) + 0.5 };
                weights.push(if heavy && i == dominant % n { 1e6 } else { w });
            }
            let total = neumaier_sum(weights.iter().copied());
            let support: Support = (weights.iter().enumerate())
                .filter(|(_, &w)| w != 0.0)
                .map(|(qa, &w)| (qa, w / total, 1.0))
                .collect();
            let cells: Vec<(GridIdx, f64, f64)> =
                support.iter().map(|&(qa, w, _)| (qa, w, row[qa])).collect();
            let mut keys = Vec::new();
            for alpha in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let (expected, cvar) = risk(&row, &support, alpha, &mut keys);
                let want = neumaier_sum(cells.iter().map(|&(_, w, p)| w * p));
                prop_assert_eq!(expected.to_bits(), want.to_bits(), "expected, alpha {}", alpha);
                let want = cvar_reference(&cells, alpha);
                prop_assert_eq!(cvar.to_bits(), want.to_bits(), "CVaR, alpha {}", alpha);
            }
        }
    }

    #[test]
    #[should_panic(expected = "negative or NaN")]
    fn nan_penalty_panics() {
        let support = vec![(0, 0.5, 1.0), (1, 0.5, 1.0)];
        risk(&[1.0, f64::NAN], &support, 0.9, &mut Vec::new());
    }

    fn prior_for(fx: &crate::test_fixtures::Fixture) -> SelectivityPrior {
        let choice = crate::native::NativeChoice::compute(&fx.surface, &fx.opt);
        SelectivityPrior::lognormal(fx.surface.grid(), &choice.qe_sels, PriorConfig::default())
            .unwrap()
    }

    #[test]
    fn prior_normalizes_within_one_ulp() {
        let fx = star2_surface(10);
        let prior = prior_for(&fx);
        assert!(
            (prior.total() - 1.0).abs() <= f64::EPSILON,
            "{}",
            prior.total()
        );
        assert!(prior.weights().iter().all(|&w| w >= 0.0 && w.is_finite()));
    }

    #[test]
    fn prior_is_seed_deterministic() {
        let fx = star2_surface(9);
        let a = prior_for(&fx);
        let b = prior_for(&fx);
        assert_eq!(a.hash(), b.hash());
        let other = SelectivityPrior::lognormal(
            fx.surface.grid(),
            a.center(),
            PriorConfig {
                seed: 7,
                ..PriorConfig::default()
            },
        )
        .unwrap();
        assert_ne!(a.hash(), other.hash(), "different seed, different prior");
    }

    #[test]
    fn chosen_expected_never_exceeds_native() {
        let fx = star2_surface(10);
        let ctx = EvalContext::new(&fx.surface, &fx.opt);
        let prior = prior_for(&fx);
        let sel = select(&ctx, &prior, &PenaltyConfig::default(), 1).unwrap();
        assert!(
            sel.chosen.expected <= sel.native.expected,
            "chosen {} vs native {}",
            sel.chosen.expected,
            sel.native.expected
        );
        assert!(sel.expected_improvement() >= 0.0);
    }

    #[test]
    fn delta_prior_selects_optimal_plan_at_qa() {
        let fx = star2_surface(10);
        let ctx = EvalContext::new(&fx.surface, &fx.opt);
        let qa = fx.surface.grid().flat(&[7, 2]);
        let prior = SelectivityPrior::delta(fx.surface.grid(), qa);
        let sel = select(&ctx, &prior, &PenaltyConfig::default(), 1).unwrap();
        assert_eq!(sel.chosen.expected.to_bits(), 1.0f64.to_bits());
        assert_eq!(sel.chosen.cvar.to_bits(), sel.chosen.expected.to_bits());
    }

    #[test]
    fn parallel_selection_bit_equal() {
        let fx = star2_surface(10);
        let ctx = EvalContext::new(&fx.surface, &fx.opt);
        let prior = prior_for(&fx);
        let cfg = PenaltyConfig::default();
        let seq = select(&ctx, &prior, &cfg, 1).unwrap();
        for threads in [1usize, 2, 3, 7] {
            let par = select(&ctx, &prior, &cfg, threads).unwrap();
            assert_eq!(par.chosen.fingerprint, seq.chosen.fingerprint);
            assert_eq!(par.chosen.expected.to_bits(), seq.chosen.expected.to_bits());
            assert_eq!(par.chosen.cvar.to_bits(), seq.chosen.cvar.to_bits());
            assert_eq!(par.risks.len(), seq.risks.len());
            for (a, b) in par.risks.iter().zip(&seq.risks) {
                assert_eq!(a.expected.to_bits(), b.expected.to_bits());
                assert_eq!(a.cvar.to_bits(), b.cvar.to_bits());
            }
        }
    }

    #[test]
    fn direct_path_bit_equal_to_matrix_path() {
        let fx = star2_surface(9);
        let ctx = EvalContext::new(&fx.surface, &fx.opt);
        let prior = prior_for(&fx);
        let cfg = PenaltyConfig::default();
        let direct = select_on(&fx.surface, &fx.opt, &prior, &cfg).unwrap();
        let cached = select(&ctx, &prior, &cfg, 1).unwrap();
        assert_eq!(direct.chosen.fingerprint, cached.chosen.fingerprint);
        assert_eq!(
            direct.chosen.expected.to_bits(),
            cached.chosen.expected.to_bits()
        );
        assert_eq!(direct.chosen.cvar.to_bits(), cached.chosen.cvar.to_bits());
    }

    #[test]
    fn cvar_is_monotone_in_alpha_and_bounded_by_extremes() {
        let fx = star2_surface(10);
        let ctx = EvalContext::new(&fx.surface, &fx.opt);
        let prior = prior_for(&fx);
        let mut last = f64::NEG_INFINITY;
        for &alpha in &[0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let cfg = PenaltyConfig {
                alpha,
                objective: Objective::Expected,
            };
            let sel = select(&ctx, &prior, &cfg, 1).unwrap();
            let native_cvar = sel.native.cvar;
            assert!(
                native_cvar >= last - 1e-9 * last.abs().max(1.0),
                "CVaR not monotone: alpha {alpha}: {native_cvar} < {last}"
            );
            last = native_cvar;
        }
    }

    #[test]
    fn faulted_selection_absorbs_transients_bit_identically() {
        let fx = star2_surface(9);
        let ctx = EvalContext::new(&fx.surface, &fx.opt);
        let prior = prior_for(&fx);
        let cfg = PenaltyConfig::default();
        let clean = select(&ctx, &prior, &cfg, 1).unwrap();
        let plan = FaultPlan::new(42).with_site(FaultSite::OracleFull, 0.3);
        let (faulted, stats) =
            select_ctx_faulted(&ctx, &prior, &cfg, &plan, &RetryPolicy::no_sleep(6)).unwrap();
        assert!(stats.faults_injected > 0, "rate 0.3 must fire");
        assert_eq!(faulted.chosen.fingerprint, clean.chosen.fingerprint);
        assert_eq!(
            faulted.chosen.expected.to_bits(),
            clean.chosen.expected.to_bits()
        );
        assert_eq!(faulted.chosen.cvar.to_bits(), clean.chosen.cvar.to_bits());
    }

    #[test]
    fn persistent_faults_yield_typed_error() {
        let fx = star2_surface(8);
        let ctx = EvalContext::new(&fx.surface, &fx.opt);
        let prior = prior_for(&fx);
        let plan = FaultPlan::new(5).with_site(FaultSite::OracleFull, 1.0);
        let err = select_ctx_faulted(
            &ctx,
            &prior,
            &PenaltyConfig::default(),
            &plan,
            &RetryPolicy::no_sleep(4),
        )
        .unwrap_err();
        assert!(matches!(err, RqpError::Fault(_)), "got {err:?}");
    }
}
