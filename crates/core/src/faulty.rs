//! Fault-injecting oracle wrapper with a retry layer.
//!
//! [`FaultyOracle`] sits between a discovery algorithm and any inner
//! [`ExecutionOracle`], consulting a shared [`FaultPlan`] before every
//! budgeted execution. A scheduled fault aborts the *attempt* — the
//! inner oracle is never called for it — and the retry layer re-issues
//! the identical call under a capped-exponential-backoff
//! [`RetryPolicy`], bounded by a per-request fault budget. Because
//! retries repeat the same call until a non-faulted attempt goes
//! through, the inner oracle observes exactly the fault-free call
//! sequence: the discovery report (and hence the MSO accounting) is
//! bit-identical to an un-faulted run whenever every fault is absorbed
//! by a retry. The cost wasted on aborted attempts is tracked
//! separately in [`FaultStats`] — operational overhead, not
//! sub-optimality.
//!
//! When the plan also carries a perturbation bound δ > 0, every call's
//! completion decision wobbles by a deterministic plan-keyed factor
//! `ε ∈ [1/(1+δ), 1+δ]` — the same §7 bounded-cost-error regime as
//! [`NoisyCostOracle`](crate::NoisyCostOracle), under which the
//! guarantees hold inflated by `(1+δ)²`.

use crate::oracle::{ExecutionOracle, FullOutcome, SpillOutcome};
use rqp_common::{Cost, Result, RqpError};
use rqp_faults::{FaultPlan, FaultSite, RetryPolicy};
use rqp_obs::{TraceEvent, Tracer};
use rqp_optimizer::{PlanId, PlanNode};
use std::time::Duration;

/// Operational counters for one `FaultyOracle` lifetime (one request).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct FaultStats {
    /// Attempts aborted by an injected fault.
    pub faults_injected: u64,
    /// Retries issued after injected faults.
    pub retries: u64,
    /// Budget burnt by aborted attempts (kept out of the discovery
    /// report's `total_cost`: wasted work is overhead, not
    /// sub-optimality).
    pub wasted_cost: Cost,
    /// Total scheduled backoff (slept only when the policy sleeps).
    pub backoff_total: Duration,
}

/// An [`ExecutionOracle`] decorator injecting transient faults and
/// retrying them.
pub struct FaultyOracle<'p, O> {
    inner: O,
    plan: &'p FaultPlan,
    retry: RetryPolicy,
    fault_budget: u64,
    stats: FaultStats,
    tracer: Tracer,
}

impl<'p, O: ExecutionOracle> FaultyOracle<'p, O> {
    /// Wraps `inner` under `plan` with a 6-attempt no-sleep retry policy
    /// (simulated probes have no wall-clock to wait out) and an
    /// unbounded fault budget.
    pub fn new(inner: O, plan: &'p FaultPlan) -> Self {
        Self {
            inner,
            plan,
            retry: RetryPolicy::no_sleep(6),
            fault_budget: u64::MAX,
            stats: FaultStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Replaces the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attach a structured tracer: injected faults and retries emit
    /// `fault_injected`/`fault_retried` events.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Caps the total injected faults absorbed across this oracle's
    /// lifetime (the per-request fault budget); the cap being exceeded
    /// fails the request even if retries remain.
    pub fn with_fault_budget(mut self, budget: u64) -> Self {
        self.fault_budget = budget;
        self
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Unwraps the inner oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }

    /// Runs `call` under the retry layer: each attempt first consults
    /// the fault plan; a scheduled fault burns a deterministic fraction
    /// of `budget` and is retried with backoff until the policy or the
    /// fault budget is exhausted.
    fn with_retries<T>(
        &mut self,
        site: FaultSite,
        budget: Cost,
        mut call: impl FnMut(&mut O) -> T,
    ) -> Result<T> {
        let attempts = self.retry.max_attempts.max(1);
        for attempt in 0..attempts {
            match self.plan.shot(site) {
                None => return Ok(call(&mut self.inner)),
                Some(shot) => {
                    self.stats.faults_injected += 1;
                    self.tracer.emit(|| TraceEvent::FaultInjected {
                        site: site.name(),
                        seq: shot.seq,
                    });
                    if budget.is_finite() {
                        self.stats.wasted_cost += budget * shot.frac;
                    }
                    if self.stats.faults_injected > self.fault_budget {
                        return Err(RqpError::Fault(format!(
                            "per-request fault budget ({}) exhausted at {}",
                            self.fault_budget,
                            site.name()
                        )));
                    }
                    if attempt + 1 < attempts {
                        self.stats.retries += 1;
                        self.tracer.emit(|| TraceEvent::FaultRetried {
                            site: site.name(),
                            attempt,
                        });
                        self.stats.backoff_total += self.retry.backoff(attempt);
                        self.retry.pause(attempt);
                    }
                }
            }
        }
        Err(RqpError::Fault(format!(
            "transient fault at {} persisted through {attempts} attempts",
            site.name()
        )))
    }
}

impl<O: ExecutionOracle> ExecutionOracle for FaultyOracle<'_, O> {
    // The infallible legacy entry points delegate untouched — injection
    // lives on the `try_*` path the discovery algorithms use.
    fn spill_execute(&mut self, plan: &PlanNode, dim: usize, budget: Cost) -> SpillOutcome {
        self.inner.spill_execute(plan, dim, budget)
    }

    fn full_execute(&mut self, plan: &PlanNode, budget: Cost) -> FullOutcome {
        self.inner.full_execute(plan, budget)
    }

    fn spill_execute_id(
        &mut self,
        pid: Option<PlanId>,
        plan: &PlanNode,
        dim: usize,
        budget: Cost,
    ) -> SpillOutcome {
        self.inner.spill_execute_id(pid, plan, dim, budget)
    }

    fn full_execute_id(
        &mut self,
        pid: Option<PlanId>,
        plan: &PlanNode,
        budget: Cost,
    ) -> FullOutcome {
        self.inner.full_execute_id(pid, plan, budget)
    }

    fn try_spill_execute_id(
        &mut self,
        pid: Option<PlanId>,
        plan: &PlanNode,
        dim: usize,
        budget: Cost,
    ) -> Result<SpillOutcome> {
        let eps = self.plan.perturb_eps(plan.fingerprint() ^ dim as u64);
        self.with_retries(FaultSite::OracleSpill, budget, |inner| {
            match inner.spill_execute_id(pid, plan, dim, budget / eps) {
                SpillOutcome::Completed { sel, spent } => SpillOutcome::Completed {
                    sel,
                    spent: spent * eps,
                },
                SpillOutcome::TimedOut { lower_bound, spent } => SpillOutcome::TimedOut {
                    lower_bound,
                    spent: (spent * eps).min(budget),
                },
            }
        })
    }

    fn try_full_execute_id(
        &mut self,
        pid: Option<PlanId>,
        plan: &PlanNode,
        budget: Cost,
    ) -> Result<FullOutcome> {
        let eps = self.plan.perturb_eps(plan.fingerprint());
        self.with_retries(FaultSite::OracleFull, budget, |inner| {
            match inner.full_execute_id(pid, plan, budget / eps) {
                FullOutcome::Completed { spent } => FullOutcome::Completed { spent: spent * eps },
                FullOutcome::TimedOut { spent } => FullOutcome::TimedOut {
                    spent: (spent * eps).min(budget),
                },
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::CostOracle;
    use crate::spillbound::SpillBound;
    use crate::test_fixtures::star2_surface;

    #[test]
    fn absorbed_faults_leave_the_report_bit_identical() {
        let fx = star2_surface(10);
        let qa = fx.surface.grid().flat(&[6, 4]);
        let sels = fx.surface.grid().sels(qa);
        let sb = SpillBound::new(&fx.surface, &fx.opt, 2.0);

        let mut plain = CostOracle::new(&fx.opt, fx.surface.grid(), &sels);
        let baseline = sb.run(&mut plain).unwrap();

        let plan = FaultPlan::new(42)
            .with_site(FaultSite::OracleSpill, 0.2)
            .with_site(FaultSite::OracleFull, 0.2);
        let inner = CostOracle::new(&fx.opt, fx.surface.grid(), &sels);
        let mut faulty = FaultyOracle::new(inner, &plan);
        let report = sb.run(&mut faulty).unwrap();

        assert_eq!(report.total_cost, baseline.total_cost);
        assert_eq!(report.executions(), baseline.executions());
        let stats = faulty.stats().clone();
        assert!(stats.faults_injected > 0, "rate 0.2 must fire");
        assert_eq!(stats.retries, stats.faults_injected);
        assert!(stats.wasted_cost > 0.0);
    }

    #[test]
    fn stats_are_deterministic_given_seed() {
        let fx = star2_surface(10);
        let qa = fx.surface.grid().flat(&[3, 7]);
        let sels = fx.surface.grid().sels(qa);
        let run = |seed: u64| {
            let plan = FaultPlan::new(seed).with_site(FaultSite::OracleSpill, 0.3);
            let inner = CostOracle::new(&fx.opt, fx.surface.grid(), &sels);
            let mut oracle = FaultyOracle::new(inner, &plan);
            let sb = SpillBound::new(&fx.surface, &fx.opt, 2.0);
            let report = sb.run(&mut oracle).unwrap();
            (report.total_cost, oracle.stats().clone())
        };
        assert_eq!(run(7), run(7), "same seed, same trace");
    }

    #[test]
    fn persistent_faults_error_instead_of_hanging() {
        let fx = star2_surface(8);
        let qa = fx.surface.grid().flat(&[4, 4]);
        let sels = fx.surface.grid().sels(qa);
        let plan = FaultPlan::new(5)
            .with_site(FaultSite::OracleSpill, 1.0)
            .with_site(FaultSite::OracleFull, 1.0);
        let inner = CostOracle::new(&fx.opt, fx.surface.grid(), &sels);
        let mut oracle = FaultyOracle::new(inner, &plan);
        let sb = SpillBound::new(&fx.surface, &fx.opt, 2.0);
        let err = sb.run(&mut oracle).unwrap_err();
        assert!(matches!(err, RqpError::Fault(_)), "got {err:?}");
        assert_eq!(err.kind(), "execution_fault");
    }

    #[test]
    fn fault_budget_caps_absorbed_faults() {
        let fx = star2_surface(8);
        let qa = fx.surface.grid().flat(&[5, 5]);
        let sels = fx.surface.grid().sels(qa);
        let plan = FaultPlan::new(13).with_site(FaultSite::OracleSpill, 0.5);
        let inner = CostOracle::new(&fx.opt, fx.surface.grid(), &sels);
        let mut oracle = FaultyOracle::new(inner, &plan).with_fault_budget(1);
        let sb = SpillBound::new(&fx.surface, &fx.opt, 2.0);
        let err = sb.run(&mut oracle).unwrap_err();
        assert!(matches!(err, RqpError::Fault(_)));
        assert!(err.to_string().contains("fault budget"));
    }

    #[test]
    fn perturbation_matches_noisy_oracle_regime() {
        // δ > 0 wobbles completion decisions but SB must stay within the
        // (1+δ)²-inflated guarantee at every grid point (no aborts:
        // rate 0 so only perturbation is active).
        let fx = star2_surface(10);
        let delta = 0.3;
        let inflated = crate::spillbound_guarantee(2) * (1.0 + delta) * (1.0 + delta);
        let plan = FaultPlan::new(21).with_perturb(delta);
        let sb = SpillBound::new(&fx.surface, &fx.opt, 2.0);
        for qa in fx.surface.grid().iter() {
            let sels = fx.surface.grid().sels(qa);
            let inner = CostOracle::new(&fx.opt, fx.surface.grid(), &sels);
            let mut oracle = FaultyOracle::new(inner, &plan);
            let report = sb.run(&mut oracle).unwrap();
            let sub = report.sub_optimality(fx.surface.opt_cost(qa));
            assert!(
                sub <= inflated * (1.0 + 1e-6),
                "qa {:?}: {sub} > {inflated}",
                fx.surface.grid().coords(qa)
            );
        }
    }
}
