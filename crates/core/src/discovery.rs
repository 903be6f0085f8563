//! Shared plumbing for the discovery algorithms.

use crate::oracle::{ExecutionOracle, FullOutcome, SpillOutcome};
use crate::report::{ExecMode, ExecutionRecord, Outcome, RunReport};
use rqp_common::{Cost, Result, RqpError};
use rqp_ess::alignment::PlanChoice;
use rqp_ess::{ContourSet, EssView, SurfaceAccess};
use rqp_obs::{TraceEvent, Tracer};
use rqp_optimizer::{Optimizer, PlanId};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Entries a [`ContourMemo`] keeps. The served suite settles at 150 to
/// 2 900 states per query; past the cap a value is still computed and
/// returned, only not kept, so a hostile request stream costs time and
/// never memory.
pub(crate) const MEMO_CAP: usize = 4096;

/// Memo key: (contour index, learnt-dimension pins).
type PinKey = (usize, Vec<Option<usize>>);

/// Counters of one compiled strategy's per-(contour, pins) memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that computed their value.
    pub misses: u64,
    /// Values resident, at most the cap.
    pub entries: usize,
}

/// The memo behind a compiled SpillBound or AlignedBound: what the
/// strategy does on contour `i` once `pins` are learnt. That is a function
/// of the key alone and never of the hidden `qa`, so every run of every
/// thread may share it. Look-ups take the read lock, values are computed
/// outside any lock and inserted under the write lock; a thread that loses
/// the race computed the identical value.
#[derive(Debug)]
pub(crate) struct ContourMemo<V> {
    map: RwLock<HashMap<PinKey, Arc<V>>>,
    cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V> ContourMemo<V> {
    const POISONED: &'static str = "a thread panicked holding the contour memo";

    pub(crate) fn with_cap(cap: usize) -> Self {
        Self {
            map: RwLock::new(HashMap::new()),
            cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    pub(crate) fn get_or_compute(
        &self,
        i: usize,
        pins: &[Option<usize>],
        compute: impl FnOnce() -> V,
    ) -> Arc<V> {
        let key: PinKey = (i, pins.to_vec());
        if let Some(v) = self.map.read().expect(Self::POISONED).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = Arc::new(compute());
        let mut map = self.map.write().expect(Self::POISONED);
        if map.len() < self.cap {
            map.insert(key, value.clone());
        }
        value
    }

    pub(crate) fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.read().expect(Self::POISONED).len(),
        }
    }

    /// Most bytes a full memo of contour decisions and the strategy's
    /// spill-dimension cache hold: per entry the key with its pins, the
    /// `Arc` and the table slot, and one execution of `exec_bytes` per
    /// dimension; per cache entry a slot of 32 bytes.
    pub(crate) fn bytes_bound(&self, shared: &Shared<'_>, exec_bytes: usize) -> usize {
        let d = shared.ndims();
        self.cap * (128 + d * (16 + exec_bytes)) + (shared.surface.pool_len() << d) * 32
    }
}

/// One spill-mode execution a contour decision names: the plan, the epp
/// it spills on and the budget. The fingerprint is taken here, once, for
/// every run that makes or skips the execution.
#[derive(Debug)]
pub(crate) struct SpillExec {
    pub dim: usize,
    pub plan: PlanChoice,
    pub fingerprint: u64,
    pub budget: Cost,
}

impl SpillExec {
    pub(crate) fn new(
        surface: &dyn SurfaceAccess,
        dim: usize,
        plan: PlanChoice,
        budget: Cost,
    ) -> Self {
        let fingerprint = match &plan {
            PlanChoice::Pool(pid) => surface.plan_clone(*pid).fingerprint(),
            PlanChoice::Custom(plan) => plan.fingerprint(),
        };
        Self {
            dim,
            plan,
            fingerprint,
            budget,
        }
    }
}

/// Emit the run-level finish event and flush file-backed sinks.
pub(crate) fn trace_run_finished(tracer: &Tracer, report: &RunReport) {
    tracer.emit(|| TraceEvent::RunFinished {
        total_cost: report.total_cost,
        executions: report.records.len(),
        completed: report.completed,
    });
    tracer.flush();
}

/// Emit the pair of events every run shares for the report's latest
/// execution: the execution itself plus the running budget account.
pub(crate) fn trace_execution(tracer: &Tracer, report: &RunReport) {
    let rec = report.records.last().expect("an execution to trace");
    tracer.emit(|| {
        let (mode, dim) = match rec.mode {
            ExecMode::Spill { dim } => ("spill", Some(dim)),
            ExecMode::Full => ("full", None),
        };
        let outcome = match rec.outcome {
            Outcome::Completed { .. } => "completed",
            Outcome::TimedOut { .. } => "timed_out",
        };
        TraceEvent::PlanExecuted {
            contour: rec.contour,
            plan_fingerprint: rec.plan_fingerprint,
            plan_id: rec.plan_id,
            mode,
            dim,
            budget: rec.budget,
            spent: rec.spent,
            outcome,
        }
    });
    tracer.emit(|| TraceEvent::BudgetCharged {
        contour: rec.contour,
        spent: rec.spent,
        total: report.total_cost,
    });
}

/// Immutable context shared by every discovery algorithm: the POSP
/// surface (dense or lazy, behind [`SurfaceAccess`]), the optimizer that
/// produced it, and the contour schedule.
#[derive(Debug)]
pub struct Shared<'a> {
    /// POSP surface over the ESS grid.
    pub surface: &'a dyn SurfaceAccess,
    /// The optimizer (selectivity injection + abstract-plan costing).
    pub opt: &'a Optimizer<'a>,
    /// Geometric contour schedule.
    pub contours: ContourSet,
    /// Structured trace destination (disabled by default).
    pub tracer: Tracer,
}

impl<'a> Shared<'a> {
    /// Builds the context with the given inter-contour cost ratio.
    pub fn new(surface: &'a dyn SurfaceAccess, opt: &'a Optimizer<'a>, ratio: f64) -> Self {
        let contours = ContourSet::build(surface, ratio);
        Self {
            surface,
            opt,
            contours,
            tracer: Tracer::disabled(),
        }
    }

    /// Emit the run-level start event.
    pub fn trace_run_started(&self, algo: &'static str) {
        let dims = self.ndims();
        let contours = self.contours.len();
        self.tracer.emit(|| TraceEvent::RunStarted {
            algo,
            dims,
            contours,
        });
    }

    /// ESS dimensionality.
    pub fn ndims(&self) -> usize {
        self.surface.grid().ndims()
    }

    /// The discovery loop of SpillBound and AlignedBound (Algorithms 1 and
    /// 2), which differ only in `decide`: the spill executions to make on
    /// contour `i` once `pins` are learnt. They are made in order, each
    /// within its budget. The first to complete pins its dimension, and
    /// the contour is decided again for the smaller epp set; if none
    /// completes, the true location lies beyond the contour (Lemma 4.3)
    /// and discovery moves on. With one epp left, the terminal phase
    /// finishes the query.
    pub fn run_spilling<V: AsRef<[SpillExec]>>(
        &self,
        algo: &'static str,
        oracle: &mut dyn ExecutionOracle,
        decide: impl Fn(usize, &[Option<usize>]) -> Arc<V>,
    ) -> Result<RunReport> {
        let d = self.ndims();
        let mut pins: Vec<Option<usize>> = vec![None; d];
        let mut report = RunReport {
            learnt: vec![None; d],
            ..RunReport::default()
        };
        self.trace_run_started(algo);
        let mut i = 0usize;
        let mut entered: Option<usize> = None;
        // Executions already made on the current contour: the same plan
        // spilling on the same dimension is provably the same timeout, so
        // it is neither re-run nor re-charged.
        let mut executed: HashSet<(u64, usize)> = HashSet::new();
        loop {
            if pins.iter().filter(|p| p.is_none()).count() <= 1 {
                self.run_terminal_phase(&pins, i, oracle, &mut report)?;
                break;
            }
            if i >= self.contours.len() {
                // Unreachable with an exact cost model (the last contour
                // always yields progress); under bounded cost-model error
                // the overflow phase finishes the query within the
                // inflated guarantee (§7).
                self.run_overflow_phase(&pins, oracle, &mut report)?;
                break;
            }
            let decision = decide(i, &pins);
            if entered != Some(i) {
                entered = Some(i);
                let budget = self.contours.cost(i);
                self.tracer
                    .emit(|| TraceEvent::ContourEntered { contour: i, budget });
            }
            let mut learnt = false;
            for exec in (*decision).as_ref() {
                let j = exec.dim;
                debug_assert!(pins[j].is_none(), "a decision spills on unlearnt epps");
                if !executed.insert((exec.fingerprint, j)) {
                    continue;
                }
                let pool_plan;
                let (plan, plan_id) = match &exec.plan {
                    PlanChoice::Pool(pid) => {
                        pool_plan = self.surface.plan_clone(*pid);
                        (&pool_plan, Some(*pid))
                    }
                    PlanChoice::Custom(plan) => (&**plan, None),
                };
                let (spent, outcome, sel) =
                    match oracle.try_spill_execute_id(plan_id, plan, j, exec.budget)? {
                        SpillOutcome::Completed { sel, spent } => {
                            (spent, Outcome::Completed { sel: Some(sel) }, Some(sel))
                        }
                        SpillOutcome::TimedOut { lower_bound, spent } => {
                            (spent, Outcome::TimedOut { lower_bound }, None)
                        }
                    };
                report.total_cost += spent;
                report.records.push(ExecutionRecord {
                    contour: i,
                    plan_fingerprint: exec.fingerprint,
                    plan_id,
                    mode: ExecMode::Spill { dim: j },
                    budget: exec.budget,
                    spent,
                    outcome,
                });
                trace_execution(&self.tracer, &report);
                if let Some(sel) = sel {
                    self.tracer
                        .emit(|| TraceEvent::SelectivityLearnt { dim: j, sel });
                    report.learnt[j] = Some(sel);
                    pins[j] = Some(self.surface.grid().dim(j).ceil_idx(sel));
                    learnt = true;
                    break;
                }
            }
            if !learnt {
                i += 1;
                executed.clear();
            }
        }
        trace_run_finished(&self.tracer, &report);
        Ok(report)
    }

    /// One regular execution of pool plan `pid` within `budget`: charged,
    /// recorded and traced. True if it completed, and the query with it.
    pub fn full_step(
        &self,
        oracle: &mut dyn ExecutionOracle,
        report: &mut RunReport,
        contour: usize,
        pid: PlanId,
        budget: Cost,
    ) -> Result<bool> {
        let plan = self.surface.plan_clone(pid);
        let (spent, outcome) = match oracle.try_full_execute_id(Some(pid), &plan, budget)? {
            FullOutcome::Completed { spent } => (spent, Outcome::Completed { sel: None }),
            FullOutcome::TimedOut { spent } => (spent, Outcome::TimedOut { lower_bound: 0.0 }),
        };
        report.total_cost += spent;
        report.records.push(ExecutionRecord {
            contour,
            plan_fingerprint: plan.fingerprint(),
            plan_id: Some(pid),
            mode: ExecMode::Full,
            budget,
            spent,
            outcome,
        });
        trace_execution(&self.tracer, report);
        report.completed = matches!(outcome, Outcome::Completed { .. });
        Ok(report.completed)
    }

    /// The terminal discovery phase: when at most one epp remains
    /// unlearnt, SpillBound and AlignedBound hand over to a plain
    /// PlanBouquet on the pinned (≤1-dimensional) view (§4.1) — plans run
    /// in regular mode, one per contour, budgets equal to contour costs.
    ///
    /// Appends executions to `report` and marks it completed.
    pub fn run_terminal_phase(
        &self,
        pins: &[Option<usize>],
        start_contour: usize,
        oracle: &mut dyn ExecutionOracle,
        report: &mut RunReport,
    ) -> Result<()> {
        let view = EssView::from_pins(pins.to_vec());
        debug_assert!(view.nfree() <= 1, "terminal phase needs ≤ 1 free dim");
        for i in start_contour..self.contours.len() {
            let budget = self.contours.cost(i);
            self.tracer
                .emit(|| TraceEvent::ContourEntered { contour: i, budget });
            for q in self.contours.locations(self.surface, &view, i) {
                if self.full_step(oracle, report, i, self.surface.plan_id(q), budget)? {
                    return Ok(());
                }
            }
        }
        // Overflow phase (§7 robustness): with a perfect cost model this is
        // unreachable — the last contour's budget covers the view terminus.
        // Under bounded cost-model error δ, real costs may exceed modeled
        // budgets by up to (1+δ); keep doubling the budget on the terminus
        // plan until it completes. The geometric sum keeps the extra spend
        // within the (1+δ)²-inflated guarantee the paper derives.
        self.run_overflow_phase(pins, oracle, report)
    }

    /// Executes the view-terminus location's optimal plan with budgets
    /// doubling beyond the last contour cost, until completion.
    pub fn run_overflow_phase(
        &self,
        pins: &[Option<usize>],
        oracle: &mut dyn ExecutionOracle,
        report: &mut RunReport,
    ) -> Result<()> {
        let view = EssView::from_pins(pins.to_vec());
        let terminus = view.terminus(self.surface.grid());
        let pid = self.surface.plan_id(terminus);
        let last = self.contours.len() - 1;
        let mut budget = self.contours.cost(last) * 2.0;
        // 64 doublings ≈ a 1.8e19× cost-model error: unambiguously a bug.
        for _ in 0..64 {
            if self.full_step(oracle, report, last, pid, budget)? {
                return Ok(());
            }
            budget *= 2.0;
        }
        Err(RqpError::Discovery(
            "overflow phase did not complete within 64 budget doublings; \
             the execution oracle is inconsistent with PCM"
                .into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::CostOracle;
    use crate::test_fixtures::star_surface;
    use crate::{AlignedBound, SpillBound};
    use std::sync::Barrier;

    /// Four threads, released together and a quarter of the grid apart,
    /// each sweep every location through `run`; report `qa` must equal
    /// `fresh[qa]`.
    fn sweep_shared(fresh: &[RunReport], run: &(dyn Fn(usize) -> RunReport + Sync)) {
        let n = fresh.len();
        let barrier = Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    for k in 0..n {
                        let qa = (k + t * n / 4) % n;
                        assert_eq!(run(qa), fresh[qa], "qa {qa}, thread {t}");
                    }
                });
            }
        });
    }

    /// A memo that may keep nothing, or one entry, must still hand every
    /// run the value a fresh instance computes: the cap bounds memory, not
    /// answers.
    #[test]
    fn a_capped_memo_changes_no_report() {
        let fx = star_surface(3, 5);
        let (surface, opt) = (&fx.surface, &fx.opt);
        let oracle = |qa| CostOracle::at_grid(opt, surface.grid(), qa);
        let fresh_sb: Vec<RunReport> = (surface.grid().iter())
            .map(|qa| SpillBound::new(surface, opt, 2.0).run(&mut oracle(qa)))
            .collect::<Result<_>>()
            .unwrap();
        let fresh_ab: Vec<RunReport> = (surface.grid().iter())
            .map(|qa| AlignedBound::new(surface, opt, 2.0).run(&mut oracle(qa)))
            .collect::<Result<_>>()
            .unwrap();
        for cap in [0usize, 1, MEMO_CAP] {
            let sb = SpillBound::new(surface, opt, 2.0).with_memo_cap(cap);
            sweep_shared(&fresh_sb, &|qa| sb.run(&mut oracle(qa)).unwrap());
            let ab = AlignedBound::new(surface, opt, 2.0).with_memo_cap(cap);
            sweep_shared(&fresh_ab, &|qa| ab.run(&mut oracle(qa)).unwrap());
            for stats in [sb.memo_stats(), ab.memo_stats()] {
                assert!(stats.entries <= cap, "cap {cap}: {stats:?}");
                assert_eq!(stats.entries == 0, cap == 0, "cap {cap}: {stats:?}");
                assert_eq!(stats.hits == 0, cap == 0, "cap {cap}: {stats:?}");
            }
        }
    }
}
