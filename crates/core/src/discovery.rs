//! The discovery protocol of §6.1, written once: budgeted executions in
//! spill mode or regular mode.
//!
//! A strategy is a contour schedule plus a pure decision,
//! [`Protocol::decide`]: for a contour and the epps learnt so far, the
//! budget traced on entering the contour and the [`Step`]s to make on it,
//! in order. [`run`] interprets any strategy against an
//! [`ExecutionOracle`]. It enters each contour and makes its steps,
//! charging, recording and tracing each one. A completed spill-mode step
//! pins its epp, and the same contour is decided again; when every step
//! times out, the next contour is. The first completed regular step
//! finishes the query, and past the last contour the §7 overflow phase
//! does. SpillBound and AlignedBound are one holder, [`Discovery`], over
//! their per-contour [`Rule`].

use crate::oracle::{ExecutionOracle, FullOutcome, SpillOutcome};
use crate::report::{ExecMode, ExecutionRecord, Outcome, RunReport};
use rqp_common::{Cost, Result, RqpError};
use rqp_ess::alignment::{PlanChoice, SpillDimCache};
use rqp_ess::{ContourSet, EssView, SurfaceAccess};
use rqp_obs::{TraceEvent, Tracer};
use rqp_optimizer::Optimizer;
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

/// The memo behind a compiled SpillBound or AlignedBound: the spill steps
/// of contour `i` once `pins` are learnt. That is a function of the key
/// alone and never of the hidden `qa`, so every run of every thread may
/// share it. Look-ups take the read lock, values are computed outside any
/// lock and inserted under the write lock; a thread that loses the race
/// computed the identical value.
#[derive(Debug)]
struct ContourMemo {
    map: RwLock<HashMap<PinKey, Arc<[Step]>>>,
    cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ContourMemo {
    const POISONED: &'static str = "a thread panicked holding the contour memo";

    fn with_cap(cap: usize) -> Self {
        Self {
            map: RwLock::new(HashMap::new()),
            cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn get_or_compute(
        &self,
        i: usize,
        pins: &[Option<usize>],
        compute: impl FnOnce() -> Vec<Step>,
    ) -> Arc<[Step]> {
        let key = (i, pins.to_vec());
        if let Some(v) = self.map.read().expect(Self::POISONED).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value: Arc<[Step]> = compute().into();
        let mut map = self.map.write().expect(Self::POISONED);
        if map.len() < self.cap {
            map.insert(key, value.clone());
        }
        value
    }
}

/// One budgeted execution a decision names.
#[derive(Debug)]
pub enum Step {
    /// Spill mode on epp `dim` (§3.1.2): completing learns its
    /// selectivity, timing out prunes a half-space.
    Spill { dim: usize, exec: Exec },
    /// Regular mode: completing answers the query.
    Full(Exec),
}

/// The plan a [`Step`] runs, its budget, and its fingerprint, taken when
/// the step is decided, once for every run that makes or skips it.
#[derive(Debug)]
pub struct Exec {
    pub plan: PlanChoice,
    pub fingerprint: u64,
    pub budget: Cost,
}

impl Exec {
    pub(crate) fn new(surface: &dyn SurfaceAccess, plan: PlanChoice, budget: Cost) -> Self {
        let fingerprint = match &plan {
            PlanChoice::Pool(pid) => surface.plan_fingerprint(*pid),
            PlanChoice::Custom(plan) => plan.fingerprint(),
        };
        Self {
            plan,
            fingerprint,
            budget,
        }
    }
}

/// A strategy as [`run`] interprets it.
pub(crate) trait Protocol {
    /// The surface the steps' pool plans come from, and the contour
    /// schedule: `None` for the fixed-plan strategies, whose one contour
    /// is not traced.
    fn schedule(&self) -> (&dyn SurfaceAccess, Option<&ContourSet>);

    /// What to do on contour `i` once `pins` are learnt: the budget
    /// traced on entering it, and the steps, in order.
    fn decide(&self, i: usize, pins: &[Option<usize>]) -> (Cost, Arc<[Step]>);

    /// Events a run emits before its first step.
    fn prelude(&self, _tracer: &Tracer) {}
}

/// Runs `protocol` against `oracle`, tracing it as `algo`.
pub(crate) fn run(
    algo: &'static str,
    protocol: &dyn Protocol,
    tracer: &Tracer,
    oracle: &mut dyn ExecutionOracle,
) -> Result<RunReport> {
    let (surface, contours) = protocol.schedule();
    let dims = surface.grid().ndims();
    let ncontours = contours.map_or(0, ContourSet::len);
    tracer.emit(|| TraceEvent::RunStarted {
        algo,
        dims,
        contours: ncontours,
    });
    protocol.prelude(tracer);
    let mut run = Run {
        surface,
        tracer,
        oracle,
        report: RunReport {
            learnt: vec![None; dims],
            ..RunReport::default()
        },
    };
    let mut pins = vec![None; dims];
    // Executions already made on the current contour: the same plan
    // spilling on the same dimension is provably the same timeout, so it
    // is neither re-run nor re-charged.
    let mut executed: HashSet<(u64, usize)> = HashSet::new();
    let (mut i, mut entered) = (0, None);
    'contours: while i < ncontours.max(1) {
        let (budget, steps) = protocol.decide(i, &pins);
        if contours.is_some() && entered.replace(i) != Some(i) {
            tracer.emit(|| TraceEvent::ContourEntered { contour: i, budget });
        }
        for step in steps.iter() {
            let (mode, exec) = match *step {
                Step::Spill { dim, ref exec } => (ExecMode::Spill { dim }, exec),
                Step::Full(ref exec) => (ExecMode::Full, exec),
            };
            if let ExecMode::Spill { dim } = mode {
                debug_assert!(pins[dim].is_none(), "a decision spills on unlearnt epps");
                if !executed.insert((exec.fingerprint, dim)) {
                    continue;
                }
            }
            match (mode, run.execute(i, mode, exec)?) {
                (ExecMode::Full, Outcome::Completed { .. }) => return Ok(run.finish()),
                (ExecMode::Spill { dim }, Outcome::Completed { sel: Some(sel) }) => {
                    tracer.emit(|| TraceEvent::SelectivityLearnt { dim, sel });
                    run.report.learnt[dim] = Some(sel);
                    pins[dim] = Some(surface.grid().dim(dim).ceil_idx(sel));
                    continue 'contours;
                }
                _ => {}
            }
        }
        i += 1;
        executed.clear();
    }
    // The overflow phase (§7). With an exact cost model nothing gets here:
    // the last contour covers the terminus. Under a bounded cost-model
    // error δ, real costs may exceed modeled budgets by up to (1+δ), so
    // the pinned view's terminus plan runs at budgets doubling from twice
    // the last contour cost; the geometric sum keeps the extra spend
    // within the (1+δ)²-inflated guarantee.
    let contours = contours.expect("a fixed plan's one step has an infinite budget");
    let last = ncontours - 1;
    let terminus = EssView::from_pins(pins).terminus(surface.grid());
    let mut exec = Exec::new(surface, PlanChoice::Pool(surface.plan_id(terminus)), 0.0);
    // 64 doublings ≈ a 1.8e19× cost-model error: unambiguously a bug.
    for k in 1..=64 {
        exec.budget = contours.cost(last) * 2f64.powi(k);
        if let Outcome::Completed { .. } = run.execute(last, ExecMode::Full, &exec)? {
            return Ok(run.finish());
        }
    }
    Err(RqpError::Discovery(
        "overflow phase did not complete within 64 budget doublings; \
         the execution oracle is inconsistent with PCM"
            .into(),
    ))
}

/// One run's state: where its pool plans come from, where it traces, the
/// oracle it asks and the report it builds.
struct Run<'r> {
    surface: &'r dyn SurfaceAccess,
    tracer: &'r Tracer,
    oracle: &'r mut dyn ExecutionOracle,
    report: RunReport,
}

impl Run<'_> {
    /// Makes one execution on contour `contour`: charged, recorded and
    /// traced.
    fn execute(&mut self, contour: usize, mode: ExecMode, exec: &Exec) -> Result<Outcome> {
        let pool_plan;
        let (plan_id, plan) = match &exec.plan {
            PlanChoice::Pool(pid) => {
                pool_plan = self.surface.plan_clone(*pid);
                (Some(*pid), &pool_plan)
            }
            PlanChoice::Custom(plan) => (None, &**plan),
        };
        let (oracle, budget) = (&mut *self.oracle, exec.budget);
        let (spent, outcome) = if let ExecMode::Spill { dim } = mode {
            match oracle.try_spill_execute_id(plan_id, plan, dim, budget)? {
                SpillOutcome::Completed { sel, spent } => {
                    (spent, Outcome::Completed { sel: Some(sel) })
                }
                SpillOutcome::TimedOut { lower_bound, spent } => {
                    (spent, Outcome::TimedOut { lower_bound })
                }
            }
        } else {
            match oracle.try_full_execute_id(plan_id, plan, budget)? {
                FullOutcome::Completed { spent } => (spent, Outcome::Completed { sel: None }),
                FullOutcome::TimedOut { .. } if budget == f64::INFINITY => {
                    let msg = "an execution with an infinite budget timed out";
                    return Err(RqpError::Discovery(msg.into()));
                }
                FullOutcome::TimedOut { spent } => (spent, Outcome::TimedOut { lower_bound: 0.0 }),
            }
        };
        let plan_fingerprint = exec.fingerprint;
        self.report.total_cost += spent;
        let total = self.report.total_cost;
        self.report.records.push(ExecutionRecord {
            contour,
            plan_fingerprint,
            plan_id,
            mode,
            budget,
            spent,
            outcome,
        });
        let (mode, dim) = match mode {
            ExecMode::Spill { dim } => ("spill", Some(dim)),
            ExecMode::Full => ("full", None),
        };
        let completed = matches!(outcome, Outcome::Completed { .. });
        self.tracer.emit(|| TraceEvent::PlanExecuted {
            contour,
            plan_fingerprint,
            plan_id,
            mode,
            dim,
            budget,
            spent,
            outcome: if completed { "completed" } else { "timed_out" },
        });
        self.tracer.emit(|| TraceEvent::BudgetCharged {
            contour,
            spent,
            total,
        });
        Ok(outcome)
    }

    /// The completed report, after the run-level finish event and a flush
    /// of file-backed sinks.
    fn finish(mut self) -> RunReport {
        self.report.completed = true;
        let report = self.report;
        self.tracer.emit(|| TraceEvent::RunFinished {
            total_cost: report.total_cost,
            executions: report.records.len(),
            completed: true,
        });
        self.tracer.flush();
        report
    }
}

/// How a [`Discovery`] strategy decides a contour on which two or more
/// epps are unlearnt: its spill-mode steps, in order.
pub trait Rule: Sized + std::fmt::Debug {
    /// The name a run's trace carries.
    const ALGO: &'static str;
    /// Heap bytes a memoized step may own beyond the step itself.
    const STEP_HEAP: usize;
    /// The spill steps of contour `i` once `pins` are learnt.
    fn spill_steps(d: &Discovery<'_, Self>, i: usize, pins: &[Option<usize>]) -> Vec<Step>;
}

/// SpillBound and AlignedBound compiled (Algorithms 1 and 2), which
/// differ only in their [`Rule`]: immutable apart from a memo of the
/// spill steps per (contour, pins). Runs take `&self` and keep their
/// state on the stack, so one instance serves every `qa` of a sweep and
/// every request of a daemon, from any number of threads, and each
/// contour analysis is done once per state. With at most one epp
/// unlearnt, both finish with the terminal phase.
#[derive(Debug)]
pub struct Discovery<'a, R> {
    /// POSP surface over the ESS grid, dense or lazy.
    pub(crate) surface: &'a dyn SurfaceAccess,
    /// The optimizer that produced it.
    pub(crate) opt: &'a Optimizer<'a>,
    pub(crate) contours: ContourSet,
    tracer: Tracer,
    pub(crate) spill_cache: SpillDimCache,
    memo: ContourMemo,
    pub(crate) rule: R,
}

impl<'a, R: Rule> Discovery<'a, R> {
    pub(crate) fn compile(
        surface: &'a dyn SurfaceAccess,
        opt: &'a Optimizer<'a>,
        ratio: f64,
        rule: R,
    ) -> Self {
        Self {
            surface,
            opt,
            contours: ContourSet::build(surface, ratio),
            tracer: Tracer::disabled(),
            spill_cache: SpillDimCache::new(),
            memo: ContourMemo::with_cap(MEMO_CAP),
            rule,
        }
    }

    /// Forces the memo's entry cap.
    #[cfg(test)]
    pub(crate) fn with_memo_cap(mut self, cap: usize) -> Self {
        self.memo = ContourMemo::with_cap(cap);
        self
    }

    /// Hits, misses and resident entries of the per-(contour, pins) memo.
    pub fn memo_stats(&self) -> MemoStats {
        let memo = &self.memo;
        MemoStats {
            hits: memo.hits.load(Ordering::Relaxed),
            misses: memo.misses.load(Ordering::Relaxed),
            entries: memo.map.read().expect(ContourMemo::POISONED).len(),
        }
    }

    /// Most bytes the memo and the spill-dimension cache can come to
    /// hold: per memo entry the key with its pins, the `Arc` and the table
    /// slot, and one step per dimension; per cache entry a slot of 32
    /// bytes.
    pub fn memo_bytes_bound(&self) -> usize {
        let d = self.surface.grid().ndims();
        let step = std::mem::size_of::<Step>() + R::STEP_HEAP;
        self.memo.cap * (128 + d * (16 + step)) + (self.surface.pool_len() << d) * 32
    }

    /// The structural MSO guarantee `D² + 3D` (AlignedBound's upper end,
    /// retained by §5.3).
    pub fn mso_guarantee(&self) -> f64 {
        crate::spillbound_guarantee(self.surface.grid().ndims())
    }

    /// The contour schedule.
    pub fn contours(&self) -> &ContourSet {
        &self.contours
    }

    /// Attach a structured tracer; subsequent [`run`](Self::run) calls
    /// emit typed events for every contour entry, execution, and learnt
    /// selectivity.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Runs selectivity discovery against `oracle`.
    pub fn run(&self, oracle: &mut dyn ExecutionOracle) -> Result<RunReport> {
        run(R::ALGO, self, &self.tracer, oracle)
    }
}

impl<R: Rule> Protocol for Discovery<'_, R> {
    fn schedule(&self) -> (&dyn SurfaceAccess, Option<&ContourSet>) {
        (self.surface, Some(&self.contours))
    }

    fn decide(&self, i: usize, pins: &[Option<usize>]) -> (Cost, Arc<[Step]>) {
        let (surface, budget) = (self.surface, self.contours.cost(i));
        if pins.iter().filter(|p| p.is_none()).count() > 1 {
            let spill = || R::spill_steps(self, i, pins);
            return (budget, self.memo.get_or_compute(i, pins, spill));
        }
        // The terminal phase (§4.1): with at most one epp unlearnt,
        // spilling weakens the bound, so a plain bouquet on the pinned
        // view takes over. Its contour is one location, whose plan runs in
        // regular mode at `CC_i`. Decided as each run reaches it, outside
        // the memo.
        let view = EssView::from_pins(pins.to_vec());
        let locs = self.contours.locations(surface, &view, i);
        let full = |q| {
            Step::Full(Exec::new(
                surface,
                PlanChoice::Pool(surface.plan_id(q)),
                budget,
            ))
        };
        (budget, locs.into_iter().map(full).collect())
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
