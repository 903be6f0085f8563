//! The strategy table: every way this crate answers a query, behind one
//! compiled interface.
//!
//! The paper evaluates every strategy the same way (§6.2.3): a strategy
//! is a protocol of budgeted executions, and its MSOe / ASO come from
//! running it with every ESS location as the hidden `qa`. [`Strategy`] is
//! the registry — one variant per strategy, with its wire and CLI names —
//! and [`Compiled`] is the one compiled form: [`Compiled::run`] drives an
//! [`ExecutionOracle`], and [`crate::eval::evaluate_strategy`] sweeps it.
//! Entry points parse a name once and dispatch through the table, so a
//! new strategy is one variant here plus its compiled form.

use crate::alignedbound::AlignedBound;
use crate::cached::EvalContext;
use crate::discovery::{self, Exec, MemoStats, Protocol, Step};
use crate::native::NativeChoice;
use crate::oracle::ExecutionOracle;
use crate::penalty::{self, PenaltyConfig, PenaltySelection, PriorConfig, SelectivityPrior};
use crate::planbouquet::PlanBouquet;
use crate::report::RunReport;
use crate::spillbound::SpillBound;
use rqp_common::{Cost, Result};
use rqp_ess::alignment::PlanChoice;
use rqp_ess::{ContourSet, SurfaceAccess};
use rqp_obs::{TraceEvent, Tracer};
use rqp_optimizer::{Optimizer, PlanId, PlanNode};
use std::sync::Arc;

/// One robust-query-processing strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// The conventional optimizer: run the plan chosen at the estimate
    /// `qe` (§2.3). No guarantee.
    Native,
    /// PlanBouquet (§1.1): anorexic contour plan sets, `4(1+λ)ρ_red`.
    PlanBouquet,
    /// SpillBound (§4): half-space pruning by spill-mode runs, `D² + 3D`.
    SpillBound,
    /// AlignedBound (§5): predicate-set alignment, `[2D + 2, D² + 3D]`.
    AlignedBound,
    /// Penalty-aware single-plan selection under a selectivity prior:
    /// an expected-case guarantee (≤ native under the prior), no MSO.
    PenaltyAware,
}

/// `(wire name, CLI short name, wire method)` per strategy, in
/// [`Strategy::ALL`] order.
const NAMES: [(&str, &str, &str); 5] = [
    ("native", "native", "run_native"),
    ("planbouquet", "pb", "run_planbouquet"),
    ("spillbound", "sb", "run_spillbound"),
    ("alignedbound", "ab", "run_alignedbound"),
    ("penaltyaware", "pa", "run_penaltyaware"),
];

impl Strategy {
    /// Every strategy, in table order.
    pub const ALL: [Strategy; 5] = [
        Strategy::Native,
        Strategy::PlanBouquet,
        Strategy::SpillBound,
        Strategy::AlignedBound,
        Strategy::PenaltyAware,
    ];

    /// The wire and report name: a response's `algorithm` field.
    pub fn name(self) -> &'static str {
        NAMES[self as usize].0
    }

    /// The CLI short name (`sb`, `ab`, `pb`, `pa`, `native`).
    pub fn short(self) -> &'static str {
        NAMES[self as usize].1
    }

    /// The wire method that runs this strategy: `run_<name>`.
    pub fn method(self) -> &'static str {
        NAMES[self as usize].2
    }

    /// The strategy with this wire or CLI short name.
    pub fn parse(s: &str) -> Option<Strategy> {
        (Self::ALL.into_iter()).find(|x| x.name() == s || x.short() == s)
    }

    /// The strategy a `run_<name>` wire method runs.
    pub fn from_method(method: &str) -> Option<Strategy> {
        Self::ALL.into_iter().find(|x| x.method() == method)
    }

    /// Compiles this strategy over `source`: contour schedules for the
    /// discovery strategies, the reduced bouquet for PlanBouquet, the
    /// chosen plan for Native and PenaltyAware.
    pub fn compile<'a>(self, source: CostSource<'a>, params: &Params) -> Result<Compiled<'a>> {
        let (surface, opt) = (source.surface(), source.opt());
        let (ratio, lambda) = (params.ratio, params.lambda);
        let form = match self {
            Strategy::Native => Form::Native(NativeChoice::compute(surface, opt)),
            Strategy::PlanBouquet => Form::PlanBouquet(match source {
                CostSource::Matrix(ctx) => PlanBouquet::from_ctx(ctx, ratio, lambda),
                CostSource::Recost(..) => PlanBouquet::new(surface, opt, ratio, lambda),
            }),
            Strategy::SpillBound => Form::SpillBound(SpillBound::new(surface, opt, ratio)),
            Strategy::AlignedBound => Form::AlignedBound(AlignedBound::new(surface, opt, ratio)),
            Strategy::PenaltyAware => {
                let native = NativeChoice::compute(surface, opt);
                let prior =
                    SelectivityPrior::lognormal(surface.grid(), &native.qe_sels, params.prior)?;
                let sel = penalty::selection(source, native, &prior, &params.penalty, 1)?;
                Form::PenaltyAware(sel)
            }
        };
        let mut compiled = Compiled::new(self, source, form);
        if let Some((plan_id, plan)) = compiled.fixed_plan() {
            let plan = plan_id.map_or_else(
                || PlanChoice::Custom(Box::new(plan.clone())),
                PlanChoice::Pool,
            );
            compiled.fixed = Arc::new([Step::Full(Exec::new(surface, plan, f64::INFINITY))]);
        }
        Ok(compiled)
    }
}

/// What a strategy is compiled with: the paper's inter-contour cost
/// ratio and anorexic threshold, and PenaltyAware's prior and objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Inter-contour cost ratio (the paper doubles).
    pub ratio: f64,
    /// Anorexic swallowing threshold λ of PlanBouquet's reduction.
    pub lambda: f64,
    /// PenaltyAware's selectivity-error prior.
    pub prior: PriorConfig,
    /// PenaltyAware's risk objective.
    pub penalty: PenaltyConfig,
}

impl Default for Params {
    /// The paper's `ratio = 2`, `λ = 0.2`, and the default prior and
    /// objective.
    fn default() -> Self {
        Self {
            ratio: 2.0,
            lambda: 0.2,
            prior: PriorConfig::default(),
            penalty: PenaltyConfig::default(),
        }
    }
}

/// Where a compiled strategy reads plan costs from. Both sources give
/// bit-identical answers; the matrix answers faster, recosting needs no
/// matrix and so is the only form for lazy surfaces.
#[derive(Debug, Clone, Copy)]
pub enum CostSource<'a> {
    /// The plan×location matrix of a dense surface's [`EvalContext`].
    Matrix(&'a EvalContext<'a>),
    /// Recost through the optimizer, over a dense or lazy surface.
    Recost(&'a dyn SurfaceAccess, &'a Optimizer<'a>),
}

impl<'a> CostSource<'a> {
    /// The POSP surface.
    pub fn surface(&self) -> &'a dyn SurfaceAccess {
        match *self {
            CostSource::Matrix(ctx) => ctx.surface(),
            CostSource::Recost(surface, _) => surface,
        }
    }

    /// The optimizer.
    pub fn opt(&self) -> &'a Optimizer<'a> {
        match *self {
            CostSource::Matrix(ctx) => ctx.opt(),
            CostSource::Recost(_, opt) => opt,
        }
    }
}

#[derive(Debug)]
enum Form<'a> {
    Native(NativeChoice),
    PlanBouquet(PlanBouquet<'a>),
    SpillBound(SpillBound<'a>),
    AlignedBound(AlignedBound<'a>),
    PenaltyAware(PenaltySelection),
}

/// A compiled strategy: immutable apart from the discovery memos, which
/// hold pure functions of their keys, so one value serves every `qa` of a
/// sweep and every request of a daemon, from any number of threads.
#[derive(Debug)]
pub struct Compiled<'a> {
    strategy: Strategy,
    source: CostSource<'a>,
    form: Form<'a>,
    /// Native's and PenaltyAware's one decision: their plan in full, with
    /// an infinite budget.
    fixed: Arc<[Step]>,
    tracer: Tracer,
}

/// Native's and PenaltyAware's protocol is the compiled form itself: one
/// untraced contour holding their one step.
impl Protocol for Compiled<'_> {
    fn schedule(&self) -> (&dyn SurfaceAccess, Option<&ContourSet>) {
        (self.source.surface(), None)
    }

    fn decide(&self, _i: usize, _pins: &[Option<usize>]) -> (Cost, Arc<[Step]>) {
        (f64::INFINITY, self.fixed.clone())
    }

    /// The candidates PenaltyAware's offline selection weighed, so that a
    /// trace shows why its plan runs.
    fn prelude(&self, tracer: &Tracer) {
        for r in self.penalty_selection().map_or(&[][..], |sel| &sel.risks) {
            tracer.emit(|| TraceEvent::RiskEvaluated {
                plan_fingerprint: r.fingerprint,
                plan_id: r.plan_id,
                expected: r.expected,
                cvar: r.cvar,
            });
        }
    }
}

impl<'a> Compiled<'a> {
    fn new(strategy: Strategy, source: CostSource<'a>, form: Form<'a>) -> Self {
        Self {
            strategy,
            source,
            form,
            fixed: Arc::new([]),
            tracer: Tracer::disabled(),
        }
    }

    /// A PlanBouquet whose reduced contours were loaded, e.g. from an
    /// artifact, rather than computed.
    pub fn planbouquet(source: CostSource<'a>, bouquet: PlanBouquet<'a>) -> Self {
        Self::new(Strategy::PlanBouquet, source, Form::PlanBouquet(bouquet))
    }

    /// Which strategy this is.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// What this was compiled from.
    pub fn source(&self) -> CostSource<'a> {
        self.source
    }

    /// The MSO guarantee; infinite for the fixed-plan strategies.
    pub fn mso_guarantee(&self) -> f64 {
        match &self.form {
            Form::PlanBouquet(pb) => pb.mso_guarantee(),
            Form::SpillBound(sb) => sb.mso_guarantee(),
            Form::AlignedBound(ab) => ab.mso_guarantee(),
            Form::Native(_) | Form::PenaltyAware(_) => f64::INFINITY,
        }
    }

    /// Attach a structured tracer; subsequent runs emit typed events. A
    /// PenaltyAware run first emits the risk of every candidate its
    /// selection weighed.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Runs the strategy against `oracle` through the one discovery
    /// protocol. Native and PenaltyAware make one full execution of their
    /// plan with an infinite budget.
    pub fn run(&self, oracle: &mut dyn ExecutionOracle) -> Result<RunReport> {
        discovery::run(self.strategy.name(), self.protocol(), &self.tracer, oracle)
    }

    fn protocol(&self) -> &dyn Protocol {
        match &self.form {
            Form::PlanBouquet(pb) => pb,
            Form::SpillBound(sb) => sb,
            Form::AlignedBound(ab) => ab,
            Form::Native(_) | Form::PenaltyAware(_) => self,
        }
    }

    /// The one plan Native and PenaltyAware run, with its pool id when it
    /// is interned.
    pub fn fixed_plan(&self) -> Option<(Option<PlanId>, &PlanNode)> {
        match &self.form {
            Form::Native(c) => Some((c.plan_id, &c.plan)),
            Form::PenaltyAware(sel) => Some((sel.chosen.plan_id, &sel.chosen_plan)),
            _ => None,
        }
    }

    /// Native's estimate and plan.
    pub fn native_choice(&self) -> Option<&NativeChoice> {
        match &self.form {
            Form::Native(c) => Some(c),
            _ => None,
        }
    }

    /// PenaltyAware's selection.
    pub fn penalty_selection(&self) -> Option<&PenaltySelection> {
        match &self.form {
            Form::PenaltyAware(sel) => Some(sel),
            _ => None,
        }
    }

    /// PlanBouquet's compiled bouquet.
    pub fn bouquet(&self) -> Option<&PlanBouquet<'a>> {
        match &self.form {
            Form::PlanBouquet(pb) => Some(pb),
            _ => None,
        }
    }

    /// AlignedBound's maximum part penalty over every run so far (the
    /// quantity Table 4 reports).
    pub fn observed_max_penalty(&self) -> Option<f64> {
        match &self.form {
            Form::AlignedBound(ab) => Some(ab.observed_max_penalty()),
            _ => None,
        }
    }

    /// Counters of the per-(contour, pins) memo, for the strategies that
    /// keep one.
    pub fn memo_stats(&self) -> Option<MemoStats> {
        match &self.form {
            Form::SpillBound(sb) => Some(sb.memo_stats()),
            Form::AlignedBound(ab) => Some(ab.memo_stats()),
            _ => None,
        }
    }

    /// Most bytes the memo can come to hold (zero without one).
    pub fn memo_bytes_bound(&self) -> usize {
        match &self.form {
            Form::SpillBound(sb) => sb.memo_bytes_bound(),
            Form::AlignedBound(ab) => ab.memo_bytes_bound(),
            _ => 0,
        }
    }
}
