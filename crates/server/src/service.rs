//! Artifact-backed query service: one [`ServedQuery`] per compiled
//! template, dispatching `explain` / `run_*` requests.
//!
//! A served query is constructed from a [`CompiledArtifact`] without
//! re-running any offline work: the surface, contour schedule, reduced
//! bouquet and recost matrix all come straight off disk. Construction
//! rebuilds the optimizer and compiles the strategies that are cheap to
//! compile: the native choice, the loaded bouquet (its ρ_red and contour
//! costs checked), and for SpillBound and AlignedBound a contour schedule
//! and an empty memo. PenaltyAware's selection, a risk integral over the
//! whole plan × cell matrix, is derived by the first request that reads
//! it (`run_penaltyaware` or `explain`) and checked then against the
//! artifact's persisted summary; a discovery request never pays for it.
//! Requests otherwise construct nothing: each strategy's per-(contour,
//! pins) analysis is done by the first request that reaches that state
//! and kept for all later ones. A served query *owns* its artifact state
//! (boxed, with internally self-referential borrows — see the safety
//! notes on [`ServedQuery::from_artifact`]), so dropping one — e.g. on
//! LRU eviction from the [`crate::cache::ArtifactCache`] — actually
//! frees its surface and recost matrix, unlike the previous `Box::leak`
//! grounding which pinned every loaded artifact for the process
//! lifetime.
//!
//! The immutable `explain` response body is rendered to JSON by its first
//! request and then served as a shared pre-serialized string
//! ([`Body::Raw`]) — the fast path the bench-serve throughput target
//! rides on. [`crate::protocol::ok_response_raw`] keeps the framing
//! byte-identical to the per-request serialization it replaces.

use crate::cache::ArtifactCache;
use crate::protocol::{num, num_arr, obj, string, Request};
use rqp_artifacts::{CompiledArtifact, PenaltySummary};
use rqp_catalog::Catalog;
use rqp_common::{GridIdx, RqpError};
use rqp_core::{
    CachedOracle, Compiled, CostSource, EvalContext, FaultyOracle, MemoStats, Params, PlanBouquet,
    PriorConfig, RunReport, SpillMemo, Strategy,
};
use rqp_ess::{EssSurface, SurfaceAccess};
use rqp_faults::{Attempt, BreakerConfig, CircuitBreaker, FaultPlan, RetryPolicy};
use rqp_optimizer::{CostParams, EnumerationMode, Optimizer, QuerySpec};
use serde::Value;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// The strategies whose compiled form keeps a per-(contour, pins) memo,
/// in the order `stats` reports them.
const MEMOIZED: [Strategy; 2] = [Strategy::SpillBound, Strategy::AlignedBound];

/// Per-call fault accounting, merged into the server-wide counters by
/// the dispatch layer.
#[derive(Debug, Default, Clone)]
pub struct CallStats {
    /// Oracle faults injected while serving this call.
    pub faults_injected: u64,
    /// Retries that absorbed those faults.
    pub retries: u64,
    /// The response is a native-baseline fallback (`degraded: true`).
    pub degraded: bool,
    /// This call's failure tripped the breaker open.
    pub breaker_opened: bool,
    /// Budget burnt by fault-aborted oracle attempts (operational waste,
    /// never counted as sub-optimality).
    pub wasted_cost: f64,
}

/// A response body: either a per-request JSON [`Value`] or a shared
/// pre-serialized string (the cached `explain` fast path). The raw form
/// is byte-identical to serializing the equivalent `Value`, which the
/// determinism tests rely on.
#[derive(Clone)]
pub enum Body {
    /// Built per request; the server serializes it into the response.
    Value(Value),
    /// Pre-serialized JSON, shared across requests without re-rendering.
    Raw(Arc<str>),
}

impl Body {
    /// The serialized result body (allocates for the `Value` form; the
    /// raw form is already rendered). Test/diagnostic helper — the
    /// server splices bodies into response lines without going through
    /// this.
    pub fn render(&self) -> String {
        match self {
            Body::Value(v) => serde_json::to_string(v).expect("body serializes"),
            Body::Raw(s) => s.to_string(),
        }
    }
}

/// One query template, warm-started from its artifact and ready to serve
/// concurrent requests. A request's state (oracle, spill memo, pins,
/// report) is per-call; the compiled strategies are shared, and the only
/// things a request can leave behind in them are a memo entry and the
/// first-use PenaltyAware derivation, each of which any other request
/// would have computed identically.
///
/// Field order is load-bearing: Rust drops fields in declaration order,
/// and the strategies borrow from the boxed `ctx`/`opt`/`surface`/`query`
/// owners declared after them, so the borrowers are destroyed before
/// their referents.
pub struct ServedQuery {
    name: String,
    /// Native, PlanBouquet, SpillBound and AlignedBound, compiled over
    /// `ctx` at construction, in [`Strategy::ALL`] order.
    strategies: Vec<Compiled<'static>>,
    /// PenaltyAware, compiled over `source` by its first reader and
    /// checked against `summary`; a failed check is kept and returned to
    /// every later reader.
    penalty: OnceLock<Result<Compiled<'static>, String>>,
    /// `explain` response body, rendered by its first request.
    explain: OnceLock<Result<Arc<str>, String>>,
    /// The matrix of `ctx`, which every strategy reads costs from.
    source: CostSource<'static>,
    /// Ratio, λ, and the prior and CVaR level the artifact records.
    params: Params,
    /// The artifact's persisted penalty selection, if it has one.
    summary: Option<PenaltySummary>,
    /// Resident-footprint estimate, for the LRU cache's byte accounting.
    approx_bytes: usize,
    faults: Option<Arc<FaultPlan>>,
    retry: RetryPolicy,
    breaker: CircuitBreaker,
    // Owners of the state the strategies borrow. The boxes give the
    // referents stable heap addresses across moves of `ServedQuery`.
    ctx: Box<EvalContext<'static>>,
    #[allow(dead_code)] // owned solely so the borrows of it stay valid
    opt: Box<Optimizer<'static>>,
    surface: Box<EssSurface>,
    #[allow(dead_code)] // owned solely so `opt`'s borrow stays valid
    query: Box<QuerySpec>,
}

impl ServedQuery {
    /// Builds self-owned service state from the artifact. Fails (with a
    /// human-readable message) if the artifact's query does not validate
    /// against `catalog` or its components disagree with each other.
    /// PenaltyAware's selection is not derived here, so a persisted
    /// selection that disagrees with the matrix is reported by
    /// `run_penaltyaware` and `explain`, not by construction.
    ///
    /// # Safety notes
    ///
    /// The `'static` lifetimes on `ctx`, `source` and the strategies are a
    /// lie told to the borrow checker: they actually borrow the
    /// `Box<QuerySpec>` / `Box<EssSurface>` / `Box<Optimizer>` /
    /// `Box<EvalContext>` fields of the same struct.
    /// This is sound because (a) the boxes heap-allocate, so the
    /// referents never move even when the `ServedQuery` itself does,
    /// (b) the borrowing fields are declared before the owning boxes,
    /// so drop order destroys every borrower before its referent, and
    /// (c) all fields are private and no method lets a `'static`
    /// reference escape — callers only see owned or `&self`-scoped
    /// data. Unlike the previous `Box::leak` grounding, dropping a
    /// `ServedQuery` genuinely frees its artifact state, which is what
    /// lets the LRU cache bound resident memory.
    pub fn from_artifact(
        artifact: CompiledArtifact,
        catalog: &'static Catalog,
    ) -> Result<Self, String> {
        let approx_bytes = artifact.approx_bytes();
        let CompiledArtifact {
            query,
            ratio,
            lambda,
            surface,
            contours: _,
            bouquet,
            rho_red,
            matrix,
            penalty: summary,
        } = artifact;
        let name = query.name.clone();
        let query = Box::new(query);
        let surface = Box::new(surface);
        // SAFETY: see the struct-level notes — stable heap addresses,
        // drop order, and no escaping references.
        let query_ref: &'static QuerySpec = unsafe { &*(query.as_ref() as *const QuerySpec) };
        let surface_ref: &'static EssSurface = unsafe { &*(surface.as_ref() as *const EssSurface) };
        let opt = Box::new(
            Optimizer::new(
                catalog,
                query_ref,
                CostParams::default(),
                EnumerationMode::LeftDeep,
            )
            .map_err(|e| format!("artifact query `{name}` rejected by catalog: {e}"))?,
        );
        // SAFETY: as above.
        let opt_ref: &'static Optimizer<'static> =
            unsafe { &*(opt.as_ref() as *const Optimizer<'static>) };
        let ctx = Box::new(
            EvalContext::from_parts(surface_ref, opt_ref, Cow::Owned(matrix))
                .map_err(|e| format!("artifact `{name}`: {e}"))?,
        );
        // SAFETY: as above.
        let ctx_ref: &'static EvalContext<'static> =
            unsafe { &*(ctx.as_ref() as *const EvalContext<'static>) };
        let source = CostSource::Matrix(ctx_ref);
        // PenaltyAware selects under the prior the artifact records
        // (defaults when it was saved before a penalty summary was
        // attached), so its selection is verifiable against the summary.
        let mut params = Params {
            ratio,
            lambda,
            ..Params::default()
        };
        if let Some(s) = &summary {
            params.prior = PriorConfig {
                seed: s.prior_seed,
                sigma: s.prior_sigma,
                jitter: s.prior_jitter,
            };
            params.penalty.alpha = s.alpha;
        }
        let loaded = PlanBouquet::from_parts(surface_ref, ratio, lambda, bouquet)
            .map_err(|e| format!("artifact `{name}`: {e}"))?;
        if loaded.rho_red() != rho_red {
            return Err(format!(
                "artifact `{name}`: stored rho_red {rho_red} disagrees with its bouquet's {}",
                loaded.rho_red()
            ));
        }
        let mut loaded = Some(Compiled::planbouquet(source, loaded));
        // PenaltyAware is last in `Strategy::ALL`, so the rest keep their
        // `s as usize` indices.
        let strategies = (Strategy::ALL.into_iter())
            .filter(|&s| s != Strategy::PenaltyAware)
            .map(|s| match s {
                // The bouquet's reduction comes off disk, not recomputed.
                Strategy::PlanBouquet => Ok(loaded.take().expect("one bouquet")),
                _ => (s.compile(source, &params))
                    .map_err(|e| format!("artifact `{name}`: {}: {e}", s.name())),
            })
            .collect::<Result<Vec<_>, String>>()?;
        // The memos may fill up to their cap while the query is resident.
        let memo_bytes: usize = strategies.iter().map(Compiled::memo_bytes_bound).sum();
        Ok(Self {
            name,
            strategies,
            penalty: OnceLock::new(),
            explain: OnceLock::new(),
            source,
            params,
            summary,
            approx_bytes: approx_bytes + memo_bytes,
            faults: None,
            retry: RetryPolicy::no_sleep(6),
            breaker: CircuitBreaker::new(BreakerConfig::default()),
            ctx,
            opt,
            surface,
            query,
        })
    }

    /// Injects oracle faults from `plan` into every discovery run this
    /// query serves, absorbing transients under `retry`.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>, retry: RetryPolicy) -> Self {
        self.faults = Some(plan);
        self.retry = retry;
        self
    }

    /// Replaces the circuit-breaker configuration (threshold/cooldown).
    pub fn with_breaker(mut self, cfg: BreakerConfig) -> Self {
        self.breaker = CircuitBreaker::new(cfg);
        self
    }

    /// The query template name requests address this query by.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Resident-footprint estimate used for LRU cache byte accounting:
    /// the artifact's state plus the most the discovery memos can grow to.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// The compiled form of `s`. PenaltyAware's is derived by the first
    /// call that asks for it; the error of a failed check is kept.
    fn compiled(&self, s: Strategy) -> Result<&Compiled<'static>, String> {
        match s {
            Strategy::PenaltyAware => self.penalty_aware().as_ref().map_err(Clone::clone),
            _ => Ok(&self.strategies[s as usize]),
        }
    }

    /// PenaltyAware compiled over the artifact's matrix, its selection
    /// checked against the persisted summary when there is one.
    fn penalty_aware(&self) -> &Result<Compiled<'static>, String> {
        self.penalty.get_or_init(|| {
            let name = &self.name;
            let s = Strategy::PenaltyAware;
            let compiled = (s.compile(self.source, &self.params))
                .map_err(|e| format!("artifact `{name}`: {}: {e}", s.name()))?;
            let penalty = compiled.penalty_selection().expect("PA");
            if let Some(s) = &self.summary {
                let fp = format!("{:016x}", penalty.chosen.fingerprint);
                let hash = format!("{:016x}", penalty.prior_hash);
                if s.chosen_fingerprint != fp || s.prior_hash != hash {
                    return Err(format!(
                        "artifact `{name}`: persisted penalty selection (plan {}, prior {}) \
                         disagrees with the recomputed one (plan {fp}, prior {hash})",
                        s.chosen_fingerprint, s.prior_hash
                    ));
                }
            }
            Ok(compiled)
        })
    }

    /// The pre-serialized `explain` response body, rendered by the first
    /// call. Fails, on every call, when PenaltyAware's selection
    /// disagrees with the artifact's persisted one.
    pub fn explain_body(&self) -> Result<Body, String> {
        let raw = self.explain.get_or_init(|| {
            let penalty = self.penalty_aware().as_ref().map_err(Clone::clone)?;
            let value = explain_value(
                &self.name,
                &self.params,
                &self.surface,
                &self.strategies,
                penalty,
            );
            Ok(Arc::from(
                serde_json::to_string(&value).expect("explain serializes"),
            ))
        });
        raw.clone().map(Body::Raw)
    }

    /// Per-query health snapshot: breaker state and failure counters.
    pub fn health(&self) -> Value {
        let snap = self.breaker.snapshot();
        obj(vec![
            ("breaker", string(snap.state.name())),
            ("consecutive_failures", num(snap.consecutive as f64)),
            ("open_events", num(snap.open_events as f64)),
        ])
    }

    /// Snaps requested selectivities onto the grid; errors if the arity
    /// is wrong.
    fn snap(&self, qa: &[f64]) -> Result<(GridIdx, Vec<usize>), String> {
        let grid = self.surface.grid();
        if qa.len() != grid.ndims() {
            return Err(format!(
                "query `{}` has {} error-prone predicates, got {} selectivities",
                self.name,
                grid.ndims(),
                qa.len()
            ));
        }
        let coords: Vec<usize> = qa
            .iter()
            .enumerate()
            .map(|(j, &s)| grid.dim(j).nearest_idx(s))
            .collect();
        Ok((grid.flat(&coords), coords))
    }

    fn run_common(&self, algorithm: &str, qa_idx: GridIdx, coords: &[usize]) -> Vec<(&str, Value)> {
        let grid = self.surface.grid();
        vec![
            ("algorithm", string(algorithm)),
            ("query", string(&self.name)),
            ("qa_grid", num_arr(grid.sels(qa_idx))),
            ("qa_coords", num_arr(coords.iter().map(|&c| c as f64))),
            ("opt_cost", num(self.surface.opt_cost(qa_idx))),
        ]
    }

    fn report_fields(
        &self,
        report: &RunReport,
        qa_idx: GridIdx,
        guarantee: f64,
    ) -> [(&'static str, Value); 7] {
        let sub = report.sub_optimality(self.surface.opt_cost(qa_idx));
        let learnt = report
            .learnt
            .iter()
            .map(|l| l.map_or(Value::Null, Value::Num));
        let last_contour = report.last_contour().map_or(Value::Null, |i| num(i as f64));
        [
            ("total_cost", num(report.total_cost)),
            ("sub_optimality", num(sub)),
            ("mso_guarantee", num(guarantee)),
            ("executions", num(report.executions() as f64)),
            ("completed", Value::Bool(report.completed)),
            ("last_contour", last_contour),
            ("learnt", Value::Array(learnt.collect())),
        ]
    }

    /// The response of fixed-plan strategy `compiled` at `qa`: the fields
    /// that justify its plan, then what its one execution spends. Given a
    /// `(reason, requested)` pair, the body is the native fallback for
    /// strategy `requested`, labelled `degraded: true`.
    fn fixed_response(
        &self,
        compiled: &Compiled<'static>,
        qa_idx: GridIdx,
        coords: &[usize],
        degraded: Option<(&str, &str)>,
    ) -> Value {
        let mut fields = self.run_common(compiled.strategy().name(), qa_idx, coords);
        let report = self.run(compiled, qa_idx, &mut CallStats::default());
        let cost = report.expect("an unbudgeted run completes").total_cost;
        let opt_cost = self.surface.opt_cost(qa_idx);
        // Native has always reported its total through its sub-optimality.
        let (total, sub) = if let Some(choice) = compiled.native_choice() {
            fields.push(("est_sels", num_arr(choice.qe_sels.iter().copied())));
            fields.push(("est_cost", num(choice.est_cost)));
            (cost / opt_cost * opt_cost, cost / opt_cost)
        } else {
            let sel = compiled.penalty_selection().expect("a fixed-plan strategy");
            let chosen = sel
                .chosen
                .plan_id
                .map_or(Value::Null, |pid| num(pid as f64));
            let fingerprint = format!("{:016x}", sel.chosen.fingerprint);
            fields.push(("chosen_plan", chosen));
            fields.push(("chosen_fingerprint", string(fingerprint)));
            fields.push(("prior_hash", string(format!("{:016x}", sel.prior_hash))));
            fields.push(("alpha", num(sel.alpha)));
            fields.push(("expected_penalty", num(sel.chosen.expected)));
            fields.push(("cvar", num(sel.chosen.cvar)));
            fields.push(("native_expected", num(sel.native.expected)));
            (cost, cost / opt_cost)
        };
        fields.push(("total_cost", num(total)));
        fields.push(("sub_optimality", num(sub)));
        fields.push(("completed", Value::Bool(true)));
        fields.push(("degraded", Value::Bool(degraded.is_some())));
        if let Some((reason, requested)) = degraded {
            fields.push(("degraded_reason", string(reason)));
            fields.push(("requested_algorithm", string(requested)));
        }
        obj(fields)
    }

    /// Runs `compiled` at `qa_idx` against a fresh per-call oracle. A
    /// discovery run's oracle is wrapped in the fault plan when one is
    /// attached; a fixed plan was chosen offline and runs outside it.
    fn run(
        &self,
        compiled: &Compiled<'static>,
        qa_idx: GridIdx,
        stats: &mut CallStats,
    ) -> rqp_common::Result<RunReport> {
        let mut memo = SpillMemo::new();
        let mut cached = CachedOracle::at_grid(&self.ctx, qa_idx, &mut memo);
        let fixed = compiled.fixed_plan().is_some();
        let Some(plan) = self.faults.as_ref().filter(|_| !fixed) else {
            return compiled.run(&mut cached);
        };
        let mut faulty = FaultyOracle::new(cached, plan.as_ref()).with_retry(self.retry.clone());
        let result = compiled.run(&mut faulty);
        let fs = faulty.stats();
        stats.faults_injected += fs.faults_injected;
        stats.retries += fs.retries;
        stats.wasted_cost += fs.wasted_cost;
        result
    }

    /// Runs discovery strategy `s` under the per-query circuit breaker:
    /// an open breaker (or a failure that opens it) is answered by the
    /// native baseline with `degraded: true` instead of an error — every
    /// request gets a well-formed response while the breaker recovers
    /// via its half-open probe.
    fn run_guarded(
        &self,
        compiled: &Compiled<'static>,
        qa_idx: GridIdx,
        coords: &[usize],
        stats: &mut CallStats,
    ) -> Result<Value, (String, String)> {
        let s = compiled.strategy();
        let native = &self.strategies[Strategy::Native as usize];
        if matches!(self.breaker.allow_attempt(), Attempt::Degrade) {
            stats.degraded = true;
            let reason = "circuit breaker open; serving native fallback";
            return Ok(self.fixed_response(native, qa_idx, coords, Some((reason, s.name()))));
        }
        match self.run(compiled, qa_idx, stats) {
            Ok(report) => {
                self.breaker.record_success();
                let mut fields = self.run_common(s.name(), qa_idx, coords);
                let guarantee = compiled.mso_guarantee();
                fields.extend(self.report_fields(&report, qa_idx, guarantee));
                fields.push(("degraded", Value::Bool(false)));
                Ok(obj(fields))
            }
            Err(e @ RqpError::Fault(_)) => {
                stats.breaker_opened = self.breaker.record_failure();
                if self.breaker.is_open() {
                    stats.degraded = true;
                    let reason = "execution faults tripped the circuit breaker";
                    Ok(self.fixed_response(native, qa_idx, coords, Some((reason, s.name()))))
                } else {
                    Err((e.kind().into(), e.to_string()))
                }
            }
            Err(e) => Err((e.kind().into(), e.to_string())),
        }
    }

    /// Dispatches `explain` or a `run_<name>` method of the strategy
    /// table. Returns `Err((kind, message))` for protocol-level failures,
    /// plus the call's fault accounting. `explain` is answered from the
    /// cached pre-serialized body without touching the surface. A
    /// PenaltyAware selection that disagrees with the artifact's persisted
    /// one fails `explain` and `run_penaltyaware` as `internal`.
    pub fn handle(&self, method: &str, qa: &[f64]) -> (Result<Body, (String, String)>, CallStats) {
        let mut stats = CallStats::default();
        let internal = |m| ("internal".to_string(), m);
        if method == "explain" {
            return (self.explain_body().map_err(internal), stats);
        }
        let Some(s) = Strategy::from_method(method) else {
            let message = format!("unknown method `{method}`");
            return (Err(("unknown_method".into(), message)), stats);
        };
        let result = match self.snap(qa) {
            Err(m) => Err(("bad_request".to_string(), m)),
            Ok((qa_idx, coords)) => match self.compiled(s) {
                Err(m) => Err(internal(m)),
                Ok(c) if c.fixed_plan().is_some() => {
                    Ok(self.fixed_response(c, qa_idx, &coords, None))
                }
                Ok(c) => self.run_guarded(c, qa_idx, &coords, &mut stats),
            },
        };
        (result.map(Body::Value), stats)
    }
}

/// The `explain` response body for one compiled template: the eagerly
/// compiled `strategies` in [`Strategy::ALL`] order, and PenaltyAware.
fn explain_value(
    name: &str,
    params: &Params,
    surface: &EssSurface,
    strategies: &[Compiled<'_>],
    penalty_aware: &Compiled<'_>,
) -> Value {
    let get = |s: Strategy| &strategies[s as usize];
    let bouquet = get(Strategy::PlanBouquet).bouquet().expect("the bouquet");
    let native = get(Strategy::Native).native_choice().expect("native");
    let penalty = penalty_aware.penalty_selection().expect("PA");
    let (ratio, lambda) = (params.ratio, params.lambda);
    let grid = surface.grid();
    let d = grid.ndims();
    let contours = bouquet.contours();
    obj(vec![
        ("query", string(name)),
        ("ndims", num(d as f64)),
        ("grid_len", num(grid.len() as f64)),
        (
            "grid_points_per_dim",
            num_arr((0..d).map(|j| grid.dim(j).len() as f64)),
        ),
        ("posp_size", num(surface.posp_size() as f64)),
        // Surface accounting via the dense/lazy-unifying trait: a
        // dense artifact serves every cell, so `cells_materialized`
        // equals `grid_len`.
        (
            "surface",
            obj(vec![
                ("kind", string("dense")),
                (
                    "cells_materialized",
                    num(SurfaceAccess::cells_materialized(surface) as f64),
                ),
                (
                    "optimizer_calls",
                    num(SurfaceAccess::optimizer_calls(surface) as f64),
                ),
            ]),
        ),
        ("cmin", num(surface.cmin())),
        ("cmax", num(surface.cmax())),
        ("ratio", num(ratio)),
        ("lambda", num(lambda)),
        ("contours", num(contours.len() as f64)),
        ("contour_costs", num_arr(contours.costs().iter().copied())),
        ("rho_red", num(bouquet.rho_red() as f64)),
        (
            "guarantees",
            obj(vec![
                ("spillbound", num(rqp_core::spillbound_guarantee(d))),
                (
                    "alignedbound_lower",
                    num(rqp_core::aligned_guarantee_lower(d)),
                ),
                ("planbouquet", num(bouquet.mso_guarantee())),
            ]),
        ),
        (
            "native",
            obj(vec![
                ("est_sels", num_arr(native.qe_sels.iter().copied())),
                ("est_cost", num(native.est_cost)),
            ]),
        ),
        (
            "penalty",
            obj(vec![
                ("prior_hash", string(format!("{:016x}", penalty.prior_hash))),
                ("alpha", num(penalty.alpha)),
                (
                    "chosen_plan",
                    match penalty.chosen.plan_id {
                        Some(pid) => num(pid as f64),
                        None => Value::Null,
                    },
                ),
                (
                    "chosen_fingerprint",
                    string(format!("{:016x}", penalty.chosen.fingerprint)),
                ),
                ("expected_penalty", num(penalty.chosen.expected)),
                ("cvar", num(penalty.chosen.cvar)),
                ("native_expected", num(penalty.native.expected)),
                ("candidates", num(penalty.risks.len() as f64)),
            ]),
        ),
    ])
}

/// The set of query templates a server instance exposes: queries
/// *pinned* at startup (loaded eagerly, never evicted) plus, when an
/// [`ArtifactCache`] is attached, every artifact in the backing store —
/// faulted in on first use and LRU-evicted under the cache's byte
/// bound. This is what lets one daemon serve the entire workload suite
/// without holding every dense matrix resident at once.
#[derive(Default)]
pub struct Registry {
    pinned: BTreeMap<String, Arc<ServedQuery>>,
    cache: Option<ArtifactCache>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a pinned served query (replacing any previous one of the
    /// same name). Pinned queries stay resident for the process
    /// lifetime and shadow same-named artifacts in the cache's store.
    pub fn insert(&mut self, q: ServedQuery) {
        self.pinned.insert(q.name().to_string(), Arc::new(q));
    }

    /// Attaches the LRU artifact cache serving non-pinned queries.
    pub fn with_cache(mut self, cache: ArtifactCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached cache, if any (stats reporting).
    pub fn cache(&self) -> Option<&ArtifactCache> {
        self.cache.as_ref()
    }

    /// Served query names, sorted: pinned plus everything the cache's
    /// store can load on demand.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.pinned.keys().cloned().collect();
        if let Some(cache) = &self.cache {
            for name in cache.known_names() {
                if !self.pinned.contains_key(&name) {
                    names.push(name);
                }
            }
        }
        names.sort();
        names
    }

    /// Number of pinned queries (cache-served ones are unbounded-on-disk
    /// and not counted here).
    pub fn len(&self) -> usize {
        self.pinned.len()
    }

    /// True when no queries are pinned and no cache is attached.
    pub fn is_empty(&self) -> bool {
        self.pinned.is_empty() && self.cache.is_none()
    }

    /// True when `name` can be served without a cold artifact load —
    /// pinned, or currently resident in the cache. The shards use this
    /// to decide whether an `explain` is cheap enough to run inline.
    pub fn is_resident(&self, name: &str) -> bool {
        self.pinned.contains_key(name) || self.cache.as_ref().is_some_and(|c| c.is_resident(name))
    }

    /// Resolves a query by name: pinned first, then the cache.
    pub fn get(&self, name: &str) -> Result<Arc<ServedQuery>, (String, String)> {
        if let Some(q) = self.pinned.get(name) {
            return Ok(q.clone());
        }
        if let Some(cache) = &self.cache {
            return cache.get(name);
        }
        Err((
            "unknown_query".to_string(),
            format!(
                "query `{name}` is not served (available: {})",
                self.names().join(", ")
            ),
        ))
    }

    /// Every resident query by name: the pinned ones plus whatever the
    /// cache holds right now.
    fn resident(&self) -> BTreeMap<String, Arc<ServedQuery>> {
        let mut resident = self.pinned.clone();
        for q in self.cache.iter().flat_map(ArtifactCache::resident) {
            resident.entry(q.name().to_string()).or_insert(q);
        }
        resident
    }

    /// Per-query health snapshots, keyed by query name.
    pub fn health(&self) -> Value {
        let entries = self.resident().into_iter();
        Value::Object(entries.map(|(name, q)| (name, q.health())).collect())
    }

    /// The `discovery` object of `stats`: per [`MEMOIZED`] strategy, the
    /// memo counters of its compiled instances summed over the resident
    /// queries. An evicted query takes its counters with it.
    pub fn discovery_stats(&self) -> Value {
        let mut sums = [MemoStats::default(); 2];
        for q in self.resident().values() {
            for (sum, s) in sums.iter_mut().zip(MEMOIZED) {
                let stats = q.strategies[s as usize].memo_stats().unwrap_or_default();
                sum.hits += stats.hits;
                sum.misses += stats.misses;
                sum.entries += stats.entries;
            }
        }
        let counters = |s: MemoStats| {
            obj(vec![
                ("memo_hits", num(s.hits as f64)),
                ("memo_misses", num(s.misses as f64)),
                ("memo_entries", num(s.entries as f64)),
            ])
        };
        obj((MEMOIZED.iter().zip(sums))
            .map(|(s, sum)| (s.name(), counters(sum)))
            .collect())
    }

    /// Dispatches a query-addressed request to the right [`ServedQuery`],
    /// returning the response body and the call's fault accounting.
    pub fn dispatch(&self, req: &Request) -> (Result<Body, (String, String)>, CallStats) {
        match req.method.as_str() {
            "list_queries" => (
                Ok(Body::Value(Value::Array(
                    self.names().into_iter().map(Value::String).collect(),
                ))),
                CallStats::default(),
            ),
            _ => {
                let name = match req.query.as_deref() {
                    Some(n) => n,
                    None => {
                        return (
                            Err((
                                "bad_request".to_string(),
                                format!("method `{}` requires a `query` field", req.method),
                            )),
                            CallStats::default(),
                        )
                    }
                };
                match self.get(name) {
                    Ok(served) => served.handle(&req.method, &req.qa),
                    Err(e) => (Err(e), CallStats::default()),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_catalog::{Column, ColumnStats, DataType, Table};
    use rqp_common::MultiGrid;
    use rqp_optimizer::{Predicate, PredicateKind};

    #[test]
    fn every_strategy_method_of_the_table_is_answered() {
        let mut cat = Catalog::new();
        for (name, rows) in [("f", 100_000u64), ("d", 1_000)] {
            let k = Column::new("k", DataType::Int, ColumnStats::uniform(rows)).with_index();
            cat.add_table(Table::new(name, rows, vec![k])).unwrap();
        }
        let cat: &'static Catalog = Box::leak(Box::new(cat));
        let join = PredicateKind::Join {
            left: 0,
            left_col: 0,
            right: 1,
            right_col: 0,
        };
        let query = QuerySpec {
            name: "q".into(),
            relations: vec![0, 1],
            predicates: vec![Predicate {
                label: "f-d".into(),
                kind: join,
            }],
            epps: vec![0],
        };
        let opt = Optimizer::new(
            cat,
            &query,
            CostParams::default(),
            EnumerationMode::LeftDeep,
        );
        let grid = MultiGrid::uniform(1, 1e-5, 8);
        let artifact = CompiledArtifact::compile(&opt.unwrap(), grid, 2.0, 0.2, 1);
        let served = ServedQuery::from_artifact(artifact, cat).unwrap();
        for s in Strategy::ALL {
            let (result, _) = served.handle(s.method(), &[0.01]);
            let body = result.unwrap_or_else(|e| panic!("{}: {e:?}", s.method()));
            let algorithm = format!("\"algorithm\":\"{}\"", s.name());
            assert!(body.render().contains(&algorithm), "{}", body.render());
        }
        let (result, _) = served.handle("run_sb", &[0.01]);
        assert_eq!(result.err().map(|e| e.0).as_deref(), Some("unknown_method"));
    }
}
