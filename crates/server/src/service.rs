//! Artifact-backed query service: one [`ServedQuery`] per compiled
//! template, dispatching `explain` / `run_*` requests.
//!
//! A served query is constructed from a [`CompiledArtifact`] without
//! re-running any offline work: the surface, contour schedule, reduced
//! bouquet and recost matrix all come straight off disk. Construction
//! rebuilds the optimizer, the native choice and the penalty-aware
//! selection, and compiles the three discovery strategies, which for
//! SpillBound and AlignedBound is a contour schedule and an empty memo.
//! Requests construct nothing: each strategy's per-(contour, pins)
//! analysis is done by the first request that reaches that state and
//! kept for all later ones. A served query *owns* its artifact state
//! (boxed, with internally self-referential borrows — see the safety
//! notes on [`ServedQuery::from_artifact`]), so dropping one — e.g. on
//! LRU eviction from the [`crate::cache::ArtifactCache`] — actually
//! frees its surface and recost matrix, unlike the previous `Box::leak`
//! grounding which pinned every loaded artifact for the process
//! lifetime.
//!
//! The immutable `explain` response body is rendered to JSON once at
//! construction and served as a shared pre-serialized string
//! ([`Body::Raw`]) — the fast path the bench-serve throughput target
//! rides on. [`crate::protocol::ok_response_raw`] keeps the framing
//! byte-identical to the per-request serialization it replaces.

use crate::cache::ArtifactCache;
use crate::protocol::{num, num_arr, obj, string, Request};
use rqp_artifacts::CompiledArtifact;
use rqp_catalog::Catalog;
use rqp_common::{GridIdx, RqpError};
use rqp_core::{
    penalty, AlignedBound, CachedOracle, EvalContext, ExecutionOracle, FaultyOracle, MemoStats,
    NativeChoice, PenaltyConfig, PenaltySelection, PlanBouquet, PriorConfig, RunReport,
    SelectivityPrior, SpillBound, SpillMemo,
};
use rqp_ess::{EssSurface, SurfaceAccess};
use rqp_faults::{Attempt, BreakerConfig, CircuitBreaker, FaultPlan, RetryPolicy};
use rqp_optimizer::{CostParams, EnumerationMode, Optimizer, QuerySpec};
use serde::Value;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

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
/// is byte-identical to serializing the equivalent `Value` — asserted
/// at construction and relied on by the determinism tests.
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
/// thing a request can leave behind in them is a memo entry that any
/// other request would have computed identically.
///
/// Field order is load-bearing: Rust drops fields in declaration order,
/// and `ctx` and the strategies borrow from the boxed
/// `opt`/`surface`/`query` owners declared after them, so the borrowers
/// are destroyed before their referents.
pub struct ServedQuery {
    name: String,
    ctx: EvalContext<'static>,
    bouquet: PlanBouquet<'static>,
    sb: SpillBound<'static>,
    ab: AlignedBound<'static>,
    native: NativeChoice,
    /// Offline penalty-aware selection, recomputed at load time from the
    /// artifact's matrix (and verified against the persisted summary).
    penalty: PenaltySelection,
    /// `explain` response body, rendered once at construction.
    explain_raw: Arc<str>,
    /// Resident-footprint estimate, for the LRU cache's byte accounting.
    approx_bytes: usize,
    faults: Option<Arc<FaultPlan>>,
    retry: RetryPolicy,
    breaker: CircuitBreaker,
    // Owners of the state `ctx`/`bouquet` borrow. The boxes give the
    // referents stable heap addresses across moves of `ServedQuery`.
    opt: Box<Optimizer<'static>>,
    surface: Box<EssSurface>,
    #[allow(dead_code)] // owned solely so `opt`'s borrow stays valid
    query: Box<QuerySpec>,
}

impl ServedQuery {
    /// Builds self-owned service state from the artifact. Fails (with a
    /// human-readable message) if the artifact's query does not validate
    /// against `catalog` or its components disagree with each other.
    ///
    /// # Safety notes
    ///
    /// The `'static` lifetimes on `ctx` and the strategies are a lie told to the
    /// borrow checker: they actually borrow the `Box<QuerySpec>` /
    /// `Box<EssSurface>` / `Box<Optimizer>` fields of the same struct.
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
            penalty: penalty_summary,
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
        let ctx = EvalContext::from_parts(surface_ref, opt_ref, Cow::Owned(matrix))
            .map_err(|e| format!("artifact `{name}`: {e}"))?;
        let bouquet =
            PlanBouquet::from_parts(surface_ref, opt_ref, ratio, lambda, bouquet, rho_red)
                .map_err(|e| format!("artifact `{name}`: {e}"))?;
        let sb = SpillBound::new(surface_ref, opt_ref, ratio);
        let ab = AlignedBound::new(surface_ref, opt_ref, ratio);
        // The memos may fill up to their cap while the query is resident.
        let approx_bytes = approx_bytes + sb.memo_bytes_bound() + ab.memo_bytes_bound();
        let native = NativeChoice::compute(surface_ref, opt_ref);
        // Rebuild the penalty-aware selection from the prior the artifact
        // records (defaults when the artifact predates the field): cheap
        // — a pure scan of the already-loaded matrix — and verifiable
        // against the persisted summary.
        let prior_config = match &penalty_summary {
            Some(s) => PriorConfig {
                seed: s.prior_seed,
                sigma: s.prior_sigma,
                jitter: s.prior_jitter,
            },
            None => PriorConfig::default(),
        };
        let alpha = penalty_summary
            .as_ref()
            .map(|s| s.alpha)
            .unwrap_or(PenaltyConfig::default().alpha);
        let prior = SelectivityPrior::lognormal(surface_ref.grid(), &native.qe_sels, prior_config)
            .map_err(|e| format!("artifact `{name}`: penalty prior: {e}"))?;
        let penalty_cfg = PenaltyConfig {
            alpha,
            ..PenaltyConfig::default()
        };
        let penalty = penalty::select_ctx(&ctx, &prior, &penalty_cfg)
            .map_err(|e| format!("artifact `{name}`: penalty selection: {e}"))?;
        if let Some(s) = &penalty_summary {
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
        let explain_value = explain_value(
            &name,
            ratio,
            lambda,
            surface_ref,
            &bouquet,
            &native,
            &penalty,
        );
        let explain_raw: Arc<str> =
            Arc::from(serde_json::to_string(&explain_value).expect("explain serializes"));
        Ok(Self {
            name,
            ctx,
            bouquet,
            sb,
            ab,
            native,
            penalty,
            explain_raw,
            approx_bytes,
            faults: None,
            retry: RetryPolicy::no_sleep(6),
            breaker: CircuitBreaker::new(BreakerConfig::default()),
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

    /// Memo counters of the compiled SpillBound and AlignedBound, in order.
    pub fn discovery_stats(&self) -> [MemoStats; 2] {
        [self.sb.memo_stats(), self.ab.memo_stats()]
    }

    /// The cached, pre-serialized `explain` response body.
    pub fn explain_body(&self) -> Body {
        Body::Raw(self.explain_raw.clone())
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
    ) -> Vec<(String, Value)> {
        let learnt = Value::Array(
            report
                .learnt
                .iter()
                .map(|l| match l {
                    Some(s) => Value::Num(*s),
                    None => Value::Null,
                })
                .collect(),
        );
        vec![
            ("total_cost".into(), num(report.total_cost)),
            (
                "sub_optimality".into(),
                num(report.sub_optimality(self.surface.opt_cost(qa_idx))),
            ),
            ("mso_guarantee".into(), num(guarantee)),
            ("executions".into(), num(report.executions() as f64)),
            ("completed".into(), Value::Bool(report.completed)),
            (
                "last_contour".into(),
                match report.last_contour() {
                    Some(i) => num(i as f64),
                    None => Value::Null,
                },
            ),
            ("learnt".into(), learnt),
        ]
    }

    /// The native-baseline response body. With a `degraded_reason`, the
    /// body is explicitly labelled as a fallback (`degraded: true`,
    /// plus the algorithm the client actually asked for).
    fn native_response(
        &self,
        requested: &str,
        qa_idx: GridIdx,
        coords: &[usize],
        degraded_reason: Option<&str>,
    ) -> Value {
        let mut fields = self.run_common("native", qa_idx, coords);
        let sub = self.native.sub_optimality(&self.surface, &self.opt, qa_idx);
        let opt_cost = self.surface.opt_cost(qa_idx);
        fields.push(("est_sels", num_arr(self.native.qe_sels.iter().copied())));
        fields.push(("est_cost", num(self.native.est_cost)));
        fields.push(("total_cost", num(sub * opt_cost)));
        fields.push(("sub_optimality", num(sub)));
        fields.push(("completed", Value::Bool(true)));
        match degraded_reason {
            Some(reason) => {
                fields.push(("degraded", Value::Bool(true)));
                fields.push(("degraded_reason", string(reason)));
                fields.push(("requested_algorithm", string(requested)));
            }
            None => fields.push(("degraded", Value::Bool(false))),
        }
        obj(fields)
    }

    /// The penalty-aware response: the offline-chosen plan is charged
    /// its full recost at `qa`, like the native baseline, plus the risk
    /// numbers and prior identity that justified the choice.
    fn penaltyaware_response(&self, qa_idx: GridIdx, coords: &[usize]) -> Value {
        let mut fields = self.run_common("penaltyaware", qa_idx, coords);
        let opt_cost = self.surface.opt_cost(qa_idx);
        let cost = match self.penalty.chosen.plan_id {
            Some(pid) => self.ctx.matrix().cost(pid, qa_idx),
            None => {
                let sels = self.opt.sels_at(&self.surface.grid().sels(qa_idx));
                self.opt.cost_plan(&self.penalty.chosen_plan, &sels)
            }
        };
        fields.push((
            "chosen_plan",
            match self.penalty.chosen.plan_id {
                Some(pid) => num(pid as f64),
                None => Value::Null,
            },
        ));
        fields.push((
            "chosen_fingerprint",
            string(format!("{:016x}", self.penalty.chosen.fingerprint)),
        ));
        fields.push((
            "prior_hash",
            string(format!("{:016x}", self.penalty.prior_hash)),
        ));
        fields.push(("alpha", num(self.penalty.alpha)));
        fields.push(("expected_penalty", num(self.penalty.chosen.expected)));
        fields.push(("cvar", num(self.penalty.chosen.cvar)));
        fields.push(("native_expected", num(self.penalty.native.expected)));
        fields.push(("total_cost", num(cost)));
        fields.push(("sub_optimality", num(cost / opt_cost)));
        fields.push(("completed", Value::Bool(true)));
        fields.push(("degraded", Value::Bool(false)));
        obj(fields)
    }

    /// The penalty-aware selection this query serves (tests and stats).
    pub fn penalty_selection(&self) -> &PenaltySelection {
        &self.penalty
    }

    /// Runs the compiled strategy behind `method` against a fresh per-call
    /// oracle, wrapped in the fault plan when one is attached.
    fn run_discovery(
        &self,
        method: &str,
        qa_idx: GridIdx,
        stats: &mut CallStats,
    ) -> rqp_common::Result<(RunReport, f64, &'static str)> {
        let mut memo = SpillMemo::new();
        let mut cached = CachedOracle::at_grid(&self.ctx, qa_idx, &mut memo);
        let go = |oracle: &mut dyn ExecutionOracle| match method {
            "run_spillbound" => Ok((self.sb.run(oracle)?, self.sb.mso_guarantee(), "spillbound")),
            "run_alignedbound" => Ok((
                self.ab.run(oracle)?,
                self.ab.mso_guarantee(),
                "alignedbound",
            )),
            "run_planbouquet" => Ok((
                self.bouquet.run(oracle)?,
                self.bouquet.mso_guarantee(),
                "planbouquet",
            )),
            other => Err(RqpError::InvalidQuery(format!(
                "`{other}` is not a discovery method"
            ))),
        };
        match &self.faults {
            Some(plan) => {
                let mut faulty =
                    FaultyOracle::new(cached, plan.as_ref()).with_retry(self.retry.clone());
                let result = go(&mut faulty);
                let fs = faulty.stats();
                stats.faults_injected += fs.faults_injected;
                stats.retries += fs.retries;
                stats.wasted_cost += fs.wasted_cost;
                result
            }
            None => go(&mut cached),
        }
    }

    /// Runs `method` under the per-query circuit breaker: an open
    /// breaker (or a failure that opens it) is answered by the native
    /// baseline with `degraded: true` instead of an error — every
    /// request gets a well-formed response while the breaker recovers
    /// via its half-open probe.
    fn run_guarded(
        &self,
        method: &str,
        qa_idx: GridIdx,
        coords: &[usize],
        stats: &mut CallStats,
    ) -> Result<Value, (String, String)> {
        let requested = method.strip_prefix("run_").unwrap_or(method);
        if matches!(self.breaker.allow_attempt(), Attempt::Degrade) {
            stats.degraded = true;
            return Ok(self.native_response(
                requested,
                qa_idx,
                coords,
                Some("circuit breaker open; serving native fallback"),
            ));
        }
        match self.run_discovery(method, qa_idx, stats) {
            Ok((report, guarantee, algorithm)) => {
                self.breaker.record_success();
                let mut fields: Vec<(String, Value)> = self
                    .run_common(algorithm, qa_idx, coords)
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect();
                fields.extend(self.report_fields(&report, qa_idx, guarantee));
                fields.push(("degraded".into(), Value::Bool(false)));
                Ok(Value::Object(fields))
            }
            Err(e @ RqpError::Fault(_)) => {
                stats.breaker_opened = self.breaker.record_failure();
                if self.breaker.is_open() {
                    stats.degraded = true;
                    Ok(self.native_response(
                        requested,
                        qa_idx,
                        coords,
                        Some("execution faults tripped the circuit breaker"),
                    ))
                } else {
                    Err((e.kind().into(), e.to_string()))
                }
            }
            Err(e) => Err((e.kind().into(), e.to_string())),
        }
    }

    /// Dispatches one `explain` / `run_*` method. Returns
    /// `Err((kind, message))` for protocol-level failures, plus the
    /// call's fault accounting. `explain` is answered from the cached
    /// pre-serialized body without touching the surface.
    pub fn handle(&self, method: &str, qa: &[f64]) -> (Result<Body, (String, String)>, CallStats) {
        let mut stats = CallStats::default();
        let bad = |m: String| ("bad_request".to_string(), m);
        let result = match method {
            "explain" => Ok(self.explain_body()),
            "run_native" => self.snap(qa).map_err(bad).map(|(qa_idx, coords)| {
                Body::Value(self.native_response("native", qa_idx, &coords, None))
            }),
            "run_penaltyaware" => self
                .snap(qa)
                .map_err(bad)
                .map(|(qa_idx, coords)| Body::Value(self.penaltyaware_response(qa_idx, &coords))),
            "run_spillbound" | "run_alignedbound" | "run_planbouquet" => {
                match self.snap(qa).map_err(bad) {
                    Ok((qa_idx, coords)) => self
                        .run_guarded(method, qa_idx, &coords, &mut stats)
                        .map(Body::Value),
                    Err(e) => Err(e),
                }
            }
            other => Err(("unknown_method".into(), format!("unknown method `{other}`"))),
        };
        (result, stats)
    }
}

/// The `explain` response body for one compiled template. A free
/// function over the already-validated parts so the constructor can
/// render and cache it before `ServedQuery` exists.
fn explain_value(
    name: &str,
    ratio: f64,
    lambda: f64,
    surface: &EssSurface,
    bouquet: &PlanBouquet<'_>,
    native: &NativeChoice,
    penalty: &PenaltySelection,
) -> Value {
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
        // equals `grid_len`; a lazy warm start would report only the
        // contour cells its sparse artifact persisted.
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

    /// The `discovery` object of `stats`: per strategy, the memo counters
    /// of its compiled instances summed over the resident queries. An
    /// evicted query takes its counters with it.
    pub fn discovery_stats(&self) -> Value {
        let mut sums = [MemoStats::default(); 2];
        for q in self.resident().values() {
            for (sum, stats) in sums.iter_mut().zip(q.discovery_stats()) {
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
        obj(vec![
            ("spillbound", counters(sums[0])),
            ("alignedbound", counters(sums[1])),
        ])
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
