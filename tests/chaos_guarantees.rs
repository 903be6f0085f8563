//! Chaos guarantees: the paper's MSO bounds must survive fault
//! injection. With transient faults at realistic rates, SpillBound and
//! AlignedBound still terminate with sub-optimality within the
//! guarantee at *every* grid location, bit-identically reproducible
//! from the seed. With persistent faults, every caller gets a typed
//! degraded/error response — never a hang or a panic (a wall-clock
//! watchdog enforces this). The live-server test drives the circuit
//! breaker through its full open → degraded → half-open → closed cycle.

use rqp::artifacts::CompiledArtifact;
use rqp::catalog::{tpcds, Catalog, Column, ColumnStats, DataSet, DataType, Table};
use rqp::common::{MultiGrid, RqpError};
use rqp::core::{
    penalty, spillbound_guarantee, AlignedBound, CostOracle, EvalContext, FaultyOracle,
    NativeChoice, PenaltyConfig, PriorConfig, SelectivityPrior, SpillBound,
};
use rqp::ess::EssSurface;
use rqp::executor::Executor;
use rqp::faults::{BreakerConfig, FaultPlan, FaultSite, RetryPolicy};
use rqp::obs::MetricValue;
use rqp::optimizer::{CostParams, EnumerationMode, Optimizer, Predicate, PredicateKind, QuerySpec};
use rqp::runner::{measure_qa, ExecOracle};
use rqp::server::{serve, Client, Registry, ServedQuery, ServerConfig};
use rqp::storage::{PagedStore, StorageConfig};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Fails the test if `body` runs longer than `secs` — faults must
/// surface as typed errors, never as hangs.
fn with_watchdog(secs: u64, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        // Completed or panicked: join either way so a panic propagates.
        Ok(()) | Err(RecvTimeoutError::Disconnected) => worker.join().unwrap(),
        Err(RecvTimeoutError::Timeout) => {
            panic!("watchdog: test body still running after {secs}s — a fault caused a hang")
        }
    }
}

struct Fx {
    opt: Optimizer<'static>,
    surface: EssSurface,
}

/// 2D Q91 over an 8×8 grid, shared across tests (compile dominates).
fn fx() -> &'static Fx {
    static FX: OnceLock<Fx> = OnceLock::new();
    FX.get_or_init(|| {
        let catalog: &'static Catalog = Box::leak(Box::new(tpcds::catalog_sf100()));
        let query: &'static QuerySpec =
            Box::leak(Box::new(rqp::workloads::q91_with_dims(catalog, 2).query));
        let opt = Optimizer::new(
            catalog,
            query,
            CostParams::default(),
            EnumerationMode::LeftDeep,
        )
        .unwrap();
        let surface = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-5, 8));
        Fx { opt, surface }
    })
}

/// Per-(location, algorithm) plan: independent but reproducible streams.
fn point_plan(seed: u64, qa: usize, salt: u64, rate: f64) -> FaultPlan {
    FaultPlan::new(seed ^ (qa as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt)
        .with_site(FaultSite::OracleSpill, rate)
        .with_site(FaultSite::OracleFull, rate)
}

#[test]
fn transient_faults_preserve_the_mso_bound_at_every_location() {
    with_watchdog(300, || {
        let f = fx();
        let bound = spillbound_guarantee(2);
        let sb = SpillBound::new(&f.surface, &f.opt, 2.0);
        let ab = AlignedBound::new(&f.surface, &f.opt, 2.0);
        for rate in [0.05, 0.1] {
            let mut injected = 0u64;
            for qa in 0..f.surface.len() {
                let opt_cost = f.surface.opt_cost(qa);
                for salt in [1u64, 2] {
                    let plan = point_plan(9001, qa, salt, rate);
                    let inner = CostOracle::at_grid(&f.opt, f.surface.grid(), qa);
                    let mut oracle = FaultyOracle::new(inner, &plan);
                    let report = match salt {
                        1 => sb.run(&mut oracle),
                        _ => ab.run(&mut oracle),
                    }
                    .unwrap_or_else(|e| {
                        panic!("rate-{rate} transients must be absorbed at {qa}: {e}")
                    });
                    assert!(report.completed, "discovery incomplete at {qa}");
                    let sub = report.sub_optimality(opt_cost);
                    assert!(
                        sub <= bound * (1.0 + 1e-9),
                        "sub-optimality {sub} exceeds MSO bound {bound} at {qa} (rate {rate})"
                    );
                    injected += oracle.stats().faults_injected;
                }
            }
            // The sweep actually exercised the fault paths.
            assert!(injected > 0, "rate-{rate} sweep injected no faults");
        }
    });
}

#[test]
fn fault_streams_replay_bit_identically_from_the_seed() {
    with_watchdog(300, || {
        let f = fx();
        let sweep = || {
            let sb = SpillBound::new(&f.surface, &f.opt, 2.0);
            let mut out = Vec::new();
            for qa in 0..f.surface.len() {
                let plan = point_plan(4242, qa, 1, 0.1);
                let inner = CostOracle::at_grid(&f.opt, f.surface.grid(), qa);
                let mut oracle = FaultyOracle::new(inner, &plan);
                let report = sb.run(&mut oracle).unwrap();
                out.push((
                    report.total_cost.to_bits(),
                    report.executions(),
                    oracle.stats().clone(),
                ));
            }
            out
        };
        let (first, second) = (sweep(), sweep());
        assert_eq!(first, second, "same seed must replay bit-identically");
        // And transients leave the discovery cost untouched: the
        // retried run costs exactly what a fault-free run costs.
        let sb = SpillBound::new(&f.surface, &f.opt, 2.0);
        for (qa, faulty) in first.iter().enumerate() {
            let mut clean = CostOracle::at_grid(&f.opt, f.surface.grid(), qa);
            let report = sb.run(&mut clean).unwrap();
            assert_eq!(
                report.total_cost.to_bits(),
                faulty.0,
                "absorbed faults changed the reported cost at {qa}"
            );
        }
    });
}

#[test]
fn persistent_faults_become_typed_errors_not_hangs() {
    with_watchdog(60, || {
        let f = fx();
        let sb = SpillBound::new(&f.surface, &f.opt, 2.0);
        let ab = AlignedBound::new(&f.surface, &f.opt, 2.0);
        for salt in [1u64, 2] {
            let plan = FaultPlan::new(7 ^ salt)
                .with_site(FaultSite::OracleSpill, 1.0)
                .with_site(FaultSite::OracleFull, 1.0);
            let inner = CostOracle::at_grid(&f.opt, f.surface.grid(), 0);
            let mut oracle = FaultyOracle::new(inner, &plan);
            let res = match salt {
                1 => sb.run(&mut oracle),
                _ => ab.run(&mut oracle),
            };
            match res {
                Err(RqpError::Fault(msg)) => {
                    assert!(msg.contains("persisted"), "unexpected message: {msg}")
                }
                other => panic!("expected a typed fault, got {other:?}"),
            }
        }
        // A fault budget of zero degrades immediately, also typed.
        let plan = FaultPlan::new(7).with_site(FaultSite::OracleSpill, 1.0);
        let inner = CostOracle::at_grid(&f.opt, f.surface.grid(), 0);
        let mut oracle = FaultyOracle::new(inner, &plan).with_fault_budget(0);
        match sb.run(&mut oracle) {
            Err(RqpError::Fault(_)) => {}
            other => panic!("expected a typed fault, got {other:?}"),
        }
    });
}

/// Builds the penalty-aware fixture pieces over the shared 2D surface:
/// an eval context, the seeded prior centred on the native estimate, and
/// the default expected-penalty objective.
fn pa_parts(f: &'static Fx) -> (EvalContext<'static>, SelectivityPrior, PenaltyConfig) {
    let ctx = EvalContext::with_threads(&f.surface, &f.opt, 1);
    let choice = NativeChoice::compute(&f.surface, &f.opt);
    let prior =
        SelectivityPrior::lognormal(f.surface.grid(), &choice.qe_sels, PriorConfig::default())
            .expect("prior over the ESS grid");
    (ctx, prior, PenaltyConfig::default())
}

/// Transient oracle faults during penalty-aware risk evaluation are
/// absorbed by bounded retries and cannot perturb the selection: every
/// faulted round reproduces the clean selection bit-for-bit (prior hash,
/// chosen fingerprint, expected penalty, CVaR, and the full per-candidate
/// risk vector), and the same fault seed replays identical fault
/// counters.
#[test]
fn transient_faults_leave_penalty_selection_bit_identical() {
    with_watchdog(300, || {
        let f = fx();
        let (ctx, prior, cfg) = pa_parts(f);
        let clean = penalty::select(&ctx, &prior, &cfg, 1).expect("clean selection");
        let clean_risks: Vec<(u64, u64, u64)> = clean
            .risks
            .iter()
            .map(|r| (r.fingerprint, r.expected.to_bits(), r.cvar.to_bits()))
            .collect();
        let retry = RetryPolicy::no_sleep(6);
        for rate in [0.05, 0.1] {
            let mut injected = 0u64;
            for round in 0..8u64 {
                let mk_plan = || {
                    FaultPlan::new(0xBEEF ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                        .with_site(FaultSite::OracleFull, rate)
                };
                let (sel, stats) =
                    penalty::select_ctx_faulted(&ctx, &prior, &cfg, &mk_plan(), &retry)
                        .unwrap_or_else(|e| {
                            panic!("rate-{rate} transients must be absorbed (round {round}): {e}")
                        });
                assert_eq!(sel.prior_hash, clean.prior_hash, "prior hash drifted");
                assert_eq!(
                    sel.chosen.fingerprint, clean.chosen.fingerprint,
                    "faults changed the chosen plan (round {round}, rate {rate})"
                );
                assert_eq!(
                    sel.chosen.expected.to_bits(),
                    clean.chosen.expected.to_bits(),
                    "expected penalty drifted under absorbed faults"
                );
                assert_eq!(
                    sel.chosen.cvar.to_bits(),
                    clean.chosen.cvar.to_bits(),
                    "CVaR drifted under absorbed faults"
                );
                let risks: Vec<(u64, u64, u64)> = sel
                    .risks
                    .iter()
                    .map(|r| (r.fingerprint, r.expected.to_bits(), r.cvar.to_bits()))
                    .collect();
                assert_eq!(risks, clean_risks, "per-candidate risks drifted");
                // A fresh plan from the same seed replays the same
                // fault stream (FaultPlan carries its PRNG state, so
                // the instance itself is not reusable).
                let (_, replay) =
                    penalty::select_ctx_faulted(&ctx, &prior, &cfg, &mk_plan(), &retry)
                        .expect("replay of an absorbed round");
                assert_eq!(stats, replay, "same seed must replay identical fault stats");
                injected += stats.faults_injected;
            }
            assert!(injected > 0, "rate-{rate} sweep injected no faults");
        }
    });
}

/// A persistent oracle fault exhausts the retry budget during risk
/// evaluation and surfaces as a typed fault naming the candidate — never
/// a hang, never a silently skewed selection.
#[test]
fn persistent_faults_fail_penalty_selection_with_a_typed_error() {
    with_watchdog(60, || {
        let f = fx();
        let (ctx, prior, cfg) = pa_parts(f);
        let plan = FaultPlan::new(7).with_site(FaultSite::OracleFull, 1.0);
        match penalty::select_ctx_faulted(&ctx, &prior, &cfg, &plan, &RetryPolicy::no_sleep(4)) {
            Err(RqpError::Fault(msg)) => {
                assert!(msg.contains("persisted"), "unexpected message: {msg}");
                assert!(
                    msg.contains("risk evaluation"),
                    "fault should name the penalty stage: {msg}"
                );
            }
            other => panic!("expected a typed fault, got {other:?}"),
        }
    });
}

/// Executable 2D fixture for page-level faults: materialized data plus a
/// surface, so SpillBound runs on the real engine over the paged store.
struct PageFx {
    catalog: &'static Catalog,
    query: &'static QuerySpec,
    data: DataSet,
    opt: Optimizer<'static>,
    surface: EssSurface,
}

fn page_fx() -> &'static PageFx {
    static FX: OnceLock<PageFx> = OnceLock::new();
    FX.get_or_init(|| {
        let catalog: &'static Catalog = Box::leak(Box::new(tpcds::catalog(0.05)));
        let query: &'static QuerySpec =
            Box::leak(Box::new(rqp::workloads::q91_with_dims(catalog, 2).query));
        let spec =
            rqp::workloads::executable_genspec_with_errors(catalog, query, 1337, &[30.0, 10.0]);
        let data = DataSet::generate(catalog, &spec).unwrap();
        let opt = Optimizer::new(
            catalog,
            query,
            CostParams::default(),
            EnumerationMode::LeftDeep,
        )
        .unwrap();
        let surface = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-7, 8));
        PageFx {
            catalog,
            query,
            data,
            opt,
            surface,
        }
    })
}

fn page_counter(store: &PagedStore, name: &str) -> u64 {
    store
        .registry()
        .snapshot()
        .into_iter()
        .find_map(|(n, v)| match v {
            MetricValue::Counter(c) if n == name => Some(c),
            _ => None,
        })
        .unwrap_or(0)
}

/// One SpillBound run over a freshly materialized paged store (16
/// frames) with `plan` armed only after materialization and ground-truth
/// measurement, so every replay of the same seed sees the same pages and
/// the same fault-shot sequence. Returns the run outcome (total cost and
/// sub-optimality, both as bits) and the injected/retry counters.
#[allow(clippy::type_complexity)]
fn paged_sb_run(
    f: &'static PageFx,
    plan: Option<Arc<FaultPlan>>,
) -> (
    Result<(u64, u64), RqpError>,
    u64, // faults injected across the three page sites
    u64, // pool-level retries that absorbed them
) {
    let config = StorageConfig::default().with_pool_frames(16);
    let store = PagedStore::materialize(f.catalog, &f.data, config).expect("materialize");
    let qa = measure_qa(&store, f.query);
    let (opt_plan, _) = f.opt.optimize_at(&qa);
    let opt_spent = Executor::new(f.catalog, f.query, &store, CostParams::default())
        .run_full(&opt_plan, f64::INFINITY)
        .expect("clean optimal run")
        .spent;
    store.set_faults(plan);
    let sb = SpillBound::new(&f.surface, &f.opt, 2.0);
    let mut oracle = ExecOracle::new(
        Executor::new(f.catalog, f.query, &store, CostParams::default()),
        &f.opt,
        f.surface.grid(),
    );
    let res = sb.run(&mut oracle).map(|r| {
        (
            r.total_cost.to_bits(),
            r.sub_optimality(opt_spent).to_bits(),
        )
    });
    let injected = page_counter(&store, "storage.faults.torn_write")
        + page_counter(&store, "storage.faults.failed_pin")
        + page_counter(&store, "storage.faults.checksum");
    (
        res,
        injected,
        page_counter(&store, "storage.faults.retries"),
    )
}

/// Transient page-level faults — torn writes, failed pins, checksum
/// mismatches — are absorbed by the pool's bounded retries: SpillBound
/// still completes within its MSO bound, and the same seed replays
/// bit-identically (same total cost, same fault counters), per site.
#[test]
fn transient_page_faults_preserve_the_bound_and_replay() {
    with_watchdog(300, || {
        let f = page_fx();
        let bound = spillbound_guarantee(2);
        for site in [
            FaultSite::PageTornWrite,
            FaultSite::PagePinFailed,
            FaultSite::PageChecksum,
        ] {
            // Escalation past the pool needs FAULT_RETRIES consecutive
            // shots, so 2% per call injects plenty of faults (pins and
            // page I/Os number in the thousands) while keeping
            // executor-level aborts rare enough for the oracle's retry
            // budget to absorb.
            let run = || {
                paged_sb_run(
                    f,
                    Some(Arc::new(FaultPlan::new(0xC0FFEE).with_site(site, 0.02))),
                )
            };
            let (first, second) = (run(), run());
            let (res, injected, retries) = &first;
            let (_, sub_bits) = res
                .as_ref()
                .unwrap_or_else(|e| panic!("{site:?} transients must be absorbed: {e}"));
            let sub = f64::from_bits(*sub_bits);
            assert!(
                sub <= bound * (1.0 + 1e-9),
                "{site:?}: sub-optimality {sub} exceeds MSO bound {bound}"
            );
            assert!(*injected > 0, "{site:?} never fired at rate 0.2");
            assert!(*retries > 0, "{site:?} faults were never retried");
            assert_eq!(
                (first.0.as_ref().ok(), first.1, first.2),
                (second.0.as_ref().ok(), second.1, second.2),
                "{site:?}: same seed must replay bit-identically"
            );
        }
    });
}

/// A persistent page fault (every pin attempt fails) exhausts the
/// bounded retries at both the pool and the oracle layer and surfaces as
/// a typed fault — never a hang, never a silent wrong answer.
#[test]
fn persistent_page_faults_become_typed_errors() {
    with_watchdog(120, || {
        let f = page_fx();
        for site in [FaultSite::PagePinFailed, FaultSite::PageChecksum] {
            let (res, injected, _) =
                paged_sb_run(f, Some(Arc::new(FaultPlan::new(7).with_site(site, 1.0))));
            match res {
                Err(RqpError::Fault(_)) => {}
                other => panic!("{site:?}: expected a typed fault, got {other:?}"),
            }
            assert!(injected > 0);
        }
    });
}

/// A 2-epp star query over a small synthetic catalog (the served-query
/// fixture; core's test fixtures are crate-private).
fn star2() -> (Catalog, QuerySpec) {
    let mut cat = Catalog::new();
    cat.add_table(Table::new(
        "fact",
        1_000_000,
        vec![
            Column::new("f1", DataType::Int, ColumnStats::uniform(10_000)).with_index(),
            Column::new("f2", DataType::Int, ColumnStats::uniform(1_000)).with_index(),
            Column::new("v", DataType::Int, ColumnStats::uniform(1_000)),
        ],
    ))
    .unwrap();
    for (name, rows) in [("d1", 10_000u64), ("d2", 1_000)] {
        cat.add_table(Table::new(
            name,
            rows,
            vec![
                Column::new("k", DataType::Int, ColumnStats::uniform(rows)).with_index(),
                Column::new("a", DataType::Int, ColumnStats::uniform(50)),
            ],
        ))
        .unwrap();
    }
    let query = QuerySpec {
        name: "star2".into(),
        relations: vec![0, 1, 2],
        predicates: vec![
            Predicate {
                label: "f-d1".into(),
                kind: PredicateKind::Join {
                    left: 0,
                    left_col: 0,
                    right: 1,
                    right_col: 0,
                },
            },
            Predicate {
                label: "f-d2".into(),
                kind: PredicateKind::Join {
                    left: 0,
                    left_col: 1,
                    right: 2,
                    right_col: 0,
                },
            },
        ],
        epps: vec![0, 1],
    };
    (cat, query)
}

#[test]
fn server_breaker_degrades_then_recovers() {
    with_watchdog(120, || {
        let (cat, q) = star2();
        let cat: &'static Catalog = Box::leak(Box::new(cat));
        let opt =
            Optimizer::new(cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let artifact = CompiledArtifact::compile(&opt, MultiGrid::uniform(2, 1e-5, 8), 2.0, 0.2, 2);

        // The first two spill probes fail hard, then the fault heals.
        // No retries, so each injected probe fails one whole request.
        let plan = Arc::new(FaultPlan::new(11).with_fail_first(FaultSite::OracleSpill, 2));
        let served = ServedQuery::from_artifact(artifact, cat)
            .unwrap()
            .with_faults(Arc::clone(&plan), RetryPolicy::no_sleep(1))
            .with_breaker(BreakerConfig {
                threshold: 2,
                cooldown: Duration::from_millis(200),
            });
        let mut reg = Registry::new();
        reg.insert(served);
        let handle = serve(reg, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = handle.addr;
        let mut c = Client::connect(addr).unwrap();
        let qa = [0.02, 0.4];

        // Request 1: fault propagates as a typed execution error.
        let r1 = c
            .call_raw(&rqp::server::request_line(
                1.0,
                "run_spillbound",
                Some("star2"),
                &qa,
                None,
            ))
            .unwrap();
        assert!(
            r1.contains("\"kind\":\"execution_fault\""),
            "expected execution_fault, got: {r1}"
        );

        // Request 2: second consecutive fault trips the breaker, and the
        // response degrades to the native plan — labelled as such.
        let r2 = c
            .call_raw(&rqp::server::request_line(
                2.0,
                "run_spillbound",
                Some("star2"),
                &qa,
                None,
            ))
            .unwrap();
        assert!(r2.contains("\"ok\":true"), "{r2}");
        assert!(r2.contains("\"degraded\":true"), "{r2}");
        assert!(r2.contains("\"algorithm\":\"native\""), "{r2}");
        assert!(
            r2.contains("\"requested_algorithm\":\"spillbound\""),
            "{r2}"
        );

        // Request 3: breaker is open — degraded without touching the
        // (now healed) execution path.
        let r3 = c
            .call_raw(&rqp::server::request_line(
                3.0,
                "run_spillbound",
                Some("star2"),
                &qa,
                None,
            ))
            .unwrap();
        assert!(r3.contains("\"degraded\":true"), "{r3}");

        // Health reflects the open breaker.
        let health = c.call(4.0, "health", None, &[], None).unwrap();
        let breaker = health
            .get("result")
            .unwrap()
            .get("queries")
            .unwrap()
            .get("star2")
            .unwrap();
        assert_eq!(
            breaker.get("breaker").unwrap().as_str(),
            Some("open"),
            "{health:?}"
        );

        // After the cooldown the half-open probe finds the fault healed:
        // the breaker closes and full service resumes.
        std::thread::sleep(Duration::from_millis(300));
        let r4 = c
            .call_raw(&rqp::server::request_line(
                5.0,
                "run_spillbound",
                Some("star2"),
                &qa,
                None,
            ))
            .unwrap();
        assert!(r4.contains("\"ok\":true"), "{r4}");
        assert!(r4.contains("\"degraded\":false"), "{r4}");
        assert!(r4.contains("\"algorithm\":\"spillbound\""), "{r4}");

        let health = c.call(6.0, "health", None, &[], None).unwrap();
        let breaker = health
            .get("result")
            .unwrap()
            .get("queries")
            .unwrap()
            .get("star2")
            .unwrap();
        assert_eq!(breaker.get("breaker").unwrap().as_str(), Some("closed"));
        assert!(breaker.get("open_events").unwrap().as_f64().unwrap() >= 1.0);

        // The fault counters surfaced in stats.
        let stats = c.call(7.0, "stats", None, &[], None).unwrap();
        let faults = stats.get("result").unwrap().get("faults").unwrap();
        assert!(faults.get("faults_injected").unwrap().as_f64().unwrap() >= 2.0);
        assert!(faults.get("breaker_open").unwrap().as_f64().unwrap() >= 1.0);
        assert!(faults.get("degraded_responses").unwrap().as_f64().unwrap() >= 2.0);
        // Wasted cost (budget burnt by faulted probes) is observable too:
        // the injected faults above each abandoned a partly-run probe.
        let wasted = faults.get("wasted_cost").unwrap().as_f64().unwrap();
        assert!(wasted > 0.0, "faulted probes must report wasted cost");
        // And the raw registry block mirrors the same gauge.
        let registry = stats.get("result").unwrap().get("registry").unwrap();
        assert_eq!(
            registry
                .get("faults.wasted_cost")
                .unwrap()
                .as_f64()
                .unwrap(),
            wasted,
            "registry and faults block disagree on wasted cost"
        );

        handle.stop();
    });
}

/// Shutdown with requests in flight: every request the server accepted
/// (read off the socket) is answered before its connection closes —
/// either with its full response (when the worker finishes inside the
/// drain window) or with a typed `shutting_down` error. Nothing is
/// silently dropped, and the schedule forces both outcomes to occur.
#[test]
fn shutdown_answers_every_inflight_request() {
    use std::io::ErrorKind;

    with_watchdog(60, || {
        let (cat, q) = star2();
        let cat: &'static Catalog = Box::leak(Box::new(cat));
        let opt =
            Optimizer::new(cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let artifact = CompiledArtifact::compile(&opt, MultiGrid::uniform(2, 1e-5, 8), 2.0, 0.2, 2);
        let mut reg = Registry::new();
        reg.insert(ServedQuery::from_artifact(artifact, cat).unwrap());
        // A single worker serializes the batch (80ms of debug sleep per
        // request), so shutdown lands with most of it still queued; the
        // 300ms drain window lets the front of the queue finish.
        let config = ServerConfig {
            workers: 1,
            allow_debug_sleep: true,
            shutdown_drain: Duration::from_millis(300),
            ..ServerConfig::default()
        };
        let handle = serve(reg, "127.0.0.1:0", config).unwrap();
        let addr = handle.addr;

        // Pipeline 8 slow requests in one write, then shut down from a
        // second connection while they are in flight.
        const N: usize = 8;
        let mut inflight = Client::connect(addr).unwrap();
        let batch: String = (0..N)
            .map(|i| {
                format!(
                    "{{\"id\":\"req-{i}\",\"method\":\"run_spillbound\",\
                     \"query\":\"star2\",\"qa\":[0.02,0.4],\"sleep_ms\":80}}\n"
                )
            })
            .collect();
        inflight.send_batch(&batch).unwrap();
        std::thread::sleep(Duration::from_millis(40));
        let mut ctl = Client::connect(addr).unwrap();
        let bye = ctl
            .call_raw(&rqp::server::request_line(
                99.0,
                "shutdown",
                None,
                &[],
                None,
            ))
            .unwrap();
        assert!(bye.contains("\"ok\":true"), "{bye}");

        // Read to EOF. Responses come back in request order (the server
        // writes strictly by sequence number; a synthesized shutdown
        // error carries a null id because the original id is still with
        // the queued worker job), so match by position.
        let mut outcomes = Vec::new();
        loop {
            match inflight.read_response() {
                Ok(line) => {
                    let i = outcomes.len();
                    let full = line.contains("\"ok\":true")
                        && line.contains(&format!("\"id\":\"req-{i}\""))
                        && line.contains("\"algorithm\":\"spillbound\"");
                    let typed = line.contains("\"ok\":false")
                        && line.contains("\"kind\":\"shutting_down\"");
                    assert!(
                        full || typed,
                        "request {i}: neither a full response nor a typed \
                         shutting_down error: {line}"
                    );
                    outcomes.push(full);
                }
                Err(e) if e.kind() == ErrorKind::UnexpectedEof => break,
                Err(e) => panic!("reading drained responses: {e}"),
            }
        }
        assert_eq!(
            outcomes.len(),
            N,
            "accepted requests were silently dropped at shutdown: got \
             {outcomes:?}"
        );
        // The schedule (1 worker × 80ms, shutdown at ~40ms, 300ms drain)
        // guarantees both outcomes: the front of the queue completes
        // inside the drain window, the tail cannot.
        let full = outcomes.iter().filter(|&&f| f).count();
        assert!(full >= 1, "no request completed inside the drain window");
        assert!(
            full < N,
            "shutdown never interrupted the batch; the test raced"
        );
        // Completions are in-order: once one request was cut off, every
        // later one was too (single worker, FIFO queue).
        let first_cut = outcomes.iter().position(|&f| !f).unwrap();
        assert!(
            outcomes[first_cut..].iter().all(|&f| !f),
            "a request completed after an earlier one was already cut \
             off: {outcomes:?}"
        );
        handle.stop();
    });
}

/// A slow-loris client cannot dodge its deadline: the clock starts when
/// the server reads the *first byte* of the request, so stalling
/// mid-line past `deadline_ms` and then completing the request is
/// answered `deadline_exceeded` — not served as if it just arrived.
#[test]
fn stalled_writer_cannot_dodge_its_deadline() {
    use std::io::{BufRead, BufReader, Write};

    with_watchdog(60, || {
        let (cat, q) = star2();
        let cat: &'static Catalog = Box::leak(Box::new(cat));
        let opt =
            Optimizer::new(cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let artifact = CompiledArtifact::compile(&opt, MultiGrid::uniform(2, 1e-5, 8), 2.0, 0.2, 2);
        let mut reg = Registry::new();
        reg.insert(ServedQuery::from_artifact(artifact, cat).unwrap());
        let handle = serve(reg, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = handle.addr;

        // Dribble a request across its own 100ms deadline: half the
        // line, a 400ms stall, then the rest.
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let line = r#"{"id":1,"method":"run_spillbound","query":"star2","qa":[0.02,0.4],"deadline_ms":100}"#;
        let (head, tail) = line.split_at(line.len() / 2);
        stream.write_all(head.as_bytes()).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(400));
        stream.write_all(tail.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();

        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert!(
            response.contains("\"kind\":\"deadline_exceeded\""),
            "slow-loris dodged the deadline: {response}"
        );

        // The same request written promptly on the same connection is
        // served: the first-byte clock resets per request.
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();
        let mut ok = String::new();
        reader.read_line(&mut ok).unwrap();
        assert!(ok.contains("\"ok\":true"), "{ok}");
        assert!(ok.contains("\"algorithm\":\"spillbound\""), "{ok}");

        // An inline method stalled the same way is also rejected — the
        // first-byte clock applies before dispatch, not only at worker
        // dequeue.
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let line = r#"{"id":2,"method":"list_queries","deadline_ms":100}"#;
        let (head, tail) = line.split_at(line.len() / 2);
        stream.write_all(head.as_bytes()).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(400));
        stream.write_all(tail.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert!(
            response.contains("\"kind\":\"deadline_exceeded\""),
            "inline slow-loris dodged the deadline: {response}"
        );

        handle.stop();
    });
}
