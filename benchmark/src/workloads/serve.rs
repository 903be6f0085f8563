//! The three serving workloads. One daemon started in-process on a
//! loopback port, one connection, closed loop, depth 1: a client of this
//! daemon is a database engine that waits for the discovery answer before
//! it can go on, so callers wait for replies.
//!
//! * `serve-light`: `explain` / `run_native` / `run_penaltyaware` over S7,
//!   all pinned. Handlers are microseconds, so the round trip is the
//!   server layer and the JSON codec.
//! * `serve-discovery`: `run_spillbound` / `run_planbouquet` /
//!   `run_alignedbound` over the same daemon. The discovery loop in
//!   rqp-core is most of the latency.
//! * `serve-churn`: nothing pinned and an 8 MiB cache over four artifacts
//!   that need more, in strict rotation, so every request is a cold load
//!   and an eviction. Artifact read, decode and hydration dominate.

use super::{check_location, compile, suite, CHECK_RUNS};
use crate::awake::KeepAwake;
use crate::gen::{Mix, Req, Stream, CHURN, CHURN_SET, DISCOVERY, LIGHT, S7};
use crate::harness::{compile_threads, Cfg, Recorder, Workload};
use rqp::artifacts::{checksum64, ArtifactStore, CompiledArtifact};
use rqp::catalog::Catalog;
use rqp::common::MultiGrid;
use rqp::server::{
    parse_request, request_line, serve, ArtifactCache, Client, Registry, ServedQuery, ServerConfig,
    ServerHandle,
};
use serde::Value;
use std::hint::black_box;
use std::marker::PhantomData;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

/// Byte bound of `serve-churn`'s artifact cache.
const CHURN_CACHE_BYTES: usize = 8 << 20;
/// One timed request in this many is sent again on a fresh connection
/// after the run and must come back byte-equal.
const RECHECK_EVERY: u64 = 64;

/// What tells the three serving workloads apart.
pub trait Traffic {
    const MIX: &'static Mix;
    /// Blocks of the mix per round: around a second of traffic.
    const BLOCKS: usize;
    /// Serve from a byte-bounded cache over a store instead of pinning.
    const CHURN: bool;
    /// Keep the CPUs out of the hypervisor's idle state (see `awake`):
    /// for round trips of microseconds, which an idle wake-up of a
    /// millisecond swamps. Millisecond ops do without: a spinner on the
    /// sibling CPU slows a busy handler more than the wake-ups cost it.
    const KEEP_AWAKE: bool = false;
}

pub struct Light;
pub struct Discovery;
pub struct Churn;

impl Traffic for Light {
    const MIX: &'static Mix = &LIGHT;
    const BLOCKS: usize = 1_400;
    const CHURN: bool = false;
    const KEEP_AWAKE: bool = true;
}

impl Traffic for Discovery {
    const MIX: &'static Mix = &DISCOVERY;
    const BLOCKS: usize = 84;
    const CHURN: bool = false;
}

impl Traffic for Churn {
    const MIX: &'static Mix = &CHURN;
    const BLOCKS: usize = 16;
    const CHURN: bool = true;
}

pub struct Serve<T: Traffic> {
    handle: Option<ServerHandle>,
    addr: SocketAddr,
    client: Client,
    /// A second registry over the same artifacts, for replaying requests
    /// in-process. Traced runs only.
    replay: Option<Registry>,
    /// Where the replay registry's cache reads its artifacts from.
    replay_store: Option<ArtifactStore>,
    grids: Vec<(&'static str, MultiGrid)>,
    catalog: &'static Catalog,
    stream: Stream,
    resp_bytes: u64,
    recheck: Vec<(String, String)>,
    /// Stopped last, after the daemon.
    _awake: Option<KeepAwake>,
    traffic: PhantomData<T>,
}

impl<T: Traffic> Drop for Serve<T> {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.stop();
        }
    }
}

fn registry_over(store: &ArtifactStore, catalog: &'static Catalog) -> Registry {
    Registry::new().with_cache(ArtifactCache::new(
        store.clone(),
        catalog,
        CHURN_CACHE_BYTES,
    ))
}

impl<T: Traffic> Workload for Serve<T> {
    fn setup(cfg: &Cfg, rec: &mut Recorder, dir: &Path) -> Self {
        let awake = T::KEEP_AWAKE.then(KeepAwake::start);
        let catalog = super::catalog_sf100();
        let names: &[&'static str] = if T::CHURN { &CHURN_SET } else { &S7 };
        let benches = suite(catalog, names);
        let grids = names
            .iter()
            .zip(&benches)
            .map(|(n, b)| (*n, b.grid()))
            .collect();

        let (registry, replay, replay_store) = if T::CHURN {
            let store = ArtifactStore::new(dir.join("store"));
            let replay_store = cfg
                .trace
                .then(|| ArtifactStore::new(dir.join("replay-store")));
            for bench in &benches {
                let artifact = compile(catalog, bench, compile_threads());
                for s in std::iter::once(&store).chain(&replay_store) {
                    artifact
                        .save(&s.path_for(bench.name()))
                        .expect("save into the scratch store");
                }
            }
            let replay = replay_store.as_ref().map(|s| registry_over(s, catalog));
            (registry_over(&store, catalog), replay, replay_store)
        } else {
            let mut registry = Registry::new();
            let mut replay = cfg.trace.then(Registry::new);
            for bench in &benches {
                let artifact = compile(catalog, bench, compile_threads());
                if let Some(r) = replay.as_mut() {
                    let twin = ServedQuery::from_artifact(artifact.clone(), catalog);
                    r.insert(twin.expect("hydrate a fresh artifact"));
                }
                let t = Instant::now();
                let served = ServedQuery::from_artifact(artifact, catalog);
                rec.sample("hydrate", t.elapsed().as_secs_f64() * 1e3);
                registry.insert(served.expect("hydrate a fresh artifact"));
            }
            (registry, replay, None)
        };

        let handle = serve(
            registry,
            "127.0.0.1:0",
            ServerConfig {
                shards: 1,
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .expect("bind a loopback port");
        let addr = handle.addr;
        Self {
            handle: Some(handle),
            addr,
            client: Client::connect(addr).expect("connect to the daemon"),
            replay,
            replay_store,
            grids,
            catalog,
            stream: Stream::new(T::MIX, cfg.seed),
            resp_bytes: 0,
            recheck: Vec::new(),
            _awake: awake,
            traffic: PhantomData,
        }
    }

    fn round(&mut self, rec: &mut Recorder, traced: bool) {
        // Replays wait until the round is over: think time between two
        // requests lets the daemon's poller park, which the next request
        // then pays for, and a traced round must cost what a plain one
        // does.
        let mut replays = Vec::new();
        for req in self.stream.next(T::BLOCKS) {
            let op = rec.next_op();
            let t0 = rec.now_ns();
            let reply = self.client.call_raw(&req.line);
            let t1 = rec.now_ns();
            let outcome = reply.map_err(|e| e.to_string()).and_then(|resp| {
                self.resp_bytes += resp.len() as u64;
                let executions = validate(&req, &resp)?;
                if let Some(n) = executions {
                    rec.sample("executions", n);
                }
                if req.id.is_multiple_of(RECHECK_EVERY) {
                    self.recheck.push((req.line.clone(), resp));
                }
                Ok(())
            });
            rec.op(traced, t1 - t0, outcome);
            if traced {
                rec.push_span("server.rtt", t0, t1, None, op);
                rec.sample("rtt", (t1 - t0) as f64 / 1e3);
                replays.push((req, op, (t1 - t0) as f64 / 1e3));
            }
        }
        for (req, op, rtt_us) in replays {
            self.replay(&req, op, rtt_us, rec);
        }
    }

    fn finish(mut self, _cfg: &Cfg, rec: &mut Recorder) {
        // Counters first: the re-sent requests below are not in rotation
        // and may hit the cache.
        match self.call(&request_line(0.0, "stats", None, &[], None)) {
            Ok(stats) => self.read_stats(&stats, rec),
            Err(e) => rec.check(false, || format!("stats: {e}")),
        }

        match Client::connect(self.addr) {
            Ok(mut fresh) => {
                for (line, first) in std::mem::take(&mut self.recheck) {
                    let again = fresh.call_raw(&line).unwrap_or_else(|e| e.to_string());
                    rec.check(again == first, || {
                        format!("a re-sent request was answered differently: {line}")
                    });
                }
            }
            Err(e) => rec.check(false, || format!("second connection: {e}")),
        }

        // Query by query, so that `serve-churn` pays one cold load a query.
        let per_query = CHECK_RUNS / self.grids.len();
        for k in 0..per_query * self.grids.len() {
            let (query, grid) = &self.grids[k / per_query];
            let qa = grid.sels(check_location(grid.len(), k % per_query));
            let line = request_line(k as f64, "run_spillbound", Some(query), &qa, None);
            let run = self.call(&line).and_then(|v| {
                let field = |name| result_num(&v, name).ok_or(format!("no `{name}` in {line}"));
                Ok((field("sub_optimality")?, field("mso_guarantee")?))
            });
            match run {
                Ok((sub, guarantee)) => rec.subopt(sub, guarantee),
                Err(e) => rec.check(false, || e),
            }
        }

        rec.set_mean("server.hydrate_ms", "hydrate");
        rec.set_mean("server.parse_us", "parse");
        rec.set_pct("server.dispatch_us_p50", "dispatch", 0.5);
        rec.set_pct("server.dispatch_us_p90", "dispatch", 0.9);
        rec.set_pct("server.rtt_us_p50", "rtt", 0.5);
        rec.set_pct("server.rtt_us_p99", "rtt", 0.99);
        rec.set_pct("server.wire_overhead_us", "wire", 0.5);
        rec.set(
            "server.resp_bytes_per_op",
            self.resp_bytes as f64 / self.stream.sent().max(1) as f64,
        );
        for (metric, key, p) in [
            ("core.sb_us_p50", "run_spillbound", 0.5),
            ("core.sb_us_p90", "run_spillbound", 0.9),
            ("core.ab_us_p50", "run_alignedbound", 0.5),
            ("core.ab_us_p90", "run_alignedbound", 0.9),
            ("core.pb_us_p50", "run_planbouquet", 0.5),
            ("core.pb_us_p90", "run_planbouquet", 0.9),
            ("core.native_us_p50", "run_native", 0.5),
            ("core.pa_us_p50", "run_penaltyaware", 0.5),
        ] {
            rec.set_pct(metric, key, p);
        }
        rec.set_mean("core.execs_per_run", "executions");
        rec.set_mean("artifacts.checksum_ms", "checksum");
        rec.set_mean("artifacts.decode_ms", "decode");
        if T::CHURN {
            rec.set_mean("artifacts.bytes", "bytes");
            let (mb, ms) = (
                crate::stats::mean(rec.samples("bytes")) / 1e6,
                crate::stats::mean(rec.samples("decode")),
            );
            rec.set(
                "artifacts.decode_mb_s",
                if ms > 0.0 { mb / (ms / 1e3) } else { 0.0 },
            );
        }
    }
}

/// A number in the `result` object of a response.
fn result_num(response: &Value, name: &str) -> Option<f64> {
    response.get("result")?.get(name)?.as_f64()
}

/// Checks one response against its request. Returns the number of plan
/// executions when the response reports a discovery run.
fn validate(req: &Req, resp: &str) -> Result<Option<f64>, String> {
    let bad = |what: &str| Err(format!("{what}: {} -> {resp}", req.line));
    if !resp.contains("\"ok\":true") {
        return bad("not ok");
    }
    if req.method == "explain" {
        return Ok(None);
    }
    if !resp.contains("\"completed\":true") || !resp.contains("\"degraded\":false") {
        return bad("incomplete or degraded");
    }
    if req.method == "run_native" || req.method == "run_penaltyaware" {
        return Ok(None);
    }
    let v: Value = serde_json::from_str(resp).map_err(|e| e.to_string())?;
    let field = |name| result_num(&v, name);
    match (
        field("sub_optimality"),
        field("mso_guarantee"),
        field("executions"),
    ) {
        (Some(sub), Some(guarantee), Some(n)) if sub <= guarantee * (1.0 + 1e-9) => Ok(Some(n)),
        (Some(_), Some(_), Some(_)) => bad("guarantee broken"),
        _ => bad("fields missing"),
    }
}

impl<T: Traffic> Serve<T> {
    /// One request outside the timed loop, parsed; an `ok:false` reply is
    /// an error.
    fn call(&mut self, line: &str) -> Result<Value, String> {
        let resp = self.client.call_raw(line).map_err(|e| e.to_string())?;
        let v: Value = serde_json::from_str(&resp).map_err(|e| e.to_string())?;
        match v.get("ok") {
            Some(Value::Bool(true)) => Ok(v),
            _ => Err(format!("{line} -> {resp}")),
        }
    }

    /// Replays a request the daemon has just answered through the same
    /// layers in-process, so the round trip splits into parse, dispatch
    /// (the handler) and the rest (the wire: read, queue, serialize,
    /// write, and the client).
    fn replay(&self, req: &Req, op: u32, rtt_us: f64, rec: &mut Recorder) {
        let Some(registry) = self.replay.as_ref() else {
            return;
        };
        if let Some(store) = &self.replay_store {
            // What a cold load is made of, layer by layer.
            if let Ok(bytes) = std::fs::read(store.path_for(req.query)) {
                rec.sample("bytes", bytes.len() as f64);
                let t = Instant::now();
                black_box(checksum64(black_box(&bytes)));
                rec.sample("checksum", t.elapsed().as_secs_f64() * 1e3);
                let t = Instant::now();
                let artifact = CompiledArtifact::from_bytes(&bytes);
                rec.sample("decode", t.elapsed().as_secs_f64() * 1e3);
                if let Ok(artifact) = artifact {
                    let t = Instant::now();
                    black_box(ServedQuery::from_artifact(artifact, self.catalog).is_ok());
                    rec.sample("hydrate", t.elapsed().as_secs_f64() * 1e3);
                }
            }
        }
        let us = |ns: u64| ns as f64 / 1e3;
        let (parsed, ns) = rec.span("server.parse", None, op, || parse_request(&req.line));
        rec.sample("parse", us(ns));
        let Ok(parsed) = parsed else { return };
        let (_, ns) = rec.span("server.dispatch", None, op, || {
            black_box(registry.dispatch(&parsed).0.is_ok())
        });
        rec.sample("dispatch", us(ns));
        rec.sample("wire", rtt_us - us(ns));
        if req.method != "explain" {
            if let Ok(served) = registry.get(req.query) {
                let (_, ns) = rec.span("core.handle", None, op, || {
                    black_box(served.handle(req.method, &req.qa).0.is_ok())
                });
                rec.sample(req.method, us(ns));
            }
        }
    }

    /// Reads the daemon's own counters out of its `stats` reply and holds
    /// them against what the client saw.
    fn read_stats(&self, stats: &Value, rec: &mut Recorder) {
        let result = stats.get("result");
        let num = |v: Option<&Value>, name: &str| {
            v.and_then(|v| v.get(name))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        let (mut shed, mut errors, mut requests, mut p50_weighted) = (0.0, 0.0, 0.0, 0.0);
        let methods = result.and_then(|r| r.get("methods"));
        for (name, m) in methods.and_then(Value::as_object).unwrap_or(&[]) {
            if name == "stats" {
                continue;
            }
            let n = num(Some(m), "requests");
            shed += num(Some(m), "shed");
            errors += num(Some(m), "errors");
            requests += n;
            p50_weighted += n * num(Some(m), "p50_latency_us");
        }
        rec.check(shed == 0.0 && errors == 0.0, || {
            format!("the daemon shed {shed} and failed {errors} requests")
        });
        rec.check(requests == self.stream.sent() as f64, || {
            format!(
                "the daemon counted {requests} requests, the client {}",
                self.stream.sent()
            )
        });
        rec.set("server.shed", shed);
        rec.set("server.errors", errors);
        rec.set(
            "server.stats_handler_us_p50",
            p50_weighted / requests.max(1.0),
        );

        let cache = result.and_then(|r| r.get("cache"));
        let per_op = |name: &str| num(cache, name) / self.stream.sent().max(1) as f64;
        rec.set("server.cache_cold_loads", per_op("cold_loads"));
        rec.set("server.cache_evictions", per_op("evictions"));
        rec.set("server.cache_warm_hits", per_op("warm_hits"));
        if T::CHURN {
            let (cold, failures) = (num(cache, "cold_loads"), num(cache, "load_failures"));
            rec.check(cold == self.stream.sent() as f64 && failures == 0.0, || {
                format!(
                    "{cold} cold loads and {failures} load failures in {} requests",
                    self.stream.sent()
                )
            });
        }
    }
}
