//! The serving subcommands: `serve` (the daemon), `bench-serve` (a
//! closed-loop benchmark against a fresh daemon) and `client` (one
//! request).

use crate::compile::{artifact_dir, compile_one, thread_count};
use crate::{fail, flag, flag_value, parse_arg, positionals, switch};
use rqp::artifacts::ArtifactStore;
use rqp::catalog::{tpcds, Catalog};
use rqp::faults::{FaultPlan, RetryPolicy};
use rqp::obs::{MetricsRegistry, Tracer};
use rqp::server::{ArtifactCache, Client, Registry, ServedQuery, ServerConfig};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What `serve` and `bench-serve` both read: the artifact store `--dir`,
/// the `--queries` to pin (default `2D_Q91`), `--threads` to compile one
/// that has no artifact, and the server's `--workers` (default 4),
/// `--queue` and `--shards`.
struct Setup {
    dir: String,
    names: Vec<String>,
    threads: usize,
    config: ServerConfig,
}

impl Setup {
    /// Reads the common flags; `queue` and `shards` are the subcommand's
    /// defaults.
    fn read(args: &[String], queue: usize, shards: usize) -> Self {
        let list = flag_value(args, "--queries").unwrap_or_else(|| "2D_Q91".into());
        let names = list.split(',').map(str::trim).filter(|s| !s.is_empty());
        Self {
            dir: artifact_dir(args),
            names: names.map(str::to_string).collect(),
            threads: thread_count(args, 4),
            config: ServerConfig {
                workers: flag(args, "--workers").unwrap_or(4),
                queue_capacity: flag(args, "--queue").unwrap_or(queue),
                shards: flag(args, "--shards").unwrap_or(shards),
                ..ServerConfig::default()
            },
        }
    }

    /// A registry pinning every query of `--queries`, each compiled or
    /// warm-loaded from the store, with `faults` injected into its
    /// executions when given.
    fn pinned(&self, catalog: &'static Catalog, faults: Option<&Arc<FaultPlan>>) -> Registry {
        let store = ArtifactStore::new(&self.dir);
        let mut registry = Registry::new();
        for name in &self.names {
            let (artifact, _) = compile_one(&store, name, self.threads, false);
            let mut q = (ServedQuery::from_artifact(artifact, catalog))
                .unwrap_or_else(|e| fail(&e.to_string()));
            if let Some(p) = faults {
                q = q.with_faults(Arc::clone(p), RetryPolicy::no_sleep(6));
            }
            registry.insert(q);
        }
        registry
    }
}

/// `rqp serve`: serves every artifact in `--dir` over TCP until a
/// `shutdown` request.
pub fn serve(args: &[String]) -> ExitCode {
    let addr = flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:7401".into());
    let setup = Setup::read(args, 64, 2);
    let cache_mb: usize = flag(args, "--cache-mb").unwrap_or(256);
    let mut config = ServerConfig {
        max_connections: flag(args, "--max-conns").unwrap_or(1024),
        tenant_quota: flag(args, "--tenant-quota"),
        ..setup.config.clone()
    };
    // --recover runs crash recovery over the artifact directory
    // *before* anything is loaded from it: replay the intent
    // journal, sweep stray temp files, and quarantine corrupt
    // artifacts so the daemon never faults in torn state.
    let recovery_tracer = Tracer::from_env();
    let mut recovery_report = switch(args, "--recover").then(|| {
        let report = rqp::server::recover_dir(Path::new(&setup.dir), &recovery_tracer);
        println!("{}", report.summary());
        for name in &report.quarantined_files {
            println!("recovery: quarantined {name}");
        }
        report
    });
    let catalog: &'static _ = Box::leak(Box::new(tpcds::catalog_sf100()));
    // RQP_FAULT_RATE / RQP_FAULT_SEED turn on deterministic fault
    // injection across the oracles and socket paths; the breaker
    // + retry machinery absorbs it.
    let fault_plan = FaultPlan::from_env().map(Arc::new);
    let registry = setup.pinned(catalog, fault_plan.as_ref());
    // Every artifact in --dir is servable, not only the pinned --queries:
    // an LRU byte-bounded cache faults the rest in on first use and
    // evicts under memory pressure.
    let (store, bytes) = (ArtifactStore::new(&setup.dir), cache_mb << 20);
    let cache = match &fault_plan {
        None => ArtifactCache::new(store, catalog, bytes),
        Some(p) => {
            let seed = p.seed();
            println!("fault injection active: seed {seed}, socket read/write faults enabled");
            ArtifactCache::new(store.with_faults(Arc::clone(p)), catalog, bytes)
                .with_faults(Arc::clone(p), RetryPolicy::no_sleep(6))
        }
    };
    // Pre-warm the LRU cache from the hot-set manifest the
    // previous process persisted, so a restarted server answers
    // its hot queries at warm latency from the first request.
    if let Some(report) = recovery_report.as_mut() {
        rqp::server::warm_cache(&cache, &recovery_tracer, report);
        recovery_tracer.flush();
        let n = report.warm_restored;
        let queries = if n == 1 { "query" } else { "queries" };
        println!("recovery: pre-warmed {n} cached {queries} from the manifest");
    }
    config.faults = fault_plan;
    let handle = (rqp::server::serve(registry.with_cache(cache), addr.as_str(), config))
        .unwrap_or_else(|e| fail(&format!("bind {addr}: {e}")));
    // Surface what recovery did in the `stats` response's registry block
    // (`recovery.*` counters).
    if let Some(report) = &recovery_report {
        report.register(handle.metrics().registry());
    }
    println!(
        "serving {} pinned (+ LRU cache over {}) on {} (send a `shutdown` request to stop)",
        setup.names.join(", "),
        setup.dir,
        handle.addr
    );
    handle.wait();
    println!("server stopped");
    ExitCode::SUCCESS
}

/// `rqp bench-serve`: closed-loop serving benchmark. N client threads
/// hammer a freshly started server with precompiled `explain` requests
/// and every response is checked byte-for-byte against a
/// single-threaded baseline. Throughput and latency quantiles come from
/// an `rqp-obs` histogram.
pub fn bench_serve(args: &[String]) -> ExitCode {
    let setup = Setup::read(args, 256, 4);
    let clients = flag(args, "--clients").unwrap_or(8usize).max(1);
    let secs = flag(args, "--secs").unwrap_or(3.0f64).max(0.1);
    let pipeline = flag(args, "--pipeline").unwrap_or(16usize).max(1);
    let min_rps: Option<f64> = flag(args, "--min-rps");
    let catalog: &'static _ = Box::leak(Box::new(tpcds::catalog_sf100()));
    let registry = setup.pinned(catalog, None);
    let (names, config) = (&setup.names, setup.config);
    let (nworkers, nshards) = (config.workers, config.shards);
    let handle = (rqp::server::serve(registry, "127.0.0.1:0", config))
        .unwrap_or_else(|e| fail(&format!("bind: {e}")));
    let addr = handle.addr;

    // Precompiled request lines + single-threaded baseline.
    let lines: Vec<String> = names
        .iter()
        .enumerate()
        .map(|(i, n)| rqp::server::request_line(i as f64, "explain", Some(n), &[], None))
        .collect();
    let mut c = Client::connect(addr).unwrap_or_else(|e| fail(&format!("connect: {e}")));
    let baseline: Vec<String> = (lines.iter())
        .map(|l| c.call_raw(l).expect("baseline request"))
        .inspect(|r| assert!(r.contains("\"ok\":true"), "baseline failed: {r}"))
        .collect();

    // Each client pipelines `pipeline` requests per batch (one write
    // syscall, `pipeline` in-order responses) — still closed-loop: nothing
    // new is sent until the whole batch is answered. Per-request latency is
    // measured from the batch send to that response's arrival.
    let batch: String = (0..pipeline)
        .map(|k| format!("{}\n", lines[k % lines.len()]))
        .collect();
    let expected: Vec<&String> = (0..pipeline).map(|k| &baseline[k % lines.len()]).collect();
    let latency = MetricsRegistry::new().histogram("bench_serve.latency_us");
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let (t0, batch, expected) = (Instant::now(), &batch, &expected);
    let (total, mismatches) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let latency = latency.clone();
                s.spawn(move || {
                    let mut c = Client::connect(addr).expect("bench client connect");
                    let (mut sent, mut bad) = (0u64, 0u64);
                    while Instant::now() < deadline {
                        let req = Instant::now();
                        c.send_batch(batch).expect("bench batch write");
                        for want in expected {
                            let r = c.read_response().expect("bench response");
                            latency.observe(req.elapsed().as_micros() as f64);
                            if &r != *want {
                                bad += 1;
                            }
                            sent += 1;
                        }
                    }
                    (sent, bad)
                })
            })
            .collect();
        handles.into_iter().fold((0u64, 0u64), |acc, h| {
            let (sent, bad) = h.join().expect("bench client");
            (acc.0 + sent, acc.1 + bad)
        })
    });
    let elapsed = t0.elapsed().as_secs_f64();
    handle.stop();

    let rps = total as f64 / elapsed;
    println!(
        "bench-serve: {clients} clients x {elapsed:.2}s over {} (explain, pipeline {pipeline}), {nworkers} workers / {nshards} shards",
        names.join(", ")
    );
    println!("  requests        {total}");
    println!("  throughput      {rps:.0} req/s");
    println!("  p50 latency     {:.0} us", latency.quantile(0.50));
    println!("  p99 latency     {:.0} us", latency.quantile(0.99));
    println!("  max latency     {:.0} us", latency.max());
    if mismatches > 0 {
        fail(&format!(
            "  DETERMINISM VIOLATION: {mismatches} responses differed from the baseline"
        ));
    }
    println!("  determinism     all {total} responses byte-equal to the baseline");
    if let Some(min) = min_rps.filter(|min| rps < *min) {
        fail(&format!("  below --min-rps {min:.0}"));
    }
    ExitCode::SUCCESS
}

/// `rqp client <addr> <method> [query] [qa...]`: one request, retried on
/// transient drops; exits 1 unless the response is `ok`.
pub fn client(args: &[String]) -> ExitCode {
    let pos = positionals(args);
    let (addr, method) = (pos[0], pos[1]);
    let deadline_ms: Option<u64> = flag(args, "--deadline-ms");
    let query = pos.get(2).copied();
    let qa: Vec<f64> = pos
        .iter()
        .skip(3)
        .map(|s| parse_arg("selectivity", s))
        .collect();
    let mut client =
        Client::connect(addr).unwrap_or_else(|e| fail(&format!("connect {addr}: {e}")));
    let line = rqp::server::request_line(1.0, method, query, &qa, deadline_ms);
    // Retry transient drops (including injected ones) with
    // backoff; `shutdown` is the one non-idempotent method.
    let result = if method == "shutdown" {
        client.call_raw(&line)
    } else {
        client.call_raw_retry(
            &line,
            &RetryPolicy::default(),
            Some(Duration::from_secs(30)),
        )
    };
    let response = result.unwrap_or_else(|e| fail(&format!("request failed: {e}")));
    println!("{response}");
    if response.contains("\"ok\":true") {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
