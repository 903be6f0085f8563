//! Integration tests against a live server on an ephemeral port:
//! concurrent-client determinism, load shedding, queued-deadline
//! enforcement, and clean shutdown.

use rqp_artifacts::CompiledArtifact;
use rqp_catalog::{Catalog, Column, ColumnStats, DataType, Table};
use rqp_common::MultiGrid;
use rqp_faults::{FaultPlan, FaultSite, RetryPolicy};
use rqp_optimizer::{CostParams, EnumerationMode, Optimizer, Predicate, PredicateKind, QuerySpec};
use rqp_server::{serve, Client, Registry, ServedQuery, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

/// A 2-epp star query over a small synthetic catalog.
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

/// Compiles the star2 artifact and registers it on a leaked catalog.
fn registry() -> Registry {
    let (cat, q) = star2();
    let cat: &'static Catalog = Box::leak(Box::new(cat));
    let opt = Optimizer::new(cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
    let artifact = CompiledArtifact::compile(&opt, MultiGrid::uniform(2, 1e-5, 8), 2.0, 0.2, 2);
    // Round-trip through the wire format: the server must work from
    // exactly what a file holds.
    let artifact = CompiledArtifact::from_bytes(&artifact.to_bytes()).unwrap();
    let mut reg = Registry::new();
    reg.insert(ServedQuery::from_artifact(artifact, cat).unwrap());
    reg
}

#[test]
fn concurrent_clients_get_deterministic_responses() {
    let handle = serve(
        registry(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr;

    const CLIENTS: usize = 10;
    let results: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    let qa = [0.02, 0.4];
                    vec![
                        c.call_raw(&rqp_server::request_line(
                            1.0,
                            "run_spillbound",
                            Some("star2"),
                            &qa,
                            None,
                        ))
                        .unwrap(),
                        c.call_raw(&rqp_server::request_line(
                            2.0,
                            "run_planbouquet",
                            Some("star2"),
                            &qa,
                            None,
                        ))
                        .unwrap(),
                        c.call_raw(&rqp_server::request_line(
                            3.0,
                            "run_alignedbound",
                            Some("star2"),
                            &qa,
                            None,
                        ))
                        .unwrap(),
                        c.call_raw(&rqp_server::request_line(
                            4.0,
                            "run_native",
                            Some("star2"),
                            &qa,
                            None,
                        ))
                        .unwrap(),
                        c.call_raw(&rqp_server::request_line(
                            5.0,
                            "explain",
                            Some("star2"),
                            &[],
                            None,
                        ))
                        .unwrap(),
                    ]
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Byte-identical responses across all concurrent clients.
    for other in &results[1..] {
        assert_eq!(&results[0], other);
    }
    for line in &results[0] {
        assert!(line.contains("\"ok\":true"), "unexpected error: {line}");
    }
    assert!(results[0][0].contains("\"algorithm\":\"spillbound\""));
    assert!(results[0][0].contains("\"completed\":true"));
    // Dense surfaces report full materialization in explain's surface
    // accounting (8^2 grid = 64 cells).
    assert!(
        results[0][4].contains("\"kind\":\"dense\""),
        "{}",
        results[0][4]
    );
    assert!(
        results[0][4].contains("\"cells_materialized\":64"),
        "{}",
        results[0][4]
    );

    // The guarantee holds on the served run too.
    let mut c = Client::connect(addr).unwrap();
    let v = c
        .call(9.0, "run_spillbound", Some("star2"), &[0.02, 0.4], None)
        .unwrap();
    let result = v.get("result").unwrap();
    let subopt = result.get("sub_optimality").unwrap().as_f64().unwrap();
    let guarantee = result.get("mso_guarantee").unwrap().as_f64().unwrap();
    assert!(
        subopt <= guarantee * (1.0 + 1e-6),
        "{subopt} vs {guarantee}"
    );

    // Stats saw the traffic.
    let stats = c.call(10.0, "stats", None, &[], None).unwrap();
    let sb = stats
        .get("result")
        .unwrap()
        .get("methods")
        .unwrap()
        .get("run_spillbound")
        .unwrap();
    assert!(sb.get("requests").unwrap().as_f64().unwrap() >= (CLIENTS + 1) as f64);
    assert_eq!(sb.get("shed").unwrap().as_f64(), Some(0.0));

    handle.stop();
}

#[test]
fn overload_sheds_with_explicit_error() {
    let handle = serve(
        registry(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            allow_debug_sleep: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr;

    // Occupy the single worker with a slow request...
    let slow = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.call_raw(r#"{"id":1,"method":"list_queries","sleep_ms":600}"#)
            .unwrap()
    });
    std::thread::sleep(Duration::from_millis(150));
    // ...fill the one queue slot...
    let queued = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.call_raw(r#"{"id":2,"method":"list_queries","sleep_ms":100}"#)
            .unwrap()
    });
    std::thread::sleep(Duration::from_millis(150));
    // ...and watch the next offloaded request shed instead of hang.
    // (`sleep_ms` forces the worker-queue path; cheap methods without it
    // are answered inline by the poller shard and never queue.)
    let mut c = Client::connect(addr).unwrap();
    let shed = c
        .call_raw(r#"{"id":3,"method":"list_queries","sleep_ms":1}"#)
        .unwrap();
    assert!(
        shed.contains("\"ok\":false") && shed.contains("\"kind\":\"overloaded\""),
        "expected overloaded, got: {shed}"
    );

    assert!(slow.join().unwrap().contains("\"ok\":true"));
    assert!(queued.join().unwrap().contains("\"ok\":true"));

    // The shed shows up in stats.
    let stats = c.call(4.0, "stats", None, &[], None).unwrap();
    let lq = stats
        .get("result")
        .unwrap()
        .get("methods")
        .unwrap()
        .get("list_queries")
        .unwrap();
    assert!(lq.get("shed").unwrap().as_f64().unwrap() >= 1.0);
    assert!(handle.metrics().total_shed() >= 1);

    handle.stop();
}

#[test]
fn queued_deadline_is_enforced() {
    let handle = serve(
        registry(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_capacity: 4,
            allow_debug_sleep: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr;

    let slow = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.call_raw(r#"{"id":1,"method":"list_queries","sleep_ms":500}"#)
            .unwrap()
    });
    std::thread::sleep(Duration::from_millis(150));
    // This request can only be dequeued after ~350ms — past its deadline.
    // (`sleep_ms` keeps it on the worker-queue path behind the sleeper.)
    let mut c = Client::connect(addr).unwrap();
    let late = c
        .call_raw(r#"{"id":2,"method":"list_queries","deadline_ms":50,"sleep_ms":1}"#)
        .unwrap();
    assert!(
        late.contains("\"kind\":\"deadline_exceeded\""),
        "expected deadline_exceeded, got: {late}"
    );
    assert!(slow.join().unwrap().contains("\"ok\":true"));
    handle.stop();
}

/// Under a transient fault plan the retry layer absorbs every injected
/// fault — responses stay full-fidelity (`degraded:false`) — while the
/// `stats` and `health` methods surface what happened underneath.
#[test]
fn fault_counters_and_health_are_exposed() {
    let (cat, q) = star2();
    let cat: &'static Catalog = Box::leak(Box::new(cat));
    let opt = Optimizer::new(cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
    let artifact = CompiledArtifact::compile(&opt, MultiGrid::uniform(2, 1e-5, 8), 2.0, 0.2, 2);
    let plan = Arc::new(
        FaultPlan::new(21)
            .with_site(FaultSite::OracleSpill, 0.2)
            .with_site(FaultSite::OracleFull, 0.2),
    );
    let mut reg = Registry::new();
    reg.insert(
        ServedQuery::from_artifact(artifact, cat)
            .unwrap()
            .with_faults(Arc::clone(&plan), RetryPolicy::no_sleep(6)),
    );
    let handle = serve(reg, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();

    for (i, qa) in [[0.02, 0.4], [0.1, 0.1], [0.9, 0.01]].iter().enumerate() {
        let r = c
            .call_raw(&rqp_server::request_line(
                i as f64,
                "run_spillbound",
                Some("star2"),
                qa,
                None,
            ))
            .unwrap();
        assert!(r.contains("\"ok\":true"), "{r}");
        assert!(r.contains("\"degraded\":false"), "{r}");
    }

    // The plan fired (seed 21 injects on these runs) and every fault
    // was absorbed by a retry, so the breaker never opened.
    assert!(plan.injected_total() >= 1, "fault plan never fired");
    let stats = c.call(10.0, "stats", None, &[], None).unwrap();
    let faults = stats.get("result").unwrap().get("faults").unwrap();
    let count = |k: &str| faults.get(k).unwrap().as_f64().unwrap();
    assert_eq!(count("faults_injected"), plan.injected_total() as f64);
    assert!(count("retries") >= count("faults_injected"));
    assert_eq!(count("breaker_open"), 0.0);
    assert_eq!(count("degraded_responses"), 0.0);

    let health = c.call(11.0, "health", None, &[], None).unwrap();
    let breaker = health
        .get("result")
        .unwrap()
        .get("queries")
        .unwrap()
        .get("star2")
        .unwrap();
    assert_eq!(breaker.get("breaker").unwrap().as_str(), Some("closed"));
    assert_eq!(breaker.get("open_events").unwrap().as_f64(), Some(0.0));

    handle.stop();
}

#[test]
fn errors_are_typed_and_shutdown_stops() {
    let handle = serve(registry(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.addr;
    let mut c = Client::connect(addr).unwrap();

    let r = c.call_raw("this is not json").unwrap();
    assert!(r.contains("\"kind\":\"bad_request\""), "{r}");
    let r = c
        .call_raw(r#"{"id":1,"method":"run_spillbound","query":"nope","qa":[0.1,0.1]}"#)
        .unwrap();
    assert!(r.contains("\"kind\":\"unknown_query\""), "{r}");
    let r = c
        .call_raw(r#"{"id":2,"method":"frobnicate","query":"star2"}"#)
        .unwrap();
    assert!(r.contains("\"kind\":\"unknown_method\""), "{r}");
    let r = c
        .call_raw(r#"{"id":3,"method":"run_spillbound","query":"star2","qa":[0.1]}"#)
        .unwrap();
    assert!(r.contains("\"kind\":\"bad_request\""), "{r}");

    let r = c.call_raw(r#"{"id":4,"method":"shutdown"}"#).unwrap();
    assert!(r.contains("\"stopping\":true"), "{r}");
    // wait() returns because the shutdown request flipped the stop flag.
    assert!(handle.is_stopped());
    handle.wait();
}

/// A burst of idle connections beyond `max_connections` degrades with a
/// typed `overloaded` shed instead of unbounded per-connection threads,
/// and capacity is reclaimed once the idle connections go away.
#[test]
fn connection_flood_sheds_with_typed_error() {
    use std::io::BufRead;

    let handle = serve(
        registry(),
        "127.0.0.1:0",
        ServerConfig {
            max_connections: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr;

    // Fill every slot with idle connections that never send a byte.
    let idle: Vec<std::net::TcpStream> = (0..4)
        .map(|_| std::net::TcpStream::connect(addr).unwrap())
        .collect();
    // The acceptor registers serially, so once it has accepted a 5th
    // connect, all 4 idle ones are counted. Give it a beat.
    std::thread::sleep(Duration::from_millis(100));

    // The flood overflow is answered with a typed shed and closed —
    // without the client sending anything.
    let overflow = std::net::TcpStream::connect(addr).unwrap();
    overflow
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = std::io::BufReader::new(overflow);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"ok\":false") && line.contains("\"kind\":\"overloaded\""),
        "expected typed connect shed, got: {line}"
    );
    let mut eof = String::new();
    assert_eq!(reader.read_line(&mut eof).unwrap(), 0, "shed must close");
    assert!(handle.metrics().total_shed() >= 1);

    // Hanging up the idle connections frees their slots (the shards
    // detect EOF); a fresh connect is then served normally.
    drop(idle);
    std::thread::sleep(Duration::from_millis(100));
    let mut c = Client::connect(addr).unwrap();
    let r = c.call_raw(r#"{"id":1,"method":"list_queries"}"#).unwrap();
    assert!(r.contains("\"ok\":true"), "{r}");

    handle.stop();
}

/// Four workers must drain four queued sleeps concurrently: the old
/// `Mutex<Receiver>` held across `recv_timeout` serialized dequeues on
/// one lock. Wall-clock well under the serialized 1200ms proves the
/// per-worker queues dequeue in parallel.
#[test]
fn workers_dequeue_concurrently() {
    let handle = serve(
        registry(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 4,
            queue_capacity: 8,
            // One shard so its round-robin lands one job per worker.
            shards: 1,
            allow_debug_sleep: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr;

    let t0 = std::time::Instant::now();
    std::thread::scope(|s| {
        for i in 0..4 {
            s.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let r = c
                    .call_raw(&format!(
                        r#"{{"id":{i},"method":"list_queries","sleep_ms":300}}"#
                    ))
                    .unwrap();
                assert!(r.contains("\"ok\":true"), "{r}");
            });
        }
    });
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(600),
        "4 workers took {elapsed:?} for 4 concurrent 300ms jobs — dequeues are serialized"
    );

    handle.stop();
}

/// Shutdown is condvar/waker-driven, not polled: stopping an idle
/// server (signal + join of acceptor, shards, and workers) completes in
/// well under 10ms. The old implementation slept 50ms per wait() poll
/// and 20ms per accept poll.
#[test]
fn shutdown_latency_is_under_10ms() {
    let handle = serve(registry(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    // A registered idle connection must not delay shutdown either.
    let _idle = std::net::TcpStream::connect(handle.addr).unwrap();
    std::thread::sleep(Duration::from_millis(50)); // let it register

    let t0 = std::time::Instant::now();
    handle.stop();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(10),
        "stop() took {elapsed:?} — shutdown is polling, not event-driven"
    );
}

/// Per-tenant admission quotas: a tenant at its in-flight cap sheds
/// with a typed `overloaded` error naming the quota, other tenants are
/// unaffected, and capacity returns when the tenant's work completes.
#[test]
fn tenant_quota_sheds_only_the_noisy_tenant() {
    let handle = serve(
        registry(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 4,
            queue_capacity: 16,
            tenant_quota: Some(1),
            allow_debug_sleep: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr;

    // Tenant `alice` occupies her single slot with a slow request.
    let slow = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.call_raw(r#"{"id":1,"method":"list_queries","sleep_ms":400,"tenant":"alice"}"#)
            .unwrap()
    });
    std::thread::sleep(Duration::from_millis(150));

    let mut c = Client::connect(addr).unwrap();
    // Alice's second in-flight request is shed at her quota...
    let shed = c
        .call_raw(r#"{"id":2,"method":"list_queries","sleep_ms":1,"tenant":"alice"}"#)
        .unwrap();
    assert!(
        shed.contains("\"kind\":\"overloaded\"") && shed.contains("quota"),
        "expected tenant-quota shed, got: {shed}"
    );
    // ...while `bob` and the anonymous tenant sail through.
    let ok = c
        .call_raw(r#"{"id":3,"method":"list_queries","sleep_ms":1,"tenant":"bob"}"#)
        .unwrap();
    assert!(ok.contains("\"ok\":true"), "{ok}");
    let ok = c
        .call_raw(r#"{"id":4,"method":"list_queries","sleep_ms":1}"#)
        .unwrap();
    assert!(ok.contains("\"ok\":true"), "{ok}");

    // Once alice's slow request completes, her quota slot is released.
    assert!(slow.join().unwrap().contains("\"ok\":true"));
    let ok = c
        .call_raw(r#"{"id":5,"method":"list_queries","sleep_ms":1,"tenant":"alice"}"#)
        .unwrap();
    assert!(ok.contains("\"ok\":true"), "{ok}");

    handle.stop();
}

/// A served query keeps its compiled AlignedBound and SpillBound between
/// requests. That may never show in an answer: the same line gets the
/// same bytes from a query nobody has asked anything, from a warm one,
/// and from one that has since answered a thousand other requests; and
/// `stats` shows that the later requests did share the earlier ones'
/// contour analysis.
#[test]
fn warm_discovery_answers_byte_equal_and_counts_memo_hits() {
    let config = || ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let handle = serve(registry(), "127.0.0.1:0", config()).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    let line = rqp_server::request_line(7.0, "run_alignedbound", Some("star2"), &[0.02, 0.4], None);

    let fresh = c.call_raw(&line).unwrap();
    assert!(fresh.contains("\"ok\":true"), "{fresh}");
    assert!(fresh.contains("\"algorithm\":\"alignedbound\""), "{fresh}");
    let warm = c.call_raw(&line).unwrap();
    assert_eq!(warm, fresh);

    let methods = ["run_alignedbound", "run_spillbound", "run_planbouquet"];
    for k in 0..1000usize {
        // Selectivities spread over both axes of the grid, log-uniformly.
        let qa = [
            10f64.powf(-5.0 * ((k * 37) % 101) as f64 / 100.0),
            10f64.powf(-5.0 * ((k * 53) % 97) as f64 / 96.0),
        ];
        let other = rqp_server::request_line(k as f64, methods[k % 3], Some("star2"), &qa, None);
        let reply = c.call_raw(&other).unwrap();
        assert!(reply.contains("\"completed\":true"), "{other} -> {reply}");
    }
    assert_eq!(c.call_raw(&line).unwrap(), fresh);

    let stats = c.call(0.0, "stats", None, &[], None).unwrap();
    let discovery = stats.get("result").unwrap().get("discovery").unwrap();
    for strategy in ["spillbound", "alignedbound"] {
        let counter = |name: &str| {
            let v = discovery.get(strategy).and_then(|s| s.get(name));
            v.and_then(|v| v.as_f64()).unwrap_or(-1.0)
        };
        let (hits, misses, entries) = (
            counter("memo_hits"),
            counter("memo_misses"),
            counter("memo_entries"),
        );
        assert!(hits > misses, "{strategy}: {discovery:?}");
        assert!(
            entries >= 1.0 && entries <= misses,
            "{strategy}: {discovery:?}"
        );
    }
    handle.stop();

    // A query hydrated after all that, asked the line as its first.
    let handle = serve(registry(), "127.0.0.1:0", config()).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    assert_eq!(c.call_raw(&line).unwrap(), fresh);
    handle.stop();
}
