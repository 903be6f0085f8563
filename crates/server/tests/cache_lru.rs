//! LRU artifact-cache integration tests against a live server: the
//! whole suite is servable from a byte-bounded cache, eviction kicks in
//! under memory pressure, provenance counters (warm/cold/evicted)
//! surface in `stats`, and responses are byte-equal before and after
//! eviction — and across concurrent clients.

use rqp_artifacts::{ArtifactStore, CompiledArtifact};
use rqp_catalog::{Catalog, Column, ColumnStats, DataType, Table};
use rqp_common::MultiGrid;
use rqp_optimizer::{CostParams, EnumerationMode, Optimizer, Predicate, PredicateKind, QuerySpec};
use rqp_server::{serve, ArtifactCache, Client, Registry, ServedQuery, ServerConfig};
use std::path::PathBuf;

/// A 2-epp star query named `name` over a small synthetic catalog.
fn star2_named(name: &str) -> (Catalog, QuerySpec) {
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
    for (dim, rows) in [("d1", 10_000u64), ("d2", 1_000)] {
        cat.add_table(Table::new(
            dim,
            rows,
            vec![
                Column::new("k", DataType::Int, ColumnStats::uniform(rows)).with_index(),
                Column::new("a", DataType::Int, ColumnStats::uniform(50)),
            ],
        ))
        .unwrap();
    }
    let query = QuerySpec {
        name: name.into(),
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

const SUITE: [&str; 3] = ["suite_a", "suite_b", "suite_c"];

/// Compiles one artifact per suite query into a store under `root` and
/// returns the per-query resident size estimate.
fn build_store(root: &PathBuf, cat: &'static Catalog) -> usize {
    build_store_of(root, cat, &SUITE)
}

/// [`build_store`] over the queries `names`.
fn build_store_of(root: &PathBuf, cat: &'static Catalog, names: &[&str]) -> usize {
    std::fs::create_dir_all(root).unwrap();
    let store = ArtifactStore::new(root.clone());
    let mut bytes = 0usize;
    for &name in names {
        let (_, q) = star2_named(name);
        let opt =
            Optimizer::new(cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let artifact = CompiledArtifact::compile(&opt, MultiGrid::uniform(2, 1e-5, 8), 2.0, 0.2, 2);
        artifact.save(&store.path_for(name)).unwrap();
        // All the artifacts share a shape, so one measurement covers
        // the suite.
        let reloaded = CompiledArtifact::load(&store.path_for(name)).unwrap();
        bytes = ServedQuery::from_artifact(reloaded, cat)
            .unwrap()
            .approx_bytes();
    }
    bytes
}

#[test]
fn suite_serves_from_bounded_cache_with_byte_equal_responses() {
    let (cat, _) = star2_named("suite_a");
    let cat: &'static Catalog = Box::leak(Box::new(cat));
    let root = std::env::temp_dir().join(format!("rqp-cache-lru-test-{}", std::process::id()));
    let per_query = build_store(&root, cat);
    // Room for two resident queries, not three: serving the full suite
    // must evict.
    let max_bytes = per_query * 2 + per_query / 2;

    let store = ArtifactStore::new(root.clone());
    let registry = Registry::new().with_cache(ArtifactCache::new(store, cat, max_bytes));
    let handle = serve(registry, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.addr;
    let mut c = Client::connect(addr).unwrap();

    // The whole suite is visible without anything resident yet.
    let listed = c.call_raw(r#"{"id":0,"method":"list_queries"}"#).unwrap();
    for name in SUITE {
        assert!(listed.contains(name), "{listed}");
    }

    // Single-threaded baseline across the suite: explain + a discovery
    // run per query. Sweeping all three queries overflows the 2-entry
    // bound, so these also exercise cold loads and eviction.
    let qa = [0.02, 0.4];
    let baseline: Vec<(String, String)> = SUITE
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let explain = c
                .call_raw(&rqp_server::request_line(
                    i as f64 * 10.0 + 1.0,
                    "explain",
                    Some(name),
                    &[],
                    None,
                ))
                .unwrap();
            let run = c
                .call_raw(&rqp_server::request_line(
                    i as f64 * 10.0 + 2.0,
                    "run_spillbound",
                    Some(name),
                    &qa,
                    None,
                ))
                .unwrap();
            assert!(explain.contains("\"ok\":true"), "{explain}");
            assert!(run.contains("\"ok\":true"), "{run}");
            (explain, run)
        })
        .collect();

    // After touching a, b, then c the cache held at most 2 entries, so
    // re-asking for every query forces at least one post-eviction
    // reload — responses must be byte-equal to the pre-eviction ones.
    for (i, name) in SUITE.iter().enumerate() {
        let explain = c
            .call_raw(&rqp_server::request_line(
                i as f64 * 10.0 + 1.0,
                "explain",
                Some(name),
                &[],
                None,
            ))
            .unwrap();
        let run = c
            .call_raw(&rqp_server::request_line(
                i as f64 * 10.0 + 2.0,
                "run_spillbound",
                Some(name),
                &qa,
                None,
            ))
            .unwrap();
        assert_eq!(explain, baseline[i].0, "explain changed after eviction");
        assert_eq!(run, baseline[i].1, "run_spillbound changed after eviction");
    }

    // 10 concurrent clients across all 3 suite queries: byte-identical
    // to the single-threaded baseline, through every warm/cold/evicted
    // path interleaving.
    let results: Vec<Vec<(String, String)>> = std::thread::scope(|s| {
        let baseline = &baseline;
        let handles: Vec<_> = (0..10)
            .map(|client| {
                s.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    SUITE
                        .iter()
                        .enumerate()
                        .map(|(i, name)| {
                            // Vary the touch order per client so clients
                            // disagree about what is resident.
                            let (i, name) = if client % 2 == 0 {
                                (i, *name)
                            } else {
                                let j = SUITE.len() - 1 - i;
                                (j, SUITE[j])
                            };
                            let explain = c
                                .call_raw(&rqp_server::request_line(
                                    i as f64 * 10.0 + 1.0,
                                    "explain",
                                    Some(name),
                                    &[],
                                    None,
                                ))
                                .unwrap();
                            let run = c
                                .call_raw(&rqp_server::request_line(
                                    i as f64 * 10.0 + 2.0,
                                    "run_spillbound",
                                    Some(name),
                                    &qa,
                                    None,
                                ))
                                .unwrap();
                            assert_eq!(&explain, &baseline[i].0);
                            assert_eq!(&run, &baseline[i].1);
                            (explain, run)
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(results.len(), 10);

    // Provenance counters: the sweeps forced cold loads and evictions,
    // the repeats hit warm entries, and residency respects the bound.
    let stats = c.call(99.0, "stats", None, &[], None).unwrap();
    let cache = stats.get("result").unwrap().get("cache").unwrap();
    let count = |k: &str| cache.get(k).unwrap().as_f64().unwrap();
    assert!(count("cold_loads") >= 4.0, "{cache:?}");
    assert!(count("evictions") >= 1.0, "{cache:?}");
    assert!(count("warm_hits") >= 1.0, "{cache:?}");
    assert_eq!(count("load_failures"), 0.0, "{cache:?}");
    assert!(count("resident_entries") <= 2.0, "{cache:?}");
    assert!(count("resident_bytes") <= max_bytes as f64, "{cache:?}");

    // Unknown names still produce the typed error, listing the suite.
    let r = c
        .call_raw(r#"{"id":100,"method":"run_spillbound","query":"nope","qa":[0.1,0.1]}"#)
        .unwrap();
    assert!(r.contains("\"kind\":\"unknown_query\""), "{r}");
    assert!(r.contains("suite_a"), "{r}");

    handle.stop();
    let _ = std::fs::remove_dir_all(&root);
}

/// A cold load takes the worker path (it must not block a poller
/// shard), and a thundering herd on one cold query is deduplicated to a
/// single disk load.
#[test]
fn thundering_herd_on_cold_query_loads_once() {
    let (cat, _) = star2_named("suite_a");
    let cat: &'static Catalog = Box::leak(Box::new(cat));
    let root = std::env::temp_dir().join(format!("rqp-cache-herd-test-{}", std::process::id()));
    let per_query = build_store(&root, cat);

    let store = ArtifactStore::new(root.clone());
    let registry = Registry::new().with_cache(ArtifactCache::new(store, cat, per_query * 4));
    let handle = serve(registry, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.addr;

    let lines: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                s.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    c.call_raw(&rqp_server::request_line(
                        i as f64,
                        "explain",
                        Some("suite_b"),
                        &[],
                        None,
                    ))
                    .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for line in &lines {
        assert!(line.contains("\"ok\":true"), "{line}");
    }

    let mut c = Client::connect(addr).unwrap();
    let stats = c.call(9.0, "stats", None, &[], None).unwrap();
    let cache = stats.get("result").unwrap().get("cache").unwrap();
    let count = |k: &str| cache.get(k).unwrap().as_f64().unwrap();
    assert_eq!(count("cold_loads"), 1.0, "herd was not deduplicated");
    assert!(count("warm_hits") >= 7.0, "{cache:?}");

    handle.stop();
    let _ = std::fs::remove_dir_all(&root);
}

/// Concurrent cold loads rewrite the hot-set manifest outside the cache
/// lock, and an older snapshot never overwrites a newer one: once twelve
/// cold loads from four threads are done, the manifest is the resident
/// set in LRU order.
#[test]
fn concurrent_cold_loads_leave_the_latest_manifest() {
    let (cat, _) = star2_named("suite_a");
    let cat: &'static Catalog = Box::leak(Box::new(cat));
    let root = std::env::temp_dir().join(format!("rqp-cache-manifest-{}", std::process::id()));
    let names: Vec<String> = (0..12).map(|i| format!("m{i:02}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let per_query = build_store_of(&root, cat, &refs);

    // Room for three resident queries; every name is asked for once, so
    // every `get` is a cold load and none is a warm hit.
    let store = ArtifactStore::new(root.clone());
    let cache = ArtifactCache::new(store, cat, per_query * 3 + per_query / 2);
    std::thread::scope(|s| {
        for chunk in refs.chunks(3) {
            let cache = &cache;
            s.spawn(move || {
                for name in chunk {
                    cache.get(name).unwrap();
                }
            });
        }
    });

    let stats = cache.stats_value();
    assert_eq!(stats.get("cold_loads").unwrap().as_f64(), Some(12.0));
    assert_eq!(stats.get("warm_hits").unwrap().as_f64(), Some(0.0));
    let resident: Vec<String> = (cache.resident().iter())
        .map(|q| format!("{}\n", q.name()))
        .collect();
    assert_eq!(resident.len(), 3);
    let manifest = std::fs::read_to_string(cache.manifest_path()).unwrap();
    assert_eq!(manifest, resident.concat());

    let _ = std::fs::remove_dir_all(&root);
}
