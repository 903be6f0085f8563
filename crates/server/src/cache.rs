//! LRU-bounded in-memory artifact cache.
//!
//! The serving layer's answer to "the suite's dense matrices do not all
//! fit in memory": non-pinned queries are faulted in from the
//! [`ArtifactStore`] on first use, kept resident as [`ServedQuery`]s,
//! and evicted least-recently-used when the configured byte bound
//! (measured via [`ServedQuery::approx_bytes`]) is exceeded. Because a
//! served query owns its state (no `Box::leak`), eviction genuinely
//! frees the surface and recost matrix once in-flight calls drop their
//! `Arc`s.
//!
//! Concurrency: one `Mutex` around the resident map plus a `Condvar`
//! that deduplicates concurrent cold loads — the first requester loads
//! while the rest wait, so a thundering herd on a cold query costs one
//! disk read and one rehydration, not N. The lock is never held across
//! the load itself, nor across the manifest's durable rewrite: a load
//! renders the manifest and takes a sequence number under the lock, then
//! writes under a separate writer mutex that skips any snapshot older
//! than the last one written.
//!
//! Determinism: a reloaded artifact rebuilds byte-identical service
//! state (loading is a pure function of the on-disk bytes), so
//! responses before and after eviction are byte-equal — asserted by the
//! cache integration tests.

use crate::service::ServedQuery;
use rqp_artifacts::ArtifactStore;
use rqp_catalog::Catalog;
use rqp_faults::{BreakerConfig, FaultPlan, RetryPolicy};
use serde::Value;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// File (inside the artifact store root) recording the cache's resident
/// names in LRU→MRU order. Rewritten durably on every residency change,
/// so a `kill -9` at any moment leaves a manifest describing some
/// recent hot set — `rqp serve --recover` pre-warms from it.
pub const MANIFEST_FILE: &str = "rqp-cache-manifest.txt";

struct Entry {
    served: Arc<ServedQuery>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct CacheState {
    entries: HashMap<String, Entry>,
    /// Names with a cold load in flight; waiters park on the condvar.
    loading: HashSet<String>,
    /// Monotonic use counter backing the LRU order.
    tick: u64,
    /// Sum of resident `Entry::bytes`.
    bytes: usize,
    /// Sequence number of the last manifest snapshot taken.
    manifest_seq: u64,
}

/// `tmp` + fsync + rename + directory fsync — the same atomic-save
/// discipline the artifact store uses, so a crash mid-rewrite leaves
/// either the old manifest or the new one, never a torn file.
fn durable_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::File::open(dir)?.sync_all()?;
        }
    }
    Ok(())
}

/// Byte-bounded LRU cache of [`ServedQuery`]s backed by an
/// [`ArtifactStore`]. Shared across server shards/workers via the
/// registry; all methods take `&self`.
pub struct ArtifactCache {
    store: ArtifactStore,
    catalog: &'static Catalog,
    max_bytes: usize,
    faults: Option<(Arc<FaultPlan>, RetryPolicy)>,
    breaker: Option<BreakerConfig>,
    state: Mutex<CacheState>,
    loaded: Condvar,
    /// Serializes manifest writes; holds the sequence number of the
    /// snapshot last written.
    manifest_written: Mutex<u64>,
    warm_hits: AtomicU64,
    cold_loads: AtomicU64,
    evictions: AtomicU64,
    load_failures: AtomicU64,
}

impl ArtifactCache {
    /// A cache over `store`'s artifacts, bounded at `max_bytes` of
    /// estimated resident state. The bound is enforced on insert; the
    /// newest entry is always admitted (a single artifact larger than
    /// the bound stays resident until the next insert displaces it).
    pub fn new(store: ArtifactStore, catalog: &'static Catalog, max_bytes: usize) -> Self {
        Self {
            store,
            catalog,
            max_bytes,
            faults: None,
            breaker: None,
            state: Mutex::new(CacheState::default()),
            loaded: Condvar::new(),
            manifest_written: Mutex::new(0),
            warm_hits: AtomicU64::new(0),
            cold_loads: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            load_failures: AtomicU64::new(0),
        }
    }

    /// Attaches a fault plan + retry policy to every query this cache
    /// loads (mirrors [`ServedQuery::with_faults`] for pinned queries).
    pub fn with_faults(mut self, plan: Arc<FaultPlan>, retry: RetryPolicy) -> Self {
        self.faults = Some((plan, retry));
        self
    }

    /// Overrides the circuit-breaker configuration of loaded queries.
    pub fn with_breaker(mut self, cfg: BreakerConfig) -> Self {
        self.breaker = Some(cfg);
        self
    }

    /// Query names the backing store holds a file of this build's format
    /// for (a corrupt payload is found when the name is loaded).
    pub fn known_names(&self) -> Vec<String> {
        self.store.list().unwrap_or_default()
    }

    /// True when `name` is resident right now (no load needed).
    pub fn is_resident(&self, name: &str) -> bool {
        self.state.lock().unwrap().entries.contains_key(name)
    }

    /// Currently-resident served queries, least recently used first.
    pub fn resident(&self) -> Vec<Arc<ServedQuery>> {
        let state = self.state.lock().unwrap();
        let mut entries: Vec<&Entry> = state.entries.values().collect();
        entries.sort_by_key(|e| e.last_used);
        entries.iter().map(|e| e.served.clone()).collect()
    }

    /// Resolves `name`, loading from the store on a miss. Returns the
    /// protocol `(kind, message)` error pair on failure so dispatch can
    /// forward it verbatim.
    pub fn get(&self, name: &str) -> Result<Arc<ServedQuery>, (String, String)> {
        {
            let mut state = self.state.lock().unwrap();
            loop {
                if state.entries.contains_key(name) {
                    state.tick += 1;
                    let tick = state.tick;
                    let entry = state.entries.get_mut(name).expect("checked above");
                    entry.last_used = tick;
                    self.warm_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(entry.served.clone());
                }
                if state.loading.contains(name) {
                    state = self.loaded.wait(state).unwrap();
                    continue;
                }
                state.loading.insert(name.to_string());
                break;
            }
        }
        // Cold path, lock released: one loader per name; waiters above.
        let result = self.load(name);
        let mut state = self.state.lock().unwrap();
        state.loading.remove(name);
        match result {
            Ok(served) => {
                self.cold_loads.fetch_add(1, Ordering::Relaxed);
                let bytes = served.approx_bytes();
                state.tick += 1;
                let tick = state.tick;
                state.entries.insert(
                    name.to_string(),
                    Entry {
                        served: served.clone(),
                        bytes,
                        last_used: tick,
                    },
                );
                state.bytes += bytes;
                self.evict_lru(&mut state, name);
                let manifest = Self::manifest_snapshot(&mut state);
                self.loaded.notify_all();
                drop(state);
                self.persist_manifest(manifest);
                Ok(served)
            }
            Err(e) => {
                self.load_failures.fetch_add(1, Ordering::Relaxed);
                self.loaded.notify_all();
                Err(e)
            }
        }
    }

    /// Evicts least-recently-used entries (never `keep`) until the byte
    /// bound holds or only `keep` remains.
    fn evict_lru(&self, state: &mut CacheState, keep: &str) {
        while state.bytes > self.max_bytes && state.entries.len() > 1 {
            let victim = state
                .entries
                .iter()
                .filter(|(n, _)| n.as_str() != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(n, _)| n.clone());
            match victim {
                Some(n) => {
                    if let Some(entry) = state.entries.remove(&n) {
                        state.bytes -= entry.bytes;
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None => break,
            }
        }
    }

    /// Path of this cache's persisted hot-set manifest.
    pub fn manifest_path(&self) -> PathBuf {
        self.store.root().join(MANIFEST_FILE)
    }

    /// The manifest body for the current resident set in LRU→MRU order,
    /// with the sequence number that orders it among snapshots.
    fn manifest_snapshot(state: &mut CacheState) -> (u64, String) {
        let mut names: Vec<(&String, u64)> = state
            .entries
            .iter()
            .map(|(n, e)| (n, e.last_used))
            .collect();
        names.sort_by_key(|(_, used)| *used);
        let body: String = names.iter().map(|(n, _)| format!("{n}\n")).collect();
        state.manifest_seq += 1;
        (state.manifest_seq, body)
    }

    /// Durably rewrites the manifest to `body`, unless a newer snapshot
    /// has been written already. Best-effort: serving must not fail
    /// because hot-set bookkeeping could not be written.
    fn persist_manifest(&self, (seq, body): (u64, String)) {
        let mut written = self.manifest_written.lock().unwrap();
        if seq > *written && durable_write(&self.manifest_path(), body.as_bytes()).is_ok() {
            *written = seq;
        }
    }

    /// Reloads every name in the persisted manifest (oldest first, so
    /// relative recency is reconstructed). Returns the number of entries
    /// restored; names that fail to load are skipped — recovery
    /// quarantine, not the warm-up, deals with corrupt artifacts.
    pub fn warm_from_manifest(&self) -> u64 {
        let Ok(body) = std::fs::read_to_string(self.manifest_path()) else {
            return 0;
        };
        let mut restored = 0;
        for name in body.lines().map(str::trim).filter(|l| !l.is_empty()) {
            if self.get(name).is_ok() {
                restored += 1;
            }
        }
        restored
    }

    fn load(&self, name: &str) -> Result<Arc<ServedQuery>, (String, String)> {
        if !self.store.path_for(name).exists() {
            let mut available = self.known_names();
            available.sort();
            return Err((
                "unknown_query".to_string(),
                format!(
                    "query `{name}` is not served (available: {})",
                    available.join(", ")
                ),
            ));
        }
        let artifact = self
            .store
            .load_named(name)
            .map_err(|e| ("internal".to_string(), format!("artifact `{name}`: {e}")))?;
        let mut served = ServedQuery::from_artifact(artifact, self.catalog)
            .map_err(|e| ("internal".to_string(), e))?;
        if let Some((plan, retry)) = &self.faults {
            served = served.with_faults(plan.clone(), retry.clone());
        }
        if let Some(cfg) = &self.breaker {
            served = served.with_breaker(cfg.clone());
        }
        Ok(Arc::new(served))
    }

    /// Stats snapshot for the server's `stats` response: provenance
    /// counters (`warm_hits` served from memory, `cold_loads` from
    /// disk, `evictions` under the byte bound) plus residency gauges.
    pub fn stats_value(&self) -> Value {
        let (entries, bytes) = {
            let state = self.state.lock().unwrap();
            (state.entries.len(), state.bytes)
        };
        Value::Object(vec![
            (
                "warm_hits".into(),
                Value::Num(self.warm_hits.load(Ordering::Relaxed) as f64),
            ),
            (
                "cold_loads".into(),
                Value::Num(self.cold_loads.load(Ordering::Relaxed) as f64),
            ),
            (
                "evictions".into(),
                Value::Num(self.evictions.load(Ordering::Relaxed) as f64),
            ),
            (
                "load_failures".into(),
                Value::Num(self.load_failures.load(Ordering::Relaxed) as f64),
            ),
            ("resident_entries".into(), Value::Num(entries as f64)),
            ("resident_bytes".into(), Value::Num(bytes as f64)),
            ("max_bytes".into(), Value::Num(self.max_bytes as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two loads that race to the writer in the opposite order of their
    /// snapshots leave the newer manifest on disk.
    #[test]
    fn an_older_manifest_snapshot_never_overwrites_a_newer_one() {
        let root = std::env::temp_dir().join(format!("rqp-manifest-seq-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        let catalog: &'static Catalog = Box::leak(Box::new(Catalog::new()));
        let cache = ArtifactCache::new(ArtifactStore::new(root.clone()), catalog, 0);
        let manifest = || std::fs::read_to_string(cache.manifest_path()).unwrap();
        cache.persist_manifest((2, "b\n".to_string()));
        cache.persist_manifest((1, "a\n".to_string()));
        assert_eq!(manifest(), "b\n");
        cache.persist_manifest((3, "c\n".to_string()));
        assert_eq!(manifest(), "c\n");
        let _ = std::fs::remove_dir_all(&root);
    }
}
