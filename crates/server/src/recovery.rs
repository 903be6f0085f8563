//! Recover-on-restart for the serving layer.
//!
//! `rqp serve --recover` runs this before accepting connections: replay
//! the storage intent journal ([`rqp_storage::Journal`]), sweep stray
//! `*.tmp` files left by interrupted atomic saves, quarantine corrupt
//! artifacts (typed and counted — a half-written `.rqpa` must never
//! panic the daemon or poison the cache), and pre-warm the LRU cache
//! from the persisted hot-set manifest. Every stage is counted in a
//! [`RecoveryReport`], surfaced as `recovery.*` counters in the server's
//! metrics registry and as `recovery_step` events on the trace timeline.

use crate::cache::ArtifactCache;
use rqp_obs::{MetricsRegistry, TraceEvent, Tracer};
use rqp_storage::Journal;
use std::path::{Path, PathBuf};

/// What one recovery pass found and fixed. All stages are best-effort
/// and infallible from the caller's perspective: I/O errors during
/// recovery are folded into the counts (a file that cannot be read is
/// quarantined; one that cannot even be moved is still counted), never
/// propagated as panics.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Journal intents that were committed and verified intact.
    pub replayed: u64,
    /// Open (uncommitted) journal intents whose partial on-disk effects
    /// were undone.
    pub rolled_back: u64,
    /// Torn trailing journal records discarded as a crash artifact.
    pub discarded: u64,
    /// Artifacts that failed validation and were moved to `quarantine/`.
    pub quarantined: u64,
    /// Stray `*.tmp` files swept (interrupted atomic saves).
    pub swept_tmp: u64,
    /// Cache entries restored from the persisted hot-set manifest.
    pub warm_restored: u64,
    /// Names of the quarantined artifact files, for the startup log.
    pub quarantined_files: Vec<String>,
}

impl RecoveryReport {
    /// Publishes the report as `recovery.*` counters on `registry`, so a
    /// `stats` request shows what the last restart had to repair.
    pub fn register(&self, registry: &MetricsRegistry) {
        registry.counter("recovery.replayed").add(self.replayed);
        registry
            .counter("recovery.rolled_back")
            .add(self.rolled_back);
        registry.counter("recovery.discarded").add(self.discarded);
        registry
            .counter("recovery.quarantined")
            .add(self.quarantined);
        registry.counter("recovery.swept_tmp").add(self.swept_tmp);
        registry
            .counter("recovery.warm_restored")
            .add(self.warm_restored);
    }

    /// One-line human summary for the startup log.
    pub fn summary(&self) -> String {
        format!(
            "recovery: replayed {} rolled_back {} discarded {} quarantined {} \
             swept_tmp {} warm_restored {}",
            self.replayed,
            self.rolled_back,
            self.discarded,
            self.quarantined,
            self.swept_tmp,
            self.warm_restored
        )
    }
}

/// Directory artifacts found corrupt are moved into (relative to the
/// store root). Files keep their names, so an operator can inspect or
/// restore them by hand.
pub const QUARANTINE_DIR: &str = "quarantine";

fn emit(tracer: &Tracer, stage: &'static str, count: u64) {
    tracer.emit(|| TraceEvent::RecoveryStep { stage, count });
}

/// Replays the intent journal in `dir`, sweeps stray temp files, and
/// quarantines corrupt artifacts. Does *not* touch the cache — call
/// [`warm_cache`] (or [`recover_and_warm`]) after construction for the
/// pre-warm stage. Never panics on corrupt input; everything suspicious
/// is counted and set aside.
pub fn recover_dir(dir: &Path, tracer: &Tracer) -> RecoveryReport {
    let mut report = RecoveryReport::default();

    // Stage 1: journal replay. Committed intents are verified intact,
    // open intents have their partial effects rolled back, a torn tail
    // is discarded (crash-mid-append is expected, not fatal).
    {
        rqp_obs::span!("recovery.journal_replay");
        match Journal::recover(dir) {
            Ok(rec) => {
                report.replayed = rec.replayed;
                report.rolled_back = rec.rolled_back;
                report.discarded = rec.discarded;
                report.swept_tmp += rec.removed.len() as u64;
            }
            Err(_) => {
                // An unreadable journal yields zero replays; artifact
                // validation below still guards every served file.
            }
        }
        emit(tracer, "journal_replayed", report.replayed);
        emit(tracer, "journal_rolled_back", report.rolled_back);
        if report.discarded > 0 {
            emit(tracer, "journal_discarded", report.discarded);
        }
    }

    // Stage 2: sweep stray `*.tmp` files — an interrupted atomic save
    // (crash between create and rename) that no journal intent covered.
    {
        rqp_obs::span!("recovery.tmp_sweep");
        let swept = sweep_tmp_files(dir);
        report.swept_tmp += swept;
        emit(tracer, "tmp_swept", swept);
    }

    // Stage 3: validate every artifact; corrupt ones move to
    // `quarantine/` so the daemon never faults them in.
    {
        rqp_obs::span!("recovery.artifact_scan");
        quarantine_corrupt_artifacts(dir, &mut report);
        emit(tracer, "quarantined", report.quarantined);
    }

    report
}

/// Pre-warms `cache` from its persisted hot-set manifest and records the
/// restored count into `report`.
pub fn warm_cache(cache: &ArtifactCache, tracer: &Tracer, report: &mut RecoveryReport) {
    rqp_obs::span!("recovery.cache_warm");
    report.warm_restored = cache.warm_from_manifest();
    emit(tracer, "warm_restored", report.warm_restored);
}

/// Full recover-on-restart pass: [`recover_dir`] then [`warm_cache`],
/// with the combined report published on `registry`.
pub fn recover_and_warm(
    dir: &Path,
    cache: &ArtifactCache,
    registry: &MetricsRegistry,
    tracer: &Tracer,
) -> RecoveryReport {
    let mut report = recover_dir(dir, tracer);
    warm_cache(cache, tracer, &mut report);
    report.register(registry);
    report
}

fn sweep_tmp_files(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut swept = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) == Some("tmp")
            && path.is_file()
            && std::fs::remove_file(&path).is_ok()
        {
            swept += 1;
        }
    }
    swept
}

fn quarantine_corrupt_artifacts(dir: &Path, report: &mut RecoveryReport) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("rqpa") && p.is_file())
        .collect();
    paths.sort();
    for path in paths {
        let verdict = std::panic::catch_unwind(|| rqp_artifacts::CompiledArtifact::load(&path));
        let corrupt = !matches!(verdict, Ok(Ok(_)));
        if corrupt {
            report.quarantined += 1;
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string());
            report.quarantined_files.push(name.clone());
            let qdir = dir.join(QUARANTINE_DIR);
            let _ = std::fs::create_dir_all(&qdir);
            if std::fs::rename(&path, qdir.join(&name)).is_err() {
                // Could not move it aside; removing is the next-best way
                // to keep a known-bad file out of the serving path.
                let _ = std::fs::remove_file(&path);
            }
        }
    }
    report.quarantined_files.sort();
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_artifacts::{ArtifactStore, CompiledArtifact};
    use rqp_catalog::{Catalog, Column, ColumnStats, DataType, Table};
    use rqp_common::MultiGrid;
    use rqp_obs::RingSink;
    use rqp_optimizer::{
        CostParams, EnumerationMode, Optimizer, Predicate, PredicateKind, QuerySpec,
    };
    use std::sync::Arc;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rqp-recovery-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

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

    #[test]
    fn corrupt_artifacts_are_quarantined_not_fatal() {
        let dir = scratch("quarantine");
        // A torn artifact: valid extension, garbage bytes.
        std::fs::write(dir.join("torn.rqpa"), b"{\"version\": 1, trunca").unwrap();
        // A stray tmp from an interrupted save.
        std::fs::write(dir.join("torn.tmp"), b"partial").unwrap();

        let ring = Arc::new(RingSink::new(64));
        let tracer = Tracer::to_sink(ring.clone());
        let report = recover_dir(&dir, &tracer);
        assert_eq!(report.quarantined, 1, "garbage .rqpa must be quarantined");
        assert_eq!(report.quarantined_files, vec!["torn.rqpa".to_string()]);
        assert_eq!(report.swept_tmp, 1, "stray tmp must be swept");
        assert!(!dir.join("torn.rqpa").exists());
        assert!(dir.join(QUARANTINE_DIR).join("torn.rqpa").exists());
        assert!(!dir.join("torn.tmp").exists());

        let stages: Vec<&'static str> = ring
            .snapshot()
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::RecoveryStep { stage, .. } => Some(*stage),
                _ => None,
            })
            .collect();
        assert!(stages.contains(&"quarantined"), "{stages:?}");
        assert!(stages.contains(&"tmp_swept"), "{stages:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn intact_artifacts_survive_and_prewarm_restores_manifest() {
        let dir = scratch("warm");
        let (cat, q) = star2_named("suite_r");
        let cat: &'static Catalog = Box::leak(Box::new(cat));
        let store = ArtifactStore::new(&dir);
        let opt =
            Optimizer::new(cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let artifact = CompiledArtifact::compile(&opt, MultiGrid::uniform(2, 1e-5, 8), 2.0, 0.2, 2);
        artifact.save(&store.path_for("suite_r")).unwrap();

        let tracer = Tracer::disabled();
        let report = recover_dir(&dir, &tracer);
        assert_eq!(report.quarantined, 0, "intact artifact must not move");
        assert!(dir.join("suite_r.rqpa").exists());

        // Seed a manifest (one valid name, one bogus) and pre-warm.
        let cache = ArtifactCache::new(ArtifactStore::new(&dir), cat, usize::MAX);
        std::fs::write(cache.manifest_path(), "suite_r\nno_such_query\n").unwrap();
        let mut report = report;
        warm_cache(&cache, &tracer, &mut report);
        assert_eq!(report.warm_restored, 1, "one valid manifest entry");
        assert!(cache.is_resident("suite_r"));

        let registry = MetricsRegistry::new();
        report.register(&registry);
        assert_eq!(registry.counter("recovery.warm_restored").value(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
