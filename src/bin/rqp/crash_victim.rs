//! `rqp crash-victim`: the child process of the crash-recovery harness
//! (`tests/crash_recovery.rs`).

use crate::{fail, flag_value, switch};
use rqp::artifacts::{checksum64, ArtifactStore, CompiledArtifact};
use rqp::catalog::tpcds;
use rqp::core::{CostOracle, CostSource, Params, Strategy};
use rqp::experiments::Experiment;
use rqp::obs::{MetricsRegistry, Tracer};
use rqp::optimizer::EnumerationMode;
use rqp::workloads::q91_with_dims;
use std::path::Path;
use std::process::ExitCode;

/// `rqp crash-victim --dir D [--recover]` — the child process of the
/// crash-recovery harness. Runs a deterministic sub-second workload that
/// walks through every named crashpoint site in order: a journaled paged
/// store (heap extend + spill create/flush), an SB/AB discovery pair at a
/// fixed location, and a journal-bracketed durable artifact save. Every
/// `report ...` line is a pure function of the workload, so an
/// interrupted run, once recovered, reproduces them bit-identically.
/// With `--recover` the journal is replayed, stray temp files swept, and
/// corrupt artifacts quarantined before the workload starts.
pub fn crash_victim(args: &[String]) -> ExitCode {
    let dir = flag_value(args, "--dir").unwrap_or_else(|| fail("crash-victim requires --dir DIR"));
    if !workload(Path::new(&dir), switch(args, "--recover")).unwrap_or_else(|e| fail(&e)) {
        return ExitCode::FAILURE;
    }
    println!("victim done");
    ExitCode::SUCCESS
}

/// The workload, `Ok(false)` when a discovery run broke its MSO bound.
fn workload(dir: &Path, recover: bool) -> Result<bool, String> {
    use rqp::catalog::datagen::{ColumnGen, GenSpec, TableGenSpec};
    use rqp::catalog::{Catalog, Column, ColumnStats, DataSet, DataType, Table};
    use rqp::storage::{IntentKind, Journal, PagedStore, StorageConfig, TableStore};

    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    if recover {
        let tracer = Tracer::from_env();
        let started = std::time::Instant::now();
        let report = rqp::server::recover_dir(dir, &tracer);
        let elapsed = started.elapsed();
        tracer.flush();
        println!("{}", report.summary());
        println!("recovery: elapsed {:.3} ms", elapsed.as_secs_f64() * 1e3);
    }

    // Phase 1 — journaled storage mutations. Tiny synthetic table through
    // a 4-frame pool: materialization brackets each heap file in a
    // durable intent (crash.after_journal_append), the spill writer pages
    // out mid-stream (crash.mid_spill_write) and flushes at its commit
    // barrier (crash.mid_page_flush).
    let mut cat = Catalog::new();
    let t = cat
        .add_table(Table::new(
            "t",
            0,
            vec![
                Column::new("k", DataType::Int, ColumnStats::uniform(200)).with_index(),
                Column::new("v", DataType::Int, ColumnStats::uniform(10)),
            ],
        ))
        .expect("victim table");
    let data = DataSet::generate(
        &cat,
        &GenSpec {
            seed: 9,
            tables: vec![TableGenSpec {
                table: t,
                rows: 200,
                columns: vec![ColumnGen::Serial, ColumnGen::Uniform { domain: 10 }],
            }],
        },
    )
    .expect("victim dataset");
    let cfg = StorageConfig::default()
        .with_page_size(256)
        .with_pool_frames(4)
        .with_journal(true);
    let store = PagedStore::materialize_in(&cat, &data, cfg, MetricsRegistry::new(), dir)
        .map_err(|e| format!("materialize journaled store: {e}"))?;
    // Several spill batches, each ending in a flush barrier (an fsync),
    // stretch the window of in-flight storage mutations so the SIGKILL
    // rounds of the harness land mid-mutation, not after the fact.
    let mut spilled = 0u64;
    for _ in 0..8 {
        let mut sink = store.spill_sink().expect("paged store spills");
        for i in 0..200i64 {
            (sink.append(&[i, i * 3])).map_err(|e| format!("spill append: {e}"))?;
        }
        spilled += sink.finish().map_err(|e| format!("spill finish: {e}"))?;
    }
    println!("report spill rows={spilled}");
    drop(store);

    // Phase 2 — discovery. SB and AB at a fixed grid location over a
    // small 2D_Q91 surface; report lines carry the raw cost bits so the
    // harness can compare crashed-and-recovered runs bit-for-bit.
    let catalog = tpcds::catalog_sf100();
    let bench = q91_with_dims(&catalog, 2).with_grid_points(5);
    let exp = Experiment::build(catalog, bench, EnumerationMode::LeftDeep);
    let (opt, surface) = (exp.optimizer(), &exp.surface);
    let qa_idx = surface.len() / 2;
    let opt_cost = surface.opt_cost(qa_idx);
    let mut mso_ok = true;
    for strategy in [Strategy::SpillBound, Strategy::AlignedBound] {
        let source = CostSource::Recost(surface, &opt);
        let compiled = (strategy.compile(source, &Params::default())).expect("victim compiles");
        let mut oracle = CostOracle::at_grid(&opt, surface.grid(), qa_idx);
        let report = compiled
            .run(&mut oracle)
            .expect("victim discovery completes");
        let (label, bound) = (strategy.short(), compiled.mso_guarantee());
        let sub = report.sub_optimality(opt_cost);
        println!(
            "report {label} total_bits={:016x} sub_bits={:016x}",
            report.total_cost.to_bits(),
            sub.to_bits()
        );
        if sub > bound * (1.0 + 1e-9) {
            mso_ok = false;
            eprintln!("victim: {label} sub-optimality {sub:.3} exceeds the MSO bound {bound}");
        }
    }

    // Phase 3 — durable artifact save bracketed by journal intents:
    // begin_durable (crash.after_journal_append), tmp+fsync+rename+dir
    // fsync (crash.before_rename / crash.after_rename), commit_durable
    // (crash.before_commit_sync).
    let art = CompiledArtifact::compile(&opt, exp.bench.grid(), 2.0, 0.2, 2);
    let bytes = art.to_bytes();
    let path = ArtifactStore::new(dir).path_for("2D_Q91");
    let mut journal = Journal::open(dir).map_err(|e| format!("open journal: {e}"))?;
    let saved = journal
        .begin_durable(IntentKind::ArtifactSave, &path)
        .map_err(|e| e.to_string())
        .and_then(|intent| {
            art.save(&path).map_err(|e| e.to_string())?;
            journal.commit_durable(intent, 0).map_err(|e| e.to_string())
        });
    saved.map_err(|e| format!("journaled artifact save: {e}"))?;
    println!(
        "report artifact bytes={} checksum={:016x}",
        bytes.len(),
        checksum64(&bytes)
    );
    Ok(mso_ok)
}
