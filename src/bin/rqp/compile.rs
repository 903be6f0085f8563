//! `rqp compile <query>`: compiles the query's artifact into the store,
//! or warm-loads the one already there, and reports what that cost.

use crate::{fail, flag, flag_value, positionals, query_arg, switch};
use rqp::artifacts::{ArtifactStore, CompiledArtifact, Provenance};
use rqp::catalog::tpcds;
use rqp::experiments::env_threads;
use rqp::optimizer::{CostParams, EnumerationMode, Optimizer};
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::time::Instant;

/// Compiles once: prints the provenance line and the artifact's anatomy,
/// and, when this invocation compiled cold, loads the file back to set
/// what it spent before (compile, penalty selection and saves) against
/// the load.
pub fn compile(args: &[String]) -> ExitCode {
    let name = positionals(args)[0];
    let store = ArtifactStore::new(artifact_dir(args));
    let started = Instant::now();
    let (art, prov) = compile_one(&store, name, thread_count(args, 4), switch(args, "--force"));
    let cold_secs = started.elapsed().as_secs_f64();
    println!(
        "{name}: {} grid locations, {} POSP plans, {} contours, rho_red {}",
        art.surface.len(),
        art.surface.posp_size(),
        art.contours.len(),
        art.rho_red
    );
    if let Provenance::Cold { .. } = prov {
        let t0 = Instant::now();
        (CompiledArtifact::load(&store.path_for(name)))
            .unwrap_or_else(|e| fail(&format!("warm-load verification failed: {e}")));
        let warm_secs = t0.elapsed().as_secs_f64();
        println!(
            "{name}: cold start (compile, penalty selection, saves) {cold_secs:.3}s vs warm \
             start (load) {warm_secs:.3}s -> {:.1}x faster",
            cold_secs / warm_secs
        );
    }
    ExitCode::SUCCESS
}

/// Compiles (or warm-loads) the artifact for `name`, printing provenance;
/// exits 1 on failure.
pub fn compile_one(
    store: &ArtifactStore,
    name: &str,
    threads: usize,
    force: bool,
) -> (CompiledArtifact, Provenance) {
    let or_fail = |e: &dyn std::fmt::Display| -> ! { fail(&e.to_string()) };
    let catalog = tpcds::catalog_sf100();
    let bench = query_arg(&catalog, name);
    if force {
        let _ = std::fs::remove_file(store.path_for(name));
    }
    let opt = Optimizer::new(
        &catalog,
        &bench.query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .unwrap_or_else(|e| or_fail(&e));
    let (mut artifact, prov) = store
        .compile_or_load(&opt, &bench.grid(), 2.0, 0.2, threads)
        .unwrap_or_else(|e| or_fail(&e));
    // Penalty-aware selection rides along in the artifact: attach it to
    // cold compiles and to a warm-loaded file saved without one, so
    // every served artifact carries the chosen plan + prior hash for
    // the server's load-time verification.
    if artifact.penalty.is_none() {
        use rqp::core::{PenaltyConfig, PriorConfig};
        let (summary, sel) = rqp::experiments::penalty_summary(
            &artifact,
            &opt,
            PriorConfig::default(),
            &PenaltyConfig::default(),
        )
        .unwrap_or_else(|e| or_fail(&e));
        println!(
            "{name}: penalty-aware selection: plan {:?} (prior {}, expected {:.4}, CVaR {:.4})",
            summary.chosen_plan, summary.prior_hash, sel.chosen.expected, sel.chosen.cvar
        );
        artifact = artifact.with_penalty(summary);
        (artifact.save(&store.path_for(name))).unwrap_or_else(|e| or_fail(&e));
    }
    match &prov {
        Provenance::Warm { load } => println!(
            "{name}: warm load in {:.3}s from {}",
            load.as_secs_f64(),
            store.path_for(name).display()
        ),
        Provenance::Cold {
            reason,
            compile,
            save,
        } => println!(
            "{name}: cold compile ({reason:?}) in {:.3}s + save {:.3}s to {}",
            compile.as_secs_f64(),
            save.as_secs_f64(),
            store.path_for(name).display()
        ),
    }
    (artifact, prov)
}

/// Worker threads: `--threads N` (N ≥ 1), else `RQP_THREADS`, else
/// `default`.
pub fn thread_count(args: &[String], default: usize) -> usize {
    match flag::<NonZeroUsize>(args, "--threads") {
        Some(n) => n.get(),
        None if std::env::var_os("RQP_THREADS").is_some() => env_threads(),
        None => default,
    }
}

/// The artifact store's directory: `--dir DIR`, else `target/artifacts`.
pub fn artifact_dir(args: &[String]) -> String {
    flag_value(args, "--dir").unwrap_or_else(|| "target/artifacts".into())
}
