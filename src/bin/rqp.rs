//! `rqp` — command-line driver for the robust query processing library.
//!
//! ```text
//! rqp list                          list the benchmark queries
//! rqp explore <query>               POSP / contour anatomy of a query
//! rqp run <query> <algo> [qa...]    run a strategy at a true location
//! rqp compare <query>               MSOg/MSOe/ASO across all algorithms
//! rqp figures [id]                  the paper's evaluation: every table of
//!                                   EXPERIMENTS.md, each checked against its claim
//! rqp compile <query>               compile + persist the query's artifact
//! rqp serve                         serve compiled artifacts over TCP
//!                                   (--recover: journal replay + quarantine + cache pre-warm)
//! rqp client <addr> <method> ...    issue one request to a server
//! rqp trace <query> [algo] [qa...]  per-contour budget/cost timeline of one run
//! rqp trace --check <file>          validate a JSONL trace against the event schema
//! ```
//!
//! `<algo>` is a strategy of the table ([`Strategy`]) by short or wire
//! name — `native`, `pb` (PlanBouquet), `sb` (SpillBound), `ab`
//! (AlignedBound), `pa` (penalty-aware single-plan selection over a
//! selectivity prior) — or, for `run`, `pop` (re-optimization baseline).
//! `qa` is one selectivity per error-prone predicate (defaults to the
//! middle of the space).
//!
//! A malformed flag or selectivity, or an argument the subcommand does
//! not read, ends the process with exit code 1, naming what was wrong;
//! nothing falls back to a default silently.

use rqp::artifacts::{ArtifactStore, CompiledArtifact, Provenance};
use rqp::catalog::tpcds;
use rqp::core::report::ExecMode;
use rqp::core::{
    CostOracle, CostSource, Outcome, Params, PenaltySelection, PopReoptimizer, RunReport,
    SpillBound, Strategy,
};
use rqp::experiments::{compare, env_threads, Experiment};
use rqp::faults::{FaultPlan, RetryPolicy};
use rqp::figures::{Cell, Lab, Table, FIGURES};
use rqp::obs::{
    prof, JsonlSink, MetricValue, MetricsRegistry, RingSink, TeeSink, TraceEvent, TraceRecord,
    TraceSink, Tracer,
};
use rqp::optimizer::{CostParams, EnumerationMode, Optimizer};
use rqp::server::{serve, ArtifactCache, Client, Registry, ServedQuery, ServerConfig};
use rqp::workloads::{paper_suite, q91_with_dims};
use std::fmt::Display;
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

fn usage() -> ExitCode {
    let algos = Strategy::ALL.map(Strategy::short).join("|");
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    let ids = ids.join(" ");
    eprintln!(
        "usage:\n  rqp list\n  rqp explore <query>\n  rqp run <query> <{algos}|pop> [qa...]\n  rqp run <query> <{algos}> --paged [--pool-frames N]\n           (executor-backed out-of-core run over the slotted-page store;\n            env: RQP_PAGE_SIZE / RQP_POOL_FRAMES)\n  rqp run-sql <sql> [qa...]    (mark epps with `-- epp` comments)\n  rqp compare <query>\n  rqp figures [id]   (ids: {ids})\n  rqp compile <query> [--dir DIR] [--threads N] [--force]\n  rqp serve [--addr HOST:PORT] [--dir DIR] [--queries q1,q2] [--workers N] [--queue N] [--threads N]\n           [--shards N] [--max-conns N] [--cache-mb MB] [--tenant-quota N] [--pool-frames N] [--recover]\n           (every artifact in --dir is servable via the LRU cache; --queries are pinned)\n           (--recover: replay the intent journal, quarantine corrupt artifacts,\n            and pre-warm the LRU cache from the persisted hot-set manifest)\n           (env: RQP_FAULT_RATE=R RQP_FAULT_SEED=N enable fault injection)\n  rqp bench-serve [--queries q1,q2] [--clients N] [--secs S] [--pipeline D] [--dir DIR]\n           [--workers N] [--shards N] [--queue N] [--threads N] [--min-rps R]\n           (closed-loop throughput/latency bench over precompiled explains)\n  rqp client <addr> <method> [query] [qa...] [--deadline-ms N]\n  rqp trace <query> [{algos}] [qa...] [--jsonl FILE] [--flame FILE]\n           (env: RQP_TRACE=jsonl:FILE mirrors the event stream to FILE)\n  rqp trace --check <file>   validate a JSONL trace file"
    );
    ExitCode::FAILURE
}

fn find_query(name: &str) -> Option<rqp::workloads::BenchQuery> {
    let catalog = tpcds::catalog_sf100();
    if let Some(b) = paper_suite(&catalog).into_iter().find(|b| b.name() == name) {
        return Some(b);
    }
    // Q91 at any dimensionality 2–6 (Fig. 9 family), e.g. `2D_Q91`.
    for d in 2..=6usize {
        if name == format!("{d}D_Q91") {
            return Some(q91_with_dims(&catalog, d));
        }
    }
    None
}

/// The true location given on the command line: one selectivity in
/// (0, 1] per error-prone predicate, or the middle of the space when none
/// is given. `None` after saying what was wrong.
fn parse_qa<S: AsRef<str>>(args: &[S], d: usize) -> Option<Vec<f64>> {
    if args.is_empty() {
        return Some(vec![1e-3; d]);
    }
    let qa: Option<Vec<f64>> = args.iter().map(|s| s.as_ref().parse().ok()).collect();
    let qa = qa.filter(|v| v.len() == d && v.iter().all(|s| *s > 0.0 && *s <= 1.0));
    if qa.is_none() {
        eprintln!("expected {d} selectivities in (0,1]");
    }
    qa
}

/// The grid location nearest to `qa`, so the oracle's optimum is
/// well-defined.
fn snap(grid: &rqp::common::MultiGrid, qa: &[f64]) -> usize {
    let coords: Vec<usize> = (qa.iter().enumerate())
        .map(|(j, &s)| grid.dim(j).nearest_idx(s))
        .collect();
    grid.flat(&coords)
}

/// `plan#<pool id>`, or `plan@<fingerprint>` for a plan outside the pool.
fn plan_label(plan_id: Option<usize>, fingerprint: u64) -> String {
    plan_id.map_or_else(
        || format!("plan@{fingerprint:08x}"),
        |p| format!("plan#{p}"),
    )
}

/// One line per budgeted execution of a run.
fn print_records(report: &RunReport) {
    for r in &report.records {
        let mode = match r.mode {
            ExecMode::Spill { dim } => format!("spill(e{dim})"),
            ExecMode::Full => "full".into(),
        };
        let out = match r.outcome {
            Outcome::Completed { sel: Some(s) } => format!("learnt {s:.3e}"),
            Outcome::Completed { sel: None } => "query done".into(),
            Outcome::TimedOut { lower_bound } => format!("timeout, qa > {lower_bound:.2e}"),
        };
        println!(
            "IC{:<3} {mode:<10} budget {:>12.0}  {out}",
            r.contour + 1,
            r.budget
        );
    }
}

/// The closing line of a run: what it spent against the optimum, and the
/// strategy's bound.
fn print_total(total: f64, optimal: f64, guarantee: f64) {
    let bound = if guarantee.is_finite() {
        format!("MSO bound {guarantee:.1}")
    } else {
        "no MSO guarantee".into()
    };
    let sub = total / optimal;
    println!("total {total:.0} vs optimal {optimal:.0} → sub-optimality {sub:.2} ({bound})");
}

/// The penalty-aware selection behind a PenaltyAware run.
fn print_selection(sel: &PenaltySelection) {
    println!(
        "penalty-aware: chose {} (prior {:016x}, alpha {})",
        plan_label(sel.chosen.plan_id, sel.chosen.fingerprint),
        sel.prior_hash,
        sel.alpha
    );
    println!(
        "expected sub-optimality {:.4} (native plan {:.4}), CVaR {:.4}",
        sel.chosen.expected, sel.native.expected, sel.chosen.cvar
    );
}

/// Value of `--flag V` in `args`, if present; a flag with nothing after
/// it exits 1.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    let value = args.get(i + 1).cloned();
    value.or_else(|| fail(&format!("{flag} expects a value")))
}

/// `--flag V` parsed as a `T`, if present; a malformed `V` exits 1.
fn flag<T: FromStr>(args: &[String], flag: &str) -> Option<T>
where
    T::Err: Display,
{
    flag_value(args, flag).map(|v| parse_arg(flag, &v))
}

/// `value` parsed as a `T`, or exit 1 naming `what` and the value.
fn parse_arg<T: FromStr>(what: &str, value: &str) -> T
where
    T::Err: Display,
{
    (value.parse()).unwrap_or_else(|e| fail(&format!("{what}: invalid value {value:?} ({e})")))
}

/// What each subcommand reads after its name: at most how many
/// positional arguments, its flags that take a value, and its switches.
#[rustfmt::skip]
const ARGS: &[(&str, usize, &[&str], &[&str])] = &[
    ("list", 0, &[], &[]),
    ("explore", 1, &[], &[]),
    ("run", usize::MAX, &["--pool-frames"], &["--paged"]),
    ("run-sql", usize::MAX, &[], &[]),
    ("compare", 1, &[], &[]),
    ("figures", 1, &[], &[]),
    ("compile", 1, &["--dir", "--threads"], &["--force"]),
    ("serve", 0, &["--addr", "--dir", "--queries", "--workers", "--queue", "--threads", "--shards",
                   "--max-conns", "--cache-mb", "--tenant-quota", "--pool-frames"], &["--recover"]),
    ("bench-serve", 0, &["--queries", "--clients", "--secs", "--pipeline", "--dir", "--workers",
                         "--shards", "--queue", "--threads", "--min-rps"], &[]),
    ("client", usize::MAX, &["--deadline-ms"], &[]),
    ("crash-victim", 0, &["--dir"], &["--recover"]),
    ("trace", usize::MAX, &["--check", "--jsonl", "--flame"], &[]),
];

/// Exits 1 naming the first argument of `args` (a command line, the
/// subcommand first) that its subcommand does not read: a `--flag` that
/// is neither one of its valued flags (each followed by its value) nor
/// one of its switches, or a positional argument past its count.
fn expect_args(args: &[String]) {
    let Some(&(_, positionals, valued, switches)) =
        (ARGS.iter()).find(|a| Some(a.0) == args.first().map(String::as_str))
    else {
        return;
    };
    let (mut rest, mut seen) = (args[1..].iter(), 0);
    while let Some(arg) = rest.next() {
        if valued.contains(&arg.as_str()) {
            rest.next();
        } else if !arg.starts_with("--") {
            seen += 1;
            if seen > positionals {
                fail(&format!("unexpected argument {arg:?}"));
            }
        } else if !switches.contains(&arg.as_str()) {
            let known = [valued, switches].concat().join(", ");
            fail(&format!("unknown argument {arg:?} (expected: {known})"));
        }
    }
}

/// Prints `msg` and exits 1.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

/// Worker threads: `--threads N` (N ≥ 1), else `RQP_THREADS`, else
/// `default`.
fn thread_count(args: &[String], default: usize) -> usize {
    match flag::<NonZeroUsize>(args, "--threads") {
        Some(n) => n.get(),
        None if std::env::var_os("RQP_THREADS").is_some() => env_threads(),
        None => default,
    }
}

/// The comma-separated `--queries` list (default `2D_Q91`).
fn query_names(args: &[String]) -> Vec<String> {
    let list = flag_value(args, "--queries").unwrap_or_else(|| "2D_Q91".into());
    let names = list.split(',').map(str::trim).filter(|s| !s.is_empty());
    names.map(str::to_string).collect()
}

fn artifact_dir(args: &[String]) -> String {
    flag_value(args, "--dir").unwrap_or_else(|| "target/artifacts".into())
}

/// Resolves the storage configuration: `RQP_PAGE_SIZE` / `RQP_POOL_FRAMES`
/// from the environment, then a `--pool-frames N` command-line override.
fn storage_config(args: &[String]) -> Result<rqp::storage::StorageConfig, String> {
    let mut config = rqp::storage::StorageConfig::from_env().map_err(|e| e.to_string())?;
    if let Some(n) = flag(args, "--pool-frames") {
        config = config.with_pool_frames(n);
    }
    config.validated().map_err(|e| e.to_string())
}

/// Prints the storage-layer counters of a paged run (pool traffic, spill
/// pages, absorbed page faults) in a stable greppable format.
fn print_pool_counters(registry: &MetricsRegistry) {
    for (name, value) in registry.snapshot() {
        if !name.starts_with("storage.") {
            continue;
        }
        match value {
            MetricValue::Counter(v) => println!("metric {name} = {v}"),
            MetricValue::Gauge(v) => println!("metric {name} = {v}"),
            MetricValue::Histogram { count, sum, .. } => {
                println!("metric {name} = {count} obs / {sum:.0} us")
            }
        }
    }
}

/// `rqp run <query> <algo> --paged [--pool-frames N]`: an executor-backed
/// out-of-core run — the query's tables are materialized into the
/// slotted-page heap store and every scan goes through the pinning buffer
/// pool, so a pool smaller than the working set really thrashes.
fn run_paged(name: &str, strategy: Strategy, args: &[String]) -> ExitCode {
    use rqp::ess::EssSurface;
    use rqp::executor::{Engine, PlanEngine as _};
    use rqp::runner::{measure_qa, ExecOracle};
    use rqp::storage::PagedStore;

    let config = storage_config(args).unwrap_or_else(|e| fail(&e));
    // Executable scale: synthetic TPC-DS at SF 0.1 — the sf100 statistics
    // catalog has no materializable data.
    let catalog = tpcds::catalog(0.1);
    let Some(bench) = (2..=6usize)
        .find(|d| name == format!("{d}D_Q91"))
        .map(|d| q91_with_dims(&catalog, d))
    else {
        eprintln!("--paged runs support the Q91 family (2D_Q91 .. 6D_Q91); got {name}");
        return ExitCode::FAILURE;
    };
    let query = &bench.query;
    let d = query.ndims();
    let errors = [30.0, 10.0, 50.0, 20.0, 15.0, 25.0];
    let spec =
        rqp::workloads::executable_genspec_with_errors(&catalog, query, 20260707, &errors[..d]);
    let data = rqp::catalog::DataSet::generate(&catalog, &spec).expect("generate dataset");
    let store = match PagedStore::materialize(&catalog, &data, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("materialize paged store: {e}");
            return ExitCode::FAILURE;
        }
    };
    let pool = store.pool();
    println!(
        "paged store: {} B pages x {} frames ({} KiB pool)",
        pool.page_size(),
        pool.frame_count(),
        (pool.page_size() * pool.frame_count()) >> 10
    );
    // Ground truth comes from the materialized data, not from positional
    // qa arguments (the paged backend measures it bit-identically to the
    // in-memory one).
    let qa = measure_qa(&store, query);
    let qa_fmt: Vec<String> = qa.iter().map(|s| format!("{s:.2e}")).collect();
    println!("measured qa = ({})", qa_fmt.join(", "));

    let opt = Optimizer::new(
        &catalog,
        query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .expect("valid query");
    let surface = EssSurface::build(&opt, bench.grid());
    let exec = || Engine::new(&catalog, query, &store, CostParams::default());
    let (opt_plan, _) = opt.optimize_at(&qa);
    let opt_out = exec()
        .run_full(&opt_plan, f64::INFINITY)
        .expect("optimal plan runs");

    let source = CostSource::Recost(&surface, &opt);
    let compiled = (strategy.compile(source, &Params::default())).expect("strategy compiles");
    match compiled.fixed_plan() {
        // A fixed plan is trusted whatever it costs; cap the run at 200x
        // the optimal metered cost so the CLI terminates.
        Some((_, plan)) => {
            let out = (exec().run_full(plan, 200.0 * opt_out.spent)).expect("the plan runs");
            if !out.completed {
                println!("{}: ABORTED at 200x optimal cost", strategy.name());
            }
            print_total(out.spent, opt_out.spent, compiled.mso_guarantee());
        }
        None => {
            let mut oracle = ExecOracle::new(exec(), &opt, surface.grid());
            let report = compiled.run(&mut oracle).expect("discovery completes");
            print_records(&report);
            print_total(report.total_cost, opt_out.spent, compiled.mso_guarantee());
        }
    }
    print_pool_counters(store.registry());
    ExitCode::SUCCESS
}

/// Compiles (or warm-loads) the artifact for `name`, printing provenance.
fn compile_one(
    store: &ArtifactStore,
    name: &str,
    threads: usize,
    force: bool,
) -> Result<(CompiledArtifact, Provenance), String> {
    let bench = find_query(name).ok_or_else(|| format!("unknown query {name}; try `rqp list`"))?;
    if force {
        let _ = std::fs::remove_file(store.path_for(name));
    }
    let catalog = tpcds::catalog_sf100();
    let opt = Optimizer::new(
        &catalog,
        &bench.query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .map_err(|e| e.to_string())?;
    let (mut artifact, prov) = store
        .compile_or_load(&opt, &bench.grid(), 2.0, 0.2, threads)
        .map_err(|e| e.to_string())?;
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
        .map_err(|e| e.to_string())?;
        println!(
            "{name}: penalty-aware selection: plan {:?} (prior {}, expected {:.4}, CVaR {:.4})",
            summary.chosen_plan, summary.prior_hash, sel.chosen.expected, sel.chosen.cvar
        );
        artifact = artifact.with_penalty(summary);
        artifact
            .save(&store.path_for(name))
            .map_err(|e| e.to_string())?;
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
    Ok((artifact, prov))
}

/// A registry pinning `names`, each compiled or warm-loaded from `store`,
/// with `faults` injected into its executions when given.
fn pinned(
    store: &ArtifactStore,
    names: &[String],
    threads: usize,
    catalog: &'static rqp::catalog::Catalog,
    faults: Option<&Arc<FaultPlan>>,
) -> Result<Registry, String> {
    let mut registry = Registry::new();
    for name in names {
        let (artifact, _) = compile_one(store, name, threads, false)?;
        let mut q = ServedQuery::from_artifact(artifact, catalog).map_err(|e| e.to_string())?;
        if let Some(p) = faults {
            q = q.with_faults(Arc::clone(p), RetryPolicy::no_sleep(6));
        }
        registry.insert(q);
    }
    Ok(registry)
}

/// FNV-1a over a byte slice — for bit-exact artifact fingerprints in the
/// crash-victim report (matches the journal's checksum primitive).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// `rqp crash-victim --dir D [--recover]` — the child process of the
/// crash-recovery harness. Runs a deterministic sub-second workload that
/// walks through every named crashpoint site in order: a journaled paged
/// store (heap extend + spill create/flush), an SB/AB discovery pair at a
/// fixed location, and a journal-bracketed durable artifact save. Every
/// `report ...` line is a pure function of the workload, so an
/// interrupted run, once recovered, reproduces them bit-identically.
/// With `--recover` the journal is replayed, stray temp files swept, and
/// corrupt artifacts quarantined before the workload starts.
fn crash_victim(args: &[String]) -> ExitCode {
    use rqp::catalog::datagen::{ColumnGen, GenSpec, TableGenSpec};
    use rqp::catalog::{Catalog, Column, ColumnStats, DataSet, DataType, Table};
    use rqp::ess::EssSurface;
    use rqp::storage::{IntentKind, Journal, PagedStore, StorageConfig, TableStore};

    let Some(dir) = flag_value(args, "--dir") else {
        eprintln!("crash-victim requires --dir DIR");
        return ExitCode::FAILURE;
    };
    let dir = std::path::PathBuf::from(dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }

    if args.iter().any(|a| a == "--recover") {
        let tracer = Tracer::from_env();
        let started = std::time::Instant::now();
        let report = rqp::server::recover_dir(&dir, &tracer);
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
    let store = match PagedStore::materialize_in(&cat, &data, cfg, MetricsRegistry::new(), &dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("materialize journaled store: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Several spill batches, each ending in a flush barrier (an fsync),
    // stretch the window of in-flight storage mutations so the SIGKILL
    // rounds of the harness land mid-mutation, not after the fact.
    let mut spilled = 0u64;
    for _ in 0..8 {
        let mut sink = store.spill_sink().expect("paged store spills");
        for i in 0..200i64 {
            if let Err(e) = sink.append(&[i, i * 3]) {
                eprintln!("spill append: {e}");
                return ExitCode::FAILURE;
            }
        }
        match sink.finish() {
            Ok(rows) => spilled += rows,
            Err(e) => {
                eprintln!("spill finish: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("report spill rows={spilled}");
    drop(store);

    // Phase 2 — discovery. SB and AB at a fixed grid location over a
    // small 2D_Q91 surface; report lines carry the raw cost bits so the
    // harness can compare crashed-and-recovered runs bit-for-bit.
    let catalog = tpcds::catalog_sf100();
    let bench = q91_with_dims(&catalog, 2).with_grid_points(5);
    let opt = Optimizer::new(
        &catalog,
        &bench.query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .expect("victim query validates");
    let surface = EssSurface::build(&opt, bench.grid());
    let qa_idx = surface.len() / 2;
    let opt_cost = surface.opt_cost(qa_idx);
    let mut mso_ok = true;
    for strategy in [Strategy::SpillBound, Strategy::AlignedBound] {
        let source = CostSource::Recost(&surface, &opt);
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
    let art = CompiledArtifact::compile(&opt, bench.grid(), 2.0, 0.2, 2);
    let bytes = art.to_bytes();
    let store = ArtifactStore::new(&dir);
    let path = store.path_for("2D_Q91");
    let mut journal = match Journal::open(&dir) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("open journal: {e}");
            return ExitCode::FAILURE;
        }
    };
    let saved = journal
        .begin_durable(IntentKind::ArtifactSave, &path)
        .map_err(|e| e.to_string())
        .and_then(|intent| {
            art.save(&path).map_err(|e| e.to_string())?;
            journal.commit_durable(intent, 0).map_err(|e| e.to_string())
        });
    if let Err(e) = saved {
        eprintln!("journaled artifact save: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "report artifact bytes={} fnv={:016x}",
        bytes.len(),
        fnv1a64(&bytes)
    );

    if mso_ok {
        println!("victim done");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Render a recorded event stream as a per-contour budget/cost timeline.
fn render_timeline(records: &[TraceRecord]) {
    // A `PlanExecuted` is always followed by its `BudgetCharged`; merge the
    // pair onto one line so each execution shows spent, budget and the
    // cumulative total side by side.
    let mut pending: Option<String> = None;
    for rec in records {
        if let Some(line) = pending.take() {
            if let TraceEvent::BudgetCharged { total, .. } = rec.event {
                println!("{line}  cum {total:>12.0}");
                continue;
            }
            println!("{line}");
        }
        match &rec.event {
            TraceEvent::RunStarted {
                algo,
                dims,
                contours,
            } => println!("[{:>4}] run {algo}: {dims} error-prone dims, {contours} contours", rec.step),
            TraceEvent::ContourEntered { contour, budget } => {
                println!("[{:>4}] IC{:<3} budget {budget:>12.0}", rec.step, contour + 1)
            }
            TraceEvent::PlanExecuted {
                plan_fingerprint,
                plan_id,
                mode,
                dim,
                budget,
                spent,
                outcome,
                ..
            } => {
                let plan = plan_label(*plan_id, *plan_fingerprint);
                let mode = match (mode, dim) {
                    (&"spill", Some(j)) => format!("spill(e{j})"),
                    _ => (*mode).to_string(),
                };
                pending = Some(format!(
                    "[{:>4}]   {:<10} {:<10} spent {spent:>12.0} / {budget:>12.0}  {outcome}",
                    rec.step, mode, plan
                ));
            }
            TraceEvent::BudgetCharged { total, .. } => {
                println!("[{:>4}]   cumulative cost {total:>12.0}", rec.step)
            }
            TraceEvent::SelectivityLearnt { dim, sel } => {
                println!("[{:>4}]   learnt e{dim} = {sel:.3e}", rec.step)
            }
            TraceEvent::CacheHit { cache, key } => {
                println!("[{:>4}]   cache hit  {cache} key {key:08x}", rec.step)
            }
            TraceEvent::CacheMiss { cache, key } => {
                println!("[{:>4}]   cache miss {cache} key {key:08x}", rec.step)
            }
            TraceEvent::FaultInjected { site, seq } => {
                println!("[{:>4}]   fault injected at {site} (seq {seq})", rec.step)
            }
            TraceEvent::FaultRetried { site, attempt } => {
                println!("[{:>4}]   retry {attempt} at {site}", rec.step)
            }
            TraceEvent::RunFinished {
                total_cost,
                executions,
                completed,
            } => println!(
                "[{:>4}] run finished: {executions} executions, total cost {total_cost:.0}, completed: {completed}",
                rec.step
            ),
            TraceEvent::RecoveryStep { stage, count } => {
                println!("[{:>4}] recovery {stage}: {count} item(s)", rec.step)
            }
            TraceEvent::RiskEvaluated {
                plan_fingerprint,
                plan_id,
                expected,
                cvar,
            } => println!(
                "[{:>4}]   risk {:<10} expected {expected:>10.4}  cvar {cvar:>10.4}",
                rec.step,
                plan_label(*plan_id, *plan_fingerprint)
            ),
        }
    }
    if let Some(line) = pending {
        println!("{line}");
    }
}

/// Validate a JSONL trace file: every line must parse as a JSON object with
/// a monotonically increasing integer `step` and a known `kind`.
fn check_trace_file(path: &str) -> ExitCode {
    let data = match std::fs::read_to_string(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut last_step: Option<f64> = None;
    let mut kinds: std::collections::BTreeMap<&'static str, usize> = Default::default();
    let mut n = 0usize;
    for (i, line) in data.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = i + 1;
        let value: serde::Value = match serde_json::from_str(line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{path}:{lineno}: invalid JSON: {e}");
                return ExitCode::FAILURE;
            }
        };
        let Some(step) = value.get("step").and_then(|s| s.as_f64()) else {
            eprintln!("{path}:{lineno}: missing numeric `step`");
            return ExitCode::FAILURE;
        };
        if step.fract() != 0.0 || step < 0.0 {
            eprintln!("{path}:{lineno}: `step` must be a non-negative integer (got {step})");
            return ExitCode::FAILURE;
        }
        if let Some(prev) = last_step {
            if step <= prev {
                eprintln!("{path}:{lineno}: `step` {step} is not greater than the previous {prev}");
                return ExitCode::FAILURE;
            }
        }
        last_step = Some(step);
        let kind = value
            .get("kind")
            .and_then(|k| k.as_str().map(str::to_string));
        let Some(kind) = kind else {
            eprintln!("{path}:{lineno}: missing string `kind`");
            return ExitCode::FAILURE;
        };
        let Some(known) = TraceEvent::KINDS.iter().find(|k| **k == kind) else {
            eprintln!("{path}:{lineno}: unknown event kind {kind:?}");
            return ExitCode::FAILURE;
        };
        *kinds.entry(known).or_default() += 1;
        n += 1;
    }
    if n == 0 {
        eprintln!("{path}: no events");
        return ExitCode::FAILURE;
    }
    let breakdown: Vec<String> = kinds.iter().map(|(k, c)| format!("{k}={c}")).collect();
    println!("trace OK: {n} events ({})", breakdown.join(", "));
    ExitCode::SUCCESS
}

/// `rqp figures [id]`: runs one row of the figures table, or all of them,
/// at every query's default grid; prints each table as markdown with its
/// wall time, writes `target/experiments/<id>.json`, and fails naming the
/// first claim that does not hold.
fn figures(id: Option<&str>) -> ExitCode {
    let rows: Vec<_> = match id {
        None => FIGURES.iter().collect(),
        Some(id) => match rqp::figures::find(id) {
            Some(f) => vec![f],
            None => {
                eprintln!("unknown figure {id}");
                return usage();
            }
        },
    };
    let (lab, total) = (Lab::full(), std::time::Instant::now());
    let mut failed = None;
    for f in rows {
        println!("### {} — {}\n", f.id, f.title);
        let start = std::time::Instant::now();
        let table = (f.run)(&lab);
        let secs = start.elapsed().as_secs_f64();
        println!("{}", table.markdown());
        rqp::experiments::write_json(f.id, &table);
        match (f.claim)(&table) {
            Ok(()) => println!("{}: claim holds ({secs:.1} s)\n", f.id),
            Err(e) => {
                println!("{}: CLAIM FAILED: {e} ({secs:.1} s)\n", f.id);
                failed.get_or_insert(format!("{}: {e}", f.id));
            }
        }
    }
    println!("total {:.1} s", total.elapsed().as_secs_f64());
    match failed {
        None => ExitCode::SUCCESS,
        Some(e) => {
            eprintln!("first failed claim: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    expect_args(&args);
    match args.first().map(String::as_str) {
        Some("list") => {
            let catalog = tpcds::catalog_sf100();
            println!("benchmark queries (TPC-DS SF100 SPJ cores):");
            for b in paper_suite(&catalog) {
                println!(
                    "  {:<8} D={} relations={} grid={}^D",
                    b.name(),
                    b.query.ndims(),
                    b.query.relations.len(),
                    b.grid_points
                );
            }
            ExitCode::SUCCESS
        }
        Some("explore") => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            let Some(bench) = find_query(name) else {
                eprintln!("unknown query {name}; try `rqp list`");
                return ExitCode::FAILURE;
            };
            let exp = Experiment::build(tpcds::catalog_sf100(), bench, EnumerationMode::LeftDeep);
            let d = exp.bench.query.ndims();
            println!(
                "{name}: {} grid locations, {} POSP plans, costs [{:.3e}, {:.3e}], built in {:.2}s",
                exp.surface.len(),
                exp.surface.posp_size(),
                exp.surface.cmin(),
                exp.surface.cmax(),
                exp.build_secs
            );
            println!(
                "guarantees: SB D²+3D = {}, AB range [{}, {}]",
                rqp::core::spillbound_guarantee(d),
                rqp::core::aligned_guarantee_lower(d),
                rqp::core::spillbound_guarantee(d)
            );
            ExitCode::SUCCESS
        }
        Some("run") => {
            let (Some(name), Some(algo)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            // POP is a CLI special case until it joins the strategy table.
            let pop = algo == "pop";
            let strategy = Strategy::parse(algo);
            if strategy.is_none() && !pop {
                eprintln!("unknown algorithm {algo}");
                return usage();
            }
            if args.iter().any(|a| a == "--paged" || a == "--pool-frames") {
                return strategy.map_or_else(usage, |s| run_paged(name, s, &args));
            }
            let Some(bench) = find_query(name) else {
                eprintln!("unknown query {name}; try `rqp list`");
                return ExitCode::FAILURE;
            };
            let Some(qa) = parse_qa(&args[3..], bench.query.ndims()) else {
                return ExitCode::FAILURE;
            };
            let exp = Experiment::build(tpcds::catalog_sf100(), bench, EnumerationMode::LeftDeep);
            let opt = exp.optimizer();
            let grid = exp.surface.grid();
            let qa_idx = snap(grid, &qa);
            let opt_cost = exp.surface.opt_cost(qa_idx);
            let Some(strategy) = strategy else {
                let run = PopReoptimizer::new(&opt, 2.0).run(&grid.sels(qa_idx));
                println!(
                    "POP: {} restarts, total cost {:.0}, sub-optimality {:.2} (no guarantee)",
                    run.restarts,
                    run.total_cost,
                    run.total_cost / opt_cost
                );
                return ExitCode::SUCCESS;
            };
            let source = CostSource::Recost(&exp.surface, &opt);
            let compiled =
                (strategy.compile(source, &Params::default())).expect("strategy compiles");
            if let Some(sel) = compiled.penalty_selection() {
                print_selection(sel);
            }
            let mut oracle = CostOracle::at_grid(&opt, grid, qa_idx);
            let report = compiled.run(&mut oracle).expect("the run completes");
            print_records(&report);
            print_total(report.total_cost, opt_cost, compiled.mso_guarantee());
            ExitCode::SUCCESS
        }
        Some("run-sql") => {
            let Some(sql) = args.get(1) else {
                return usage();
            };
            let catalog = tpcds::catalog_sf100();
            let query = match rqp::optimizer::parse_sql(&catalog, "adhoc", sql) {
                Ok(q) => q,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let d = query.ndims();
            if d == 0 {
                eprintln!("no predicates marked `-- epp`; nothing to discover");
                return ExitCode::FAILURE;
            }
            println!("parsed {d}-epp query:\n{}\n", query.to_sql(&catalog));
            let Some(qa) = parse_qa(&args[2..], d) else {
                return ExitCode::FAILURE;
            };
            use rqp::common::MultiGrid;
            use rqp::ess::EssSurface;
            use rqp::optimizer::{CostParams, Optimizer};
            let opt = Optimizer::new(
                &catalog,
                &query,
                CostParams::default(),
                EnumerationMode::LeftDeep,
            )
            .expect("parsed query validated");
            let points = rqp::workloads::suite::default_grid_points(d);
            let surface = EssSurface::build(&opt, MultiGrid::uniform(d, 1e-7, points));
            let grid = surface.grid();
            let qa_idx = snap(grid, &qa);
            let sb = SpillBound::new(&surface, &opt, 2.0);
            let mut o = CostOracle::at_grid(&opt, grid, qa_idx);
            let report = sb.run(&mut o).expect("discovery completes");
            println!(
                "SpillBound: {} executions, sub-optimality {:.2} (guarantee {})",
                report.executions(),
                report.sub_optimality(surface.opt_cost(qa_idx)),
                sb.mso_guarantee()
            );
            if let Some(art) = rqp::core::report::render_trace_2d(&report, grid) {
                println!("\n{art}");
            }
            ExitCode::SUCCESS
        }
        Some("compare") => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            let Some(bench) = find_query(name) else {
                eprintln!("unknown query {name}; try `rqp list`");
                return ExitCode::FAILURE;
            };
            let exp = Experiment::build(tpcds::catalog_sf100(), bench, EnumerationMode::LeftDeep);
            let row = compare(&exp, 2.0, 0.2);
            let mut table = Table::new(&["strategy", "MSOg", "MSOe", "ASO"]);
            for s in Strategy::ALL {
                let (msog, msoe, aso) = row.stats(s);
                let cells = [Cell::Num(msog, 1), Cell::Num(msoe, 1), Cell::Num(aso, 2)];
                table.push([vec![s.name().into()], cells.to_vec()].concat());
            }
            println!("{name}: comparison\n\n{}", table.markdown());
            println!(
                "penalty-aware prior-expected sub-optimality: {:.4} (native plan {:.4}), \
                 CVaR {:.4} — expected-case guarantee: PA ≤ native under the prior",
                row.aso_prior_pa, row.aso_prior_native, row.pa_cvar
            );
            ExitCode::SUCCESS
        }
        Some("figures") => figures(args.get(1).map(String::as_str)),
        Some("compile") => {
            let Some(name) = args.get(1).filter(|n| !n.starts_with("--")) else {
                return usage();
            };
            let threads = thread_count(&args, 4);
            let store = ArtifactStore::new(artifact_dir(&args));
            let force = args.iter().any(|a| a == "--force");
            // Cold pass (compile + save, unless a valid artifact exists
            // and --force was not given)…
            let (artifact, prov) = match compile_one(&store, name, threads, force) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            // Cold startup = what `compile_or_load` does with no usable
            // file: the full compile pipeline plus the save. When the
            // first pass found a warm artifact, re-time both stages here
            // so the comparison is always printed.
            let cold_secs = match prov {
                Provenance::Cold { compile, save, .. } => (compile + save).as_secs_f64(),
                Provenance::Warm { .. } => {
                    let bench = find_query(name).expect("query resolved above");
                    let catalog = tpcds::catalog_sf100();
                    let opt = Optimizer::new(
                        &catalog,
                        &bench.query,
                        CostParams::default(),
                        EnumerationMode::LeftDeep,
                    )
                    .expect("query validated above");
                    let t = std::time::Instant::now();
                    let recompiled = CompiledArtifact::compile(
                        &opt,
                        bench.grid(),
                        artifact.ratio,
                        artifact.lambda,
                        threads,
                    );
                    let tmp = store.path_for(&format!("{name}.cold-timing"));
                    recompiled.save(&tmp).ok();
                    let secs = t.elapsed().as_secs_f64();
                    let _ = std::fs::remove_file(&tmp);
                    secs
                }
            };
            // …then measure the warm path against the file on disk.
            let path = store.path_for(name);
            let t0 = std::time::Instant::now();
            match CompiledArtifact::load(&path) {
                Ok(loaded) => {
                    let warm_secs = t0.elapsed().as_secs_f64();
                    println!(
                        "{name}: {} grid locations, {} POSP plans, {} contours, rho_red {}",
                        loaded.surface.len(),
                        loaded.surface.posp_size(),
                        loaded.contours.len(),
                        loaded.rho_red
                    );
                    println!(
                        "{name}: cold start (compile+save) {cold_secs:.3}s vs warm start (load) \
                         {warm_secs:.3}s -> {:.1}x faster",
                        cold_secs / warm_secs
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("warm-load verification failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("serve") => {
            let addr = flag_value(&args, "--addr").unwrap_or_else(|| "127.0.0.1:7401".into());
            let (threads, names) = (thread_count(&args, 4), query_names(&args));
            let cache_mb: usize = flag(&args, "--cache-mb").unwrap_or(256);
            let config = ServerConfig {
                workers: flag(&args, "--workers").unwrap_or(4),
                queue_capacity: flag(&args, "--queue").unwrap_or(64),
                shards: flag(&args, "--shards").unwrap_or(2),
                max_connections: flag(&args, "--max-conns").unwrap_or(1024),
                tenant_quota: flag(&args, "--tenant-quota"),
                ..ServerConfig::default()
            };
            // Out-of-core knob: --pool-frames caps any paged-backend
            // buffer pool created in this process. Validated here, then
            // exported through RQP_POOL_FRAMES so the storage layer's
            // `from_env` resolution picks it up uniformly.
            if args.iter().any(|a| a == "--pool-frames") {
                let c = storage_config(&args).unwrap_or_else(|e| fail(&e));
                std::env::set_var(rqp::storage::ENV_POOL_FRAMES, c.pool_frames.to_string());
                println!(
                    "storage: paged-backend pool budget {} frames x {} B pages",
                    c.pool_frames, c.page_size
                );
            }
            // --recover runs crash recovery over the artifact directory
            // *before* anything is loaded from it: replay the intent
            // journal, sweep stray temp files, and quarantine corrupt
            // artifacts so the daemon never faults in torn state.
            let recover = args.iter().any(|a| a == "--recover");
            let recovery_tracer = Tracer::from_env();
            let mut recovery_report = recover.then(|| {
                let dir = artifact_dir(&args);
                let report = rqp::server::recover_dir(std::path::Path::new(&dir), &recovery_tracer);
                println!("{}", report.summary());
                for name in &report.quarantined_files {
                    println!("recovery: quarantined {name}");
                }
                report
            });
            let store = ArtifactStore::new(artifact_dir(&args));
            let catalog: &'static _ = Box::leak(Box::new(tpcds::catalog_sf100()));
            // RQP_FAULT_RATE / RQP_FAULT_SEED turn on deterministic fault
            // injection across the oracles and socket paths; the breaker
            // + retry machinery absorbs it.
            let fault_plan = FaultPlan::from_env().map(Arc::new);
            let registry = pinned(&store, &names, threads, catalog, fault_plan.as_ref())
                .unwrap_or_else(|e| fail(&e));
            if let Some(p) = &fault_plan {
                println!(
                    "fault injection active: seed {}, socket read/write faults enabled",
                    p.seed()
                );
            }
            // Every artifact in --dir is servable, not only the pinned
            // --queries: an LRU byte-bounded cache faults the rest in on
            // first use and evicts under memory pressure.
            let mut cache_store = ArtifactStore::new(artifact_dir(&args));
            if let Some(p) = &fault_plan {
                cache_store = cache_store.with_faults(Arc::clone(p));
            }
            let mut cache = ArtifactCache::new(cache_store, catalog, cache_mb << 20);
            if let Some(p) = &fault_plan {
                cache = cache.with_faults(Arc::clone(p), RetryPolicy::no_sleep(6));
            }
            // Pre-warm the LRU cache from the hot-set manifest the
            // previous process persisted, so a restarted server answers
            // its hot queries at warm latency from the first request.
            if let Some(report) = recovery_report.as_mut() {
                rqp::server::warm_cache(&cache, &recovery_tracer, report);
                recovery_tracer.flush();
                println!(
                    "recovery: pre-warmed {} cached quer{} from the manifest",
                    report.warm_restored,
                    if report.warm_restored == 1 {
                        "y"
                    } else {
                        "ies"
                    }
                );
            }
            let registry = registry.with_cache(cache);
            let config = ServerConfig {
                faults: fault_plan,
                ..config
            };
            match serve(registry, addr.as_str(), config) {
                Ok(handle) => {
                    // Surface what recovery did in the `stats` response's
                    // registry block (`recovery.*` counters).
                    if let Some(report) = &recovery_report {
                        report.register(handle.metrics().registry());
                    }
                    println!(
                        "serving {} pinned (+ LRU cache over {}) on {} (send a `shutdown` request to stop)",
                        names.join(", "),
                        artifact_dir(&args),
                        handle.addr
                    );
                    handle.wait();
                    println!("server stopped");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("bind {addr}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("bench-serve") => {
            // Closed-loop serving benchmark: N client threads hammer a
            // freshly started server with precompiled `explain` requests
            // and every response is checked byte-for-byte against a
            // single-threaded baseline. Throughput and latency quantiles
            // come from an `rqp-obs` histogram.
            let (threads, names) = (thread_count(&args, 4), query_names(&args));
            let clients = flag(&args, "--clients").unwrap_or(8usize).max(1);
            let secs = flag(&args, "--secs").unwrap_or(3.0f64).max(0.1);
            let pipeline = flag(&args, "--pipeline").unwrap_or(16usize).max(1);
            let min_rps: Option<f64> = flag(&args, "--min-rps");
            let config = ServerConfig {
                workers: flag(&args, "--workers").unwrap_or(4),
                queue_capacity: flag(&args, "--queue").unwrap_or(256),
                shards: flag(&args, "--shards").unwrap_or(4),
                max_connections: 1024,
                ..ServerConfig::default()
            };
            let store = ArtifactStore::new(artifact_dir(&args));
            let catalog: &'static _ = Box::leak(Box::new(tpcds::catalog_sf100()));
            let registry =
                pinned(&store, &names, threads, catalog, None).unwrap_or_else(|e| fail(&e));
            let (nworkers, nshards) = (config.workers, config.shards);
            let handle = match serve(registry, "127.0.0.1:0", config) {
                Ok(h) => h,
                Err(e) => {
                    eprintln!("bind: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let addr = handle.addr;

            // Precompiled request lines + single-threaded baseline.
            let lines: Vec<String> = names
                .iter()
                .enumerate()
                .map(|(i, n)| rqp::server::request_line(i as f64, "explain", Some(n), &[], None))
                .collect();
            let baseline: Vec<String> = {
                let mut c = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("connect: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                lines
                    .iter()
                    .map(|l| {
                        let r = c.call_raw(l).expect("baseline request");
                        assert!(r.contains("\"ok\":true"), "baseline failed: {r}");
                        r
                    })
                    .collect()
            };

            // Each client pipelines `pipeline` requests per batch (one
            // write syscall, `pipeline` in-order responses) — still
            // closed-loop: nothing new is sent until the whole batch is
            // answered. Per-request latency is measured from the batch
            // send to that response's arrival.
            let batch: String = (0..pipeline)
                .map(|k| format!("{}\n", lines[k % lines.len()]))
                .collect();
            let expected: Vec<&String> =
                (0..pipeline).map(|k| &baseline[k % lines.len()]).collect();
            let obs = MetricsRegistry::new();
            let latency = obs.histogram("bench_serve.latency_us");
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs_f64(secs);
            let t0 = std::time::Instant::now();
            let (total, mismatches) = std::thread::scope(|s| {
                let handles: Vec<_> = (0..clients)
                    .map(|_| {
                        let batch = &batch;
                        let expected = &expected;
                        let latency = latency.clone();
                        s.spawn(move || {
                            let mut c = Client::connect(addr).expect("bench client connect");
                            let (mut sent, mut bad) = (0u64, 0u64);
                            while std::time::Instant::now() < deadline {
                                let req = std::time::Instant::now();
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
                eprintln!(
                    "  DETERMINISM VIOLATION: {mismatches} responses differed from the baseline"
                );
                return ExitCode::FAILURE;
            }
            println!("  determinism     all {total} responses byte-equal to the baseline");
            if let Some(min) = min_rps {
                if rps < min {
                    eprintln!("  below --min-rps {min:.0}");
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Some("client") => {
            let (Some(addr), Some(method)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            let deadline_ms: Option<u64> = flag(&args, "--deadline-ms");
            let mut positional = args[3..].iter().take_while(|a| !a.starts_with("--"));
            let query = positional.next();
            let qa: Vec<f64> = positional.map(|s| parse_arg("selectivity", s)).collect();
            let mut client = match Client::connect(addr.as_str()) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("connect {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let line =
                rqp::server::request_line(1.0, method, query.map(String::as_str), &qa, deadline_ms);
            // Retry transient drops (including injected ones) with
            // backoff; `shutdown` is the one non-idempotent method.
            let result = if method == "shutdown" {
                client.call_raw(&line)
            } else {
                client.call_raw_retry(
                    &line,
                    &RetryPolicy::default(),
                    Some(std::time::Duration::from_secs(30)),
                )
            };
            match result {
                Ok(response) => {
                    println!("{response}");
                    if response.contains("\"ok\":true") {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("request failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("crash-victim") => crash_victim(&args),
        Some("trace") => {
            if args.get(1).map(String::as_str) == Some("--check") {
                let Some(path) = args.get(2) else {
                    return usage();
                };
                return check_trace_file(path);
            }
            let Some(name) = args.get(1).filter(|n| !n.starts_with("--")) else {
                return usage();
            };
            let Some(bench) = find_query(name) else {
                eprintln!("unknown query {name}; try `rqp list`");
                return ExitCode::FAILURE;
            };
            // Positionals after the query: optional algo, then optional qa.
            let positionals: Vec<&String> = args[2..]
                .iter()
                .take_while(|a| !a.starts_with("--"))
                .collect();
            let (algo, qa_args) = match positionals.first() {
                Some(first) if first.parse::<f64>().is_err() => (first.as_str(), &positionals[1..]),
                _ => (Strategy::SpillBound.short(), &positionals[..]),
            };
            let Some(strategy) = Strategy::parse(algo) else {
                eprintln!("unknown algorithm {algo}");
                return usage();
            };
            let Some(qa) = parse_qa(qa_args, bench.query.ndims()) else {
                return ExitCode::FAILURE;
            };

            // Sinks: always keep a ring for rendering; mirror to JSONL when
            // asked via --jsonl or RQP_TRACE=jsonl:FILE.
            let ring = Arc::new(RingSink::new(1 << 20));
            let jsonl_path = flag_value(&args, "--jsonl").or_else(|| {
                std::env::var("RQP_TRACE")
                    .ok()
                    .and_then(|v| v.strip_prefix("jsonl:").map(str::to_string))
            });
            let tracer = match &jsonl_path {
                Some(path) => match JsonlSink::create(path) {
                    Ok(sink) => Tracer::to_sink(Arc::new(TeeSink::new(vec![
                        ring.clone() as Arc<dyn TraceSink>,
                        Arc::new(sink),
                    ]))),
                    Err(e) => {
                        eprintln!("cannot create trace file {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                None => Tracer::to_sink(ring.clone()),
            };
            let flame_path = flag_value(&args, "--flame");
            if flame_path.is_some() {
                prof::reset_profiling();
                prof::set_profiling(true);
            }

            let exp = {
                rqp::obs::span!("cli.trace.build");
                Experiment::build(tpcds::catalog_sf100(), bench, EnumerationMode::LeftDeep)
            };
            let opt = exp.optimizer();
            let grid = exp.surface.grid();
            let qa_idx = snap(grid, &qa);
            let opt_cost = exp.surface.opt_cost(qa_idx);
            let (compiled, report) = {
                rqp::obs::span!("cli.trace.run");
                let source = CostSource::Recost(&exp.surface, &opt);
                let mut compiled =
                    (strategy.compile(source, &Params::default())).expect("strategy compiles");
                compiled.set_tracer(tracer.clone());
                let mut oracle = CostOracle::at_grid(&opt, grid, qa_idx);
                let report = compiled.run(&mut oracle).expect("the run completes");
                (compiled, report)
            };
            tracer.flush();

            println!("trace of {name} [{algo}] at qa {qa:?} (grid location {qa_idx}):");
            render_timeline(&ring.snapshot());
            if let Some(sel) = compiled.penalty_selection() {
                print_selection(sel);
            }
            print_total(report.total_cost, opt_cost, compiled.mso_guarantee());
            if let Some(path) = &jsonl_path {
                println!("event stream mirrored to {path}");
            }
            if let Some(path) = flame_path {
                prof::set_profiling(false);
                let folded = prof::folded_stacks();
                if let Err(e) = std::fs::write(&path, &folded) {
                    eprintln!("cannot write folded stacks to {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!(
                    "folded stacks ({} frames) written to {path} — render with \
                     `inferno-flamegraph < {path} > flame.svg`",
                    folded.lines().count()
                );
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
