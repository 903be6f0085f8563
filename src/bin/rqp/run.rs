//! `rqp run` and `rqp run-sql`: one strategy run at a true location,
//! printed as its event timeline. Both go through [`run_query`], over
//! the cost model at a grid location or, with `--paged`, over the
//! executor and the slotted-page store.

use crate::{fail, flag, flag_value, positionals, query_arg, switch};
use rqp::catalog::{tpcds, Catalog};
use rqp::core::{
    Compiled, CostOracle, CostSource, ExecutionOracle, Params, PopReoptimizer, Strategy,
};
use rqp::experiments::Experiment;
use rqp::obs::{
    prof, JsonlSink, MetricValue, MetricsRegistry, RingSink, TeeSink, TraceEvent, TraceRecord,
    TraceSink, Tracer,
};
use rqp::optimizer::EnumerationMode;
use rqp::storage::StorageConfig;
use rqp::workloads::{suite::default_grid_points, BenchQuery};
use std::process::ExitCode;
use std::sync::Arc;

/// `rqp run <query> <algo> [qa...] [--jsonl F] [--flame F]`, or
/// `rqp run <query> <algo> --paged [--pool-frames N]`.
pub fn run(args: &[String]) -> ExitCode {
    let pos = positionals(args);
    let (name, algo, qa) = (pos[0], pos[1], &pos[2..]);
    if switch(args, "--paged") || switch(args, "--pool-frames") {
        if let Some(extra) = qa.first() {
            fail(&format!(
                "unexpected argument {extra:?}: --paged measures qa from the data"
            ));
        }
        let strategy = strategy_arg(algo);
        if switch(args, "--jsonl") && matches!(strategy, Strategy::Native | Strategy::PenaltyAware)
        {
            fail("--jsonl: a paged native or pa run is one capped execution, which is not traced");
        }
        // RQP_PAGE_SIZE / RQP_POOL_FRAMES, then --pool-frames.
        let mut config = StorageConfig::from_env().unwrap_or_else(|e| fail(&e.to_string()));
        if let Some(n) = flag(args, "--pool-frames") {
            config = config.with_pool_frames(n);
        }
        let config = config.validated().unwrap_or_else(|e| fail(&e.to_string()));
        // Executable scale: synthetic TPC-DS at SF 0.1 — the sf100
        // statistics catalog has no materializable data.
        let catalog = tpcds::catalog(0.1);
        let bench = query_arg(&catalog, name);
        if !name.ends_with("D_Q91") {
            fail(&format!(
                "--paged runs support the Q91 family (2D_Q91 .. 6D_Q91); got {name}"
            ));
        }
        return run_query(catalog, bench, strategy, Truth::Paged(config), args);
    }
    let catalog = tpcds::catalog_sf100();
    let bench = query_arg(&catalog, name);
    let qa = parse_qa(qa, bench.query.ndims());
    // POP is a CLI special case until it joins the strategy table.
    if algo == "pop" {
        return pop(catalog, bench, qa);
    }
    run_query(catalog, bench, strategy_arg(algo), Truth::Grid(qa), args)
}

/// `rqp run-sql <sql> <algo> [qa...]`: `rqp run` over a parsed query, at
/// the grid a suite query of its dimensionality gets.
pub fn run_sql(args: &[String]) -> ExitCode {
    let pos = positionals(args);
    let strategy = strategy_arg(pos[1]);
    let catalog = tpcds::catalog_sf100();
    let query = (rqp::optimizer::parse_sql(&catalog, "adhoc", pos[0]))
        .unwrap_or_else(|e| fail(&e.to_string()));
    let d = query.ndims();
    if d == 0 {
        fail("no predicates marked `-- epp`; nothing to discover");
    }
    println!("parsed {d}-epp query:\n{}\n", query.to_sql(&catalog));
    let qa = parse_qa(&pos[2..], d);
    let bench = BenchQuery {
        query,
        grid_points: default_grid_points(d),
        min_sel: 1e-7,
    };
    run_query(catalog, bench, strategy, Truth::Grid(qa), args)
}

/// The strategy named `algo`, or exit 1 naming it.
fn strategy_arg(algo: &str) -> Strategy {
    Strategy::parse(algo).unwrap_or_else(|| fail(&format!("unknown algorithm {algo:?}")))
}

/// Where a run's true location comes from, and what meters it.
enum Truth {
    /// These selectivities, snapped to the nearest grid location; the
    /// cost model meters the run.
    Grid(Vec<f64>),
    /// The query's tables, materialized into the slotted-page store under
    /// this configuration; the executor meters the run through the
    /// pinning buffer pool, so a pool smaller than the working set
    /// really thrashes.
    Paged(StorageConfig),
}

/// The one strategy run behind `run`, `run --paged` and `run-sql`: builds
/// `bench`'s surface over `catalog`, compiles `strategy`, runs it against
/// `truth` with a ring-sink tracer, and prints the event timeline,
/// PenaltyAware's selection and the total against the optimum.
fn run_query(
    catalog: Catalog,
    bench: BenchQuery,
    strategy: Strategy,
    truth: Truth,
    args: &[String],
) -> ExitCode {
    let trace = Trace::open(args);
    let exp = {
        rqp::obs::span!("cli.run.build");
        Experiment::build(catalog, bench, EnumerationMode::LeftDeep)
    };
    let opt = exp.optimizer();
    let mut compiled = {
        rqp::obs::span!("cli.run.compile");
        let source = CostSource::Recost(&exp.surface, &opt);
        (strategy.compile(source, &Params::default())).expect("strategy compiles")
    };
    compiled.set_tracer(trace.tracer.clone());
    let run = |oracle: &mut dyn ExecutionOracle| {
        rqp::obs::span!("cli.run.run");
        compiled.run(oracle).expect("the run completes")
    };
    let name = exp.bench.name();
    match truth {
        Truth::Grid(qa) => {
            let grid = exp.surface.grid();
            let qa_idx = snap(grid, &qa);
            println!(
                "{name} [{}] at qa {qa:?} (grid location {qa_idx}):",
                strategy.short()
            );
            let report = run(&mut CostOracle::at_grid(&opt, grid, qa_idx));
            trace.print(&compiled, report.total_cost, exp.surface.opt_cost(qa_idx));
        }
        Truth::Paged(config) => {
            use rqp::executor::{Engine, PlanEngine as _};
            use rqp::optimizer::CostParams;
            use rqp::runner::{measure_qa, ExecOracle};
            use rqp::storage::PagedStore;

            let (catalog, query) = (&exp.catalog, &exp.bench.query);
            let errors = [30.0, 10.0, 50.0, 20.0, 15.0, 25.0];
            let spec = rqp::workloads::executable_genspec_with_errors(
                catalog,
                query,
                20260707,
                &errors[..query.ndims()],
            );
            let data = rqp::catalog::DataSet::generate(catalog, &spec).expect("generate dataset");
            let store = (PagedStore::materialize(catalog, &data, config))
                .unwrap_or_else(|e| fail(&format!("materialize paged store: {e}")));
            let pool = store.pool();
            println!(
                "paged store: {} B pages x {} frames ({} KiB pool)",
                pool.page_size(),
                pool.frame_count(),
                (pool.page_size() * pool.frame_count()) >> 10
            );
            // Ground truth comes from the materialized data (the paged
            // backend measures it bit-identically to the in-memory one).
            let qa = measure_qa(&store, query);
            let qa_fmt: Vec<String> = qa.iter().map(|s| format!("{s:.2e}")).collect();
            println!(
                "{name} [{}] at measured qa = ({})",
                strategy.short(),
                qa_fmt.join(", ")
            );
            let exec = || Engine::new(catalog, query, &store, CostParams::default());
            let (opt_plan, _) = opt.optimize_at(&qa);
            let optimal = (exec().run_full(&opt_plan, f64::INFINITY))
                .expect("optimal plan runs")
                .spent;
            let total = match compiled.fixed_plan() {
                // A fixed plan is trusted whatever it costs; cap the run
                // at 200x the optimal metered cost so the CLI terminates.
                Some((_, plan)) => {
                    let out = (exec().run_full(plan, 200.0 * optimal)).expect("the plan runs");
                    if !out.completed {
                        println!("{}: ABORTED at 200x optimal cost", strategy.name());
                    }
                    out.spent
                }
                None => run(&mut ExecOracle::new(exec(), &opt, exp.surface.grid())).total_cost,
            };
            trace.print(&compiled, total, optimal);
            print_pool_counters(store.registry());
        }
    }
    trace.finish()
}

/// The sinks of one run: a ring buffer the timeline is rendered from,
/// mirrored to JSONL with `--jsonl FILE` or `RQP_TRACE=jsonl:FILE`, and
/// the span profiler when `--flame FILE` asks for folded stacks.
struct Trace {
    ring: Arc<RingSink>,
    tracer: Tracer,
    jsonl: Option<String>,
    flame: Option<String>,
}

impl Trace {
    fn open(args: &[String]) -> Self {
        let ring = Arc::new(RingSink::new(1 << 20));
        let jsonl = flag_value(args, "--jsonl").or_else(|| {
            std::env::var("RQP_TRACE")
                .ok()
                .and_then(|v| v.strip_prefix("jsonl:").map(str::to_string))
        });
        let tracer = match &jsonl {
            Some(path) => {
                let sink = JsonlSink::create(path)
                    .unwrap_or_else(|e| fail(&format!("cannot create trace file {path}: {e}")));
                Tracer::to_sink(Arc::new(TeeSink::new(vec![
                    ring.clone() as Arc<dyn TraceSink>,
                    Arc::new(sink),
                ])))
            }
            None => Tracer::to_sink(ring.clone()),
        };
        let flame = flag_value(args, "--flame");
        if flame.is_some() {
            prof::reset_profiling();
            prof::set_profiling(true);
        }
        Self {
            ring,
            tracer,
            jsonl,
            flame,
        }
    }

    /// Prints `compiled`'s finished run: its timeline, the penalty-aware
    /// selection behind it if any, and what it spent, `total`, against
    /// the optimum and the strategy's bound.
    fn print(&self, compiled: &Compiled, total: f64, optimal: f64) {
        render_timeline(&self.ring.snapshot());
        if let Some(sel) = compiled.penalty_selection() {
            let plan = plan_label(sel.chosen.plan_id, sel.chosen.fingerprint);
            let (prior, alpha) = (sel.prior_hash, sel.alpha);
            println!("penalty-aware: chose {plan} (prior {prior:016x}, alpha {alpha})");
            println!(
                "expected sub-optimality {:.4} (native plan {:.4}), CVaR {:.4}",
                sel.chosen.expected, sel.native.expected, sel.chosen.cvar
            );
        }
        let guarantee = compiled.mso_guarantee();
        let bound = match guarantee.is_finite() {
            true => format!("MSO bound {guarantee:.1}"),
            false => "no MSO guarantee".into(),
        };
        let sub = total / optimal;
        println!("total {total:.0} vs optimal {optimal:.0} → sub-optimality {sub:.2} ({bound})");
    }

    /// Flushes the JSONL mirror and writes the folded stacks `--flame`
    /// asked for.
    fn finish(self) -> ExitCode {
        self.tracer.flush();
        if let Some(path) = &self.jsonl {
            println!("event stream mirrored to {path}");
        }
        if let Some(path) = &self.flame {
            prof::set_profiling(false);
            let folded = prof::folded_stacks();
            if let Err(e) = std::fs::write(path, &folded) {
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
}

/// `rqp run <query> pop [qa...]`: the re-optimization baseline, which is
/// not on the strategy table and prints one line.
fn pop(catalog: Catalog, bench: BenchQuery, qa: Vec<f64>) -> ExitCode {
    let exp = Experiment::build(catalog, bench, EnumerationMode::LeftDeep);
    let grid = exp.surface.grid();
    let qa_idx = snap(grid, &qa);
    let run = PopReoptimizer::new(&exp.optimizer(), 2.0).run(&grid.sels(qa_idx));
    println!(
        "POP: {} restarts, total cost {:.0}, sub-optimality {:.2} (no guarantee)",
        run.restarts,
        run.total_cost,
        run.total_cost / exp.surface.opt_cost(qa_idx)
    );
    ExitCode::SUCCESS
}

/// The true location given on the command line: one selectivity in
/// (0, 1] per error-prone predicate, or the middle of the space when none
/// is given; anything else exits 1.
fn parse_qa(args: &[&str], d: usize) -> Vec<f64> {
    if args.is_empty() {
        return vec![1e-3; d];
    }
    let qa: Option<Vec<f64>> = args.iter().map(|s| s.parse().ok()).collect();
    let qa = qa.filter(|v| v.len() == d && v.iter().all(|s| *s > 0.0 && *s <= 1.0));
    qa.unwrap_or_else(|| fail(&format!("expected {d} selectivities in (0,1]")))
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

/// Render a recorded event stream as a per-contour budget/cost timeline.
fn render_timeline(records: &[TraceRecord]) {
    use TraceEvent as E;
    // A `PlanExecuted` is always followed by its `BudgetCharged`; merge the
    // pair onto one line so each execution shows spent, budget and the
    // cumulative total side by side.
    let mut pending: Option<String> = None;
    for rec in records {
        if let (Some(line), E::BudgetCharged { total, .. }) = (&pending, &rec.event) {
            println!("{line}  cum {total:>12.0}");
            pending = None;
            continue;
        }
        if let Some(line) = pending.take() {
            println!("{line}");
        }
        let line = match &rec.event {
            E::RunStarted {
                algo,
                dims,
                contours,
            } => format!("run {algo}: {dims} error-prone dims, {contours} contours"),
            E::ContourEntered { contour, budget } => {
                format!("IC{:<3} budget {budget:>12.0}", contour + 1)
            }
            E::PlanExecuted {
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
                let line = format!("  {mode:<10} {plan:<10} spent {spent:>12.0} / {budget:>12.0}");
                pending = Some(format!("[{:>4}] {line}  {outcome}", rec.step));
                continue;
            }
            E::BudgetCharged { total, .. } => format!("  cumulative cost {total:>12.0}"),
            E::SelectivityLearnt { dim, sel } => format!("  learnt e{dim} = {sel:.3e}"),
            E::RunFinished {
                total_cost,
                executions,
                completed,
            } => format!(
                "run finished: {executions} executions, total cost {total_cost:.0}, \
                 completed: {completed}"
            ),
            E::RiskEvaluated {
                plan_fingerprint,
                plan_id,
                expected,
                cvar,
            } => {
                let plan = plan_label(*plan_id, *plan_fingerprint);
                format!("  risk {plan:<10} expected {expected:>10.4}  cvar {cvar:>10.4}")
            }
            // No run emits the others: recovery steps come from the
            // server's crash recovery, and nothing emits cache or fault
            // events.
            _ => format!("  {}", rec.to_json_line()),
        };
        println!("[{:>4}] {line}", rec.step);
    }
    if let Some(line) = pending {
        println!("{line}");
    }
}
