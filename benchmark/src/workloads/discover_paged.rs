//! `discover-paged`: discovery with real execution. SpillBound,
//! AlignedBound and PlanBouquet drive the executor over a paged store
//! whose 2 MiB pool is several times smaller than the 4D working set, on
//! synthetic TPC-DS at scale 0.1 with planted estimation errors. Executor
//! and storage do nearly all the work; the discovery loop is a few
//! percent.

use super::{LAMBDA, RATIO};
use crate::gen::Rng;
use crate::harness::{compile_threads, Cfg, Recorder, Workload};
use crate::stats::self_times;
use rqp::catalog::{tpcds, Catalog, DataSet};
use rqp::common::Cost;
use rqp::core::{
    AlignedBound, ExecutionOracle, FullOutcome, PlanBouquet, RunReport, SpillBound, SpillOutcome,
};
use rqp::ess::EssSurface;
use rqp::executor::{Engine, PlanEngine as _};
use rqp::optimizer::{CostParams, Optimizer, PlanId, PlanNode};
use rqp::runner::{measure_qa, ExecOracle};
use rqp::storage::{PagedStore, StorageConfig};
use rqp::workloads::{executable_genspec_with_errors, q91_with_dims, BenchQuery};
use std::path::Path;
use std::time::Instant;

/// Scale factor of the synthetic data: the sf100 statistics catalog has
/// nothing to materialize.
const SCALE: f64 = 0.1;
/// Planted error factor of each error-prone predicate over its estimate.
const ERRORS: [f64; 4] = [30.0, 10.0, 50.0, 20.0];
/// Seed of the dataset, the one `rqp run --paged` uses. Not the run's
/// seed: with skew planted at this scale the seed decides how much work
/// the joins are (ops twice as long, memory twice as large between two
/// seeds), so two seeds would be two workloads. The run's seed orders the
/// ops of a round.
const DATASET_SEED: u64 = 20260707;

#[derive(Clone, Copy, PartialEq)]
enum Strategy {
    Sb,
    Ab,
    Pb,
}

/// One round, as `(dimensions of Q91, strategy)`. PlanBouquet on 4D runs
/// for seconds and is left out to keep the rounds short.
const OPS: [(usize, Strategy); 7] = [
    (2, Strategy::Sb),
    (2, Strategy::Ab),
    (2, Strategy::Pb),
    (3, Strategy::Sb),
    (3, Strategy::Ab),
    (3, Strategy::Pb),
    (4, Strategy::Sb),
];

struct Paged {
    bench: &'static BenchQuery,
    opt: Optimizer<'static>,
    surface: EssSurface,
    store: PagedStore,
    /// Metered cost of the optimal plan at the data's true selectivities:
    /// the denominator of sub-optimality.
    opt_spent: Cost,
    /// Pool counters when set-up ended, in [`COUNTERS`] order.
    baseline: Vec<f64>,
}

const COUNTERS: [&str; 6] = [
    "storage.pool.hits",
    "storage.pool.pins",
    "storage.pool.misses",
    "storage.pool.evictions",
    "storage.pool.flushes",
    "storage.spill.pages",
];

impl Paged {
    fn counters(&self) -> Vec<f64> {
        let reg = self.store.registry();
        let mut v: Vec<f64> = COUNTERS
            .iter()
            .map(|n| reg.counter(n).value() as f64)
            .collect();
        v.push(reg.histogram("storage.pool.io_us").sum());
        v.push(reg.counter("batch.fallbacks").value() as f64);
        v
    }

    fn engine(&self, catalog: &'static Catalog) -> Engine<'_> {
        Engine::new(
            catalog,
            &self.bench.query,
            &self.store,
            CostParams::default(),
        )
        .with_metrics(self.store.registry())
    }
}

pub struct DiscoverPaged {
    catalog: &'static Catalog,
    queries: Vec<Paged>,
    /// The first report of each op of a round, serialized, with its
    /// sub-optimality and guarantee; later rounds must repeat it bit for
    /// bit.
    reference: Vec<Option<(String, f64, f64)>>,
    ops_run: u64,
    rng: Rng,
}

impl Workload for DiscoverPaged {
    fn setup(cfg: &Cfg, rec: &mut Recorder, _dir: &Path) -> Self {
        // Leaked like the sf100 catalog: the optimizer borrows both for
        // as long as the workload lives.
        let catalog: &'static Catalog = Box::leak(Box::new(tpcds::catalog(SCALE)));
        let (mut datagen, mut materialize, mut surface_ms) = (0.0, 0.0, 0.0);
        let queries = (2..=4)
            .map(|d| {
                let bench: &'static BenchQuery = Box::leak(Box::new(q91_with_dims(catalog, d)));
                let spec = executable_genspec_with_errors(
                    catalog,
                    &bench.query,
                    DATASET_SEED,
                    &ERRORS[..d],
                );
                let t = Instant::now();
                let data = DataSet::generate(catalog, &spec).expect("generate the dataset");
                datagen += t.elapsed().as_secs_f64() * 1e3;
                let t = Instant::now();
                let store = PagedStore::materialize(catalog, &data, StorageConfig::default())
                    .expect("materialize the paged store");
                materialize += t.elapsed().as_secs_f64() * 1e3;
                drop(data);
                let opt = super::optimizer(catalog, bench);
                let t = Instant::now();
                let surface = EssSurface::build_parallel(&opt, bench.grid(), compile_threads());
                surface_ms += t.elapsed().as_secs_f64() * 1e3;
                let mut q = Paged {
                    bench,
                    opt,
                    surface,
                    store,
                    opt_spent: 0.0,
                    baseline: Vec::new(),
                };
                let qa = measure_qa(&q.store, &bench.query);
                let (plan, _) = q.opt.optimize_at(&qa);
                let t = Instant::now();
                let out = q
                    .engine(catalog)
                    .run_full(&plan, f64::INFINITY)
                    .expect("the optimal plan runs");
                if d == 4 {
                    rec.sample("full_4d", t.elapsed().as_secs_f64() * 1e3);
                }
                q.opt_spent = out.spent;
                q.baseline = q.counters();
                q
            })
            .collect();
        rec.sample("datagen", datagen);
        rec.sample("materialize", materialize);
        rec.sample("surface", surface_ms);
        Self {
            catalog,
            queries,
            reference: vec![None; OPS.len()],
            ops_run: 0,
            rng: Rng::new(cfg.seed),
        }
    }

    fn round(&mut self, rec: &mut Recorder, traced: bool) {
        let mut order: Vec<usize> = (0..OPS.len()).collect();
        self.rng.shuffle(&mut order);
        for i in order {
            let (d, strategy) = OPS[i];
            let q = &self.queries[d - 2];
            let engine = q.engine(self.catalog);
            let mut oracle = ExecOracle::new(engine, &q.opt, q.surface.grid());
            let op = rec.next_op();
            let t = Instant::now();
            let run = if traced {
                let root = rec.open("op", None, op);
                let mut spy = SpanOracle {
                    inner: oracle,
                    rec,
                    root,
                    op,
                    calls: [0.0; 2],
                    busy_ns: 0,
                    spent: 0.0,
                };
                let run = discover(q, strategy, &mut spy);
                let (calls, busy_ns, spent) = (spy.calls, spy.busy_ns, spy.spent);
                rec.close(root);
                rec.sample("spill_calls", calls[0]);
                rec.sample("full_calls", calls[1]);
                rec.sample("exec_ms", busy_ns as f64 / 1e6);
                rec.sample("spent", spent);
                run
            } else {
                discover(q, strategy, &mut oracle)
            };
            let ns = t.elapsed().as_nanos() as u64;
            self.ops_run += 1;
            let outcome = run.and_then(|(report, guarantee)| {
                if !report.completed {
                    return Err(format!("{d}D op {i} did not complete"));
                }
                rec.sample("executions", report.executions() as f64);
                let text = serde_json::to_string(&report).map_err(|e| e.to_string())?;
                let sub = report.sub_optimality(q.opt_spent);
                let first = self.reference[i].get_or_insert((text.clone(), sub, guarantee));
                if first.0 == text {
                    Ok(())
                } else {
                    Err(format!(
                        "{d}D op {i}: the report differs from the first round's"
                    ))
                }
            });
            rec.op(traced, ns, outcome);
        }
    }

    fn finish(self, _cfg: &Cfg, rec: &mut Recorder) {
        for (_, sub, guarantee) in self.reference.iter().flatten() {
            rec.subopt(*sub, *guarantee);
        }
        let mut delta = vec![0.0; COUNTERS.len() + 2];
        for q in &self.queries {
            for (d, (now, then)) in delta.iter_mut().zip(q.counters().iter().zip(&q.baseline)) {
                *d += now - then;
            }
        }
        let [hits, pins, misses, evictions, flushes, spill_pages, io_us, fallbacks] = delta[..]
        else {
            unreachable!("COUNTERS plus the histogram and the fallback counter");
        };
        rec.check(fallbacks == 0.0, || {
            format!("{fallbacks} plans fell back to the row engine")
        });
        let ops = self.ops_run.max(1) as f64;
        rec.set("executor.batch_fallbacks", fallbacks);
        rec.set("storage.pool_hit_ratio", hits / pins.max(1.0));
        rec.set("storage.pool_misses", misses / ops);
        rec.set("storage.pool_evictions", evictions / ops);
        rec.set("storage.flushes", flushes / ops);
        rec.set("storage.spill_pages", spill_pages / ops);
        rec.set("storage.pool_io_ms", io_us / 1e3 / ops);
        rec.set_mean("storage.materialize_ms", "materialize");
        rec.set_mean("catalog.datagen_ms", "datagen");
        rec.set_mean("ess.surface_ms", "surface");
        rec.set_mean("executor.full_4d_ms", "full_4d");
        rec.set_mean("executor.exec_ms_per_op", "exec_ms");
        rec.set_mean("executor.spill_calls", "spill_calls");
        rec.set_mean("executor.full_calls", "full_calls");
        rec.set_mean("core.execs_per_run", "executions");
        let busy_s = rec.samples("exec_ms").iter().sum::<f64>() / 1e3;
        let spent: f64 = rec.samples("spent").iter().sum();
        rec.set(
            "executor.cost_per_s",
            if busy_s > 0.0 { spent / busy_s } else { 0.0 },
        );
        // What an op spends outside the oracle is the discovery loop.
        let own = self_times(&rec.spans);
        let (mut loop_ns, mut op_ns) = (0u64, 0u64);
        for (span, own) in rec.spans.iter().zip(own) {
            if span.name == "op" {
                loop_ns += own;
                op_ns += span.dur_ns();
            }
        }
        rec.set(
            "core.loop_overhead_frac",
            loop_ns as f64 / op_ns.max(1) as f64,
        );
    }
}

/// One discovery run of `strategy` against `oracle`: the report and the
/// guarantee it ran under.
fn discover(
    q: &Paged,
    strategy: Strategy,
    oracle: &mut dyn ExecutionOracle,
) -> Result<(RunReport, f64), String> {
    match strategy {
        Strategy::Sb => {
            let mut sb = SpillBound::new(&q.surface, &q.opt, RATIO);
            let report = sb.run(oracle);
            report.map(|r| (r, sb.mso_guarantee()))
        }
        Strategy::Ab => {
            let mut ab = AlignedBound::new(&q.surface, &q.opt, RATIO);
            let report = ab.run(oracle);
            report.map(|r| (r, ab.mso_guarantee()))
        }
        Strategy::Pb => {
            let pb = PlanBouquet::new(&q.surface, &q.opt, RATIO, LAMBDA);
            pb.run(oracle).map(|r| (r, pb.mso_guarantee()))
        }
    }
    .map_err(|e| e.to_string())
}

/// Wraps the executor-backed oracle: a span, a call count and the metered
/// cost for every budgeted execution the discovery loop asks for.
struct SpanOracle<'r, O> {
    inner: O,
    rec: &'r mut Recorder,
    root: u32,
    op: u32,
    /// Spill-mode and full executions.
    calls: [f64; 2],
    busy_ns: u64,
    spent: Cost,
}

impl<O> SpanOracle<'_, O> {
    fn spanned<T>(
        &mut self,
        name: &'static str,
        kind: usize,
        call: impl FnOnce(&mut O) -> rqp::common::Result<T>,
        spent: impl FnOnce(&T) -> Cost,
    ) -> rqp::common::Result<T> {
        let inner = &mut self.inner;
        let (out, ns) = self
            .rec
            .span(name, Some(self.root), self.op, || call(inner));
        self.busy_ns += ns;
        self.calls[kind] += 1.0;
        if let Ok(out) = &out {
            self.spent += spent(out);
        }
        out
    }
}

fn spill_spent(out: &SpillOutcome) -> Cost {
    match out {
        SpillOutcome::Completed { spent, .. } | SpillOutcome::TimedOut { spent, .. } => *spent,
    }
}

fn full_spent(out: &FullOutcome) -> Cost {
    match out {
        FullOutcome::Completed { spent } | FullOutcome::TimedOut { spent } => *spent,
    }
}

impl<O: ExecutionOracle> ExecutionOracle for SpanOracle<'_, O> {
    fn spill_execute(&mut self, plan: &PlanNode, dim: usize, budget: Cost) -> SpillOutcome {
        self.try_spill_execute_id(None, plan, dim, budget)
            .unwrap_or_else(|e| panic!("spill execution failed: {e}"))
    }

    fn full_execute(&mut self, plan: &PlanNode, budget: Cost) -> FullOutcome {
        self.try_full_execute_id(None, plan, budget)
            .unwrap_or_else(|e| panic!("full execution failed: {e}"))
    }

    fn try_spill_execute_id(
        &mut self,
        pid: Option<PlanId>,
        plan: &PlanNode,
        dim: usize,
        budget: Cost,
    ) -> rqp::common::Result<SpillOutcome> {
        self.spanned(
            "executor.spill",
            0,
            |o| o.try_spill_execute_id(pid, plan, dim, budget),
            spill_spent,
        )
    }

    fn try_full_execute_id(
        &mut self,
        pid: Option<PlanId>,
        plan: &PlanNode,
        budget: Cost,
    ) -> rqp::common::Result<FullOutcome> {
        self.spanned(
            "executor.full",
            1,
            |o| o.try_full_execute_id(pid, plan, budget),
            full_spent,
        )
    }
}
