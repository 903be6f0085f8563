//! `compile-cold`: SQL text to a durable artifact in an empty store, the
//! path `rqp compile` takes. Optimizer, ESS and the artifact writer do
//! all the work; server, executor and storage pool do none.

use super::{check_spillbound, suite, CHECK_RUNS, LAMBDA, RATIO};
use crate::gen::{Rng, S7};
use crate::harness::{compile_threads, Cfg, Recorder, Workload};
use rqp::artifacts::{checksum64, ArtifactStore, ColdReason, CompiledArtifact, Provenance};
use rqp::catalog::Catalog;
use rqp::common::MultiGrid;
use rqp::core::{PenaltyConfig, PriorConfig};
use rqp::ess::anorexic::reduce_all;
use rqp::ess::{ContourSet, EssSurface};
use rqp::experiments::penalty_summary;
use rqp::optimizer::{parse_sql, CostMatrix, CostParams, EnumerationMode, Optimizer};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// `optimize_at` calls per query behind `optimizer.optimize_us`.
const OPTIMIZE_CALLS: usize = 100;

struct Query {
    name: String,
    /// What the program is handed: generated SQL text.
    sql: String,
    grid: MultiGrid,
    /// Checksum of the first file compiled for this query; every later
    /// compile must write the same bytes.
    first: Option<u64>,
}

pub struct CompileCold {
    catalog: &'static Catalog,
    queries: Vec<Query>,
    store: ArtifactStore,
    threads: usize,
    rng: Rng,
}

impl Workload for CompileCold {
    fn setup(cfg: &Cfg, _rec: &mut Recorder, dir: &Path) -> Self {
        let catalog = super::catalog_sf100();
        let queries = suite(catalog, &S7)
            .into_iter()
            .map(|b| Query {
                name: b.name().to_string(),
                sql: b.query.to_sql(catalog),
                grid: b.grid(),
                first: None,
            })
            .collect();
        Self {
            catalog,
            queries,
            store: ArtifactStore::new(dir.join("store")),
            threads: compile_threads(),
            rng: Rng::new(cfg.seed),
        }
    }

    fn round(&mut self, rec: &mut Recorder, traced: bool) {
        // The seed decides only the order: the inputs of a cold compile
        // are the query texts themselves.
        let mut order: Vec<usize> = (0..self.queries.len()).collect();
        self.rng.shuffle(&mut order);
        for i in order {
            let path = self.store.path_for(&self.queries[i].name);
            let _ = std::fs::remove_file(&path);
            let t = Instant::now();
            let done = if traced {
                self.compile_staged(i, rec)
            } else {
                self.compile(i)
            };
            let ns = t.elapsed().as_nanos() as u64;
            let outcome = done.and_then(|()| {
                let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
                let sum = checksum64(&bytes);
                let q = &mut self.queries[i];
                if *q.first.get_or_insert(sum) == sum {
                    Ok(())
                } else {
                    Err(format!("{}: recompile wrote different bytes", q.name))
                }
            });
            rec.op(traced, ns, outcome);
        }
    }

    fn finish(self, _cfg: &Cfg, rec: &mut Recorder) {
        let (mut cells, mut plans, mut contours, mut rho, mut matrix, mut bytes_total) =
            (0, 0, 0, 0, 0, 0);
        for q in &self.queries {
            let path = self.store.path_for(&q.name);
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                Err(e) => {
                    rec.check(false, || format!("{}: {e}", path.display()));
                    continue;
                }
            };
            let t = Instant::now();
            black_box(checksum64(black_box(&bytes)));
            rec.sample("checksum", t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let loaded = CompiledArtifact::from_bytes(&bytes);
            rec.sample("decode", t.elapsed().as_secs_f64() * 1e3);
            let artifact = match loaded {
                Ok(a) => a,
                Err(e) => {
                    rec.check(false, || format!("{}: reload: {e}", q.name));
                    continue;
                }
            };
            let t = Instant::now();
            let again = artifact.to_bytes();
            rec.sample("encode", t.elapsed().as_secs_f64() * 1e3);
            let opt = Optimizer::new(
                self.catalog,
                &artifact.query,
                CostParams::default(),
                EnumerationMode::LeftDeep,
            )
            .expect("a query that compiled");
            rec.check(
                again == bytes && artifact.matches(&opt, &q.grid, RATIO, LAMBDA),
                || format!("{}: the reloaded artifact is not the saved one", q.name),
            );

            let centre: Vec<usize> = (0..q.grid.ndims())
                .map(|j| q.grid.dim(j).len() / 2)
                .collect();
            let centre = q.grid.sels(q.grid.flat(&centre));
            let t = Instant::now();
            for _ in 0..OPTIMIZE_CALLS {
                black_box(opt.optimize_at(black_box(&centre)));
            }
            rec.sample(
                "optimize",
                t.elapsed().as_secs_f64() * 1e6 / OPTIMIZE_CALLS as f64,
            );

            cells += artifact.surface.len();
            plans += artifact.surface.posp_size();
            contours += artifact.contours.len();
            rho = rho.max(artifact.rho_red);
            matrix += artifact.matrix.len();
            bytes_total += bytes.len();
            check_spillbound(
                rec,
                &artifact.surface,
                &opt,
                CHECK_RUNS / self.queries.len(),
            );
        }

        // Stage metrics are time per traced op over the S7 mix (an op saves
        // twice), so they add up to the mean op; counts are sums over one
        // round of S7.
        let n = self.queries.len() as f64;
        let ops = rec.traced_ops().max(1) as f64;
        for (metric, key, per) in [
            ("optimizer.parse_us", "optimizer.parse", 1e3),
            ("optimizer.new_us", "optimizer.new", 1e3),
            ("optimizer.matrix_ms", "optimizer.matrix", 1e6),
            ("ess.surface_ms", "ess.surface", 1e6),
            ("ess.contours_us", "ess.contours", 1e3),
            ("ess.reduce_ms", "ess.reduce", 1e6),
            ("core.penalty_ms", "core.penalty", 1e6),
            ("artifacts.save_ms", "artifacts.save", 1e6),
        ] {
            let v = rec.samples(key).iter().sum::<f64>() / ops / per;
            rec.set(metric, v);
        }
        rec.set_mean("optimizer.optimize_us", "optimize");
        rec.set_mean("artifacts.encode_ms", "encode");
        rec.set_mean("artifacts.decode_ms", "decode");
        rec.set_mean("artifacts.checksum_ms", "checksum");
        rec.set("optimizer.matrix_cells", matrix as f64);
        rec.set("ess.surface_cells", cells as f64);
        rec.set("ess.posp_plans", plans as f64);
        rec.set("ess.contours", contours as f64);
        rec.set("ess.rho_red", rho as f64);
        rec.set("artifacts.bytes", bytes_total as f64);
        let matrix_ns = rec.samples("optimizer.matrix").iter().sum::<f64>() / ops;
        rec.set(
            "optimizer.recost_ns_per_cell",
            matrix_ns * n / (matrix as f64).max(1.0),
        );
        let mb = bytes_total as f64 / n / 1e6;
        for (metric, key) in [
            ("artifacts.encode_mb_s", "encode"),
            ("artifacts.decode_mb_s", "decode"),
        ] {
            let ms = crate::stats::mean(rec.samples(key));
            rec.set(metric, if ms > 0.0 { mb / (ms / 1e3) } else { 0.0 });
        }
    }
}

impl CompileCold {
    /// One op as `rqp compile` does it: parse, optimizer, compile into the
    /// empty store (which saves), penalty-aware selection, save again
    /// with the selection attached.
    fn compile(&self, i: usize) -> Result<(), String> {
        let q = &self.queries[i];
        let spec = parse_sql(self.catalog, &q.name, &q.sql).map_err(|e| e.to_string())?;
        let opt = Optimizer::new(
            self.catalog,
            &spec,
            CostParams::default(),
            EnumerationMode::LeftDeep,
        )
        .map_err(|e| e.to_string())?;
        let (artifact, provenance) = self
            .store
            .compile_or_load(&opt, &q.grid, RATIO, LAMBDA, self.threads)
            .map_err(|e| e.to_string())?;
        if !matches!(
            provenance,
            Provenance::Cold {
                reason: ColdReason::Missing,
                ..
            }
        ) {
            return Err(format!("{}: not a cold compile: {provenance:?}", q.name));
        }
        let (summary, _) = penalty_summary(
            &artifact,
            &opt,
            PriorConfig::default(),
            &PenaltyConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        artifact
            .with_penalty(summary)
            .save(&self.store.path_for(&q.name))
            .map_err(|e| e.to_string())
    }

    /// The same op with the stages of `CompiledArtifact::compile` called
    /// one by one, a span around each.
    fn compile_staged(&self, i: usize, rec: &mut Recorder) -> Result<(), String> {
        let q = &self.queries[i];
        let op = rec.next_op();
        let root = rec.open("op", None, op);
        let path = self.store.path_for(&q.name);
        let result = (|| {
            let spec = stage(rec, "optimizer.parse", root, op, || {
                parse_sql(self.catalog, &q.name, &q.sql)
            })
            .map_err(|e| e.to_string())?;
            let opt = stage(rec, "optimizer.new", root, op, || {
                Optimizer::new(
                    self.catalog,
                    &spec,
                    CostParams::default(),
                    EnumerationMode::LeftDeep,
                )
            })
            .map_err(|e| e.to_string())?;
            let surface = stage(rec, "ess.surface", root, op, || {
                EssSurface::build_parallel(&opt, q.grid.clone(), self.threads)
            });
            let contours = stage(rec, "ess.contours", root, op, || {
                ContourSet::build(&surface, RATIO)
            });
            let (bouquet, rho_red) = stage(rec, "ess.reduce", root, op, || {
                reduce_all(&surface, &opt, &contours, LAMBDA)
            });
            let matrix = stage(rec, "optimizer.matrix", root, op, || {
                CostMatrix::build_parallel(&opt, surface.pool(), surface.grid(), self.threads)
            });
            let artifact = CompiledArtifact {
                query: opt.query().clone(),
                ratio: RATIO,
                lambda: LAMBDA,
                surface,
                contours,
                bouquet,
                rho_red,
                matrix,
                penalty: None,
            };
            stage(rec, "artifacts.save", root, op, || artifact.save(&path))
                .map_err(|e| e.to_string())?;
            let (summary, _) = stage(rec, "core.penalty", root, op, || {
                penalty_summary(
                    &artifact,
                    &opt,
                    PriorConfig::default(),
                    &PenaltyConfig::default(),
                )
            })
            .map_err(|e| e.to_string())?;
            let artifact = artifact.with_penalty(summary);
            stage(rec, "artifacts.save", root, op, || artifact.save(&path))
                .map_err(|e| e.to_string())?;
            Ok(())
        })();
        rec.close(root);
        result
    }
}

/// Runs `f` inside a child span of `root` and samples its duration under
/// the span's name.
fn stage<T>(
    rec: &mut Recorder,
    name: &'static str,
    root: u32,
    op: u32,
    f: impl FnOnce() -> T,
) -> T {
    let (out, ns) = rec.span(name, Some(root), op, f);
    rec.sample(name, ns as f64);
    out
}
