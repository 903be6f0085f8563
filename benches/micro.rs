//! Criterion micro-benchmarks for the substrate hot paths: optimizer DP,
//! plan recosting, spill-node identification, POSP surface construction,
//! contour extraction, constrained search, and executor throughput.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rqp::catalog::tpcds;
use rqp::ess::{ContourSet, EssSurface, EssView};
use rqp::executor::reference::Executor;
use rqp::executor::{DataStore, Engine, PlanEngine};
use rqp::optimizer::pipeline::spill_dim;
use rqp::optimizer::{constrained, CostParams, EnumerationMode, Optimizer};
use rqp::workloads::{executable_genspec, q91_with_dims};
use rqp_catalog::DataSet;
use rqp_common::MultiGrid;
use std::hint::black_box;

fn bench_optimizer(c: &mut Criterion) {
    let catalog = tpcds::catalog_sf100();
    let bench = q91_with_dims(&catalog, 4);
    let ld = Optimizer::new(
        &catalog,
        &bench.query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .unwrap();
    let bushy = Optimizer::new(
        &catalog,
        &bench.query,
        CostParams::default(),
        EnumerationMode::Bushy,
    )
    .unwrap();
    let sels = [1e-4, 1e-3, 1e-5, 1e-2];
    c.bench_function("optimize_q91_left_deep", |b| {
        b.iter(|| black_box(ld.optimize_at(black_box(&sels))))
    });
    c.bench_function("optimize_q91_bushy", |b| {
        b.iter(|| black_box(bushy.optimize_at(black_box(&sels))))
    });
    c.bench_function("optimize_q91_dphyp", |b| {
        b.iter(|| {
            let assigned = bushy.sels_at(black_box(&sels));
            black_box(rqp::optimizer::optimize_dphyp(&bushy, &assigned))
        })
    });
    let (plan, _) = ld.optimize_at(&sels);
    let assigned = ld.sels_at(&sels);
    c.bench_function("recost_q91_plan", |b| {
        b.iter(|| black_box(ld.cost_plan(black_box(&plan), black_box(&assigned))))
    });
    c.bench_function("spill_dim_q91_plan", |b| {
        b.iter(|| black_box(spill_dim(black_box(&plan), ld.query(), 0b1111)))
    });
    c.bench_function("constrained_best_plan_q91", |b| {
        b.iter(|| {
            black_box(constrained::best_plan_spilling_on(
                &ld,
                black_box(&assigned),
                1,
                0b1111,
            ))
        })
    });
}

fn bench_ess(c: &mut Criterion) {
    let catalog = tpcds::catalog_sf100();
    let bench = q91_with_dims(&catalog, 2);
    let opt = Optimizer::new(
        &catalog,
        &bench.query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .unwrap();
    c.bench_function("surface_build_2d_16x16", |b| {
        b.iter_batched(
            || MultiGrid::uniform(2, 1e-7, 16),
            |grid| black_box(EssSurface::build(&opt, grid)),
            BatchSize::SmallInput,
        )
    });
    let surface = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-7, 24));
    let contours = ContourSet::build(&surface, 2.0);
    let view = EssView::full(2);
    c.bench_function("contour_extraction_2d", |b| {
        b.iter(|| {
            for i in 0..contours.len() {
                black_box(contours.locations(&surface, &view, i));
            }
        })
    });
}

fn bench_parallel_eval(c: &mut Criterion) {
    use rqp::core::{CostSource, EvalContext, Params, Strategy};
    use rqp::experiments::sweep;
    use rqp::optimizer::CostMatrix;

    let catalog = tpcds::catalog_sf100();
    let bench = q91_with_dims(&catalog, 2);
    let opt = Optimizer::new(
        &catalog,
        &bench.query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .unwrap();
    let surface = EssSurface::build(&opt, bench.grid());
    let threads = rqp::experiments::env_threads().max(2);
    c.bench_function("cost_matrix_build_2d_seq", |b| {
        b.iter(|| black_box(CostMatrix::build(&opt, surface.pool(), surface.grid())))
    });
    c.bench_function(&format!("cost_matrix_build_2d_{threads}_threads"), |b| {
        b.iter(|| {
            black_box(CostMatrix::build_parallel(
                &opt,
                surface.pool(),
                surface.grid(),
                threads,
            ))
        })
    });
    let ctx = EvalContext::with_threads(&surface, &opt, threads);
    let (sb, params) = (Strategy::SpillBound, Params::default());
    c.bench_function("evaluate_sb_2d_seq", |b| {
        b.iter(|| black_box(sweep(sb, CostSource::Matrix(&ctx), &params, 1).0))
    });
    c.bench_function(&format!("evaluate_sb_2d_{threads}_threads"), |b| {
        b.iter(|| black_box(sweep(sb, CostSource::Matrix(&ctx), &params, threads).0))
    });
}

fn bench_executor(c: &mut Criterion) {
    let catalog = tpcds::catalog(0.05);
    let bench = q91_with_dims(&catalog, 2);
    let query = bench.query.clone();
    let spec = executable_genspec(&catalog, &query, 9);
    let data = DataSet::generate(&catalog, &spec).unwrap();
    let store = DataStore::new(&catalog, data);
    let opt = Optimizer::new(
        &catalog,
        &query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .unwrap();
    let (plan, _) = opt.optimize_at(&[1e-5, 1e-5]);
    let exec = Executor::new(&catalog, &query, &store, CostParams::default());
    c.bench_function("execute_q91_small_scale", |b| {
        b.iter(|| black_box(exec.run_full(black_box(&plan), f64::INFINITY).unwrap()))
    });
    // vectorized vs row-at-a-time on an all-hash-join plan
    let vec_exec = Engine::new(&catalog, &query, &store, CostParams::default());
    let hash_plan = {
        use rqp::optimizer::{JoinMethod, PlanNode, ScanMethod};
        // force hash joins / seq scans so both engines accept the plan
        fn force(p: &PlanNode) -> PlanNode {
            match p {
                PlanNode::Scan { rel, filters, .. } => PlanNode::Scan {
                    rel: *rel,
                    method: ScanMethod::SeqScan,
                    filters: filters.clone(),
                },
                PlanNode::Join {
                    left, right, preds, ..
                } => PlanNode::Join {
                    method: JoinMethod::HashJoin,
                    left: Box::new(force(left)),
                    right: Box::new(force(right)),
                    preds: preds.clone(),
                },
            }
        }
        force(&plan)
    };
    c.bench_function("execute_hash_plan_row_engine", |b| {
        b.iter(|| black_box(exec.run_full(black_box(&hash_plan), f64::INFINITY).unwrap()))
    });
    c.bench_function("execute_hash_plan_vectorized", |b| {
        b.iter(|| {
            black_box(
                vec_exec
                    .run_full(black_box(&hash_plan), f64::INFINITY)
                    .unwrap(),
            )
        })
    });
    c.bench_function("spill_execute_q91_small_scale", |b| {
        b.iter(|| {
            black_box(
                exec.run_spill(black_box(&plan), query.epps[0], f64::INFINITY)
                    .unwrap(),
            )
        })
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_optimizer, bench_ess, bench_parallel_eval, bench_executor
}
criterion_main!(benches);
