//! One compiled SpillBound and one compiled AlignedBound shared by
//! concurrent runs, as a warm daemon shares them between requests: every
//! report must equal the report of an instance compiled for that run
//! alone. What a strategy does on a contour depends on the contour and the
//! pins learnt so far, never on `qa`, so it cannot matter which run filled
//! the memo, nor in which order, nor whether two runs filled an entry at
//! the same time.

use rqp::catalog::tpcds;
use rqp::common::GridIdx;
use rqp::core::{
    AlignedBound, CachedOracle, CostOracle, EvalContext, ExecutionOracle, RunReport, SpillBound,
    SpillMemo,
};
use rqp::ess::{EssSurface, LazySurface, SurfaceAccess};
use rqp::optimizer::{CostParams, EnumerationMode, Optimizer};
use rqp::workloads::paper_suite;
use std::sync::Barrier;

const THREADS: usize = 4;

type Strategy<'s> = &'s (dyn Fn(&mut dyn ExecutionOracle) -> RunReport + Sync);

/// Runs `strategy` at `qa` against the cost-matrix oracle of `ctx`, or
/// against the recosting oracle when there is none.
fn run_at(
    ctx: Option<&EvalContext<'_>>,
    surface: &dyn SurfaceAccess,
    opt: &Optimizer<'_>,
    qa: GridIdx,
    strategy: Strategy<'_>,
) -> RunReport {
    match ctx {
        Some(ctx) => strategy(&mut CachedOracle::at_grid(ctx, qa, &mut SpillMemo::new())),
        None => strategy(&mut CostOracle::at_grid(opt, surface.grid(), qa)),
    }
}

/// Sweeps every grid location through one shared instance of each
/// strategy from [`THREADS`] threads and holds each report against an
/// instance compiled for that location alone. The threads leave the
/// barrier together and start a quarter of the grid apart, so they reach
/// the same unfilled memo entries from different runs.
fn shared_matches_fresh(
    label: &str,
    surface: &dyn SurfaceAccess,
    opt: &Optimizer<'_>,
    ctx: Option<&EvalContext<'_>>,
) {
    let n = surface.grid().len();
    let fresh: Vec<(RunReport, RunReport)> = (0..n)
        .map(|qa| {
            let sb = SpillBound::new(surface, opt, 2.0);
            let ab = AlignedBound::new(surface, opt, 2.0);
            (
                run_at(ctx, surface, opt, qa, &|o| sb.run(o).expect("fresh SB")),
                run_at(ctx, surface, opt, qa, &|o| ab.run(o).expect("fresh AB")),
            )
        })
        .collect();

    let sb = SpillBound::new(surface, opt, 2.0);
    let ab = AlignedBound::new(surface, opt, 2.0);
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (sb, ab, fresh, barrier) = (&sb, &ab, &fresh, &barrier);
            s.spawn(move || {
                barrier.wait();
                for k in 0..n {
                    let qa = (k + t * n / THREADS) % n;
                    let got = run_at(ctx, surface, opt, qa, &|o| sb.run(o).expect("shared SB"));
                    assert_eq!(got, fresh[qa].0, "{label}: SB at {qa}, thread {t}");
                    let got = run_at(ctx, surface, opt, qa, &|o| ab.run(o).expect("shared AB"));
                    assert_eq!(got, fresh[qa].1, "{label}: AB at {qa}, thread {t}");
                }
            });
        }
    });

    for (name, stats) in [("SB", sb.memo_stats()), ("AB", ab.memo_stats())] {
        assert!(
            stats.entries > 0 && stats.entries as u64 <= stats.misses,
            "{label}: {name} {stats:?}"
        );
        assert!(
            stats.hits > stats.misses,
            "{label}: {name} runs should mostly share their analysis: {stats:?}"
        );
    }
}

/// One suite query at a debug-tractable resolution: dense surface under
/// both oracles, lazy surface under the recosting one (the cost matrix is
/// indexed by the dense pool's plan ids).
fn sweep_suite_query(name: &str, points: usize) {
    let catalog = tpcds::catalog_sf100();
    let bench = paper_suite(&catalog)
        .into_iter()
        .find(|b| b.name() == name)
        .expect("a suite query")
        .with_grid_points(points);
    let opt = Optimizer::new(
        &catalog,
        &bench.query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .expect("suite query valid");
    let dense = EssSurface::build(&opt, bench.grid());
    let ctx = EvalContext::new(&dense, &opt);
    let lazy = LazySurface::new(&opt, bench.grid());
    shared_matches_fresh(&format!("{name} dense, CostOracle"), &dense, &opt, None);
    let label = format!("{name} dense, CachedOracle");
    shared_matches_fresh(&label, &dense, &opt, Some(&ctx));
    shared_matches_fresh(&format!("{name} lazy, CostOracle"), &lazy, &opt, None);
}

#[test]
fn shared_instances_report_what_fresh_ones_do_on_3d_q15() {
    sweep_suite_query("3D_Q15", 6);
}

#[test]
fn shared_instances_report_what_fresh_ones_do_on_4d_q91() {
    sweep_suite_query("4D_Q91", 3);
}
