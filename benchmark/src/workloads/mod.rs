//! The five workloads, and what more than one of them needs.

pub mod compile_cold;
pub mod discover_paged;
pub mod serve;

use crate::harness::Recorder;
use rqp::artifacts::CompiledArtifact;
use rqp::catalog::{tpcds, Catalog};
use rqp::core::{CostOracle, PenaltyConfig, PriorConfig, SpillBound};
use rqp::ess::EssSurface;
use rqp::experiments::penalty_summary;
use rqp::optimizer::{CostParams, EnumerationMode, Optimizer};
use rqp::workloads::{paper_suite, BenchQuery};

/// Inter-contour cost ratio and anorexic threshold: the paper's values,
/// and the ones `rqp compile` uses.
pub const RATIO: f64 = 2.0;
pub const LAMBDA: f64 = 0.2;

/// SpillBound runs in a workload's check phase, spread over its queries.
pub const CHECK_RUNS: usize = 256;

/// The statistics-only SF100 catalog the suite queries are defined over.
/// Leaked: `ServedQuery` wants `&'static`, and it is a few KiB a set-up.
pub fn catalog_sf100() -> &'static Catalog {
    Box::leak(Box::new(tpcds::catalog_sf100()))
}

/// The named suite queries, in the order given.
pub fn suite(catalog: &Catalog, names: &[&str]) -> Vec<BenchQuery> {
    let all = paper_suite(catalog);
    names
        .iter()
        .map(|n| {
            all.iter()
                .find(|b| b.name() == *n)
                .unwrap_or_else(|| panic!("{n} is not a suite query"))
                .clone()
        })
        .collect()
}

pub fn optimizer<'a>(catalog: &'a Catalog, bench: &'a BenchQuery) -> Optimizer<'a> {
    Optimizer::new(
        catalog,
        &bench.query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .expect("suite queries are valid")
}

/// The artifact `rqp compile` would write for `bench`: the compiled
/// pipeline plus the offline penalty-aware selection.
pub fn compile(catalog: &Catalog, bench: &BenchQuery, threads: usize) -> CompiledArtifact {
    let opt = optimizer(catalog, bench);
    let artifact = CompiledArtifact::compile(&opt, bench.grid(), RATIO, LAMBDA, threads);
    let (summary, _) = penalty_summary(
        &artifact,
        &opt,
        PriorConfig::default(),
        &PenaltyConfig::default(),
    )
    .expect("penalty selection over a fresh artifact");
    artifact.with_penalty(summary)
}

/// Grid location of check run `k` on a grid of `len` cells. A fixed
/// lattice, not a seeded draw: `subopt_max` and `subopt_mean` describe
/// the program, so they must read the same whatever traffic the seed
/// generated. The multiplier is odd and far from any grid extent, which
/// scatters consecutive `k` over all dimensions.
pub fn check_location(len: usize, k: usize) -> usize {
    ((k as u64 + 1).wrapping_mul(2_654_435_761) % len as u64) as usize
}

/// In-process share of the check phase: `runs` SpillBound runs through
/// the cost oracle over `surface`, fed to `subopt_*`.
pub fn check_spillbound(
    rec: &mut Recorder,
    surface: &EssSurface,
    opt: &Optimizer<'_>,
    runs: usize,
) {
    for k in 0..runs {
        let qa = check_location(surface.len(), k);
        let mut sb = SpillBound::new(surface, opt, RATIO);
        let mut oracle = CostOracle::at_grid(opt, surface.grid(), qa);
        match sb.run(&mut oracle) {
            Ok(report) if report.completed => rec.subopt(
                report.sub_optimality(surface.opt_cost(qa)),
                sb.mso_guarantee(),
            ),
            Ok(_) => rec.check(false, || format!("check run at {qa} did not complete")),
            Err(e) => rec.check(false, || format!("check run at {qa}: {e}")),
        }
    }
}
