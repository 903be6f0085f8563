//! The strategy table: every [`Strategy`] compiles over either cost
//! source, sweeps bit-equal at any thread count and from either source,
//! and its single runs reproduce the sweep's sub-optimality bit for bit.

use rqp::catalog::{tpcds, Catalog};
use rqp::core::{
    evaluate_strategy, CachedOracle, CostOracle, CostSource, EvalContext, Params, SpillMemo,
    Strategy, SubOptStats,
};
use rqp::ess::EssSurface;
use rqp::optimizer::{CostParams, EnumerationMode, Optimizer};
use rqp::workloads::{paper_suite, q91_with_dims, BenchQuery};

/// 3D_Q15 at 6 points per dimension and 4D_Q91 at 3.
fn benches(catalog: &Catalog) -> Vec<BenchQuery> {
    let q15 = paper_suite(catalog)
        .into_iter()
        .find(|b| b.name() == "3D_Q15");
    vec![
        q15.expect("3D_Q15 is a suite query").with_grid_points(6),
        q91_with_dims(catalog, 4).with_grid_points(3),
    ]
}

fn bits(stats: &SubOptStats) -> Vec<u64> {
    stats.subopts.iter().map(|s| s.to_bits()).collect()
}

/// Runs `f` over each bench's surface, optimizer and matrix context.
fn for_each_bench(f: impl Fn(&str, &EssSurface, &Optimizer<'_>, &EvalContext<'_>)) {
    let catalog = tpcds::catalog_sf100();
    for bench in benches(&catalog) {
        let opt = Optimizer::new(
            &catalog,
            &bench.query,
            CostParams::default(),
            EnumerationMode::LeftDeep,
        )
        .expect("valid query");
        let surface = EssSurface::build(&opt, bench.grid());
        let ctx = EvalContext::new(&surface, &opt);
        f(bench.name(), &surface, &opt, &ctx);
    }
}

#[test]
fn sweeps_bit_equal_across_threads_and_cost_sources() {
    for_each_bench(|name, surface, opt, ctx| {
        for s in Strategy::ALL {
            let sweep = |source, threads| {
                let compiled = s.compile(source, &Params::default()).unwrap();
                let stats = evaluate_strategy(&compiled, threads).unwrap();
                (
                    bits(&stats),
                    compiled.observed_max_penalty().map(f64::to_bits),
                )
            };
            let reference = sweep(CostSource::Matrix(ctx), 1);
            let label = format!("{name} {}", s.name());
            assert_eq!(
                reference,
                sweep(CostSource::Matrix(ctx), 3),
                "{label}: 3 threads"
            );
            let recost = CostSource::Recost(surface, opt);
            assert_eq!(reference, sweep(recost, 1), "{label}: recosting");
        }
    });
}

#[test]
fn single_runs_reproduce_the_sweep_at_every_location() {
    for_each_bench(|name, surface, opt, ctx| {
        for s in Strategy::ALL {
            let matrix = s
                .compile(CostSource::Matrix(ctx), &Params::default())
                .unwrap();
            let recost = s.compile(CostSource::Recost(surface, opt), &Params::default());
            let recost = recost.unwrap();
            let sweep = evaluate_strategy(&matrix, 1).unwrap();
            let mut memo = SpillMemo::new();
            for qa in surface.grid().iter() {
                let opt_cost = surface.opt_cost(qa);
                let cached = matrix.run(&mut CachedOracle::at_grid(ctx, qa, &mut memo));
                let direct = recost.run(&mut CostOracle::at_grid(opt, surface.grid(), qa));
                let want = sweep.subopts[qa].to_bits();
                for (oracle, report) in [("cached", cached), ("cost", direct)] {
                    let got = report.unwrap().sub_optimality(opt_cost).to_bits();
                    assert_eq!(got, want, "{name} {} qa {qa}: {oracle} oracle", s.name());
                }
            }
        }
    });
}

#[test]
fn names_parse_both_ways_and_match_the_wire() {
    let wire = [
        ("native", "native"),
        ("planbouquet", "pb"),
        ("spillbound", "sb"),
        ("alignedbound", "ab"),
        ("penaltyaware", "pa"),
    ];
    for (s, (name, short)) in Strategy::ALL.into_iter().zip(wire) {
        assert_eq!((s.name(), s.short()), (name, short));
        assert_eq!(s.method(), format!("run_{name}"));
        assert_eq!(Strategy::parse(short), Some(s));
        assert_eq!(Strategy::parse(name), Some(s));
        assert_eq!(Strategy::from_method(s.method()), Some(s));
    }
    assert_eq!(Strategy::parse("pop"), None);
    assert_eq!(Strategy::from_method("run_sb"), None);
}
