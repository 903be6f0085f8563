//! The strategy table: every [`Strategy`] compiles over either cost
//! source, sweeps bit-equal at any thread count and from either source,
//! and its single runs reproduce the sweep's sub-optimality bit for bit.
//! Every report is pinned by digest, and the §7 overflow phase is driven
//! to completion and to its typed error.

use rqp::catalog::{tpcds, Catalog};
use rqp::common::{Cost, Result, RqpError};
use rqp::core::report::ExecMode;
use rqp::core::{
    evaluate_strategy, CachedOracle, CostOracle, CostSource, EvalContext, ExecutionOracle,
    FaultyOracle, FullOutcome, NoisyCostOracle, Outcome, Params, RunReport, SpillMemo,
    SpillOutcome, Strategy, SubOptStats,
};
use rqp::ess::{ContourSet, EssSurface};
use rqp::faults::{FaultPlan, FaultSite};
use rqp::optimizer::{CostParams, EnumerationMode, Optimizer, PlanId, PlanNode};
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

/// FNV-1a over every field of a report: each record's contour,
/// fingerprint, plan id, mode, budget, spend and outcome, then the total,
/// the completion flag and the learnt selectivities, floats as bits. A
/// failed run folds in its error.
fn report_digest(h: &mut u64, report: &Result<RunReport>) {
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => return e.to_string().bytes().for_each(|b| eat(u64::from(b))),
    };
    let opt = |x: Option<u64>| x.unwrap_or(u64::MAX);
    for r in &report.records {
        eat(r.contour as u64);
        eat(r.plan_fingerprint);
        eat(opt(r.plan_id.map(|p| p as u64)));
        eat(match r.mode {
            ExecMode::Spill { dim } => dim as u64,
            ExecMode::Full => u64::MAX,
        });
        eat(r.budget.to_bits());
        eat(r.spent.to_bits());
        let (tag, x) = match r.outcome {
            Outcome::Completed { sel } => (0, opt(sel.map(f64::to_bits))),
            Outcome::TimedOut { lower_bound } => (1, lower_bound.to_bits()),
        };
        eat(tag);
        eat(x);
    }
    eat(report.records.len() as u64);
    eat(report.total_cost.to_bits());
    eat(u64::from(report.completed));
    for l in &report.learnt {
        eat(opt(l.map(f64::to_bits)));
    }
}

/// Every report of every strategy at every location, through the matrix
/// oracle, the recosting oracle, a δ = 0.3 noisy oracle and a transient
/// fault rate of 0.2, pinned bit for bit. The digests were computed
/// before the strategies moved onto the one step interpreter, so any
/// change to what a run executes, charges, learns or records moves them.
#[test]
fn every_report_is_pinned() {
    let pinned: [(&str, [u64; 5]); 2] = [
        (
            "3D_Q15",
            [
                0xf7f3_02a1_33cf_ab75,
                0xc6d7_8bbf_5e7d_cc50,
                0x8ae4_6b37_1e31_cba9,
                0xaea3_ce4a_a8c5_8ba8,
                0xf7f3_02a1_33cf_ab75,
            ],
        ),
        (
            "4D_Q91",
            [
                0x2c94_a810_67b8_f73d,
                0x6913_87ad_921d_579c,
                0xea29_9247_13a6_29ae,
                0x3819_881e_b529_20da,
                0x6fa9_b4a9_141b_7a41,
            ],
        ),
    ];
    for_each_bench(|name, surface, opt, ctx| {
        let want = pinned.iter().find(|(n, _)| *n == name).expect("pinned").1;
        for (s, want) in Strategy::ALL.into_iter().zip(want) {
            let matrix = s.compile(CostSource::Matrix(ctx), &Params::default());
            let matrix = matrix.unwrap();
            let recost = s.compile(CostSource::Recost(surface, opt), &Params::default());
            let recost = recost.unwrap();
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let mut memo = SpillMemo::new();
            for qa in surface.grid().iter() {
                let cost = || CostOracle::at_grid(opt, surface.grid(), qa);
                let faults = FaultPlan::new(0x5eed ^ qa as u64)
                    .with_site(FaultSite::OracleSpill, 0.2)
                    .with_site(FaultSite::OracleFull, 0.2);
                let reports = [
                    matrix.run(&mut CachedOracle::at_grid(ctx, qa, &mut memo)),
                    recost.run(&mut cost()),
                    recost.run(&mut NoisyCostOracle::new(cost(), 0.3, 7)),
                    matrix.run(&mut FaultyOracle::new(
                        CachedOracle::at_grid(ctx, qa, &mut memo),
                        &faults,
                    )),
                ];
                reports.iter().for_each(|r| report_digest(&mut h, r));
            }
            assert_eq!(h, want, "{name} {}: digest {h:#018x}", s.name());
        }
    });
}

/// An oracle whose real costs are `factor` times the model's: spill and
/// full executions complete only within `budget / factor`, and spend
/// `factor` times what the model charges (capped at the budget). With
/// `full_never_completes`, every regular execution times out instead.
struct Skewed<'a> {
    inner: CostOracle<'a>,
    factor: f64,
    full_never_completes: bool,
    full_budgets: Vec<Cost>,
}

impl<'a> Skewed<'a> {
    fn new(inner: CostOracle<'a>, factor: f64, full_never_completes: bool) -> Self {
        Self {
            inner,
            factor,
            full_never_completes,
            full_budgets: Vec::new(),
        }
    }
}

impl ExecutionOracle for Skewed<'_> {
    fn try_spill_execute_id(
        &mut self,
        pid: Option<PlanId>,
        plan: &PlanNode,
        dim: usize,
        budget: Cost,
    ) -> Result<SpillOutcome> {
        let k = self.factor;
        let out = self
            .inner
            .try_spill_execute_id(pid, plan, dim, budget / k)?;
        Ok(match out {
            SpillOutcome::Completed { sel, spent } => SpillOutcome::Completed {
                sel,
                spent: spent * k,
            },
            SpillOutcome::TimedOut { lower_bound, spent } => SpillOutcome::TimedOut {
                lower_bound,
                spent: (spent * k).min(budget),
            },
        })
    }

    fn try_full_execute_id(
        &mut self,
        pid: Option<PlanId>,
        plan: &PlanNode,
        budget: Cost,
    ) -> Result<FullOutcome> {
        self.full_budgets.push(budget);
        if self.full_never_completes {
            return Ok(FullOutcome::TimedOut { spent: budget });
        }
        let k = self.factor;
        Ok(
            match self.inner.try_full_execute_id(pid, plan, budget / k)? {
                FullOutcome::Completed { spent } => FullOutcome::Completed { spent: spent * k },
                FullOutcome::TimedOut { spent } => FullOutcome::TimedOut {
                    spent: (spent * k).min(budget),
                },
            },
        )
    }
}

/// Strategies with a contour schedule, compiled by recosting.
const SCHEDULED: [Strategy; 3] = [
    Strategy::PlanBouquet,
    Strategy::SpillBound,
    Strategy::AlignedBound,
];

/// At the terminus every real cost is three times the model's, so no
/// contour budget suffices, not even the last, `C_max`. The overflow
/// phase runs the terminus plan at twice the last contour cost, which
/// times out, then at four times, which completes.
#[test]
fn overflow_phase_completes_at_doubling_budgets() {
    for_each_bench(|name, surface, opt, _| {
        let last = *ContourSet::build(surface, 2.0).costs().last().unwrap();
        let ncontours = ContourSet::build(surface, 2.0).len();
        let terminus = surface.grid().len() - 1;
        for s in SCHEDULED {
            let compiled = s.compile(CostSource::Recost(surface, opt), &Params::default());
            let inner = CostOracle::at_grid(opt, surface.grid(), terminus);
            let mut oracle = Skewed::new(inner, 3.0, false);
            let report = compiled.unwrap().run(&mut oracle).unwrap();
            let label = format!("{name} {}", s.name());
            assert!(report.completed, "{label}");
            let overflow: Vec<_> = (report.records.iter())
                .filter(|r| r.budget >= 2.0 * last)
                .collect();
            assert_eq!(overflow.len(), 2, "{label}: {overflow:?}");
            for (r, k) in overflow.iter().zip([2.0, 4.0]) {
                assert_eq!(r.budget.to_bits(), (last * k).to_bits(), "{label}");
                assert_eq!((r.contour, r.mode), (ncontours - 1, ExecMode::Full));
            }
            assert!(matches!(overflow[0].outcome, Outcome::TimedOut { .. }));
            assert!(matches!(overflow[1].outcome, Outcome::Completed { .. }));
            assert_eq!(report.records.last(), overflow.last().copied(), "{label}");
        }
    });
}

/// An oracle under which no regular execution ever completes: every
/// strategy with a schedule gives up after 64 budget doublings with a
/// typed discovery error, and the fixed-plan strategies report that an
/// infinite budget timed out.
#[test]
fn overflow_phase_gives_up_with_a_typed_error() {
    for_each_bench(|name, surface, opt, _| {
        let last = *ContourSet::build(surface, 2.0).costs().last().unwrap();
        for s in Strategy::ALL {
            let compiled = s.compile(CostSource::Recost(surface, opt), &Params::default());
            let inner = CostOracle::at_grid(opt, surface.grid(), surface.grid().len() / 2);
            let mut oracle = Skewed::new(inner, 1.0, true);
            let err = compiled.unwrap().run(&mut oracle).unwrap_err();
            let label = format!("{name} {}: {err}", s.name());
            let RqpError::Discovery(msg) = err else {
                panic!("{label}: not a discovery error");
            };
            let budgets = &oracle.full_budgets;
            if SCHEDULED.contains(&s) {
                assert!(msg.contains("64 budget doublings"), "{label}");
                let overflow: Vec<Cost> = (budgets.iter().copied())
                    .skip_while(|&b| b < 2.0 * last)
                    .collect();
                let doublings = (1..=64).map(|k| last * 2f64.powi(k));
                assert!(overflow.iter().copied().eq(doublings), "{label}");
            } else {
                assert!(msg.contains("infinite budget timed out"), "{label}");
                assert_eq!(budgets, &[f64::INFINITY], "{label}");
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
