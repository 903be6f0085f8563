//! Property-based tests over the core invariants (proptest).
//!
//! * PCM: plan cost strictly non-decreasing along dominance chains, for
//!   arbitrary plans produced by the optimizer anywhere in the ESS;
//! * DP optimality: no sampled plan beats the DP at its own location;
//! * grid arithmetic round-trips;
//! * discovery soundness: SpillBound never overshoots the truth and
//!   always lands within its bound, for random `qa` and random grids;
//! * lazy contour structure: every lazily-discovered contour is an
//!   antichain that covers its level set, and `optimize_at` cost is
//!   monotone along random axis fibers (the invariant the lazy path's
//!   per-fiber binary search rests on).

use proptest::prelude::*;
use rqp::catalog::{tpcds, Catalog};
use rqp::core::{
    evaluate_strategy, spillbound_guarantee, CachedOracle, CostOracle, CostSource, EvalContext,
    Params, SpillBound, SpillMemo,
};
use rqp::ess::{ContourSet, EssSurface, EssView, LazySurface, SurfaceAccess};
use rqp::obs::{JsonlSink, RingSink, Tracer};
use rqp::optimizer::{CostParams, EnumerationMode, Optimizer};
use rqp::workloads::tpcds_queries as q;
use rqp_common::{MultiGrid, SelGrid};
use std::sync::OnceLock;

struct Fx {
    catalog: Catalog,
    query: rqp::optimizer::QuerySpec,
}

// Reuse one catalog/query across proptest cases (construction dominates).
fn fx() -> &'static Fx {
    static FX: OnceLock<Fx> = OnceLock::new();
    FX.get_or_init(|| {
        let catalog = tpcds::catalog_sf100();
        let query = q::q91(&catalog, 2);
        Fx { catalog, query }
    })
}

fn sel_strategy() -> impl Strategy<Value = f64> {
    // log-uniform over [1e-7, 1]
    (-7.0f64..=0.0).prop_map(|e| 10f64.powf(e))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pcm_plan_costs_monotone_under_dominance(
        s0 in sel_strategy(),
        s1 in sel_strategy(),
        plan_at0 in sel_strategy(),
        plan_at1 in sel_strategy(),
        bump0 in 1.0f64..100.0,
        bump1 in 1.0f64..100.0,
    ) {
        let f = fx();
        let opt = Optimizer::new(&f.catalog, &f.query, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        // an arbitrary plan from somewhere in the space...
        let (plan, _) = opt.optimize_at(&[plan_at0, plan_at1]);
        // ...costed at q and at a dominating q'
        let q = [s0, s1];
        let qd = [(s0 * bump0).min(1.0), (s1 * bump1).min(1.0)];
        let c = opt.cost_plan(&plan, &opt.sels_at(&q));
        let cd = opt.cost_plan(&plan, &opt.sels_at(&qd));
        prop_assert!(cd >= c * (1.0 - 1e-12), "PCM violated: {c} -> {cd}");
    }

    #[test]
    fn dp_is_optimal_against_sampled_plans(
        here0 in sel_strategy(),
        here1 in sel_strategy(),
        other0 in sel_strategy(),
        other1 in sel_strategy(),
    ) {
        let f = fx();
        let opt = Optimizer::new(&f.catalog, &f.query, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let sels = opt.sels_at(&[here0, here1]);
        let (_, best) = opt.optimize_with(&sels);
        // a plan optimal elsewhere can never beat the DP here
        let (other_plan, _) = opt.optimize_at(&[other0, other1]);
        let c = opt.cost_plan(&other_plan, &sels);
        prop_assert!(c >= best * (1.0 - 1e-9), "foreign plan {c} beats DP {best}");
    }

    #[test]
    fn grid_roundtrip(
        n0 in 2usize..20,
        n1 in 2usize..20,
        n2 in 2usize..8,
        pick in 0usize..10_000,
    ) {
        let grid = MultiGrid::new(vec![
            SelGrid::log_scale(1e-6, n0),
            SelGrid::log_scale(1e-5, n1),
            SelGrid::log_scale(1e-4, n2),
        ]);
        let idx = pick % grid.len();
        let coords = grid.coords(idx);
        prop_assert_eq!(grid.flat(&coords), idx);
        for (j, &c) in coords.iter().enumerate() {
            prop_assert_eq!(grid.coord(idx, j), c);
            let s = grid.sel_at(idx, j);
            prop_assert_eq!(grid.dim(j).nearest_idx(s), c);
        }
    }

    #[test]
    fn selgrid_floor_ceil_consistent(
        n in 2usize..32,
        s in sel_strategy(),
    ) {
        let g = SelGrid::log_scale(1e-7, n);
        let ceil = g.ceil_idx(s);
        if let Some(floor) = g.floor_idx(s) {
            prop_assert!(g.sel(floor) <= s * (1.0 + 1e-12));
            prop_assert!(floor <= ceil);
            prop_assert!(ceil - floor <= 1 || ceil == n - 1);
        } else {
            prop_assert_eq!(ceil, 0);
        }
    }
}

proptest! {
    // Discovery runs are heavier; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn spillbound_sound_at_random_locations(
        c0 in 0usize..10,
        c1 in 0usize..10,
        n in 6usize..11,
    ) {
        let f = fx();
        let opt = Optimizer::new(&f.catalog, &f.query, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let surface = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-7, n));
        let sb = SpillBound::new(&surface, &opt, 2.0);
        let qa = surface.grid().flat(&[c0 % n, c1 % n]);
        let mut oracle = CostOracle::at_grid(&opt, surface.grid(), qa);
        let report = sb.run(&mut oracle).unwrap();
        prop_assert!(report.completed);
        let sub = report.sub_optimality(surface.opt_cost(qa));
        prop_assert!(sub <= spillbound_guarantee(2) * (1.0 + 1e-6), "subopt {sub}");
        // learnt values never overshoot
        for (j, learnt) in report.learnt.iter().enumerate() {
            if let Some(s) = learnt {
                let truth = surface.grid().sel_at(qa, j);
                prop_assert!((s - truth).abs() <= 1e-12);
            }
        }
    }

    #[test]
    fn parallel_evaluation_bit_equal_to_sequential(
        n in 5usize..9,
        min_exp in 5u32..8,
        threads in 2usize..8,
        ratio_tenths in 15u32..26,
    ) {
        let f = fx();
        let opt = Optimizer::new(&f.catalog, &f.query, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let min_sel = 10f64.powi(-(min_exp as i32));
        let surface = EssSurface::build(&opt, MultiGrid::uniform(2, min_sel, n));
        let ratio = ratio_tenths as f64 / 10.0;
        let ctx = EvalContext::with_threads(&surface, &opt, threads);

        let bit_equal = |s: &rqp::core::SubOptStats, p: &rqp::core::SubOptStats| {
            s.mso.to_bits() == p.mso.to_bits()
                && s.worst_qa == p.worst_qa
                && s.subopts.len() == p.subopts.len()
                && s.subopts.iter().zip(&p.subopts).all(|(a, b)| a.to_bits() == b.to_bits())
        };

        let params = Params { ratio, ..Params::default() };
        // Fully qualified: proptest's prelude has a `Strategy` trait.
        for s in rqp::core::Strategy::ALL {
            let sweep = |threads| {
                let compiled = s.compile(CostSource::Matrix(&ctx), &params).unwrap();
                let stats = evaluate_strategy(&compiled, threads).unwrap();
                (stats, compiled.observed_max_penalty().map(f64::to_bits))
            };
            let ((seq, pen_seq), (par, pen_par)) = (sweep(1), sweep(threads));
            prop_assert!(bit_equal(&seq, &par), "{} diverged at {threads} threads", s.name());
            prop_assert_eq!(pen_seq, pen_par);
        }
    }

    /// Trace replay is deterministic: the same discovery run re-executed
    /// with a different cost-matrix worker count and a different sink
    /// produces a byte-identical event stream — events carry step
    /// counters, never wall-clock or thread identity.
    #[test]
    fn trace_replay_is_deterministic(
        c0 in 0usize..8,
        c1 in 0usize..8,
        n in 6usize..9,
        threads in 2usize..6,
    ) {
        let f = fx();
        let opt = Optimizer::new(&f.catalog, &f.query, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let surface = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-7, n));
        let qa = surface.grid().flat(&[c0 % n, c1 % n]);

        // Run A: sequential cost matrix, ring sink.
        let ring = std::sync::Arc::new(RingSink::new(1 << 16));
        {
            let ctx = EvalContext::with_threads(&surface, &opt, 1);
            let mut sb = SpillBound::new(&surface, &opt, 2.0);
            sb.set_tracer(Tracer::to_sink(ring.clone()));
            let mut memo = SpillMemo::new();
            let mut oracle = CachedOracle::at_grid(&ctx, qa, &mut memo);
            sb.run(&mut oracle).unwrap();
        }

        // Run B: parallel cost matrix, JSONL file sink.
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "rqp_trace_replay_{}_{}.jsonl",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        ));
        {
            let ctx = EvalContext::with_threads(&surface, &opt, threads);
            let mut sb = SpillBound::new(&surface, &opt, 2.0);
            let tracer = Tracer::to_sink(std::sync::Arc::new(JsonlSink::create(&path).unwrap()));
            sb.set_tracer(tracer.clone());
            let mut memo = SpillMemo::new();
            let mut oracle = CachedOracle::at_grid(&ctx, qa, &mut memo);
            sb.run(&mut oracle).unwrap();
            tracer.flush();
        }
        let jsonl = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);

        let jsonl_lines: Vec<String> = jsonl.lines().map(str::to_string).collect();
        prop_assert!(!jsonl_lines.is_empty(), "trace file is empty");
        prop_assert_eq!(ring.lines(), jsonl_lines, "ring and JSONL replays diverged");
    }

    /// Lazily-discovered contours are maximal skylines of their level
    /// sets: an *antichain* (no location dominates another), and a
    /// *cover* (every in-budget cell is dominated by a skyline cell).
    #[test]
    fn lazy_contours_are_antichains_that_cover(
        n in 5usize..10,
        min_exp in 5u32..8,
    ) {
        let f = fx();
        let opt = Optimizer::new(&f.catalog, &f.query, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let min_sel = 10f64.powi(-(min_exp as i32));
        let grid = MultiGrid::uniform(2, min_sel, n);
        let lazy = LazySurface::new(&opt, grid.clone());
        let contours = ContourSet::build(&lazy, 2.0);
        let view = EssView::full(2);
        for i in 0..contours.len() {
            let cc = contours.cost(i);
            let locs = contours.locations(&lazy, &view, i);
            for (a_pos, &a) in locs.iter().enumerate() {
                for &b in &locs[a_pos + 1..] {
                    prop_assert!(
                        !grid.dominates_eq(a, b) && !grid.dominates_eq(b, a),
                        "contour {} is not an antichain: {} vs {}", i, a, b
                    );
                }
            }
            for q in grid.iter() {
                if rqp_common::cost_le(lazy.opt_cost(q), cc) {
                    prop_assert!(
                        locs.iter().any(|&s| grid.dominates_eq(s, q)),
                        "cell {} fits contour {} but no skyline cell dominates it", q, i
                    );
                }
            }
        }
    }

    /// `optimize_at` cost is non-decreasing along every axis fiber — the
    /// PCM corollary the lazy surface's per-fiber binary search (the
    /// skyline enumeration) is sound under.
    #[test]
    fn optimize_at_monotone_along_axis_fibers(
        n in 5usize..10,
        min_exp in 5u32..8,
        base0 in 0usize..10,
        base1 in 0usize..10,
        dim in 0usize..2,
    ) {
        let f = fx();
        let opt = Optimizer::new(&f.catalog, &f.query, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let min_sel = 10f64.powi(-(min_exp as i32));
        let grid = MultiGrid::uniform(2, min_sel, n);
        let lazy = LazySurface::new(&opt, grid.clone());
        let base = grid.flat(&[base0 % n, base1 % n]);
        let mut prev: Option<f64> = None;
        for c in 0..n {
            let cost = lazy.opt_cost(grid.with_coord(base, dim, c));
            if let Some(p) = prev {
                prop_assert!(
                    cost >= p * (1.0 - 1e-12),
                    "fiber dim {} not monotone: {} -> {} at coord {}", dim, p, cost, c
                );
            }
            prev = Some(cost);
        }
    }
}

proptest! {
    // Penalty-aware selection invariants. Surface builds dominate; few cases.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A degenerate point-mass prior at `qa` reduces expected penalty to
    /// plain sub-optimality at `qa`, so the selection must pick a plan
    /// that is optimal there (expected penalty exactly 1.0) and the CVaR
    /// of the zero-width prior must equal the expectation bit-for-bit.
    #[test]
    fn degenerate_prior_selects_the_optimal_plan(
        c0 in 0usize..8,
        c1 in 0usize..8,
        n in 5usize..9,
        alpha_pct in 0u32..=100,
    ) {
        use rqp::core::{penalty, Objective, PenaltyConfig, SelectivityPrior};
        let f = fx();
        let opt = Optimizer::new(&f.catalog, &f.query, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let surface = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-7, n));
        let qa = surface.grid().flat(&[c0 % n, c1 % n]);
        let prior = SelectivityPrior::delta(surface.grid(), qa);
        let cfg = PenaltyConfig { alpha: alpha_pct as f64 / 100.0, objective: Objective::Expected };
        let ctx = EvalContext::new(&surface, &opt);
        let sel = penalty::select(CostSource::Matrix(&ctx), &prior, &cfg).unwrap();
        prop_assert_eq!(
            sel.chosen.expected.to_bits(),
            1.0f64.to_bits(),
            "delta prior at {} chose a non-optimal plan (expected {})",
            qa,
            sel.chosen.expected
        );
        // Zero-width prior: the tail IS the point mass at any alpha.
        for risk in &sel.risks {
            prop_assert_eq!(
                risk.cvar.to_bits(),
                risk.expected.to_bits(),
                "zero-width prior CVaR {} != expected {}",
                risk.cvar,
                risk.expected
            );
        }
    }

    /// Prior renormalization: the compensated total mass is 1 within
    /// 1 ulp for arbitrary centers, widths, jitters and seeds.
    #[test]
    fn prior_mass_renormalizes_to_one_within_one_ulp(
        e0 in -7.0f64..=0.0,
        e1 in -7.0f64..=0.0,
        sigma in 0.1f64..4.0,
        jitter in 0.0f64..0.9,
        seed in 0u64..u64::MAX,
        n in 4usize..16,
    ) {
        use rqp::core::{PriorConfig, SelectivityPrior};
        let grid = MultiGrid::uniform(2, 1e-7, n);
        let center = [10f64.powf(e0), 10f64.powf(e1)];
        let prior = SelectivityPrior::lognormal(
            &grid,
            &center,
            PriorConfig { seed, sigma, jitter },
        ).unwrap();
        let total = prior.total();
        let ulp = 1.0f64.to_bits().abs_diff(total.to_bits());
        prop_assert!(ulp <= 1, "prior mass {total} is {ulp} ulps from 1.0");
        prop_assert!(prior.weights().iter().all(|w| *w >= 0.0 && w.is_finite()));
    }

    /// CVaR is monotone non-decreasing in alpha (a deeper tail averages
    /// over worse outcomes) and always at least the expectation.
    #[test]
    fn cvar_monotone_in_alpha_and_dominates_expectation(
        c0 in 0usize..8,
        c1 in 0usize..8,
        n in 5usize..9,
        sigma in 0.3f64..2.5,
        seed in 0u64..1_000_000,
    ) {
        use rqp::core::{penalty, Objective, PenaltyConfig, PriorConfig, SelectivityPrior};
        let f = fx();
        let opt = Optimizer::new(&f.catalog, &f.query, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let surface = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-7, n));
        let grid = surface.grid();
        let center = grid.sels(grid.flat(&[c0 % n, c1 % n]));
        let prior = SelectivityPrior::lognormal(
            grid,
            &center,
            PriorConfig { seed, sigma, jitter: 0.1 },
        ).unwrap();
        let ctx = EvalContext::new(&surface, &opt);
        let mut prev: Option<Vec<f64>> = None;
        for alpha in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let cfg = PenaltyConfig { alpha, objective: Objective::Cvar };
            let sel = penalty::select(CostSource::Matrix(&ctx), &prior, &cfg).unwrap();
            let cvars: Vec<f64> = sel.risks.iter().map(|r| r.cvar).collect();
            for (r, c) in sel.risks.iter().zip(&cvars) {
                prop_assert!(
                    *c >= r.expected * (1.0 - 1e-12),
                    "CVaR {} below expectation {} at alpha {}", c, r.expected, alpha
                );
            }
            if let Some(p) = prev {
                for (lo, hi) in p.iter().zip(&cvars) {
                    prop_assert!(
                        *hi >= *lo * (1.0 - 1e-12),
                        "CVaR not monotone in alpha: {} -> {} at alpha {}", lo, hi, alpha
                    );
                }
            }
            prev = Some(cvars);
        }
    }
}
