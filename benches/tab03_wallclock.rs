//! Table 3 — wall-clock drill-down of SpillBound on 4D_Q91 (§6.3).
//!
//! Executor-backed: plans really run over materialized synthetic data with
//! injected estimation error, budgets enforced by cost metering, and
//! selectivities learnt from observed tuple counts. Output mirrors the
//! paper's table: per contour, the epp selectivities learnt so far and the
//! cumulative time, culminating in a full execution that returns the
//! result. Shape to reproduce: optimal < SB ≪ native is *not* expected at
//! this synthetic scale (the native plan's blow-up needs the full 100 GB);
//! what is reproduced is SB/AB's bounded discovery overhead vs the
//! optimal, against an unbounded native worst case.

use rqp::catalog::tpcds;
use rqp::core::report::{ExecMode, RunReport};
use rqp::core::{AlignedBound, Outcome, SpillBound};
use rqp::ess::EssSurface;
use rqp::executor::{DataStore, Engine, PlanEngine as _};
use rqp::experiments::write_json;
use rqp::optimizer::{CostParams, EnumerationMode, Optimizer};
use rqp::runner::{measure_qa, ExecOracle};
use rqp::workloads::{executable_genspec_with_errors, q91_with_dims, scale_from_env};
use rqp_catalog::DataSet;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct DrillRow {
    contour: usize,
    plan: Option<usize>,
    mode: String,
    learnt_pct: Vec<Option<f64>>,
    cum_secs: f64,
}

fn drill(report: &RunReport, timings: &[std::time::Duration], d: usize) -> Vec<DrillRow> {
    let mut learnt: Vec<Option<f64>> = vec![None; d];
    let mut cum = 0.0;
    report
        .records
        .iter()
        .zip(timings)
        .map(|(r, t)| {
            cum += t.as_secs_f64();
            if let (ExecMode::Spill { dim }, Outcome::Completed { sel: Some(s) }) =
                (r.mode, r.outcome)
            {
                learnt[dim] = Some(s * 100.0);
            }
            DrillRow {
                contour: r.contour + 1,
                plan: r.plan_id,
                mode: match r.mode {
                    ExecMode::Spill { dim } => format!("spill(e{dim})"),
                    ExecMode::Full => "full".into(),
                },
                learnt_pct: learnt.clone(),
                cum_secs: cum,
            }
        })
        .collect()
}

fn print_drill(name: &str, rows: &[DrillRow]) {
    println!("\n{name}:");
    println!("  contour | e1 (%)   e2 (%)   e3 (%)   e4 (%)  | exec        | cum. time");
    for r in rows {
        let cells: Vec<String> = r
            .learnt_pct
            .iter()
            .map(|v| v.map_or("  ?   ".into(), |p| format!("{p:>6.3}")))
            .collect();
        println!(
            "  IC{:<5} | {} | {:<11} | {:>8.3}s",
            r.contour,
            cells.join("  "),
            format!(
                "{} P{}",
                r.mode,
                r.plan.map_or("new".into(), |p| p.to_string())
            ),
            r.cum_secs
        );
    }
}

fn main() {
    // RQP_SCALE=10 (or 100) reruns the same comparison on a 10-100x
    // larger dataset; plans execute on the vectorized engine. The knob
    // scales the *catalog*: injected error factors are ratios to the
    // 1/NDV estimate, invariant under catalog scaling, so the planted
    // 30x/10x/50x/20x errors survive while full-run work grows
    // ~linearly. (Row-only scaling under fixed domains — GenSpec::scaled
    // — would instead compound each join's planted selectivity into a
    // quadratic output blowup.)
    let scale = scale_from_env();
    println!("dataset scale: {scale}x (set RQP_SCALE to change)");
    let catalog = tpcds::catalog(0.1 * scale);
    let bench = q91_with_dims(&catalog, 4);
    let query = &bench.query;
    let errors = [30.0, 10.0, 50.0, 20.0];
    let spec = executable_genspec_with_errors(&catalog, query, 20260707, &errors);
    let data = DataSet::generate(&catalog, &spec).expect("generate");
    let store = DataStore::new(&catalog, data);
    let qa = measure_qa(&store, query);

    let opt = Optimizer::new(
        &catalog,
        query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .expect("valid");
    let surface = EssSurface::build(&opt, bench.grid());
    let exec = || Engine::new(&catalog, query, &store, CostParams::default());

    let (opt_plan, _) = opt.optimize_at(&qa);
    let t = Instant::now();
    let opt_out = exec()
        .run_full(&opt_plan, f64::INFINITY)
        .expect("optimal runs");
    let t_opt = t.elapsed().as_secs_f64();
    let opt_out_spent = opt_out.spent;

    let est: Vec<f64> = query.epps.iter().map(|&p| opt.base_sels().get(p)).collect();
    let (native_plan, _) = opt.optimize_at(&est);
    // Cap the native run at 200x the optimal metered cost (an unbounded
    // run is the paper's point, but benches must terminate).
    let t = Instant::now();
    let nat = exec()
        .run_full(&native_plan, 200.0 * opt_out_spent)
        .expect("native runs");
    let t_native = t.elapsed().as_secs_f64();
    let native_completed = nat.completed;

    let sb = SpillBound::new(&surface, &opt, 2.0);
    let mut oracle = ExecOracle::new(exec(), &opt, surface.grid());
    let report = sb.run(&mut oracle).expect("SB completes");
    let sb_rows = drill(&report, &oracle.timings, 4);
    let t_sb = oracle.total_time().as_secs_f64();

    let ab = AlignedBound::new(&surface, &opt, 2.0);
    let mut oracle = ExecOracle::new(exec(), &opt, surface.grid());
    let report = ab.run(&mut oracle).expect("AB completes");
    let ab_rows = drill(&report, &oracle.timings, 4);
    let t_ab = oracle.total_time().as_secs_f64();

    println!("=== Table 3: SpillBound execution on TPC-DS Q91 (4 epps, wall-clock) ===");
    let qa_fmt: Vec<String> = qa.iter().map(|s| format!("{s:.2e}")).collect();
    println!("true selectivities qa = ({})", qa_fmt.join(", "));
    print_drill("SpillBound drill-down", &sb_rows);
    print_drill("AlignedBound drill-down", &ab_rows);
    let native_note = if native_completed {
        ""
    } else {
        " (ABORTED at 200× optimal cost)"
    };
    println!(
        "\nwall-clock: optimal {t_opt:.3}s | native {t_native:.3}s{native_note} | SB {t_sb:.3}s | AB {t_ab:.3}s"
    );
    println!(
        "sub-optimality (wall): native {:.1} | SB {:.1} | AB {:.1}",
        t_native / t_opt,
        t_sb / t_opt,
        t_ab / t_opt
    );
    #[derive(Serialize)]
    struct Out {
        qa: Vec<f64>,
        t_opt: f64,
        t_native: f64,
        t_sb: f64,
        t_ab: f64,
        sb_rows: Vec<DrillRow>,
        ab_rows: Vec<DrillRow>,
    }
    write_json(
        "tab03_wallclock",
        &Out {
            qa,
            t_opt,
            t_native,
            t_sb,
            t_ab,
            sb_rows,
            ab_rows,
        },
    );
}
