//! Wall-clock drill-down on TPC-DS Q91 with four epps (paper §6.3,
//! Table 3).
//!
//! Unlike the cost-based experiments, this one *actually executes* plans
//! on the batch engine over materialized synthetic data: budgets are
//! enforced by cost metering, spilled subtrees run alone with their output
//! discarded, and selectivities are learnt from observed tuple counts.
//! The output mirrors Table 3: per contour, the selectivities learnt so
//! far (in %), the executing plan, and cumulative wall-clock time — for
//! the native optimizer, SpillBound and AlignedBound, against the
//! oracle-optimal plan.
//!
//! Run with: `cargo run --release --example wall_clock`

use rqp::catalog::tpcds;
use rqp::core::report::{ExecMode, RunReport};
use rqp::core::{AlignedBound, Outcome, SpillBound};
use rqp::ess::EssSurface;
use rqp::executor::{DataStore, Engine, PlanEngine as _};
use rqp::optimizer::{CostParams, EnumerationMode, Optimizer};
use rqp::runner::{measure_qa, ExecOracle};
use rqp::workloads::{executable_genspec_with_errors, q91_with_dims};
use rqp_catalog::DataSet;
use std::time::{Duration, Instant};

fn print_drilldown(report: &RunReport, timings: &[Duration], d: usize) {
    println!("  contour | learnt so far (%)                      | plan exec        | cum. time");
    let mut learnt: Vec<Option<f64>> = vec![None; d];
    let mut cum = Duration::ZERO;
    for (r, t) in report.records.iter().zip(timings) {
        cum += *t;
        if let (ExecMode::Spill { dim }, Outcome::Completed { sel: Some(s) }) = (r.mode, r.outcome)
        {
            learnt[dim] = Some(s);
        }
        let learnt_str: Vec<String> = learnt
            .iter()
            .enumerate()
            .map(|(j, v)| match v {
                Some(s) => format!("e{j}={:.3}%", s * 100.0),
                None => format!("e{j}=?"),
            })
            .collect();
        let mode = match r.mode {
            ExecMode::Spill { dim } => format!("spill(e{dim})"),
            ExecMode::Full => "full".into(),
        };
        println!(
            "  IC{:<5} | {:<38} | {:<16} | {:>7.3}s",
            r.contour + 1,
            learnt_str.join(" "),
            format!(
                "{} {}",
                mode,
                r.plan_id.map_or("custom".into(), |p| format!("P{p}"))
            ),
            cum.as_secs_f64()
        );
    }
}

fn main() {
    // Small-scale TPC-DS so executions take seconds, not hours.
    let catalog = tpcds::catalog(0.1);
    let bench = q91_with_dims(&catalog, 4);
    let query = &bench.query;
    println!(
        "wall-clock experiment: {} over TPC-DS at reduced scale",
        query.name
    );

    // Materialize the data — with estimation error injected: the true epp
    // selectivities are 10–50× the statistics-derived estimates, which is
    // exactly the regime where native optimizers fall over (§1).
    let errors = [30.0, 10.0, 50.0, 20.0];
    let spec = executable_genspec_with_errors(&catalog, query, 20260707, &errors);
    let data = DataSet::generate(&catalog, &spec).expect("generate dataset");
    let store = DataStore::new(&catalog, data);
    let qa = measure_qa(&store, query);
    let qa_fmt: Vec<String> = qa.iter().map(|s| format!("{s:.2e}")).collect();
    println!("true epp selectivities qa = ({})", qa_fmt.join(", "));

    // Optimizer + ESS surface at this scale.
    let opt = Optimizer::new(
        &catalog,
        query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .expect("query valid");
    let surface = EssSurface::build(&opt, bench.grid());
    let exec = || Engine::new(&catalog, query, &store, CostParams::default());

    // Oracle-optimal: the plan an omniscient optimizer would pick.
    let (opt_plan, _) = opt.optimize_at(&qa);
    let t = Instant::now();
    let out = exec()
        .run_full(&opt_plan, f64::INFINITY)
        .expect("optimal plan runs");
    let t_opt = t.elapsed();
    println!(
        "\noracle-optimal plan: {} result rows in {:.3}s",
        out.rows_out,
        t_opt.as_secs_f64()
    );

    // Native optimizer: commit to the estimate's plan. An unbounded run
    // can take (almost arbitrarily) long — the paper's premise — so we cap
    // it at 200× the optimal plan's metered cost and report the abort.
    let est: Vec<f64> = query.epps.iter().map(|&p| opt.base_sels().get(p)).collect();
    let (native_plan, _) = opt.optimize_at(&est);
    let native_cap = 200.0 * out.spent;
    let t = Instant::now();
    let nat = exec()
        .run_full(&native_plan, native_cap)
        .expect("native plan runs");
    let t_native = t.elapsed();
    if nat.completed {
        println!(
            "native optimizer:    {} result rows in {:.3}s (sub-optimality {:.2})",
            nat.rows_out,
            t_native.as_secs_f64(),
            t_native.as_secs_f64() / t_opt.as_secs_f64().max(1e-9)
        );
    } else {
        println!(
            "native optimizer:    ABORTED after spending 200× the optimal plan's cost \
             ({:.3}s wall) — unbounded sub-optimality, as the paper warns",
            t_native.as_secs_f64()
        );
    }

    // SpillBound with the executor-backed oracle.
    let sb = SpillBound::new(&surface, &opt, 2.0);
    let mut oracle = ExecOracle::new(exec(), &opt, surface.grid());
    let t = Instant::now();
    let report = sb.run(&mut oracle).expect("SpillBound completes");
    let t_sb = t.elapsed();
    println!(
        "\nSpillBound: {} executions, {:.3}s total (sub-optimality {:.2}, guarantee {})",
        report.executions(),
        t_sb.as_secs_f64(),
        t_sb.as_secs_f64() / t_opt.as_secs_f64(),
        sb.mso_guarantee()
    );
    print_drilldown(&report, &oracle.timings, query.ndims());

    // AlignedBound likewise.
    let ab = AlignedBound::new(&surface, &opt, 2.0);
    let mut oracle = ExecOracle::new(exec(), &opt, surface.grid());
    let t = Instant::now();
    let report = ab.run(&mut oracle).expect("AlignedBound completes");
    let t_ab = t.elapsed();
    println!(
        "\nAlignedBound: {} executions, {:.3}s total (sub-optimality {:.2}, range [{}, {}])",
        report.executions(),
        t_ab.as_secs_f64(),
        t_ab.as_secs_f64() / t_opt.as_secs_f64(),
        ab.mso_guarantee_lower(),
        ab.mso_guarantee()
    );
    print_drilldown(&report, &oracle.timings, query.ndims());

    println!(
        "\nsummary (wall-clock): optimal {:.3}s | native {:.3}s | SpillBound {:.3}s | AlignedBound {:.3}s",
        t_opt.as_secs_f64(),
        t_native.as_secs_f64(),
        t_sb.as_secs_f64(),
        t_ab.as_secs_f64()
    );
}
