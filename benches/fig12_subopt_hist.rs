//! Figure 12 — sub-optimality distribution over the ESS (4D_Q91).
//!
//! Histogram of per-location sub-optimality with bucket width 5. Paper
//! shape to reproduce: SB concentrates far more of the space in the first
//! bucket than PB (paper: >90% of locations below 5 for SB vs 35% for
//! PB).

use rqp::catalog::tpcds;
use rqp::core::{CostSource, EvalContext, Params, Strategy};
use rqp::experiments::{fmt, harness_threads, print_table, sweep, write_json, Experiment};
use rqp::optimizer::EnumerationMode;
use rqp::workloads::q91_with_dims;
use serde::Serialize;

#[derive(Serialize)]
struct Hist {
    bucket_upper: Vec<f64>,
    pb_percent: Vec<f64>,
    sb_percent: Vec<f64>,
}

fn main() {
    let catalog = tpcds::catalog_sf100();
    let bench = q91_with_dims(&catalog, 4);
    let exp = Experiment::build(catalog, bench, EnumerationMode::LeftDeep);
    let opt = exp.optimizer();
    let threads = harness_threads(4);
    println!(
        "[evaluating 4D_Q91 with {threads} thread(s); set RQP_THREADS or pass --threads N to change]"
    );
    let ctx = EvalContext::with_threads(&exp.surface, &opt, threads);
    let sweep = |s, threads| sweep(s, CostSource::Matrix(&ctx), &Params::default(), threads).0;
    let t_par = std::time::Instant::now();
    let pb = sweep(Strategy::PlanBouquet, threads);
    let sb = sweep(Strategy::SpillBound, threads);
    let par_secs = t_par.elapsed().as_secs_f64();
    // Sequential reference over the same context: bit-equal, just slower.
    let t_seq = std::time::Instant::now();
    let pb_seq = sweep(Strategy::PlanBouquet, 1);
    let sb_seq = sweep(Strategy::SpillBound, 1);
    let seq_secs = t_seq.elapsed().as_secs_f64();
    assert_eq!(pb.mso.to_bits(), pb_seq.mso.to_bits());
    assert_eq!(sb.mso.to_bits(), sb_seq.mso.to_bits());
    println!(
        "[parallel evaluation] 4D_Q91 PB+SB sweep: sequential {seq_secs:.3}s, \
         {threads} threads {par_secs:.3}s -> {:.2}x speedup (bit-equal results)",
        seq_secs / par_secs
    );

    const WIDTH: f64 = 5.0;
    let pb_h = pb.histogram(WIDTH);
    let sb_h = sb.histogram(WIDTH);
    let buckets = pb_h.len().max(sb_h.len());
    let pct = |h: &[(f64, f64)], b: usize| h.get(b).map_or(0.0, |&(_, p)| p);
    let table: Vec<Vec<String>> = (0..buckets)
        .map(|b| {
            vec![
                format!("[{}, {})", b as f64 * WIDTH, (b + 1) as f64 * WIDTH),
                fmt(pct(&pb_h, b), 1),
                fmt(pct(&sb_h, b), 1),
            ]
        })
        .collect();
    print_table(
        "Fig. 12: sub-optimality distribution, 4D_Q91 (% of ESS locations)",
        &["sub-optimality", "PB %", "SB %"],
        &table,
    );
    println!(
        "\nlocations with sub-optimality < 5: PB {:.1}%, SB {:.1}%",
        pb.percent_within(5.0),
        sb.percent_within(5.0)
    );
    write_json(
        "fig12_subopt_hist",
        &Hist {
            bucket_upper: (1..=buckets).map(|b| b as f64 * WIDTH).collect(),
            pb_percent: (0..buckets).map(|b| pct(&pb_h, b)).collect(),
            sb_percent: (0..buckets).map(|b| pct(&sb_h, b)).collect(),
        },
    );
}
