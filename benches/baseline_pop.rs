//! Related-work baseline — POP-style mid-query re-optimization (§8).
//!
//! The paper argues that re-optimization heuristics (POP, Rio) "are based
//! on heuristics and do not provide any performance bounds" and can get
//! stuck sinking work into bad plans. This harness measures the
//! trade-off on our ESS machinery: POP's MSOe/ASO against SpillBound's,
//! over a 2D/3D/4D sample of the suite and two validity-range widths.

use rqp::catalog::tpcds;
use rqp::core::{CostSource, Params, PopReoptimizer, Strategy};
use rqp::experiments::{fmt, print_table, sweep, write_json, Experiment};
use rqp::optimizer::EnumerationMode;
use rqp::workloads::{paper_suite, q91_with_dims};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    query: String,
    alpha: f64,
    pop_mso: f64,
    pop_aso: f64,
    sb_mso: f64,
    sb_aso: f64,
    sb_guarantee: f64,
}

fn main() {
    let mut rows = Vec::new();
    let catalog = tpcds::catalog_sf100();
    let benches = vec![
        q91_with_dims(&catalog, 2),
        paper_suite(&catalog)
            .into_iter()
            .find(|b| b.name() == "3D_Q96")
            .expect("suite"),
        paper_suite(&catalog)
            .into_iter()
            .find(|b| b.name() == "4D_Q26")
            .expect("suite"),
    ];
    for bench in benches {
        let name = bench.query.name.clone();
        let d = bench.query.ndims();
        let exp = Experiment::build(tpcds::catalog_sf100(), bench, EnumerationMode::LeftDeep);
        let opt = exp.optimizer();
        let source = CostSource::Recost(&exp.surface, &opt);
        let (sb, _) = sweep(Strategy::SpillBound, source, &Params::default(), 1);
        for alpha in [2.0, 5.0] {
            let pop = PopReoptimizer::new(&opt, alpha);
            let stats = pop.evaluate(&exp.surface);
            rows.push(Row {
                query: name.clone(),
                alpha,
                pop_mso: stats.mso,
                pop_aso: stats.aso,
                sb_mso: sb.mso,
                sb_aso: sb.aso,
                sb_guarantee: rqp::core::spillbound_guarantee(d),
            });
        }
        eprintln!("[swept {name}]");
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.query.clone(),
                fmt(r.alpha, 0),
                fmt(r.pop_mso, 1),
                fmt(r.pop_aso, 2),
                fmt(r.sb_mso, 1),
                fmt(r.sb_aso, 2),
                fmt(r.sb_guarantee, 0),
            ]
        })
        .collect();
    print_table(
        "Baseline: POP-style re-optimization vs SpillBound",
        &[
            "query", "α", "POP MSOe", "POP ASO", "SB MSOe", "SB ASO", "SB bound",
        ],
        &table,
    );
    println!(
        "\nPOP has no bound: its worst case depends on how much work sinks \
         before a violation is detected; SB's never exceeds D²+3D."
    );
    write_json("baseline_pop", &rows);
}
