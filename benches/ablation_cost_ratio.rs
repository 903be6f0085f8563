//! Ablation — inter-contour cost ratio (§4.2 remark).
//!
//! The paper notes cost-doubling is not ideal for SpillBound: a ratio of
//! ~1.8 improves the 2D guarantee from 10 to 9.9. This ablation sweeps the
//! ratio over {1.5, 1.8, 2.0, 2.5}, printing both the analytic guarantee
//! `D·r²/(r−1) + D(D−1)·r/2` and the measured MSOe on 2D and 3D queries.

use rqp::catalog::tpcds;
use rqp::core::{CostSource, Params, Strategy};
use rqp::experiments::{
    fmt, print_table, spillbound_guarantee_ratio, sweep, write_json, Experiment,
};
use rqp::optimizer::EnumerationMode;
use rqp::workloads::{paper_suite, q91_with_dims};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    query: String,
    ratio: f64,
    guarantee: f64,
    msoe: f64,
}

fn main() {
    const RATIOS: [f64; 4] = [1.5, 1.8, 2.0, 2.5];
    let mut rows = Vec::new();
    let experiments: Vec<Experiment> = {
        let mut v = Vec::new();
        let catalog = tpcds::catalog_sf100();
        v.push(Experiment::build(
            tpcds::catalog_sf100(),
            q91_with_dims(&catalog, 2),
            EnumerationMode::LeftDeep,
        ));
        let q96 = paper_suite(&catalog)
            .into_iter()
            .find(|b| b.name() == "3D_Q96")
            .expect("suite");
        v.push(Experiment::build(
            tpcds::catalog_sf100(),
            q96,
            EnumerationMode::LeftDeep,
        ));
        v
    };
    for exp in &experiments {
        let opt = exp.optimizer();
        let d = exp.bench.query.ndims();
        for ratio in RATIOS {
            let (params, source) = (
                Params {
                    ratio,
                    ..Params::default()
                },
                CostSource::Recost(&exp.surface, &opt),
            );
            let (stats, _) = sweep(Strategy::SpillBound, source, &params, 1);
            rows.push(Row {
                query: exp.bench.query.name.clone(),
                ratio,
                guarantee: spillbound_guarantee_ratio(d, ratio),
                msoe: stats.mso,
            });
        }
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.query.clone(),
                fmt(r.ratio, 1),
                fmt(r.guarantee, 2),
                fmt(r.msoe, 2),
            ]
        })
        .collect();
    print_table(
        "Ablation: contour cost ratio (guarantee minimized near r ≈ 1.8 for 2D)",
        &["query", "ratio", "SB guarantee", "SB MSOe"],
        &table,
    );
    // The §4.2 claim: at D = 2, r = 1.8 has a (slightly) better guarantee
    // than doubling.
    let g18 = spillbound_guarantee_ratio(2, 1.8);
    let g20 = spillbound_guarantee_ratio(2, 2.0);
    println!("\n2D guarantee: r=1.8 → {g18:.2}, r=2.0 → {g20:.2} (paper: 9.9 vs 10)");
    assert!(g18 < g20);
    write_json("ablation_cost_ratio", &rows);
}
