//! Ablation — the anorexic-reduction threshold λ.
//!
//! PlanBouquet's guarantee `4(1+λ)ρ_red` trades the budget inflation
//! `(1+λ)` against the density reduction it buys. The paper (following
//! Harish et al.) uses λ = 0.2; this ablation sweeps λ over
//! {0, 0.1, 0.2, 0.5} on a 3D and a 4D query, reporting `ρ_red`, the
//! guarantee, and the measured MSOe.

use rqp::catalog::tpcds;
use rqp::core::{CostSource, EvalContext, Params, Strategy};
use rqp::experiments::{fmt, print_table, sweep, write_json, Experiment};
use rqp::optimizer::EnumerationMode;
use rqp::workloads::paper_suite;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    query: String,
    lambda: f64,
    rho_red: usize,
    guarantee: f64,
    msoe: f64,
}

fn main() {
    const LAMBDAS: [f64; 4] = [0.0, 0.1, 0.2, 0.5];
    let mut rows = Vec::new();
    for name in ["3D_Q96", "4D_Q26"] {
        let catalog = tpcds::catalog_sf100();
        let bench = paper_suite(&catalog)
            .into_iter()
            .find(|b| b.name() == name)
            .expect("suite query");
        let exp = Experiment::build(catalog, bench, EnumerationMode::LeftDeep);
        let opt = exp.optimizer();
        let ctx = EvalContext::new(&exp.surface, &opt);
        for lambda in LAMBDAS {
            let params = Params {
                lambda,
                ..Params::default()
            };
            let (stats, pb) = sweep(Strategy::PlanBouquet, CostSource::Matrix(&ctx), &params, 1);
            rows.push(Row {
                query: name.into(),
                lambda,
                rho_red: pb.bouquet().expect("a bouquet").rho_red(),
                guarantee: pb.mso_guarantee(),
                msoe: stats.mso,
            });
        }
        eprintln!("[swept {name}]");
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.query.clone(),
                fmt(r.lambda, 1),
                r.rho_red.to_string(),
                fmt(r.guarantee, 1),
                fmt(r.msoe, 1),
            ]
        })
        .collect();
    print_table(
        "Ablation: anorexic reduction threshold λ (PlanBouquet)",
        &["query", "λ", "ρ_red", "4(1+λ)ρ_red", "MSOe"],
        &table,
    );
    // Reduction must be monotone: larger λ never increases ρ_red.
    for pair in rows.chunks(LAMBDAS.len()) {
        for w in pair.windows(2) {
            assert!(w[1].rho_red <= w[0].rho_red, "ρ_red must shrink with λ");
        }
    }
    write_json("ablation_anorexic", &rows);
}
