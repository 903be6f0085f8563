//! Dev utility: times each strategy's exhaustive ESS sweep separately.
//!
//! Run with: `cargo run --release --example profile_eval [query]`

use rqp::catalog::tpcds;
use rqp::core::{CostSource, EvalContext, Params, Strategy};
use rqp::experiments::{sweep, Experiment};
use rqp::optimizer::EnumerationMode;
use rqp::workloads::paper_suite;
use std::time::Instant;

fn main() {
    let want = std::env::args().nth(1).unwrap_or_else(|| "5D_Q19".into());
    let catalog = tpcds::catalog_sf100();
    let bench = paper_suite(&catalog)
        .into_iter()
        .find(|b| b.name() == want)
        .expect("known query");
    let t = Instant::now();
    let exp = Experiment::build(catalog, bench, EnumerationMode::LeftDeep);
    println!(
        "surface: {:.2}s ({} locs, {} plans)",
        t.elapsed().as_secs_f64(),
        exp.surface.len(),
        exp.surface.posp_size()
    );
    let opt = exp.optimizer();
    let t = Instant::now();
    let ctx = EvalContext::new(&exp.surface, &opt);
    println!("matrix: {:.2}s", t.elapsed().as_secs_f64());
    for s in Strategy::ALL {
        let t = Instant::now();
        let (stats, c) = sweep(s, CostSource::Matrix(&ctx), &Params::default(), 1);
        let penalty =
            (c.observed_max_penalty()).map_or(String::new(), |p| format!(", max penalty {p:.2}"));
        println!(
            "{:<12}: {:.2}s (mso {:.1}{penalty})",
            s.name(),
            t.elapsed().as_secs_f64(),
            stats.mso
        );
    }
}
