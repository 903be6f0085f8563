//! The read-only views of the suite: `list`, `explore`, `compare` and
//! `figures`.

use crate::{fail, positionals, query_arg, usage};
use rqp::catalog::tpcds;
use rqp::core::{PlanBouquet, Strategy};
use rqp::ess::alignment::analyze;
use rqp::ess::{ContourSet, EssView};
use rqp::experiments::{compare as compare_all, Experiment};
use rqp::figures::{Cell, Lab, Table, FIGURES};
use rqp::optimizer::EnumerationMode;
use rqp::workloads::paper_suite;
use std::process::ExitCode;

/// `rqp list`: the suite registry.
pub fn list(_: &[String]) -> ExitCode {
    let catalog = tpcds::catalog_sf100();
    println!("benchmark queries (TPC-DS SF100 SPJ cores):");
    for b in paper_suite(&catalog) {
        println!(
            "  {:<8} D={} relations={} grid={}^D",
            b.name(),
            b.query.ndims(),
            b.query.relations.len(),
            b.grid_points
        );
    }
    ExitCode::SUCCESS
}

/// The query named by the one positional argument, built over its
/// default grid.
fn experiment(args: &[String]) -> Experiment {
    let catalog = tpcds::catalog_sf100();
    let bench = query_arg(&catalog, positionals(args)[0]);
    Experiment::build(catalog, bench, EnumerationMode::LeftDeep)
}

/// `rqp explore <query>`: the POSP / contour anatomy the discovery
/// algorithms operate on — relations and epps, SQL, the plans at the
/// origin and the terminus, the iso-cost contours with their alignment,
/// and the anorexic-reduced bouquet with the three guarantees: a textual
/// rendering of the paper's Figs. 2, 3, 5 and 6.
pub fn explore(args: &[String]) -> ExitCode {
    let exp = experiment(args);
    let (query, catalog, s) = (&exp.bench.query, &exp.catalog, &exp.surface);
    let d = query.ndims();
    println!("=== {} ===\nrelations:", query.name);
    for (i, &tid) in query.relations.iter().enumerate() {
        let t = catalog.table(tid);
        println!("  r{i}: {} ({} rows)", t.name, t.rows);
    }
    println!("error-prone predicates (ESS dimensions):");
    for (j, &p) in query.epps.iter().enumerate() {
        println!("  dim {j}: {}", query.predicates[p].label);
    }
    println!("\nSQL:\n{}", query.to_sql(catalog));
    println!(
        "\n{}: {} grid locations ({} per dim), {} POSP plans, costs [{:.3e}, {:.3e}], built in {:.2}s",
        query.name,
        s.len(),
        s.grid().dim(0).len(),
        s.posp_size(),
        s.cmin(),
        s.cmax(),
        exp.build_secs
    );
    let origin = s.plan(s.grid().origin()).render(query, catalog);
    let terminus = s.plan(s.grid().terminus()).render(query, catalog);
    println!("\noptimal plan at the origin:\n{origin}optimal plan at the terminus:\n{terminus}");

    let opt = exp.optimizer();
    let contours = ContourSet::build(s, 2.0);
    let report = analyze(s, &opt, &contours);
    let view = EssView::full(d);
    println!("iso-cost contours (ratio 2):");
    println!("  i    cost          |locs|  |PL_i|  alignment");
    for i in 0..contours.len() {
        let align = match report.contours[i].min_penalty {
            Some(p) if p <= 1.0 + 1e-9 => "native".to_string(),
            Some(p) => format!("induced (ε = {p:.2})"),
            None => "—".to_string(),
        };
        println!(
            "  IC{:<3} {:>12.3e}  {:>5}  {:>5}   {align}",
            i + 1,
            contours.cost(i),
            contours.locations(s, &view, i).len(),
            contours.plans(s, &view, i).len(),
        );
    }
    let pb = PlanBouquet::new(s, &opt, 2.0, 0.2);
    println!(
        "\nanorexic reduction (λ = 0.2): ρ_red = {}\nguarantees: PB 4(1+λ)ρ_red = {:.1}, SB D²+3D = {}, AB range [{}, {}]",
        pb.rho_red(),
        pb.mso_guarantee(),
        rqp::core::spillbound_guarantee(d),
        rqp::core::aligned_guarantee_lower(d),
        rqp::core::spillbound_guarantee(d)
    );
    ExitCode::SUCCESS
}

/// `rqp compare <query>`: MSOg / MSOe / ASO of every strategy, and
/// PenaltyAware's expected sub-optimality under its prior.
pub fn compare(args: &[String]) -> ExitCode {
    let exp = experiment(args);
    let row = compare_all(&exp, 2.0, 0.2);
    let mut table = Table::new(&["strategy", "MSOg", "MSOe", "ASO"]);
    for s in Strategy::ALL {
        let (msog, msoe, aso) = row.stats(s);
        let cells = [Cell::Num(msog, 1), Cell::Num(msoe, 1), Cell::Num(aso, 2)];
        table.push([vec![s.name().into()], cells.to_vec()].concat());
    }
    println!("{}: comparison\n\n{}", exp.bench.name(), table.markdown());
    println!(
        "penalty-aware prior-expected sub-optimality: {:.4} (native plan {:.4}), \
         CVaR {:.4} — expected-case guarantee: PA ≤ native under the prior",
        row.aso_prior_pa, row.aso_prior_native, row.pa_cvar
    );
    ExitCode::SUCCESS
}

/// `rqp figures [id]`: runs one row of the figures table, or all of them,
/// at every query's default grid; prints each table as markdown with its
/// wall time, writes `target/experiments/<id>.json`, and fails naming the
/// first claim that does not hold.
pub fn figures(args: &[String]) -> ExitCode {
    let id = positionals(args).first().copied();
    let rows: Vec<_> = match id {
        None => FIGURES.iter().collect(),
        Some(id) => match rqp::figures::find(id) {
            Some(f) => vec![f],
            None => {
                eprintln!("unknown figure {id}");
                return usage();
            }
        },
    };
    let (lab, total) = (Lab::full(), std::time::Instant::now());
    let mut failed = None;
    for f in rows {
        println!("### {} — {}\n", f.id, f.title);
        let start = std::time::Instant::now();
        let table = (f.run)(&lab);
        let secs = start.elapsed().as_secs_f64();
        println!("{}", table.markdown());
        rqp::experiments::write_json(f.id, &table);
        match (f.claim)(&table) {
            Ok(()) => println!("{}: claim holds ({secs:.1} s)\n", f.id),
            Err(e) => {
                println!("{}: CLAIM FAILED: {e} ({secs:.1} s)\n", f.id);
                failed.get_or_insert(format!("{}: {e}", f.id));
            }
        }
    }
    println!("total {:.1} s", total.elapsed().as_secs_f64());
    if let Some(e) = failed {
        fail(&format!("first failed claim: {e}"));
    }
    ExitCode::SUCCESS
}
