//! The paper's evaluation as one executable table.
//!
//! Every figure and table of §6 this repository reproduces, and the
//! repository's own additions (Fig. 14, the POP baseline, three
//! ablations), is one row of [`FIGURES`]: an id from DESIGN.md §3, a
//! `run` that computes one [`Table`], and a `claim` that checks the shape
//! the paper states against that table. `rqp figures [ID]` runs rows at
//! each query's default grid, prints their markdown (the tables of
//! EXPERIMENTS.md) and writes `target/experiments/<ID>.json`;
//! `tests/figures.rs` runs every row at reduced grids and asserts every
//! claim.

use crate::experiments::{compare_with_threads, env_threads, sweep, ComparisonRow, Experiment};
use crate::runner::{measure_qa, ExecOracle};
use rqp_catalog::{imdb, tpcds, Catalog, DataSet};
use rqp_core::native::native_mso_worst_case;
use rqp_core::report::ExecMode;
use rqp_core::{
    aligned_guarantee_lower, lowerbound, spillbound_guarantee, spillbound_guarantee_ratio,
    CostOracle, CostSource, EvalContext, Outcome, Params, PopReoptimizer, RunReport, Strategy,
};
use rqp_ess::alignment::analyze;
use rqp_ess::ContourSet;
use rqp_executor::{DataStore, Engine, PlanEngine as _};
use rqp_optimizer::{CostParams, EnumerationMode};
use rqp_workloads::suite::default_grid_points;
use rqp_workloads::{executable_genspec_with_errors, job, paper_suite, q91_with_dims, BenchQuery};
use serde::{Serialize, Value};
use std::sync::OnceLock;
use std::time::Instant;

/// One cell of a [`Table`].
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A label.
    Text(String),
    /// A number shown with this many decimals, in scientific notation
    /// from 10⁵ up.
    Num(f64, usize),
    /// A number always shown in scientific notation (selectivities,
    /// costs).
    Sci(f64),
}

impl Cell {
    fn render(&self) -> String {
        match *self {
            Cell::Text(ref s) => s.clone(),
            Cell::Num(v, _) | Cell::Sci(v) if v.is_infinite() => "∞".into(),
            Cell::Sci(0.0) => "0".into(),
            Cell::Num(v, decimals) if v.abs() < 1e5 => format!("{v:.decimals$}"),
            Cell::Num(v, _) | Cell::Sci(v) => format!("{v:.1e}"),
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.into())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Self {
        Cell::Num(n as f64, 0)
    }
}

impl Serialize for Cell {
    fn to_value(&self) -> Value {
        match *self {
            Cell::Text(ref s) => Value::String(s.clone()),
            Cell::Num(v, _) | Cell::Sci(v) => Value::Num(v),
        }
    }
}

/// What a row of [`FIGURES`] produces: named columns of cells. A claim
/// reads the numbers; markdown and JSON render them.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table with these column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row with one cell per header.
    pub fn push(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.headers.len(), "one cell per column");
        self.rows.push(cells);
    }

    /// Replaces the cell of row `i` under `header`.
    pub fn set(&mut self, i: usize, header: &str, cell: Cell) {
        let j = self.col(header);
        self.rows[i][j] = cell;
    }

    /// The rows, in order.
    pub fn rows(&self) -> impl Iterator<Item = Row<'_>> {
        self.rows.iter().map(|cells| Row { table: self, cells })
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn col(&self, header: &str) -> usize {
        (self.headers.iter().position(|h| h == header))
            .unwrap_or_else(|| panic!("no column {header:?}"))
    }

    /// The table as GitHub markdown.
    pub fn markdown(&self) -> String {
        let line = |cells: Vec<String>| format!("| {} |\n", cells.join(" | "));
        let mut md = line(self.headers.clone());
        md += &line(vec!["---".into(); self.headers.len()]);
        for row in &self.rows {
            md += &line(row.iter().map(Cell::render).collect());
        }
        md
    }
}

/// One row of a [`Table`], read by column header.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    table: &'a Table,
    cells: &'a [Cell],
}

impl Row<'_> {
    /// The number under `header`.
    ///
    /// # Panics
    /// On an unknown header or a text cell: a claim reading a column its
    /// row does not produce is a bug in the claim.
    pub fn num(&self, header: &str) -> f64 {
        match self.cells[self.table.col(header)] {
            Cell::Num(v, _) | Cell::Sci(v) => v,
            Cell::Text(ref s) => panic!("{header} holds text {s:?}, not a number"),
        }
    }

    /// The cell under `header` as shown.
    pub fn text(&self, header: &str) -> String {
        self.cells[self.table.col(header)].render()
    }

    /// The first cell as shown: what names the row in a failed claim.
    fn label(&self) -> String {
        self.cells[0].render()
    }
}

/// One experiment of the evaluation.
#[derive(Debug)]
pub struct Figure {
    /// The DESIGN.md §3 id.
    pub id: &'static str,
    /// What the table shows.
    pub title: &'static str,
    /// Computes the table.
    pub run: fn(&Lab) -> Table,
    /// Checks the paper's shape against the table; the error names the
    /// first row that breaks it.
    pub claim: fn(&Table) -> Result<(), String>,
}

/// Every experiment, in DESIGN.md §3 order.
pub static FIGURES: &[Figure] = &[
    Figure {
        id: "FIG3",
        title: "Fig. 3: optimal cost surface and contours, 2D_Q91",
        run: fig3,
        claim: fig3_claim,
    },
    Figure {
        id: "FIG7",
        title: "Fig. 7: SpillBound execution trace, 2D_Q91 at qa ≈ (0.04, 0.1)",
        run: fig7,
        claim: fig7_claim,
    },
    Figure {
        id: "FIG8",
        title: "Fig. 8: MSO guarantees, PlanBouquet vs SpillBound",
        run: fig8,
        claim: fig8_claim,
    },
    Figure {
        id: "FIG9",
        title: "Fig. 9: MSO guarantees vs dimensionality, Q91",
        run: fig9,
        claim: fig9_claim,
    },
    Figure {
        id: "FIG10",
        title: "Fig. 10: empirical MSO, PlanBouquet vs SpillBound",
        run: fig10,
        claim: fig10_claim,
    },
    Figure {
        id: "FIG11",
        title: "Fig. 11: average sub-optimality, PlanBouquet vs SpillBound",
        run: fig11,
        claim: fig11_claim,
    },
    Figure {
        id: "FIG12",
        title: "Fig. 12: sub-optimality distribution over the ESS, 4D_Q91 (% of locations)",
        run: fig12,
        claim: fig12_claim,
    },
    Figure {
        id: "FIG13",
        title: "Fig. 13: empirical MSO, SpillBound vs AlignedBound vs native",
        run: fig13,
        claim: fig13_claim,
    },
    Figure {
        id: "FIG14",
        title: "Fig. 14: penalty-aware selection vs native and SpillBound",
        run: fig14,
        claim: fig14_claim,
    },
    Figure {
        id: "TAB2",
        title: "Table 2: % of contours aligned under penalty caps",
        run: tab2,
        claim: tab2_claim,
    },
    Figure {
        id: "TAB3",
        title: "Table 3: executor-backed drill-down, 4D_Q91 (metered cost)",
        run: tab3,
        claim: tab3_claim,
    },
    Figure {
        id: "TAB4",
        title: "Table 4: maximum AlignedBound partition penalty",
        run: tab4,
        claim: tab4_claim,
    },
    Figure {
        id: "JOB",
        title: "§6.5: JOB Q1a, native vs SpillBound vs AlignedBound",
        run: job_q1a,
        claim: job_claim,
    },
    Figure {
        id: "THM46",
        title: "Theorem 4.6: SpillBound on the Ω(D) adversarial family",
        run: thm46,
        claim: thm46_claim,
    },
    Figure {
        id: "POP",
        title: "§8: POP-style re-optimization vs SpillBound",
        run: pop,
        claim: pop_claim,
    },
    Figure {
        id: "ABL1",
        title: "Ablation: contour cost ratio (SpillBound)",
        run: abl1,
        claim: abl1_claim,
    },
    Figure {
        id: "ABL2",
        title: "Ablation: anorexic reduction threshold λ (PlanBouquet)",
        run: abl2,
        claim: abl2_claim,
    },
    Figure {
        id: "ABL3",
        title: "Ablation: ESS grid resolution, 3D_Q96",
        run: abl3,
        claim: abl3_claim,
    },
];

/// The row with this id.
pub fn find(id: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.id == id)
}

/// The grid resolution rows run at, and the computation they share.
pub struct Lab {
    points: fn(usize) -> usize,
    threads: usize,
    suite: OnceLock<Vec<ComparisonRow>>,
}

impl Lab {
    /// Every query at its default grid: what `rqp figures` runs.
    pub fn full() -> Self {
        Self::new(default_grid_points)
    }

    /// Every query at `points(D)` points per dimension, evaluated with
    /// `RQP_THREADS` workers.
    pub fn new(points: fn(usize) -> usize) -> Self {
        Self {
            points,
            threads: env_threads(),
            suite: OnceLock::new(),
        }
    }

    fn points(&self, d: usize) -> usize {
        (self.points)(d)
    }

    fn experiment(&self, catalog: Catalog, bench: BenchQuery) -> Experiment {
        let points = self.points(bench.query.ndims());
        let bench = bench.with_grid_points(points);
        Experiment::build(catalog, bench, EnumerationMode::LeftDeep)
    }

    /// A suite query (or `2D_Q91`) over the SF100 catalog.
    fn query(&self, name: &str) -> Experiment {
        let catalog = tpcds::catalog_sf100();
        let bench = rqp_workloads::find(&catalog, name).expect("a suite query");
        self.experiment(catalog, bench)
    }

    /// Every strategy over every suite query, computed once per lab.
    fn suite(&self) -> &[ComparisonRow] {
        self.suite.get_or_init(|| {
            let catalog = tpcds::catalog_sf100();
            (paper_suite(&catalog).into_iter())
                .map(|b| self.experiment(catalog.clone(), b))
                .map(|exp| compare_with_threads(&exp, 2.0, 0.2, self.threads))
                .collect()
        })
    }

    /// Each of `strategies` compiled with `params` and swept over `exp`.
    fn sweep(&self, exp: &Experiment, params: &Params, strategies: &[Strategy]) -> Vec<Swept> {
        let opt = exp.optimizer();
        let ctx = EvalContext::with_threads(&exp.surface, &opt, self.threads);
        (strategies.iter())
            .map(|&s| {
                let (stats, compiled) = sweep(s, CostSource::Matrix(&ctx), params, self.threads);
                Swept {
                    mso: stats.mso,
                    aso: stats.aso,
                    rho_red: compiled.bouquet().map(|b| b.rho_red()),
                    guarantee: compiled.mso_guarantee(),
                }
            })
            .collect()
    }
}

/// What [`Lab::sweep`] keeps of one strategy's sweep.
struct Swept {
    mso: f64,
    aso: f64,
    /// PlanBouquet's post-reduction contour density.
    rho_red: Option<usize>,
    guarantee: f64,
}

// ---- claim helpers ------------------------------------------------------

/// `Ok` when `ok` holds on every row of `t`, else an error naming the
/// first row that breaks `what`.
fn every(t: &Table, what: &str, ok: impl Fn(Row) -> bool) -> Result<(), String> {
    match t.rows().find(|r| !ok(*r)) {
        Some(r) => Err(format!("{}: {what}", r.label())),
        None => Ok(()),
    }
}

/// `Ok` when `ok`, else `what` as the error.
fn holds(ok: bool, what: &str) -> Result<(), String> {
    ok.then_some(()).ok_or_else(|| what.to_string())
}

/// `a ≤ b` up to float noise: how every bound is checked.
fn le(a: f64, b: f64) -> bool {
    a <= b * (1.0 + 1e-9)
}

/// `a = b` up to float noise.
fn eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * b.abs().max(1.0)
}

/// `much` is at least ten times `little`: how "≪" is checked.
fn dwarfs(much: f64, little: f64) -> bool {
    much >= 10.0 * little
}

/// `Ok` when `ok` holds between every row of `t` and the row above it,
/// else an error naming the first row that breaks `what`.
fn each_step(t: &Table, what: &str, ok: impl Fn(Row, Row) -> bool) -> Result<(), String> {
    let rows: Vec<Row> = t.rows().collect();
    match rows.windows(2).find(|w| !ok(w[0], w[1])) {
        Some(w) => Err(format!("{}: {what}", w[1].label())),
        None => Ok(()),
    }
}

/// `D²+3D` and `4(1+λ)ρ_red` columns agree with their formulas (λ = 0.2).
fn guarantee_formulas(t: &Table) -> Result<(), String> {
    every(t, "SB MSOg ≠ D²+3D", |r| {
        r.num("SB D²+3D") == spillbound_guarantee(r.num("D") as usize)
    })?;
    every(t, "PB MSOg ≠ 4(1+λ)ρ_red", |r| {
        eq(r.num("PB 4(1+λ)ρ_red"), 4.0 * 1.2 * r.num("ρ_red"))
    })
}

// ---- rows ----------------------------------------------------------------

fn fig3(lab: &Lab) -> Table {
    let exp = lab.query("2D_Q91");
    let s = &exp.surface;
    let contours = ContourSet::build(s, 2.0);
    let monotone = if s.check_monotone().is_ok() {
        "yes"
    } else {
        "no"
    };
    let mut t = Table::new(&[
        "query",
        "locations",
        "POSP plans",
        "C_min",
        "C_max",
        "contours",
        "max plans per contour",
        "OCS monotone",
    ]);
    t.push(vec![
        "2D_Q91".into(),
        s.len().into(),
        s.posp_size().into(),
        Cell::Sci(s.cmin()),
        Cell::Sci(s.cmax()),
        contours.len().into(),
        contours.max_density(s).into(),
        monotone.into(),
    ]);
    t
}

/// A non-trivial plan diagram under a monotone surface, and doubling
/// contours that reach `C_max` from `C_min` in as few steps as can.
fn fig3_claim(t: &Table) -> Result<(), String> {
    every(t, "the optimal cost surface is not monotone", |r| {
        r.text("OCS monotone") == "yes"
    })?;
    every(t, "fewer than two POSP plans", |r| {
        r.num("POSP plans") >= 2.0
    })?;
    every(t, "a contour's plan count is outside [1, POSP]", |r| {
        let rho = r.num("max plans per contour");
        rho >= 1.0 && rho <= r.num("POSP plans")
    })?;
    every(t, "contours do not double from C_min to C_max", |r| {
        let (span, m) = (r.num("C_max") / r.num("C_min"), r.num("contours"));
        le(span, 2f64.powf(m - 1.0)) && (m < 2.0 || 2f64.powf(m - 2.0) < span)
    })
}

fn fig7(lab: &Lab) -> Table {
    let exp = lab.query("2D_Q91");
    let (opt, grid) = (exp.optimizer(), exp.surface.grid());
    let sb =
        Strategy::SpillBound.compile(CostSource::Recost(&exp.surface, &opt), &Params::default());
    let qa = grid.flat(&[grid.dim(0).nearest_idx(0.04), grid.dim(1).nearest_idx(0.1)]);
    let report = (sb.expect("SpillBound compiles"))
        .run(&mut CostOracle::at_grid(&opt, grid, qa))
        .expect("SpillBound completes");
    let optimal = exp.surface.opt_cost(qa);
    let mut t = Table::new(&[
        "step",
        "contour",
        "plan",
        "execution",
        "outcome",
        "q_run e0",
        "q_run e1",
        "cost / optimal",
    ]);
    let (mut qrun, mut spent) = ([0.0f64; 2], 0.0);
    for (k, r) in report.records.iter().enumerate() {
        spent += r.spent;
        let outcome = match (r.mode, r.outcome) {
            (ExecMode::Spill { dim }, Outcome::TimedOut { lower_bound }) => {
                qrun[dim] = qrun[dim].max(lower_bound);
                "timeout"
            }
            (ExecMode::Spill { dim }, Outcome::Completed { sel: Some(s) }) => {
                qrun[dim] = s;
                "learnt"
            }
            (_, Outcome::TimedOut { .. }) => "timeout",
            (_, Outcome::Completed { .. }) => "done",
        };
        t.push(vec![
            (k + 1).into(),
            format!("IC{}", r.contour + 1).into(),
            plan_label(r.plan_id).into(),
            mode_label(r.mode).into(),
            outcome.into(),
            Cell::Sci(qrun[0]),
            Cell::Sci(qrun[1]),
            Cell::Num(spent / optimal, 2),
        ]);
    }
    t
}

fn plan_label(plan_id: Option<usize>) -> String {
    plan_id.map_or("custom".into(), |p| format!("P{p}"))
}

fn mode_label(mode: ExecMode) -> String {
    match mode {
        ExecMode::Spill { dim } => format!("spill(e{dim})"),
        ExecMode::Full => "full".into(),
    }
}

/// Spill executions walk `q_run` outward until one epp is learnt, then a
/// full execution finishes within `D²+3D = 10`.
fn fig7_claim(t: &Table) -> Result<(), String> {
    each_step(t, "q_run moves inward", |above, r| {
        ["q_run e0", "q_run e1"]
            .iter()
            .all(|&q| r.num(q) >= above.num(q))
    })?;
    holds(
        t.rows().any(|r| r.text("outcome") == "learnt"),
        "no epp is learnt",
    )?;
    let last = t.rows().last().ok_or("an empty trace")?;
    holds(
        last.text("execution") == "full" && last.text("outcome") == "done",
        "the run does not end with a completed full execution",
    )?;
    holds(
        t.rows().filter(|r| r.text("outcome") == "done").count() == 1,
        "the run goes on after the query is done",
    )?;
    holds(
        le(last.num("cost / optimal"), spillbound_guarantee(2)),
        "sub-optimality above D²+3D",
    )
}

fn suite_table(lab: &Lab, headers: &[&str], cells: impl Fn(&ComparisonRow) -> Vec<Cell>) -> Table {
    let mut t = Table::new(headers);
    for r in lab.suite() {
        t.push(cells(r));
    }
    t
}

const GUARANTEES: [&str; 5] = ["query", "D", "ρ_red", "PB 4(1+λ)ρ_red", "SB D²+3D"];

fn fig8(lab: &Lab) -> Table {
    suite_table(lab, &GUARANTEES, |r| {
        vec![
            r.name.as_str().into(),
            r.d.into(),
            r.rho_red.into(),
            Cell::Num(r.stats(Strategy::PlanBouquet).0, 1),
            Cell::Num(r.stats(Strategy::SpillBound).0, 0),
        ]
    })
}

/// Both guarantees follow their formulas, and SB's structural bound is
/// the tighter one somewhere in the suite.
fn fig8_claim(t: &Table) -> Result<(), String> {
    guarantee_formulas(t)?;
    holds(
        t.rows()
            .any(|r| r.num("SB D²+3D") < r.num("PB 4(1+λ)ρ_red")),
        "SB's guarantee is nowhere tighter than PB's",
    )
}

fn fig9(lab: &Lab) -> Table {
    let mut t = Table::new(&GUARANTEES);
    for d in 2..=6 {
        let catalog = tpcds::catalog_sf100();
        let exp = lab.experiment(catalog.clone(), q91_with_dims(&catalog, d));
        let opt = exp.optimizer();
        let source = CostSource::Recost(&exp.surface, &opt);
        let pb = Strategy::PlanBouquet.compile(source, &Params::default());
        let pb = pb.expect("PlanBouquet compiles");
        t.push(vec![
            format!("{d}D_Q91").into(),
            d.into(),
            pb.bouquet().expect("a bouquet").rho_red().into(),
            Cell::Num(pb.mso_guarantee(), 1),
            Cell::Num(spillbound_guarantee(d), 0),
        ]);
    }
    t
}

/// PB's guarantee grows with the plan diagram while SB's depends on D
/// alone, so SB's is the tighter one at 6D.
fn fig9_claim(t: &Table) -> Result<(), String> {
    guarantee_formulas(t)?;
    let last = t.rows().last().ok_or("no rows")?;
    holds(
        last.num("SB D²+3D") < last.num("PB 4(1+λ)ρ_red"),
        "SB's guarantee is not the tighter one at the highest D",
    )
}

fn fig10(lab: &Lab) -> Table {
    let headers = ["query", "D", "PB MSOg", "PB MSOe", "SB MSOg", "SB MSOe"];
    suite_table(lab, &headers, |r| {
        let (pb, sb) = (
            r.stats(Strategy::PlanBouquet),
            r.stats(Strategy::SpillBound),
        );
        vec![
            r.name.as_str().into(),
            r.d.into(),
            Cell::Num(pb.0, 1),
            Cell::Num(pb.1, 1),
            Cell::Num(sb.0, 0),
            Cell::Num(sb.1, 1),
        ]
    })
}

/// Both strategies stay within their guarantees, and SB's empirical MSO
/// beats PB's on every query.
fn fig10_claim(t: &Table) -> Result<(), String> {
    every(t, "SB MSOg ≠ D²+3D", |r| {
        r.num("SB MSOg") == spillbound_guarantee(r.num("D") as usize)
    })?;
    every(t, "SB MSOe above D²+3D", |r| {
        le(r.num("SB MSOe"), r.num("SB MSOg"))
    })?;
    every(t, "PB MSOe above 4(1+λ)ρ_red", |r| {
        le(r.num("PB MSOe"), r.num("PB MSOg"))
    })?;
    every(t, "SB MSOe above PB MSOe", |r| {
        le(r.num("SB MSOe"), r.num("PB MSOe"))
    })
}

fn fig11(lab: &Lab) -> Table {
    suite_table(lab, &["query", "D", "PB ASO", "SB ASO", "PB/SB"], |r| {
        let (pb, sb) = (
            r.stats(Strategy::PlanBouquet).2,
            r.stats(Strategy::SpillBound).2,
        );
        vec![
            r.name.as_str().into(),
            r.d.into(),
            Cell::Num(pb, 2),
            Cell::Num(sb, 2),
            Cell::Num(pb / sb, 2),
        ]
    })
}

/// ASO(SB) < ASO(PB) on every query.
fn fig11_claim(t: &Table) -> Result<(), String> {
    every(t, "SB ASO not below PB ASO", |r| {
        r.num("SB ASO") < r.num("PB ASO")
    })
}

fn fig12(lab: &Lab) -> Table {
    const WIDTH: f64 = 5.0;
    let exp = lab.query("4D_Q91");
    let opt = exp.optimizer();
    let ctx = EvalContext::with_threads(&exp.surface, &opt, lab.threads);
    let hist = |s| {
        let (stats, _) = sweep(s, CostSource::Matrix(&ctx), &Params::default(), lab.threads);
        stats.histogram(WIDTH)
    };
    let (pb, sb) = (hist(Strategy::PlanBouquet), hist(Strategy::SpillBound));
    let pct = |h: &[(f64, f64)], b: usize| h.get(b).map_or(0.0, |&(_, p)| p);
    let mut t = Table::new(&["sub-optimality", "PB %", "SB %"]);
    for b in 0..pb.len().max(sb.len()) {
        let lo = b as f64 * WIDTH;
        t.push(vec![
            format!("[{lo}, {})", lo + WIDTH).into(),
            Cell::Num(pct(&pb, b), 1),
            Cell::Num(pct(&sb, b), 1),
        ]);
    }
    t
}

/// SB concentrates more of the space in the first bucket than PB.
fn fig12_claim(t: &Table) -> Result<(), String> {
    for col in ["PB %", "SB %"] {
        let total: f64 = t.rows().map(|r| r.num(col)).sum();
        holds(eq(total, 100.0), &format!("{col} does not sum to 100"))?;
    }
    let first = t.rows().next().ok_or("no buckets")?;
    holds(
        first.num("SB %") > first.num("PB %"),
        "SB's first bucket is not larger than PB's",
    )
}

fn fig13(lab: &Lab) -> Table {
    let headers = [
        "query",
        "D",
        "SB MSOe",
        "AB MSOe",
        "2D+2",
        "D²+3D",
        "native MSOe",
    ];
    suite_table(lab, &headers, |r| {
        let sb = r.stats(Strategy::SpillBound);
        vec![
            r.name.as_str().into(),
            r.d.into(),
            Cell::Num(sb.1, 1),
            Cell::Num(r.stats(Strategy::AlignedBound).1, 1),
            Cell::Num(aligned_guarantee_lower(r.d), 0),
            Cell::Num(sb.0, 0),
            Cell::Num(r.stats(Strategy::Native).1, 1),
        ]
    })
}

/// MSOe(AB) ≤ MSOe(SB) ≪ MSOe(native), AB within its `[2D+2, D²+3D]`
/// guarantee and near its linear end. "≪" is at least tenfold wherever
/// native's worst case breaks `D²+3D`; where the native plan happens to be
/// robust, SB still does no worse.
fn fig13_claim(t: &Table) -> Result<(), String> {
    every(t, "AB MSOe above D²+3D", |r| {
        le(r.num("AB MSOe"), r.num("D²+3D"))
    })?;
    every(t, "guarantee range off its formulas", |r| {
        let d = r.num("D") as usize;
        r.num("2D+2") == aligned_guarantee_lower(d) && r.num("D²+3D") == spillbound_guarantee(d)
    })?;
    every(t, "AB MSOe above SB MSOe", |r| {
        le(r.num("AB MSOe"), r.num("SB MSOe"))
    })?;
    every(t, "AB MSOe above 1.6 × (2D+2)", |r| {
        le(r.num("AB MSOe"), 1.6 * r.num("2D+2"))
    })?;
    every(t, "SB MSOe not below native MSOe", |r| {
        r.num("SB MSOe") < r.num("native MSOe")
    })?;
    every(t, "native MSOe breaks D²+3D but not ≪ SB MSOe", |r| {
        le(r.num("native MSOe"), r.num("D²+3D")) || dwarfs(r.num("native MSOe"), r.num("SB MSOe"))
    })
}

fn fig14(lab: &Lab) -> Table {
    let headers = [
        "query",
        "D",
        "nat MSOe",
        "nat ASO",
        "PA MSOe",
        "PA ASO",
        "SB ASO",
        "PA E[pen]",
        "nat E[pen]",
        "PA CVaR",
    ];
    suite_table(lab, &headers, |r| {
        let (native, pa) = (r.stats(Strategy::Native), r.stats(Strategy::PenaltyAware));
        vec![
            r.name.as_str().into(),
            r.d.into(),
            Cell::Num(native.1, 1),
            Cell::Num(native.2, 2),
            Cell::Num(pa.1, 1),
            Cell::Num(pa.2, 2),
            Cell::Num(r.stats(Strategy::SpillBound).2, 2),
            Cell::Num(r.aso_prior_pa, 3),
            Cell::Num(r.aso_prior_native, 3),
            Cell::Num(r.pa_cvar, 2),
        ]
    })
}

/// The native plan is a candidate, so PA's expected penalty under the
/// prior never exceeds native's; CVaR dominates the expectation.
fn fig14_claim(t: &Table) -> Result<(), String> {
    every(t, "PA E[pen] above native E[pen]", |r| {
        r.num("PA E[pen]") <= r.num("nat E[pen]")
    })?;
    every(t, "PA CVaR below PA E[pen]", |r| {
        le(r.num("PA E[pen]"), r.num("PA CVaR"))
    })
}

const CAPS: [(&str, f64); 4] = [
    ("original", 1.0),
    ("ε=1.2", 1.2),
    ("ε=1.5", 1.5),
    ("ε=2.0", 2.0),
];

fn tab2(lab: &Lab) -> Table {
    let mut headers: Vec<&str> = vec!["query"];
    headers.extend(CAPS.map(|(h, _)| h));
    headers.push("max ε");
    let mut t = Table::new(&headers);
    for name in ["3D_Q96", "4D_Q7", "4D_Q26", "4D_Q91", "5D_Q29", "5D_Q84"] {
        let exp = lab.query(name);
        let report = analyze(
            &exp.surface,
            &exp.optimizer(),
            &ContourSet::build(&exp.surface, 2.0),
        );
        let mut cells = vec![name.into()];
        cells.extend(CAPS.map(|(_, cap)| Cell::Num(report.percent_aligned(cap), 0)));
        cells.push(Cell::Num(report.max_penalty().unwrap_or(f64::INFINITY), 2));
        t.push(cells);
    }
    t
}

/// Alignment grows with the penalty cap and is complete exactly at caps
/// from `max ε` up, and some query needs more than ε = 2 — the case for
/// predicate-set alignment.
fn tab2_claim(t: &Table) -> Result<(), String> {
    every(t, "% aligned shrinks as the cap grows", |r| {
        let pct = CAPS.map(|(h, _)| r.num(h));
        pct.windows(2).all(|w| w[0] <= w[1]) && pct[3] <= 100.0
    })?;
    every(
        t,
        "alignment complete below max ε, or incomplete above it",
        |r| (CAPS.iter()).all(|&(h, cap)| (r.num(h) == 100.0) == le(r.num("max ε"), cap)),
    )?;
    holds(
        t.rows().any(|r| r.num("max ε") > 2.0),
        "every query aligns within ε = 2",
    )
}

/// Always at the default grid, because a coarser one lengthens the real
/// executions instead of shortening them: a learnt selectivity snaps up
/// to a farther grid value, so discovery climbs more contours.
fn tab3(_: &Lab) -> Table {
    let catalog = tpcds::catalog(0.1);
    let bench = q91_with_dims(&catalog, 4);
    let errors = [30.0, 10.0, 50.0, 20.0];
    let spec = executable_genspec_with_errors(&catalog, &bench.query, 20260707, &errors);
    let data = DataSet::generate(&catalog, &spec).expect("the dataset generates");
    let exp = Experiment::build(catalog, bench, EnumerationMode::LeftDeep);
    let (catalog, query) = (&*exp.catalog, &exp.bench.query);
    let store = DataStore::new(catalog, data);
    let qa = measure_qa(&store, query);
    let opt = exp.optimizer();
    let engine = || Engine::new(catalog, query, &store, CostParams::default());
    let mut t = Table::new(&[
        "run",
        "step",
        "contour",
        "execution",
        "outcome",
        "e0 %",
        "e1 %",
        "e2 %",
        "e3 %",
        "cost / optimal",
    ]);
    let mut wall = Vec::new();

    let start = Instant::now();
    let optimal = (engine().run_full(&opt.optimize_at(&qa).0, f64::INFINITY))
        .expect("the optimal plan runs")
        .spent;
    wall.push(("optimal", start.elapsed()));
    let mut row = vec![
        "optimal".into(),
        1.into(),
        "–".into(),
        "full".into(),
        "done".into(),
    ];
    row.extend(qa.iter().map(|s| Cell::Num(100.0 * s, 3)));
    t.push([row, vec![Cell::Num(1.0, 2)]].concat());

    // An unbounded native run is the paper's point, but the table must
    // finish: cap it at 200× the optimal plan's metered cost.
    let est: Vec<f64> = query.epps.iter().map(|&p| opt.base_sels().get(p)).collect();
    let start = Instant::now();
    let native = (engine().run_full(&opt.optimize_at(&est).0, 200.0 * optimal))
        .expect("the native plan runs");
    wall.push(("native", start.elapsed()));
    let outcome = if native.completed { "done" } else { "aborted" };
    let mut row = vec![
        "native".into(),
        1.into(),
        "–".into(),
        "full".into(),
        outcome.into(),
    ];
    row.extend(qa.iter().map(|_| "–".into()));
    t.push([row, vec![Cell::Num(native.spent / optimal, 2)]].concat());

    for s in [Strategy::SpillBound, Strategy::AlignedBound] {
        let compiled = s.compile(CostSource::Recost(&exp.surface, &opt), &Params::default());
        let mut oracle = ExecOracle::new(engine(), &opt, exp.surface.grid());
        let report = (compiled.expect("the strategy compiles").run(&mut oracle))
            .expect("discovery completes");
        wall.push((s.name(), oracle.total_time()));
        drill_down(&mut t, s.name(), &report, optimal);
    }
    let wall: Vec<String> = (wall.iter())
        .map(|(name, d)| format!("{name} {:.3} s", d.as_secs_f64()))
        .collect();
    println!("wall clock: {}", wall.join(", "));
    t
}

/// One row per execution of a real discovery run: the selectivities
/// learnt so far (%) and the metered cost so far against the optimal
/// plan's.
fn drill_down(t: &mut Table, run: &str, report: &RunReport, optimal: f64) {
    let mut learnt: Vec<Cell> = vec!["?".into(); report.learnt.len()];
    let mut spent = 0.0;
    for (k, r) in report.records.iter().enumerate() {
        spent += r.spent;
        let outcome = match (r.mode, r.outcome) {
            (ExecMode::Spill { dim }, Outcome::Completed { sel: Some(s) }) => {
                learnt[dim] = Cell::Num(100.0 * s, 3);
                "learnt"
            }
            (_, Outcome::Completed { .. }) => "done",
            (_, Outcome::TimedOut { .. }) => "timeout",
        };
        let mut row = vec![
            run.into(),
            (k + 1).into(),
            format!("IC{}", r.contour + 1).into(),
            format!("{} {}", mode_label(r.mode), plan_label(r.plan_id)).into(),
            outcome.into(),
        ];
        row.extend(learnt.iter().cloned());
        row.push(Cell::Num(spent / optimal, 2));
        t.push(row);
    }
}

/// SB's and AB's discovery overhead stays bounded: both finish within
/// `D²+3D` of the optimal plan's metered cost, and below native.
fn tab3_claim(t: &Table) -> Result<(), String> {
    let native = (t.rows().find(|r| r.text("run") == "native")).ok_or("no native run")?;
    for s in [Strategy::SpillBound, Strategy::AlignedBound] {
        let last = (t.rows().filter(|r| r.text("run") == s.name()).last())
            .ok_or(format!("no {} run", s.name()))?;
        let ratio = last.num("cost / optimal");
        holds(
            last.text("outcome") == "done",
            &format!("{} does not complete", s.name()),
        )?;
        holds(
            le(ratio, spillbound_guarantee(4)),
            &format!("{} spends more than D²+3D × optimal", s.name()),
        )?;
        holds(
            ratio < native.num("cost / optimal"),
            &format!("{} spends no less than native", s.name()),
        )?;
    }
    Ok(())
}

fn tab4(lab: &Lab) -> Table {
    suite_table(lab, &["query", "D", "max penalty"], |r| {
        vec![
            r.name.as_str().into(),
            r.d.into(),
            Cell::Num(r.ab_max_penalty, 2),
        ]
    })
}

/// Partition penalties stay in the low single digits.
fn tab4_claim(t: &Table) -> Result<(), String> {
    every(t, "max penalty outside [1, 10)", |r| {
        (1.0..10.0).contains(&r.num("max penalty"))
    })
}

fn job_q1a(lab: &Lab) -> Table {
    let catalog = imdb::catalog_full();
    let bench = BenchQuery {
        query: job::q1a(&catalog),
        grid_points: lab.points(2),
        min_sel: 1e-7,
    };
    let d = bench.query.ndims();
    let exp = lab.experiment(catalog, bench);
    let all = [
        Strategy::Native,
        Strategy::SpillBound,
        Strategy::AlignedBound,
    ];
    let stats = lab.sweep(&exp, &Params::default(), &all);
    let worst = native_mso_worst_case(&exp.surface, &exp.optimizer());
    let bound = spillbound_guarantee(d);
    let mut t = Table::new(&["strategy", "MSOe", "MSOg"]);
    for (name, mso, msog) in [
        ("native (fixed qe)", stats[0].mso, f64::INFINITY),
        ("native (worst qe)", worst, f64::INFINITY),
        ("SpillBound", stats[1].mso, bound),
        ("AlignedBound", stats[2].mso, bound),
    ] {
        t.push(vec![name.into(), Cell::Num(mso, 1), Cell::Num(msog, 0)]);
    }
    t
}

/// SB and AB stay within `D²+3D` while native's MSO dwarfs theirs.
fn job_claim(t: &Table) -> Result<(), String> {
    every(t, "MSOe above MSOg", |r| le(r.num("MSOe"), r.num("MSOg")))?;
    let mso = |name: &str| {
        t.rows()
            .find(|r| r.text("strategy") == name)
            .map(|r| r.num("MSOe"))
    };
    let (fixed, worst) = (mso("native (fixed qe)"), mso("native (worst qe)"));
    let (sb, ab) = (mso("SpillBound"), mso("AlignedBound"));
    let (Some(fixed), Some(worst), Some(sb), Some(ab)) = (fixed, worst, sb, ab) else {
        return Err("a strategy is missing".into());
    };
    holds(
        le(fixed, worst),
        "native's fixed estimate beats its worst case",
    )?;
    holds(
        dwarfs(fixed, sb.max(ab)),
        "native's MSOe does not dwarf SB's and AB's",
    )
}

fn thm46(lab: &Lab) -> Table {
    let mut t = Table::new(&["query", "D", "SB MSOe", "D²+3D"]);
    for d in [2, 3] {
        let (catalog, query) = lowerbound::adversarial_query(d);
        let bench = BenchQuery {
            query,
            grid_points: lab.points(d),
            min_sel: 1e-6,
        };
        let name = bench.query.name.clone();
        let exp = lab.experiment(catalog, bench);
        let stats = lab.sweep(&exp, &Params::default(), &[Strategy::SpillBound]);
        t.push(vec![
            name.into(),
            d.into(),
            Cell::Num(stats[0].mso, 2),
            Cell::Num(spillbound_guarantee(d), 0),
        ]);
    }
    t
}

/// No half-space pruning algorithm beats `D`: SpillBound's MSOe sits in
/// `[D, D²+3D]`.
fn thm46_claim(t: &Table) -> Result<(), String> {
    every(t, "SB MSOe below the Ω(D) bound", |r| {
        r.num("SB MSOe") >= r.num("D")
    })?;
    every(t, "SB MSOe above D²+3D", |r| {
        le(r.num("SB MSOe"), r.num("D²+3D"))
    })
}

fn pop(lab: &Lab) -> Table {
    let mut t = Table::new(&[
        "query",
        "D",
        "α",
        "POP MSOe",
        "POP ASO",
        "SB MSOe",
        "SB ASO",
        "SB D²+3D",
    ]);
    for name in ["2D_Q91", "3D_Q96", "4D_Q26"] {
        let exp = lab.query(name);
        let d = exp.bench.query.ndims();
        let stats = lab.sweep(&exp, &Params::default(), &[Strategy::SpillBound]);
        let opt = exp.optimizer();
        for alpha in [2.0, 5.0] {
            let pop = PopReoptimizer::new(&opt, alpha).evaluate(&exp.surface);
            t.push(vec![
                name.into(),
                d.into(),
                Cell::Num(alpha, 0),
                Cell::Num(pop.mso, 1),
                Cell::Num(pop.aso, 2),
                Cell::Num(stats[0].mso, 1),
                Cell::Num(stats[0].aso, 2),
                Cell::Num(spillbound_guarantee(d), 0),
            ]);
        }
    }
    t
}

/// POP has no bound: its worst case exceeds SB's, which never leaves
/// `D²+3D`.
fn pop_claim(t: &Table) -> Result<(), String> {
    every(t, "SB MSOe above D²+3D", |r| {
        le(r.num("SB MSOe"), r.num("SB D²+3D"))
    })?;
    every(t, "POP MSOe not above SB MSOe", |r| {
        r.num("POP MSOe") > r.num("SB MSOe")
    })
}

fn abl1(lab: &Lab) -> Table {
    let mut t = Table::new(&["query", "D", "ratio", "SB guarantee", "SB MSOe"]);
    for name in ["2D_Q91", "3D_Q96"] {
        let exp = lab.query(name);
        let d = exp.bench.query.ndims();
        for ratio in [1.5, 1.8, 2.0, 2.5] {
            let params = Params {
                ratio,
                ..Params::default()
            };
            let stats = lab.sweep(&exp, &params, &[Strategy::SpillBound]);
            t.push(vec![
                name.into(),
                d.into(),
                Cell::Num(ratio, 1),
                Cell::Num(spillbound_guarantee_ratio(d, ratio), 2),
                Cell::Num(stats[0].mso, 2),
            ]);
        }
    }
    t
}

/// SB honours its guarantee at every ratio, and at `D = 2` a ratio of 1.8
/// guarantees less than doubling (the §4.2 remark: 9.9 vs 10).
fn abl1_claim(t: &Table) -> Result<(), String> {
    every(t, "SB MSOe above its guarantee", |r| {
        le(r.num("SB MSOe"), r.num("SB guarantee"))
    })?;
    let at = |ratio: f64| {
        (t.rows())
            .find(|r| r.num("D") == 2.0 && r.num("ratio") == ratio)
            .map(|r| r.num("SB guarantee"))
    };
    holds(
        matches!((at(1.8), at(2.0)), (Some(a), Some(b)) if a < b),
        "at D = 2, ratio 1.8 does not guarantee less than doubling",
    )
}

fn abl2(lab: &Lab) -> Table {
    let mut t = Table::new(&["query", "λ", "ρ_red", "PB 4(1+λ)ρ_red", "PB MSOe"]);
    for name in ["3D_Q96", "4D_Q26"] {
        let exp = lab.query(name);
        for lambda in [0.0, 0.1, 0.2, 0.5] {
            let params = Params {
                lambda,
                ..Params::default()
            };
            let pb = &lab.sweep(&exp, &params, &[Strategy::PlanBouquet])[0];
            t.push(vec![
                name.into(),
                Cell::Num(lambda, 1),
                pb.rho_red.expect("a bouquet").into(),
                Cell::Num(pb.guarantee, 1),
                Cell::Num(pb.mso, 1),
            ]);
        }
    }
    t
}

/// A larger λ never leaves more plans on a contour, and PB honours
/// `4(1+λ)ρ_red` at every λ.
fn abl2_claim(t: &Table) -> Result<(), String> {
    every(t, "PB MSOg ≠ 4(1+λ)ρ_red", |r| {
        eq(
            r.num("PB 4(1+λ)ρ_red"),
            4.0 * (1.0 + r.num("λ")) * r.num("ρ_red"),
        )
    })?;
    every(t, "PB MSOe above 4(1+λ)ρ_red", |r| {
        le(r.num("PB MSOe"), r.num("PB 4(1+λ)ρ_red"))
    })?;
    each_step(t, "ρ_red grows with λ", |above, r| {
        r.text("query") != above.text("query") || r.num("ρ_red") <= above.num("ρ_red")
    })
}

fn abl3(lab: &Lab) -> Table {
    let mut t = Table::new(&[
        "pts/dim",
        "locations",
        "POSP plans",
        "ρ_red",
        "SB MSOe",
        "PB MSOe",
    ]);
    // The default resolution and four around it: 6, 8, 10, 12, 16 at 3D.
    let base = lab.points(3);
    for n in [3, 4, 5, 6, 8].map(|k| base * k / 6) {
        let catalog = tpcds::catalog_sf100();
        let bench = rqp_workloads::find(&catalog, "3D_Q96").expect("a suite query");
        let bench = bench.with_grid_points(n);
        let exp = Experiment::build(catalog, bench, EnumerationMode::LeftDeep);
        let all = [Strategy::SpillBound, Strategy::PlanBouquet];
        let stats = lab.sweep(&exp, &Params::default(), &all);
        t.push(vec![
            n.into(),
            exp.surface.len().into(),
            exp.surface.posp_size().into(),
            stats[1].rho_red.expect("a bouquet").into(),
            Cell::Num(stats[0].mso, 1),
            Cell::Num(stats[1].mso, 1),
        ]);
    }
    t
}

/// The guarantees are grid-independent: SB stays within `D²+3D = 18`
/// and PB within `4(1+λ)ρ_red` at every resolution.
fn abl3_claim(t: &Table) -> Result<(), String> {
    every(t, "SB MSOe above D²+3D", |r| {
        le(r.num("SB MSOe"), spillbound_guarantee(3))
    })?;
    every(t, "PB MSOe above 4(1+λ)ρ_red", |r| {
        le(r.num("PB MSOe"), 4.8 * r.num("ρ_red"))
    })?;
    every(t, "locations ≠ pts/dim³", |r| {
        r.num("locations") == r.num("pts/dim").powi(3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_renders_every_cell_kind() {
        let mut t = Table::new(&["a", "b", "c", "d"]);
        t.push(vec![
            "x".into(),
            3.into(),
            Cell::Num(2.5, 2),
            Cell::Sci(0.04),
        ]);
        t.push(vec![
            "y".into(),
            Cell::Num(f64::INFINITY, 0),
            Cell::Num(1.25e6, 2),
            Cell::Sci(0.0),
        ]);
        let md = "| a | b | c | d |\n| --- | --- | --- | --- |\n\
                  | x | 3 | 2.50 | 4.0e-2 |\n| y | ∞ | 1.2e6 | 0 |\n";
        assert_eq!(t.markdown(), md);
        let row = t.rows().nth(1).unwrap();
        assert_eq!((row.num("c"), row.text("b")), (1.25e6, "∞".into()));
    }
}
