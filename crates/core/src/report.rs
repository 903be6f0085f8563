//! Discovery run reports and traces.

use rqp_common::{Cost, Selectivity};
use serde::{Deserialize, Serialize};

/// How a plan was executed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ExecMode {
    /// Spill-mode on the given ESS dimension (§3.1.2) — output discarded,
    /// budget devoted to learning that epp's selectivity.
    Spill {
        /// Spilled dimension.
        dim: usize,
    },
    /// Regular execution producing query results if it completes.
    Full,
}

/// Outcome of one budgeted execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Outcome {
    /// The (sub)plan finished within budget. For spill-mode this means the
    /// epp's exact selectivity was learnt; for full mode, the query is done.
    Completed {
        /// Learnt selectivity (spill-mode only; `None` for full mode).
        sel: Option<Selectivity>,
    },
    /// Budget exhausted; for spill-mode we learnt `qa.dim > lower_bound`.
    TimedOut {
        /// Half-space pruning frontier for the spilled dimension (0 when no
        /// information was gained).
        lower_bound: Selectivity,
    },
}

/// One budgeted execution in a discovery sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionRecord {
    /// Contour index (0-based) this execution belongs to.
    pub contour: usize,
    /// Stable plan fingerprint (for matching across runs).
    pub plan_fingerprint: u64,
    /// Pool plan id, when the executed plan is a POSP plan.
    pub plan_id: Option<usize>,
    /// Execution mode.
    pub mode: ExecMode,
    /// Assigned cost budget.
    pub budget: Cost,
    /// Cost actually spent (= budget on timeout; ≤ budget on completion).
    pub spent: Cost,
    /// What happened.
    pub outcome: Outcome,
}

/// The full trace of one discovery run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Executions in order.
    pub records: Vec<ExecutionRecord>,
    /// Total cost spent (the numerator of Eq. 3).
    pub total_cost: Cost,
    /// Whether the query produced its result (always true on success).
    pub completed: bool,
    /// Final learnt selectivities per dimension (`None` = learnt only as a
    /// lower bound when the run completed through the 1D phase).
    pub learnt: Vec<Option<Selectivity>>,
}

impl RunReport {
    /// Number of plan executions (partial + final).
    pub fn executions(&self) -> usize {
        self.records.len()
    }

    /// The sub-optimality of this run w.r.t. an oracle that knows `qa`
    /// (Eq. 3): `total_cost / opt_cost`.
    pub fn sub_optimality(&self, opt_cost: Cost) -> f64 {
        assert!(opt_cost > 0.0);
        self.total_cost / opt_cost
    }

    /// Contour index of the last execution (how deep discovery went).
    pub fn last_contour(&self) -> Option<usize> {
        self.records.last().map(|r| r.contour)
    }

    /// Records belonging to contour `i`.
    pub fn contour_records(&self, i: usize) -> impl Iterator<Item = &ExecutionRecord> {
        self.records.iter().filter(move |r| r.contour == i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accessors() {
        let rep = RunReport {
            records: vec![
                ExecutionRecord {
                    contour: 0,
                    plan_fingerprint: 1,
                    plan_id: Some(0),
                    mode: ExecMode::Spill { dim: 0 },
                    budget: 10.0,
                    spent: 10.0,
                    outcome: Outcome::TimedOut { lower_bound: 0.1 },
                },
                ExecutionRecord {
                    contour: 1,
                    plan_fingerprint: 2,
                    plan_id: None,
                    mode: ExecMode::Full,
                    budget: 20.0,
                    spent: 15.0,
                    outcome: Outcome::Completed { sel: None },
                },
            ],
            total_cost: 25.0,
            completed: true,
            learnt: vec![None],
        };
        assert_eq!(rep.executions(), 2);
        assert_eq!(rep.last_contour(), Some(1));
        assert_eq!(rep.contour_records(0).count(), 1);
        assert!((rep.sub_optimality(5.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn subopt_rejects_zero_opt_cost() {
        RunReport::default().sub_optimality(0.0);
    }
}

/// Renders a 2D discovery run as an ASCII Manhattan profile (the paper's
/// Fig. 7): the running location `q_run` climbing the grid as spill-mode
/// executions prune half-spaces and learn selectivities. Only meaningful
/// for `D = 2` runs; returns `None` otherwise.
pub fn render_trace_2d(report: &RunReport, grid: &rqp_common::MultiGrid) -> Option<String> {
    use std::fmt::Write as _;
    if grid.ndims() != 2 || report.learnt.len() != 2 {
        return None;
    }
    let (nx, ny) = (grid.dim(0).len(), grid.dim(1).len());
    // Follow q_run through the records.
    let mut path = vec![(0usize, 0usize)];
    let (mut cx, mut cy) = (0usize, 0usize);
    for r in &report.records {
        if let ExecMode::Spill { dim } = r.mode {
            let coord = match r.outcome {
                Outcome::TimedOut { lower_bound } if lower_bound > 0.0 => {
                    grid.dim(dim).floor_idx(lower_bound)
                }
                Outcome::Completed { sel: Some(s) } => Some(grid.dim(dim).ceil_idx(s)),
                _ => None,
            };
            if let Some(c) = coord {
                if dim == 0 {
                    cx = cx.max(c);
                } else {
                    cy = cy.max(c);
                }
                path.push((cx, cy));
            }
        }
    }
    let mut cells = vec![vec![' '; nx]; ny];
    // draw Manhattan segments between consecutive path points
    for w in path.windows(2) {
        let ((x0, y0), (x1, y1)) = (w[0], w[1]);
        for cell in &mut cells[y0][x0.min(x1)..=x0.max(x1)] {
            *cell = '-';
        }
        for row in &mut cells[y0.min(y1)..=y0.max(y1)] {
            row[x1] = '|';
        }
    }
    for &(x, y) in &path {
        cells[y][x] = '+';
    }
    if let Some(&(x, y)) = path.last() {
        cells[y][x] = '◉';
    }
    let mut out = String::new();
    let _ = writeln!(out, "q_run Manhattan profile (x = dim 0 →, y = dim 1 ↑):");
    for y in (0..ny).rev() {
        let row: String = cells[y].iter().collect();
        let _ = writeln!(out, "  |{row}|");
    }
    let _ = writeln!(out, "  +{}+", "-".repeat(nx));
    Some(out)
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use rqp_common::MultiGrid;

    #[test]
    fn renders_manhattan_profile() {
        let grid = MultiGrid::uniform(2, 1e-4, 8);
        let rec = |dim: usize, outcome: Outcome| ExecutionRecord {
            contour: 0,
            plan_fingerprint: 0,
            plan_id: None,
            mode: ExecMode::Spill { dim },
            budget: 1.0,
            spent: 1.0,
            outcome,
        };
        let report = RunReport {
            records: vec![
                rec(
                    0,
                    Outcome::TimedOut {
                        lower_bound: grid.dim(0).sel(3),
                    },
                ),
                rec(
                    1,
                    Outcome::TimedOut {
                        lower_bound: grid.dim(1).sel(2),
                    },
                ),
                rec(
                    0,
                    Outcome::Completed {
                        sel: Some(grid.dim(0).sel(5)),
                    },
                ),
            ],
            total_cost: 3.0,
            completed: true,
            learnt: vec![Some(grid.dim(0).sel(5)), None],
        };
        let art = render_trace_2d(&report, &grid).expect("2D render");
        assert!(art.contains('◉'), "terminal marker present");
        assert!(art.contains('+'), "waypoints present");
        assert_eq!(art.lines().count(), 10, "8 rows + header + axis");
    }

    #[test]
    fn refuses_non_2d() {
        let grid = MultiGrid::uniform(3, 1e-4, 4);
        let report = RunReport {
            learnt: vec![None; 3],
            ..RunReport::default()
        };
        assert!(render_trace_2d(&report, &grid).is_none());
    }
}
