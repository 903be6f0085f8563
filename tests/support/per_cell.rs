//! The per-cell reference for the compile sweeps: one `optimize_at` per
//! grid cell and one `cost_plan` per (plan, cell), with nothing carried
//! from one cell to the next.

use rqp::common::MultiGrid;
use rqp::ess::EssSurface;
use rqp::optimizer::{CostMatrix, Optimizer, PlanPool};

/// Builds the surface and the matrix with each of `threads` workers and
/// compares them with the reference: every cost bit, every plan id, the
/// pool in order, and every matrix cell.
pub fn check_sweeps(
    opt: &Optimizer<'_>,
    grid: &MultiGrid,
    threads: &[usize],
) -> Result<(), String> {
    let mut pool = PlanPool::new();
    let (mut costs, mut ids) = (Vec::new(), Vec::new());
    for qa in grid.iter() {
        let (plan, cost) = opt.optimize_at(&grid.sels(qa));
        costs.push(cost.to_bits());
        ids.push(pool.intern(plan));
    }
    let rows: Vec<Vec<u64>> = (pool.iter())
        .map(|(_, plan)| {
            (grid.iter())
                .map(|qa| opt.cost_plan(plan, &opt.sels_at(&grid.sels(qa))).to_bits())
                .collect()
        })
        .collect();
    for &t in threads {
        let surface = EssSurface::build_parallel(opt, grid.clone(), t);
        if surface.posp_size() != pool.len() {
            let n = surface.posp_size();
            return Err(format!("{t} threads: {n} plans, reference {}", pool.len()));
        }
        if let Some((pid, _)) = pool
            .iter()
            .find(|&(pid, plan)| surface.pool().get(pid) != plan)
        {
            return Err(format!("{t} threads: pool plan {pid} differs"));
        }
        if let Some(qa) = grid.iter().find(|&qa| {
            surface.opt_cost(qa).to_bits() != costs[qa] || surface.plan_id(qa) != ids[qa]
        }) {
            return Err(format!("{t} threads: surface cell {qa} differs"));
        }
        let matrix = CostMatrix::build_parallel(opt, surface.pool(), grid, t);
        for (pid, row) in rows.iter().enumerate() {
            if let Some(qa) = grid
                .iter()
                .find(|&qa| matrix.cost(pid, qa).to_bits() != row[qa])
            {
                return Err(format!("{t} threads: matrix cell ({pid}, {qa}) differs"));
            }
        }
    }
    Ok(())
}
