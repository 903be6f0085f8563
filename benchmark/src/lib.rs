//! The rqp stack benchmark: five named workloads over the compile, serve
//! and execute paths, end-to-end metrics with regression bounds, and
//! per-layer metrics from a traced run. `README.md` beside this crate
//! says what each workload is for and how to read the numbers.
//!
//! Every layer is measured from outside: the harness times calls into
//! the crates' public functions and reads counters the program already
//! exposes. Nothing here is linked into `rqp` itself.

pub mod awake;
pub mod compare;
pub mod gen;
pub mod harness;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod workloads;

use harness::{drive, Cfg};
use workloads::compile_cold::CompileCold;
use workloads::discover_paged::DiscoverPaged;
use workloads::serve::{Churn, Discovery, Light, Serve};

/// Runs the workload `cfg` names in this process. `None` for a name that
/// is not a workload; otherwise whether every op and check succeeded.
pub fn run_workload(cfg: &Cfg) -> Option<bool> {
    Some(match cfg.workload.as_str() {
        "compile-cold" => drive::<CompileCold>(cfg),
        "serve-light" => drive::<Serve<Light>>(cfg),
        "serve-discovery" => drive::<Serve<Discovery>>(cfg),
        "serve-churn" => drive::<Serve<Churn>>(cfg),
        "discover-paged" => drive::<DiscoverPaged>(cfg),
        _ => return None,
    })
}
