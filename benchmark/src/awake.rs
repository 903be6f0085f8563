//! Keeps the sandbox's virtual CPUs out of the hypervisor's idle state
//! while a serving workload runs.
//!
//! A vCPU of this VM that has gone idle takes about a millisecond to run
//! again. At depth 1 the daemon's worker, its poller and the client all
//! sleep and wake once per request, so on a quiet machine one request in
//! ten pays that millisecond on a 30 µs round trip: the mean, and with it
//! `ops_per_s`, then measures the hypervisor. One spinning thread per CPU
//! under `SCHED_IDLE` runs only when the CPU has nothing else to do and
//! is preempted the moment anything else wakes, which is the user-space
//! form of turning deep idle states off for a latency benchmark.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

const SCHED_IDLE: i32 = 5;

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts one idle-priority spinner per available CPU.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let spinners = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: a plain Linux system call on the calling
                    // thread (pid 0) with a pointer to a live, correctly
                    // laid out `sched_param`; it reads the struct and
                    // keeps nothing.
                    let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
                    if rc != 0 {
                        // At normal priority the spinner would take a CPU
                        // from the program; better the hypervisor's noise.
                        eprintln!("keep-awake: SCHED_IDLE refused, not spinning");
                        return;
                    }
                    // The flag publishes nothing else, so `Relaxed`.
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Self { stop, spinners }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            let _ = spinner.join();
        }
    }
}
