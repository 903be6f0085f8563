//! `rqp-faults` — deterministic seeded fault injection, retry policies
//! and circuit breaking.
//!
//! The paper's robustness story covers *selectivity* errors; a deployed
//! service also has to survive *operational* faults: a spill probe dying
//! mid-budget, a torn artifact write, a wedged connection. This crate is
//! the shared vocabulary for simulating those faults reproducibly:
//!
//! * [`FaultPlan`] — a seeded per-site injection schedule. Every decision
//!   is a pure function of `(seed, site, call-sequence-number)` via
//!   SplitMix64, so a run is fully reproducible from one `u64` seed, and
//!   two runs with the same seed inject the *same* faults at the *same*
//!   calls. Sites can fire probabilistically (`rate`) and/or
//!   deterministically for the first N calls (`fail_first` — the
//!   "persistent fault that later heals" schedule breaker-recovery tests
//!   need).
//! * [`RetryPolicy`] — capped exponential backoff, with an optional
//!   no-sleep mode for simulated (cost-domain) retries where wall-clock
//!   waiting would be meaningless.
//! * [`CircuitBreaker`] — closed → open after K consecutive faults →
//!   half-open probe after a cooldown, the classic graceful-degradation
//!   state machine the server wraps around each served query.
//!
//! The crate is dependency-free and std-only; consumers decide what an
//! "injected fault" means at their layer (an `ExecError::Injected`, an
//! I/O error, a dropped connection).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

// ---- sites ---------------------------------------------------------------

/// Where in the stack a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// `Executor::run_full` aborts after a seeded fraction of budget.
    ExecFull,
    /// `Executor::run_spill` aborts after a seeded fraction of budget.
    ExecSpill,
    /// A spill-mode oracle probe fails transiently.
    OracleSpill,
    /// A full-execution oracle call fails transiently.
    OracleFull,
    /// An artifact load fails with an I/O error.
    StoreLoad,
    /// An artifact save tears mid-write (short write + I/O error).
    StoreSave,
    /// The server drops a connection while reading a request.
    ServerRead,
    /// The server drops a connection before writing a response.
    ServerWrite,
    /// A buffer-pool page write tears mid-flush (short write detected on
    /// verify, rewritten on retry).
    PageTornWrite,
    /// A buffer-pool pin fails before any I/O happens.
    PagePinFailed,
    /// A page read comes back with a checksum mismatch.
    PageChecksum,
}

impl FaultSite {
    /// Every site, in stable order (indexes [`FaultPlan`] internals).
    pub const ALL: [FaultSite; 11] = [
        FaultSite::ExecFull,
        FaultSite::ExecSpill,
        FaultSite::OracleSpill,
        FaultSite::OracleFull,
        FaultSite::StoreLoad,
        FaultSite::StoreSave,
        FaultSite::ServerRead,
        FaultSite::ServerWrite,
        FaultSite::PageTornWrite,
        FaultSite::PagePinFailed,
        FaultSite::PageChecksum,
    ];

    /// Stable human-readable name (used in error messages and counters).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::ExecFull => "exec.run_full",
            FaultSite::ExecSpill => "exec.run_spill",
            FaultSite::OracleSpill => "oracle.spill_execute",
            FaultSite::OracleFull => "oracle.full_execute",
            FaultSite::StoreLoad => "store.load",
            FaultSite::StoreSave => "store.save",
            FaultSite::ServerRead => "server.read",
            FaultSite::ServerWrite => "server.write",
            FaultSite::PageTornWrite => "page.torn_write",
            FaultSite::PagePinFailed => "page.failed_pin",
            FaultSite::PageChecksum => "page.checksum",
        }
    }

    fn idx(self) -> usize {
        Self::ALL
            .iter()
            .position(|&s| s == self)
            .expect("site listed")
    }
}

// ---- deterministic randomness --------------------------------------------

/// SplitMix64 finalizer — the same mixer the penalty prior uses, so the
/// whole workspace shares one notion of seeded determinism.
fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps mixed bits to a uniform `f64` in `[0, 1)`.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

// ---- fault plan ----------------------------------------------------------

/// Per-site schedule: fire deterministically for the first `fail_first`
/// calls, then probabilistically with probability `rate`.
#[derive(Debug, Clone, Copy, Default)]
struct SiteConfig {
    rate: f64,
    fail_first: u64,
}

/// One injected fault: which call it hit and a deterministic auxiliary
/// fraction (used e.g. as "abort after this fraction of budget").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultShot {
    /// 0-based sequence number of the faulted call at its site.
    pub seq: u64,
    /// Deterministic fraction in `[0.05, 0.95)`.
    pub frac: f64,
}

/// A seeded, thread-safe fault-injection schedule.
///
/// `should_inject`/`shot` advance a per-site call counter; the decision
/// for call `n` at site `s` is `splitmix(seed ⊕ salt(s) ⊕ φ·n) < rate`
/// (or unconditional while `n < fail_first`). Sequential callers are
/// therefore perfectly reproducible; concurrent callers still see a
/// well-defined total fault *count* per seed, only the interleaving
/// varies.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    sites: [SiteConfig; 11],
    calls: [AtomicU64; 11],
    injected: [AtomicU64; 11],
    perturb_delta: f64,
}

impl FaultPlan {
    /// A plan that injects nothing (all rates zero) under `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            sites: [SiteConfig::default(); 11],
            calls: std::array::from_fn(|_| AtomicU64::new(0)),
            injected: std::array::from_fn(|_| AtomicU64::new(0)),
            perturb_delta: 0.0,
        }
    }

    /// A plan firing every site with probability `rate`.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        let mut p = Self::new(seed);
        for site in FaultSite::ALL {
            p = p.with_site(site, rate);
        }
        p
    }

    /// Sets one site's probabilistic fire rate (clamped to `[0, 1]`).
    pub fn with_site(mut self, site: FaultSite, rate: f64) -> Self {
        self.sites[site.idx()].rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Makes a site fail its first `n` calls unconditionally — a
    /// persistent fault that heals, for breaker-recovery tests.
    pub fn with_fail_first(mut self, site: FaultSite, n: u64) -> Self {
        self.sites[site.idx()].fail_first = n;
        self
    }

    /// Enables bounded cost perturbation `ε ∈ [1/(1+δ), 1+δ]` on oracle
    /// calls (applied by the core `FaultyOracle`; §7's cost-model-error
    /// regime, inflating guarantees by `(1+δ)²`).
    pub fn with_perturb(mut self, delta: f64) -> Self {
        assert!(delta >= 0.0);
        self.perturb_delta = delta;
        self
    }

    /// The seed this plan replays from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured cost-perturbation bound δ.
    pub fn perturb_delta(&self) -> f64 {
        self.perturb_delta
    }

    /// Deterministic multiplicative cost error for a plan fingerprint:
    /// log-uniform over `[1/(1+δ), 1+δ]`; exactly `1.0` when δ = 0.
    pub fn perturb_eps(&self, fingerprint: u64) -> f64 {
        if self.perturb_delta == 0.0 {
            return 1.0;
        }
        let z = splitmix(self.seed ^ fingerprint.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let l = (1.0 + self.perturb_delta).ln();
        ((2.0 * unit(z) - 1.0) * l).exp()
    }

    /// Registers one call at `site` and decides whether it faults.
    /// Returns the shot details when it does.
    pub fn shot(&self, site: FaultSite) -> Option<FaultShot> {
        let i = site.idx();
        let seq = self.calls[i].fetch_add(1, Ordering::Relaxed);
        let cfg = self.sites[i];
        let bits = splitmix(
            self.seed
                ^ (i as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93)
                ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let hit = seq < cfg.fail_first || (cfg.rate > 0.0 && unit(bits) < cfg.rate);
        if !hit {
            return None;
        }
        self.injected[i].fetch_add(1, Ordering::Relaxed);
        Some(FaultShot {
            seq,
            frac: 0.05 + 0.9 * unit(splitmix(bits ^ 0xA5A5_A5A5_A5A5_A5A5)),
        })
    }

    /// [`shot`](Self::shot) without the details.
    pub fn should_inject(&self, site: FaultSite) -> bool {
        self.shot(site).is_some()
    }

    /// Calls registered at `site` so far.
    pub fn calls(&self, site: FaultSite) -> u64 {
        self.calls[site.idx()].load(Ordering::Relaxed)
    }

    /// Faults injected at `site` so far.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site.idx()].load(Ordering::Relaxed)
    }

    /// Total faults injected across all sites.
    pub fn injected_total(&self) -> u64 {
        self.injected
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Builds a uniform plan from the `RQP_FAULT_SEED` / `RQP_FAULT_RATE`
    /// environment knobs. Returns `None` unless `RQP_FAULT_RATE` parses
    /// to a positive rate; the seed defaults to 42.
    pub fn from_env() -> Option<FaultPlan> {
        let rate: f64 = std::env::var("RQP_FAULT_RATE").ok()?.parse().ok()?;
        if rate <= 0.0 {
            return None;
        }
        let seed = std::env::var("RQP_FAULT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42);
        Some(FaultPlan::uniform(seed, rate))
    }
}

// ---- retry ---------------------------------------------------------------

/// Capped exponential backoff: attempt `n` (0-based) waits
/// `min(base · 2ⁿ, cap)` before retrying.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (first try included). At least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Whether [`pause`](Self::pause) actually sleeps. Simulated
    /// (cost-domain) retries keep the schedule for accounting but skip
    /// the wall-clock wait.
    pub sleep: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            sleep: true,
        }
    }
}

impl RetryPolicy {
    /// A policy that records its backoff schedule but never sleeps.
    pub fn no_sleep(max_attempts: u32) -> Self {
        Self {
            max_attempts,
            sleep: false,
            ..Self::default()
        }
    }

    /// The backoff after failed attempt `attempt` (0-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(2u32.saturating_pow(attempt.min(20)));
        exp.min(self.max_backoff)
    }

    /// Sleeps out the backoff for `attempt` when `sleep` is set.
    pub fn pause(&self, attempt: u32) {
        if self.sleep {
            std::thread::sleep(self.backoff(attempt));
        }
    }
}

// ---- circuit breaker -----------------------------------------------------

/// Breaker tuning.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive faults that trip the breaker open.
    pub threshold: u32,
    /// How long the breaker stays open before allowing one half-open
    /// probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            threshold: 3,
            cooldown: Duration::from_secs(2),
        }
    }
}

/// Breaker state, as reported by `health`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests execute normally.
    Closed,
    /// Requests are served degraded until the cooldown elapses.
    Open,
    /// One probe request is in flight; others stay degraded.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name for wire responses.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// What the breaker tells a caller to do with the current request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attempt {
    /// Run the real algorithm (and report the outcome back).
    Execute,
    /// Serve the degraded fallback without attempting execution.
    Degrade,
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive: u32,
    opened_at: Option<Instant>,
    open_events: u64,
}

/// Point-in-time breaker snapshot for `health` reporting.
#[derive(Debug, Clone, Copy)]
pub struct BreakerSnapshot {
    /// Current state.
    pub state: BreakerState,
    /// Consecutive faults seen since the last success.
    pub consecutive: u32,
    /// Times the breaker has tripped open over its lifetime.
    pub open_events: u64,
}

/// A thread-safe closed / open / half-open circuit breaker.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    inner: Mutex<BreakerInner>,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(cfg: BreakerConfig) -> Self {
        Self {
            cfg,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive: 0,
                opened_at: None,
                open_events: 0,
            }),
        }
    }

    /// Gate for one request: `Execute` while closed (or as the single
    /// half-open probe once the cooldown elapsed), `Degrade` while open.
    pub fn allow_attempt(&self) -> Attempt {
        let mut g = self.inner.lock().expect("breaker lock");
        match g.state {
            BreakerState::Closed => Attempt::Execute,
            BreakerState::HalfOpen => Attempt::Degrade, // a probe is in flight
            BreakerState::Open => {
                let elapsed = g.opened_at.map(|t| t.elapsed()).unwrap_or(Duration::ZERO);
                if elapsed >= self.cfg.cooldown {
                    g.state = BreakerState::HalfOpen;
                    Attempt::Execute
                } else {
                    Attempt::Degrade
                }
            }
        }
    }

    /// Reports a fault-free execution: closes the breaker.
    pub fn record_success(&self) {
        let mut g = self.inner.lock().expect("breaker lock");
        g.state = BreakerState::Closed;
        g.consecutive = 0;
        g.opened_at = None;
    }

    /// Reports an execution fault. Returns `true` when this fault
    /// tripped the breaker open (from closed or a failed half-open
    /// probe).
    pub fn record_failure(&self) -> bool {
        let mut g = self.inner.lock().expect("breaker lock");
        g.consecutive += 1;
        let trip = match g.state {
            BreakerState::Closed => g.consecutive >= self.cfg.threshold,
            BreakerState::HalfOpen => true, // failed probe reopens
            BreakerState::Open => false,
        };
        if trip {
            g.state = BreakerState::Open;
            g.opened_at = Some(Instant::now());
            g.open_events += 1;
        }
        trip
    }

    /// True while the breaker is open or probing half-open.
    pub fn is_open(&self) -> bool {
        let g = self.inner.lock().expect("breaker lock");
        g.state != BreakerState::Closed
    }

    /// Current state / counters.
    pub fn snapshot(&self) -> BreakerSnapshot {
        let g = self.inner.lock().expect("breaker lock");
        BreakerSnapshot {
            state: g.state,
            consecutive: g.consecutive,
            open_events: g.open_events,
        }
    }
}

// ---- crashpoints ---------------------------------------------------------

/// Named process-abort sites for crash-consistency testing.
///
/// Unlike [`FaultPlan`] sites — which surface as typed errors the caller
/// can retry or degrade around — a crashpoint kills the process outright
/// (`std::process::abort`, no destructors, no flushes), simulating
/// `kill -9` at an exact line of code. A harness arms one point by
/// setting [`crash::ENV`] in a *child* process's environment, lets the
/// child die there, then restarts it and asserts recovery restores a
/// consistent state.
pub mod crash {
    use std::sync::OnceLock;

    /// Env var naming the armed crashpoint (e.g. `crash.before_rename`).
    pub const ENV: &str = "RQP_CRASH_POINT";

    /// After an artifact's temp file is written and fsynced, before the
    /// rename into place.
    pub const BEFORE_RENAME: &str = "crash.before_rename";
    /// After the rename, before the parent directory is fsynced.
    pub const AFTER_RENAME: &str = "crash.after_rename";
    /// After a journal intent record is appended and synced, before the
    /// guarded mutation starts.
    pub const AFTER_JOURNAL_APPEND: &str = "crash.after_journal_append";
    /// Between dirty-page writebacks inside a buffer-pool flush barrier.
    pub const MID_PAGE_FLUSH: &str = "crash.mid_page_flush";
    /// Mid-way through writing a spill file's pages.
    pub const MID_SPILL_WRITE: &str = "crash.mid_spill_write";
    /// After a journal commit record is appended, before the barrier
    /// fsyncs it.
    pub const BEFORE_COMMIT_SYNC: &str = "crash.before_commit_sync";

    /// Every named crashpoint, in stable order (the harness iterates
    /// this to build its matrix).
    pub const POINTS: &[&str] = &[
        BEFORE_RENAME,
        AFTER_RENAME,
        AFTER_JOURNAL_APPEND,
        MID_PAGE_FLUSH,
        MID_SPILL_WRITE,
        BEFORE_COMMIT_SYNC,
    ];

    fn armed_point() -> Option<&'static str> {
        static ARMED: OnceLock<Option<String>> = OnceLock::new();
        ARMED
            .get_or_init(|| std::env::var(ENV).ok().filter(|s| !s.is_empty()))
            .as_deref()
            // Normalize to the static name so callers can compare pointers
            // or store it without lifetimes.
            .and_then(|raw| POINTS.iter().copied().find(|p| *p == raw))
    }

    /// True when `point` is the armed crashpoint for this process.
    pub fn armed(point: &str) -> bool {
        armed_point() == Some(point)
    }

    /// Aborts the process if `point` is armed, else returns.
    ///
    /// The marker line on stderr lets the harness distinguish "died at
    /// the intended site" from an unrelated panic or signal. `abort()`
    /// skips destructors deliberately: temp-dir cleanup or buffered
    /// flushes running on the way down would make the simulated crash
    /// gentler than a real one.
    pub fn hit(point: &'static str) {
        if armed(point) {
            eprintln!("crashpoint hit: {point}");
            std::process::abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crashpoint_names_are_stable_and_unarmed_by_default() {
        // The test process never sets RQP_CRASH_POINT, so hit() must be
        // a no-op for every named point.
        for point in crash::POINTS {
            assert!(point.starts_with("crash."), "{point}");
            assert!(!crash::armed(point));
        }
        crash::hit(crash::BEFORE_RENAME); // must not abort
        assert_eq!(
            crash::POINTS.len(),
            crash::POINTS
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len(),
            "crashpoint names must be unique"
        );
    }

    #[test]
    fn shots_are_deterministic_given_seed() {
        let trace = |seed: u64| -> Vec<Option<FaultShot>> {
            let p = FaultPlan::new(seed).with_site(FaultSite::OracleSpill, 0.3);
            (0..200).map(|_| p.shot(FaultSite::OracleSpill)).collect()
        };
        assert_eq!(trace(7), trace(7));
        assert_ne!(trace(7), trace(8), "different seeds, different schedule");
        let hits = trace(7).iter().filter(|s| s.is_some()).count();
        assert!((30..=90).contains(&hits), "rate 0.3 over 200 calls: {hits}");
    }

    #[test]
    fn sites_are_independent_streams() {
        let p = FaultPlan::new(9)
            .with_site(FaultSite::ExecFull, 1.0)
            .with_site(FaultSite::ExecSpill, 0.0);
        assert!(p.should_inject(FaultSite::ExecFull));
        assert!(!p.should_inject(FaultSite::ExecSpill));
        assert_eq!(p.calls(FaultSite::ExecFull), 1);
        assert_eq!(p.calls(FaultSite::ExecSpill), 1);
        assert_eq!(p.injected_total(), 1);
    }

    #[test]
    fn fail_first_heals_after_n_calls() {
        let p = FaultPlan::new(1).with_fail_first(FaultSite::StoreLoad, 3);
        let fired: Vec<bool> = (0..6)
            .map(|_| p.should_inject(FaultSite::StoreLoad))
            .collect();
        assert_eq!(fired, vec![true, true, true, false, false, false]);
    }

    #[test]
    fn shot_fraction_is_bounded() {
        let p = FaultPlan::new(3).with_site(FaultSite::ExecFull, 1.0);
        for _ in 0..100 {
            let s = p.shot(FaultSite::ExecFull).unwrap();
            assert!((0.05..0.95).contains(&s.frac), "frac {}", s.frac);
        }
    }

    #[test]
    fn perturb_eps_bounded_and_unit_at_zero_delta() {
        let p = FaultPlan::new(11).with_perturb(0.3);
        for fp in [1u64, 42, u64::MAX] {
            let e = p.perturb_eps(fp);
            assert!((1.0 / 1.3..=1.3).contains(&e));
        }
        let plain = FaultPlan::new(11);
        assert_eq!(plain.perturb_eps(99), 1.0);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let r = RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(35),
            sleep: false,
        };
        assert_eq!(r.backoff(0), Duration::from_millis(10));
        assert_eq!(r.backoff(1), Duration::from_millis(20));
        assert_eq!(r.backoff(2), Duration::from_millis(35));
        assert_eq!(r.backoff(10), Duration::from_millis(35));
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers_half_open() {
        let b = CircuitBreaker::new(BreakerConfig {
            threshold: 3,
            cooldown: Duration::from_millis(30),
        });
        assert_eq!(b.allow_attempt(), Attempt::Execute);
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert!(b.record_failure(), "third consecutive fault trips");
        assert_eq!(b.allow_attempt(), Attempt::Degrade);
        assert!(b.is_open());

        std::thread::sleep(Duration::from_millis(40));
        // Cooldown elapsed: exactly one half-open probe.
        assert_eq!(b.allow_attempt(), Attempt::Execute);
        assert_eq!(b.allow_attempt(), Attempt::Degrade, "only one probe");
        b.record_success();
        assert_eq!(b.allow_attempt(), Attempt::Execute);
        assert!(!b.is_open());
        assert_eq!(b.snapshot().open_events, 1);
    }

    #[test]
    fn failed_half_open_probe_reopens() {
        let b = CircuitBreaker::new(BreakerConfig {
            threshold: 1,
            cooldown: Duration::from_millis(20),
        });
        assert!(b.record_failure());
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(b.allow_attempt(), Attempt::Execute);
        assert!(b.record_failure(), "failed probe reopens");
        assert_eq!(b.allow_attempt(), Attempt::Degrade);
        assert_eq!(b.snapshot().open_events, 2);
    }

    #[test]
    fn from_env_requires_positive_rate() {
        // Serialize env mutation within this test only.
        std::env::remove_var("RQP_FAULT_RATE");
        assert!(FaultPlan::from_env().is_none());
        std::env::set_var("RQP_FAULT_RATE", "0.25");
        std::env::set_var("RQP_FAULT_SEED", "123");
        let p = FaultPlan::from_env().expect("rate set");
        assert_eq!(p.seed(), 123);
        std::env::remove_var("RQP_FAULT_RATE");
        std::env::remove_var("RQP_FAULT_SEED");
    }
}
