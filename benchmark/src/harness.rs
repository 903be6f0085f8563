//! What every workload shares: the run configuration, the recorder that
//! ops, spans and layer samples go into, the set-up / warm-up / timed
//! rounds / check-phase driver, and the result line.

use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{mean, median, percentile_of, Span};
use serde::Value;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median. The last one is kept and
/// measured on.
const SETUPS: usize = 3;
/// Spans written to the trace file; a `serve-light` run records several
/// hundred thousand, and the first ones are as good as the rest.
const MAX_TRACE_LINES: usize = 50_000;

pub struct Cfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One timed round (two when tracing) and one set-up: a smoke run
    /// whose timings are not comparable but whose counts repeat exactly.
    pub quick: bool,
    /// Scratch directory of this run; the supervisor removes it.
    pub tmp: PathBuf,
    /// Where the trace file goes.
    pub out: PathBuf,
}

/// Worker threads handed to the program's parallel builds:
/// `min(2, nproc)`.
pub fn compile_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// One workload: what it builds before the clock starts, one round of
/// ops, and the untimed check phase. Dropping it releases everything it
/// started (daemon threads, scratch stores).
pub trait Workload: Sized {
    /// Everything before the first op except the warm-up round, which
    /// the driver runs (inside the set-up clock) through [`round`].
    ///
    /// [`round`]: Workload::round
    fn setup(cfg: &Cfg, rec: &mut Recorder, dir: &Path) -> Self;

    /// One round: every op class in its fixed share, so that any whole
    /// number of rounds has the same mix. With `traced`, the ops go
    /// through the span-recording path.
    fn round(&mut self, rec: &mut Recorder, traced: bool);

    /// Output checks that need the whole run, the sub-optimality check
    /// phase, layer probes and counters.
    fn finish(self, cfg: &Cfg, rec: &mut Recorder);
}

#[derive(Default)]
pub struct Recorder {
    epoch: Option<Instant>,
    pub spans: Vec<Span>,
    plain_ns: Vec<f64>,
    traced_ns: Vec<f64>,
    /// Ops per second of every finished round, plain and traced.
    plain_rates: Vec<f64>,
    traced_rates: Vec<f64>,
    /// Ops of `plain_ns` and `traced_ns` already counted into a rate.
    rated: (usize, usize),
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the log.
    pub failures: Vec<String>,
    subopt: Vec<(f64, f64)>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    layers: BTreeMap<&'static str, f64>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Some(Instant::now()),
            ..Self::default()
        }
    }

    /// Records one op: its latency if it succeeded, its failure if not.
    pub fn op(&mut self, traced: bool, ns: u64, outcome: Result<(), String>) {
        self.attempted += 1;
        match outcome {
            Ok(()) if traced => self.traced_ns.push(ns as f64),
            Ok(()) => self.plain_ns.push(ns as f64),
            Err(msg) => self.fail_msg(msg),
        }
    }

    /// Records a failed check that is not a timed op.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail_msg(msg());
        }
    }

    fn fail_msg(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    /// One discovery run's sub-optimality and the guarantee it ran under;
    /// a broken guarantee is a failure.
    pub fn subopt(&mut self, sub: f64, guarantee: f64) {
        self.check(sub <= guarantee * (1.0 + 1e-9), || {
            format!("sub-optimality {sub} broke its guarantee {guarantee}")
        });
        self.subopt.push((sub, guarantee));
    }

    pub fn sample(&mut self, key: &'static str, v: f64) {
        self.samples.entry(key).or_default().push(v);
    }

    pub fn samples(&mut self, key: &str) -> &mut [f64] {
        self.samples.get_mut(key).map_or(&mut [], |v| &mut v[..])
    }

    /// Sets a per-layer metric. The name must be one `spec::PER_LAYER`
    /// lists.
    pub fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.layers.insert(name, v);
    }

    pub fn set_mean(&mut self, name: &'static str, key: &str) {
        let v = mean(self.samples(key));
        self.set(name, v);
    }

    pub fn set_pct(&mut self, name: &'static str, key: &str, p: f64) {
        let v = percentile_of(self.samples(key), p);
        self.set(name, v);
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.map_or(0, |e| e.elapsed().as_nanos() as u64)
    }

    /// Opens a span now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, op: u32) -> u32 {
        let now = self.now_ns();
        self.push_span(name, now, 0, parent, op)
    }

    pub fn close(&mut self, id: u32) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.dur_ns()
    }

    /// Runs `f` inside a span and returns its result and duration in ns.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, parent, op);
        let out = f();
        (out, self.close(id))
    }

    pub fn push_span(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        op: u32,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    /// Number of the next op, shared by its spans.
    pub fn next_op(&self) -> u32 {
        self.attempted as u32
    }

    /// Correct ops that went through the traced path.
    pub fn traced_ops(&self) -> usize {
        self.traced_ns.len()
    }

    /// Closes a round: its correct ops per second of op time go into the
    /// list the run's rate is the median of. The loops are closed and
    /// have no think time, so op time is the timed wall time.
    fn end_round(&mut self) {
        let rate = |ns: &[f64]| ns.len() as f64 / (ns.iter().sum::<f64>() / 1e9);
        if self.plain_ns.len() > self.rated.0 {
            self.plain_rates.push(rate(&self.plain_ns[self.rated.0..]));
        }
        if self.traced_ns.len() > self.rated.1 {
            self.traced_rates
                .push(rate(&self.traced_ns[self.rated.1..]));
        }
        self.rated = (self.plain_ns.len(), self.traced_ns.len());
    }

    fn end_to_end(&mut self, setup_s: f64) -> BTreeMap<&'static str, f64> {
        // The median over rounds: one round that a noisy neighbour sat on
        // does not move it, as it would a mean over the run.
        let ops_per_s = median(&mut self.plain_rates);
        let p50 = percentile_of(&mut self.plain_ns, 0.5) / 1e6;
        let p90 = percentile_of(&mut self.plain_ns, 0.9) / 1e6;
        let ratios: Vec<f64> = self.subopt.iter().map(|(s, g)| s / g).collect();
        let subs: Vec<f64> = self.subopt.iter().map(|(s, _)| *s).collect();
        BTreeMap::from([
            ("setup_s", setup_s),
            ("ops_per_s", ops_per_s),
            ("op_ms_p50", p50),
            ("op_ms_p90", p90),
            ("peak_rss_mb", peak_rss_mib()),
            ("subopt_max", ratios.iter().copied().fold(0.0, f64::max)),
            ("subopt_mean", mean(&subs)),
        ])
    }

    fn per_layer(&mut self) -> BTreeMap<&'static str, f64> {
        let (plain, traced) = (
            median(&mut self.plain_rates),
            median(&mut self.traced_rates),
        );
        if plain > 0.0 {
            self.set("harness.trace_overhead_frac", 1.0 - traced / plain);
        }
        self.set("harness.samples", self.plain_ns.len() as f64);
        self.set("harness.traced_samples", self.traced_ns.len() as f64);
        self.set("harness.spans", self.spans.len() as f64);
        PER_LAYER
            .iter()
            .map(|(name, _)| (*name, self.layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs workload `W` under `cfg` and prints its result line. Returns
/// whether every op and check succeeded.
pub fn drive<W: Workload>(cfg: &Cfg) -> bool {
    let mut rec = Recorder::new();
    let setups = if cfg.quick { 1 } else { SETUPS };
    let mut setup_times = Vec::new();
    let mut kept = None;
    for i in 0..setups {
        // The previous set-up goes first: two daemons or two pools at
        // once would count against `peak_rss_mb`.
        drop(kept.take());
        let dir = cfg.tmp.join(format!("setup-{i}"));
        std::fs::create_dir_all(&dir).expect("create set-up directory");
        let t = Instant::now();
        let mut w = W::setup(cfg, &mut rec, &dir);
        let mut warmup = Recorder::new();
        w.round(&mut warmup, false);
        setup_times.push(t.elapsed().as_secs_f64());
        rec.attempted += warmup.attempted;
        rec.failed += warmup.failed;
        rec.failures.extend(warmup.failures);
        kept = Some(w);
    }
    let mut w = kept.expect("at least one set-up");
    let setup_s = median(&mut setup_times);

    let t0 = Instant::now();
    let mut rounds = 0usize;
    loop {
        // A traced run alternates plain and traced rounds, so that the
        // two rates it compares saw the same machine.
        w.round(&mut rec, cfg.trace && rounds % 2 == 1);
        rec.end_round();
        rounds += 1;
        let paired = !cfg.trace || rounds.is_multiple_of(2);
        if paired && (cfg.quick || t0.elapsed().as_secs_f64() >= cfg.seconds) {
            break;
        }
    }
    w.finish(cfg, &mut rec);

    for msg in &rec.failures {
        eprintln!("FAILED: {msg}");
    }
    if cfg.trace {
        write_trace(cfg, &rec.spans);
    }
    let (metrics, units): (BTreeMap<_, _>, Vec<(&str, &str)>) = if cfg.trace {
        (rec.per_layer(), PER_LAYER.to_vec())
    } else {
        (
            rec.end_to_end(setup_s),
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
        )
    };
    let correct = rec.failed == 0;
    println!(
        "# {} seed={} seconds={} trace={} quick={} rounds={rounds}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace as u8, cfg.quick
    );
    for (name, unit) in &units {
        println!("{name:<32} {:>16.6} {unit}", metrics[name]);
    }
    println!(
        "{}",
        result_line(correct, rec.attempted, rec.failed, &metrics, &units)
    );
    correct
}

/// The last line of a run: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &BTreeMap<&'static str, f64>,
    units: &[(&str, &str)],
) -> String {
    let metrics = units
        .iter()
        .map(|(name, unit)| {
            let entry = Value::Object(vec![
                ("value".into(), Value::Num(metrics[name])),
                ("unit".into(), Value::String(unit.to_string())),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(attempted as f64)),
        ("failed".into(), Value::Num(failed as f64)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("result serializes")
}

fn write_trace(cfg: &Cfg, spans: &[Span]) {
    let path = cfg.out.join(format!("trace-{}.jsonl", cfg.workload));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&cfg.out)?;
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for (id, s) in spans.iter().enumerate().take(MAX_TRACE_LINES) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        f.flush()
    };
    if let Err(e) = write() {
        eprintln!("trace file {}: {e}", path.display());
    }
}
