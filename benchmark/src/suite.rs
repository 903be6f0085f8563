//! Running workloads as child processes, and the whole suite into one
//! result file.
//!
//! Every run is a fresh child of this executable, so `peak_rss_mb` is the
//! workload's own and a panic or a hang costs one workload, not the
//! report. The child gets a scratch directory under the build directory
//! (also its `TMPDIR`, which is where the paged store puts its heap
//! files); the parent removes it whatever happens.

use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::median;
use serde::Value;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Seed of a suite run that is not given one.
pub const DEFAULT_SEED: u64 = 20160516;
/// Seconds each run measures for; `BENCHMARK.json` says the same.
pub const DEFAULT_SECONDS: f64 = 12.0;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// `benchmark/out`, where result and trace files go.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `<build directory>/benchmark-tmp`, next to the `release` directory
/// this executable runs from.
fn tmp_root() -> PathBuf {
    let exe = std::env::current_exe().expect("path of this executable");
    let build = exe
        .parent()
        .and_then(Path::parent)
        .unwrap_or(Path::new("."));
    build.join("benchmark-tmp")
}

/// Three times what the run is sized at (set-ups, rounds, check phase),
/// kept under the three minutes a run may take at all.
fn time_limit(seconds: f64) -> Duration {
    Duration::from_secs_f64((3.0 * (seconds + 20.0)).min(170.0))
}

/// Runs one workload in a child process and returns everything it
/// printed; the last line is its result. An error says why there is no
/// result: the child panicked, was killed at the time limit, or reported
/// a failed check.
pub fn supervise(args: &RunArgs) -> Result<String, String> {
    let tmp = tmp_root().join(format!(
        "{}-{}-{}",
        std::process::id(),
        args.workload,
        args.trace as u8
    ));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    cmd.arg("exec")
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--tmp")
        .arg(&tmp)
        .env("TMPDIR", &tmp)
        // One malloc arena. glibc otherwise gives every thread its own,
        // and peak RSS then depends on which thread happened to allocate
        // what: 12-22 % between identical serving runs, against 1-5 %
        // with one arena. No workload is slower for it.
        .env("MALLOC_ARENA_MAX", "1")
        .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    let result = (|| {
        let mut child = cmd.spawn().map_err(|e| e.to_string())?;
        let mut stdout = child.stdout.take().expect("piped stdout");
        let reader = std::thread::spawn(move || {
            let mut text = String::new();
            let _ = stdout.read_to_string(&mut text);
            text
        });
        let started = Instant::now();
        let limit = time_limit(args.seconds);
        let status = loop {
            match child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break Ok(status),
                None if started.elapsed() > limit => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break Err(format!("killed after {limit:?}"));
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        };
        let text = reader.join().map_err(|_| "stdout reader panicked")?;
        match status? {
            s if s.success() => Ok(text),
            s => Err(format!("{s}\n{text}")),
        }
    })();
    let _ = std::fs::remove_dir_all(&tmp);
    result.map_err(|e| format!("{}: {e}", args.workload))
}

/// The result line of a run that produced none of its own.
pub fn failure_line() -> String {
    crate::harness::result_line(false, 1, 1, &Default::default(), &[])
}

/// The parsed last line of a child's output.
fn parse_result(output: &str) -> Result<Value, String> {
    let line = output.lines().rev().find(|l| !l.trim().is_empty());
    serde_json::from_str(line.ok_or("no output")?).map_err(|e| e.to_string())
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn num(v: f64) -> Value {
    Value::Num(v)
}

fn text(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount `path` lives on.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or(path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, dir, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(dir).then(|| (dir.len(), fs.to_string()))
        })
        .max()
        .map_or("unknown".into(), |(_, fs)| fs)
}

/// Where and on what the numbers were taken.
fn machine(threads: usize) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".into(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tmp = tmp_root();
    let _ = std::fs::create_dir_all(&tmp);
    Value::Object(vec![
        ("nproc".into(), num(nproc as f64)),
        ("cpu".into(), text(cpu)),
        ("kernel".into(), text(kernel)),
        ("rustc".into(), text(command_line("rustc", &["--version"]))),
        ("compile_threads".into(), num(threads as f64)),
        ("store_filesystem".into(), text(filesystem_of(&tmp))),
        (
            "note".into(),
            text(
                "fsync and file reads are served by the sandbox's page cache, so storage \
                 latencies are the sandbox's, not a device's",
            ),
        ),
    ])
}

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    /// Untraced runs per workload; a result file with several carries its
    /// own run-to-run spread.
    pub runs: usize,
    pub out: PathBuf,
}

/// Runs every workload with tracing off, then the traced pass, prints
/// every metric by name and writes the result file. Returns whether every
/// run was correct.
pub fn suite(args: &SuiteArgs) -> bool {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for name in WORKLOADS {
        let mut run = |trace: bool| {
            let run = RunArgs {
                workload: name.into(),
                seed: args.seed,
                seconds: args.seconds,
                trace,
                quick: args.quick,
            };
            let result = supervise(&run).and_then(|out| parse_result(&out));
            let result = result.unwrap_or_else(|e| {
                eprintln!("{e}");
                parse_result(&failure_line()).expect("the failure line parses")
            });
            all_correct &= matches!(result.get("correct"), Some(Value::Bool(true)));
            result
        };
        let plain: Vec<Value> = (0..args.runs.max(1)).map(|_| run(false)).collect();
        let traced = run(true);
        let count = |key: &str| -> f64 {
            plain
                .iter()
                .chain([&traced])
                .filter_map(|r| r.get(key)?.as_f64())
                .sum()
        };

        println!("== {name}");
        let end_to_end = END_TO_END
            .iter()
            .filter_map(|m| {
                let mut runs: Vec<f64> = plain.iter().filter_map(|r| metric(r, m.name)).collect();
                if runs.is_empty() {
                    return None;
                }
                let listed = runs.iter().copied().map(num).collect();
                let mid = median(&mut runs);
                println!("{:<32} {mid:>16.6} {}", m.name, m.unit);
                let entry = Value::Object(vec![
                    ("value".into(), num(mid)),
                    ("unit".into(), text(m.unit)),
                    ("runs".into(), Value::Array(listed)),
                ]);
                Some((m.name.to_string(), entry))
            })
            .collect();
        let per_layer = PER_LAYER
            .iter()
            .filter_map(|(layer, unit)| {
                let v = metric(&traced, layer)?;
                println!("{layer:<32} {v:>16.6} {unit}");
                let entry =
                    Value::Object(vec![("value".into(), num(v)), ("unit".into(), text(*unit))]);
                Some((layer.to_string(), entry))
            })
            .collect();
        workloads.push((
            name.to_string(),
            Value::Object(vec![
                ("attempted".into(), num(count("attempted"))),
                ("failed".into(), num(count("failed"))),
                ("end_to_end".into(), Value::Object(end_to_end)),
                ("per_layer".into(), Value::Object(per_layer)),
            ]),
        ));
    }

    let file = Value::Object(vec![
        ("schema".into(), num(1.0)),
        (
            "commit".into(),
            text(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed".into(), num(args.seed as f64)),
        ("seconds".into(), num(args.seconds)),
        ("runs".into(), num(args.runs.max(1) as f64)),
        // A quick run's timings are not comparable with anything.
        ("comparable".into(), Value::Bool(!args.quick)),
        ("machine".into(), machine(crate::harness::compile_threads())),
        ("workloads".into(), Value::Object(workloads)),
    ]);
    let written = args
        .out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| {
            let body = serde_json::to_string_pretty(&file).expect("result serializes");
            std::fs::write(&args.out, body + "\n")
        });
    match written {
        Ok(()) => println!("wrote {}", args.out.display()),
        Err(e) => {
            eprintln!("{}: {e}", args.out.display());
            all_correct = false;
        }
    }
    all_correct
}
