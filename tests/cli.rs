//! The `rqp` binary refuses malformed input loudly: a bad flag value or
//! selectivity, or a flag the command does not read, exits non-zero and
//! names it, instead of falling back to a default or dropping it. And
//! `rqp run` / `rqp run-sql`, the one run path, print every strategy's
//! run as its event timeline and total.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Every subcommand, as the usage text names it.
const SUBCOMMANDS: &[&str] = &[
    "list",
    "explore",
    "run",
    "run-sql",
    "compare",
    "figures",
    "compile",
    "serve",
    "bench-serve",
    "client",
    "crash-victim",
    "trace",
];

/// The one-epp query `run-sql` is driven with.
const SQL: &str = "SELECT COUNT(*) FROM catalog_returns cr, date_dim d \
                   WHERE cr.cr_returned_date_sk = d.d_date_sk -- epp";

fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("rqp-cli-{name}-{}", std::process::id()))
}

fn rqp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rqp"))
        .args(args)
        .env_remove("RQP_THREADS")
        .output()
        .expect("spawn rqp")
}

fn assert_refused(out: &Output, bad: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "exited {} on a malformed value; stderr:\n{stderr}",
        out.status
    );
    assert!(
        stderr.contains(&format!("{bad:?}")),
        "stderr does not name the bad value {bad:?}:\n{stderr}"
    );
}

#[test]
fn a_malformed_thread_count_is_refused() {
    let dir = scratch("threads");
    let out = rqp(&[
        "compile",
        "2D_Q91",
        "--threads",
        "x",
        "--dir",
        dir.to_str().unwrap(),
    ]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_refused(&out, "x");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threads"));
}

#[test]
fn a_malformed_selectivity_is_refused_before_connecting() {
    // Port 1 refuses connections: the value must be rejected first.
    let out = rqp(&[
        "client",
        "127.0.0.1:1",
        "run_spillbound",
        "2D_Q91",
        "0.01",
        "zero",
    ]);
    assert_refused(&out, "zero");
}

#[test]
fn compile_refuses_a_flag_it_does_not_read() {
    let dir = scratch("flags");
    let out = rqp(&[
        "compile",
        "2D_Q91",
        "--lazy",
        "--dir",
        dir.to_str().unwrap(),
    ]);
    let compiled = dir.exists();
    let _ = std::fs::remove_dir_all(&dir);
    assert_refused(&out, "--lazy");
    assert!(!compiled, "compiled before refusing the flag");
}

/// Every subcommand refuses a flag it does not read, before it does any
/// work: exit 1 with the flag named. The serving ones must refuse before
/// they bind, so they run under a timeout that kills a process that
/// started serving.
#[test]
fn every_subcommand_refuses_a_flag_it_does_not_read() {
    let (jsonl, victim) = (scratch("refused.jsonl"), scratch("refused-victim"));
    let (jsonl, victim) = (jsonl.to_str().unwrap(), victim.to_str().unwrap());
    let commands: &[&[&str]] = &[
        &["list"],
        &["explore", "2D_Q91"],
        &["run", "2D_Q91", "sb"],
        &["run", "2D_Q91", "sb", "--jsonl", jsonl],
        &["run", "2D_Q91", "sb", "--paged"],
        &["run-sql", SQL, "sb"],
        &["compare", "2D_Q91"],
        &["figures", "FIG9"],
        &["compile", "2D_Q91"],
        &["client", "127.0.0.1:1", "stats"],
        &["crash-victim", "--dir", victim],
        &["trace", "--check", jsonl],
        &["serve", "--addr", "127.0.0.1:0"],
        &["bench-serve", "--queries", "2D_Q91"],
    ];
    for command in commands {
        let mut child = Command::new(env!("CARGO_BIN_EXE_rqp"))
            .args(command.iter().chain(&["--bogus"]))
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn rqp");
        let deadline = Instant::now() + Duration::from_secs(20);
        while child.try_wait().expect("poll rqp").is_none() {
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("{command:?} --bogus still running after 20 s");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().expect("rqp output");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command:?} --bogus: {stderr}");
        assert!(stderr.contains("\"--bogus\""), "{command:?}: {stderr}");
        assert!(!stderr.contains("(expected: )"), "{command:?}: {stderr}");
    }
    assert!(
        !std::path::Path::new(jsonl).exists(),
        "a refused run traced"
    );
    assert!(
        !std::path::Path::new(victim).exists(),
        "a refused victim ran"
    );
}

/// With no subcommand, or one that is not on the table, `rqp` exits 1
/// and its usage text names every subcommand.
#[test]
fn usage_names_every_subcommand() {
    for args in [&[][..], &["frobnicate"][..]] {
        let out = rqp(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        for name in SUBCOMMANDS {
            assert!(
                stderr.contains(&format!("\n  rqp {name}")),
                "{args:?}: usage does not name {name}:\n{stderr}"
            );
        }
    }
}

/// `sub-optimality S (MSO bound B)` of a run's closing line, as `(S, B)`;
/// `B` is infinite for a strategy without a guarantee.
fn sub_optimality_and_bound(stdout: &str) -> (f64, f64) {
    let line = (stdout.lines())
        .find(|l| l.starts_with("total "))
        .unwrap_or_else(|| panic!("no closing line:\n{stdout}"));
    let number = |after: &str| -> Option<f64> {
        let rest = &line[line.find(after)? + after.len()..];
        let end = rest.find([' ', ')']).unwrap_or(rest.len());
        Some(rest[..end].parse().expect("a number"))
    };
    let sub = number("sub-optimality ").expect("a sub-optimality");
    (sub, number("MSO bound ").unwrap_or(f64::INFINITY))
}

/// Every strategy runs through `rqp run` and prints its timeline and
/// total; the discovery strategies stay inside their MSO bound, and
/// PenaltyAware prints its selection and the risks it weighed.
#[test]
fn every_strategy_runs_and_prints_its_timeline() {
    for s in ["native", "pb", "sb", "ab", "pa"] {
        let out = rqp(&["run", "2D_Q91", s]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{s}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("run finished"), "{s}:\n{stdout}");
        assert!(stdout.contains("sub-optimality"), "{s}:\n{stdout}");
        let (sub, bound) = sub_optimality_and_bound(&stdout);
        if ["sb", "ab", "pb"].contains(&s) {
            assert!(stdout.contains("IC1"), "{s}:\n{stdout}");
            assert!(bound.is_finite() && sub <= bound, "{s}: {sub} > {bound}");
        }
        if s == "pa" {
            for text in [
                "penalty-aware: chose plan",
                "expected sub-optimality",
                "risk plan#",
            ] {
                assert!(stdout.contains(text), "pa: no {text:?}:\n{stdout}");
            }
        }
    }
}

/// `--jsonl` mirrors the event stream to a file `rqp trace --check`
/// accepts, and `--flame` writes folded stacks.
#[test]
fn a_traced_run_writes_a_valid_jsonl_stream_and_folded_stacks() {
    let (jsonl, flame) = (scratch("trace.jsonl"), scratch("flame.folded"));
    let (jsonl, flame) = (jsonl.to_str().unwrap(), flame.to_str().unwrap());
    let out = rqp(&["run", "2D_Q91", "sb", "--jsonl", jsonl, "--flame", flame]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("IC1") && stdout.contains("run finished"),
        "{stdout}"
    );
    let folded = std::fs::read_to_string(flame).unwrap_or_default();
    let check = rqp(&["trace", "--check", jsonl]);
    let _ = (std::fs::remove_file(jsonl), std::fs::remove_file(flame));
    assert!(!folded.is_empty(), "--flame wrote no stacks");
    let checked = String::from_utf8_lossy(&check.stdout);
    assert!(
        check.status.success(),
        "{}",
        String::from_utf8_lossy(&check.stderr)
    );
    assert!(checked.contains("trace OK"), "{checked}");
}

/// `run-sql` goes through the same run as `run`.
#[test]
fn run_sql_runs_a_strategy_over_parsed_sql() {
    let out = rqp(&["run-sql", SQL, "sb"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("run finished"), "{stdout}");
}

/// `trace` has no run form: `trace <query> <algo>` is refused like any
/// argument the subcommand does not read.
#[test]
fn trace_no_longer_runs_a_query() {
    let out = rqp(&["trace", "2D_Q91", "sb"]);
    assert_eq!(out.status.code(), Some(1));
    assert_refused(&out, "2D_Q91");
}

/// A positional argument past what the subcommand reads is refused too.
#[test]
fn an_extra_positional_argument_is_refused() {
    let out = rqp(&["explore", "2D_Q91", "extra"]);
    assert_eq!(out.status.code(), Some(1));
    assert_refused(&out, "extra");
}
