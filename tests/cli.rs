//! The `rqp` binary refuses malformed input loudly: a bad flag value or
//! selectivity, or a flag the command does not read, exits non-zero and
//! names it, instead of falling back to a default or dropping it.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

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
    let dir = std::env::temp_dir().join(format!("rqp-cli-threads-{}", std::process::id()));
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
    let dir = std::env::temp_dir().join(format!("rqp-cli-flags-{}", std::process::id()));
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
    let sql = "SELECT COUNT(*) FROM catalog_returns cr, date_dim d \
               WHERE cr.cr_returned_date_sk = d.d_date_sk -- epp";
    let commands: &[&[&str]] = &[
        &["list"],
        &["explore", "2D_Q91"],
        &["run", "2D_Q91", "sb"],
        &["run", "2D_Q91", "sb", "--paged"],
        &["run-sql", sql],
        &["compare", "2D_Q91"],
        &["figures", "FIG9"],
        &["compile", "2D_Q91"],
        &["client", "127.0.0.1:1", "stats"],
        &["trace", "2D_Q91", "sb"],
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
    }
}

/// A positional argument past what the subcommand reads is refused too.
#[test]
fn an_extra_positional_argument_is_refused() {
    let out = rqp(&["explore", "2D_Q91", "extra"]);
    assert_eq!(out.status.code(), Some(1));
    assert_refused(&out, "extra");
}
