//! The `rqp` binary refuses malformed input loudly: a bad flag value or
//! selectivity, or a flag the command does not read, exits non-zero and
//! names it, instead of falling back to a default or dropping it.

use std::process::{Command, Output};

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
