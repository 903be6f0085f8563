//! Crash-recovery integration harness.
//!
//! Spawns the `rqp` binary's deterministic crash-victim workload as a
//! child process, kills it mid-mutation — both at every named crashpoint
//! (armed via `RQP_CRASH_POINT`, which aborts the process with no
//! destructors) and with a raw SIGKILL at a seeded random delay — then
//! restarts it with `--recover` and asserts the three durability
//! invariants:
//!
//! 1. **No torn state**: after recovery the store directory holds no
//!    stray `*.tmp` files and every surviving `.rqpa` artifact parses.
//! 2. **Bit-identical reports**: the recovered run's `report` lines
//!    (raw `f64` bit patterns for SB/AB total cost and sub-optimality,
//!    plus the artifact fingerprint) equal an uninterrupted reference
//!    run's, byte for byte.
//! 3. **MSO bound holds**: the reported sub-optimality bits decode to a
//!    value within the D²+3D guarantee.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn rqp_bin() -> &'static str {
    env!("CARGO_BIN_EXE_rqp")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rqp-crash-harness-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn victim(dir: &Path, recover: bool, crash: Option<&str>) -> Output {
    let mut cmd = Command::new(rqp_bin());
    cmd.arg("crash-victim").arg("--dir").arg(dir);
    if recover {
        cmd.arg("--recover");
    }
    cmd.env_remove("RQP_CRASH_POINT");
    if let Some(point) = crash {
        cmd.env("RQP_CRASH_POINT", point);
    }
    cmd.output().expect("spawn crash victim")
}

fn report_lines(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.starts_with("report "))
        .map(str::to_string)
        .collect()
}

/// Invariant 1: nothing torn survives recovery — no `*.tmp` remnants,
/// and every artifact still in the store root parses and validates.
fn assert_clean_dir(dir: &Path, label: &str) {
    for entry in std::fs::read_dir(dir).unwrap().flatten() {
        let path = entry.path();
        if !path.is_file() {
            continue;
        }
        match path.extension().and_then(|e| e.to_str()) {
            Some("tmp") => panic!("{label}: stray temp file survived recovery: {path:?}"),
            Some("rqpa") => {
                rqp::artifacts::CompiledArtifact::load(&path)
                    .unwrap_or_else(|e| panic!("{label}: torn artifact {path:?}: {e}"));
            }
            _ => {}
        }
    }
}

/// Invariant 3: decode the `sub_bits=` fields and check the D²+3D bound
/// (the victim runs 2D_Q91, so the bound is 10).
fn assert_mso_bound(lines: &[String], label: &str) {
    let bound = 10.0;
    let mut checked = 0;
    for line in lines {
        let Some(bits) = line.split("sub_bits=").nth(1) else {
            continue;
        };
        let sub = f64::from_bits(u64::from_str_radix(bits.trim(), 16).unwrap());
        assert!(
            sub <= bound * (1.0 + 1e-9),
            "{label}: sub-optimality {sub} exceeds the MSO bound {bound}: {line}"
        );
        checked += 1;
    }
    assert_eq!(checked, 2, "{label}: expected SB and AB report lines");
}

fn reference_report(tag: &str) -> Vec<String> {
    let dir = scratch(tag);
    let out = victim(&dir, false, None);
    assert!(
        out.status.success(),
        "reference run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines = report_lines(&out);
    assert!(!lines.is_empty(), "reference run produced no report lines");
    assert_mso_bound(&lines, "reference");
    let _ = std::fs::remove_dir_all(&dir);
    lines
}

/// Recover in `dir`, rerun, and assert all three invariants against the
/// reference report.
fn recover_and_assert(dir: &Path, want: &[String], label: &str) {
    let out = victim(dir, true, None);
    assert!(
        out.status.success(),
        "{label}: recovery rerun failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("recovery:"),
        "{label}: --recover printed no recovery summary:\n{stdout}"
    );
    let got = report_lines(&out);
    assert_eq!(
        got, want,
        "{label}: recovered report diverged from the uninterrupted reference"
    );
    assert_mso_bound(&got, label);
    assert_clean_dir(dir, label);
}

#[test]
fn every_named_crashpoint_recovers_to_the_reference_report() {
    let want = reference_report("points-ref");
    for point in rqp::faults::crash::POINTS {
        let dir = scratch(&point.replace('.', "-"));
        let armed = victim(&dir, false, Some(point));
        assert!(
            !armed.status.success(),
            "crashpoint {point} never fired: the armed victim exited cleanly"
        );
        assert!(
            String::from_utf8_lossy(&armed.stderr).contains(&format!("crashpoint hit: {point}")),
            "crashpoint {point}: armed victim died for an unrelated reason:\n{}",
            String::from_utf8_lossy(&armed.stderr)
        );
        recover_and_assert(&dir, &want, &format!("crashpoint {point}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn seeded_sigkill_rounds_recover_to_the_reference_report() {
    let want = reference_report("sigkill-ref");
    // SplitMix64 over a fixed seed: the kill delays are reproducible.
    let mut state = 0x00C0_FFEE_u64;
    let mut next = move || -> u64 {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for round in 0..5u32 {
        let delay_ms = 1 + next() % 30;
        let dir = scratch(&format!("sigkill-{round}"));
        let mut child = Command::new(rqp_bin())
            .arg("crash-victim")
            .arg("--dir")
            .arg(&dir)
            .env_remove("RQP_CRASH_POINT")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn victim");
        std::thread::sleep(std::time::Duration::from_millis(delay_ms));
        // SIGKILL on unix: no destructors, no flushes.
        let _ = child.kill();
        let _ = child.wait();
        recover_and_assert(
            &dir,
            &want,
            &format!("sigkill round {round} ({delay_ms}ms)"),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
