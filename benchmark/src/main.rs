//! Command line of the benchmark; `run.sh` builds and calls it.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]   one run, in a child
//! benchmark suite [--seed N] [--seconds S] [--runs K] [--quick] [--out FILE]
//! benchmark compare A.json B.json
//! ```

use benchmark::harness::Cfg;
use benchmark::suite::{
    failure_line, out_dir, suite, supervise, RunArgs, SuiteArgs, DEFAULT_SECONDS, DEFAULT_SEED,
};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]\n\
         \x20      benchmark suite [--seed <n>] [--seconds <s>] [--runs <k>] [--quick] [--out <file>]\n\
         \x20      benchmark compare <A.json> <B.json>\n\
         workloads: {}",
        benchmark::spec::WORKLOADS.join(", ")
    );
    ExitCode::from(2)
}

/// Value of `--name`, parsed; `None` when absent, `Err` when malformed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or(format!("{name} needs a value")),
    }
}

fn run_args(args: &[String]) -> Result<RunArgs, String> {
    let workload: String = flag(args, "--workload")?.ok_or("--workload is required")?;
    if !benchmark::spec::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("{workload} is not a workload"));
    }
    let trace = match flag::<u8>(args, "--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    let seconds = flag(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    Ok(RunArgs {
        workload,
        seed: flag(args, "--seed")?.unwrap_or(DEFAULT_SEED),
        seconds,
        trace,
        quick: args.iter().any(|a| a == "--quick"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fail = |e: String| {
        eprintln!("{e}");
        usage()
    };
    match args.first().map(String::as_str) {
        // The child of `supervise`: runs the workload in this process.
        Some("exec") => {
            let (run, tmp) = match (run_args(&args), flag::<PathBuf>(&args, "--tmp")) {
                (Ok(run), Ok(Some(tmp))) => (run, tmp),
                (Err(e), _) | (_, Err(e)) => return fail(e),
                (_, Ok(None)) => return fail("exec needs --tmp".into()),
            };
            let cfg = Cfg {
                workload: run.workload,
                seed: run.seed,
                seconds: run.seconds,
                trace: run.trace,
                quick: run.quick,
                tmp,
                out: out_dir(),
            };
            match benchmark::run_workload(&cfg) {
                Some(true) => ExitCode::SUCCESS,
                Some(false) => ExitCode::FAILURE,
                None => usage(),
            }
        }
        Some("suite") => {
            let parsed = (|| {
                Ok(SuiteArgs {
                    seed: flag(&args, "--seed")?.unwrap_or(DEFAULT_SEED),
                    seconds: flag(&args, "--seconds")?.unwrap_or(DEFAULT_SECONDS),
                    quick: args.iter().any(|a| a == "--quick"),
                    runs: flag(&args, "--runs")?.unwrap_or(3),
                    out: flag(&args, "--out")?.unwrap_or_else(|| out_dir().join("result.json")),
                })
            })();
            match parsed {
                Ok(suite_args) if suite(&suite_args) => ExitCode::SUCCESS,
                Ok(_) => ExitCode::FAILURE,
                Err(e) => fail(e),
            }
        }
        Some("compare") => {
            let load = |path: Option<&String>| {
                let path = path.ok_or("compare needs two result files")?;
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                serde_json::from_str::<serde::Value>(&text).map_err(|e| format!("{path}: {e}"))
            };
            match (load(args.get(1)), load(args.get(2))) {
                (Ok(a), Ok(b)) if benchmark::compare::compare(&a, &b) => ExitCode::SUCCESS,
                (Ok(_), Ok(_)) => ExitCode::FAILURE,
                (Err(e), _) | (_, Err(e)) => fail(e),
            }
        }
        // One supervised run: what `BENCHMARK.json`'s command asks for.
        Some(_) => match run_args(&args) {
            Ok(run) => match supervise(&run) {
                Ok(output) => {
                    print!("{output}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{e}");
                    println!("{}", failure_line());
                    ExitCode::FAILURE
                }
            },
            Err(e) => fail(e),
        },
        None => usage(),
    }
}
