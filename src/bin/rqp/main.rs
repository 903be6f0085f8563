//! `rqp` — the command line of the robust query processing library.
//!
//! Every subcommand is one row of [`COMMANDS`]: its name, synopsis,
//! positional count, flags and handler. Dispatch, the refusal of an
//! argument a subcommand does not read, and the usage text all read that
//! table; `rqp` with no arguments prints it.
//!
//! `<algo>` is a strategy of the table ([`Strategy`]) by short or wire
//! name — `native`, `pb` (PlanBouquet), `sb` (SpillBound), `ab`
//! (AlignedBound), `pa` (penalty-aware single-plan selection over a
//! selectivity prior) — or, for `run`, `pop` (re-optimization baseline).
//! `qa` is one selectivity per error-prone predicate (defaults to the
//! middle of the space).
//!
//! A malformed flag or selectivity, or an argument the subcommand does
//! not read, ends the process with exit code 1, naming what was wrong;
//! nothing falls back to a default silently.

mod compile;
mod crash_victim;
mod explore;
mod run;
mod serve;
mod trace;

use rqp::catalog::Catalog;
use rqp::core::Strategy;
use rqp::figures::FIGURES;
use rqp::workloads::BenchQuery;
use std::fmt::Display;
use std::ops::RangeInclusive;
use std::process::ExitCode;
use std::str::FromStr;

/// One subcommand: the only place it is declared.
struct Command {
    name: &'static str,
    /// Its positional arguments, as the usage text shows them.
    synopsis: &'static str,
    /// What it does, in one line.
    about: &'static str,
    /// How many positional arguments it reads.
    positionals: RangeInclusive<usize>,
    /// Its flags that take a value, each with the value's name.
    valued: &'static [(&'static str, &'static str)],
    /// Its flags that take no value.
    switches: &'static [&'static str],
    /// Runs it on the arguments after its name.
    run: fn(&[String]) -> ExitCode,
}

const ANY: usize = usize::MAX;

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "list", synopsis: "", about: "list the benchmark queries",
        positionals: 0..=0, valued: &[], switches: &[], run: explore::list },
    Command { name: "explore", synopsis: "<query>",
        about: "relations, SQL, POSP plans, iso-cost contours with alignment, ρ_red and the guarantees",
        positionals: 1..=1, valued: &[], switches: &[], run: explore::explore },
    Command { name: "run", synopsis: "<query> <algo> [qa...]",
        about: "one strategy's run at a true location, as an event timeline; --paged executes it \
                over the slotted-page store at the measured qa (env RQP_TRACE=jsonl:FILE, \
                RQP_PAGE_SIZE, RQP_POOL_FRAMES)",
        positionals: 2..=ANY, valued: &[("--jsonl", "FILE"), ("--flame", "FILE"), ("--pool-frames", "N")],
        switches: &["--paged"], run: run::run },
    Command { name: "run-sql", synopsis: "<sql> <algo> [qa...]",
        about: "`rqp run` over ad-hoc SQL; mark error-prone predicates with `-- epp` comments",
        positionals: 2..=ANY, valued: &[], switches: &[], run: run::run_sql },
    Command { name: "compare", synopsis: "<query>", about: "MSOg / MSOe / ASO of every strategy",
        positionals: 1..=1, valued: &[], switches: &[], run: explore::compare },
    Command { name: "figures", synopsis: "[id]",
        about: "the paper's evaluation: each table of EXPERIMENTS.md, checked against its claim",
        positionals: 0..=1, valued: &[], switches: &[], run: explore::figures },
    Command { name: "compile", synopsis: "<query>", about: "compile and persist the query's artifact",
        positionals: 1..=1, valued: &[("--dir", "DIR"), ("--threads", "N")], switches: &["--force"],
        run: compile::compile },
    Command { name: "serve", synopsis: "",
        about: "serve every artifact in --dir over TCP, --queries pinned, the rest through an LRU \
                cache; --recover replays the journal, quarantines corrupt artifacts and pre-warms \
                the cache (env RQP_FAULT_RATE, RQP_FAULT_SEED)",
        positionals: 0..=0,
        valued: &[("--addr", "HOST:PORT"), ("--dir", "DIR"), ("--queries", "Q1,Q2"), ("--workers", "N"),
                  ("--queue", "N"), ("--threads", "N"), ("--shards", "N"), ("--max-conns", "N"),
                  ("--cache-mb", "MB"), ("--tenant-quota", "N")],
        switches: &["--recover"], run: serve::serve },
    Command { name: "bench-serve", synopsis: "",
        about: "closed-loop throughput and latency over precompiled explains",
        positionals: 0..=0,
        valued: &[("--queries", "Q1,Q2"), ("--clients", "N"), ("--secs", "S"), ("--pipeline", "D"),
                  ("--dir", "DIR"), ("--workers", "N"), ("--shards", "N"), ("--queue", "N"),
                  ("--threads", "N"), ("--min-rps", "R")],
        switches: &[], run: serve::bench_serve },
    Command { name: "client", synopsis: "<addr> <method> [query] [qa...]",
        about: "issue one request to a server", positionals: 2..=ANY,
        valued: &[("--deadline-ms", "N")], switches: &[], run: serve::client },
    Command { name: "crash-victim", synopsis: "",
        about: "the crash-recovery harness's child workload", positionals: 0..=0,
        valued: &[("--dir", "DIR")], switches: &["--recover"], run: crash_victim::crash_victim },
    Command { name: "trace", synopsis: "",
        about: "validate a JSONL trace file against the event schema", positionals: 0..=0,
        valued: &[("--check", "FILE")], switches: &[], run: trace::check },
];

impl Command {
    /// `rqp <name> <positionals> [<flag> <value>]... [<switch>]...`.
    fn synopsis(&self) -> String {
        let mut line = vec![format!("rqp {}", self.name), self.synopsis.to_string()];
        line.extend((self.valued.iter()).map(|(flag, value)| format!("[{flag} {value}]")));
        line.extend(self.switches.iter().map(|switch| format!("[{switch}]")));
        line.retain(|part| !part.is_empty());
        line.join(" ")
    }
}

/// The usage text, generated from [`COMMANDS`]; exits 1.
fn usage() -> ExitCode {
    let mut text = String::from("usage:");
    for c in COMMANDS {
        text += &format!("\n  {}\n        {}", c.synopsis(), c.about);
    }
    let algos = Strategy::ALL.map(Strategy::short).join(" | ");
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    eprintln!(
        "{text}\n<algo>: {algos} (run also: pop)\n[id]: {}",
        ids.join(" ")
    );
    ExitCode::FAILURE
}

/// Exits 1 naming the first of `args` (the arguments after `cmd`'s name)
/// that `cmd` does not read: a `--flag` that is neither one of its valued
/// flags (each followed by its value) nor one of its switches, or a
/// positional argument past its count. Exits 1 with `cmd`'s synopsis when
/// a positional argument it needs is missing.
fn expect_args(cmd: &Command, args: &[String]) {
    let valued = |a: &str| cmd.valued.iter().any(|(f, _)| *f == a);
    let (mut rest, mut seen) = (args.iter(), 0);
    while let Some(arg) = rest.next() {
        if valued(arg) {
            rest.next();
        } else if !arg.starts_with("--") {
            seen += 1;
            if seen > *cmd.positionals.end() {
                fail(&format!("unexpected argument {arg:?}"));
            }
        } else if !cmd.switches.contains(&arg.as_str()) {
            let flags = (cmd.valued.iter().map(|(f, _)| *f)).chain(cmd.switches.iter().copied());
            let flags: Vec<&str> = flags.collect();
            let expected = match flags.is_empty() {
                true => format!("{} takes no flags", cmd.name),
                false => format!("expected: {}", flags.join(", ")),
            };
            fail(&format!("unknown argument {arg:?} ({expected})"));
        }
    }
    if seen < *cmd.positionals.start() {
        fail(&format!("missing arguments: {}", cmd.synopsis()));
    }
}

/// The positional arguments of `args`, already checked by
/// [`expect_args`]: every argument that is neither a flag nor the value
/// after a valued flag.
fn positionals(args: &[String]) -> Vec<&str> {
    let is_switch = |a: &str| COMMANDS.iter().any(|c| c.switches.contains(&a));
    let (mut rest, mut found) = (args.iter(), Vec::new());
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            found.push(arg.as_str());
        } else if !is_switch(arg) {
            rest.next();
        }
    }
    found
}

/// Whether the flag `name` (a switch, or a valued flag) is among `args`.
fn switch(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Value of `--flag V` in `args`, if present; a flag with nothing after
/// it exits 1.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    let value = args.get(i + 1).cloned();
    value.or_else(|| fail(&format!("{flag} expects a value")))
}

/// `--flag V` parsed as a `T`, if present; a malformed `V` exits 1.
fn flag<T: FromStr>(args: &[String], flag: &str) -> Option<T>
where
    T::Err: Display,
{
    flag_value(args, flag).map(|v| parse_arg(flag, &v))
}

/// `value` parsed as a `T`, or exit 1 naming `what` and the value.
fn parse_arg<T: FromStr>(what: &str, value: &str) -> T
where
    T::Err: Display,
{
    (value.parse()).unwrap_or_else(|e| fail(&format!("{what}: invalid value {value:?} ({e})")))
}

/// The suite query (or `{2..6}D_Q91`) named `name` over `catalog`, or
/// exit 1 naming it.
fn query_arg(catalog: &Catalog, name: &str) -> BenchQuery {
    rqp::workloads::find(catalog, name)
        .unwrap_or_else(|| fail(&format!("unknown query {name}; try `rqp list`")))
}

/// Prints `msg` and exits 1.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        return usage();
    };
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        eprintln!("unknown subcommand {name:?}");
        return usage();
    };
    expect_args(cmd, &args[1..]);
    (cmd.run)(&args[1..])
}
