//! `perfbench`: the repository's end-to-end serving benchmark.
//!
//! ```text
//! perfbench run --workload NAME --seed N --seconds S --trace 0|1
//! perfbench stub-run --service-us N [--stall-ms N] [--rate R] --seed N --seconds S
//! ```
//!
//! `run` prints human-readable lines and, last, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. The child roles
//! (`node`, `router`, `ingest-node`, `stub`) are started by `run` itself.

mod bench;
mod check;
mod deploy;
mod driver;
mod http;
mod ledger;
mod stub;
mod trace;
mod warm;
mod workload;

use std::process::ExitCode;

use workload::Workload;

pub(crate) fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench run --workload browse|anon-hot --seed N --seconds S --trace 0|1\n\
         \x20      perfbench stub-run --service-us N [--stall-ms N] [--rate R] --seed N --seconds S"
    );
    ExitCode::from(2)
}

/// `--flag value` lookup.
pub(crate) fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Prints the result object as the last line of standard output.
pub(crate) fn print_result(correct: bool, verdict: check::Verdict, metrics: &[bench::Metric]) {
    for (name, value, unit) in metrics {
        println!("{name:<28} {value:>14.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.attempted.max(1),
        verdict.failed(),
        body.join(", ")
    );
}

fn run(args: &[String]) -> ExitCode {
    let parsed = (|| {
        let workload = Workload::parse(flag(args, "--workload")?)?;
        let seed: u64 = flag(args, "--seed")?.parse().ok()?;
        let seconds: f64 = flag(args, "--seconds")?.parse().ok()?;
        let trace = match flag(args, "--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            _ => return None,
        };
        (seconds > 0.0).then_some((workload, seed, seconds, trace))
    })();
    let Some((workload, seed, seconds, trace)) = parsed else {
        return usage();
    };
    println!(
        "workload {} seed {seed} seconds {seconds} trace {} lanes {}",
        workload.name(),
        u8::from(trace),
        bench::lanes()
    );
    // Spinners that keep the CPUs awake under the run (see `warm`).
    let warm = warm::KeepWarm::start();
    let outcome = if trace {
        ledger::run(workload, seed, seconds)
    } else {
        bench::run(workload, seed, seconds)
    };
    drop(warm);
    let _ = std::fs::remove_dir_all(deploy::work_dir());
    match outcome {
        Ok(o) => {
            for note in &o.notes {
                println!("# {note}");
            }
            // Non-2xx replies and socket errors fail a run like wrong
            // answers do: a program that sheds load must not read faster.
            let correct = o.verdict.failed() == 0;
            print_result(correct, o.verdict, &o.metrics);
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} failed requests ({} errors, {} wrong answers)",
                    o.verdict.failed(),
                    o.verdict.errors,
                    o.verdict.wrong
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or(&[]);
    match args.first().map(String::as_str) {
        Some("run") => run(rest),
        Some("stub-run") => stub::run(rest),
        Some("node") => deploy::run_node_child(),
        Some("router") => deploy::run_router_child(rest),
        Some("ingest-node") => match flag(rest, "--seed").and_then(|s| s.parse().ok()) {
            Some(seed) => deploy::run_ingest_child(seed),
            None => usage(),
        },
        Some("stub") => stub::run_stub_child(rest),
        _ => usage(),
    }
}
