//! Command-line entry of the benchmark:
//!
//! `gam-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints notes, a metric table, and as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (a failed check shows as
//! `"correct": false`). Exits 2 on a usage error.

use std::process::ExitCode;

use gam_perfbench::{run, Mode, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: gam-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(Mode::Timed),
                    "1" => Some(Mode::Traced),
                    _ => None,
                }
            }
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(mode)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required and valid");
    };
    let outcome = run(workload, seed, seconds, mode);
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("# {name:<28} {value:>18.6} {unit}");
    }
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
