//! Command line of the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable table, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and the metrics: the end-to-end
//! metrics untraced, the per-layer metrics traced.  A traced run also
//! writes its spans to `perfbench/traces/<workload>-seed<n>.jsonl`.

use std::process::ExitCode;

use perfbench::run::default_trace_file;
use perfbench::{run, Options, Report, Workload};

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let mut opts = Options::new(
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
    );
    opts.trace = trace.ok_or("--trace is required")?;
    if opts.trace {
        opts.trace_file = Some(default_trace_file(&opts));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {} seed {} seconds {} trace {} ({} cores available)",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        cores
    );
    let report: Report = run(&opts);
    if let Err(e) = report.validate(opts.trace) {
        eprintln!("benchmark error: {e}");
        return ExitCode::from(1);
    }
    for note in &report.notes {
        println!("{note}");
    }
    print!("{}", report.table(opts.trace));
    println!("{}", report.json(opts.trace));
    ExitCode::SUCCESS
}
