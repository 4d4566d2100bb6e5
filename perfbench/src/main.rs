//! Run one benchmark workload and print its result.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run record (settings, sizes, sample counts, every metric)
//! as one JSON line, then the result line as the last line of standard
//! output. Exits 2 on bad arguments and 1 when the workload cannot be set
//! up; failed operations are counted in the result instead.

use std::process::ExitCode;

use bayeslsh_perfbench::run::{run, Options};
use bayeslsh_perfbench::workload::{Spec, NAMES};

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        NAMES.join("|")
    )
}

fn parse(args: &[String]) -> Result<(Spec, Options), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Spec::named(value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {value:?}: must lie in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    Ok((
        workload.ok_or_else(|| missing("--workload"))?,
        Options {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (spec, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&spec, &opts) {
        Ok(outcome) => {
            for problem in &outcome.tally.problems {
                eprintln!("failed: {problem}");
            }
            println!("{}", outcome.record);
            println!("{}", outcome.result_line(opts.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
