//! `bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (see [`bench_e2e::workload`]) and prints its notes,
//! one line per metric, and finally the result object as the last line
//! of standard output. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ones. Exits non-zero when any session
//! failed, any frame was lost, corrupted or shed, or the engine saw a
//! protocol error.

use bench_e2e::workload::{run, Workload};
use std::process::ExitCode;

const USAGE: &str =
    "usage: bench_e2e --workload <bulk_mimo|control_siso|capture_replay|traced_session> \
                     --seed <u64> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed {value:?} is not a u64"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--seconds {value:?} is not a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is neither 0 nor 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for (def, value) in &outcome.metrics {
        println!("  {:<38} {value:>16.6} {}", def.name, def.unit);
    }
    println!("{}", outcome.result_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench_e2e: {} failure(s) in {} frames attempted",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}
