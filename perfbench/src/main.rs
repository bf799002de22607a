//! Command line of the repository benchmark:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <warm_http|zipf_pop|churn_sim> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then one JSON object as the last line
//! of standard output. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` is the separate traced run and reports the per-layer ones.
//! A run whose outputs are wrong (a grant ground truth denies, or a grant
//! returning the wrong content) prints no result and exits with code 1.

use std::process::ExitCode;

use ucam_perfbench::report;
use ucam_perfbench::workloads::{self, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: --workload <warm_http|zipf_pop|churn_sim> --seed <n> --seconds <s> --trace <0|1>\n{e}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    // Spans go next to the benchmark binary, inside the build directory.
    let dump = std::env::current_exe().ok().and_then(|exe| {
        exe.parent()
            .map(|dir| dir.join(format!("spans-{name}-seed{}.tsv", args.seed)))
    });
    let result = workloads::run(
        args.workload,
        &args.workload.params(),
        args.seed,
        args.seconds,
        args.trace,
        dump.as_deref().filter(|_| args.trace),
    );
    let (metrics, reported) = if args.trace {
        (report::per_layer(&result), Vec::new())
    } else {
        (
            report::end_to_end(&result),
            report::end_to_end_reported(&result),
        )
    };
    print!(
        "{}",
        report::human(name, args.seed, &result, &metrics, &reported)
    );
    if !report::correct(&result) {
        eprintln!(
            "{name}: invalid run: {} wrong grants, {} grants with wrong content",
            result.tally.wrong_grants, result.tally.bad_bodies
        );
        return ExitCode::from(1);
    }
    println!("{}", report::json_line(&result, &metrics));
    ExitCode::SUCCESS
}
