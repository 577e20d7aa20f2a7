//! The repository benchmark: one command that runs a named workload from a
//! seed, drives the program through its public API only, checks every
//! answer, and prints each metric by name and unit.
//!
//! ```text
//! tqpbench --workload <tpch_adhoc|tpch_stored|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run; `--trace 1`
//! prints the per-layer metrics of a traced run. The last line of standard
//! output is the result object. See `README.md` for the workloads.

mod common;
mod layers;
mod serve;
mod tpch;

use common::{cpu_ticks, print_report, steal_pct_since, Args, HostSpeed};

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    // Internal mode: the row-engine oracle of the TPC-H workloads, run in a
    // child process by `tpch::run`.
    let argv: Vec<String> = std::env::args().collect();
    if argv.len() == 3 && argv[1] == "--oracle" {
        match argv[2].parse() {
            Ok(seed) => tpch::print_oracle(seed),
            Err(e) => {
                eprintln!("tqpbench: --oracle: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tqpbench: {e}");
            std::process::exit(2);
        }
    };
    let speed = HostSpeed::measure();
    let ticks = cpu_ticks();
    let mut report = match args.workload.as_str() {
        "tpch_adhoc" => tpch::run(&args, false),
        "tpch_stored" => tpch::run(&args, true),
        "serve_mixed" => serve::run(&args),
        other => {
            eprintln!(
                "tqpbench: unknown workload {other:?} (tpch_adhoc, tpch_stored, serve_mixed)"
            );
            std::process::exit(2);
        }
    };
    report.steal_pct = steal_pct_since(ticks);
    print_report(&args, &speed, &report);
}
