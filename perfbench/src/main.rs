//! Runs one workload of the repository benchmark and prints its metrics.
//!
//! ```text
//! crn-perfbench --workload <cogcast_large|cogcomp_1k|paper_suite>
//!               [--seed N] [--seconds S] [--trace 0|1]
//! crn-perfbench record --workload <name>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! record the host and the run. `record` prints the reference file for
//! a workload (see `refs.rs`), exactly as committed under `refs/`.

use crn_perfbench::host::HostInfo;
use crn_perfbench::measure::{self, Report};
use crn_perfbench::refs::REF_SEEDS;
use crn_perfbench::workloads::{run_suite_pass, run_trial, suite_order, trial_seed, Workload};
use std::process::ExitCode;

struct Args {
    record: bool,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (record, flags) = match args.first().map(String::as_str) {
        Some("record") => (true, &args[1..]),
        _ => (false, args),
    };
    let mut parsed = Args {
        record,
        workload: Workload::CogcastLarge,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    for pair in flags.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// Prints the reference lines for `args.workload`.
fn record(args: &Args) -> Result<(), String> {
    let name = args.workload.name();
    match (args.workload.network(), args.workload.ref_trials()) {
        (Some((protocol, shape)), Some(trials)) => {
            println!("# {name}: trial network seed -> slots to completion");
            println!(
                "# workload seeds {}..{}, first {trials} trials each",
                REF_SEEDS.start(),
                REF_SEEDS.end()
            );
            for seed in REF_SEEDS {
                for i in 0..trials {
                    let t = run_trial(protocol, shape, trial_seed(seed, i), false)
                        .map_err(|e| e.to_string())?;
                    if let Some(err) = t.outcome.invariant_error() {
                        return Err(format!("trial {}: {err}", t.seed));
                    }
                    let slots = t.outcome.slots.expect("checked above");
                    println!("{} {slots}", t.seed);
                }
            }
        }
        _ => {
            println!("# {name}: experiment id -> FNV-1a of the rendered artifact");
            for e in run_suite_pass(&suite_order(0), false).experiments {
                println!("{} {:#018x}", e.id, e.hash);
            }
        }
    }
    Ok(())
}

fn json_result(report: &Report) -> Result<String, String> {
    let mut metrics = Vec::new();
    for m in &report.metrics {
        if !m.value.is_finite() {
            return Err(format!("{} is not finite: {}", m.name, m.value));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("crn-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = crn_sim::pool::configured_workers() {
        eprintln!("crn-perfbench: {e}");
        return ExitCode::from(2);
    }
    if args.record {
        return match record(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("crn-perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let (width, pool_startup_s) = measure::pool_startup();
    println!("host {}", HostInfo::collect(width).to_json());
    let report = measure::run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        pool_startup_s,
    );
    let result = report.and_then(|r| json_result(&r).map(|json| (r, json)));
    match result {
        Ok((report, json)) => {
            for failure in &report.failures {
                eprintln!("check failed: {failure}");
            }
            println!(
                "run {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"operations_timed\": {}, \"unreferenced\": {}}}",
                args.workload.name(),
                args.seed,
                args.seconds,
                u8::from(args.trace),
                report.samples,
                report.unreferenced
            );
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("crn-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
