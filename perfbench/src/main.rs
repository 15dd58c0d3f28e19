//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <specsfs-write|sysbench-read|pressure-hdd> \
//!           [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! The seed defaults to [`DEFAULT_SEED`], the run length to 10 s and the
//! trace switch to 0.
//!
//! The untraced runs repeat the workload, each from a fresh trace record and
//! a fresh controller, until `--seconds` have passed (at least three runs).
//! With `--trace 1` one more run follows with the counting tracer attached,
//! controller stats read after every submit and every read verified against
//! the content oracle; it supplies the per-layer figures.
//!
//! Standard output is a table of every metric with its unit and sample
//! count, then one JSON line `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. The exit code is non-zero when any run's simulated outputs
//! differ from the first run's; a wrong read aborts the traced run.

use perfbench::metrics::{self, Metric};
use perfbench::{measure, Bench, Inputs, Run, DEFAULT_SEED};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Fewest untraced runs the medians are taken over, however long they take.
const MIN_RUNS: usize = 3;

struct Args {
    bench: Bench,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut bench, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                bench = Some(
                    Bench::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        bench: bench.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]",
                Bench::ALL.map(Bench::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs::new(args.bench, args.seed);
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut runs: Vec<Run> = Vec::new();
    let mut peak_rss = Ok(0.0);
    while runs.len() < MIN_RUNS || started.elapsed() < budget {
        let run = measure(&inputs, false);
        eprintln!(
            "run {}: setup {:.4} s, replay {:.4} s (CPU; wall {:.4} s, {:.4} s)",
            runs.len(),
            run.setup().cpu_ns as f64 / 1e9,
            run.replay.cpu_ns as f64 / 1e9,
            run.setup().wall_ns as f64 / 1e9,
            run.replay.wall_ns as f64 / 1e9,
        );
        runs.push(run);
        if runs.len() == 1 {
            // The footprint of one fresh run: later runs reuse the freed
            // heap, and how far it fragments depends on how many fit.
            peak_rss = peak_rss_mb();
        }
    }
    let traced = args.trace.then(|| measure(&inputs, true));

    let mut problems = Vec::new();
    for (i, run) in runs.iter().chain(&traced).enumerate().skip(1) {
        if !runs[0].same_simulation(run) {
            problems.push(format!("run {i}: simulated outputs differ from run 0"));
        }
    }
    let metrics = match &traced {
        Some(traced) => metrics::per_layer(&runs, traced),
        None => match peak_rss {
            Ok(rss) => metrics::end_to_end(&runs, rss),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    problems.extend(
        metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| format!("{} is not a finite number", m.name)),
    );
    let submits = runs.iter().chain(&traced).flat_map(|r| &r.submits);
    let attempted = submits.clone().count() as u64;
    let failed = submits.filter(|s| s.failed).count() as u64;

    let steady = runs[0].submits.iter().filter(|s| s.steady);
    println!(
        "perfbench {} seed {}: {} untraced run(s){} of {} x {} ops; steady window {} reads, {} writes",
        args.bench.name(),
        args.seed,
        runs.len(),
        if traced.is_some() { " + 1 traced" } else { "" },
        inputs.parts,
        inputs.ops,
        steady.clone().filter(|s| s.read).count(),
        steady.filter(|s| !s.read).count(),
    );
    let print = |m: &Metric| {
        println!(
            "  {:<36} {:>18.6} {:<10} n={}",
            m.name, m.value, m.unit, m.samples
        )
    };
    metrics.iter().for_each(print);
    println!("  printed only (fixed model costs; failures are in \"failed\"):");
    metrics::sim_printed(&runs[0]).iter().for_each(print);
    println!(
        "  {:<36} {:>18.6} {:<10} n={attempted}",
        "failed_op_frac",
        failed as f64 / attempted as f64,
        "fraction"
    );
    for p in &problems {
        eprintln!("perfbench: {p}");
    }
    println!("{}", json(problems.is_empty(), attempted, failed, &metrics));
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
