//! `perfbench`: the end-to-end benchmark of the rlc-ceff-suite timing
//! engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch|path|eco|remote> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. A run sets its workload up three times
//! (reporting the median as `setup_s`), measures operations in a closed
//! loop for `--seconds`, checks every output against a reference, measures
//! accuracy against golden simulation, and prints one JSON object as the
//! last line of standard output: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics of the outside-in trace with `--trace 1` (whose
//! spans are also written under `.bench_build/perfbench/traces/`).
//! Everything else goes to standard error.

mod design;
mod golden;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::Trace;
use workloads::Workload;

const SETUP_REPEATS: usize = 3;
/// Scratch space and trace output, relative to the repository root.
const WORK_ROOT: &str = ".bench_build/perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" if workloads::NAMES.contains(&value.as_str()) => {
                workload = Some(value.clone())
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unexpected argument {flag} {value}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), trace) => Ok(Args {
            workload,
            seed,
            seconds,
            trace: trace.unwrap_or(false),
        }),
        _ => Err(format!(
            "usage: perfbench --workload <{}> --seed <n> --seconds <s> [--trace <0|1>]",
            workloads::NAMES.join("|")
        )),
    }
}

/// A per-run scratch directory, removed when the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Linear-interpolated quantile of an ascending sample.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let position = q * (sorted.len() - 1) as f64;
    let (low, high) = (position.floor() as usize, position.ceil() as usize);
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

fn main() -> ExitCode {
    if rlc_service::maybe_run_worker_from_env() {
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let scratch =
        Scratch(PathBuf::from(WORK_ROOT).join(format!("{}-{}", args.workload, std::process::id())));

    // Set-up, repeated; the last instance is the one measured. Dropping the
    // previous instance first stops its worker processes.
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut bench: Option<Box<dyn Workload>> = None;
    for repeat in 0..repeats {
        drop(bench.take());
        let started = Instant::now();
        let dir = scratch.0.join(format!("setup-{repeat}"));
        bench = Some(workloads::setup(&args.workload, args.seed, &dir)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");

    let mut trace = args.trace.then(Trace::new);
    if let Some(trace) = trace.as_mut() {
        bench.probe(trace, &scratch.0)?;
    }

    let window = Duration::from_secs(args.seconds);
    let (mut attempted, mut failed, mut stages) = (0usize, 0usize, 0usize);
    let mut latencies = Vec::new();
    let started = Instant::now();
    while attempted == 0 || started.elapsed() < window {
        let op_started = Instant::now();
        let outcome = bench.op(attempted);
        let op_ended = Instant::now();
        attempted += 1;
        match outcome {
            Ok(op) => {
                latencies.push((op_ended - op_started).as_secs_f64());
                stages += op.stages;
                if let Some(trace) = trace.as_mut() {
                    let root = trace.record("op", None, attempted as u64, op_started, op_ended);
                    for (name, start, end) in &op.phases {
                        trace.record(name, Some(root), attempted as u64, *start, *end);
                    }
                    trace.count("op_stages", op.stages as f64);
                    trace.count("backend_busy_s", op.busy_s);
                    trace.count("cache_hits", op.hits as f64);
                }
            }
            Err(message) => {
                failed += 1;
                eprintln!("perfbench: operation {attempted} failed: {message}");
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();

    let mut problems = Vec::new();
    if let Err(message) = bench.check() {
        problems.push(message);
    }
    drop(bench);
    let cells = design::Cells::characterize(None)?;
    let accuracy = golden::measure(&cells)?;
    eprintln!("perfbench: golden panel: {}", accuracy.describe());
    problems.extend(accuracy.problems());
    for problem in &problems {
        eprintln!("perfbench: incorrect: {problem}");
    }

    let metrics = match trace.as_ref() {
        None => {
            let mut sorted = latencies;
            sorted.sort_by(f64::total_cmp);
            if sorted.is_empty() {
                return Err("every operation failed".into());
            }
            // The highest percentile with ten samples beyond it, up to p90.
            let tail = (1.0 - 10.0 / sorted.len() as f64).clamp(0.5, 0.9);
            vec![
                metric("op_ms", 1e3 * quantile(&sorted, 0.5), "ms"),
                metric("op_p90_ms", 1e3 * quantile(&sorted, tail), "ms"),
                metric("stages_per_s", stages as f64 / elapsed, "1/s"),
                metric("delay_err_pct", 100.0 * accuracy.delay_mean, "%"),
                metric("slew_err_pct", 100.0 * accuracy.slew_mean, "%"),
                metric("setup_s", median(&setup_s), "s"),
            ]
        }
        Some(trace) => {
            let path = PathBuf::from(WORK_ROOT)
                .join("traces")
                .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
            trace.write_jsonl(&path).map_err(|e| e.to_string())?;
            eprintln!("perfbench: trace written to {}", path.display());
            let mut metrics = layer_metrics(trace);
            metrics.push(metric("path_err_pct", 100.0 * accuracy.path, "%"));
            metrics
        }
    };
    eprintln!(
        "perfbench: {} {} ops ({} failed) in {:.1} s, {} stages",
        args.workload, attempted, failed, elapsed, stages
    );
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            if m.value.is_finite() {
                Ok(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                ))
            } else {
                Err(format!("metric {} is not finite", m.name))
            }
        })
        .collect::<Result<_, _>>()?;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        problems.is_empty() && failed == 0,
        fields.join(", ")
    ))
}

/// The per-layer metrics: mean self times of the probe spans (per stage)
/// and of the operation phases, plus the counters.
fn layer_metrics(trace: &Trace) -> Vec<Metric> {
    let us = |name| 1e6 * trace.mean_self(name);
    let stages = trace.sum_count("op_stages").max(1.0);
    vec![
        metric("lint_us", us("lint"), "us"),
        metric("moment_fit_us", us("moment_fit"), "us"),
        metric("rs_extract_us", us("rs_extract"), "us"),
        metric("ceff_iter_us", us("ceff_iter"), "us"),
        metric(
            "ceff_iterations",
            trace.mean_count("ceff_iterations"),
            "count",
        ),
        metric("analyze_us", us("analyze"), "us"),
        metric("handoff_us", us("handoff"), "us"),
        metric("mna_stamp_us", us("mna_stamp"), "us"),
        metric("tran_fixed_us", us("tran_fixed"), "us"),
        metric("tran_step_ns", 1e9 * trace.mean_count("tran_step_s"), "ns"),
        metric("tran_steps", trace.mean_count("tran_steps"), "count"),
        metric("cache_store_us", us("cache_store"), "us"),
        metric("cache_lookup_us", us("cache_lookup"), "us"),
        metric("wire_encode_us", us("wire_encode"), "us"),
        metric("wire_decode_us", us("wire_decode"), "us"),
        metric("wire_bytes", trace.mean_count("wire_bytes"), "bytes"),
        metric("open_us", us("open"), "us"),
        metric(
            "submit_us",
            us("submit") / trace.mean_count("op_stages"),
            "us",
        ),
        metric("wait_ms", 1e3 * trace.mean_self("wait"), "ms"),
        metric(
            "backend_busy_ms",
            1e3 * trace.mean_count("backend_busy_s"),
            "ms",
        ),
        metric(
            "cache_hit_ratio",
            trace.sum_count("cache_hits") / stages,
            "ratio",
        ),
    ]
}
