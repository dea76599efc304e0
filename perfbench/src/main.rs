//! End-to-end benchmark of the distfront sweep surfaces.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <live-grid|replay-ladder> --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test --workload W --seed N
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs a fixed, seeded amount of work with every engine
//! seam wrapped and prints the per-layer metrics instead. The last line
//! of stdout is the result object. `--self-test` runs the traced run
//! twice in child processes and checks that its exact counts repeat.
//! See `README.md` beside this file for the workloads and metrics.

mod layers;
mod live;
mod replay;
mod report;
mod speed;
mod sweepd;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use distfront::shard::{run_worker, ShardSpec};

use report::Report;

/// Every end-to-end metric, printed by every untraced run. The `norm_`
/// times are host-speed-normalised (see `speed.rs`).
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("norm_cells_per_s", "cells/s"),
    ("peak_rss_mb", "MB"),
    ("norm_request_ms_p50", "ms"),
    ("norm_request_ms_p90", "ms"),
];

/// Every per-layer metric, printed by every traced run. A layer the
/// workload bypasses reads 0.
const PER_LAYER: [(&str, &str); 39] = [
    ("engine.cell_ms", "ms"),
    ("engine.untraced_cell_ms", "ms"),
    ("engine.trace_overhead_pct", "%"),
    ("engine.pilot_ms", "ms"),
    ("engine.warm_start_ms", "ms"),
    ("engine.loop_self_ms", "ms"),
    ("engine.replay_loop_ms", "ms"),
    ("engine.intervals", "count"),
    ("engine.cells", "count"),
    ("uarch.sim_uops_per_s", "uops/s"),
    ("uarch.cycles", "count"),
    ("thermal.advance_ms", "ms"),
    ("thermal.advance_us", "us"),
    ("thermal.advances", "count"),
    ("thermal.distinct_dt", "count"),
    ("thermal.share_pct", "%"),
    ("dtm.decide_us", "us"),
    ("dtm.decisions", "count"),
    ("dtm.non_nominal_frac", "ratio"),
    ("sweep.warm_hit_ratio", "ratio"),
    ("batch.ms_per_cell", "ms"),
    ("batch.cells_per_cohort", "count"),
    ("trace.decode_ms", "ms"),
    ("trace.bytes_per_cell", "B"),
    ("job.fingerprint_us", "us"),
    ("server.hit_rtt_ms", "ms"),
    ("server.hit_rtt_p90_ms", "ms"),
    ("server.miss_rtt_ms", "ms"),
    ("server.miss_rtt_p90_ms", "ms"),
    ("server.miss_overhead_ms", "ms"),
    ("server.queued_ms", "ms"),
    ("server.queue_wait_ms", "ms"),
    ("server.hit_ratio", "ratio"),
    ("server.hits", "count"),
    ("server.misses", "count"),
    ("store.open_ms", "ms"),
    ("store.bytes", "B"),
    ("shard.overhead_s", "s"),
    ("shard.attempts", "count"),
];

/// Traced-run metrics that are exact counts: two traced runs with one
/// seed must print them identically.
const EXACT: [&str; 9] = [
    "engine.cells",
    "engine.intervals",
    "uarch.cycles",
    "thermal.advances",
    "thermal.distinct_dt",
    "dtm.decisions",
    "server.hits",
    "server.misses",
    "shard.attempts",
];

const WORKLOADS: [&str; 2] = ["live-grid", "replay-ladder"];

/// The benchmark's command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    self_test: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run(args: &Args, work: &Path) -> Report {
    let mut report = Report::new();
    match (args.workload.as_str(), args.trace) {
        ("live-grid", false) => live::run(args, &mut report),
        ("live-grid", true) => live::traced(args, &mut report, work),
        ("replay-ladder", false) => replay::run(args, &mut report, work),
        ("replay-ladder", true) => replay::traced(args, &mut report, work),
        _ => unreachable!("workload validated by parse_args"),
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in names {
        if report.get(name).is_none() {
            report.metric(name, 0.0, unit);
        }
    }
    for name in report.names() {
        assert!(
            names.iter().any(|(n, _)| *n == name),
            "metric {name} is missing from the metric list"
        );
    }
    report
}

/// Runs the traced run twice in child processes and compares the exact
/// counts of their result lines.
fn self_test(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut counts = Vec::new();
    for _ in 0..2 {
        let out = std::process::Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .args(["--seconds", "1", "--trace", "1"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("spawn the traced run");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default().to_string();
        if !out.status.success() || !last.contains("\"correct\": true") {
            eprintln!("self-test: traced run failed: {last}");
            return ExitCode::FAILURE;
        }
        let values: Vec<String> = EXACT
            .iter()
            .map(|name| {
                let key = format!("\"{name}\": {{\"value\": ");
                last.split_once(&key)
                    .and_then(|(_, rest)| rest.split_once(','))
                    .map_or_else(String::new, |(v, _)| v.to_string())
            })
            .collect();
        counts.push(values);
    }
    for (name, (a, b)) in EXACT.iter().zip(counts[0].iter().zip(&counts[1])) {
        println!("{name}: {a} {b}");
    }
    if counts[0] == counts[1] && counts[0].iter().all(|v| !v.is_empty()) {
        println!("self-test: exact counts repeat on {}", args.workload);
        ExitCode::SUCCESS
    } else {
        println!("self-test: exact counts differ on {}", args.workload);
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Shard worker mode: `ShardRunner` launches this executable.
    if let [flag, shard, dir_flag, dir] = argv.as_slice() {
        if flag == "--shard" && dir_flag == "--shard-dir" {
            return match ShardSpec::parse(shard) {
                Ok(spec) => run_worker(Path::new(dir), spec).into(),
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            };
        }
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return self_test(&args);
    }
    // Scratch space inside the working directory, one per process.
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let report = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    println!("{}", report.json());
    ExitCode::SUCCESS
}
