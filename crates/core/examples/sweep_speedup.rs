//! Quick serial-vs-parallel sweep comparison over the 26-app evaluation
//! set (a lighter-weight version of the `sweep` bench).
//!
//! Exits with status 1 if the parallel results diverge from the serial
//! reference, so CI smoke jobs can gate on the bit-identity guarantee —
//! which covers error cells too: the fault-tolerant reports are compared
//! whole, and any failed cell is listed (exit 2) instead of panicking.
//!
//! ```sh
//! cargo run --release --example sweep_speedup -p distfront -- 100000
//! ```
use distfront::{ExperimentConfig, SweepRunner};
use distfront_trace::{AppProfile, Workload};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let uops: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60_000);
    let configs = [
        ExperimentConfig::baseline().with_uops(uops),
        ExperimentConfig::combined().with_uops(uops),
    ];
    let apps: Vec<Workload> = AppProfile::spec2000()
        .iter()
        .copied()
        .map(Workload::from)
        .collect();
    let cores = SweepRunner::new().threads();
    println!(
        "{} apps x {} configs x {uops} uops, serial vs {cores} workers",
        apps.len(),
        configs.len()
    );

    let t0 = Instant::now();
    let serial = SweepRunner::serial().try_grid(&configs, &apps);
    let serial_s = t0.elapsed().as_secs_f64();
    println!("serial:   {serial_s:.2} s");

    let parallel_runner = SweepRunner::new();
    let t1 = Instant::now();
    let parallel = parallel_runner.try_grid(&configs, &apps);
    let parallel_s = t1.elapsed().as_secs_f64();
    println!(
        "parallel: {parallel_s:.2} s ({} warm-cache hits)",
        parallel.warm_hits()
    );

    if serial != parallel {
        eprintln!(
            "error: parallel sweep diverged from serial — the bit-identity \
             guarantee is broken"
        );
        return ExitCode::FAILURE;
    }
    if !serial.is_complete() {
        for cell in serial.failures() {
            eprintln!(
                "error: cell {} failed: {}",
                cell.label(),
                cell.result.as_ref().unwrap_err()
            );
        }
        return ExitCode::from(2);
    }
    println!(
        "speedup {:.2}x on {cores} cores; results bit-identical",
        serial_s / parallel_s
    );
    ExitCode::SUCCESS
}
