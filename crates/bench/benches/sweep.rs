//! Serial vs threads vs processes sweep head-to-head.
//!
//! First the 26-application evaluation set runs under the baseline and
//! the combined distributed frontend as one two-scenario [`JobSpec`]
//! three ways: one worker, every hardware thread, and sharded across OS
//! processes via [`ShardRunner`] (the only configuration where cells do not share
//! an address space — real multi-core contention, not timesharing).
//! Byte-identity of all three reports is asserted before any number is
//! reported. The process leg needs the `distfront-scenarios` worker
//! binary next to the bench executable (`cargo build --release -p
//! distfront`); it degrades to a printed skip when absent.
//!
//! The numbers land in `BENCH_sweep.json` at the workspace root
//! (override with `DISTFRONT_BENCH_SWEEP_JSON`), giving CI a tracked
//! baseline of the thread vs process scaling on the recorded
//! `host_cores`.

use criterion::{criterion_group, criterion_main, Criterion};
use distfront::job::{JobEnv, JobSpec};
use distfront::shard::ShardRunner;
use distfront::{ExperimentConfig, SweepRunner};
use distfront_bench::{bench_uops, evaluation_apps, kernel_app};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Locates the `distfront-scenarios` worker binary next to this bench
/// executable (`target/<profile>/deps/sweep-<hash>` → the profile dir).
fn worker_binary() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let deps = exe.parent()?;
    [
        deps.join("distfront-scenarios"),
        deps.parent()?.join("distfront-scenarios"),
    ]
    .into_iter()
    .find(|p| p.is_file())
}

/// The three-way executor comparison; returns the `"executor"` JSON
/// section.
fn executor_head_to_head() -> String {
    let uops = bench_uops();
    let cells = 2 * evaluation_apps().len();
    let spec = JobSpec::scenarios(["baseline", "drc+bh+ab"]).with_uops(uops);
    let cores = SweepRunner::new().threads();
    println!(
        "\nsweep executor: {cells} cells x {uops} uops, serial vs {cores} threads vs processes..."
    );

    let t0 = Instant::now();
    let serial = spec
        .clone()
        .with_workers(1)
        .execute(&JobEnv::default(), |_| {})
        .expect("bench grid resolves");
    let serial_s = t0.elapsed().as_secs_f64();
    assert!(
        serial.report.is_complete(),
        "bench grid must have no failed cells"
    );

    let t1 = Instant::now();
    let threads = spec
        .clone()
        .with_workers(0)
        .execute(&JobEnv::default(), |_| {})
        .expect("bench grid resolves");
    let threads_s = t1.elapsed().as_secs_f64();
    assert_eq!(
        serial.csv_rows(),
        threads.csv_rows(),
        "threaded sweep diverged from serial"
    );

    let processes = cores.max(2);
    let process_leg = worker_binary().map(|worker| {
        let dir =
            std::env::temp_dir().join(format!("distfront-shard-bench-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let t2 = Instant::now();
        let outcome = ShardRunner::new(spec.clone(), processes)
            .with_dir(&dir)
            .with_worker(&worker)
            .run()
            .expect("shard coordinator setup");
        let processes_s = t2.elapsed().as_secs_f64();
        assert!(
            outcome.failed_shards.is_empty(),
            "bench shards must not die: {:?}",
            outcome.failed_shards
        );
        assert_eq!(
            outcome.csv_rows,
            serial.csv_rows(),
            "multi-process sweep diverged from serial"
        );
        let _ = std::fs::remove_dir_all(&dir);
        processes_s
    });

    match process_leg {
        Some(processes_s) => {
            println!(
                "serial {serial_s:.2} s | {cores} threads {threads_s:.2} s ({:.2}x) | \
                 {processes} processes {processes_s:.2} s ({:.2}x) — all three byte-identical\n",
                serial_s / threads_s,
                serial_s / processes_s
            );
            format!(
                "{{\n    \"grid_cells\": {cells},\n    \"uops\": {uops},\n    \
                 \"serial_s\": {serial_s:.3},\n    \"threads\": {cores},\n    \
                 \"threads_s\": {threads_s:.3},\n    \
                 \"threads_speedup\": {:.2},\n    \"processes\": {processes},\n    \
                 \"processes_s\": {processes_s:.3},\n    \"processes_speedup\": {:.2}\n  }}",
                serial_s / threads_s,
                serial_s / processes_s
            )
        }
        None => {
            println!(
                "serial {serial_s:.2} s | {cores} threads {threads_s:.2} s ({:.2}x) | \
                 processes skipped: distfront-scenarios not built \
                 (run `cargo build --release -p distfront`)\n",
                serial_s / threads_s
            );
            format!(
                "{{\n    \"grid_cells\": {cells},\n    \"uops\": {uops},\n    \
                 \"serial_s\": {serial_s:.3},\n    \"threads\": {cores},\n    \
                 \"threads_s\": {threads_s:.3},\n    \
                 \"threads_speedup\": {:.2},\n    \"processes\": null\n  }}",
                serial_s / threads_s
            )
        }
    }
}

fn bench(c: &mut Criterion) {
    let executor = executor_head_to_head();
    let host_cores = SweepRunner::new().threads();
    let json = format!(
        "{{\n  \"bench\": \"sweep\",\n  \"host_cores\": {host_cores},\n  \
         \"executor\": {executor}\n}}\n"
    );
    let path = std::env::var("DISTFRONT_BENCH_SWEEP_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json").into());
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }

    let app = kernel_app();
    c.bench_function("sweep/parallel_two_config_grid", |b| {
        let configs = [
            ExperimentConfig::baseline().with_uops(20_000),
            ExperimentConfig::combined().with_uops(20_000),
        ];
        let apps = [distfront_trace::Workload::from(app)];
        let runner = SweepRunner::new();
        b.iter(|| black_box(runner.try_grid(&configs, &apps)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
