//! Serial vs threads vs processes sweep head-to-head, plus the
//! warm-start cache under contention.
//!
//! First the 26-application evaluation set runs under the baseline and
//! the combined distributed frontend as one [`JobSpec`] grid three ways:
//! one worker, every hardware thread, and sharded across OS processes
//! via [`ShardRunner`] (the only configuration where cells do not share
//! an address space — real multi-core contention, not timesharing).
//! Byte-identity of all three reports is asserted before any number is
//! reported. The process leg needs the `distfront-scenarios` worker
//! binary next to the bench executable (`cargo build --release -p
//! distfront`); it degrades to a printed skip when absent.
//!
//! Then the [`WarmStartCache`]'s one lock is measured: cache-hit lookups
//! from 1 worker and from ≥ 4 workers at once.
//!
//! Both sections land in `BENCH_sweep.json` at the workspace root
//! (override with `DISTFRONT_BENCH_SWEEP_JSON`), giving CI a tracked
//! baseline: a lookup must stay negligible next to a cell (≥ 0.1 ms) even
//! when every worker contends for the lock, and the executor numbers
//! record the thread vs process scaling on the recorded `host_cores`.

use criterion::{criterion_group, criterion_main, Criterion};
use distfront::engine::{EngineError, WarmStartCache};
use distfront::job::{JobEnv, JobSpec};
use distfront::shard::ShardRunner;
use distfront::{ExperimentConfig, SweepRunner};
use distfront_bench::{bench_uops, evaluation_apps, kernel_app};
use distfront_power::{LeakageModel, Machine};
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
    let apps: Vec<&str> = evaluation_apps().iter().map(|a| a.name).collect();
    let cells = 2 * apps.len();
    let spec = JobSpec::grid(["baseline", "drc+bh+ab"], apps).with_uops(uops);
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

/// Distinct nominal power profiles, every one a distinct cache key.
fn key_set(machine: Machine, keys: usize) -> Vec<Vec<f64>> {
    (0..keys)
        .map(|k| {
            (0..machine.block_count())
                .map(|b| 0.25 + 0.01 * k as f64 + 0.003 * b as f64)
                .collect()
        })
        .collect()
}

/// Mean ns per `get_or_compute` hit with `threads` workers hammering a
/// pre-populated cache (the sweep's steady state: every lookup a hit).
fn time_cache_lookups(cache: &WarmStartCache, machine: Machine, threads: usize) -> f64 {
    let keys = key_set(machine, 64);
    for nominal in &keys {
        cache
            .get_or_compute(machine, &LeakageModel::paper(), nominal, || {
                Ok::<_, EngineError>(vec![60.0; machine.block_count()])
            })
            .expect("synthetic solve cannot fail");
    }
    let per_thread = 20_000usize;
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let keys = &keys;
            let cache = &cache;
            scope.spawn(move || {
                for i in 0..per_thread {
                    let nominal = &keys[(i + t) % keys.len()];
                    let (state, hit) = cache
                        .get_or_compute(machine, &LeakageModel::paper(), nominal, || {
                            Err::<Vec<f64>, _>(EngineError::NotConverged("must be a hit"))
                        })
                        .expect("every lookup is a hit");
                    assert!(hit);
                    black_box(state);
                }
            });
        }
    });
    t0.elapsed().as_secs_f64() * 1e9 / (threads * per_thread) as f64
}

/// The warm-cache lookup cost, serial and with `width` workers contending
/// for its lock; returns the `"warm_cache"` JSON section.
fn cache_contention_comparison() -> String {
    let machine = Machine::new(2, 4, 3);
    let width = SweepRunner::new().threads().max(4);
    let cache = WarmStartCache::new();
    let serial_ns = time_cache_lookups(&cache, machine, 1);
    let parallel_ns = time_cache_lookups(&cache, machine, width);
    println!(
        "warm cache (one lock): serial {serial_ns:.0} ns/lookup | {width} workers \
         {parallel_ns:.0} ns/lookup\n"
    );
    format!(
        "{{\n    \"workers\": {width},\n    \
         \"serial_ns_per_lookup\": {serial_ns:.1},\n    \
         \"parallel_ns_per_lookup\": {parallel_ns:.1}\n  }}"
    )
}

fn bench(c: &mut Criterion) {
    let executor = executor_head_to_head();
    let warm_cache = cache_contention_comparison();
    let host_cores = SweepRunner::new().threads();
    let json = format!(
        "{{\n  \"bench\": \"sweep\",\n  \"host_cores\": {host_cores},\n  \
         \"executor\": {executor},\n  \"warm_cache\": {warm_cache}\n}}\n"
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
    c.bench_function("sweep/warm_cache_hit", |b| {
        let machine = Machine::new(2, 4, 3);
        let cache = WarmStartCache::new();
        let nominal = key_set(machine, 1).pop().unwrap();
        cache
            .get_or_compute(machine, &LeakageModel::paper(), &nominal, || {
                Ok::<_, EngineError>(vec![60.0; machine.block_count()])
            })
            .unwrap();
        b.iter(|| {
            black_box(
                cache
                    .get_or_compute(machine, &LeakageModel::paper(), &nominal, || {
                        Err::<Vec<f64>, _>(EngineError::NotConverged("must hit"))
                    })
                    .unwrap(),
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
