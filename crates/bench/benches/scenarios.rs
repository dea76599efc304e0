//! Scenario sweep: runs every registered scenario on the smoke suite,
//! prints the summary table (the same rows `distfront-scenarios --all
//! --smoke` emits), and then times a single DTM-managed scenario job as
//! the tracked kernel. Honours `DISTFRONT_BENCH_UOPS` like the figure
//! benches.

use criterion::{criterion_group, criterion_main, Criterion};
use distfront::job::{JobEnv, JobReport, JobSpec};
use distfront::scenarios::{self, ScenarioRun};
use distfront::server::JobResponse;
use distfront_bench::bench_uops;
use std::hint::black_box;

/// Executes scenario `name` on the smoke suite at `uops` micro-ops per
/// application on every hardware thread, in a fresh environment.
fn smoke_job(name: &str, uops: u64) -> JobReport {
    JobSpec::scenario(name)
        .with_smoke(true)
        .with_uops(uops)
        .execute(&JobEnv::default(), |_| {})
        .expect("registered scenario")
}

fn regenerate_summary() {
    let uops = bench_uops().min(100_000);
    let registry = scenarios::registry();
    println!(
        "\nscenario sweep: {} scenarios x {} apps x {uops} uops, all hardware threads...",
        registry.len(),
        scenarios::suite_apps(true).len(),
    );
    let runs: Vec<ScenarioRun> = registry
        .iter()
        .map(|s| ScenarioRun::new(*s, JobResponse::from(&smoke_job(s.name, uops))).unwrap())
        .collect();
    println!("{}", scenarios::summary_table(&runs));
}

fn bench(c: &mut Criterion) {
    regenerate_summary();
    c.bench_function("scenarios/dtm_dvfs_smoke_suite", |b| {
        b.iter(|| black_box(smoke_job("dtm-dvfs", 20_000)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
