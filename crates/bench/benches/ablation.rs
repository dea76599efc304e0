//! Ablations of the design choices behind the paper's techniques:
//!
//! * **hop interval** — how often the gated trace-cache bank rotates
//!   (the paper fixes 10 M cycles; here swept relative to the run length),
//! * **bias rule strength** — the "halve the share per N °C" constant of
//!   the thermal-aware mapping (§3.2.2; the paper found 3 °C best),
//! * **steering policy** — dependence-aware versus round-robin, which
//!   changes the inter-cluster copy traffic the distributed frontend sees.
//!
//! Each ablation runs the baseline and its variants as one grid and is
//! printed once; Criterion then times one representative configuration.

use criterion::{criterion_group, criterion_main, Criterion};
use distfront::{average_temps, slowdown, AppResult, ExperimentConfig, SweepRunner, AMBIENT_C};
use distfront_bench::{bench_uops, kernel_app};
use distfront_cache::mapping::MappingPolicy;
use distfront_trace::{AppProfile, Workload};
use distfront_uarch::steer::SteeringPolicy;
use std::hint::black_box;

fn ablation_apps() -> Vec<Workload> {
    ["gzip", "crafty", "swim", "art"]
        .iter()
        .map(|n| Workload::from(*AppProfile::by_name(n).unwrap()))
        .collect()
}

/// Runs the baseline followed by `variants` as one grid over the ablation
/// apps, returning the baseline row and one row per variant.
fn ablation_grid(
    uops: u64,
    variants: &[ExperimentConfig],
) -> (Vec<AppResult>, Vec<Vec<AppResult>>) {
    let mut configs = vec![ExperimentConfig::baseline().with_uops(uops)];
    configs.extend_from_slice(variants);
    let mut rows = SweepRunner::new()
        .try_grid(&configs, &ablation_apps())
        .strict();
    let base = rows.remove(0);
    (base, rows)
}

fn sweep_hop_interval(uops: u64) {
    println!("\n-- ablation: hop interval (bank hopping, TC metrics) --");
    let variants: Vec<ExperimentConfig> = [1u64, 2, 4, 8]
        .iter()
        .map(|divisor| {
            let mut cfg = ExperimentConfig::bank_hopping().with_uops(uops);
            cfg.interval_cycles = (cfg.interval_cycles / divisor).max(10_000);
            cfg
        })
        .collect();
    let (base, rows) = ablation_grid(uops, &variants);
    let bt = average_temps(&base);
    for (cfg, res) in variants.iter().zip(&rows) {
        let t = average_temps(res);
        let tc = bt.trace_cache.reduction_vs(&t.trace_cache, AMBIENT_C);
        println!(
            "  interval {:>9} cycles: TC peak -{:.1}% avg -{:.1}%  slowdown {:+.1}%",
            cfg.interval_cycles,
            tc.abs_max_c * 100.0,
            tc.average_c * 100.0,
            slowdown(&base, res) * 100.0
        );
    }
}

fn sweep_bias_strength(uops: u64) {
    println!("\n-- ablation: bias rule (halve share per N degC) --");
    let steps = [1.0f64, 3.0, 6.0, 12.0];
    let variants: Vec<ExperimentConfig> = steps
        .iter()
        .map(|&step| {
            let mut cfg = ExperimentConfig::hopping_and_biasing().with_uops(uops);
            cfg.processor.trace_cache.policy = MappingPolicy { halve_step_c: step };
            cfg
        })
        .collect();
    let (base, rows) = ablation_grid(uops, &variants);
    let bt = average_temps(&base);
    for (step, res) in steps.iter().zip(&rows) {
        let t = average_temps(res);
        let tc = bt.trace_cache.reduction_vs(&t.trace_cache, AMBIENT_C);
        println!(
            "  halve per {step:>4.1} C: TC peak -{:.1}% avg -{:.1}%  slowdown {:+.1}%",
            tc.abs_max_c * 100.0,
            tc.average_c * 100.0,
            slowdown(&base, res) * 100.0
        );
    }
    println!("  (paper: 3 C per factor of two)");
}

fn sweep_steering(uops: u64) {
    println!("\n-- ablation: steering policy (distributed frontend) --");
    let policies = [
        SteeringPolicy::DependenceBalance,
        SteeringPolicy::RoundRobin,
    ];
    let variants: Vec<ExperimentConfig> = policies
        .iter()
        .map(|&policy| {
            let mut cfg = ExperimentConfig::distributed_rename_commit().with_uops(uops);
            cfg.processor.steering = policy;
            cfg
        })
        .collect();
    let (base, rows) = ablation_grid(uops, &variants);
    for (policy, res) in policies.iter().zip(&rows) {
        let copies: f64 = res.iter().map(|r| r.cpi).sum::<f64>() / res.len() as f64;
        println!(
            "  {policy:?}: slowdown {:+.1}% (mean CPI {copies:.2})",
            slowdown(&base, res) * 100.0
        );
    }
}

fn bench(c: &mut Criterion) {
    let uops = bench_uops() / 2;
    sweep_hop_interval(uops);
    sweep_bias_strength(uops);
    sweep_steering(uops);
    println!();

    c.bench_function("ablation/round_robin_app_run", |b| {
        let app = kernel_app();
        b.iter(|| {
            let mut cfg = ExperimentConfig::distributed_rename_commit().with_uops(20_000);
            cfg.processor.steering = SteeringPolicy::RoundRobin;
            black_box(distfront::run_app(&cfg, &app))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
