//! Component micro-benchmarks: the building blocks the experiments lean on.
//! These track the simulator's own performance so regressions in the
//! substrate show up in `cargo bench` history.

use criterion::{criterion_group, criterion_main, Criterion};
use distfront_bench::{bench_uops, kernel_app};
use distfront_cache::trace_cache::{TraceCache, TraceCacheConfig, TraceKey};
use distfront_power::{EnergyTable, LeakageModel, Machine, PowerModel};
use distfront_thermal::{Floorplan, PackageConfig, ThermalNetwork, ThermalSolver};
use distfront_trace::TraceGenerator;
use distfront_uarch::{DistributedRob, ProcessorConfig, Simulator};
use std::hint::black_box;

fn bench_trace_generation(c: &mut Criterion) {
    c.bench_function("components/trace_generator_10k_uops", |b| {
        let mut generator = TraceGenerator::new(&kernel_app(), 1);
        b.iter(|| {
            for _ in 0..10_000 {
                black_box(generator.next_uop());
            }
        })
    });
}

fn bench_trace_cache(c: &mut Criterion) {
    c.bench_function("components/trace_cache_lookup_insert_10k", |b| {
        let mut tc = TraceCache::new(TraceCacheConfig::hopping_and_biasing());
        let keys: Vec<TraceKey> = (0..512u64)
            .map(|i| TraceKey::new(0x40_0000 + i * 256, (i % 8) as u8))
            .collect();
        b.iter(|| {
            for (i, &k) in keys.iter().cycle().take(10_000).enumerate() {
                if !tc.lookup(k) {
                    tc.insert(k);
                }
                if i % 1000 == 0 {
                    tc.hop();
                    tc.rebalance(&[60.0, 70.0, 65.0]);
                }
            }
            black_box(tc.stats())
        })
    });
}

fn bench_distributed_commit(c: &mut Criterion) {
    c.bench_function("components/rob_rl_walk_4k_commits", |b| {
        b.iter(|| {
            let mut rob = DistributedRob::new(2, 128);
            let mut committed = 0;
            let mut seq = 0u64;
            while committed < 4_096 {
                while !rob.is_partition_full((seq % 2) as usize) && rob.len() < 200 {
                    rob.push(seq, (seq % 2) as usize).unwrap();
                    rob.mark_ready(seq);
                    seq += 1;
                }
                committed += rob.commit(8).len();
            }
            black_box(rob.read_ops())
        })
    });
}

fn bench_thermal(c: &mut Criterion) {
    let fp = Floorplan::for_machine(Machine::new(1, 4, 2));
    let net = ThermalNetwork::from_floorplan(&fp, &PackageConfig::paper());
    c.bench_function("components/thermal_steady_solve", |b| {
        let solver = ThermalSolver::new(net.clone());
        let power = vec![0.8; net.block_count()];
        b.iter(|| black_box(solver.solve_steady(&power)))
    });
    c.bench_function("components/thermal_rk4_1ms", |b| {
        let mut solver = ThermalSolver::new(net.clone());
        let power = vec![0.8; net.block_count()];
        b.iter(|| {
            solver.advance(&power, 1e-3);
            black_box(solver.block_temperatures()[0])
        })
    });
}

fn bench_power_model(c: &mut Criterion) {
    c.bench_function("components/power_model_interval", |b| {
        let machine = Machine::new(2, 4, 3);
        let mut model = PowerModel::new(machine, EnergyTable::nm65(), LeakageModel::paper(), 10e9);
        let mut sim = Simulator::new(
            {
                let mut p = ProcessorConfig::distributed_rename_commit();
                p.trace_cache =
                    distfront_cache::trace_cache::TraceCacheConfig::hopping_and_biasing();
                p
            },
            &kernel_app(),
            1,
        );
        let act = sim.step(u64::MAX, 20_000).activity;
        model.set_nominal_dynamic(vec![0.5; machine.block_count()]);
        let temps = vec![70.0; machine.block_count()];
        b.iter(|| black_box(model.total_power(&act, &temps, &[])))
    });
}

/// The simulator in the shape a live cell runs it: one SPEC profile for
/// `DISTFRONT_BENCH_UOPS` micro-ops (default 200k, the CLI default) under
/// the baseline and the distributed frontend.
fn bench_simulator(c: &mut Criterion) {
    let uops = bench_uops();
    for (name, cfg) in [
        ("baseline", ProcessorConfig::hpca05_baseline()),
        ("distributed", ProcessorConfig::distributed_rename_commit()),
    ] {
        c.bench_function(&format!("components/simulator_{name}"), |b| {
            b.iter(|| {
                let mut sim = Simulator::new(cfg.clone(), &kernel_app(), 1);
                black_box(sim.run(uops))
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_trace_generation, bench_trace_cache, bench_distributed_commit,
              bench_thermal, bench_power_model, bench_simulator
}
criterion_main!(benches);
