//! Batched lockstep propagation benchmark: ns per cell-advance through the
//! [`BatchPropagator`] at cohort sizes 1/8/64/256 against the serial
//! [`ExpPropagator`] path the sweep executor uses per cell. Every column
//! takes its own half-step, spread the way whole-trace interval overshoot
//! spreads them in production. Before the Criterion timing loops run, the
//! comparison is measured head-to-head, bit-identity between the batched
//! columns and serial advances is asserted, and the numbers are written
//! to `BENCH_batch.json` at the workspace root (override the path with
//! `DISTFRONT_BENCH_JSON`), so CI tracks the batched kernel across PRs.
//! Runs in `--test` mode too.

use criterion::{criterion_group, criterion_main, Criterion};
use distfront_power::Machine;
use distfront_thermal::{BatchPropagator, ExpPropagator, Floorplan, PackageConfig, ThermalNetwork};
use std::hint::black_box;
use std::time::Instant;

/// The engine's default interval step on the paper machine: 200 k cycles
/// at 10 GHz, advanced as two half-steps per interval.
const HALF_INTERVAL_S: f64 = 1e-5;

/// Cell `j`'s half-step: production intervals overshoot their cycle
/// target by a few percent, differently per cell.
fn cell_half_step(j: usize) -> f64 {
    HALF_INTERVAL_S * (1.0 + 0.003 * (j % 17) as f64)
}

/// The `(column, half-step)` list advancing every cell of a cohort.
fn cohort_steps(n_cells: usize) -> Vec<(usize, f64)> {
    (0..n_cells).map(|j| (j, cell_half_step(j))).collect()
}

const COHORTS: [usize; 4] = [1, 8, 64, 256];

fn paper_network() -> ThermalNetwork {
    let fp = Floorplan::for_machine(Machine::new(1, 4, 2));
    ThermalNetwork::from_floorplan(&fp, &PackageConfig::paper())
}

/// Cell `j`'s per-block interval power: every lane slightly different, so
/// the batched columns are not degenerate copies of each other.
fn cell_power(nb: usize, j: usize) -> Vec<f64> {
    (0..nb).map(|i| 0.2 + 0.05 * ((i + j) % 7) as f64).collect()
}

/// Column-major `nb × n_cells` power matrix the batch API consumes.
fn power_matrix(nb: usize, n_cells: usize) -> Vec<f64> {
    (0..n_cells).flat_map(|j| cell_power(nb, j)).collect()
}

/// A batch seeded like the sweep's cohorts: every column starts from its
/// own cell's warm (steady-state) temperatures.
fn seeded_batch(net: &ThermalNetwork, n_cells: usize) -> BatchPropagator {
    let mut batch = BatchPropagator::new(net.clone(), n_cells);
    for j in 0..n_cells {
        let steady =
            ExpPropagator::new(net.clone()).solve_steady(&cell_power(net.block_count(), j));
        batch.set_column(j, &steady);
    }
    batch
}

/// Asserts the batched columns stay bit-identical to N serial advances —
/// the contract the sweep's report equality rests on, checked here so a
/// perf-motivated kernel change can never silently trade bits for speed.
fn assert_bit_identity(net: &ThermalNetwork) {
    let nb = net.block_count();
    let n_cells = 8;
    let mut batch = seeded_batch(net, n_cells);
    let powers = power_matrix(nb, n_cells);
    let mut serial: Vec<ExpPropagator> = (0..n_cells)
        .map(|j| {
            let mut p = ExpPropagator::new(net.clone());
            p.set_temperatures(batch.column(j).to_vec());
            p
        })
        .collect();
    for step in 0..6 {
        // Every column on its own half-step, and a mid-run stretch (a
        // throttled interval) on top.
        let stretch = if step == 3 { 2.0 } else { 1.0 };
        let steps: Vec<(usize, f64)> = cohort_steps(n_cells)
            .into_iter()
            .map(|(j, h)| (j, h * stretch))
            .collect();
        batch.advance_columns(&powers, &steps);
        for &(j, h) in &steps {
            serial[j].advance(&powers[j * nb..(j + 1) * nb], h);
        }
    }
    for (j, p) in serial.iter().enumerate() {
        for (i, (b, s)) in batch.column(j).iter().zip(p.temperatures()).enumerate() {
            assert_eq!(
                b.to_bits(),
                s.to_bits(),
                "cell {j} node {i}: batch {b} vs serial {s}"
            );
        }
    }
    println!("bit-identity: {n_cells} batched columns == serial advances, bit for bit");
}

/// Times `advances` calls of `advance` and returns ns per *cell*-advance.
fn time_cell_advances(mut advance: impl FnMut(), advances: u32, cells: usize) -> f64 {
    advance();
    let t0 = Instant::now();
    for _ in 0..advances {
        advance();
    }
    t0.elapsed().as_secs_f64() * 1e9 / f64::from(advances) / cells as f64
}

fn comparison() {
    let net = paper_network();
    let nb = net.block_count();
    assert_bit_identity(&net);

    let advances = 2_000u32;
    let mut serial = ExpPropagator::new(net.clone());
    let power = cell_power(nb, 0);
    serial.set_steady_state(&power);
    let serial_ns = time_cell_advances(|| serial.advance(&power, cell_half_step(0)), advances, 1);

    let mut lines = String::new();
    let mut batched_ns = Vec::new();
    for &n_cells in &COHORTS {
        let mut batch = seeded_batch(&net, n_cells);
        let powers = power_matrix(nb, n_cells);
        let steps = cohort_steps(n_cells);
        // Scale the call count so every cohort size does comparable work.
        let calls = (advances / n_cells as u32).max(8);
        let ns = time_cell_advances(|| batch.advance_columns(&powers, &steps), calls, n_cells);
        lines.push_str(&format!(
            "  cohort {n_cells:>3}: {ns:>7.0} ns/cell-advance ({:.1}x vs serial)\n",
            serial_ns / ns
        ));
        batched_ns.push((n_cells, ns));
    }
    println!(
        "\nbatched lockstep advance ({} nodes, ~{HALF_INTERVAL_S} s half-steps, one per column):\n\
           serial     : {serial_ns:>7.0} ns/cell-advance\n{lines}",
        net.node_count()
    );

    let at = |n: usize| {
        batched_ns
            .iter()
            .find(|(c, _)| *c == n)
            .map(|(_, ns)| *ns)
            .expect("cohort size measured")
    };
    let json = format!(
        "{{\n  \"bench\": \"batched_lockstep_advance\",\n  \"nodes\": {},\n  \
         \"nominal_half_step_s\": {HALF_INTERVAL_S},\n  \"distinct_half_steps\": 17,\n  \
         \"serial_ns_per_cell_advance\": {serial_ns:.1},\n  \
         \"batched_ns_per_cell_advance\": {{\n    \"1\": {:.1},\n    \"8\": {:.1},\n    \
         \"64\": {:.1},\n    \"256\": {:.1}\n  }},\n  \
         \"speedup_at_64\": {:.2},\n  \"speedup_at_256\": {:.2}\n}}\n",
        net.node_count(),
        at(1),
        at(8),
        at(64),
        at(256),
        serial_ns / at(64),
        serial_ns / at(256),
    );
    let path = std::env::var("DISTFRONT_BENCH_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batch.json").into());
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

fn bench(c: &mut Criterion) {
    comparison();
    let net = paper_network();
    let nb = net.block_count();

    c.bench_function("batch/serial_cell_advance", |b| {
        let mut serial = ExpPropagator::new(net.clone());
        let power = cell_power(nb, 0);
        serial.set_steady_state(&power);
        b.iter(|| {
            serial.advance(&power, cell_half_step(0));
            black_box(serial.block_temperatures()[0])
        })
    });
    for n_cells in [8usize, 64] {
        c.bench_function(&format!("batch/cohort_{n_cells}_advance"), |b| {
            let mut batch = seeded_batch(&net, n_cells);
            let powers = power_matrix(nb, n_cells);
            let steps = cohort_steps(n_cells);
            b.iter(|| {
                batch.advance_columns(&powers, &steps);
                black_box(batch.block_column(0)[0])
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(100);
    targets = bench
}
criterion_main!(benches);
