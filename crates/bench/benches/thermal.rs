//! Transient-integrator benchmark: RK4 sub-stepping vs the exact modal
//! step, on the half-steps and powers real runs produce.
//!
//! The inputs are recorded, not invented: a handful of live cells
//! (baseline and global DVFS on three SPEC applications) run through the
//! engine with a recording thermal backend, which keeps every
//! `(power, dt)` interval the loop hands the thermal model. Interval
//! lengths follow whole-trace overshoot and DTM stretching, so nearly
//! every half-step size is distinct, as in production. Before the
//! Criterion timing loops run, both integrators replay those sequences
//! head-to-head as half-step `advance` calls, and the modal kernel also
//! as whole intervals through `advance_interval` (one prepared step
//! applied twice, the primitive the interval loops call). The numbers are
//! written to `BENCH_thermal.json` at the workspace root (override the
//! path with `DISTFRONT_BENCH_JSON`), so CI tracks the interval-advance
//! cost across PRs. Runs in `--test` mode too.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use distfront::engine::{CoupledEngine, ThermalBackend};
use distfront::{DtmSpec, DvfsPolicy, ExperimentConfig};
use distfront_power::Machine;
use distfront_thermal::{
    ExpPropagator, Floorplan, ModalBasis, PackageConfig, ThermalNetwork, ThermalSolver,
};
use distfront_trace::{AppProfile, Workload};
use std::hint::black_box;

/// Per-app run length of the recorded cells (`DISTFRONT_BENCH_UOPS`
/// overrides it).
fn uops() -> u64 {
    std::env::var("DISTFRONT_BENCH_UOPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000)
}

fn paper_network() -> ThermalNetwork {
    let fp = Floorplan::for_machine(Machine::new(1, 4, 2));
    ThermalNetwork::from_floorplan(&fp, &PackageConfig::paper())
}

/// One cell's thermal inputs: the warm-start power and every
/// `(block power, interval length)` the interval loop advanced by.
struct CellSteps {
    warm: Vec<f64>,
    intervals: Vec<(Vec<f64>, f64)>,
}

/// The production backend, keeping a copy of its inputs.
struct Recording {
    inner: ExpPropagator,
    cell: Rc<RefCell<CellSteps>>,
}

impl ThermalBackend for Recording {
    fn block_temperatures(&self) -> &[f64] {
        self.inner.block_temperatures()
    }

    fn node_temperatures(&self) -> &[f64] {
        self.inner.temperatures()
    }

    fn set_node_temperatures(&mut self, t: Vec<f64>) {
        self.inner.set_temperatures(t);
    }

    fn steady_state(&mut self, power: &[f64]) {
        self.cell.borrow_mut().warm = power.to_vec();
        self.inner.set_steady_state(power);
    }

    fn advance(&mut self, power: &[f64], dt: f64) {
        self.inner.advance(power, dt);
    }

    fn block_count(&self) -> usize {
        self.inner.network().block_count()
    }

    fn advance_interval(&mut self, power: &[f64], dt: f64, sample: &mut dyn FnMut(&[f64], f64)) {
        self.cell.borrow_mut().intervals.push((power.to_vec(), dt));
        self.inner.advance_interval(power, dt, sample);
    }
}

/// Records the thermal inputs of baseline and global-DVFS cells on three
/// applications of different thermal character.
fn record_cells(net: &ThermalNetwork) -> Vec<CellSteps> {
    let configs = [
        ExperimentConfig::baseline().with_uops(uops()),
        ExperimentConfig::baseline()
            .with_uops(uops())
            .with_dtm(DtmSpec::GlobalDvfs(DvfsPolicy::paper_limit())),
    ];
    let mut cells = Vec::new();
    for cfg in &configs {
        for app in ["gzip", "mcf", "swim"] {
            let profile = *AppProfile::by_name(app).expect("profile exists");
            let cell = Rc::new(RefCell::new(CellSteps {
                warm: Vec::new(),
                intervals: Vec::new(),
            }));
            CoupledEngine::for_workload(cfg, Workload::Single(profile))
                .with_thermal(Box::new(Recording {
                    inner: ExpPropagator::new(net.clone()),
                    cell: Rc::clone(&cell),
                }))
                .run()
                .expect("recorded cell runs");
            cells.push(
                Rc::try_unwrap(cell)
                    .ok()
                    .expect("engine dropped")
                    .into_inner(),
            );
        }
    }
    cells
}

/// Replays every recorded cell's intervals through `interval` (after a
/// warm start) until at least `min_intervals` ran; returns ns per
/// interval.
fn time_replay<S>(
    cells: &[CellSteps],
    min_intervals: usize,
    mut start: impl FnMut(&[f64]) -> S,
    mut interval: impl FnMut(&mut S, &[f64], f64),
) -> f64 {
    let mut intervals = 0usize;
    let mut ns = 0.0;
    while intervals < min_intervals {
        for cell in cells {
            let mut solver = start(&cell.warm);
            let t0 = Instant::now();
            for (power, dt) in &cell.intervals {
                interval(&mut solver, power, *dt);
            }
            ns += t0.elapsed().as_secs_f64() * 1e9;
            intervals += cell.intervals.len();
            black_box(&mut solver);
        }
    }
    ns / intervals as f64
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn comparison(net: &ThermalNetwork, cells: &[CellSteps]) {
    let per_cell =
        2.0 * cells.iter().map(|c| c.intervals.len()).sum::<usize>() as f64 / cells.len() as f64;
    let distinct = cells
        .iter()
        .map(|c| {
            c.intervals
                .iter()
                .map(|(_, dt)| (dt / 2.0).to_bits())
                .collect::<HashSet<_>>()
                .len()
        })
        .sum::<usize>() as f64
        / cells.len() as f64;
    let min_intervals = 2_000;
    let modal_start = |warm: &[f64]| {
        let mut s = ExpPropagator::new(net.clone());
        s.set_steady_state(warm);
        s
    };
    let rk4_start = |warm: &[f64]| {
        let mut s = ThermalSolver::new(net.clone());
        s.set_steady_state(warm);
        s
    };
    // The host's speed drifts over a run, so the three kernels take turns
    // for several rounds and each reports its median round.
    let (mut modal, mut interval, mut rk4) = (Vec::new(), Vec::new(), Vec::new());
    for _round in 0..7 {
        // Half-step by half-step: two `advance` calls per interval.
        modal.push(
            time_replay(cells, min_intervals, modal_start, |s, p, dt| {
                s.advance(p, dt / 2.0);
                s.advance(p, dt / 2.0);
            }) / 2.0,
        );
        interval.push(time_replay(
            cells,
            min_intervals,
            modal_start,
            |s, p, dt| {
                s.advance_interval(p, dt, |t, _| {
                    black_box(t[0]);
                })
            },
        ));
        rk4.push(
            time_replay(cells, min_intervals, rk4_start, |s, p, dt| {
                s.advance(p, dt / 2.0);
                s.advance(p, dt / 2.0);
            }) / 2.0,
        );
    }
    let (modal_ns, modal_interval_ns, rk4_ns) =
        (median(&mut modal), median(&mut interval), median(&mut rk4));
    // The once-per-network, once-per-process cost of the modal kernel.
    let t0 = Instant::now();
    let basis = ModalBasis::new(net);
    let basis_us = t0.elapsed().as_secs_f64() * 1e6;

    let speedup = rk4_ns / modal_ns;
    println!(
        "\nthermal advance ({} nodes, {} recorded cells, {per_cell:.1} half-steps and \
         {distinct:.1} distinct sizes per cell): rk4 {rk4_ns:.0} ns | modal {modal_ns:.0} ns | \
         speedup {speedup:.1}x | modal interval {modal_interval_ns:.0} ns | \
         basis {basis_us:.0} us ({} Jacobi sweeps)\n",
        net.node_count(),
        cells.len(),
        basis.sweeps(),
    );

    let json = format!(
        "{{\n  \"bench\": \"thermal_interval_advance\",\n  \"nodes\": {},\n  \
         \"uops_per_cell\": {},\n  \"recorded_cells\": {},\n  \
         \"half_steps_per_cell\": {per_cell:.1},\n  \
         \"distinct_half_steps_per_cell\": {distinct:.1},\n  \
         \"rk4_ns_per_advance\": {rk4_ns:.1},\n  \"modal_ns_per_advance\": {modal_ns:.1},\n  \
         \"modal_ns_per_interval\": {modal_interval_ns:.1},\n  \
         \"speedup\": {speedup:.2},\n  \"modal_basis_us\": {basis_us:.0},\n  \
         \"jacobi_sweeps\": {}\n}}\n",
        net.node_count(),
        uops(),
        cells.len(),
        basis.sweeps(),
    );
    let path = std::env::var("DISTFRONT_BENCH_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_thermal.json").into()
    });
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

fn bench(c: &mut Criterion) {
    let net = paper_network();
    let cells = record_cells(&net);
    comparison(&net, &cells);
    // One recorded cell's intervals, cycled.
    let cell = &cells[0];

    c.bench_function("thermal/interval_advance_rk4", |b| {
        let mut solver = ThermalSolver::new(net.clone());
        solver.set_steady_state(&cell.warm);
        let mut steps = cell.intervals.iter().cycle();
        b.iter(|| {
            let (power, dt) = steps.next().expect("cycle");
            solver.advance(power, dt / 2.0);
            black_box(solver.block_temperatures()[0])
        })
    });
    c.bench_function("thermal/interval_advance_modal", |b| {
        let mut solver = ExpPropagator::new(net.clone());
        solver.set_steady_state(&cell.warm);
        let mut steps = cell.intervals.iter().cycle();
        b.iter(|| {
            let (power, dt) = steps.next().expect("cycle");
            solver.advance(power, dt / 2.0);
            black_box(solver.block_temperatures()[0])
        })
    });
    c.bench_function("thermal/interval_modal", |b| {
        let mut solver = ExpPropagator::new(net.clone());
        solver.set_steady_state(&cell.warm);
        let mut steps = cell.intervals.iter().cycle();
        b.iter(|| {
            let (power, dt) = steps.next().expect("cycle");
            solver.advance_interval(power, *dt, |t, _| {
                black_box(t[0]);
            });
            black_box(solver.block_temperatures()[0])
        })
    });
    c.bench_function("thermal/modal_basis", |b| {
        b.iter(|| black_box(ModalBasis::new(&net).sweeps()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(200);
    targets = bench
}
criterion_main!(benches);
