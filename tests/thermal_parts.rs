//! The process registry hands every cell the thermal parts of its machine
//! (network, LU factor, modal basis) instead of building them per cell.
//! The parts are a pure function of the machine shape and package, so a
//! propagator on registry parts must carry, to the bit, what one on a
//! fresh build carries: through the warm start and through the interval
//! steps real runs take.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Barrier};

use distfront::engine::{EngineCx, ThermalBackend};
use distfront::scenarios;
use distfront::CoupledEngine;
use distfront_power::Machine;
use distfront_thermal::{ExpPropagator, Floorplan, PackageConfig, ThermalNetwork, ThermalParts};
use distfront_trace::Workload;

/// One cell's thermal inputs: every power the warm start adopted, then
/// every `(block power, dt)` interval the loop advanced by.
#[derive(Default)]
struct CellInputs {
    warm: Vec<Vec<f64>>,
    intervals: Vec<(Vec<f64>, f64)>,
}

/// The production backend, keeping a copy of its inputs.
struct Recording {
    inner: ExpPropagator,
    log: Rc<RefCell<CellInputs>>,
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
        self.log.borrow_mut().warm.push(power.to_vec());
        self.inner.set_steady_state(power);
    }

    fn advance(&mut self, power: &[f64], dt: f64) {
        self.inner.advance(power, dt);
    }

    fn block_count(&self) -> usize {
        self.inner.network().block_count()
    }

    fn advance_interval(&mut self, power: &[f64], dt: f64, sample: &mut dyn FnMut(&[f64], f64)) {
        self.log.borrow_mut().intervals.push((power.to_vec(), dt));
        self.inner.advance_interval(power, dt, sample);
    }
}

/// Every distinct machine shape the scenario registry runs, with one of
/// its scenarios' configurations and workloads.
fn registry_machines() -> Vec<(Machine, distfront::ExperimentConfig, Workload)> {
    let mut seen: Vec<(Machine, distfront::ExperimentConfig, Workload)> = Vec::new();
    for scenario in scenarios::registry() {
        let cfg = scenario.config().with_uops(40_000);
        let workload = scenario.workloads(true).remove(0);
        let machine = EngineCx::build(&cfg, &workload, None, None)
            .expect("registered scenarios build")
            .machine;
        if seen.iter().all(|(m, _, _)| *m != machine) {
            seen.push((machine, cfg, workload));
        }
    }
    seen
}

/// The thermal inputs of one live cell on `cfg`.
fn record(cfg: &distfront::ExperimentConfig, workload: &Workload, machine: Machine) -> CellInputs {
    let log = Rc::new(RefCell::new(CellInputs::default()));
    let parts = ThermalParts::for_machine(machine, &PackageConfig::paper());
    CoupledEngine::for_workload(cfg, workload.clone())
        .with_thermal(Box::new(Recording {
            inner: ExpPropagator::with_parts(parts),
            log: Rc::clone(&log),
        }))
        .run()
        .expect("recorded cell runs");
    Rc::try_unwrap(log)
        .ok()
        .expect("engine dropped")
        .into_inner()
}

/// Parts built from scratch, bypassing the registry.
fn fresh(machine: Machine, pkg: &PackageConfig) -> Arc<ThermalParts> {
    let net = ThermalNetwork::from_floorplan(&Floorplan::for_machine(machine), pkg);
    Arc::new(ThermalParts::new(net))
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The bits a propagator on `parts` ends with after `inputs`, and after
/// every step on the way: warm start, then the recorded intervals,
/// alternately as one `advance_interval` and as two half-step
/// `advance` calls.
fn trajectory(parts: Arc<ThermalParts>, inputs: &CellInputs) -> Vec<Vec<u64>> {
    let mut s = ExpPropagator::with_parts(parts);
    let mut out = Vec::new();
    for p in &inputs.warm {
        s.set_steady_state(p);
        out.push(bits(s.temperatures()));
    }
    for (k, (power, dt)) in inputs.intervals.iter().enumerate() {
        if k % 2 == 0 {
            s.advance_interval(power, *dt, |t, _| out.push(bits(t)));
        } else {
            for _ in 0..2 {
                s.advance(power, dt / 2.0);
                out.push(bits(s.block_temperatures()));
            }
        }
    }
    out.push(bits(s.temperatures()));
    out
}

#[test]
fn registry_parts_step_like_a_fresh_build_on_every_scenario_machine() {
    let machines = registry_machines();
    assert!(machines.len() >= 4, "{} machine shapes", machines.len());
    let pkg = PackageConfig::paper();
    for (machine, cfg, workload) in &machines {
        let inputs = record(cfg, workload, *machine);
        assert!(!inputs.warm.is_empty() && inputs.intervals.len() > 1);
        let shared = ThermalParts::for_machine(*machine, &pkg);
        let built = fresh(*machine, &pkg);
        assert_eq!(shared.network(), built.network(), "{machine:?}: network");
        assert_eq!(
            trajectory(shared, &inputs),
            trajectory(built, &inputs),
            "{machine:?}: registry parts diverged from a fresh build"
        );
    }
}

/// `crates/thermal/tests/steady_solve.rs` checks the sparse steady-state
/// solve bit for bit on every shape with one or two partitions, two or
/// three banks and one to four backends; the registry must stay inside.
#[test]
fn registry_machines_are_within_the_solver_tests_shapes() {
    for (m, _, _) in registry_machines() {
        assert!(
            (1..=2).contains(&m.partitions)
                && (2..=3).contains(&m.tc_banks)
                && (1..=4).contains(&m.backends),
            "{m:?}"
        );
    }
}

#[test]
fn racing_first_requests_share_one_build() {
    // A package no other test asks for, so every thread's request is a
    // first request for this key.
    let pkg = PackageConfig {
        r_convection: 0.0751,
        ..PackageConfig::paper()
    };
    let machine = Machine::new(2, 4, 3);
    let threads = 4;
    let barrier = Barrier::new(threads);
    let got: Vec<Arc<ThermalParts>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    ThermalParts::for_machine(machine, &pkg)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let built = fresh(machine, &pkg);
    let power: Vec<f64> = (0..machine.block_count())
        .map(|i| 0.2 + 0.05 * (i % 7) as f64)
        .collect();
    let inputs = CellInputs {
        warm: vec![power.clone()],
        intervals: vec![(power.clone(), 1.3e-5), (power, 2.1e-5)],
    };
    let want = trajectory(built, &inputs);
    for parts in &got {
        assert!(Arc::ptr_eq(parts, &got[0]), "racers kept different builds");
        assert_eq!(trajectory(Arc::clone(parts), &inputs), want);
    }
}
