//! Integration tests for the staged engine refactor: the LU-factored
//! steady-state solve, the parallel sweep executor, and the per-cell
//! warm start — all exercised through the public API.

use distfront::engine::{CoupledEngine, SweepRunner};
use distfront::engine::{DtmAction, DtmPolicy, EngineCx, EngineError, PilotStage, Stage};
use distfront::{run_app, ExperimentConfig};
use distfront_power::Machine;
use distfront_thermal::{Floorplan, PackageConfig, ThermalNetwork, ThermalSolver};
use distfront_trace::{AppProfile, Workload};

fn singles(apps: &[AppProfile]) -> Vec<Workload> {
    apps.iter().copied().map(Workload::from).collect()
}

/// The strict `result[config][app]` grid on `runner`.
fn grid(
    runner: &SweepRunner,
    configs: &[ExperimentConfig],
    apps: &[AppProfile],
) -> Vec<Vec<distfront::AppResult>> {
    runner.try_grid(configs, &singles(apps)).strict()
}

/// (a) The factored LU steady-state solve matches the single-shot
/// Gaussian-elimination reference to 1e-9 on every paper machine shape.
#[test]
fn lu_steady_state_matches_gaussian_reference() {
    for (parts, backends, banks) in [(1, 4, 2), (1, 4, 3), (2, 4, 2), (2, 4, 3)] {
        let fp = Floorplan::for_machine(Machine::new(parts, backends, banks));
        let solver =
            ThermalSolver::new(ThermalNetwork::from_floorplan(&fp, &PackageConfig::paper()));
        let nb = solver.network().block_count();
        let power: Vec<f64> = (0..nb).map(|i| 0.05 + 0.07 * (i % 9) as f64).collect();
        let lu = solver.solve_steady(&power);
        let dense = solver.solve_steady_dense(&power);
        for (i, (a, b)) in lu.iter().zip(&dense).enumerate() {
            assert!(
                (a - b).abs() < 1e-9,
                "shape ({parts},{backends},{banks}) node {i}: LU {a} vs Gaussian {b}"
            );
        }
    }
}

/// (b) A parallel sweep of the grid is bit-identical to the serial path,
/// at several worker counts.
#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let configs = [
        ExperimentConfig::baseline().with_uops(40_000),
        ExperimentConfig::distributed_rename_commit().with_uops(40_000),
        ExperimentConfig::hopping_and_biasing().with_uops(40_000),
    ];
    let apps = [
        AppProfile::test_tiny(),
        *AppProfile::by_name("gzip").unwrap(),
        *AppProfile::by_name("mcf").unwrap(),
    ];
    let serial = grid(&SweepRunner::serial(), &configs, &apps);
    for workers in [2, 4, 8] {
        let parallel = grid(&SweepRunner::with_threads(workers), &configs, &apps);
        assert_eq!(serial, parallel, "{workers}-worker sweep diverged");
    }
    // And the grid agrees cell-by-cell with the one-cell entry point.
    for (c, cfg) in configs.iter().enumerate() {
        for (a, app) in apps.iter().enumerate() {
            assert_eq!(serial[c][a], run_app(cfg, app), "cell [{c}][{a}]");
        }
    }
}

/// More workers than cells: the runner clamps to the cell count instead of
/// spawning idle threads, and the results stay bit-identical to serial.
#[test]
fn worker_count_clamps_to_cell_count() {
    let configs = [ExperimentConfig::baseline().with_uops(30_000)];
    let apps = [
        AppProfile::test_tiny(),
        *AppProfile::by_name("gzip").unwrap(),
    ];
    let serial = grid(&SweepRunner::serial(), &configs, &apps);
    // 2 cells, way more threads than cells — including a count far above
    // any machine's parallelism.
    for workers in [3, 64, 1024] {
        let runner = SweepRunner::with_threads(workers);
        assert_eq!(runner.threads(), workers, "requested count is preserved");
        let swept = grid(&runner, &configs, &apps);
        assert_eq!(swept, serial, "{workers}-worker sweep of 2 cells diverged");
    }
    // Degenerate single cell under many workers.
    let one = grid(&SweepRunner::with_threads(16), &configs, &apps[..1]);
    assert_eq!(one[0][0], run_app(&configs[0], &apps[0]));
}

/// The figure tables ride on the sweep executor and keep their row output.
#[test]
fn figure_rows_unchanged_on_the_engine() {
    use distfront::FigureData;
    let apps = singles(&[AppProfile::test_tiny()]);
    let parallel = FigureData::collect(&SweepRunner::new(), &apps, 40_000).unwrap();
    let serial = FigureData::collect(&SweepRunner::serial(), &apps, 40_000).unwrap();
    assert_eq!(parallel, serial);
    let pr = parallel.figure12();
    assert_eq!(pr, serial.figure12());
    assert_eq!(pr.rows[0].label, "drc");
    assert_eq!(pr.rows[0].values.len(), 10);
    assert_eq!(parallel.tables(), serial.tables());
}

/// (d) The default (matrix-exponential) engine and the RK4 reference
/// engine agree on the physics: same committed work, temperatures within
/// the RK4 integrator's own error band. A hand-built RK4 solver plugged in
/// as a custom backend gives the RK4 engine's result exactly.
#[test]
fn expm_and_rk4_engines_agree_closely() {
    use distfront::Integrator;
    let app = AppProfile::test_tiny();
    let expm = run_app(
        &ExperimentConfig::baseline()
            .with_uops(60_000)
            .with_integrator(Integrator::Expm),
        &app,
    );
    let rk4_cfg = ExperimentConfig::baseline()
        .with_uops(60_000)
        .with_integrator(Integrator::Rk4);
    let rk4 = run_app(&rk4_cfg, &app);
    let pc = &rk4_cfg.processor;
    let fp = Floorplan::for_machine(Machine::new(
        pc.frontend_mode.partitions(),
        pc.backends,
        pc.trace_cache.physical_banks(),
    ));
    let custom = CoupledEngine::new(&rk4_cfg, &app)
        .with_thermal(Box::new(ThermalSolver::new(
            ThermalNetwork::from_floorplan(&fp, &PackageConfig::paper()),
        )))
        .run()
        .unwrap();
    assert_eq!(custom, rk4, "a custom backend equal to the default");
    assert_eq!(expm.uops, rk4.uops);
    assert!(
        (expm.temps.processor.abs_max_c - rk4.temps.processor.abs_max_c).abs() < 0.1,
        "peak: expm {} vs rk4 {}",
        expm.temps.processor.abs_max_c,
        rk4.temps.processor.abs_max_c
    );
    assert!((expm.temps.processor.average_c - rk4.temps.processor.average_c).abs() < 0.1);
    assert!((expm.avg_power_w - rk4.avg_power_w).abs() / rk4.avg_power_w < 1e-3);
}

/// (e) A warm start whose leakage↔temperature fixed point diverges is an
/// error, and the same cell with the stock leakage model then runs to
/// the standalone result: a failed warm start leaves nothing behind.
#[test]
fn non_converged_warm_start_is_an_error_and_never_cached() {
    use distfront::engine::{EngineCx, EngineError, Stage, WarmStartStage};
    use distfront::engine::{IntervalLoopStage, PilotStage};
    use distfront_power::LeakageModel;

    /// Installs a leakage model whose feedback gain exceeds one with no
    /// emergency cap: every fixed-point iteration heats the chip further,
    /// so the warm start can never settle.
    struct DivergentLeakage;
    impl Stage for DivergentLeakage {
        fn name(&self) -> &'static str {
            "divergent-leakage"
        }
        fn run(&mut self, cx: &mut EngineCx<'_>) -> Result<(), EngineError> {
            cx.model.set_leakage_model(LeakageModel {
                ratio_at_ambient: 6.0,
                doubling_celsius: 4.0,
                emergency_c: f64::MAX,
                ..LeakageModel::paper()
            });
            Ok(())
        }
    }

    let cfg = ExperimentConfig::baseline().with_uops(30_000);
    let app = AppProfile::test_tiny();
    let err = CoupledEngine::new(&cfg, &app)
        .with_stages(vec![
            Box::new(PilotStage),
            Box::new(DivergentLeakage),
            Box::new(WarmStartStage),
            Box::new(IntervalLoopStage),
        ])
        .run()
        .unwrap_err();
    assert!(
        matches!(err, EngineError::NotConverged(_)),
        "expected NotConverged, got {err:?}"
    );

    // The same pipeline with the stock leakage model converges.
    let ok = CoupledEngine::new(&cfg, &app).run().unwrap();
    assert_eq!(ok, run_app(&cfg, &app));
}

/// The pilot's half of a pipeline that hands no core to the interval
/// loop: the loop then builds its own and re-simulates the pilot's
/// prefix, the independent two-core path.
struct UnsharedPilot;

impl Stage for UnsharedPilot {
    fn name(&self) -> &'static str {
        "pilot"
    }

    fn run(&mut self, cx: &mut EngineCx<'_>) -> Result<(), EngineError> {
        PilotStage.run(cx)?;
        cx.pilot_core = None;
        Ok(())
    }
}

/// (f) A warm start under a non-finite nominal power (+∞ or NaN) fails
/// instead of adopting it. The sparse steady-state solve skips the zeros
/// of its factors, so a non-finite power no longer spreads to every node;
/// it still reaches a block, and the fixed point's finiteness check then
/// refuses to settle.
#[test]
fn a_non_finite_nominal_power_fails_the_warm_start() {
    use distfront::engine::WarmStartStage;

    let app = Workload::from(AppProfile::test_tiny());
    for cfg in [ExperimentConfig::baseline(), ExperimentConfig::combined()] {
        let mut cx = EngineCx::build(&cfg, &app, None, None).unwrap();
        let nb = cx.machine.block_count();
        for bad in [f64::INFINITY, f64::NAN] {
            for block in [0, nb / 2, nb - 1] {
                let mut nominal = vec![0.5; nb];
                nominal[block] = bad;
                cx.nominal = Some(nominal);
                let err = WarmStartStage.run(&mut cx).unwrap_err();
                assert!(
                    matches!(err, EngineError::NotConverged(_)),
                    "{}: a power of {bad} on block {block}: {err:?}",
                    cfg.name
                );
            }
        }
    }
}

/// The default pipeline with [`UnsharedPilot`] in place of the pilot.
fn independent_stages() -> Vec<Box<dyn Stage>> {
    use distfront::engine::{IntervalLoopStage, WarmStartStage};
    vec![
        Box::new(UnsharedPilot),
        Box::new(WarmStartStage),
        Box::new(IntervalLoopStage),
    ]
}

/// Every registered scenario at smoke length gives the same result
/// whether the interval loop resumes the pilot's core or builds its own.
#[test]
fn shared_pilot_core_equals_independent_cores() {
    use distfront::scenarios::{registry, SMOKE_UOPS};
    for scenario in registry() {
        let cfg = scenario.config().with_uops(SMOKE_UOPS);
        for workload in scenario.workloads(true) {
            let shared = CoupledEngine::for_workload(&cfg, workload.clone()).run();
            let independent = CoupledEngine::for_workload(&cfg, workload.clone())
                .with_stages(independent_stages())
                .run();
            assert_eq!(
                shared,
                independent,
                "{} / {}",
                scenario.name,
                workload.name()
            );
        }
    }
}

/// A DTM policy scripted by boundary: `script(k)` is the action for the
/// interval that starts at boundary `k` (the first decision is for
/// boundary 1).
struct Scripted<F> {
    script: F,
    boundary: usize,
    engaged: u64,
}

impl<F: FnMut(usize) -> DtmAction> DtmPolicy for Scripted<F> {
    fn decide(&mut self, _temps_c: &[f64]) -> DtmAction {
        self.boundary += 1;
        let action = (self.script)(self.boundary);
        if action != DtmAction::Nominal {
            self.engaged += 1;
        }
        action
    }

    fn triggers(&self) -> u64 {
        0
    }

    fn throttled_intervals(&self) -> u64 {
        self.engaged
    }
}

fn scripted(script: impl FnMut(usize) -> DtmAction + 'static) -> Box<dyn DtmPolicy> {
    Box::new(Scripted {
        script,
        boundary: 0,
        engaged: 0,
    })
}

/// Whole intervals the baseline pilot runs before its budget runs out
/// inside one: the pilot's last boundary.
fn pilot_whole_intervals(cfg: &ExperimentConfig, app: &AppProfile) -> usize {
    use distfront_uarch::Simulator;
    let mut sim = Simulator::new(cfg.processor.clone(), app, cfg.seed);
    let mut whole = 0;
    loop {
        let target = sim.current_cycle() + cfg.interval_cycles;
        if sim.step(target, cfg.pilot_uops()).done {
            return whole;
        }
        whole += 1;
    }
}

/// Policies that act inside the pilot's prefix. DVFS perturbs the core,
/// so the loop drops the pilot's core and re-steps a fresh one: first at
/// boundary 1, at the pilot's last boundary, and just after it. A
/// throttle acts on power only and keeps the pilot's core. Each equals
/// the independent two-core run.
#[test]
fn dtm_inside_the_pilot_prefix_equals_independent_cores() {
    let dvfs = DtmAction::Dvfs {
        f_scale: 0.7,
        v_scale: 0.85,
    };
    // Short intervals, so the pilot closes several before its budget
    // runs out.
    let cfg = ExperimentConfig {
        interval_cycles: 2_000,
        ..ExperimentConfig::baseline().with_uops(40_000)
    };
    for name in ["gzip", "mcf"] {
        let app = *AppProfile::by_name(name).unwrap();
        let last = pilot_whole_intervals(&cfg, &app);
        assert!(last >= 2, "{name}: pilot closed only {last} intervals");
        let run = |dtm: &dyn Fn() -> Box<dyn DtmPolicy>| {
            let shared = CoupledEngine::new(&cfg, &app).with_dtm(dtm()).run();
            let independent = CoupledEngine::new(&cfg, &app)
                .with_dtm(dtm())
                .with_stages(independent_stages())
                .run();
            assert_eq!(shared, independent, "{name}");
            shared.unwrap()
        };
        for first in [1, last, last + 1] {
            let r = run(&|| {
                scripted(move |k| {
                    if k >= first && k % 3 != 0 {
                        dvfs
                    } else {
                        DtmAction::Nominal
                    }
                })
            });
            assert!(
                r.throttled_intervals > 0,
                "{name}: DVFS at {first} never acted"
            );
        }
        let r = run(&|| {
            scripted(|k| {
                if k % 2 == 1 {
                    DtmAction::Throttle(0.5)
                } else {
                    DtmAction::Nominal
                }
            })
        });
        assert!(
            r.throttled_intervals > 0,
            "{name}: the throttle never acted"
        );
    }
}

/// The pilot hands its core to the loop where the loop's prefix is the
/// pilot's: on the baseline, live or recorded at one point. It keeps it
/// where the mapping follows temperature (`drc+bh+ab`) or where a
/// recording probes several points per boundary (`dtm-dvfs`).
#[test]
fn pilot_hands_off_its_core_only_on_eligible_cells() {
    use distfront::engine::{IntervalLoopStage, TraceRecorder, WarmStartStage};
    use distfront::scenarios::by_name;
    use distfront_trace::Workload;
    use std::cell::Cell;
    use std::rc::Rc;

    /// Notes whether the pilot left a core in the context.
    struct Observer(Rc<Cell<Option<bool>>>);
    impl Stage for Observer {
        fn name(&self) -> &'static str {
            "observer"
        }
        fn run(&mut self, cx: &mut EngineCx<'_>) -> Result<(), EngineError> {
            self.0.set(Some(cx.pilot_core.is_some()));
            Ok(())
        }
    }

    let app = AppProfile::test_tiny();
    let handed_off = |cfg: &ExperimentConfig| {
        let seen = Rc::new(Cell::new(None));
        let observed = CoupledEngine::new(cfg, &app)
            .with_stages(vec![
                Box::new(PilotStage),
                Box::new(Observer(Rc::clone(&seen))),
                Box::new(WarmStartStage),
                Box::new(IntervalLoopStage),
            ])
            .run()
            .unwrap();
        assert_eq!(observed, run_app(cfg, &app), "{}", cfg.name);
        seen.get().expect("observer ran")
    };
    let cfg = |name| by_name(name).unwrap().config().with_uops(40_000);
    assert!(handed_off(&cfg("baseline")));
    assert!(!handed_off(&cfg("drc+bh+ab")));

    // Recordings install their recorder before the pilot runs.
    let workload = Workload::Single(app);
    let recorded_hand_off = |cfg: &ExperimentConfig| {
        let mut cx = EngineCx::build(cfg, &workload, None, None).unwrap();
        let recorder = TraceRecorder::new(cfg, &workload, false);
        let points = recorder.family().len();
        cx.recorder = Some(recorder);
        PilotStage.run(&mut cx).unwrap();
        (points, cx.pilot_core.is_some())
    };
    assert_eq!(recorded_hand_off(&cfg("baseline")), (1, true));
    let (points, kept) = recorded_hand_off(&cfg("dtm-dvfs"));
    assert!(points > 1, "dtm-dvfs records {points} point(s)");
    assert!(!kept, "a multi-point recording took the pilot's core");
}
