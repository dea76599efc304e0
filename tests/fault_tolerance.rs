//! Integration tests for the fault-tolerant sweep executor: a failing
//! cell is an `Err` outcome — never a sweep-wide abort — and surviving
//! cells stay bit-identical at any worker count and on a rerun.

use std::sync::{Arc, Mutex};

use distfront::engine::{CoupledEngine, EngineError, SweepRunner};
use distfront::{run_app, ExperimentConfig};
use distfront_power::LeakageModel;
use distfront_trace::{AppProfile, Workload};

/// The paper's leakage calibration with the emergency cap removed: the
/// model caps the exponential at 381 K precisely because silicon past it
/// is in thermal runaway. Without the cap, the hot calibrated `tiny`
/// profile (which brushes the limit) has a leakage↔temperature feedback
/// gain above one and its warm start diverges, while cooler applications
/// (gzip, mcf) still converge — an app-selective failure from honest
/// physics, not a mock.
fn uncapped_leakage() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::baseline()
        .with_uops(40_000)
        .with_leakage(LeakageModel {
            emergency_c: f64::MAX,
            ..LeakageModel::paper()
        });
    cfg.name = "uncapped-leakage";
    cfg
}

fn singles(apps: &[AppProfile]) -> Vec<Workload> {
    apps.iter().copied().map(Workload::from).collect()
}

fn faulty_grid() -> (Vec<ExperimentConfig>, Vec<AppProfile>) {
    (
        vec![
            ExperimentConfig::baseline().with_uops(40_000),
            uncapped_leakage(),
        ],
        vec![
            AppProfile::test_tiny(),
            *AppProfile::by_name("gzip").unwrap(),
            *AppProfile::by_name("mcf").unwrap(),
        ],
    )
}

/// One divergent cell in a 2×3 grid: the other five cells succeed with
/// values bit-identical to their standalone runs, at 1, 2 and 5 workers.
#[test]
fn one_failing_cell_spares_the_other_five() {
    let (cfgs, apps) = faulty_grid();
    let serial = SweepRunner::serial().try_grid(&cfgs, &singles(&apps));
    assert_eq!(serial.shape(), (2, 3));
    assert_eq!(serial.failed(), 1, "exactly the hot uncapped cell fails");
    let failing = serial.cell(1, 0);
    assert_eq!(failing.label(), "uncapped-leakage/tiny");
    assert!(
        matches!(failing.result, Err(EngineError::NotConverged(_))),
        "expected NotConverged, got {:?}",
        failing.result
    );
    // Every surviving cell matches its standalone serial run exactly.
    for (c, cfg) in cfgs.iter().enumerate() {
        for (a, app) in apps.iter().enumerate() {
            if (c, a) == (1, 0) {
                continue;
            }
            assert_eq!(
                serial.cell(c, a).result.as_ref().unwrap(),
                &run_app(cfg, app),
                "cell [{c}][{a}]"
            );
        }
    }
    // Parallel reports are bit-identical to serial, error cell included.
    for workers in [2, 5] {
        let parallel = SweepRunner::with_threads(workers).try_grid(&cfgs, &singles(&apps));
        assert_eq!(serial, parallel, "{workers}-worker report diverged");
    }
}

/// The baseline and uncapped configurations share machine shape and
/// nominal power and differ only in leakage silicon. A second sweep of
/// the grid on the same runner re-fails the divergent cell identically
/// and changes nothing: no cell's warm start depends on another's, or on
/// an earlier sweep.
#[test]
fn a_second_sweep_on_the_same_runner_equals_the_first() {
    let (cfgs, apps) = faulty_grid();
    let runner = SweepRunner::serial();
    let first = runner.try_grid(&cfgs, &singles(&apps));
    assert_eq!(first.failed(), 1);
    let second = runner.try_grid(&cfgs, &singles(&apps));
    assert_eq!(first, second);
}

/// The strict path keeps its contract: the old panicking `grid` surface
/// lives behind an explicit `.strict()` and names the failed cell.
#[test]
#[should_panic(expected = "engine failed for uncapped-leakage/tiny")]
fn strict_grid_panics_naming_the_failed_cell() {
    let (cfgs, apps) = faulty_grid();
    SweepRunner::serial()
        .try_grid(&cfgs, &singles(&apps))
        .strict();
}

/// The streaming callback sees the failure too, in completion order, and
/// a partial consumer (e.g. the CLI's incremental CSV) can keep the five
/// good cells.
#[test]
fn on_cell_streams_failures_alongside_results() {
    let (cfgs, apps) = faulty_grid();
    let seen = Arc::new(Mutex::new(Vec::<(String, bool)>::new()));
    let sink = Arc::clone(&seen);
    let report = SweepRunner::with_threads(3)
        .with_on_cell(move |cell| {
            sink.lock()
                .unwrap()
                .push((cell.label(), cell.result.is_ok()));
        })
        .try_grid(&cfgs, &singles(&apps));
    let mut streamed = seen.lock().unwrap().clone();
    streamed.sort();
    assert_eq!(streamed.len(), 6, "every cell streamed exactly once");
    assert_eq!(
        streamed.iter().filter(|(_, ok)| !ok).count(),
        1,
        "the one failure streamed"
    );
    assert_eq!(report.failed(), 1);
}

/// A single engine run is the one-cell twin of the per-cell semantics.
#[test]
fn engine_run_surfaces_the_error_run_app_would_panic_on() {
    let err = CoupledEngine::new(&uncapped_leakage(), &AppProfile::test_tiny())
        .run()
        .unwrap_err();
    assert!(matches!(err, EngineError::NotConverged(_)));
    let ok = CoupledEngine::new(&uncapped_leakage(), AppProfile::by_name("mcf").unwrap())
        .run()
        .unwrap();
    assert_eq!(
        ok,
        run_app(&uncapped_leakage(), AppProfile::by_name("mcf").unwrap())
    );
}
