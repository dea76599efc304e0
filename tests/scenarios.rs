//! Integration tests for the scenario subsystem and the DTM policy
//! library: the registry is runnable end-to-end, scenario output is
//! byte-identical at any worker count, and each new policy produces its
//! paper-shaped effect on a hot workload.

use distfront::job::{JobEnv, JobReport, JobSpec};
use distfront::scenarios::{self, Scenario, ScenarioRun};
use distfront::server::JobResponse;
use distfront::{
    run_app, AppResult, DtmSpec, DvfsPolicy, ExperimentConfig, FetchGatePolicy, MigrationPolicy,
};
use distfront_trace::AppProfile;

/// The JSON the CLI writes for scenario `s`'s report.
fn json_of(s: Scenario, report: &JobReport) -> String {
    scenarios::to_json(&[ScenarioRun::new(s, JobResponse::from(report)).unwrap()])
}

/// Executes scenario `name` on the smoke suite at 30 k micro-ops per
/// application, with `integrator` on `workers` workers.
fn smoke_run(name: &str, integrator: distfront::Integrator, workers: usize) -> JobReport {
    JobSpec::scenario(name)
        .with_smoke(true)
        .with_uops(30_000)
        .with_integrator(integrator)
        .with_workers(workers)
        .execute(&JobEnv::default(), |_| {})
        .unwrap()
}

/// A short hot run of `cfg` on the test profile.
fn quick(cfg: ExperimentConfig) -> AppResult {
    run_app(&cfg.with_uops(60_000), &AppProfile::test_tiny())
}

#[test]
fn registry_names_at_least_six_runnable_scenarios() {
    let reg = scenarios::registry();
    assert!(reg.len() >= 6, "only {} scenarios", reg.len());
    for s in &reg {
        s.config()
            .validate()
            .unwrap_or_else(|e| panic!("{}: {e}", s.name));
    }
}

#[test]
fn scenario_csv_is_byte_identical_across_worker_counts() {
    // A plain scenario and a DTM scenario (policy state is rebuilt per
    // cell, so it must not leak across workers).
    for name in ["drc", "dtm-emergency", "dtm-dvfs"] {
        let run = |workers| scenarios::to_csv([&smoke_run(name, Default::default(), workers)]);
        let serial = run(1);
        for workers in [2, 5] {
            let parallel = run(workers);
            assert_eq!(serial, parallel, "{name} diverged at {workers} workers");
        }
    }
}

#[test]
fn dvfs_lowers_peak_temperature_on_the_hot_profile() {
    let free = quick(ExperimentConfig::baseline());
    let trip = free.temps.processor.abs_max_c - 2.0;
    let managed = quick(
        ExperimentConfig::baseline().with_dtm(DtmSpec::GlobalDvfs(DvfsPolicy::with_trip(trip))),
    );
    assert!(
        managed.temps.processor.abs_max_c < free.temps.processor.abs_max_c,
        "DVFS peak {} vs free {}",
        managed.temps.processor.abs_max_c,
        free.temps.processor.abs_max_c
    );
    assert!(
        managed.emergencies >= 1,
        "DVFS armed below the peak never engaged"
    );
    assert!(
        managed.wall_time_s > free.wall_time_s,
        "running slower must cost wall-clock time"
    );
}

#[test]
fn fetch_gating_cools_the_frontend_at_an_ipc_cost() {
    let free = quick(ExperimentConfig::baseline());
    let trip = free.temps.processor.abs_max_c - 2.0;
    let managed = quick(
        ExperimentConfig::baseline().with_dtm(DtmSpec::FetchGate(FetchGatePolicy::with_trip(trip))),
    );
    assert!(
        managed.emergencies >= 1,
        "gate armed below the peak never engaged"
    );
    assert!(
        managed.temps.frontend.abs_max_c < free.temps.frontend.abs_max_c,
        "gated frontend peak {} vs free {}",
        managed.temps.frontend.abs_max_c,
        free.temps.frontend.abs_max_c
    );
    assert!(
        managed.cycles > free.cycles,
        "fetch starvation must cost cycles: {} vs {}",
        managed.cycles,
        free.cycles
    );
}

#[test]
fn migration_narrows_the_partition_temperature_gap() {
    let free = quick(ExperimentConfig::distributed_rename_commit());
    // Well below the natural peak: the policy stays engaged.
    let trip = free.temps.processor.abs_max_c - 12.0;
    let managed = quick(ExperimentConfig::distributed_rename_commit().with_dtm(
        DtmSpec::Migration(MigrationPolicy {
            trip_c: trip,
            margin_c: 0.1,
        }),
    ));
    assert!(managed.throttled_intervals >= 1, "migration never engaged");
    // Migration may not lower the global peak (work lands somewhere), but
    // the RAT/ROB of the hot partition must shed heat relative to the
    // unmanaged run's hottest rename block.
    assert!(
        managed.temps.rat.abs_max_c < free.temps.rat.abs_max_c + 0.5,
        "migration heated the RAT: {} vs {}",
        managed.temps.rat.abs_max_c,
        free.temps.rat.abs_max_c
    );
}

#[test]
fn emergency_throttle_counts_continuous_violations_once() {
    // Integration-level twin of the unit test: a threshold far below the
    // operating range keeps the chip continuously over the limit, which
    // must register as ONE emergency spanning many throttled intervals.
    let r = quick(
        ExperimentConfig::baseline()
            .with_emergency(distfront::EmergencyPolicy::with_threshold(50.0)),
    );
    assert_eq!(
        r.emergencies, 1,
        "a continuous violation is a single emergency"
    );
    assert!(
        r.throttled_intervals > r.emergencies,
        "the single emergency spans every interval: {} throttled",
        r.throttled_intervals
    );
    assert!(r.over_limit_s > 0.0, "violation residency must be recorded");
}

#[test]
fn over_limit_residency_tracks_workload_heat() {
    // The calibrated test profile brushes the 381 K limit (the paper
    // reports peaks right at it); a memory-bound application idles the
    // frontend and never gets near it.
    let hot = quick(ExperimentConfig::baseline());
    assert!(hot.over_limit_s > 0.0, "hot run should brush the limit");
    assert!(hot.over_limit_s <= hot.wall_time_s + 1e-12);
    let cool = run_app(
        &ExperimentConfig::baseline().with_uops(60_000),
        AppProfile::by_name("mcf").unwrap(),
    );
    assert_eq!(cool.over_limit_s, 0.0, "mcf must stay legal");
}

#[test]
fn scenario_bytes_identical_across_workers_for_both_integrators() {
    use distfront::Integrator;
    // The integrator choice changes the numbers, never the determinism:
    // CSV and JSON stay byte-identical at 1, 2 and 5 workers under both
    // the matrix-exponential default and the RK4 reference.
    let s = scenarios::by_name("dtm-dvfs").unwrap();
    for integrator in [Integrator::Expm, Integrator::Rk4] {
        let serial = smoke_run(s.name, integrator, 1);
        let (csv1, json1) = (scenarios::to_csv([&serial]), json_of(s, &serial));
        for workers in [2, 5] {
            let parallel = smoke_run(s.name, integrator, workers);
            assert_eq!(
                csv1,
                scenarios::to_csv([&parallel]),
                "{integrator:?} CSV diverged at {workers} workers"
            );
            assert_eq!(
                json1,
                json_of(s, &parallel),
                "{integrator:?} JSON diverged at {workers} workers"
            );
        }
    }
}
