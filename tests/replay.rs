//! End-to-end tests of the trace record/replay pipeline: byte identity
//! between live, recorded and replayed scenario runs at several worker
//! counts, the per-cell live fallback, and the trace file round trip.

use std::sync::Arc;

use distfront::engine::{
    CoupledEngine, EngineError, ReplayBackend, SweepReport, SweepRunner, TraceMode, TraceStore,
};
use distfront::job::{JobEnv, JobReport, JobSpec, TraceSpec};
use distfront::scenarios::{self, Scenario, ScenarioRun};
use distfront::server::JobResponse;
use distfront::ExperimentConfig;
use distfront_trace::record::PointKey;
use distfront_trace::{ActivityTrace, AppProfile, Workload};

/// The JSON the CLI writes for scenario `s`'s report.
fn json_of(s: Scenario, report: &JobReport) -> String {
    scenarios::to_json(&[ScenarioRun::new(s, JobResponse::from(report)).unwrap()])
}

/// Executes scenario `name` on the smoke suite on `workers` workers,
/// with `trace` bound to `store`.
fn run(name: &str, workers: usize, trace: TraceSpec, store: &Arc<TraceStore>) -> JobReport {
    // 30 k uops: past the phased scenarios' 25 k-uop slice, so the phased
    // identity runs below actually cross a phase boundary.
    let env = JobEnv {
        traces: Arc::clone(store),
    };
    JobSpec::scenario(name)
        .with_smoke(true)
        .with_uops(30_000)
        .with_workers(workers)
        .with_trace(trace)
        .execute(&env, |_| {})
        .unwrap()
}

/// The acceptance contract: a recorded baseline smoke scenario replayed
/// through the `ReplayBackend` produces byte-identical CSV and JSON to
/// the live run, at 1, 2 and 5 workers — and the phased scenarios obey
/// the same contract.
#[test]
fn replayed_scenarios_are_byte_identical_to_live_at_1_2_5_workers() {
    for name in ["baseline", "phased-hot-cold"] {
        let scenario = scenarios::by_name(name).unwrap();
        let store = Arc::new(TraceStore::new());
        let live = run(name, 2, TraceSpec::Live, &store);
        let live_csv = scenarios::to_csv([&live]);
        let live_json = json_of(scenario, &live);

        // Recording taps must not change the run.
        let recorded = run(name, 2, TraceSpec::Record, &store);
        assert_eq!(recorded, live, "{name}: recording changed the results");
        assert_eq!(store.len(), live.report.cells().len());

        for workers in [1, 2, 5] {
            let replayed = run(name, workers, TraceSpec::Replay, &store);
            assert_eq!(
                replayed.report.replayed(),
                replayed.report.cells().len(),
                "{name}: not every cell replayed at {workers} workers"
            );
            assert_eq!(
                scenarios::to_csv([&replayed]),
                live_csv,
                "{name}: CSV diverged at {workers} workers"
            );
            assert_eq!(
                json_of(scenario, &replayed),
                live_json,
                "{name}: JSON diverged at {workers} workers"
            );
        }
    }
}

/// Replaying against an empty (or partial) store falls back to live
/// simulation per cell, with identical results and honest provenance.
#[test]
fn replay_falls_back_to_live_when_traces_are_missing() {
    let empty = Arc::new(TraceStore::new());
    let live = run("baseline", 2, TraceSpec::Live, &empty);
    let fallback = run("baseline", 2, TraceSpec::Replay, &empty);
    assert_eq!(fallback, live);
    assert_eq!(fallback.report.replayed(), 0, "nothing could have replayed");
    assert!(empty.is_empty(), "fallback must not record");
}

/// A replaying sweep whose configuration has no recording under its own
/// operating points runs live, and the direct engine API reports the
/// interval where the replay leaves the recorded path, naming the
/// operating point the trace never recorded.
#[test]
fn uncovered_dtm_policies_fall_back_and_name_the_missing_point() {
    use distfront::dtm::DvfsPolicy;
    use distfront::DtmSpec;

    // Record the plain baseline: the nominal key only.
    let store = Arc::new(TraceStore::new());
    let cfg = ExperimentConfig::baseline().with_uops(40_000);
    let apps = [Workload::from(*AppProfile::by_name("gzip").unwrap())];
    let recording = SweepRunner::serial()
        .with_trace_mode(TraceMode::Record(Arc::clone(&store)))
        .try_grid(std::slice::from_ref(&cfg), &apps);
    assert!(recording.is_complete());

    // The DVFS study shares the uarch side ("baseline" config name) but
    // is keyed by its clock-scaled point, which no recording carries:
    // its cells run live.
    let dvfs = ExperimentConfig::baseline()
        .with_uops(40_000)
        .with_dtm(DtmSpec::GlobalDvfs(DvfsPolicy::with_trip(40.0)));
    let replaying = SweepRunner::serial()
        .with_trace_mode(TraceMode::Replay(Arc::clone(&store)))
        .try_grid(std::slice::from_ref(&dvfs), &apps);
    assert!(replaying.is_complete());
    assert_eq!(replaying.replayed(), 0);
    assert_eq!(
        replaying.cells()[0].result,
        SweepRunner::serial()
            .try_grid(std::slice::from_ref(&dvfs), &apps)
            .cells()[0]
            .result
    );

    // Direct replay of the same pairing leaves the path at the first
    // interval the trip engages, and says so.
    let trace = store.get("baseline", "gzip", &[PointKey::Nominal]).unwrap();
    let err = CoupledEngine::for_workload(&dvfs, apps[0].clone())
        .with_replay(trace)
        .run()
        .unwrap_err();
    match err {
        EngineError::ReplayDiverged(msg) => assert!(
            msg.contains("dvfs(0.7x0.85)") && msg.contains("recorded nominal"),
            "missing point not named: {msg}"
        ),
        other => panic!("expected ReplayDiverged, got {other:?}"),
    }
}

/// A power-level DTM policy (the emergency throttle) IS replayable: a
/// trace recorded without DTM drives the throttled sweep, and the result
/// matches the live throttled run bit-for-bit on the unbiased baseline.
#[test]
fn power_level_dtm_sweeps_replay_from_a_nominal_recording() {
    use distfront::{DtmSpec, EmergencyPolicy};

    let store = Arc::new(TraceStore::new());
    let cfg = ExperimentConfig::baseline().with_uops(20_000);
    let apps = [
        Workload::from(AppProfile::test_tiny()),
        Workload::from(*AppProfile::by_name("gzip").unwrap()),
    ];
    SweepRunner::serial()
        .with_trace_mode(TraceMode::Record(Arc::clone(&store)))
        .try_grid(std::slice::from_ref(&cfg), &apps);

    // A trip below ambient guarantees the throttle engages every interval,
    // so this exercises the Throttle action on the replay path, not just
    // Nominal.
    let throttled = ExperimentConfig::baseline()
        .with_uops(20_000)
        .with_dtm(DtmSpec::Emergency(EmergencyPolicy::with_threshold(40.0)));
    let live = SweepRunner::serial().try_grid(std::slice::from_ref(&throttled), &apps);
    let replayed = SweepRunner::serial()
        .with_trace_mode(TraceMode::Replay(Arc::clone(&store)))
        .try_grid(std::slice::from_ref(&throttled), &apps);
    assert_eq!(
        replayed.replayed(),
        apps.len(),
        "throttle cells must replay"
    );
    assert_eq!(replayed, live);
    let r = replayed.cells()[0].result.as_ref().unwrap();
    assert!(r.throttled_intervals >= 1, "the throttle never engaged");
}

/// The full core-perturbing DTM ladder replays bit-identically from its
/// own recordings: DVFS, fetch-gate and migration sweeps record the
/// operating point each interval took and replay to the exact
/// live result.
#[test]
fn core_perturbing_dtm_ladder_replays_bit_identically() {
    use distfront::dtm::{DvfsPolicy, FetchGatePolicy, MigrationPolicy};
    use distfront::DtmSpec;

    // Trips low enough that every policy actually engages, so the replay
    // exercises the variant points, not just Nominal.
    let ladder: Vec<(&str, ExperimentConfig)> = vec![
        (
            "dvfs",
            ExperimentConfig::baseline()
                .with_uops(30_000)
                .with_dtm(DtmSpec::GlobalDvfs(DvfsPolicy::with_trip(50.0))),
        ),
        (
            "fetch-gate",
            ExperimentConfig::baseline()
                .with_uops(30_000)
                .with_dtm(DtmSpec::FetchGate(FetchGatePolicy::with_trip(50.0))),
        ),
        (
            "migration",
            ExperimentConfig::distributed_rename_commit()
                .with_uops(30_000)
                .with_dtm(DtmSpec::Migration(MigrationPolicy::with_trip(50.0))),
        ),
    ];
    let apps = [
        Workload::from(AppProfile::test_tiny()),
        Workload::from(*AppProfile::by_name("gzip").unwrap()),
    ];
    for (name, cfg) in &ladder {
        let store = Arc::new(TraceStore::new());
        let live = SweepRunner::serial().try_grid(std::slice::from_ref(cfg), &apps);
        let recorded = SweepRunner::serial()
            .with_trace_mode(TraceMode::Record(Arc::clone(&store)))
            .try_grid(std::slice::from_ref(cfg), &apps);
        assert_eq!(recorded, live, "{name}: recording perturbed the run");
        assert_eq!(store.len(), apps.len(), "{name}: traces not stored");
        // The policy must have engaged, or this test proves nothing.
        assert!(
            live.cells()
                .iter()
                .any(|c| c.result.as_ref().unwrap().throttled_intervals > 0),
            "{name}: the DTM policy never engaged; lower the trip"
        );
        for workers in [1, 2] {
            let replayed = SweepRunner::with_threads(workers)
                .with_trace_mode(TraceMode::Replay(Arc::clone(&store)))
                .try_grid(std::slice::from_ref(cfg), &apps);
            assert_eq!(
                replayed.replayed(),
                apps.len(),
                "{name}: not every cell replayed at {workers} workers"
            );
            assert_eq!(
                replayed, live,
                "{name}: replay diverged at {workers} workers"
            );
        }
    }
}

/// Core-side differences invisible to the shape check are still caught:
/// `bank-hopping` and `bh+ab` share seed, run length, interval, hopping
/// and machine shape, differing only in the trace-cache mapping policy —
/// the processor fingerprint must reject the swap.
#[test]
fn replay_rejects_same_shape_configs_that_differ_elsewhere_in_the_core() {
    let app = AppProfile::test_tiny();
    let bh = ExperimentConfig::bank_hopping().with_uops(20_000);
    let trace = Arc::new(CoupledEngine::new(&bh, &app).run_recorded().unwrap().1);

    let bhab = ExperimentConfig::hopping_and_biasing().with_uops(20_000);
    let err = CoupledEngine::new(&bhab, &app)
        .with_replay(Arc::clone(&trace))
        .run()
        .unwrap_err();
    match err {
        EngineError::ReplayIncompatible(msg) => assert!(
            msg.contains("fingerprint"),
            "expected a fingerprint mismatch, got: {msg}"
        ),
        other => panic!("expected ReplayIncompatible, got {other:?}"),
    }
    // The recording config itself still replays exactly.
    let replayed = CoupledEngine::new(&bh, &app)
        .with_replay(trace)
        .run()
        .unwrap();
    assert_eq!(replayed, distfront::run_app(&bh, &app));
}

/// A DTM policy installed through `with_dtm` (an arbitrary boxed object)
/// taints the recording: it cannot be proven power-level-only, so the
/// trace is marked not replay-safe and replaying it is refused.
#[test]
fn custom_with_dtm_policies_taint_recordings() {
    use distfront::{DtmSpec, EmergencyPolicy};
    use distfront_power::Machine;
    let cfg = ExperimentConfig::baseline().with_uops(20_000);
    let app = AppProfile::test_tiny();
    let ctrl =
        DtmSpec::Emergency(EmergencyPolicy::with_threshold(40.0)).build(Machine::new(1, 4, 2));
    let (_, trace) = CoupledEngine::new(&cfg, &app)
        .with_dtm(ctrl)
        .run_recorded()
        .unwrap();
    assert!(!trace.meta.replay_safe);
    assert_eq!(trace.meta.dtm.as_deref(), Some("custom"));
    let err = CoupledEngine::new(&cfg, &app)
        .with_replay(Arc::new(trace))
        .run()
        .unwrap_err();
    assert!(matches!(err, EngineError::ReplayIncompatible(_)), "{err:?}");
}

/// Recording sweeps under different DTM specs sharing one config name
/// store *separate* recordings keyed by their operating points instead of
/// clobbering each other: the no-DTM baseline recording and the
/// fetch-gate recording of the same (config, workload) cell coexist, and
/// each lookup finds exactly its own key.
#[test]
fn record_mode_keys_traces_by_capability_family() {
    use distfront::dtm::FetchGatePolicy;
    use distfront::DtmSpec;
    let store = Arc::new(TraceStore::new());
    let apps = [Workload::from(AppProfile::test_tiny())];

    let base = ExperimentConfig::baseline().with_uops(20_000);
    SweepRunner::serial()
        .with_trace_mode(TraceMode::Record(Arc::clone(&store)))
        .try_grid(std::slice::from_ref(&base), &apps);
    let safe = store
        .get("baseline", "tiny", &[PointKey::Nominal])
        .expect("baseline recorded");

    // The fetch-gate study shares the "baseline" config name; recording it
    // adds a second trace under its own key.
    let gated = ExperimentConfig::baseline()
        .with_uops(20_000)
        .with_dtm(DtmSpec::FetchGate(FetchGatePolicy::paper_limit()));
    let report = SweepRunner::serial()
        .with_trace_mode(TraceMode::Record(Arc::clone(&store)))
        .try_grid(std::slice::from_ref(&gated), &apps);
    assert!(report.is_complete());
    assert_eq!(store.len(), 2, "both keys must be stored");

    // A nominal request still gets the original baseline recording...
    let still = store.get("baseline", "tiny", &[PointKey::Nominal]).unwrap();
    assert!(
        Arc::ptr_eq(&safe, &still),
        "nominal recording was clobbered"
    );
    // ...and the fetch-gate key only the fetch-gate recording.
    let gate_points = gated.replay_points();
    assert!(gate_points.len() > 1, "fetch-gate must be actionable");
    let capable = store.get("baseline", "tiny", &gate_points).unwrap();
    assert!(!Arc::ptr_eq(&safe, &capable), "wrong recording served");
    assert_eq!(capable.meta.points, gate_points);
    // A key nobody recorded is never served, not even by a recording
    // whose points include it.
    for points in [&[PointKey::MigrateTo(0)][..], &gate_points[1..]] {
        assert!(store.get("baseline", "tiny", points).is_none());
    }
}

/// Traces survive the disk round trip bit-for-bit, and the decoded file
/// replays to the same result.
#[test]
fn trace_files_round_trip_through_disk() {
    let cfg = ExperimentConfig::baseline().with_uops(20_000);
    let app = AppProfile::test_tiny();
    let (live, trace) = CoupledEngine::new(&cfg, &app).run_recorded().unwrap();

    let path = std::env::temp_dir().join(format!("distfront-replay-{}.dft", std::process::id()));
    std::fs::write(&path, trace.encode()).unwrap();
    let decoded = ActivityTrace::decode(&std::fs::read(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(decoded, trace);

    let replayed = CoupledEngine::new(&cfg, &app)
        .with_replay(Arc::new(decoded))
        .run()
        .unwrap();
    assert_eq!(replayed, live);
}

/// Phased workloads flow through the whole engine surface: a phased cell
/// runs on the sweep, records, replays bit-identically, and reports under
/// its workload name.
#[test]
fn phased_workloads_record_and_replay_through_the_sweep() {
    use distfront_trace::PhasedProfile;
    let cfg = ExperimentConfig::baseline().with_uops(30_000);
    let tiny = AppProfile::test_tiny();
    let gzip = *AppProfile::by_name("gzip").unwrap();
    let workloads = [
        Workload::Single(tiny),
        Workload::Phased(PhasedProfile::alternating("tiny-gzip", tiny, gzip, 5_000)),
    ];
    let store = Arc::new(TraceStore::new());
    let live = SweepRunner::serial()
        .with_trace_mode(TraceMode::Record(Arc::clone(&store)))
        .try_grid(std::slice::from_ref(&cfg), &workloads);
    assert!(live.is_complete());
    assert_eq!(live.cells()[1].app_name, "tiny-gzip");
    assert_eq!(
        live.cells()[1].result.as_ref().unwrap().app,
        "tiny-gzip",
        "phased results carry the workload name"
    );
    let replayed = SweepRunner::with_threads(2)
        .with_trace_mode(TraceMode::Replay(Arc::clone(&store)))
        .try_grid(std::slice::from_ref(&cfg), &workloads);
    assert_eq!(replayed.replayed(), 2);
    assert_eq!(replayed, live);
}

/// The phased scenarios switch application every 25 k (`phased-hot-cold`)
/// or 20 k (`phased-ramp`) micro-ops, so at 20 k a phased row is its
/// first application alone. At 60 k every row crosses a phase boundary:
/// it must differ from its first application run alone, and its
/// recording must replay to the live bytes.
#[test]
fn phased_rows_cross_a_phase_boundary_and_replay_byte_identically() {
    const UOPS: u64 = 60_000;
    for name in ["phased-hot-cold", "phased-ramp"] {
        let scenario = scenarios::by_name(name).unwrap();
        let workloads = scenario.workloads(true);
        let cfg = scenario.config().with_uops(UOPS);
        let store = Arc::new(TraceStore::new());
        let spec = |trace| {
            JobSpec::scenario(name)
                .with_smoke(true)
                .with_uops(UOPS)
                .with_workers(2)
                .with_trace(trace)
        };
        let env = JobEnv {
            traces: Arc::clone(&store),
        };
        let live = spec(TraceSpec::Record).execute(&env, |_| {}).unwrap();
        assert_eq!(live.report.cells().len(), workloads.len());
        for (cell, workload) in live.report.cells().iter().zip(&workloads) {
            let Workload::Phased(phased) = workload else {
                panic!("{name}: {} is not phased", workload.name());
            };
            assert!(
                phased.phases[0].uops < UOPS,
                "{name}/{}: the first phase outlasts the run",
                workload.name()
            );
            let row = cell.result.as_ref().unwrap();
            let first = phased.phases[0].profile;
            let alone = CoupledEngine::for_workload(&cfg, Workload::Single(first))
                .run()
                .unwrap();
            assert_ne!(
                distfront::AppResult {
                    app: row.app,
                    ..alone
                },
                *row,
                "{name}/{}: the row equals {} alone",
                workload.name(),
                first.name
            );
        }
        let replayed = spec(TraceSpec::Replay).execute(&env, |_| {}).unwrap();
        assert_eq!(replayed.report.replayed(), workloads.len(), "{name}");
        assert_eq!(
            scenarios::to_csv([&replayed]),
            scenarios::to_csv([&live]),
            "{name}: replayed CSV diverged from live"
        );
    }
}

/// Records `a` and `b` over `apps` into separate stores, then replays
/// `b` from `a`'s recordings. The replay must equal `b` run live, and a
/// cell must replay exactly where `b` finds `a`'s recording under its own
/// key, validation accepts it and the two recordings took the same path
/// (the same operating point and bank temperatures every interval); the
/// rest run live. Returns the replay report and `b`'s live one.
fn cross_replay(
    a: &ExperimentConfig,
    b: &ExperimentConfig,
    apps: &[Workload],
) -> (SweepReport, SweepReport) {
    let record = |cfg: &ExperimentConfig| {
        let store = Arc::new(TraceStore::new());
        let report = SweepRunner::with_threads(2)
            .with_trace_mode(TraceMode::Record(Arc::clone(&store)))
            .try_grid(std::slice::from_ref(cfg), apps);
        assert!(report.is_complete(), "{}: recording failed", cfg.name);
        (store, report)
    };
    let (store_a, _) = record(a);
    let (store_b, live_b) = record(b);
    let replayed = SweepRunner::with_threads(2)
        .with_trace_mode(TraceMode::Replay(Arc::clone(&store_a)))
        .try_grid(std::slice::from_ref(b), apps);
    assert_eq!(replayed, live_b, "{}: replay diverged from live", b.name);
    for (cell, app) in replayed.cells().iter().zip(apps) {
        let path = |trace: &ActivityTrace| {
            trace
                .intervals
                .iter()
                .map(|r| (r.point, r.bank_temp_bits.clone()))
                .collect::<Vec<_>>()
        };
        let own = store_b
            .get(b.name, app.name(), &b.replay_points())
            .expect("every cell recorded");
        let replayable = store_a
            .get(b.name, app.name(), &b.replay_points())
            .filter(|t| ReplayBackend::validate(b, app, t).is_ok())
            .is_some_and(|t| path(&t) == path(&own));
        assert_eq!(
            cell.replayed,
            replayable,
            "{}: replayed {} where the recording {} replayable",
            cell.label(),
            cell.replayed,
            if replayable { "is" } else { "is not" }
        );
    }
    (replayed, live_b)
}

/// No DTM and the emergency throttle share the nominal key, and on the
/// unbiased baseline the throttle never changes what the core does: each
/// row replays every cell of the other's recording.
#[test]
fn no_dtm_and_throttle_rows_replay_each_others_recordings_on_the_baseline() {
    use distfront::{DtmSpec, EmergencyPolicy};
    let apps = spec_apps();
    let none = ExperimentConfig::baseline().with_uops(20_000);
    let throttle = none
        .clone()
        .with_dtm(DtmSpec::Emergency(EmergencyPolicy::with_threshold(40.0)));
    for (a, b) in [(&none, &throttle), (&throttle, &none)] {
        let (replayed, live) = cross_replay(a, b, &apps);
        assert_eq!(replayed.replayed(), apps.len());
        if b.dtm.is_some() {
            assert!(
                live.cells()
                    .iter()
                    .all(|c| c.result.as_ref().unwrap().throttled_intervals > 0),
                "the throttle must engage on every cell"
            );
        }
    }
}

/// On a temperature-biased trace-cache mapping the throttle's cooler
/// banks remap the trace cache, so a throttled row leaves a no-DTM
/// recording's path: it falls back to live where the throttle engaged,
/// and only there. A 40 °C trip engages on every cell; at 100 °C the
/// smoke suite's cool applications never trip and still replay.
#[test]
fn throttle_rows_on_biased_machines_fall_back_where_the_throttle_engaged() {
    use distfront::{DtmSpec, EmergencyPolicy};
    for none in [
        ExperimentConfig::hopping_and_biasing().with_uops(20_000),
        ExperimentConfig::combined().with_uops(20_000),
    ] {
        for (trip, apps) in [(40.0, spec_apps()), (100.0, smoke_apps())] {
            let throttle = none
                .clone()
                .with_dtm(DtmSpec::Emergency(EmergencyPolicy::with_threshold(trip)));
            let (replayed, live) = cross_replay(&none, &throttle, &apps);
            let engaged: Vec<bool> = live
                .cells()
                .iter()
                .map(|c| c.result.as_ref().unwrap().throttled_intervals > 0)
                .collect();
            let label = format!("{} at {trip} °C: engaged {engaged:?}", none.name);
            assert!(engaged.contains(&true), "{label}");
            assert_eq!(engaged.contains(&false), trip > 40.0, "{label}");
            for (cell, engaged) in replayed.cells().iter().zip(engaged) {
                assert!(
                    cell.replayed != engaged,
                    "{} at {trip} °C: replayed {} with the throttle {}",
                    cell.label(),
                    cell.replayed,
                    if engaged { "engaged" } else { "idle" }
                );
            }
        }
    }
}

/// Two DVFS trips on one core share the store key. A replay of one from
/// the other's recording leaves the path at the first interval where
/// their actions differ, and runs those cells live.
#[test]
fn dvfs_rows_with_other_trips_fall_back_at_the_first_divergent_interval() {
    use distfront::dtm::DvfsPolicy;
    use distfront::DtmSpec;
    let apps = smoke_apps();
    let trip = |c| {
        ExperimentConfig::baseline()
            .with_uops(40_000)
            .with_dtm(DtmSpec::GlobalDvfs(DvfsPolicy::with_trip(c)))
    };
    // gzip and tiny run above the paper's trip from the first interval;
    // only tiny stays above 120 °C.
    let (hot, cool) = (trip(DvfsPolicy::paper_limit().trip_c), trip(120.0));
    let (replayed, _) = cross_replay(&hot, &cool, &apps);
    assert!(replayed.replayed() > 0, "no cell shares a path");
    assert!(replayed.replayed() < apps.len(), "every cell shares a path");

    // The direct engine API names the first interval that differs.
    for app in &apps {
        let record = |cfg: &ExperimentConfig| {
            CoupledEngine::for_workload(cfg, app.clone())
                .run_recorded()
                .unwrap()
                .1
        };
        let (from, to) = (record(&hot), record(&cool));
        let first = from
            .intervals
            .iter()
            .zip(&to.intervals)
            .position(|(x, y)| x.point != y.point);
        let run = CoupledEngine::for_workload(&cool, app.clone())
            .with_replay(Arc::new(from))
            .run();
        match (first, run) {
            (None, Ok(_)) => {}
            (Some(i), Err(EngineError::ReplayDiverged(msg))) => assert!(
                msg.starts_with(&format!("interval {i}:")),
                "{}: {msg}",
                app.name()
            ),
            (first, run) => panic!("{}: first divergence {first:?}, got {run:?}", app.name()),
        }
    }
}

/// The pilot length sets the nominal power every interval is relative
/// to, so a trace recorded with another pilot fraction is rejected at
/// validation and its cells run live.
#[test]
fn a_pilot_fraction_mismatch_is_rejected_by_validate() {
    let apps = smoke_apps();
    let quarter = ExperimentConfig::baseline().with_uops(40_000);
    let half = ExperimentConfig {
        pilot_fraction: 0.5,
        ..quarter.clone()
    };
    let (replayed, _) = cross_replay(&quarter, &half, &apps);
    assert_eq!(replayed.replayed(), 0);
    let (_, trace) = CoupledEngine::for_workload(&quarter, apps[0].clone())
        .run_recorded()
        .unwrap();
    match ReplayBackend::validate(&half, &apps[0], &trace) {
        Err(EngineError::ReplayIncompatible(msg)) => {
            assert!(msg.contains("pilot_uops"), "{msg}")
        }
        other => panic!("expected ReplayIncompatible, got {other:?}"),
    }
}

/// The smoke suite's workloads.
fn smoke_apps() -> Vec<Workload> {
    scenarios::suite_apps(true)
        .into_iter()
        .map(Workload::from)
        .collect()
}

/// The 26 SPEC2000 workloads.
fn spec_apps() -> Vec<Workload> {
    AppProfile::spec2000()
        .iter()
        .copied()
        .map(Workload::from)
        .collect()
}
