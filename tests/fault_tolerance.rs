//! Integration tests for the fault-tolerant sweep executor: a failing
//! cell is an `Err` outcome — never a sweep-wide abort — surviving cells
//! stay bit-identical at any worker count, and the warm-start cache's
//! hit/miss totals equal the first-occurrence counts of its keys.

use std::sync::{Arc, Mutex};

use distfront::engine::{CoupledEngine, EngineError, SweepRunner, WarmStartCache};
use distfront::{run_app, ExperimentConfig};
use distfront_power::{LeakageModel, Machine};
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

/// The cache key includes the leakage model: the baseline and uncapped
/// configurations share machine shape and nominal power, so a
/// shape+power-only key would hand the uncapped cell the baseline's warm
/// start (or worse, scheduling-dependent results). It must miss, diverge
/// and leave the cache unpoisoned.
#[test]
fn leakage_model_is_part_of_the_warm_cache_key() {
    let (cfgs, apps) = faulty_grid();
    let runner = SweepRunner::serial();
    let first = runner.try_grid(&cfgs, &singles(&apps));
    // 6 cells, 6 distinct (leakage, nominal) keys attempted, one failed:
    // 5 cached entries and no hits.
    assert_eq!(runner.warm_cache().len(), 5);
    assert_eq!(runner.warm_cache().misses(), 6);
    assert_eq!(runner.warm_cache().hits(), 0);
    // A second sweep over the same grid hits all five cached warm starts,
    // re-fails the divergent cell identically, and changes nothing.
    let second = runner.try_grid(&cfgs, &singles(&apps));
    assert_eq!(runner.warm_cache().hits(), 5);
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
    assert_eq!(report.warm_hits(), 0, "six distinct keys, no hits");
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

mod warm_cache_counts {
    use super::*;
    use proptest::prelude::*;

    /// Replays a key-index sequence against a cache, returning
    /// (hits, misses, stored).
    fn replay(cache: &WarmStartCache, machine: Machine, seq: &[usize]) -> (u64, u64, usize) {
        for &k in seq {
            let nominal: Vec<f64> = (0..machine.block_count())
                .map(|b| 0.5 + k as f64 + 1e-3 * b as f64)
                .collect();
            let (state, _) = cache
                .get_or_compute(machine, &LeakageModel::paper(), &nominal, || {
                    Ok::<_, EngineError>(vec![k as f64])
                })
                .unwrap();
            assert_eq!(state.as_slice(), &[k as f64], "wrong state for key {k}");
        }
        (cache.hits(), cache.misses(), cache.len())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// For any lookup sequence the hit/miss totals and the stored-entry
        /// count equal the first-occurrence counts: one miss per distinct
        /// key, a hit for every repeat.
        #[test]
        fn hit_miss_totals_equal_first_occurrence_counts(
            seq in proptest::collection::vec(0usize..12, 1..48),
        ) {
            let machine = Machine::new(2, 4, 3);
            let mut distinct = seq.clone();
            distinct.sort_unstable();
            distinct.dedup();
            let expected = (
                (seq.len() - distinct.len()) as u64,
                distinct.len() as u64,
                distinct.len(),
            );
            let got = replay(&WarmStartCache::new(), machine, &seq);
            prop_assert!(got == expected, "got {got:?}, expected {expected:?}");
        }
    }
}
