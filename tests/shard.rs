//! Multi-process sharding: partition coverage, concatenated per-shard
//! slices equal to serial runs (error cells included), cross-process
//! byte-identity for every registered scenario at 1/2/3 worker
//! processes, the coordinator's re-queue path under a worker that
//! aborts mid-shard, and reruns on one state directory that reuse the
//! stored records instead of appending more.

use std::path::PathBuf;

use distfront::engine::SweepRunner;
use distfront::job::{JobEnv, JobSpec, StatusCode};
use distfront::shard::{partition, ShardRunner, ShardSpec};
use distfront::{scenarios, ExperimentConfig};
use distfront_power::LeakageModel;
use distfront_trace::{AppProfile, Workload};

/// The built `distfront-scenarios` binary — Cargo builds it for this
/// integration test and exports its path.
fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_distfront-scenarios")
}

/// A fresh per-test state directory: tests share one process (and pid),
/// so the name must carry the test, not just the pid.
fn test_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("distfront-shard-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The 2×3 fault-tolerance grid: exactly cell (1, 0) — the uncapped
/// hot profile — fails to converge, so merges must carry error cells.
fn faulty_grid() -> (Vec<ExperimentConfig>, Vec<Workload>) {
    let mut uncapped = ExperimentConfig::baseline()
        .with_uops(40_000)
        .with_leakage(LeakageModel {
            emergency_c: f64::MAX,
            ..LeakageModel::paper()
        });
    uncapped.name = "uncapped-leakage";
    (
        vec![ExperimentConfig::baseline().with_uops(40_000), uncapped],
        vec![
            Workload::Single(AppProfile::test_tiny()),
            Workload::Single(*AppProfile::by_name("gzip").unwrap()),
            Workload::Single(*AppProfile::by_name("mcf").unwrap()),
        ],
    )
}

mod partition_properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// For arbitrary grid sizes and shard counts the ranges are
        /// contiguous, ordered, and cover every cell exactly once.
        #[test]
        fn ranges_cover_every_cell_exactly_once(
            cells in 0usize..240,
            shards in 1usize..18,
        ) {
            let ranges = partition(cells, shards);
            prop_assert_eq!(ranges.len(), shards);
            let mut next = 0;
            for range in &ranges {
                prop_assert!(range.start == next, "gap or overlap at {}", next);
                prop_assert!(range.end >= range.start);
                next = range.end;
            }
            prop_assert!(next == cells, "ranges must end at the grid size");
            // Balanced: sizes differ by at most one, larger first.
            let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            prop_assert!(max - min <= 1);
            let mut sorted = sizes.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            prop_assert!(sizes == sorted, "larger ranges must come first");
            // ShardSpec::range agrees with the full partition.
            for (i, range) in ranges.iter().enumerate() {
                let spec = ShardSpec { index: i, of: shards };
                prop_assert_eq!(&spec.range(cells), range);
            }
        }
    }
}

/// Per-shard engine runs (not slices of one run), concatenated in shard
/// order, equal the serial run's cells: the worker-side `try_cells`
/// contract across process boundaries, error cell included.
#[test]
fn per_shard_engine_runs_merge_into_the_serial_report() {
    let (cfgs, workloads) = faulty_grid();
    let serial = SweepRunner::serial().try_grid(&cfgs, &workloads);
    assert_eq!(serial.failed(), 1);
    for shards in [2, 3, 5] {
        let merged: Vec<_> = partition(6, shards)
            .into_iter()
            .flat_map(|r| SweepRunner::serial().try_cells(&cfgs, &workloads, r))
            .collect();
        assert_eq!(merged, serial.cells(), "{shards}-shard merge diverged");
    }
}

/// The acceptance gate: for every registered scenario (plus the
/// all-cells-fail fault-injection one), the multi-process merged report
/// is byte-identical to an in-process serial run at 1, 2 and 3 worker
/// processes — rows and failure lines both.
#[test]
fn every_scenario_is_byte_identical_across_1_2_3_processes() {
    let mut names: Vec<&str> = scenarios::registry().iter().map(|s| s.name).collect();
    names.push(scenarios::fault_injection().name);
    for name in names {
        let spec = JobSpec::scenario(name).with_smoke(true).with_uops(12_000);
        let serial = spec
            .clone()
            .with_workers(1)
            .execute(&JobEnv::default(), |_| {})
            .unwrap();
        let expected_status = serial.status();
        for processes in 1..=3usize {
            let dir = test_dir(&format!("grid-{name}-{processes}"));
            let outcome = ShardRunner::new(spec.clone(), processes)
                .with_dir(&dir)
                .with_worker(worker_bin())
                .run()
                .unwrap();
            assert_eq!(
                outcome.csv_rows,
                serial.csv_rows(),
                "{name} at {processes} processes: rows diverged"
            );
            assert_eq!(
                outcome.failures,
                serial.failure_lines(),
                "{name} at {processes} processes: failure lines diverged"
            );
            assert_eq!(outcome.status, expected_status, "{name} at {processes}");
            assert_eq!(outcome.failed_shards, Vec::<usize>::new());
            assert!(
                outcome.attempts.iter().all(|&a| a == 1),
                "{name} at {processes}: unexpected retries {:?}",
                outcome.attempts
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A worker killed mid-shard (it aborts, running no destructors, as a
/// SIGKILL would) is re-queued and the final merged rows are
/// byte-identical to an undisturbed run — the satellite fault-injection
/// contract, process granularity.
#[test]
fn sigkilled_worker_is_requeued_and_merge_stays_byte_identical() {
    let spec = JobSpec::scenario("baseline")
        .with_smoke(true)
        .with_uops(12_000);
    let serial = spec
        .clone()
        .with_workers(1)
        .execute(&JobEnv::default(), |_| {})
        .unwrap();

    let dir = test_dir("kill-requeue");
    std::fs::create_dir_all(&dir).unwrap();
    // Arm the kill hook for shard 1 of 3: its worker removes the marker,
    // computes its cells, then aborts *before persisting* — so
    // the first attempt leaves no artifact and the retry (marker gone)
    // completes cleanly.
    std::fs::write(dir.join("shard-001.kill"), b"").unwrap();
    let outcome = ShardRunner::new(spec, 3)
        .with_dir(&dir)
        .with_worker(worker_bin())
        .run()
        .unwrap();
    assert_eq!(outcome.status, StatusCode::Ok);
    assert_eq!(
        outcome.attempts,
        vec![1, 2, 1],
        "exactly the killed shard retried"
    );
    assert_eq!(outcome.failed_shards, Vec::<usize>::new());
    assert_eq!(outcome.csv_rows, serial.csv_rows());
    assert_eq!(outcome.failures, serial.failure_lines());
    let _ = std::fs::remove_dir_all(&dir);
}

/// With retries exhausted a dead shard is reported — not an error —
/// and every surviving shard's cells are still merged, under the
/// distinct `shard-failed` status the CLI maps to exit 5.
#[test]
fn dead_shard_after_retries_reports_shard_failed_and_keeps_survivors() {
    let spec = JobSpec::scenario("baseline")
        .with_smoke(true)
        .with_uops(12_000);
    let serial = spec
        .clone()
        .with_workers(1)
        .execute(&JobEnv::default(), |_| {})
        .unwrap();
    let serial_rows = serial.csv_rows();

    let dir = test_dir("shard-failed");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("shard-002.kill"), b"").unwrap();
    let outcome = ShardRunner::new(spec, 3)
        .with_retries(0)
        .with_dir(&dir)
        .with_worker(worker_bin())
        .run()
        .unwrap();
    assert_eq!(outcome.status, StatusCode::ShardFailed);
    assert_eq!(outcome.failed_shards, vec![2]);
    assert_eq!(outcome.attempts, vec![1, 1, 1], "retries were disabled");
    // The smoke suite has 4 cells; shard 2 of 3 owned exactly the last.
    assert_eq!(outcome.cells, 4);
    assert_eq!(outcome.merged, 3);
    assert_eq!(outcome.csv_rows, serial_rows[..3].to_vec());
    assert_eq!(StatusCode::ShardFailed.code(), 5);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A rerun on the same state directory finds every shard already done:
/// the coordinator answers each from its stored record and launches no
/// worker, so the merged rows are the first run's and no shard's result
/// segment grows.
#[test]
fn rerun_on_the_same_dir_reuses_records_and_does_not_grow_the_store() {
    let spec = JobSpec::scenario("baseline")
        .with_smoke(true)
        .with_uops(12_000);
    let dir = test_dir("rerun");
    let run = || {
        ShardRunner::new(spec.clone(), 2)
            .with_dir(&dir)
            .with_worker(worker_bin())
            .run()
            .unwrap()
    };
    let segment_sizes = || -> Vec<u64> {
        (0..2)
            .map(|i| {
                let path = dir.join(format!("shard-{i:03}")).join("results.dfsg");
                std::fs::metadata(path).unwrap().len()
            })
            .collect()
    };
    let first = run();
    assert_eq!(first.status, StatusCode::Ok);
    assert_eq!(
        first.attempts,
        vec![1, 1],
        "a fresh directory launches every shard"
    );
    let sizes = segment_sizes();
    for _ in 0..2 {
        let again = run();
        assert_eq!(again.csv_rows, first.csv_rows);
        assert_eq!(again.failures, first.failures);
        assert_eq!(again.status, first.status);
        assert_eq!(again.attempts, vec![0, 0]);
        assert_eq!(segment_sizes(), sizes, "a rerun appended to a shard store");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
