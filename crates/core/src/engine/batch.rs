//! Batched replay: a cohort of replay-mode sweep cells run back to back.
//!
//! All cells of a sweep grid that share a machine shape share the same
//! thermal network, and therefore the same
//! [`ThermalParts`](distfront_thermal::ThermalParts) from the process
//! registry. With batching on, the sweep executor groups its validated
//! replay cells by machine shape into cohorts, and the
//! [`BatchScheduler`] replays each cohort as one task, member after
//! member, through the ordinary [`CoupledEngine`] replay pipeline. Each
//! member is an independent engine run, so its outcome is
//! **bit-identical** to its unbatched replay, and a failing member leaves
//! the others' bits untouched.
//!
//! Members run one after another rather than interleaved interval by
//! interval: each steps its own thermal state, so interleaving would
//! share no work, and it measured 2–5% slower per cell.

use std::sync::Arc;
use std::time::Instant;

use distfront_trace::record::ActivityTrace;
use distfront_trace::Workload;

use super::coupled::CoupledEngine;
use super::sweep::{CellOutcome, WarmStartCache};
use crate::experiment::ExperimentConfig;

/// Replays a cohort of replay-mode cells back to back; see the module
/// docs.
#[derive(Debug)]
pub struct BatchScheduler;

impl BatchScheduler {
    /// Replays every `(cell index, trace)` member in turn and returns one
    /// [`CellOutcome`] per member, in member order.
    ///
    /// Every member's trace must be one [`ReplayBackend::validate`]
    /// accepts for its `(config, workload)` cell: the sweep executor
    /// validates while planning, so the members are not validated again.
    /// Warm starts go through the shared `cache`, which sees the same
    /// keys as unbatched execution.
    ///
    /// [`ReplayBackend::validate`]: super::ReplayBackend::validate
    pub fn run_cohort(
        configs: &[ExperimentConfig],
        workloads: &[Workload],
        members: &[(usize, Arc<ActivityTrace>)],
        cache: Arc<WarmStartCache>,
    ) -> Vec<CellOutcome> {
        members
            .iter()
            .map(|(cell, trace)| {
                let started = Instant::now();
                let cfg = &configs[cell / workloads.len()];
                let workload = &workloads[cell % workloads.len()];
                let run = CoupledEngine::for_workload(cfg, workload.clone())
                    .with_warm_cache(Arc::clone(&cache))
                    .with_validated_replay(Arc::clone(trace))
                    .run_with_stats();
                CellOutcome::new(*cell, configs, workloads, run, started)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtm::DvfsPolicy;
    use crate::emergency::EmergencyPolicy;
    use crate::engine::EngineError;
    use crate::engine::{SweepReport, SweepRunner, TraceMode, TraceStore};
    use crate::experiment::DtmSpec;
    use distfront_trace::record::PointKey;
    use distfront_trace::AppProfile;

    fn apps() -> Vec<Workload> {
        [
            AppProfile::test_tiny(),
            *AppProfile::by_name("gzip").unwrap(),
            *AppProfile::by_name("mcf").unwrap(),
        ]
        .map(Workload::from)
        .to_vec()
    }

    /// Records `configs` × `apps` serially and returns the filled store.
    fn record(configs: &[ExperimentConfig], apps: &[Workload]) -> Arc<TraceStore> {
        let store = Arc::new(TraceStore::new());
        let report = SweepRunner::serial()
            .with_trace_mode(TraceMode::Record(Arc::clone(&store)))
            .try_grid(configs, apps);
        assert!(report.is_complete(), "recording must succeed");
        store
    }

    fn replay_report(
        configs: &[ExperimentConfig],
        apps: &[Workload],
        store: &Arc<TraceStore>,
        threads: usize,
        batch: bool,
    ) -> SweepReport {
        SweepRunner::with_threads(threads)
            .with_trace_mode(TraceMode::Replay(Arc::clone(store)))
            .with_batch(batch)
            .try_grid(configs, apps)
    }

    #[test]
    fn batched_replay_is_bit_identical_to_serial_replay_at_any_worker_count() {
        let apps = apps();
        let dvfs = ExperimentConfig::baseline()
            .with_uops(60_000)
            .with_dtm(DtmSpec::GlobalDvfs(DvfsPolicy::with_trip(50.0)));
        let record_cfgs = vec![
            ExperimentConfig::baseline().with_uops(60_000),
            dvfs.clone(),
            ExperimentConfig::bank_hopping().with_uops(60_000),
        ];
        let store = record(&record_cfgs, &apps);
        // The replay grid adds a throttling DTM variant sharing the
        // baseline's name (the record-once / replay-many convention), so
        // one cohort mixes throttle-stretched, DVFS-stretched and nominal
        // step sizes, and members replaying from traces with *different*
        // point families (nominal-only vs the DVFS pair).
        let replay_cfgs = vec![
            ExperimentConfig::baseline().with_uops(60_000),
            ExperimentConfig::baseline()
                .with_uops(60_000)
                .with_dtm(DtmSpec::Emergency(EmergencyPolicy::with_threshold(50.0))),
            dvfs,
            ExperimentConfig::bank_hopping().with_uops(60_000),
        ];
        let serial = replay_report(&replay_cfgs, &apps, &store, 1, false);
        assert_eq!(serial.replayed(), replay_cfgs.len() * apps.len());
        // The DTM variant actually throttles, so the cohort's members
        // step with different half-steps.
        assert!(
            serial
                .row(1)
                .iter()
                .any(|c| c.result.as_ref().unwrap().throttled_intervals > 0),
            "the emergency policy never engaged; lower the trip"
        );
        for threads in [1, 2, 5] {
            let batched = replay_report(&replay_cfgs, &apps, &store, threads, true);
            assert_eq!(batched, serial, "batched diverged at {threads} workers");
            assert_eq!(batched.replayed(), serial.replayed());
        }
    }

    #[test]
    fn lane_failure_mid_cohort_leaves_other_cells_byte_identical() {
        let apps = apps();
        let cfgs = vec![ExperimentConfig::baseline().with_uops(60_000)];
        let store = record(&cfgs, &apps);
        let clean = replay_report(&cfgs, &apps, &store, 1, true);
        assert!(clean.is_complete());

        // Corrupt the gzip trace mid-stream: a truncated counter record
        // passes validation (which only shape-checks the pilot) but fails
        // unflatten inside the replay loop, after the cohort's earlier
        // members have run and with a later member still to run.
        let broken = {
            let mut t = (*store.get("baseline", "gzip", &[PointKey::Nominal]).unwrap()).clone();
            assert!(t.intervals.len() >= 2, "need a mid-run interval to corrupt");
            t.intervals[1].points[0].counters.truncate(3);
            t
        };
        store.insert(broken);

        let faulted = replay_report(&cfgs, &apps, &store, 1, true);
        assert_eq!(faulted.failed(), 1);
        let gzip = faulted.cell(0, 1);
        assert!(
            matches!(&gzip.result, Err(EngineError::ReplayIncompatible(_))),
            "{:?}",
            gzip.result
        );
        for (a, app) in apps.iter().enumerate() {
            if a == 1 {
                continue;
            }
            let survivor = faulted.cell(0, a).result.as_ref().unwrap();
            let reference = clean.cell(0, a).result.as_ref().unwrap();
            assert_eq!(survivor, reference, "cell {} perturbed", app.name());
            // Byte-identical, not merely equal: the CSV row a scenario
            // emitter would write is the same string.
            assert_eq!(
                crate::scenarios::csv_row("baseline", survivor),
                crate::scenarios::csv_row("baseline", reference),
            );
        }
    }

    #[test]
    fn batch_flag_is_inert_outside_replay_mode() {
        let cfgs = vec![ExperimentConfig::baseline().with_uops(40_000)];
        let apps = vec![Workload::from(AppProfile::test_tiny())];
        let live = SweepRunner::serial().try_grid(&cfgs, &apps);
        let live_batch = SweepRunner::serial()
            .with_batch(true)
            .try_grid(&cfgs, &apps);
        assert_eq!(live, live_batch);
        assert_eq!(live_batch.replayed(), 0);
    }
}
