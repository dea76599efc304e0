//! Lockstep batched replay: a whole cohort of replay-mode sweep cells
//! advancing interval by interval.
//!
//! All cells of a sweep grid that share a machine shape share the *same*
//! thermal network, and therefore the same
//! [`ThermalParts`](distfront_thermal::ThermalParts) from the process
//! registry. The sweep executor groups replay-mode cells by machine shape
//! into cohorts, and the [`BatchScheduler`] multiplexes their per-cell
//! replay interval streams into one lockstep loop. Each lane (cell) keeps
//! its own [`EngineCx`] (power model, thermal backend on the shared
//! parts, temperature tracker, DTM controller, accumulators; no core
//! simulator, since the context holds none and the lane's final core
//! stats come from its trace), and steps with its own `dt`.
//!
//! # Bit-identity
//!
//! A batched cell's outcome is **bit-identical** to its serial replay:
//! the per-interval arithmetic below is the
//! [`ReplayLoopStage`](super::ReplayLoopStage) loop verbatim (same power
//! assembly, same accounting, same `advance_interval`, same tracker and
//! DTM call order per lane). Lanes whose `dt` diverges
//! (throttle-stretched intervals, a shorter trace) need no special
//! handling.
//!
//! # Fault isolation
//!
//! Lanes share no mutable state, so a failing lane (a corrupt interval
//! record, a replay-incompatible DTM action) records its error and simply
//! stops being stepped; the surviving lanes' bits are untouched — exactly
//! as if the failed cell had never been in the cohort.

use std::sync::Arc;
use std::time::Instant;

use distfront_power::BlockId;
use distfront_trace::record::ActivityTrace;
use distfront_trace::Workload;

use super::context::EngineCx;
use super::coupled::finish;
use super::replay::{apply_power_action, select_point, unflatten_for, ReplayPilotStage};
use super::stages::WarmStartStage;
use super::sweep::{CellOutcome, WarmStartCache};
use super::traits::{DtmAction, Stage};
use super::EngineError;
use crate::experiment::ExperimentConfig;
use crate::runner::AppResult;

/// One cohort member mid-flight: its engine context plus the lockstep
/// bookkeeping the scheduler threads through the interval loop.
struct Lane<'a> {
    /// Position in the cohort's member list.
    member: usize,
    /// Flat cell index into the sweep grid.
    cell: usize,
    cx: EngineCx<'a>,
    trace: Arc<ActivityTrace>,
    /// The DTM action decided at the end of the previous interval.
    action: DtmAction,
    /// Set when the lane finishes (or fails); a set lane is no longer
    /// stepped.
    result: Option<Result<AppResult, EngineError>>,
}

/// Runs a cohort of replay-mode cells in lockstep; see the module docs
/// for the contract.
#[derive(Debug)]
pub struct BatchScheduler;

impl BatchScheduler {
    /// Replays every `(cell index, trace)` member in lockstep and returns
    /// one [`CellOutcome`] per member, in member order.
    ///
    /// Every member must share the cohort invariants the sweep executor
    /// grouped by — same machine shape (hence floorplan and thermal
    /// parts) and a validated trace for its `(config, workload)` cell.
    /// Pilot and warm start run per lane through the regular stages (the
    /// shared `cache` sees the same keys as serial execution), then the
    /// interval streams advance together.
    pub fn run_cohort<'a>(
        configs: &'a [ExperimentConfig],
        workloads: &'a [Workload],
        members: &[(usize, Arc<ActivityTrace>)],
        cache: Arc<WarmStartCache>,
    ) -> Vec<CellOutcome> {
        let started = Instant::now();
        let n_apps = workloads.len().max(1);
        let mut outcomes: Vec<Option<CellOutcome>> = (0..members.len()).map(|_| None).collect();
        let mut lanes: Vec<Lane<'a>> = Vec::new();

        // Per-lane prologue: context build, replay pilot, warm start —
        // the same pre-loop pipeline as a serial replay, so warm-cache
        // keys, hits and failure modes are identical.
        for (m, (cell, trace)) in members.iter().enumerate() {
            let cfg = &configs[cell / n_apps];
            let workload = &workloads[cell % n_apps];
            let mut cx = match EngineCx::build(cfg, workload, None, None) {
                Ok(cx) => cx,
                Err(e) => {
                    // A build failure never reaches the replay pipeline;
                    // mirror the serial path's default stats.
                    outcomes[m] = Some(cell_outcome(
                        *cell,
                        n_apps,
                        cfg,
                        workload,
                        Err(e),
                        &started,
                        false,
                        false,
                    ));
                    continue;
                }
            };
            let mut pilot = ReplayPilotStage::new(Arc::clone(trace));
            let mut warm = WarmStartStage::with_cache(Arc::clone(&cache));
            let prologue = pilot.run(&mut cx).and_then(|()| warm.run(&mut cx));
            if let Err(e) = prologue {
                let hit = cx.warm_start_hit;
                outcomes[m] = Some(cell_outcome(
                    *cell,
                    n_apps,
                    cfg,
                    workload,
                    Err(e),
                    &started,
                    hit,
                    true,
                ));
                continue;
            }
            lanes.push(Lane {
                member: m,
                cell: *cell,
                cx,
                trace: Arc::clone(trace),
                action: DtmAction::Nominal,
                result: None,
            });
        }

        if !lanes.is_empty() {
            run_lockstep(&mut lanes);
        }

        for lane in lanes {
            let cfg = &configs[lane.cell / n_apps];
            let workload = &workloads[lane.cell % n_apps];
            let result = lane.result.expect("the lockstep loop finalizes every lane");
            let hit = lane.cx.warm_start_hit;
            outcomes[lane.member] = Some(cell_outcome(
                lane.cell, n_apps, cfg, workload, result, &started, hit, true,
            ));
        }
        outcomes
            .into_iter()
            .map(|o| o.expect("every member produces an outcome"))
            .collect()
    }
}

/// The lockstep interval loop: per lane, the serial replay loop's
/// interval verbatim (power assembly, accounting, one
/// `advance_interval` on the lane's own thermal backend, tracker and
/// DTM bookkeeping), lanes interleaved interval by interval.
fn run_lockstep(lanes: &mut [Lane<'_>]) {
    // Lanes that advanced this interval and the selected operating
    // point's `done` flag (captured before the DTM decision overwrites
    // the action that selected it).
    let mut advanced: Vec<(usize, bool)> = Vec::with_capacity(lanes.len());
    let mut k = 0usize;
    loop {
        advanced.clear();
        for (j, lane) in lanes.iter_mut().enumerate() {
            if lane.result.is_some() {
                continue;
            }
            let rec = &lane.trace.intervals[k];
            let point = match select_point(&lane.trace.meta, rec, lane.action) {
                Ok(point) => point,
                Err(e) => {
                    lane.result = Some(Err(e));
                    continue;
                }
            };
            apply_power_action(&mut lane.cx, lane.action);
            let act = match unflatten_for(lane.cx.machine, &point.counters) {
                Ok(act) => act,
                Err(e) => {
                    lane.result = Some(Err(e));
                    continue;
                }
            };
            let cx = &mut lane.cx;
            let gated = rec.gated_bank.map(BlockId::TcBank);
            let mut power =
                cx.model
                    .total_power(&act, cx.thermal.block_temperatures(), gated.as_slice());
            for (p, i) in power.iter_mut().zip(&cx.idle) {
                *p += i;
            }
            if let Some(g) = gated {
                power[cx.machine.index_of(g)] = 0.0;
            }
            let dt = act.cycles as f64 / cx.model.effective_frequency_hz();
            cx.power_time_sum += power.iter().sum::<f64>() * dt;
            cx.time_sum += dt;
            let tracker = &mut cx.tracker;
            cx.thermal
                .advance_interval(&power, dt, &mut |t, h| tracker.record(t, h));
            advanced.push((j, point.done));
        }
        if advanced.is_empty() {
            break;
        }

        for &(j, done) in &advanced {
            let lane = &mut lanes[j];
            lane.cx.tracker.end_interval();
            if let Some(ctrl) = &mut lane.cx.dtm {
                lane.action = ctrl.decide(lane.cx.thermal.block_temperatures());
            }
            if done || k + 1 == lane.trace.intervals.len() {
                lane.cx.finals = Some(lane.trace.finals);
                lane.result = Some(finish(&lane.cx));
            }
        }
        k += 1;
    }
}

#[allow(clippy::too_many_arguments)]
fn cell_outcome(
    cell: usize,
    n_apps: usize,
    cfg: &ExperimentConfig,
    workload: &Workload,
    result: Result<AppResult, EngineError>,
    started: &Instant,
    warm_hit: bool,
    replayed: bool,
) -> CellOutcome {
    CellOutcome {
        config: cell / n_apps,
        app: cell % n_apps,
        config_name: cfg.name,
        app_name: workload.name(),
        result,
        wall_time_s: started.elapsed().as_secs_f64(),
        warm_hit,
        replayed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtm::DvfsPolicy;
    use crate::emergency::EmergencyPolicy;
    use crate::engine::{SweepReport, SweepRunner, TraceMode, TraceStore};
    use crate::experiment::DtmSpec;
    use distfront_trace::record::PointKey;
    use distfront_trace::AppProfile;

    fn apps() -> Vec<AppProfile> {
        vec![
            AppProfile::test_tiny(),
            *AppProfile::by_name("gzip").unwrap(),
            *AppProfile::by_name("mcf").unwrap(),
        ]
    }

    /// Records `configs` × `apps` serially and returns the filled store.
    fn record(configs: &[ExperimentConfig], apps: &[AppProfile]) -> Arc<TraceStore> {
        let store = Arc::new(TraceStore::new());
        let report = SweepRunner::serial()
            .with_trace_mode(TraceMode::Record(Arc::clone(&store)))
            .try_grid(configs, apps);
        assert!(report.is_complete(), "recording must succeed");
        store
    }

    fn replay_report(
        configs: &[ExperimentConfig],
        apps: &[AppProfile],
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
        // step sizes — and lanes replaying from traces with *different*
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
        // The DTM variant actually throttles, so the cohort's lanes step
        // with different half-steps in the same interval.
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
        // passes validation (which only shapes-checks the pilot) but fails
        // unflatten inside the lockstep loop, after the cohort has already
        // advanced together — the harshest point to drop a lane.
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
            assert_eq!(survivor, reference, "cell {} perturbed", app.name);
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
        let apps = vec![AppProfile::test_tiny()];
        let live = SweepRunner::serial().try_grid(&cfgs, &apps);
        let live_batch = SweepRunner::serial()
            .with_batch(true)
            .try_grid(&cfgs, &apps);
        assert_eq!(live, live_batch);
        assert_eq!(live_batch.replayed(), 0);
    }
}
