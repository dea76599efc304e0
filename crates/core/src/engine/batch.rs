//! Lockstep batched replay: a whole cohort of replay-mode sweep cells
//! advancing their temperatures through one shared [`BatchPropagator`].
//!
//! All cells of a sweep grid that share a machine shape share the *same*
//! thermal network, and therefore the same modal basis. The
//! [`BatchScheduler`] exploits this: the sweep executor groups
//! replay-mode cells by machine shape into cohorts, and the scheduler
//! multiplexes their per-cell replay interval streams into one lockstep
//! loop. Each lane (cell) keeps its own [`EngineCx`] (power model,
//! temperature tracker, DTM controller, accumulators; no core simulator,
//! since the context holds none and the lane's final core stats come
//! from its trace), but the thermal state lives in one column-major
//! matrix, and every lane steps with its own `dt` in the same call.
//!
//! # Bit-identity
//!
//! A batched cell's outcome is **bit-identical** to its serial replay:
//! the per-interval arithmetic below is the
//! [`ReplayLoopStage`](super::ReplayLoopStage) loop verbatim (same power
//! assembly, same accounting, same tracker and DTM call order per lane),
//! and each thermal column goes through the same modal step a serial
//! solver takes, with that lane's own half-step. Lanes whose `dt`
//! diverges (throttle-stretched intervals, a shorter trace) need no
//! special handling.
//!
//! # Fault isolation
//!
//! Columns are arithmetically independent, so a failing lane (a corrupt
//! interval record, a replay-incompatible DTM action) records its error
//! and simply drops out of the column selection; the surviving lanes'
//! bits are untouched — exactly as if the failed cell had never been in
//! the cohort.

use std::sync::Arc;
use std::time::Instant;

use distfront_power::BlockId;
use distfront_thermal::{BatchPropagator, Floorplan, ThermalNetwork};
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
    /// Position in the cohort's member list (and batch column index).
    member: usize,
    /// Flat cell index into the sweep grid.
    cell: usize,
    cx: EngineCx<'a>,
    trace: Arc<ActivityTrace>,
    /// The DTM action decided at the end of the previous interval.
    action: DtmAction,
    /// Set when the lane finishes (or fails); a set lane leaves the
    /// column selection.
    result: Option<Result<AppResult, EngineError>>,
}

/// Runs a cohort of replay-mode cells in lockstep over one shared
/// [`BatchPropagator`]; see the module docs for the contract.
#[derive(Debug)]
pub struct BatchScheduler;

impl BatchScheduler {
    /// Replays every `(cell index, trace)` member in lockstep and returns
    /// one [`CellOutcome`] per member, in member order.
    ///
    /// Every member must share the cohort invariants the sweep executor
    /// grouped by — same machine shape (hence floorplan and thermal
    /// network) and a validated trace for its `(config, workload)` cell.
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

/// The lockstep interval loop: per-lane power assembly (the serial replay
/// loop's arithmetic verbatim), then the cohort's thermal advance, two
/// half-steps per interval, each lane with its own half-step.
fn run_lockstep(lanes: &mut [Lane<'_>]) {
    let machine = lanes[0].cx.machine;
    let fp = Floorplan::for_machine(machine);
    let net = ThermalNetwork::from_floorplan(&fp, &lanes[0].cx.pkg);
    let nb = net.block_count();
    let mut batch = BatchPropagator::new(net, lanes.len());
    for (j, lane) in lanes.iter().enumerate() {
        batch.set_column(j, lane.cx.thermal.node_temperatures());
    }

    let mut powers = vec![0.0f64; nb * lanes.len()];
    // Lanes advancing this interval: column index, wall-clock dt, and the
    // selected operating point's `done` flag (captured before the DTM
    // decision overwrites the action that selected it).
    let mut advancing: Vec<(usize, f64, bool)> = Vec::with_capacity(lanes.len());
    // Column and half-step per advancing lane.
    let mut steps: Vec<(usize, f64)> = Vec::with_capacity(lanes.len());
    let mut k = 0usize;
    loop {
        advancing.clear();
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
            let gated: Vec<BlockId> = rec.gated_bank.map(BlockId::TcBank).into_iter().collect();
            let temps_now = batch.block_column(j).to_vec();
            let mut power = lane.cx.model.total_power(&act, &temps_now, &gated);
            for (p, i) in power.iter_mut().zip(&lane.cx.idle) {
                *p += i;
            }
            for g in &gated {
                power[lane.cx.machine.index_of(*g)] = 0.0;
            }
            let dt = act.cycles as f64 / lane.cx.model.effective_frequency_hz();
            lane.cx.power_time_sum += power.iter().sum::<f64>() * dt;
            lane.cx.time_sum += dt;
            powers[j * nb..(j + 1) * nb].copy_from_slice(&power);
            advancing.push((j, dt, point.done));
        }
        if advancing.is_empty() {
            break;
        }

        steps.clear();
        steps.extend(advancing.iter().map(|&(j, dt, _)| (j, dt / 2.0)));
        for _half in 0..2 {
            batch.advance_columns(&powers, &steps);
            for &(j, dt, _) in &advancing {
                lanes[j].cx.tracker.record(batch.block_column(j), dt / 2.0);
            }
        }

        for &(j, _, done) in &advancing {
            let lane = &mut lanes[j];
            lane.cx.tracker.end_interval();
            if let Some(ctrl) = &mut lane.cx.dtm {
                lane.action = ctrl.decide(batch.block_column(j));
            }
            if done || k + 1 == lane.trace.intervals.len() {
                lane.cx
                    .thermal
                    .set_node_temperatures(batch.column(j).to_vec());
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
