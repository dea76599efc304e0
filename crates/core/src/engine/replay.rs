//! Trace record/replay: capturing a live run's per-interval activity and
//! driving the power/thermal/DTM loop from the recording, without
//! re-simulating the core.
//!
//! * [`TraceRecorder`] is the tap the default stages write into when
//!   [`CoupledEngine::run_recorded`](super::CoupledEngine::run_recorded)
//!   installs it: the pilot's merged activity, one record per evaluation
//!   interval — the path the live run took: its counter row and done
//!   flag, the operating point its DTM action selected, and the bank
//!   temperatures a biased trace-cache mapping read — and the run's final
//!   core statistics. Recording only observes, so a recorded run's
//!   [`AppResult`](crate::runner::AppResult) is bit-identical to an
//!   unrecorded one.
//! * [`ReplayBackend`] is the uarch-free stage pipeline that consumes a
//!   recorded [`ActivityTrace`]. No stage of it builds a core simulator
//!   (the [`EngineCx`] holds none; only the live stages build their own),
//!   and the report's core statistics are the trace's [`FinalStats`],
//!   copied into [`EngineCx::finals`]. A replay pilot re-derives the nominal
//!   power bit-exactly from the recorded pilot activity and adopts it
//!   through the live pilot's own helper (so warm starts are identical to
//!   live), the regular
//!   [`WarmStartStage`] runs unchanged, and the replay loop is the live
//!   cell's interval loop with the trace as its source: each interval
//!   decodes the recorded row into the loop's one counter set.
//!
//! # Replay checks its own exactness
//!
//! An interval's core-side activity is a function of the run's core-side
//! configuration (which [`ReplayBackend::validate`] matches against the
//! trace, pilot length included) and of what the core read from the
//! power/thermal side: the operating point of each DTM action and, on a
//! temperature-biased trace-cache mapping, the bank temperatures each
//! remap read. The trace records both for the path the live run took, so
//! [`ReplayLoopStage`] compares them every interval with the ones the
//! replay itself produces. While they agree, the replayed activity is the
//! activity a live run of the replaying configuration would produce, so
//! power, temperatures and the (deterministic) controller's decisions
//! reproduce by induction: replay is **byte-identical** to live. At the
//! first interval where they differ, the stage fails with
//! [`EngineError::ReplayDiverged`], and the replaying sweep runs the cell
//! live instead and counts it as live. A trace thus replays any row whose
//! path it recorded — a `baseline` row from a throttled recording that
//! never reached the trip, say — and nothing else.

use std::sync::Arc;

use distfront_power::Machine;
use distfront_trace::record::{
    ActivityTrace, FinalStats, IntervalRecord, PointKey, TraceMeta, TraceShape,
    TRACE_FORMAT_VERSION,
};
use distfront_trace::Workload;
use distfront_uarch::{record as tap, ActivityCounters, IntervalReport};

use super::interval::{bank_temperatures, counters_for, point_key_of, run_intervals};
use super::stages::{adopt_nominal, WarmStartStage};
use super::sweep::WarmStartCache;
use super::traits::Stage;
use super::{EngineCx, EngineError};
use crate::experiment::ExperimentConfig;

/// Collects a live run's activity into an [`ActivityTrace`].
///
/// Installed in [`EngineCx::recorder`] by
/// [`CoupledEngine::run_recorded`](super::CoupledEngine::run_recorded);
/// the pilot and interval-loop stages feed it at each interval boundary.
#[derive(Debug)]
pub struct TraceRecorder {
    meta: TraceMeta,
    pilot: Vec<u64>,
    intervals: Vec<IntervalRecord>,
}

impl TraceRecorder {
    /// A recorder for a run of `workload` under `cfg`, stored under
    /// [`ExperimentConfig::replay_points`] — nominal plus whatever the
    /// configured DTM policy can engage.
    ///
    /// `custom_dtm` flags a DTM policy installed through
    /// [`CoupledEngine::with_dtm`](super::CoupledEngine::with_dtm) rather
    /// than the configuration's [`DtmSpec`](crate::experiment::DtmSpec):
    /// no configuration describes an arbitrary boxed policy, so such
    /// recordings are marked not replay-safe and never stored.
    pub fn new(cfg: &ExperimentConfig, workload: &Workload, custom_dtm: bool) -> Self {
        let points = if custom_dtm {
            vec![PointKey::Nominal]
        } else {
            cfg.replay_points()
        };
        TraceRecorder {
            meta: TraceMeta {
                version: TRACE_FORMAT_VERSION,
                workload: workload.name().to_string(),
                config: cfg.name.to_string(),
                processor_fingerprint: processor_fingerprint(cfg),
                seed: cfg.seed,
                uops_per_app: cfg.uops_per_app,
                pilot_uops: cfg.pilot_uops(),
                interval_cycles: cfg.interval_cycles,
                shape: trace_shape(cfg),
                hop: cfg.hop,
                replay_safe: !custom_dtm,
                dtm: cfg
                    .dtm
                    .as_ref()
                    .map(|d| d.name().to_string())
                    .or_else(|| custom_dtm.then(|| "custom".to_string())),
                points,
            },
            pilot: Vec::new(),
            intervals: Vec::new(),
        }
    }

    /// Records the pilot phase's merged activity.
    pub fn record_pilot(&mut self, act: &ActivityCounters) {
        self.pilot = tap::flatten(act);
    }

    /// Records one evaluation interval of the live path: its report, the
    /// operating point the live action selected, the bank temperatures
    /// the trace-cache mapping read as it started (empty when it read
    /// none) and the bank gated during it.
    pub fn record_interval(
        &mut self,
        report: &IntervalReport,
        point: PointKey,
        bank_temps: &[f64],
        gated_bank: Option<u8>,
    ) {
        self.intervals.push(IntervalRecord {
            counters: tap::flatten(&report.activity),
            done: report.done,
            point,
            bank_temp_bits: bank_temps.iter().map(|t| t.to_bits()).collect(),
            gated_bank,
        });
    }

    /// Finalizes the trace with the run's core statistics.
    pub fn finish(self, finals: FinalStats) -> ActivityTrace {
        ActivityTrace {
            meta: self.meta,
            pilot: self.pilot,
            intervals: self.intervals,
            finals,
        }
    }
}

/// The uarch-free replay pipeline over a recorded [`ActivityTrace`].
///
/// Use through
/// [`CoupledEngine::with_replay`](super::CoupledEngine::with_replay) (or a
/// replaying [`SweepRunner`](super::SweepRunner)); [`ReplayBackend::stages`]
/// exposes the raw stage list for custom pipelines.
#[derive(Debug)]
pub struct ReplayBackend;

impl ReplayBackend {
    /// Checks that replaying `trace` for (`cfg`, `workload`) is faithful.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ReplayIncompatible`] naming the first
    /// mismatch: an unsupported trace version, a core-side configuration
    /// difference (workload, seed, run length, pilot length, interval,
    /// machine shape, hopping), a tainted (custom-DTM) recording, or an
    /// empty recording. Whether the replay stays on the recorded path is
    /// checked every interval as it runs.
    pub fn validate(
        cfg: &ExperimentConfig,
        workload: &Workload,
        trace: &ActivityTrace,
    ) -> Result<(), EngineError> {
        Self::validate_fingerprinted(cfg, processor_fingerprint(cfg), workload, trace)
    }

    /// [`validate`](Self::validate) with `cfg`'s
    /// [`processor_fingerprint`] already computed, so a sweep hashes each
    /// configuration row once rather than once per cell.
    pub(super) fn validate_fingerprinted(
        cfg: &ExperimentConfig,
        fingerprint: u64,
        workload: &Workload,
        trace: &ActivityTrace,
    ) -> Result<(), EngineError> {
        let m = &trace.meta;
        let fail = |msg: String| Err(EngineError::ReplayIncompatible(msg));
        if m.version != TRACE_FORMAT_VERSION {
            return fail(format!(
                "trace format version {} (this build replays {TRACE_FORMAT_VERSION} only)",
                m.version
            ));
        }
        if m.workload != workload.name() {
            return fail(format!(
                "trace records workload {}, run wants {}",
                m.workload,
                workload.name()
            ));
        }
        // The fingerprint covers the *whole* core side: two processor
        // configurations sharing shape/seed/run-length but differing
        // anywhere else (say, only in the trace-cache mapping policy)
        // produce different activity streams and must never stand in for
        // each other.
        if m.processor_fingerprint != fingerprint {
            return fail(format!(
                "trace was recorded under processor configuration {} \
                 (fingerprint {:#018x}), which differs from this run's \
                 ({fingerprint:#018x})",
                m.config, m.processor_fingerprint,
            ));
        }
        let shape = trace_shape(cfg);
        if m.shape != shape {
            return fail(format!(
                "trace machine shape {:?} differs from the configuration's {shape:?}",
                m.shape
            ));
        }
        // The pilot length sets the recorded pilot activity, hence the
        // nominal power every interval's power is relative to.
        for (field, recorded, wanted) in [
            ("seed", m.seed, cfg.seed),
            ("uops_per_app", m.uops_per_app, cfg.uops_per_app),
            ("pilot_uops", m.pilot_uops, cfg.pilot_uops()),
            ("interval_cycles", m.interval_cycles, cfg.interval_cycles),
        ] {
            if recorded != wanted {
                return fail(format!("trace {field} {recorded} differs from {wanted}"));
            }
        }
        if m.hop != cfg.hop {
            return fail(format!(
                "trace records hop={}, configuration has hop={}",
                m.hop, cfg.hop
            ));
        }
        if !m.replay_safe {
            return fail(format!(
                "trace was recorded under the custom DTM policy {}, which no \
                 configuration describes",
                m.dtm.as_deref().unwrap_or("<unknown>")
            ));
        }
        if trace.intervals.is_empty() {
            return fail("trace records no evaluation intervals".to_string());
        }
        if trace.pilot.len() != m.shape.flat_len() {
            return fail("trace pilot record mismatches its declared shape".to_string());
        }
        Ok(())
    }

    /// The replay pipeline: replay-pilot → warm start → replay-loop.
    ///
    /// The warm start is the regular [`WarmStartStage`], solved for this
    /// cell: the replayed nominal power is bit-identical to the live
    /// pilot's, so the replayed warm start is the live one's. `_cache` is
    /// ignored; it stays for the end-to-end benchmark, like
    /// [`WarmStartCache`] itself.
    pub fn stages(
        trace: Arc<ActivityTrace>,
        _cache: Option<Arc<WarmStartCache>>,
    ) -> Vec<Box<dyn Stage>> {
        vec![
            Box::new(ReplayPilotStage {
                trace: Arc::clone(&trace),
            }),
            Box::new(WarmStartStage),
            Box::new(ReplayLoopStage { trace }),
        ]
    }
}

/// Re-derives the nominal power profile from the recorded pilot activity
/// (bit-identical to [`PilotStage`](super::PilotStage) on the same run).
#[derive(Debug)]
pub struct ReplayPilotStage {
    trace: Arc<ActivityTrace>,
}

impl ReplayPilotStage {
    /// A replay pilot over `trace`.
    pub fn new(trace: Arc<ActivityTrace>) -> Self {
        ReplayPilotStage { trace }
    }
}

impl Stage for ReplayPilotStage {
    fn name(&self) -> &'static str {
        "replay-pilot"
    }

    fn run(&mut self, cx: &mut EngineCx<'_>) -> Result<(), EngineError> {
        let mut pilot_act = counters_for(cx.machine);
        unflatten_for(cx.machine, &self.trace.pilot, &mut pilot_act)?;
        adopt_nominal(cx, &pilot_act);
        Ok(())
    }
}

/// Feeds recorded per-interval activity through the interval loop the
/// live [`IntervalLoopStage`](super::IntervalLoopStage) runs, skipping
/// the core simulator entirely. The live loop's bank rebalance and hop
/// are core-side effects already baked into the recorded activity. The
/// run ends at the first done interval, or after the last recorded one.
///
/// Each interval first checks that the replay is still on the recorded
/// path: the operating point of the policy's action (power-level actions
/// ride the nominal point) and, where the trace recorded them, the bank
/// temperatures the trace-cache mapping would read must equal the
/// recorded ones, bit for bit. Otherwise the stage fails with
/// [`EngineError::ReplayDiverged`].
#[derive(Debug)]
pub struct ReplayLoopStage {
    trace: Arc<ActivityTrace>,
}

impl Stage for ReplayLoopStage {
    fn name(&self) -> &'static str {
        "replay-loop"
    }

    fn run(&mut self, cx: &mut EngineCx<'_>) -> Result<(), EngineError> {
        let trace = Arc::clone(&self.trace);
        let mut intervals = trace.intervals.iter().enumerate();
        run_intervals(cx, |cx, action, act| {
            let (i, rec) = intervals.next().ok_or(EngineError::NoData(
                "the trace records no evaluation intervals",
            ))?;
            let point = point_key_of(action);
            if point != rec.point {
                return Err(EngineError::ReplayDiverged(format!(
                    "interval {i}: the DTM action selects {}, the trace recorded {}",
                    point.label(),
                    rec.point.label()
                )));
            }
            if !rec.bank_temp_bits.is_empty()
                && !bank_temperatures(cx)
                    .map(f64::to_bits)
                    .eq(rec.bank_temp_bits.iter().copied())
            {
                return Err(EngineError::ReplayDiverged(format!(
                    "interval {i}: the trace-cache mapping reads other bank \
                     temperatures than the trace recorded"
                )));
            }
            unflatten_for(cx.machine, &rec.counters, act)?;
            let done = rec.done || intervals.len() == 0;
            if done {
                cx.finals = Some(trace.finals);
            }
            Ok((rec.gated_bank, done))
        })
    }
}

/// Opaque fingerprint of the full core-side processor configuration,
/// hashed over its canonical debug rendering (every field participates:
/// frontend mode, penalties, widths, cache and mapping configs, …).
/// Deliberately conservative — any core-side difference, even one that
/// might happen to be activity-neutral, forces a re-record rather than an
/// unproven replay. Stable within a toolchain; across toolchains a
/// mismatch merely falls back to live simulation.
pub(super) fn processor_fingerprint(cfg: &ExperimentConfig) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    format!("{:?}", cfg.processor).hash(&mut h);
    h.finish()
}

/// The machine shape a trace of `cfg` records.
fn trace_shape(cfg: &ExperimentConfig) -> TraceShape {
    let pc = &cfg.processor;
    TraceShape {
        partitions: pc.frontend_mode.partitions() as u32,
        backends: pc.backends as u32,
        tc_banks: pc.trace_cache.physical_banks() as u32,
    }
}

/// Reconstructs counters for the machine shape into `act`, surfacing
/// layout mismatches as [`EngineError::ReplayIncompatible`].
fn unflatten_for(
    machine: Machine,
    flat: &[u64],
    act: &mut ActivityCounters,
) -> Result<(), EngineError> {
    tap::unflatten_into(
        act,
        machine.partitions,
        machine.backends,
        machine.tc_banks,
        flat,
    )
    .map_err(EngineError::ReplayIncompatible)
}
