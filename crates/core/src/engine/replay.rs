//! Trace record/replay: capturing a live run's per-interval activity and
//! driving the power/thermal/DTM loop from the recording, without
//! re-simulating the core.
//!
//! * [`TraceRecorder`] is the tap the default stages write into when
//!   [`CoupledEngine::run_recorded`](super::CoupledEngine::run_recorded)
//!   installs it: the pilot's merged activity, one record per evaluation
//!   interval — a **family of operating points**, each a
//!   flattened counter row plus done flag — and the run's final core
//!   statistics. The live stream lands on the family point matching the
//!   interval's live DTM action; every other family point is captured by
//!   [`Simulator::probe_interval`](distfront_uarch::Simulator::probe_interval)
//!   on a throwaway fork, so recording only observes — a recorded run's
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
//!   decodes the recorded operating point that matches the policy's
//!   [`DtmAction`] for that interval into the loop's one counter set.
//!
//! # The capability model
//!
//! A trace *declares* what it can faithfully replay: its recorded point
//! family (see [`TraceMeta::points`]) is its capability set. Validation
//! derives the points the target configuration's DTM policy can demand
//! ([`ExperimentConfig::replay_points`]) and requires the family to cover
//! them, naming the missing capability — there is no blanket per-policy
//! rejection. A nominal-only (`[Nominal]`) recording still replays
//! power-level DTM (none / emergency throttle) and is rejected, with the
//! reason, for anything core-perturbing.
//!
//! # When replay is exact
//!
//! Replay is **byte-identical** to the live run whenever every interval's
//! replayed decision selects the point the live run actually took — in
//! particular, always, when replaying the recording configuration itself:
//! the replayed activity equals the live activity interval by interval, so
//! power, temperatures and the (deterministic) controller's decisions
//! reproduce by induction, and each decision selects the live point again.
//! This is the CI-verified path for the whole DTM ladder, DVFS, fetch
//! gating and migration included. When a replay *diverges* (a different
//! trip point, say, engages DVFS on an interval the recording ran
//! nominal), the selected variant point is the core's exact one-interval
//! response from the recorded trajectory's pipeline state; over the
//! remaining run it is a first-order approximation, because the recording
//! resumes from its own history rather than the divergent one. One further
//! deliberate approximation remains: a thermally-biased bank
//! mapping reacts to the replayed temperature trajectory, whose
//! bank-mapping decisions are baked into the recording.

use std::sync::Arc;

use distfront_power::Machine;
use distfront_trace::record::{
    ActivityTrace, FinalStats, IntervalRecord, PointKey, PointRecord, TraceMeta, TraceShape,
    TRACE_FORMAT_VERSION,
};
use distfront_trace::Workload;
use distfront_uarch::{record as tap, ActivityCounters, IntervalReport};

use super::interval::{counters_for, point_key_of, run_intervals};
use super::stages::{adopt_nominal, WarmStartStage};
use super::sweep::WarmStartCache;
use super::traits::{DtmAction, Stage};
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
    /// A recorder for a run of `workload` under `cfg`. The recorded point
    /// family is [`ExperimentConfig::replay_points`] — nominal plus
    /// whatever the configured DTM policy can engage.
    ///
    /// `custom_dtm` flags a DTM policy installed through
    /// [`CoupledEngine::with_dtm`](super::CoupledEngine::with_dtm) rather
    /// than the configuration's [`DtmSpec`](crate::experiment::DtmSpec):
    /// an arbitrary boxed policy's actions cannot be derived from the
    /// configuration, so such recordings capture the live stream only and
    /// are conservatively marked not replay-safe.
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

    /// The operating-point family this recorder captures per interval.
    pub fn family(&self) -> &[PointKey] {
        &self.meta.points
    }

    /// Records the pilot phase's merged activity.
    pub fn record_pilot(&mut self, act: &ActivityCounters) {
        self.pilot = tap::flatten(act);
    }

    /// Records one evaluation interval from one report per family point,
    /// in [`family`](Self::family) order (the live step's report at the
    /// live action's point, fork probes elsewhere).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) when the report count mismatches the family.
    pub fn record_interval(&mut self, points: &[&IntervalReport], gated_bank: Option<u8>) {
        debug_assert_eq!(points.len(), self.meta.points.len());
        self.intervals.push(IntervalRecord {
            points: points
                .iter()
                .map(|r| PointRecord {
                    counters: tap::flatten(&r.activity),
                    done: r.done,
                })
                .collect(),
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
    /// difference (workload, seed, run length, interval, machine shape,
    /// hopping), a tainted (custom-DTM) recording, a required operating
    /// point the trace's capability set does not cover, or an empty
    /// recording.
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
        for (field, recorded, wanted) in [
            ("seed", m.seed, cfg.seed),
            ("uops_per_app", m.uops_per_app, cfg.uops_per_app),
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
                "trace was recorded under the unverifiable custom DTM policy {} and \
                 cannot prove any operating point",
                m.dtm.as_deref().unwrap_or("<unknown>")
            ));
        }
        // Capability coverage: every point the target policy can demand
        // must have been recorded. The error names the missing capability
        // (and what the trace does have) so the fix — re-record under the
        // target policy — is obvious.
        let required = cfg.replay_points();
        if let Some(missing) = required.iter().find(|k| m.point_index(**k).is_none()) {
            let policy = cfg.dtm.as_ref().map_or("none", |d| d.name());
            return fail(format!(
                "DTM policy {policy} needs the {} operating point, but the trace \
                 only records [{}] (version {}); re-record under the target policy \
                 to capture it",
                missing.label(),
                m.capability_id(),
                m.version
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
/// the core simulator entirely. Each interval replays the recorded
/// operating point selected by the policy's action for that interval
/// (power-level actions ride the nominal point). The live loop's bank
/// rebalance and hop are core-side effects already baked into the
/// recorded activity. The run ends at the first done point, or after the
/// last recorded interval.
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
        let mut intervals = trace.intervals.iter();
        run_intervals(cx, |cx, action, act| {
            let rec = intervals.next().ok_or(EngineError::NoData(
                "the trace records no evaluation intervals",
            ))?;
            let point = select_point(&trace.meta, rec, action)?;
            unflatten_for(cx.machine, &point.counters, act)?;
            let done = point.done || intervals.len() == 0;
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

/// Selects the recorded point `action` demands from `rec` — the runtime
/// backstop behind [`ReplayBackend::validate`]'s coverage check (a
/// divergent policy can only demand points validation already proved
/// recorded, so a failure here means the trace and policy disagree about
/// the policy's action set).
///
/// # Errors
///
/// Returns [`EngineError::ReplayIncompatible`] naming the unrecorded
/// point.
fn select_point<'t>(
    meta: &TraceMeta,
    rec: &'t IntervalRecord,
    action: DtmAction,
) -> Result<&'t PointRecord, EngineError> {
    let key = point_key_of(action);
    match meta.point_index(key) {
        Some(idx) => Ok(&rec.points[idx]),
        None => Err(EngineError::ReplayIncompatible(format!(
            "DTM action {action:?} demands the unrecorded operating point {} \
             (trace records [{}])",
            key.label(),
            meta.capability_id()
        ))),
    }
}
