//! The engine that builds a context, runs a stage pipeline and finalizes
//! an [`AppResult`].

use std::sync::Arc;

use distfront_trace::record::{ActivityTrace, FinalStats};
use distfront_trace::{AppProfile, Workload};

use super::context::EngineCx;
use super::replay::{ReplayBackend, TraceRecorder};
use super::stages::{IntervalLoopStage, PilotStage, WarmStartStage};
use super::sweep::WarmStartCache;
use super::traits::{DtmPolicy, Stage, ThermalBackend};
use super::EngineError;
use crate::experiment::ExperimentConfig;
use crate::runner::{AppResult, TempReport};

/// Couples the cycle simulator, power model and thermal solver for one
/// workload under one configuration, as a pipeline of [`Stage`]s.
///
/// The default pipeline ([`PilotStage`] → [`WarmStartStage`] →
/// [`IntervalLoopStage`]) reproduces the paper's §4 methodology exactly;
/// every piece is swappable. [`run_recorded`](Self::run_recorded) captures
/// the run as an [`ActivityTrace`]; [`with_replay`](Self::with_replay)
/// substitutes the [`ReplayBackend`] pipeline that drives the
/// power/thermal/DTM loop from such a trace without re-simulating the
/// core.
///
/// # Examples
///
/// ```
/// use distfront::engine::CoupledEngine;
/// use distfront::ExperimentConfig;
/// use distfront_trace::AppProfile;
///
/// let cfg = ExperimentConfig::baseline().with_uops(30_000);
/// let result = CoupledEngine::new(&cfg, &AppProfile::test_tiny())
///     .run()
///     .unwrap();
/// assert!(result.temps.processor.average_c > 45.0);
/// ```
pub struct CoupledEngine<'a> {
    cfg: &'a ExperimentConfig,
    workload: Workload,
    thermal: Option<Box<dyn ThermalBackend>>,
    dtm: Option<Box<dyn DtmPolicy>>,
    stages: Option<Vec<Box<dyn Stage>>>,
    replay: Option<Arc<ActivityTrace>>,
    /// Whether the caller already validated `replay` for this cell.
    replay_validated: bool,
}

impl<'a> CoupledEngine<'a> {
    /// An engine with the default stage pipeline over a single
    /// application profile.
    pub fn new(cfg: &'a ExperimentConfig, profile: &AppProfile) -> Self {
        Self::for_workload(cfg, Workload::Single(*profile))
    }

    /// An engine with the default stage pipeline over any [`Workload`]
    /// (single-profile or phased).
    pub fn for_workload(cfg: &'a ExperimentConfig, workload: Workload) -> Self {
        CoupledEngine {
            cfg,
            workload,
            thermal: None,
            dtm: None,
            stages: None,
            replay: None,
            replay_validated: false,
        }
    }

    /// Substitutes an alternative thermal solver.
    ///
    /// The backend must model the same machine's block count.
    #[must_use]
    pub fn with_thermal(mut self, thermal: Box<dyn ThermalBackend>) -> Self {
        self.thermal = Some(thermal);
        self
    }

    /// Substitutes a dynamic-thermal-management policy (overriding the
    /// configuration's [`dtm`](ExperimentConfig::dtm) field).
    #[must_use]
    pub fn with_dtm(mut self, dtm: Box<dyn DtmPolicy>) -> Self {
        self.dtm = Some(dtm);
        self
    }

    /// Replaces the stage pipeline entirely (takes precedence over
    /// [`with_replay`](Self::with_replay)).
    #[must_use]
    pub fn with_stages(mut self, stages: Vec<Box<dyn Stage>>) -> Self {
        self.stages = Some(stages);
        self
    }

    /// Drives the run from a recorded trace through the [`ReplayBackend`]
    /// pipeline instead of the live core simulator.
    ///
    /// The trace must have been recorded for the same core-side
    /// configuration and workload, and the DTM policy (if any) must act
    /// purely at the power level; [`run`](Self::run) fails with
    /// [`EngineError::ReplayIncompatible`] otherwise.
    #[must_use]
    pub fn with_replay(mut self, trace: Arc<ActivityTrace>) -> Self {
        self.replay = Some(trace);
        self
    }

    /// [`with_replay`](Self::with_replay) for a trace the caller has
    /// already passed through [`ReplayBackend::validate`] for this
    /// configuration and workload (the sweep validates each replayed cell
    /// while planning), so the run does not validate it again.
    #[must_use]
    pub(super) fn with_validated_replay(mut self, trace: Arc<ActivityTrace>) -> Self {
        self.replay_validated = true;
        self.with_replay(trace)
    }

    /// The default pilot → warm-start → interval-loop pipeline. `_cache`
    /// is ignored (every warm start is solved for its own cell); it stays
    /// for the end-to-end benchmark, like [`WarmStartCache`] itself.
    pub fn default_stages(_cache: Option<Arc<WarmStartCache>>) -> Vec<Box<dyn Stage>> {
        vec![
            Box::new(PilotStage),
            Box::new(WarmStartStage),
            Box::new(IntervalLoopStage),
        ]
    }

    /// Runs the pipeline to completion.
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration is invalid, a stage's
    /// prerequisites are missing, an iterative phase fails to converge, or
    /// a requested replay is incompatible.
    pub fn run(self) -> Result<AppResult, EngineError> {
        self.execute(false).map(|(result, _)| result)
    }

    /// Runs the pipeline to completion while recording the run as an
    /// [`ActivityTrace`]. The recording taps only observe: the returned
    /// [`AppResult`] is bit-identical to [`run`](Self::run)'s.
    ///
    /// Recording a replayed run is refused (the replay pipeline never
    /// produces fresh activity), as is recording through a fully custom
    /// stage list that bypasses the default taps.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run), and [`EngineError::InvalidConfig`] when the
    /// run cannot be recorded.
    pub fn run_recorded(self) -> Result<(AppResult, ActivityTrace), EngineError> {
        if self.replay.is_some() || self.stages.is_some() {
            return Err(EngineError::InvalidConfig(
                "recording requires the default live pipeline".into(),
            ));
        }
        let (result, trace) = self.execute(true)?;
        Ok((result, trace.expect("recording pipeline produced a trace")))
    }

    fn execute(self, record: bool) -> Result<(AppResult, Option<ActivityTrace>), EngineError> {
        let workload = self.workload;
        let replay = match (&self.stages, self.replay) {
            // An explicit stage list wins; replay otherwise, validated
            // before any model is built.
            (None, Some(trace)) => {
                if !self.replay_validated {
                    ReplayBackend::validate(self.cfg, &workload, &trace)?;
                }
                Some(trace)
            }
            _ => None,
        };
        // A policy installed via with_dtm is an arbitrary boxed object the
        // recorder cannot prove power-level-only; it taints the recording
        // as not replay-safe.
        let custom_dtm = self.dtm.is_some();
        let mut cx = EngineCx::build(self.cfg, &workload, self.thermal, self.dtm)?;
        if record {
            cx.recorder = Some(TraceRecorder::new(self.cfg, &workload, custom_dtm));
        }
        let mut stages = match (self.stages, replay) {
            (Some(stages), _) => stages,
            (None, Some(trace)) => ReplayBackend::stages(trace, None),
            (None, None) => Self::default_stages(None),
        };
        stages.iter_mut().try_for_each(|stage| stage.run(&mut cx))?;
        let trace = cx.recorder.take().map(|rec| rec.finish(finals(&cx)));
        Ok((finish(&cx)?, trace))
    }
}

/// The run's core-side final statistics: what the live interval loop or
/// a replay left in [`EngineCx::finals`], or, when no core loop ran, what
/// an un-run core reports (no cycles, no micro-ops, no trace-cache misses,
/// no mispredictions).
fn finals(cx: &EngineCx<'_>) -> FinalStats {
    cx.finals.unwrap_or(FinalStats {
        cycles: 0,
        uops: 0,
        tc_hit_rate: 1.0,
        mispredict_rate: 0.0,
    })
}

/// Assembles the final [`AppResult`] from the context the stages left.
///
/// Core-side statistics come from [`EngineCx::finals`], set by the live
/// interval loop or from a replayed trace. Fails with
/// [`EngineError::NoData`] when the stages closed no measurement
/// intervals (a custom pipeline that skipped the interval loop): the
/// temperature metrics would be undefined.
fn finish(cx: &EngineCx<'_>) -> Result<AppResult, EngineError> {
    let FinalStats {
        cycles,
        uops,
        tc_hit_rate,
        mispredict_rate,
    } = finals(cx);
    let g = |idx: &[usize]| {
        cx.tracker.try_group_metrics(idx).ok_or(EngineError::NoData(
            "the pipeline closed no measurement intervals",
        ))
    };
    Ok(AppResult {
        app: cx.workload.name(),
        cycles,
        uops,
        ipc: uops as f64 / cycles.max(1) as f64,
        cpi: cycles as f64 / uops.max(1) as f64,
        tc_hit_rate,
        mispredict_rate,
        avg_power_w: cx.power_time_sum / cx.time_sum.max(1e-12),
        wall_time_s: cx.time_sum,
        emergencies: cx.dtm.as_ref().map_or(0, |c| c.triggers()),
        throttled_intervals: cx.dtm.as_ref().map_or(0, |c| c.throttled_intervals()),
        over_limit_s: cx
            .tracker
            .time_above(cx.model.leakage_model().emergency_c, &cx.groups.processor),
        temps: TempReport {
            rob: g(&cx.groups.rob)?,
            rat: g(&cx.groups.rat)?,
            trace_cache: g(&cx.groups.trace_cache)?,
            frontend: g(&cx.groups.frontend)?,
            backend: g(&cx.groups.backend)?,
            ul2: g(&cx.groups.ul2)?,
            processor: g(&cx.groups.processor)?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_app;

    #[test]
    fn explicit_stage_wiring_matches_default_pipeline() {
        // Two different construction paths — the implicit default pipeline
        // (what `run_app` uses) and an explicitly assembled stage list —
        // must produce the same result, so `default_stages` and `run`
        // cannot drift apart.
        let cfg = ExperimentConfig::baseline().with_uops(60_000);
        let app = AppProfile::test_tiny();
        let explicit = CoupledEngine::new(&cfg, &app)
            .with_stages(CoupledEngine::default_stages(None))
            .run()
            .unwrap();
        let implicit = run_app(&cfg, &app);
        assert_eq!(explicit, implicit);
        // And the run is physically sane, not just self-consistent.
        assert!(implicit.uops >= 60_000);
        assert!(implicit.temps.processor.average_c > 45.0);
    }

    #[test]
    fn invalid_config_is_an_error_not_a_panic() {
        let mut cfg = ExperimentConfig::baseline();
        cfg.uops_per_app = 0;
        let err = CoupledEngine::new(&cfg, &AppProfile::test_tiny())
            .run()
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidConfig(_)));
    }

    #[test]
    fn invalid_workload_profile_is_an_error_not_nonsense() {
        // AppProfile::validate is on the engine path: a profile violating
        // its invariants surfaces as a config error on every entry point
        // instead of silently simulating garbage.
        let cfg = ExperimentConfig::baseline().with_uops(30_000);
        let mut bad = AppProfile::test_tiny();
        bad.load_frac = 1.4;
        let err = CoupledEngine::new(&cfg, &bad).run().unwrap_err();
        assert!(matches!(err, EngineError::InvalidConfig(_)), "{err:?}");
        assert!(err.to_string().contains("mix fractions"), "{err}");
    }

    #[test]
    fn warm_start_without_pilot_reports_missing_phase() {
        let cfg = ExperimentConfig::baseline().with_uops(30_000);
        let app = AppProfile::test_tiny();
        let err = CoupledEngine::new(&cfg, &app)
            .with_stages(vec![Box::new(WarmStartStage)])
            .run()
            .unwrap_err();
        assert!(matches!(err, EngineError::MissingPhase(_)));
    }

    #[test]
    fn custom_stage_pipeline_runs() {
        struct Nop;
        impl Stage for Nop {
            fn name(&self) -> &'static str {
                "nop"
            }
            fn run(&mut self, _cx: &mut EngineCx<'_>) -> Result<(), EngineError> {
                Ok(())
            }
        }
        let cfg = ExperimentConfig::baseline().with_uops(30_000);
        let app = AppProfile::test_tiny();
        let mut stages = CoupledEngine::default_stages(None);
        stages.insert(0, Box::new(Nop));
        let r = CoupledEngine::new(&cfg, &app)
            .with_stages(stages)
            .run()
            .unwrap();
        assert_eq!(r, run_app(&cfg, &app));
    }

    #[test]
    fn a_pipeline_without_a_core_loop_reports_an_un_run_core() {
        use distfront_uarch::Simulator;

        /// Closes one measurement interval at the thermal backend's
        /// initial state without running any core.
        struct CloseInterval;
        impl Stage for CloseInterval {
            fn name(&self) -> &'static str {
                "close-interval"
            }
            fn run(&mut self, cx: &mut EngineCx<'_>) -> Result<(), EngineError> {
                cx.tracker.record(cx.thermal.block_temperatures(), 1e-3);
                cx.tracker.end_interval();
                Ok(())
            }
        }
        let cfg = ExperimentConfig::baseline().with_uops(30_000);
        let app = AppProfile::test_tiny();
        let r = CoupledEngine::new(&cfg, &app)
            .with_stages(vec![Box::new(CloseInterval)])
            .run()
            .unwrap();
        assert_eq!((r.cycles, r.uops), (0, 0));
        assert_eq!(r.tc_hit_rate, 1.0);
        assert_eq!(r.mispredict_rate, 0.0);
        // The same values a freshly built, never stepped core reports.
        let sim = Simulator::new(cfg.processor.clone(), &app, cfg.seed);
        assert_eq!(r.cycles, sim.current_cycle());
        assert_eq!(r.uops, sim.total_committed());
        assert_eq!(r.tc_hit_rate, sim.tc_hit_rate());
        assert_eq!(r.mispredict_rate, sim.mispredict_rate());
    }

    #[test]
    fn live_finals_equal_the_recorded_trace_finals() {
        use std::sync::Mutex;

        /// Copies the context's final core stats out after the loop.
        struct Capture(Arc<Mutex<Option<FinalStats>>>);
        impl Stage for Capture {
            fn name(&self) -> &'static str {
                "capture"
            }
            fn run(&mut self, cx: &mut EngineCx<'_>) -> Result<(), EngineError> {
                *self.0.lock().unwrap() = cx.finals;
                Ok(())
            }
        }
        let cfg = ExperimentConfig::baseline().with_uops(40_000);
        let app = AppProfile::test_tiny();
        let seen = Arc::new(Mutex::new(None));
        let mut stages = CoupledEngine::default_stages(None);
        stages.push(Box::new(Capture(Arc::clone(&seen))));
        let live = CoupledEngine::new(&cfg, &app)
            .with_stages(stages)
            .run()
            .unwrap();
        let finals = seen.lock().unwrap().expect("the interval loop set finals");
        let (result, trace) = CoupledEngine::new(&cfg, &app).run_recorded().unwrap();
        assert_eq!(finals, trace.finals);
        assert_eq!(result, live);
        assert_eq!((live.cycles, live.uops), (finals.cycles, finals.uops));
    }

    #[test]
    fn dtm_policy_plugs_in() {
        use crate::dtm::EmergencyPolicy;
        use crate::experiment::DtmSpec;
        let cfg = ExperimentConfig::baseline().with_uops(40_000);
        let app = AppProfile::test_tiny();
        // Threshold below ambient: every interval throttles.
        let ctrl = DtmSpec::Emergency(EmergencyPolicy::with_threshold(40.0));
        let r = CoupledEngine::new(&cfg, &app)
            .with_dtm(ctrl.build(distfront_power::Machine::new(1, 4, 2)))
            .run()
            .unwrap();
        assert!(r.emergencies >= 1);
        assert!(r.throttled_intervals >= 1);
    }

    #[test]
    fn recording_is_invisible_and_replay_reproduces_the_run() {
        let cfg = ExperimentConfig::baseline().with_uops(40_000);
        let app = AppProfile::test_tiny();
        let plain = run_app(&cfg, &app);
        let (result, trace) = CoupledEngine::new(&cfg, &app).run_recorded().unwrap();
        assert_eq!(result, plain, "recording changed the run");
        assert_eq!(trace.meta.workload, "tiny");
        assert!(!trace.intervals.is_empty());
        assert!(trace.intervals.last().unwrap().points[0].done);

        let replayed = CoupledEngine::new(&cfg, &app)
            .with_replay(Arc::new(trace))
            .run();
        assert_eq!(replayed.unwrap(), plain, "replay diverged from live");
    }

    #[test]
    fn replay_rejects_core_side_mismatches() {
        let cfg = ExperimentConfig::baseline().with_uops(40_000);
        let app = AppProfile::test_tiny();
        let trace = Arc::new(CoupledEngine::new(&cfg, &app).run_recorded().unwrap().1);

        // Different run length.
        let longer = ExperimentConfig::baseline().with_uops(80_000);
        let err = CoupledEngine::new(&longer, &app)
            .with_replay(Arc::clone(&trace))
            .run()
            .unwrap_err();
        assert!(
            matches!(&err, EngineError::ReplayIncompatible(m) if m.contains("uops_per_app")),
            "{err}"
        );

        // Different workload.
        let gzip = *AppProfile::by_name("gzip").unwrap();
        let err = CoupledEngine::new(&cfg, &gzip)
            .with_replay(Arc::clone(&trace))
            .run()
            .unwrap_err();
        assert!(
            matches!(&err, EngineError::ReplayIncompatible(m) if m.contains("workload")),
            "{err}"
        );

        // A core-perturbing DTM policy names itself in the error.
        use crate::dtm::DvfsPolicy;
        use crate::experiment::DtmSpec;
        let dvfs = ExperimentConfig::baseline()
            .with_uops(40_000)
            .with_dtm(DtmSpec::GlobalDvfs(DvfsPolicy::paper_limit()));
        let err = CoupledEngine::new(&dvfs, &app)
            .with_replay(Arc::clone(&trace))
            .run()
            .unwrap_err();
        assert!(
            matches!(&err, EngineError::ReplayIncompatible(m) if m.contains("global-dvfs")),
            "{err}"
        );

        // Recording a replay makes no sense.
        let res = CoupledEngine::new(&cfg, &app)
            .with_replay(trace)
            .run_recorded();
        assert!(matches!(res, Err(EngineError::InvalidConfig(_))));
    }
}
