//! The staged simulation engine.
//!
//! [`runner::run_app`](crate::runner::run_app) used to be one monolithic
//! function that piloted, warm-started and interval-looped an application
//! in-line. This module splits that coupled simulator ⇄ power ⇄ thermal
//! pipeline into composable parts:
//!
//! * [`Stage`] — one phase of an experiment ([`PilotStage`],
//!   [`WarmStartStage`], [`IntervalLoopStage`] reproduce the paper's §4
//!   methodology; every cell solves its own warm start); custom stages
//!   slot in without touching the loop,
//! * one interval loop — power action, interval activity, power →
//!   temperature step, DTM decision, until the run is done — written once
//!   and fed by one of two sources: the live core ([`IntervalLoopStage`]:
//!   the pilot's stored prefix, its resumed core or a fresh one, family
//!   probes, trace-cache rebalance and hop) or a recorded trace
//!   ([`ReplayLoopStage`]: the operating point each action selects),
//! * [`EngineCx`] — the shared state the stages hand each other (power
//!   model, thermal backend, accumulators, the run's final core stats);
//!   the live stages build the core simulator, at most one per cell (the
//!   pilot hands its core to the interval loop where it can), so a
//!   replay never builds one,
//! * [`CoupledEngine`] — builds the context, runs the stage pipeline and
//!   finalizes an [`AppResult`](crate::runner::AppResult),
//! * [`ThermalBackend`] / [`DtmPolicy`] — plug-in points for alternative
//!   thermal solvers and dynamic-thermal-management policies,
//! * [`SweepRunner`] — executes an application × configuration grid (or
//!   a job's rows, each a configuration over its own workloads) in
//!   parallel over `std::thread::scope`, with results ordered exactly as a
//!   serial double loop would produce them; sweeps are fault-tolerant
//!   ([`SweepRunner::try_grid`] returns a [`SweepReport`] of per-cell
//!   [`CellOutcome`]s — one failing cell never aborts the others),
//! * [`TraceRecorder`] / [`ReplayBackend`] — record a live run's
//!   per-interval activity as a multi-operating-point
//!   [`ActivityTrace`](distfront_trace::record::ActivityTrace) and replay
//!   it through the same interval loop without re-simulating the core. The trace declares which operating points it recorded —
//!   nominal plus the policy-actionable variants (DVFS, fetch-gate duty,
//!   migration targets) — and replay is exact for any policy whose
//!   points the trace covers; a policy needing an unrecorded point is
//!   rejected with [`EngineError::ReplayIncompatible`] naming it, and
//! * [`TraceStore`] / [`TraceMode`] — the sweep-level record-once /
//!   replay-many plumbing, keyed by capability family, with per-cell
//!   fallback to live simulation when no covering trace exists; every
//!   replay-mode cell with a valid trace is its own sweep task.
//!
//! [`WarmStartCache`] and [`BatchScheduler`] are inert names the
//! end-to-end benchmark still compiles against (see the end of the
//! `sweep` module).
//!
//! Every path through the engine is bit-identical: the same configuration
//! and profile produce the same [`AppResult`](crate::runner::AppResult)
//! whether run through [`run_app`](crate::runner::run_app), a hand-built
//! [`CoupledEngine`], or any thread count of a
//! [`SweepRunner`] (this was verified against the pre-refactor monolithic
//! runner when the stages were extracted, and the cross-path identities
//! are tested continuously).
//!
//! # Examples
//!
//! Run a small grid in parallel:
//!
//! ```
//! use distfront::engine::SweepRunner;
//! use distfront::ExperimentConfig;
//! use distfront_trace::{AppProfile, Workload};
//!
//! let configs = [ExperimentConfig::baseline().with_uops(30_000)];
//! let apps = [Workload::from(AppProfile::test_tiny())];
//! let grid = SweepRunner::new().try_grid(&configs, &apps).strict();
//! assert_eq!(grid.len(), 1);
//! assert_eq!(grid[0][0].app, "tiny");
//! ```

mod context;
mod coupled;
mod interval;
mod replay;
mod stages;
mod sweep;
mod traits;

pub use context::EngineCx;
pub use coupled::CoupledEngine;
pub use replay::{ReplayBackend, ReplayLoopStage, ReplayPilotStage, TraceRecorder};
pub use stages::{IntervalLoopStage, PilotCore, PilotStage, WarmStartStage};
pub use sweep::{
    BatchScheduler, CellOutcome, SweepReport, SweepRunner, TraceMode, TraceStore, WarmStartCache,
};
pub use traits::{DtmAction, DtmPolicy, Stage, ThermalBackend};

/// Errors the engine can surface instead of panicking mid-pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The experiment configuration failed validation.
    InvalidConfig(String),
    /// A stage ran before a phase it depends on (e.g. warm start without a
    /// pilot's nominal power).
    MissingPhase(&'static str),
    /// An iterative phase failed to converge (e.g. the warm start's
    /// leakage↔temperature fixed point); its state must not be trusted.
    NotConverged(&'static str),
    /// The run produced no measurable data (e.g. a custom pipeline closed
    /// no measurement intervals), so the report metrics are undefined.
    NoData(&'static str),
    /// A recorded trace cannot stand in for this run: the core-side
    /// configuration differs from the recording's, or the DTM policy
    /// needs an operating point the trace never recorded. The message
    /// names the offending field, policy or missing point; callers that
    /// can (the replaying sweep executor) fall back to live simulation.
    ReplayIncompatible(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::InvalidConfig(msg) => write!(f, "{msg}"),
            EngineError::MissingPhase(msg) => write!(f, "missing phase: {msg}"),
            EngineError::NotConverged(msg) => write!(f, "not converged: {msg}"),
            EngineError::NoData(msg) => write!(f, "no data: {msg}"),
            EngineError::ReplayIncompatible(msg) => write!(f, "replay incompatible: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}
