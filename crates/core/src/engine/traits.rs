//! The engine's extension points: stages, thermal backends and DTM
//! policies.

use distfront_thermal::{ExpPropagator, ThermalSolver};

use super::{EngineCx, EngineError};

/// One phase of an experiment pipeline.
///
/// A stage reads and mutates the shared [`EngineCx`]; the
/// [`CoupledEngine`](super::CoupledEngine) runs its stages in order and
/// finalizes the result from whatever state they leave behind. The default
/// pipeline is pilot → warm start → interval loop, but replacements and
/// extra stages (checkpointing, logging, alternative control policies)
/// compose freely.
pub trait Stage {
    /// Short name for diagnostics.
    fn name(&self) -> &'static str;
    /// Executes the phase.
    ///
    /// # Errors
    ///
    /// Returns an error when a prerequisite phase has not run or the
    /// context is otherwise unusable.
    fn run(&mut self, cx: &mut EngineCx<'_>) -> Result<(), EngineError>;
}

/// A thermal solver the engine can drive.
///
/// [`ExpPropagator`] (the exact modal propagator) is the
/// default implementation; [`ThermalSolver`] keeps the sub-stepped RK4
/// reference selectable via
/// [`ExperimentConfig::integrator`](crate::ExperimentConfig). Alternative
/// solvers (model-order-reduced networks, lookup-table models,
/// hardware-sensor replay) implement this trait and plug into
/// [`CoupledEngine::with_thermal`](super::CoupledEngine::with_thermal)
/// without the interval loop changing.
pub trait ThermalBackend {
    /// Temperatures of the floorplan blocks, in °C.
    fn block_temperatures(&self) -> &[f64];
    /// Temperatures of every node (blocks, then package), in °C.
    fn node_temperatures(&self) -> &[f64];
    /// Overwrites the full node state.
    fn set_node_temperatures(&mut self, t: Vec<f64>);
    /// Adopts the steady state under constant block `power`.
    fn steady_state(&mut self, power: &[f64]);
    /// Advances the transient state by `dt` seconds under constant block
    /// `power`.
    fn advance(&mut self, power: &[f64], dt: f64);
    /// Number of block nodes.
    fn block_count(&self) -> usize;
    /// Advances one interval of `dt` seconds under constant block `power`
    /// in two half-steps, so intra-interval transients are sampled:
    /// `sample` gets the block temperatures and the half-step length after
    /// each. The interval loops step through this method.
    ///
    /// The default is two [`advance`](Self::advance) calls of `dt / 2`,
    /// each followed by its sample. [`ExpPropagator`] overrides it with
    /// one prepared step applied twice, to the same bits.
    fn advance_interval(&mut self, power: &[f64], dt: f64, sample: &mut dyn FnMut(&[f64], f64)) {
        let h = dt / 2.0;
        for _half in 0..2 {
            self.advance(power, h);
            sample(self.block_temperatures(), h);
        }
    }
}

impl ThermalBackend for ThermalSolver {
    fn block_temperatures(&self) -> &[f64] {
        ThermalSolver::block_temperatures(self)
    }

    fn node_temperatures(&self) -> &[f64] {
        self.temperatures()
    }

    fn set_node_temperatures(&mut self, t: Vec<f64>) {
        self.set_temperatures(t);
    }

    fn steady_state(&mut self, power: &[f64]) {
        self.set_steady_state(power);
    }

    fn advance(&mut self, power: &[f64], dt: f64) {
        ThermalSolver::advance(self, power, dt);
    }

    fn block_count(&self) -> usize {
        self.network().block_count()
    }
}

impl ThermalBackend for ExpPropagator {
    fn block_temperatures(&self) -> &[f64] {
        ExpPropagator::block_temperatures(self)
    }

    fn node_temperatures(&self) -> &[f64] {
        self.temperatures()
    }

    fn set_node_temperatures(&mut self, t: Vec<f64>) {
        self.set_temperatures(t);
    }

    fn steady_state(&mut self, power: &[f64]) {
        self.set_steady_state(power);
    }

    fn advance(&mut self, power: &[f64], dt: f64) {
        ExpPropagator::advance(self, power, dt);
    }

    fn block_count(&self) -> usize {
        self.network().block_count()
    }

    fn advance_interval(&mut self, power: &[f64], dt: f64, sample: &mut dyn FnMut(&[f64], f64)) {
        ExpPropagator::advance_interval(self, power, dt, sample);
    }
}

/// What a [`DtmPolicy`] asks the engine to do for the next interval.
///
/// Each variant maps onto one of the mechanisms the paper's §4 names as
/// the design space for handling thermal emergencies; the
/// [`IntervalLoopStage`](super::IntervalLoopStage) translates it into the
/// corresponding simulator / power-model hooks before running the
/// interval. Actions are not sticky: a policy that wants to stay engaged
/// returns the same action again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DtmAction {
    /// Run at the nominal operating point with every hook released.
    Nominal,
    /// Stretch the interval's wall-clock time by `1/factor` at unchanged
    /// voltage (the classic halve-the-clock emergency response; first-order
    /// frequency scaling). `factor` must lie in `(0, 1)`.
    Throttle(f64),
    /// Run at a scaled global (V, f) operating point: dynamic energy drops
    /// by `v_scale²`, leakage is recomputed at the scaled voltage, and the
    /// uncore gets relatively closer by `f_scale`.
    Dvfs {
        /// Core frequency as a fraction of nominal, in `(0, 1]`.
        f_scale: f64,
        /// Supply voltage as a fraction of nominal, in `(0, 1]`.
        v_scale: f64,
    },
    /// Gate the fetch unit to `open` of every `period` cycles (fetch
    /// toggling): front-end activity density falls at an IPC cost.
    FetchGate {
        /// Cycles per period the fetch unit is enabled.
        open: u32,
        /// Period of the gating pattern in cycles.
        period: u32,
    },
    /// Steer dispatch toward the backends fed by this frontend partition,
    /// draining rename/commit activity away from the hotter partition.
    MigrateTo(usize),
}

/// A dynamic-thermal-management policy the interval loop consults once per
/// interval.
///
/// The two built-in controllers — the threshold controller behind the
/// emergency throttle, global DVFS and fetch gating, and the migration
/// controller — come only from
/// [`DtmSpec::build`](crate::DtmSpec::build) (see [`crate::dtm`]). Custom
/// policies implement this trait and plug into
/// [`CoupledEngine::with_dtm`](super::CoupledEngine::with_dtm).
pub trait DtmPolicy {
    /// Observes end-of-interval block temperatures and picks the action
    /// for the next interval.
    fn decide(&mut self, temps_c: &[f64]) -> DtmAction;
    /// Distinct emergencies triggered so far.
    fn triggers(&self) -> u64;
    /// Intervals spent under a non-nominal action so far.
    fn throttled_intervals(&self) -> u64;
}
