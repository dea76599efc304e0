//! The shared state stages hand each other.

use distfront_power::{BlockId, EnergyTable, Machine, PowerModel};
use distfront_thermal::{
    ExpPropagator, Floorplan, Integrator, PackageConfig, TemperatureTracker, ThermalParts,
    ThermalSolver,
};
use distfront_trace::record::FinalStats;
use distfront_trace::Workload;

use super::replay::TraceRecorder;
use super::stages::PilotCore;
use super::traits::{DtmPolicy, ThermalBackend};
use super::EngineError;
use crate::experiment::ExperimentConfig;
use crate::runner::BlockGroups;

/// Everything an experiment's stages share: the machine under test, the
/// power and thermal models, and the accumulators the final
/// [`AppResult`](crate::runner::AppResult) is assembled from.
///
/// The default thermal backend steps on the machine's
/// [`ThermalParts`]: the RC network, the LU factor of its steady-state
/// matrix and its modal basis, all a pure function of the machine shape
/// and package, built on the first request in the process and shared by
/// every later cell on that machine. Building a context builds no
/// network.
///
/// The context builds no core simulator. The live pilot builds one and,
/// on an eligible cell, hands it to the interval loop through
/// [`pilot_core`](Self::pilot_core); otherwise the loop builds its own
/// (see [`PilotStage`](super::PilotStage)). Either way a cell holds at
/// most one core at a time. The loop leaves the run's [`FinalStats`] in
/// [`finals`](Self::finals); a replay copies them from the trace. So
/// building a context for a replayed cell builds no core.
///
/// Fields are public so custom [`Stage`](super::Stage) implementations can
/// reach whatever they need.
pub struct EngineCx<'a> {
    /// The experiment configuration.
    pub cfg: &'a ExperimentConfig,
    /// The workload under test (a single application or a phased
    /// composition).
    pub workload: &'a Workload,
    /// The machine shape (fixes the canonical block order).
    pub machine: Machine,
    /// The thermal package (supplies the ambient temperature).
    pub pkg: PackageConfig,
    /// Block groups the paper reports on.
    pub groups: BlockGroups,
    /// Un-gateable background power per block, in Watts.
    pub idle: Vec<f64>,
    /// Activity → Watts conversion.
    pub model: PowerModel,
    /// The thermal solver in use.
    pub thermal: Box<dyn ThermalBackend>,
    /// AbsMax/Average/AvgMax bookkeeping over the evaluation run.
    pub tracker: TemperatureTracker,
    /// Optional dynamic-thermal-management policy.
    pub dtm: Option<Box<dyn DtmPolicy>>,
    /// Nominal (pilot-measured) per-block power, set by the pilot stage.
    pub nominal: Option<Vec<f64>>,
    /// ∫ total power dt over the evaluation, in Joules.
    pub power_time_sum: f64,
    /// Evaluated wall-clock seconds.
    pub time_sum: f64,
    /// When present, the pilot and interval-loop stages append the run's
    /// activity here ([`CoupledEngine::run_recorded`](super::CoupledEngine)
    /// installs it). Recording only observes: a recorded run's result is
    /// bit-identical to an unrecorded one.
    pub recorder: Option<TraceRecorder>,
    /// The pilot's core, left by [`PilotStage`](super::PilotStage) on an
    /// eligible cell for the interval loop to resume, which takes it.
    /// Clearing it makes the loop build its own core, with the same
    /// result.
    pub pilot_core: Option<PilotCore>,
    /// The run's core-side final statistics: set by the live interval
    /// loop from its simulator, or by a replay from the trace. `None` when
    /// no core loop ran; the report then reads an un-run core's values.
    pub finals: Option<FinalStats>,
}

impl<'a> EngineCx<'a> {
    /// Builds the context for a configuration and workload, optionally
    /// overriding the thermal backend and DTM policy.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] when the configuration or
    /// the workload (every application profile it involves) fails
    /// validation.
    pub fn build(
        cfg: &'a ExperimentConfig,
        workload: &'a Workload,
        thermal: Option<Box<dyn ThermalBackend>>,
        dtm: Option<Box<dyn DtmPolicy>>,
    ) -> Result<Self, EngineError> {
        cfg.validate().map_err(EngineError::InvalidConfig)?;
        workload.validate().map_err(EngineError::InvalidConfig)?;
        let pc = &cfg.processor;
        let machine = Machine::new(
            pc.frontend_mode.partitions(),
            pc.backends,
            pc.trace_cache.physical_banks(),
        );
        let fp = Floorplan::for_machine(machine);
        let areas = fp.areas();
        let pkg = PackageConfig::paper();
        let model = PowerModel::new(machine, EnergyTable::nm65(), cfg.leakage, pc.frequency_hz);
        let groups = BlockGroups::for_machine(machine);

        // Background (clock-tree) power per block; trace-cache banks under
        // hopping are on only `logical/physical` of the time, so their
        // time-averaged background power scales accordingly.
        let duty = pc.trace_cache.logical_banks as f64 / pc.trace_cache.physical_banks() as f64;
        let idle: Vec<f64> = machine
            .blocks()
            .iter()
            .zip(&areas)
            .map(|(b, a)| {
                let d = if matches!(b, BlockId::TcBank(_)) {
                    duty
                } else {
                    1.0
                };
                a * cfg.idle_density_w_mm2 * d
            })
            .collect();

        // The default backend follows the configured integrator: the exact
        // modal propagator for production runs, the RK4 reference when
        // cross-checking. Both step on the machine's shared thermal parts
        // (network, LU factor, modal basis: built once per process), so
        // warm starts are bit-identical either way and no cell builds a
        // network.
        let thermal = thermal.unwrap_or_else(|| {
            let parts = ThermalParts::for_machine(machine, &pkg);
            match cfg.integrator {
                Integrator::Rk4 => {
                    Box::new(ThermalSolver::with_parts(parts)) as Box<dyn ThermalBackend>
                }
                Integrator::Expm => Box::new(ExpPropagator::with_parts(parts)),
            }
        });
        let dtm = dtm.or_else(|| cfg.dtm.map(|spec| spec.build(machine)));

        Ok(EngineCx {
            cfg,
            workload,
            machine,
            pkg,
            groups,
            idle,
            model,
            thermal,
            tracker: TemperatureTracker::new(areas),
            dtm,
            nominal: None,
            power_time_sum: 0.0,
            time_sum: 0.0,
            recorder: None,
            finals: None,
            pilot_core: None,
        })
    }

    /// The pilot-measured nominal power profile.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::MissingPhase`] when the pilot has not run.
    pub fn nominal(&self) -> Result<&[f64], EngineError> {
        self.nominal.as_deref().ok_or(EngineError::MissingPhase(
            "pilot has not measured nominal power",
        ))
    }
}
