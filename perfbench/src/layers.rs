//! Per-layer tracing from outside the engine: timed wrappers around the
//! engine's public seams — every [`Stage`] of the pipeline (via
//! `with_stages`), the [`ThermalBackend`] (via `with_thermal`) and the
//! [`DtmPolicy`] (via `with_dtm`) — accumulating into one [`Tally`].
//!
//! Traced cells run serially on the calling thread, so the wrappers share
//! the tally through `Rc<RefCell<_>>`. A traced cell builds its own
//! [`ExpPropagator`], which makes the engine bypass the
//! `WarmStartCache`: every traced warm start is a cold solve.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use distfront::engine::{DtmAction, DtmPolicy, EngineCx, ReplayBackend, Stage, ThermalBackend};
use distfront::{AppResult, CoupledEngine, EngineError, ExperimentConfig, Integrator};
use distfront_power::Machine;
use distfront_thermal::{ExpPropagator, Floorplan, PackageConfig, ThermalNetwork};
use distfront_trace::{ActivityTrace, Workload};

use crate::report::Report;

/// Layer totals over every traced cell.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub cells: u64,
    /// Cells that ran the live simulator (the rest replayed a trace).
    pub live_cells: u64,
    /// Wall time of whole traced cells (`CoupledEngine::run`).
    pub cell_ns: u64,
    pub pilot_ns: u64,
    pub warm_ns: u64,
    /// Interval-loop stage wall time, live or replayed.
    pub loop_ns: u64,
    pub replay_loop_ns: u64,
    pub advance_ns: u64,
    pub advances: u64,
    /// Sum over cells of the distinct step sizes each cell advanced by.
    pub distinct_dt: u64,
    pub decide_ns: u64,
    pub decisions: u64,
    pub non_nominal: u64,
    /// Simulated (or, on replay, recorded) core cycles.
    pub cycles: u64,
    /// Micro-ops the live simulator ran: pilot budget plus committed.
    pub sim_uops: u64,
    /// Step sizes of the cell in flight.
    dts: HashSet<u64>,
}

type Shared = Rc<RefCell<Tally>>;

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A stage timed from outside. Stages are attributed by name, so a
/// pipeline that renames, drops or adds a stage still sums correctly:
/// pilots to `pilot_ns`, warm starts to `warm_ns`, the rest to the loop.
struct TimedStage {
    inner: Box<dyn Stage>,
    tally: Shared,
}

impl Stage for TimedStage {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&mut self, cx: &mut EngineCx<'_>) -> Result<(), EngineError> {
        let t = Instant::now();
        let result = self.inner.run(cx);
        let ns = ns_since(t);
        let mut tally = self.tally.borrow_mut();
        let name = self.inner.name();
        if name.contains("pilot") {
            tally.pilot_ns += ns;
        } else if name.contains("warm") {
            tally.warm_ns += ns;
        } else {
            tally.loop_ns += ns;
            if name.contains("replay") {
                tally.replay_loop_ns += ns;
            }
        }
        result
    }
}

/// The default thermal kernel, timed per `advance`.
struct TimedThermal {
    inner: ExpPropagator,
    tally: Shared,
}

impl ThermalBackend for TimedThermal {
    fn block_temperatures(&self) -> &[f64] {
        self.inner.block_temperatures()
    }

    fn node_temperatures(&self) -> &[f64] {
        self.inner.temperatures()
    }

    fn set_node_temperatures(&mut self, t: Vec<f64>) {
        self.inner.set_temperatures(t);
    }

    fn steady_state(&mut self, power: &[f64]) {
        self.inner.set_steady_state(power);
    }

    fn advance(&mut self, power: &[f64], dt: f64) {
        let t = Instant::now();
        self.inner.advance(power, dt);
        let ns = ns_since(t);
        let mut tally = self.tally.borrow_mut();
        tally.advance_ns += ns;
        tally.advances += 1;
        tally.dts.insert(dt.to_bits());
    }

    fn block_count(&self) -> usize {
        self.inner.network().block_count()
    }
}

/// The configuration's DTM policy, timed per decision.
struct TimedDtm {
    inner: Box<dyn DtmPolicy>,
    tally: Shared,
}

impl DtmPolicy for TimedDtm {
    fn decide(&mut self, temps_c: &[f64]) -> DtmAction {
        let t = Instant::now();
        let action = self.inner.decide(temps_c);
        let ns = ns_since(t);
        let mut tally = self.tally.borrow_mut();
        tally.decide_ns += ns;
        tally.decisions += 1;
        if action != DtmAction::Nominal {
            tally.non_nominal += 1;
        }
        action
    }

    fn triggers(&self) -> u64 {
        self.inner.triggers()
    }

    fn throttled_intervals(&self) -> u64 {
        self.inner.throttled_intervals()
    }
}

/// Runs cells through the engine with every seam wrapped.
#[derive(Debug, Default)]
pub struct Tracer {
    tally: Shared,
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs one cell traced: live, or replayed from `trace`. A replay is
    /// validated here first, because an explicit stage list makes the
    /// engine skip `ReplayBackend::validate`.
    pub fn cell(
        &self,
        cfg: &ExperimentConfig,
        workload: &Workload,
        trace: Option<&Arc<ActivityTrace>>,
    ) -> Result<AppResult, EngineError> {
        if cfg.integrator != Integrator::Expm {
            return Err(EngineError::InvalidConfig(
                "the traced run wraps the expm thermal kernel only".into(),
            ));
        }
        let started = Instant::now();
        if let Some(trace) = trace {
            ReplayBackend::validate(cfg, workload, trace)?;
        }
        let pc = &cfg.processor;
        let machine = Machine::new(
            pc.frontend_mode.partitions(),
            pc.backends,
            pc.trace_cache.physical_banks(),
        );
        let net = ThermalNetwork::from_floorplan(
            &Floorplan::for_machine(machine),
            &PackageConfig::paper(),
        );
        let stages = match trace {
            Some(trace) => ReplayBackend::stages(Arc::clone(trace), None),
            None => CoupledEngine::default_stages(None),
        };
        let stages = stages
            .into_iter()
            .map(|inner| {
                Box::new(TimedStage {
                    inner,
                    tally: Rc::clone(&self.tally),
                }) as Box<dyn Stage>
            })
            .collect();
        let mut engine = CoupledEngine::for_workload(cfg, workload.clone())
            .with_stages(stages)
            .with_thermal(Box::new(TimedThermal {
                inner: ExpPropagator::new(net),
                tally: Rc::clone(&self.tally),
            }));
        if let Some(spec) = &cfg.dtm {
            engine = engine.with_dtm(Box::new(TimedDtm {
                inner: spec.build(machine),
                tally: Rc::clone(&self.tally),
            }));
        }
        let result = engine.run();
        let ns = ns_since(started);
        let mut tally = self.tally.borrow_mut();
        tally.cells += 1;
        tally.cell_ns += ns;
        tally.distinct_dt += tally.dts.len() as u64;
        tally.dts.clear();
        if let Ok(r) = &result {
            tally.cycles += r.cycles;
            if trace.is_none() {
                tally.live_cells += 1;
                tally.sim_uops += cfg.pilot_uops() + r.uops;
            }
        }
        result
    }

    pub fn tally(&self) -> Tally {
        self.tally.borrow().clone()
    }
}

/// Every per-layer metric the tally covers, per cell unless the unit
/// says otherwise. `untraced_cell_ms` is the same cells' mean time with
/// tracing off, for the tracing overhead.
pub fn emit(report: &mut Report, t: &Tally, untraced_cell_ms: f64) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let cells = t.cells.max(1) as f64;
    let loop_self_ns = t.loop_ns.saturating_sub(t.advance_ns + t.decide_ns);
    let cell_ms = ms(t.cell_ns) / cells;
    report.metric("engine.cell_ms", cell_ms, "ms");
    report.metric("engine.untraced_cell_ms", untraced_cell_ms, "ms");
    report.metric(
        "engine.trace_overhead_pct",
        (cell_ms / untraced_cell_ms - 1.0) * 100.0,
        "%",
    );
    report.metric("engine.pilot_ms", ms(t.pilot_ns) / cells, "ms");
    report.metric("engine.warm_start_ms", ms(t.warm_ns) / cells, "ms");
    report.metric("engine.loop_self_ms", ms(loop_self_ns) / cells, "ms");
    report.metric("engine.replay_loop_ms", ms(t.replay_loop_ns) / cells, "ms");
    // Each interval advances the thermal state in two half-steps.
    report.metric("engine.intervals", t.advances as f64 / 2.0 / cells, "count");
    report.metric("engine.cells", t.cells as f64, "count");
    let sim_s = (t.pilot_ns + loop_self_ns) as f64 / 1e9;
    let sim_rate = if t.live_cells > 0 {
        t.sim_uops as f64 / sim_s
    } else {
        0.0
    };
    report.metric("uarch.sim_uops_per_s", sim_rate, "uops/s");
    report.metric("uarch.cycles", t.cycles as f64, "count");
    report.metric("thermal.advance_ms", ms(t.advance_ns) / cells, "ms");
    report.metric(
        "thermal.advance_us",
        t.advance_ns as f64 / 1e3 / t.advances.max(1) as f64,
        "us",
    );
    report.metric("thermal.advances", t.advances as f64, "count");
    report.metric("thermal.distinct_dt", t.distinct_dt as f64 / cells, "count");
    report.metric(
        "thermal.share_pct",
        t.advance_ns as f64 / t.cell_ns.max(1) as f64 * 100.0,
        "%",
    );
    report.metric(
        "dtm.decide_us",
        t.decide_ns as f64 / 1e3 / t.decisions.max(1) as f64,
        "us",
    );
    report.metric("dtm.decisions", t.decisions as f64, "count");
    report.metric(
        "dtm.non_nominal_frac",
        t.non_nominal as f64 / t.decisions.max(1) as f64,
        "ratio",
    );
}
