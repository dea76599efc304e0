//! The experiment runner: result types, block groups and the serial
//! entry points over the staged [`engine`](crate::engine).
//!
//! Per application the pipeline (see [`crate::engine`] for the staged
//! form):
//!
//! 1. runs a **pilot** to measure nominal average dynamic power (the paper
//!    uses its first 50 M instructions),
//! 2. **warm-starts** the thermal state: steady state under nominal power
//!    with the leakage↔temperature fixed point iterated to convergence
//!    ("simulations are started with the processor already warm"),
//! 3. runs the **evaluation**, updating block power and temperature every
//!    interval, recording the AbsMax/Average/AvgMax metrics, recomputing
//!    the thermal-aware bank mapping from the bank sensors, and rotating
//!    the gated bank when hopping is enabled.
//!
//! The per-interval transient solve defaults to the exact modal propagator
//! ([`ExpPropagator`](distfront_thermal::ExpPropagator) — exact for the
//! piecewise-constant interval power, two dense mat-vecs per advance);
//! [`ExperimentConfig::with_integrator`] switches a run back to the
//! sub-stepped RK4 reference
//! ([`Integrator::Rk4`](distfront_thermal::Integrator)) for cross-checks.
//!
//! [`run_app`] is the one-cell convenience wrapper; grids and suites
//! parallelize through [`SweepRunner`](crate::engine::SweepRunner) with
//! bit-identical results.

use distfront_power::{BlockId, Machine};
use distfront_thermal::GroupMetrics;
use distfront_trace::AppProfile;

use crate::engine::{CoupledEngine, EngineError};
use crate::experiment::ExperimentConfig;

/// Temperature metrics for the block groups the paper reports on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TempReport {
    /// The reorder buffer (all partitions).
    pub rob: GroupMetrics,
    /// The rename table (all partitions).
    pub rat: GroupMetrics,
    /// The trace cache (all physical banks).
    pub trace_cache: GroupMetrics,
    /// The whole frontend strip.
    pub frontend: GroupMetrics,
    /// All backend-cluster blocks.
    pub backend: GroupMetrics,
    /// The UL2.
    pub ul2: GroupMetrics,
    /// Every block on the die.
    pub processor: GroupMetrics,
}

/// Result of one application run under one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AppResult {
    /// Application name.
    pub app: &'static str,
    /// Total cycles to commit the budget.
    pub cycles: u64,
    /// Micro-ops committed.
    pub uops: u64,
    /// Committed micro-ops per cycle.
    pub ipc: f64,
    /// Cycles per micro-op (the slowdown basis).
    pub cpi: f64,
    /// Trace-cache hit rate over the run.
    pub tc_hit_rate: f64,
    /// Branch misprediction rate over the run.
    pub mispredict_rate: f64,
    /// Average total (dynamic + leakage + background) power in Watts.
    pub avg_power_w: f64,
    /// Wall-clock seconds of the run (longer than `cycles / f` when the
    /// DTM throttle engaged).
    pub wall_time_s: f64,
    /// Distinct thermal emergencies triggered (0 without a DTM policy).
    pub emergencies: u64,
    /// Intervals spent throttled by the DTM mechanism.
    pub throttled_intervals: u64,
    /// Seconds spent in intervals whose hottest block reached the 381 K
    /// emergency limit (violation residency — the per-policy metric DTM
    /// alternatives are compared on).
    pub over_limit_s: f64,
    /// Temperature metrics per block group.
    pub temps: TempReport,
}

/// The canonical block groups of a machine.
#[derive(Debug, Clone)]
pub struct BlockGroups {
    /// ROB partitions.
    pub rob: Vec<usize>,
    /// RAT partitions.
    pub rat: Vec<usize>,
    /// Trace-cache banks.
    pub trace_cache: Vec<usize>,
    /// All frontend blocks.
    pub frontend: Vec<usize>,
    /// All backend blocks.
    pub backend: Vec<usize>,
    /// The UL2 (singleton).
    pub ul2: Vec<usize>,
    /// Everything.
    pub processor: Vec<usize>,
}

impl BlockGroups {
    /// Derives the groups for a machine shape.
    pub fn for_machine(machine: Machine) -> Self {
        let blocks = machine.blocks();
        let of = |pred: &dyn Fn(BlockId) -> bool| -> Vec<usize> {
            blocks
                .iter()
                .enumerate()
                .filter(|(_, b)| pred(**b))
                .map(|(i, _)| i)
                .collect()
        };
        BlockGroups {
            rob: of(&|b| matches!(b, BlockId::Rob(_))),
            rat: of(&|b| matches!(b, BlockId::Rat(_))),
            trace_cache: of(&|b| matches!(b, BlockId::TcBank(_))),
            frontend: of(&|b| b.is_frontend()),
            backend: of(&|b| b.is_backend()),
            ul2: of(&|b| b == BlockId::Ul2),
            processor: (0..machine.block_count()).collect(),
        }
    }
}

/// Runs one application under one configuration through the default
/// staged engine (pilot → warm start → interval loop).
///
/// # Panics
///
/// Panics if the configuration is invalid or the run fails (e.g. a
/// non-converged warm start); use [`try_run_app`] to handle
/// [`EngineError`]s instead.
pub fn run_app(cfg: &ExperimentConfig, profile: &AppProfile) -> AppResult {
    try_run_app(cfg, profile)
        .unwrap_or_else(|e| panic!("engine failed for {}/{}: {e}", cfg.name, profile.name))
}

/// The fault-tolerant [`run_app`]: one application under one configuration
/// through the default staged engine, with failures surfaced as
/// [`EngineError`]s (the per-cell semantics grids get from
/// [`SweepRunner::try_grid`](crate::engine::SweepRunner::try_grid)).
///
/// # Errors
///
/// Returns an error when the configuration is invalid, a stage's
/// prerequisites are missing, or an iterative phase fails to converge.
pub fn try_run_app(cfg: &ExperimentConfig, profile: &AppProfile) -> Result<AppResult, EngineError> {
    CoupledEngine::new(cfg, profile).run()
}

/// Runs a whole application suite under one configuration, serially (the
/// reference ordering; [`SweepRunner`](crate::engine::SweepRunner)
/// produces bit-identical results in parallel).
pub fn run_suite(cfg: &ExperimentConfig, apps: &[AppProfile]) -> Vec<AppResult> {
    apps.iter().map(|p| run_app(cfg, p)).collect()
}

/// Averages group metrics across applications (each app weighted equally,
/// as the paper averages its 26 benchmarks).
pub fn average_temps(results: &[AppResult]) -> TempReport {
    assert!(!results.is_empty(), "no results to average");
    let n = results.len() as f64;
    let avg = |f: &dyn Fn(&TempReport) -> GroupMetrics| {
        let mut acc = GroupMetrics {
            abs_max_c: 0.0,
            average_c: 0.0,
            avg_max_c: 0.0,
        };
        for r in results {
            let m = f(&r.temps);
            acc.abs_max_c += m.abs_max_c / n;
            acc.average_c += m.average_c / n;
            acc.avg_max_c += m.avg_max_c / n;
        }
        acc
    };
    TempReport {
        rob: avg(&|t| t.rob),
        rat: avg(&|t| t.rat),
        trace_cache: avg(&|t| t.trace_cache),
        frontend: avg(&|t| t.frontend),
        backend: avg(&|t| t.backend),
        ul2: avg(&|t| t.ul2),
        processor: avg(&|t| t.processor),
    }
}

/// Mean cycles-per-micro-op over a suite (the slowdown basis).
pub fn mean_cpi(results: &[AppResult]) -> f64 {
    assert!(!results.is_empty());
    results.iter().map(|r| r.cpi).sum::<f64>() / results.len() as f64
}

/// Relative slowdown of `technique` over `baseline` (e.g. `0.02` = 2 %).
pub fn slowdown(baseline: &[AppResult], technique: &[AppResult]) -> f64 {
    mean_cpi(technique) / mean_cpi(baseline) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(cfg: ExperimentConfig) -> AppResult {
        run_app(&cfg.with_uops(60_000), &AppProfile::test_tiny())
    }

    #[test]
    fn baseline_runs_and_heats_up() {
        let r = quick(ExperimentConfig::baseline());
        assert!(r.uops >= 60_000);
        assert!(r.ipc > 0.0);
        // Warm processor: everything above ambient.
        assert!(r.temps.processor.average_c > 45.0);
        assert!(r.temps.processor.abs_max_c >= r.temps.processor.average_c);
        assert!(r.temps.processor.abs_max_c >= r.temps.processor.avg_max_c);
    }

    #[test]
    fn determinism() {
        let a = quick(ExperimentConfig::baseline());
        let b = quick(ExperimentConfig::baseline());
        assert_eq!(a, b);
    }

    #[test]
    fn block_groups_cover_machine() {
        let m = Machine::new(2, 4, 3);
        let g = BlockGroups::for_machine(m);
        assert_eq!(g.rob.len(), 2);
        assert_eq!(g.rat.len(), 2);
        assert_eq!(g.trace_cache.len(), 3);
        assert_eq!(g.ul2.len(), 1);
        assert_eq!(
            g.frontend.len() + g.backend.len() + g.ul2.len(),
            g.processor.len()
        );
    }

    #[test]
    fn distributed_reduces_rob_rat_temps() {
        let base = quick(ExperimentConfig::baseline());
        let drc = quick(ExperimentConfig::distributed_rename_commit());
        assert!(
            drc.temps.rob.avg_max_c < base.temps.rob.avg_max_c,
            "ROB: {} vs {}",
            drc.temps.rob.avg_max_c,
            base.temps.rob.avg_max_c
        );
        assert!(drc.temps.rat.avg_max_c < base.temps.rat.avg_max_c);
    }

    #[test]
    fn hopping_reduces_tc_average() {
        let base = quick(ExperimentConfig::baseline());
        let bh = quick(ExperimentConfig::bank_hopping());
        assert!(
            bh.temps.trace_cache.average_c < base.temps.trace_cache.average_c,
            "TC avg: {} vs {}",
            bh.temps.trace_cache.average_c,
            base.temps.trace_cache.average_c
        );
    }

    #[test]
    fn techniques_cost_little_performance() {
        let base = quick(ExperimentConfig::baseline());
        for cfg in [
            ExperimentConfig::distributed_rename_commit(),
            ExperimentConfig::hopping_and_biasing(),
        ] {
            let name = cfg.name;
            let r = quick(cfg);
            let slow = r.cpi / base.cpi - 1.0;
            assert!((-0.05..0.20).contains(&slow), "{name} slowdown {slow}");
        }
    }

    #[test]
    fn average_temps_means_groups() {
        let a = quick(ExperimentConfig::baseline());
        let mut b = a.clone();
        b.temps.rob.abs_max_c += 10.0;
        let avg = average_temps(&[a.clone(), b]);
        assert!((avg.rob.abs_max_c - (a.temps.rob.abs_max_c + 5.0)).abs() < 1e-9);
    }

    #[test]
    fn slowdown_of_identical_suites_is_zero() {
        let a = quick(ExperimentConfig::baseline());
        let suite = [a];
        assert!(slowdown(&suite, &suite).abs() < 1e-12);
    }
}
