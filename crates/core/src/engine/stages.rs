//! The default three-phase pipeline: pilot → warm start → interval loop,
//! each phase a [`Stage`] ported verbatim from the pre-refactor monolithic
//! runner so results stay bit-identical. The pilot and the interval loop
//! each build and own a fresh core simulator; the shared [`EngineCx`]
//! holds none.

use std::sync::Arc;

use distfront_power::BlockId;
use distfront_trace::record::{FinalStats, PointKey};
use distfront_uarch::{ActivityCounters, FetchGate, IntervalReport, Simulator};

use super::replay::{apply_power_action, point_key_of};
use super::sweep::WarmStartCache;
use super::traits::{DtmAction, Stage};
use super::{EngineCx, EngineError};

/// Measures the application's nominal average dynamic power (the paper
/// uses its first 50 M instructions) and primes the power model with it.
///
/// The pilot exercises the same per-interval control decisions as the
/// evaluation (balanced rebalance, hopping) so per-bank activity is the
/// honest time average; temperatures are not known yet, hence balanced.
#[derive(Debug, Default)]
pub struct PilotStage;

impl Stage for PilotStage {
    fn name(&self) -> &'static str {
        "pilot"
    }

    fn run(&mut self, cx: &mut EngineCx<'_>) -> Result<(), EngineError> {
        let cfg = cx.cfg;
        let pc = &cfg.processor;
        // A fresh core of the pilot's own, dropped when the pilot ends.
        let mut sim = Simulator::with_workload(pc.clone(), cx.workload, cfg.seed);
        let mut pilot_act = None::<ActivityCounters>;
        loop {
            let target = sim.current_cycle() + cfg.interval_cycles;
            let r = sim.step(target, cfg.pilot_uops());
            match &mut pilot_act {
                Some(acc) => acc.merge(&r.activity),
                None => pilot_act = Some(r.activity),
            }
            let banks = pc.trace_cache.physical_banks();
            sim.trace_cache_mut()
                .rebalance(&vec![cx.pkg.ambient_c; banks]);
            if cfg.hop {
                sim.trace_cache_mut().hop();
            }
            if r.done {
                break;
            }
        }
        let pilot_act = pilot_act.expect("pilot ran at least one interval");
        if let Some(rec) = &mut cx.recorder {
            rec.record_pilot(&pilot_act);
        }
        let mut nominal = cx.model.dynamic_power(&pilot_act);
        for (n, i) in nominal.iter_mut().zip(&cx.idle) {
            *n += i;
        }
        cx.model.set_nominal_dynamic(nominal.clone());
        cx.nominal = Some(nominal);
        Ok(())
    }
}

/// Warm-starts the thermal state: steady state under nominal power with
/// the leakage↔temperature fixed point iterated to convergence
/// ("simulations are started with the processor already warm", §4).
///
/// With a shared [`WarmStartCache`] the converged state is reused across
/// grid cells that share a machine shape, leakage model and nominal power
/// profile; the fixed point is a pure function of exactly those inputs,
/// so a cache hit restores bit-identical temperatures.
#[derive(Debug, Default)]
pub struct WarmStartStage {
    cache: Option<Arc<WarmStartCache>>,
}

impl WarmStartStage {
    /// A warm start that always solves from scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// A warm start that consults (and fills) a shared cache.
    pub fn with_cache(cache: Arc<WarmStartCache>) -> Self {
        WarmStartStage { cache: Some(cache) }
    }
}

impl Stage for WarmStartStage {
    fn name(&self) -> &'static str {
        "warm-start"
    }

    fn run(&mut self, cx: &mut EngineCx<'_>) -> Result<(), EngineError> {
        let nominal = cx.nominal()?.to_vec();
        let Some(cache) = &self.cache else {
            return solve_warm_fixed_point(cx, &nominal);
        };
        // Single cache entry per cell: the closure solves cold (leaving
        // `cx.thermal` at the converged state) only when this engine is
        // the key's first; same-key racers wait on the key's slot and take
        // the solved state as a hit. A non-converged error propagates and
        // leaves the cache without the key — a failed fixed point must
        // never poison later cells.
        let leakage = cx.model.leakage_model();
        let (state, hit) = cache.get_or_compute(cx.machine, &leakage, &nominal, || {
            solve_warm_fixed_point(cx, &nominal)?;
            Ok(cx.thermal.node_temperatures().to_vec())
        })?;
        if hit {
            cx.thermal.set_node_temperatures(state.as_ref().clone());
            cx.warm_start_hit = true;
        }
        Ok(())
    }
}

/// Iterates the leakage↔temperature fixed point under nominal power until
/// the hottest block moves < 0.01 °C, leaving `cx.thermal` at the
/// converged steady state.
///
/// # Errors
///
/// Returns [`EngineError::NotConverged`] when the fixed point fails to
/// settle within 40 iterations (e.g. a leakage feedback gain above one);
/// the thermal state must then not be trusted or cached.
fn solve_warm_fixed_point(cx: &mut EngineCx<'_>, nominal: &[f64]) -> Result<(), EngineError> {
    let leak = cx.model.leakage_model();
    let mut temps = vec![cx.pkg.ambient_c; cx.machine.block_count()];
    for _ in 0..40 {
        let p: Vec<f64> = nominal
            .iter()
            .zip(&temps)
            .map(|(&n, &t)| n + leak.leakage_watts(n, t))
            .collect();
        cx.thermal.steady_state(&p);
        let new_temps = cx.thermal.block_temperatures().to_vec();
        let delta = new_temps
            .iter()
            .zip(&temps)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        // The finiteness check guards the max-fold above: a runaway
        // fixed point overflows to non-finite temperatures whose NaN
        // deltas f64::max silently drops.
        let finite = new_temps.iter().all(|t| t.is_finite());
        temps = new_temps;
        if finite && delta < 0.01 {
            return Ok(());
        }
    }
    Err(EngineError::NotConverged(
        "leakage-temperature warm-start fixed point did not settle within 40 iterations",
    ))
}

/// The evaluation run: updates block power and temperature every interval,
/// records the AbsMax/Average/AvgMax metrics, recomputes the thermal-aware
/// bank mapping from the bank sensors, rotates the gated bank when hopping
/// is enabled, and consults the DTM policy (§3.2 control loop).
#[derive(Debug, Default)]
pub struct IntervalLoopStage;

impl Stage for IntervalLoopStage {
    fn name(&self) -> &'static str {
        "interval-loop"
    }

    fn run(&mut self, cx: &mut EngineCx<'_>) -> Result<(), EngineError> {
        let cfg = cx.cfg;
        let pc = &cfg.processor;
        // The evaluation's own core, fresh from cycle zero.
        let mut sim = Simulator::with_workload(pc.clone(), cx.workload, cfg.seed);
        // The recording family (empty when not recording): per interval the
        // live step covers the point matching the live action, and every
        // other family point is probed on a throwaway simulator fork from
        // the identical pipeline state.
        let family: Vec<PointKey> = cx
            .recorder
            .as_ref()
            .map(|rec| rec.family().to_vec())
            .unwrap_or_default();
        let mut action = DtmAction::Nominal;
        loop {
            let live_key = point_key_of(action);
            apply_power_action(cx, action);
            apply_sim_point(&mut sim, live_key);
            let target = sim.current_cycle() + cfg.interval_cycles;
            // A single-point family needs no forks: the live stream *is*
            // the nominal point (power-level actions never perturb it, and
            // a tainted custom-DTM recording keeps the raw live stream).
            let probes: Vec<Option<IntervalReport>> = if family.len() > 1 {
                family
                    .iter()
                    .map(|&key| {
                        (key != live_key).then(|| {
                            sim.probe_interval(
                                |fork| apply_sim_point(fork, key),
                                target,
                                cfg.uops_per_app,
                            )
                        })
                    })
                    .collect()
            } else {
                vec![None; family.len()]
            };
            let r = sim.step(target, cfg.uops_per_app);
            let gated_bank = sim.trace_cache().gated_bank().map(|b| b as u8);
            if let Some(rec) = &mut cx.recorder {
                let reports: Vec<&IntervalReport> = family
                    .iter()
                    .zip(&probes)
                    .map(|(&key, probe)| match probe {
                        Some(p) if key != live_key => p,
                        _ => &r,
                    })
                    .collect();
                rec.record_interval(&reports, gated_bank);
            }
            let gated: Vec<BlockId> = gated_bank.map(BlockId::TcBank).into_iter().collect();
            let temps_now = cx.thermal.block_temperatures().to_vec();
            let mut power = cx.model.total_power(&r.activity, &temps_now, &gated);
            for (p, i) in power.iter_mut().zip(&cx.idle) {
                *p += i;
            }
            for g in &gated {
                power[cx.machine.index_of(*g)] = 0.0;
            }
            // At a scaled operating point (DVFS or throttle, both applied
            // through the model's effective frequency) the same cycle
            // count covers proportionally more wall time, computed in f64
            // from the exact cycle count — no integer rounding, so energy
            // and wall-time accounting conserve the un-stretched interval
            // exactly. Identical at nominal.
            let dt = r.activity.cycles as f64 / cx.model.effective_frequency_hz();
            cx.power_time_sum += power.iter().sum::<f64>() * dt;
            cx.time_sum += dt;
            // Two half-steps so intra-interval transients are sampled.
            cx.thermal.advance(&power, dt / 2.0);
            cx.tracker.record(cx.thermal.block_temperatures(), dt / 2.0);
            cx.thermal.advance(&power, dt / 2.0);
            cx.tracker.record(cx.thermal.block_temperatures(), dt / 2.0);
            cx.tracker.end_interval();

            // Thermal management control (§3.2): remap from bank sensors,
            // then rotate the gated bank.
            let bank_temps: Vec<f64> = (0..pc.trace_cache.physical_banks())
                .map(|k| {
                    cx.thermal.block_temperatures()[cx.machine.index_of(BlockId::TcBank(k as u8))]
                })
                .collect();
            sim.trace_cache_mut().rebalance(&bank_temps);
            if cfg.hop {
                sim.trace_cache_mut().hop();
            }
            if let Some(ctrl) = &mut cx.dtm {
                action = ctrl.decide(cx.thermal.block_temperatures());
            }
            if r.done {
                break;
            }
        }
        cx.finals = Some(FinalStats {
            cycles: sim.current_cycle(),
            uops: sim.total_committed(),
            tc_hit_rate: sim.tc_hit_rate(),
            mispredict_rate: sim.mispredict_rate(),
        });
        Ok(())
    }
}

/// Configures a simulator's hooks to an operating point: the core half of
/// a live DTM action (keyed through [`point_key_of`]; the power half is
/// [`apply_power_action`]) and a probe fork's variant point. Resets every
/// hook first, releasing whatever the previous interval engaged, so the
/// state is absolute. Every hook's nominal setting is exactly the state a
/// fresh simulator starts in, so a run without a DTM policy is
/// bit-identical to one that never touches the hooks.
fn apply_sim_point(sim: &mut Simulator, key: PointKey) {
    sim.set_clock_scale(1.0);
    sim.set_fetch_gate(None);
    sim.set_partition_bias(None);
    match key {
        PointKey::Nominal => {}
        PointKey::Dvfs { f_bits, .. } => sim.set_clock_scale(f64::from_bits(f_bits)),
        PointKey::FetchGate { open, period } => {
            sim.set_fetch_gate(Some(FetchGate { open, period }))
        }
        PointKey::MigrateTo(p) => sim.set_partition_bias(Some(p as usize)),
    }
}
