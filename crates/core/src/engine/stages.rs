//! The default three-phase pipeline: pilot → warm start → interval loop,
//! each phase a [`Stage`] ported verbatim from the pre-refactor monolithic
//! runner so results stay bit-identical. The pilot ends in the nominal
//! power adoption the replayed pilot shares, and [`IntervalLoopStage`] is
//! the engine's one interval loop fed by the live core (see the
//! `interval` module); [`ReplayLoopStage`](super::ReplayLoopStage) runs
//! the same loop from a recording.
//!
//! A cell holds at most one core simulator at a time. The pilot builds
//! the core. On an eligible cell it hands that core to the interval loop
//! through [`EngineCx::pilot_core`], with the report of every whole pilot
//! interval, because the loop's first intervals run at the nominal point
//! and so are the pilot's, bit for bit. The loop reuses those reports and
//! resumes the core where the pilot stopped instead of simulating the
//! prefix a second time. A cell is eligible when
//!
//! * its trace-cache mapping ignores temperature (unbiased), so the
//!   pilot's ambient rebalance installs the table the loop's sensor
//!   rebalance would,
//! * the pilot is shorter than the run, and
//! * it records no multi-point family, whose probe forks need the core at
//!   every boundary.
//!
//! If the DTM policy perturbs the core (any action but nominal or a
//! power-level throttle) inside the pilot's prefix, the loop drops the
//! handed-off core and re-steps a fresh one through the same nominal
//! intervals. Every other cell, and every pipeline with a custom pilot,
//! has the loop build its own fresh core.

use distfront_power::BlockId;
use distfront_trace::record::{FinalStats, PointKey};
use distfront_uarch::{ActivityCounters, FetchGate, IntervalReport, Simulator};

use super::interval::{counters_for, point_key_of, run_intervals, Interval};
use super::traits::{DtmAction, Stage};
use super::{EngineCx, EngineError};
use crate::experiment::ExperimentConfig;

/// Measures the application's nominal average dynamic power (the paper
/// uses its first 50 M instructions) and primes the power model with it.
///
/// The pilot exercises the same per-interval control decisions as the
/// evaluation (balanced rebalance, hopping) so per-bank activity is the
/// honest time average; temperatures are not known yet, hence balanced.
/// On an eligible cell (see [`PilotCore`]) it stops its core at the pilot
/// budget without closing the open interval, and leaves the core in
/// [`EngineCx::pilot_core`] for the interval loop.
#[derive(Debug, Default)]
pub struct PilotStage;

impl Stage for PilotStage {
    fn name(&self) -> &'static str {
        "pilot"
    }

    fn run(&mut self, cx: &mut EngineCx<'_>) -> Result<(), EngineError> {
        let cfg = cx.cfg;
        let budget = cfg.pilot_uops();
        let hand_off = shares_pilot_core(cx);
        let mut sim = Simulator::with_workload(cfg.processor.clone(), cx.workload, cfg.seed);
        let mut pilot_act = counters_for(cx.machine);
        let mut intervals = Vec::new();
        loop {
            let target = sim.current_cycle() + cfg.interval_cycles;
            sim.advance(target, budget);
            if hand_off && sim.total_committed() >= budget {
                // The open interval continues in the loop: read it here,
                // close it there.
                pilot_act.merge(&sim.interval_activity());
                cx.pilot_core = Some(PilotCore {
                    sim,
                    intervals,
                    resume_target: target,
                });
                break;
            }
            let (r, gated_bank) = close_nominal_interval(&mut sim, cfg, cx.pkg.ambient_c, budget);
            pilot_act.merge(&r.activity);
            let done = r.done;
            if hand_off {
                intervals.push((r, gated_bank));
            }
            if done {
                break;
            }
        }
        if let Some(rec) = &mut cx.recorder {
            rec.record_pilot(&pilot_act);
        }
        adopt_nominal(cx, &pilot_act);
        Ok(())
    }
}

/// Adopts the pilot's merged activity as the nominal power profile (its
/// dynamic power plus idle power) and primes the power model with it; the
/// live and the replayed pilot both end here.
pub(super) fn adopt_nominal(cx: &mut EngineCx<'_>, pilot_act: &ActivityCounters) {
    let mut nominal = cx.model.dynamic_power(pilot_act);
    for (n, i) in nominal.iter_mut().zip(&cx.idle) {
        *n += i;
    }
    cx.model.set_nominal_dynamic(nominal.clone());
    cx.nominal = Some(nominal);
}

/// The pilot's core, handed to the interval loop on an eligible cell: its
/// trace-cache mapping is unbiased, its pilot is shorter than the run,
/// and it records no multi-point family. The loop's first intervals are
/// then the pilot's, bit for bit, so the loop reuses their reports and
/// resumes the core instead of simulating the prefix again.
#[derive(Debug)]
pub struct PilotCore {
    /// The core, stopped at the pilot budget inside an open interval.
    sim: Simulator,
    /// Each whole pilot interval's report and the bank gated during it.
    intervals: Vec<(IntervalReport, Option<u8>)>,
    /// Cycle target of the interval the pilot stopped inside.
    resume_target: u64,
}

/// Whether the pilot hands its core to the interval loop: the trace-cache
/// mapping ignores temperature, the pilot is shorter than the run, and no
/// multi-point family is being recorded.
fn shares_pilot_core(cx: &EngineCx<'_>) -> bool {
    let cfg = cx.cfg;
    !cfg.processor.trace_cache.biased
        && cfg.pilot_uops() < cfg.uops_per_app
        && cx
            .recorder
            .as_ref()
            .is_none_or(|rec| rec.family().len() <= 1)
}

/// Closes a nominal interval the way the pilot does: its report and the
/// bank gated during it, then the trace-cache control at ambient
/// temperature (rebalance, then hop).
fn close_nominal_interval(
    sim: &mut Simulator,
    cfg: &ExperimentConfig,
    ambient_c: f64,
    uop_target: u64,
) -> (IntervalReport, Option<u8>) {
    let r = sim.end_interval(uop_target);
    let gated_bank = sim.trace_cache().gated_bank().map(|b| b as u8);
    let banks = cfg.processor.trace_cache.physical_banks();
    control_trace_cache(sim, cfg, &vec![ambient_c; banks]);
    (r, gated_bank)
}

/// The trace-cache control at an interval boundary: remap the banks from
/// their temperatures, then rotate the gated bank when hopping.
fn control_trace_cache(sim: &mut Simulator, cfg: &ExperimentConfig, bank_temps: &[f64]) {
    sim.trace_cache_mut().rebalance(bank_temps);
    if cfg.hop {
        sim.trace_cache_mut().hop();
    }
}

/// A fresh core run through the first `intervals` nominal intervals
/// exactly as the pilot ran them.
fn nominal_core(cx: &EngineCx<'_>, intervals: usize) -> Simulator {
    let cfg = cx.cfg;
    let mut sim = Simulator::with_workload(cfg.processor.clone(), cx.workload, cfg.seed);
    for _ in 0..intervals {
        let target = sim.current_cycle() + cfg.interval_cycles;
        sim.advance(target, cfg.uops_per_app);
        close_nominal_interval(&mut sim, cfg, cx.pkg.ambient_c, cfg.uops_per_app);
    }
    sim
}

/// Warm-starts the thermal state: steady state under nominal power with
/// the leakage↔temperature fixed point iterated until the hottest block
/// moves < 0.01 °C ("simulations are started with the processor already
/// warm", §4).
///
/// Each iteration is one pair of triangular solves through the machine's
/// shared LU factor. The default modal backend defers projecting the
/// adopted state onto its modal coordinates to the first advance, so the
/// fixed point projects once however many iterations it takes. The
/// solve is a few hundredths of a millisecond, so every cell solves its
/// own.
///
/// The stage fails with [`EngineError::NotConverged`] when the fixed
/// point does not settle within 40 iterations (e.g. a leakage feedback
/// gain above one); the thermal state must then not be trusted.
#[derive(Debug, Default)]
pub struct WarmStartStage;

impl Stage for WarmStartStage {
    fn name(&self) -> &'static str {
        "warm-start"
    }

    fn run(&mut self, cx: &mut EngineCx<'_>) -> Result<(), EngineError> {
        let nominal = cx.nominal()?.to_vec();
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
}

/// The evaluation run: updates block power and temperature every interval,
/// records the AbsMax/Average/AvgMax metrics, recomputes the thermal-aware
/// bank mapping from the bank sensors, rotates the gated bank when hopping
/// is enabled, and consults the DTM policy (§3.2 control loop): the shared
/// interval loop fed by the live core.
#[derive(Debug, Default)]
pub struct IntervalLoopStage;

impl Stage for IntervalLoopStage {
    fn name(&self) -> &'static str {
        "interval-loop"
    }

    fn run(&mut self, cx: &mut EngineCx<'_>) -> Result<(), EngineError> {
        let source = core_source(cx);
        run_intervals(cx, source)
    }
}

/// The live core as an interval source: the pilot's core when it handed
/// one over, otherwise a fresh core.
///
/// While `resume` holds the pilot's open-interval target the loop follows
/// the pilot: it takes the pilot's stored reports, then resumes its open
/// interval. An action that perturbs the core ends that prefix: the
/// handed-off core is past this boundary, so a fresh one re-runs the
/// prefix. When recording a family, every point but the live one is
/// probed on a throwaway fork from the interval's starting state.
///
/// The trace-cache control that follows an interval's temperatures
/// (remap from the bank sensors, then rotate the gated bank) runs when
/// the next interval starts: nothing in between touches the core, and
/// none follows the last interval, whose statistics it cannot change. The
/// pilot already did both for the intervals it ran, at a temperature the
/// mapping ignores.
fn core_source(
    cx: &mut EngineCx<'_>,
) -> impl FnMut(&mut EngineCx<'_>, DtmAction, &mut ActivityCounters) -> Interval {
    let (mut core, mut prefix, mut resume) = match cx.pilot_core.take() {
        Some(pilot) => (
            Some(pilot.sim),
            pilot.intervals.into_iter(),
            Some(pilot.resume_target),
        ),
        None => (Some(nominal_core(cx, 0)), Vec::new().into_iter(), None),
    };
    let family: Vec<PointKey> = cx
        .recorder
        .as_ref()
        .map(|rec| rec.family().to_vec())
        .unwrap_or_default();
    let mut closed = 0;
    let mut simulated = false;
    move |cx, action, act| {
        let cfg = cx.cfg;
        let live_key = point_key_of(action);
        if resume.is_some() && live_key != PointKey::Nominal {
            // One core at a time: drop the handed-off one first.
            drop(core.take());
            core = Some(nominal_core(cx, closed));
            resume = None;
        }
        let sim = core.as_mut().expect("the loop holds a core");
        if simulated {
            let bank_temps: Vec<f64> = (0..cfg.processor.trace_cache.physical_banks())
                .map(|k| {
                    cx.thermal.block_temperatures()[cx.machine.index_of(BlockId::TcBank(k as u8))]
                })
                .collect();
            control_trace_cache(sim, cfg, &bank_temps);
        }
        closed += 1;
        let stored = resume.and_then(|_| prefix.next());
        simulated = stored.is_none();
        let (r, gated_bank, probes) = match stored {
            Some((r, gated_bank)) => (r, gated_bank, Vec::new()),
            None => {
                apply_sim_point(sim, live_key);
                let target = resume
                    .take()
                    .unwrap_or_else(|| sim.current_cycle() + cfg.interval_cycles);
                let probes = probe_family(sim, &family, live_key, target, cfg.uops_per_app);
                let r = sim.step(target, cfg.uops_per_app);
                (r, sim.trace_cache().gated_bank().map(|b| b as u8), probes)
            }
        };
        if let Some(rec) = &mut cx.recorder {
            let reports: Vec<&IntervalReport> = (0..family.len())
                .map(|i| probes.get(i).and_then(Option::as_ref).unwrap_or(&r))
                .collect();
            rec.record_interval(&reports, gated_bank);
        }
        if r.done {
            cx.finals = Some(FinalStats {
                cycles: sim.current_cycle(),
                uops: sim.total_committed(),
                tc_hit_rate: sim.tc_hit_rate(),
                mispredict_rate: sim.mispredict_rate(),
            });
        }
        *act = r.activity;
        Ok((gated_bank, r.done))
    }
}

/// Probes every recording-family point but the live one on a throwaway
/// fork of `sim` from the interval's starting state. A single-point
/// family needs no forks: the live stream *is* the nominal point
/// (power-level actions never perturb it, and a tainted custom-DTM
/// recording keeps the raw live stream).
fn probe_family(
    sim: &Simulator,
    family: &[PointKey],
    live_key: PointKey,
    target: u64,
    uop_target: u64,
) -> Vec<Option<IntervalReport>> {
    if family.len() <= 1 {
        return vec![None; family.len()];
    }
    family
        .iter()
        .map(|&key| {
            (key != live_key)
                .then(|| sim.probe_interval(|fork| apply_sim_point(fork, key), target, uop_target))
        })
        .collect()
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
