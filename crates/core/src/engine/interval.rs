//! The one interval loop every cell runs after its warm start (§3.2, §4).
//!
//! Per interval, in this order: the power half of the DTM action, the
//! interval's activity from a *source*, the power → temperature step, and
//! the DTM decision for the next interval; the loop stops after the
//! interval the source reports as the run's last. A source is a closure
//! the loop calls once per interval:
//!
//! * the live core ([`IntervalLoopStage`](super::IntervalLoopStage)): the
//!   pilot's stored prefix reports, then its handed-off core resumed (a
//!   fresh nominal core re-runs the prefix when an action perturbs the
//!   core inside it), or a fresh core; and the trace cache's remap from
//!   the bank sensors and hop. That core-side control reads an
//!   interval's temperatures, so the source applies it as the next
//!   interval starts: nothing in between touches the core.
//! * a recorded trace ([`ReplayLoopStage`](super::ReplayLoopStage)): the
//!   recorded row, decoded into the loop's one counter set once the
//!   action's operating point and the bank temperatures match the
//!   recorded path. The control's effects are baked into the recording.
//!
//! Both feed the same arithmetic, so a replayed cell reproduces its live
//! cell bit for bit whenever it takes the same decisions.

use distfront_power::{BlockId, Machine, OperatingPoint};
use distfront_trace::record::PointKey;
use distfront_uarch::ActivityCounters;

use super::traits::DtmAction;
use super::{EngineCx, EngineError};

/// What an interval source reports for the interval it filled in: the
/// trace-cache bank gated during it and whether it ends the run.
pub(super) type Interval = Result<(Option<u8>, bool), EngineError>;

/// Steps `source` through the power → temperature → DTM sequence until
/// an interval ends the run.
///
/// The source is called once per interval with the action the DTM policy
/// took for it. It fills `act` with the interval's activity at the
/// action's operating point, and the interval that ends the run leaves
/// the run's core-side [`FinalStats`](distfront_trace::record::FinalStats)
/// in [`EngineCx::finals`]. The DTM policy decides after every interval,
/// the last one included, so trigger counts match however the activity
/// was produced.
pub(super) fn run_intervals(
    cx: &mut EngineCx<'_>,
    mut source: impl FnMut(&mut EngineCx<'_>, DtmAction, &mut ActivityCounters) -> Interval,
) -> Result<(), EngineError> {
    // One counter set and one power vector serve every interval.
    let mut act = counters_for(cx.machine);
    let mut power = Vec::new();
    let mut action = DtmAction::Nominal;
    loop {
        apply_power_action(cx, action);
        let (gated_bank, done) = source(cx, action, &mut act)?;
        thermal_interval(cx, &act, gated_bank, &mut power);
        if let Some(ctrl) = &mut cx.dtm {
            action = ctrl.decide(cx.thermal.block_temperatures());
        }
        if done {
            return Ok(());
        }
    }
}

/// The trace-cache bank temperatures a remap reads at an interval
/// boundary: each physical bank's current block temperature, in bank
/// order.
pub(super) fn bank_temperatures<'a>(cx: &'a EngineCx<'_>) -> impl Iterator<Item = f64> + 'a {
    let temps = cx.thermal.block_temperatures();
    (0..cx.machine.tc_banks).map(move |k| temps[cx.machine.index_of(BlockId::TcBank(k as u8))])
}

/// Zeroed counters in the machine's shape.
pub(super) fn counters_for(machine: Machine) -> ActivityCounters {
    ActivityCounters::new(machine.partitions, machine.backends, machine.tc_banks)
}

/// One interval's power → thermal arithmetic: the total power of `act` at
/// the current temperatures plus idle power (the gated bank, if any,
/// dark), the energy and wall-time accounting, one `advance_interval` and
/// the tracker's interval close. `power` is scratch the caller reuses.
fn thermal_interval(
    cx: &mut EngineCx<'_>,
    act: &ActivityCounters,
    gated_bank: Option<u8>,
    power: &mut Vec<f64>,
) {
    let gated = gated_bank.map(BlockId::TcBank);
    cx.model.total_power_into(
        act,
        cx.thermal.block_temperatures(),
        gated.as_slice(),
        power,
    );
    for (p, i) in power.iter_mut().zip(&cx.idle) {
        *p += i;
    }
    if let Some(g) = gated {
        power[cx.machine.index_of(g)] = 0.0;
    }
    // At a scaled operating point (DVFS or throttle, both applied through
    // the model's effective frequency) the same cycle count covers
    // proportionally more wall time, computed in f64 from the exact cycle
    // count: no integer rounding, so energy and wall-time accounting
    // conserve the un-stretched interval exactly. Identical at nominal.
    let dt = act.cycles as f64 / cx.model.effective_frequency_hz();
    cx.power_time_sum += power.iter().sum::<f64>() * dt;
    cx.time_sum += dt;
    // Two half-steps so intra-interval transients are sampled.
    let tracker = &mut cx.tracker;
    cx.thermal
        .advance_interval(power, dt, &mut |t, h| tracker.record(t, h));
    cx.tracker.end_interval();
}

/// The operating point a DTM action runs the core at. Power-level actions
/// (nominal, emergency throttle) leave the pipeline on the nominal stream;
/// the core-perturbing actions map to their recorded variant points.
pub(super) fn point_key_of(action: DtmAction) -> PointKey {
    match action {
        DtmAction::Nominal | DtmAction::Throttle(_) => PointKey::Nominal,
        DtmAction::Dvfs { f_scale, v_scale } => PointKey::dvfs(f_scale, v_scale),
        DtmAction::FetchGate { open, period } => PointKey::FetchGate { open, period },
        DtmAction::MigrateTo(p) => PointKey::MigrateTo(p as u32),
    }
}

/// Applies the power-model half of a DTM action for the coming interval,
/// releasing whatever the previous interval engaged. The core half is the
/// source's: the live core reconfigures its hooks, a replay selects the
/// matching recorded activity.
fn apply_power_action(cx: &mut EngineCx<'_>, action: DtmAction) {
    cx.model.set_operating_point(match action {
        DtmAction::Nominal | DtmAction::FetchGate { .. } | DtmAction::MigrateTo(_) => {
            OperatingPoint::nominal()
        }
        DtmAction::Throttle(factor) => OperatingPoint::scaled(factor, 1.0),
        DtmAction::Dvfs { f_scale, v_scale } => OperatingPoint::scaled(f_scale, v_scale),
    });
}
