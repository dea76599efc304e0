//! The dynamic-thermal-management policy library.
//!
//! §4 of the paper: *"We have not enabled any mechanism to be triggered at
//! a thermal emergency (it is part of our future work). … techniques
//! reducing peak temperatures would reduce the number of times that these
//! mechanisms are initiated."* This module implements those mechanisms so
//! the claim can be measured, as four policies:
//!
//! * [`EmergencyPolicy`] — the conventional emergency throttle (frequency
//!   or fetch scaling, as in Skadron et al. and the Pentium M thermal
//!   monitor): whenever any block crosses the threshold, the following
//!   intervals run at a fraction of full speed, which stretches
//!   wall-clock time for the same work,
//! * [`DvfsPolicy`] — global dynamic voltage/frequency scaling: the whole
//!   chip drops to a scaled (V, f) operating point when hot, with dynamic
//!   energy falling by `V²` and leakage recomputed at the scaled voltage,
//! * [`FetchGatePolicy`] — fetch toggling: the fetch unit is gated to a
//!   duty cycle, starving the frontend (and with it the whole pipeline)
//!   at unchanged voltage,
//! * [`MigrationPolicy`] — front-end activity migration: with a
//!   distributed frontend, dispatch is steered toward the backends of the
//!   cooler partition so the hot partition's RAT/ROB can cool.
//!
//! A policy is pure data, wrapped in a [`DtmSpec`](crate::DtmSpec);
//! [`DtmSpec::build`](crate::DtmSpec::build) is the only way to get a
//! controller for one. There are two: the first three policies share one
//! trip/release-or-hold state machine that returns the policy's fixed
//! [`DtmAction`] while engaged (so their emergency accounting cannot
//! drift: a continuous violation is always exactly one trigger), and
//! migration has its own, which picks the partition to migrate to.
//!
//! Every controller is a [`DtmPolicy`]: the interval loop consults it once
//! per interval and applies the returned [`DtmAction`]. Controllers are
//! deterministic state machines — the same temperature sequence always
//! produces the same action sequence — which is what keeps scenario runs
//! bit-identical across worker counts.

use distfront_power::{BlockId, Machine, OperatingPoint};
use distfront_uarch::FetchGate;

use crate::engine::{DtmAction, DtmPolicy};

/// Configuration of the emergency throttle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmergencyPolicy {
    /// Engage when any block reaches this temperature (the paper's
    /// emergency limit is 381 K ≈ 107.85 °C).
    pub threshold_c: f64,
    /// Throughput multiplier while engaged (0.5 = half frequency), in
    /// `(0, 1)`.
    pub throttle_factor: f64,
    /// Intervals the throttle stays engaged once triggered.
    pub hold_intervals: u32,
}

impl EmergencyPolicy {
    /// The paper's emergency limit with a conventional halve-frequency
    /// response held for one interval.
    pub fn paper_limit() -> Self {
        EmergencyPolicy {
            threshold_c: 381.0 - 273.15,
            throttle_factor: 0.5,
            hold_intervals: 1,
        }
    }

    /// A policy with a custom threshold (for studying trigger rates below
    /// the hard limit).
    pub fn with_threshold(threshold_c: f64) -> Self {
        EmergencyPolicy {
            threshold_c,
            ..Self::paper_limit()
        }
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0 < self.throttle_factor && self.throttle_factor <= 1.0) {
            return Err(format!(
                "throttle factor {} outside (0, 1]",
                self.throttle_factor
            ));
        }
        if self.throttle_factor == 1.0 {
            return Err("a throttle of 1 manages nothing".into());
        }
        if !self.threshold_c.is_finite() || self.threshold_c <= 0.0 {
            return Err(format!("threshold {} invalid", self.threshold_c));
        }
        if self.hold_intervals == 0 {
            return Err("hold must last at least one interval".into());
        }
        Ok(())
    }
}

/// Configuration of the global-DVFS policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsPolicy {
    /// Engage when any block reaches this temperature, in °C.
    pub trip_c: f64,
    /// Release once every block has cooled below this temperature, in °C
    /// (hysteresis; must not exceed `trip_c`).
    pub release_c: f64,
    /// Core frequency at the scaled point, as a fraction of nominal.
    pub f_scale: f64,
    /// Supply voltage at the scaled point, as a fraction of nominal.
    pub v_scale: f64,
}

impl DvfsPolicy {
    /// A conventional scaled point (70 % clock at 85 % supply) armed at the
    /// paper's 381 K emergency limit.
    pub fn paper_limit() -> Self {
        DvfsPolicy {
            trip_c: 381.0 - 273.15,
            release_c: 381.0 - 273.15 - 2.0,
            f_scale: 0.7,
            v_scale: 0.85,
        }
    }

    /// The same scaled point armed at a custom trip temperature (for
    /// studying engagement below the hard limit), releasing 2 °C under it.
    pub fn with_trip(trip_c: f64) -> Self {
        DvfsPolicy {
            trip_c,
            release_c: trip_c - 2.0,
            ..Self::paper_limit()
        }
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        OperatingPoint::scaled(self.f_scale, self.v_scale).validate()?;
        validate_trip_release(self.trip_c, self.release_c)
    }
}

/// How an engaged [`Hysteresis`] lets go again.
#[derive(Debug, Clone, Copy)]
enum Release {
    /// Stay engaged until the peak cools below this temperature
    /// (hysteresis band).
    CoolBelow(f64),
    /// Stay engaged for this many intervals after each violation (the
    /// classic emergency-throttle hold).
    Hold(u32),
}

/// The one threshold controller: a trip/hold state machine that returns
/// a fixed action while engaged. [`DtmSpec::build`](crate::DtmSpec::build)
/// makes one for the emergency throttle, global DVFS and fetch gating.
#[derive(Debug, Clone)]
pub(crate) struct Hysteresis {
    trip_c: f64,
    release: Release,
    /// What [`decide`](DtmPolicy::decide) returns while engaged.
    action: DtmAction,
    /// Intervals of hold left ([`Release::Hold`] only).
    hold_left: u32,
    engaged: bool,
    /// Whether the previous observation was already over the trip point
    /// (a continuous violation counts as one emergency).
    over: bool,
    triggers: u64,
    active_intervals: u64,
}

impl Hysteresis {
    /// Engage at `trip_c` with `action`, release once cooled below
    /// `release_c`.
    pub(crate) fn cool_below(trip_c: f64, release_c: f64, action: DtmAction) -> Self {
        Self::with_release(trip_c, Release::CoolBelow(release_c), action)
    }

    /// Engage at `trip_c` with `action`, hold for `intervals` after each
    /// violation.
    pub(crate) fn hold(trip_c: f64, intervals: u32, action: DtmAction) -> Self {
        Self::with_release(trip_c, Release::Hold(intervals), action)
    }

    fn with_release(trip_c: f64, release: Release, action: DtmAction) -> Self {
        Hysteresis {
            trip_c,
            release,
            action,
            hold_left: 0,
            engaged: false,
            over: false,
            triggers: 0,
            active_intervals: 0,
        }
    }

    /// Feeds the interval's peak temperature; returns whether the
    /// mechanism is engaged for the next interval (counting it when so).
    fn observe(&mut self, peak: f64) -> bool {
        let over = peak >= self.trip_c;
        match self.release {
            Release::CoolBelow(release_c) => {
                if self.engaged {
                    if peak < release_c {
                        self.engaged = false;
                    }
                } else if over {
                    self.engaged = true;
                    self.triggers += 1;
                }
            }
            Release::Hold(intervals) => {
                if over {
                    if !self.over {
                        self.triggers += 1;
                    }
                    self.hold_left = intervals;
                }
                self.engaged = self.hold_left > 0;
                self.hold_left = self.hold_left.saturating_sub(1);
            }
        }
        self.over = over;
        if self.engaged {
            self.active_intervals += 1;
        }
        self.engaged
    }
}

impl DtmPolicy for Hysteresis {
    fn decide(&mut self, temps_c: &[f64]) -> DtmAction {
        if self.observe(peak(temps_c)) {
            self.action
        } else {
            DtmAction::Nominal
        }
    }

    fn triggers(&self) -> u64 {
        self.triggers
    }

    fn throttled_intervals(&self) -> u64 {
        self.active_intervals
    }
}

/// The trip/release checks the DVFS and fetch-gate policies share.
fn validate_trip_release(trip_c: f64, release_c: f64) -> Result<(), String> {
    if !trip_c.is_finite() || trip_c <= 0.0 {
        return Err(format!("trip {trip_c} invalid"));
    }
    if !release_c.is_finite() || release_c > trip_c {
        return Err(format!("release {release_c} above trip {trip_c}"));
    }
    Ok(())
}

/// Configuration of the fetch-toggling policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FetchGatePolicy {
    /// Engage when any block reaches this temperature, in °C.
    pub trip_c: f64,
    /// Release once every block has cooled below this temperature, in °C.
    pub release_c: f64,
    /// Cycles per period the fetch unit stays enabled while engaged.
    pub open: u32,
    /// Period of the gating pattern in cycles.
    pub period: u32,
}

impl FetchGatePolicy {
    /// Half-duty fetch toggling armed at the paper's 381 K emergency limit.
    pub fn paper_limit() -> Self {
        FetchGatePolicy {
            trip_c: 381.0 - 273.15,
            release_c: 381.0 - 273.15 - 2.0,
            open: 1,
            period: 2,
        }
    }

    /// The same duty cycle armed at a custom trip temperature, releasing
    /// 2 °C under it.
    pub fn with_trip(trip_c: f64) -> Self {
        FetchGatePolicy {
            trip_c,
            release_c: trip_c - 2.0,
            ..Self::paper_limit()
        }
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        FetchGate {
            open: self.open,
            period: self.period,
        }
        .validate()?;
        if self.open == self.period {
            return Err("a gate that is always open manages nothing".into());
        }
        validate_trip_release(self.trip_c, self.release_c)
    }
}

/// Configuration of the front-end activity-migration policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationPolicy {
    /// Migrate only when the hot partition's front-end blocks reach this
    /// temperature, in °C.
    pub trip_c: f64,
    /// Minimum temperature gap between the hottest and coolest partition's
    /// front-end blocks before migrating, in °C.
    pub margin_c: f64,
}

impl MigrationPolicy {
    /// Migration armed at the paper's 381 K emergency limit with a 0.5 °C
    /// imbalance margin.
    pub fn paper_limit() -> Self {
        MigrationPolicy {
            trip_c: 381.0 - 273.15,
            margin_c: 0.5,
        }
    }

    /// Migration armed at a custom trip temperature.
    pub fn with_trip(trip_c: f64) -> Self {
        MigrationPolicy {
            trip_c,
            ..Self::paper_limit()
        }
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !self.trip_c.is_finite() || self.trip_c <= 0.0 {
            return Err(format!("trip {} invalid", self.trip_c));
        }
        if !self.margin_c.is_finite() || self.margin_c < 0.0 {
            return Err(format!("margin {} invalid", self.margin_c));
        }
        Ok(())
    }
}

/// The migration controller.
///
/// Watches each frontend partition's RAT and ROB blocks; when the hottest
/// partition crosses the trip temperature and leads the coolest by the
/// margin, dispatch is steered toward the coolest partition's backends for
/// the next interval. Requires a distributed frontend to do anything — on a
/// centralized machine there is only one partition and the controller
/// stays nominal.
#[derive(Debug, Clone)]
pub(crate) struct MigrationController {
    policy: MigrationPolicy,
    /// Canonical block indices of each partition's front-end structures.
    partition_blocks: Vec<Vec<usize>>,
    target: Option<usize>,
    triggers: u64,
    throttled_intervals: u64,
}

impl MigrationController {
    /// A controller for a valid `policy`, watching `machine`'s frontend
    /// partitions.
    pub(crate) fn for_machine(policy: MigrationPolicy, machine: Machine) -> Self {
        MigrationController {
            policy,
            partition_blocks: partition_blocks(machine),
            target: None,
            triggers: 0,
            throttled_intervals: 0,
        }
    }
}

/// Canonical block indices of each of `machine`'s frontend partitions'
/// RAT and ROB blocks.
fn partition_blocks(machine: Machine) -> Vec<Vec<usize>> {
    (0..machine.partitions)
        .map(|p| {
            machine
                .blocks()
                .iter()
                .enumerate()
                .filter(
                    |(_, b)| matches!(b, BlockId::Rob(q) | BlockId::Rat(q) if usize::from(*q) == p),
                )
                .map(|(i, _)| i)
                .collect()
        })
        .collect()
}

impl DtmPolicy for MigrationController {
    fn decide(&mut self, temps_c: &[f64]) -> DtmAction {
        if self.partition_blocks.len() < 2 {
            return DtmAction::Nominal;
        }
        let peaks: Vec<f64> = self
            .partition_blocks
            .iter()
            .map(|blocks| peak_of(temps_c, blocks))
            .collect();
        // Ties break toward the lowest partition index, deterministically.
        let hottest = arg_extreme(&peaks, |a, b| a > b);
        let coolest = arg_extreme(&peaks, |a, b| a < b);
        let engage = peaks[hottest] >= self.policy.trip_c
            && peaks[hottest] - peaks[coolest] >= self.policy.margin_c
            && hottest != coolest;
        if engage {
            if self.target != Some(coolest) {
                self.triggers += 1;
            }
            self.target = Some(coolest);
            self.throttled_intervals += 1;
            DtmAction::MigrateTo(coolest)
        } else {
            self.target = None;
            DtmAction::Nominal
        }
    }

    fn triggers(&self) -> u64 {
        self.triggers
    }

    fn throttled_intervals(&self) -> u64 {
        self.throttled_intervals
    }
}

fn peak(temps_c: &[f64]) -> f64 {
    temps_c.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn peak_of(temps_c: &[f64], blocks: &[usize]) -> f64 {
    blocks
        .iter()
        .map(|&b| temps_c[b])
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Index of the first element extreme under `better` (strictly), so ties
/// resolve to the lowest index.
fn arg_extreme(values: &[f64], better: impl Fn(f64, f64) -> bool) -> usize {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate().skip(1) {
        if better(v, values[best]) {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DtmSpec;

    /// A controller for `spec` on a centralized machine.
    fn build(spec: DtmSpec) -> Box<dyn DtmPolicy> {
        spec.build(Machine::new(1, 4, 2))
    }

    fn emergency(threshold_c: f64) -> Box<dyn DtmPolicy> {
        build(DtmSpec::Emergency(EmergencyPolicy::with_threshold(
            threshold_c,
        )))
    }

    #[test]
    fn paper_limit_is_381_kelvin() {
        let p = EmergencyPolicy::paper_limit();
        assert!((p.threshold_c - 107.85).abs() < 0.01);
        p.validate().unwrap();
    }

    #[test]
    fn cool_chip_never_triggers() {
        let mut c = build(DtmSpec::Emergency(EmergencyPolicy::paper_limit()));
        for _ in 0..100 {
            assert_eq!(c.decide(&[60.0, 70.0, 80.0]), DtmAction::Nominal);
        }
        assert_eq!(c.triggers(), 0);
        assert_eq!(c.throttled_intervals(), 0);
    }

    #[test]
    fn hot_block_engages_throttle() {
        let mut c = emergency(100.0);
        assert_eq!(c.decide(&[60.0, 101.0]), DtmAction::Throttle(0.5));
        assert_eq!(c.triggers(), 1);
        // Cooled again: released after the hold.
        assert_eq!(c.decide(&[60.0, 80.0]), DtmAction::Nominal);
    }

    #[test]
    fn sustained_heat_counts_one_emergency() {
        let mut c = emergency(100.0);
        for _ in 0..5 {
            assert_eq!(c.decide(&[105.0]), DtmAction::Throttle(0.5));
        }
        assert_eq!(c.triggers(), 1, "continuous violation is one emergency");
        assert_eq!(c.throttled_intervals(), 5);
    }

    #[test]
    fn re_trigger_after_cooling_counts_again() {
        let mut c = emergency(100.0);
        c.decide(&[105.0]);
        c.decide(&[80.0]);
        c.decide(&[105.0]);
        assert_eq!(c.triggers(), 2);
    }

    #[test]
    fn hold_keeps_throttle_engaged() {
        let mut c = build(DtmSpec::Emergency(EmergencyPolicy {
            threshold_c: 100.0,
            throttle_factor: 0.25,
            hold_intervals: 3,
        }));
        assert_eq!(c.decide(&[101.0]), DtmAction::Throttle(0.25));
        assert_eq!(c.decide(&[90.0]), DtmAction::Throttle(0.25));
        assert_eq!(c.decide(&[90.0]), DtmAction::Throttle(0.25));
        assert_eq!(c.decide(&[90.0]), DtmAction::Nominal);
    }

    #[test]
    fn invalid_policies_rejected() {
        assert!(EmergencyPolicy {
            throttle_factor: 0.0,
            ..EmergencyPolicy::paper_limit()
        }
        .validate()
        .is_err());
        let full_speed = EmergencyPolicy {
            throttle_factor: 1.0,
            ..EmergencyPolicy::paper_limit()
        };
        assert!(full_speed
            .validate()
            .unwrap_err()
            .contains("manages nothing"));
        assert!(EmergencyPolicy {
            hold_intervals: 0,
            ..EmergencyPolicy::paper_limit()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn dvfs_engages_with_hysteresis() {
        let mut c = build(DtmSpec::GlobalDvfs(DvfsPolicy::with_trip(100.0)));
        assert_eq!(c.decide(&[60.0, 90.0]), DtmAction::Nominal);
        let engaged = c.decide(&[60.0, 101.0]);
        assert_eq!(
            engaged,
            DtmAction::Dvfs {
                f_scale: 0.7,
                v_scale: 0.85
            }
        );
        // Still above release: stays engaged without a new trigger.
        assert_eq!(c.decide(&[60.0, 99.0]), engaged);
        assert_eq!(c.triggers(), 1);
        // Below release: back to nominal.
        assert_eq!(c.decide(&[60.0, 97.0]), DtmAction::Nominal);
        assert_eq!(c.throttled_intervals(), 2);
    }

    #[test]
    fn dvfs_retrigger_counts_again() {
        let mut c = build(DtmSpec::GlobalDvfs(DvfsPolicy::with_trip(100.0)));
        c.decide(&[101.0]);
        c.decide(&[90.0]);
        c.decide(&[101.0]);
        assert_eq!(c.triggers(), 2);
    }

    #[test]
    #[should_panic(expected = "bad global-dvfs policy")]
    fn dvfs_overvolt_rejected() {
        build(DtmSpec::GlobalDvfs(DvfsPolicy {
            v_scale: 1.3,
            ..DvfsPolicy::paper_limit()
        }));
    }

    #[test]
    fn fetch_gate_engages_with_hysteresis() {
        let mut c = build(DtmSpec::FetchGate(FetchGatePolicy::with_trip(100.0)));
        assert_eq!(c.decide(&[99.0]), DtmAction::Nominal);
        assert_eq!(
            c.decide(&[100.0]),
            DtmAction::FetchGate { open: 1, period: 2 }
        );
        assert_eq!(
            c.decide(&[98.5]),
            DtmAction::FetchGate { open: 1, period: 2 }
        );
        assert_eq!(c.decide(&[90.0]), DtmAction::Nominal);
        assert_eq!(c.triggers(), 1);
        assert_eq!(c.throttled_intervals(), 2);
    }

    #[test]
    #[should_panic(expected = "manages nothing")]
    fn always_open_gate_rejected() {
        build(DtmSpec::FetchGate(FetchGatePolicy {
            open: 2,
            period: 2,
            ..FetchGatePolicy::paper_limit()
        }));
    }

    /// Temperatures on `machine` with partition `p`'s RAT and ROB at
    /// `hot` and every other block at `cool`.
    fn heat_partition(machine: Machine, p: usize, hot: f64, cool: f64) -> Vec<f64> {
        let mut temps = vec![cool; machine.block_count()];
        for i in &partition_blocks(machine)[p] {
            temps[*i] = hot;
        }
        temps
    }

    #[test]
    fn migration_targets_the_cooler_partition() {
        let machine = Machine::new(2, 4, 2);
        let mut c = DtmSpec::Migration(MigrationPolicy::with_trip(80.0)).build(machine);
        let temps = heat_partition(machine, 0, 85.0, 50.0);
        assert_eq!(c.decide(&temps), DtmAction::MigrateTo(1));
        assert_eq!(c.triggers(), 1);
        // Sustained imbalance is one trigger.
        assert_eq!(c.decide(&temps), DtmAction::MigrateTo(1));
        assert_eq!(c.triggers(), 1);
        // Balance restored: released.
        let balanced = vec![50.0; machine.block_count()];
        assert_eq!(c.decide(&balanced), DtmAction::Nominal);
        assert_eq!(c.throttled_intervals(), 2);
    }

    #[test]
    fn migration_respects_trip_and_margin() {
        let machine = Machine::new(2, 4, 2);
        let mut c = DtmSpec::Migration(MigrationPolicy {
            trip_c: 80.0,
            margin_c: 3.0,
        })
        .build(machine);
        // Hot but below trip: nominal.
        assert_eq!(
            c.decide(&vec![79.0; machine.block_count()]),
            DtmAction::Nominal
        );
        // Above trip but within margin: nominal.
        let mut temps = heat_partition(machine, 0, 81.0, 79.0);
        for i in &partition_blocks(machine)[1] {
            temps[*i] = 79.5;
        }
        assert_eq!(c.decide(&temps), DtmAction::Nominal);
        assert_eq!(c.triggers(), 0);
    }

    #[test]
    fn migration_is_inert_on_a_centralized_machine() {
        let machine = Machine::new(1, 4, 2);
        let mut c = DtmSpec::Migration(MigrationPolicy::with_trip(10.0)).build(machine);
        assert_eq!(
            c.decide(&vec![200.0; machine.block_count()]),
            DtmAction::Nominal
        );
        assert_eq!(c.triggers(), 0);
    }
}
