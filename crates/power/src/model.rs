//! Turning activity counters into per-block power.
//!
//! [`PowerModel`] implements the paper's §2.1 methodology: each block's
//! dynamic power is its activity multiplied by the energy per operation,
//! divided by the interval's wall-clock time; leakage is added per block
//! from the [`LeakageModel`], using the block's *nominal* average dynamic
//! power (measured in a pilot run, exactly as the paper warms up with the
//! nominal power of the first 50 M instructions). Vdd-gated trace-cache
//! banks dissipate neither dynamic nor leakage power.

use crate::blocks::{BlockId, Machine};
use crate::energy::EnergyTable;
use crate::leakage::LeakageModel;
use distfront_uarch::ActivityCounters;

/// A global (voltage, frequency) operating point, relative to nominal.
///
/// Global DVFS scales the whole chip: dynamic energy per operation goes as
/// `V²`, wall-clock time per cycle as `1/f`, and leakage power as `V²`
/// (see [`LeakageModel::leakage_watts_scaled`]). [`OperatingPoint::nominal`]
/// is the identity — every computation through it is bit-identical to a
/// model without operating-point support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Clock frequency as a fraction of nominal (e.g. 0.7 = 70 %).
    pub f_scale: f64,
    /// Supply voltage as a fraction of nominal.
    pub v_scale: f64,
}

impl OperatingPoint {
    /// The nominal (unscaled) operating point.
    pub fn nominal() -> Self {
        OperatingPoint {
            f_scale: 1.0,
            v_scale: 1.0,
        }
    }

    /// A scaled operating point.
    pub fn scaled(f_scale: f64, v_scale: f64) -> Self {
        OperatingPoint { f_scale, v_scale }
    }

    /// Validates the operating point.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        for (label, v) in [("f_scale", self.f_scale), ("v_scale", self.v_scale)] {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) || v == 0.0 {
                return Err(format!("{label} = {v} outside (0, 1]"));
            }
        }
        Ok(())
    }
}

impl Default for OperatingPoint {
    fn default() -> Self {
        Self::nominal()
    }
}

/// Per-block power calculator.
///
/// # Examples
///
/// ```
/// use distfront_power::{EnergyTable, LeakageModel, Machine, PowerModel};
/// use distfront_uarch::ActivityCounters;
///
/// let machine = Machine::new(1, 4, 2);
/// let model = PowerModel::new(machine, EnergyTable::nm65(),
///                             LeakageModel::paper(), 10e9);
/// let mut act = ActivityCounters::new(1, 4, 2);
/// act.cycles = 1_000_000;
/// act.decoded_uops = 2_000_000;
/// let watts = model.dynamic_power(&act);
/// assert_eq!(watts.len(), machine.block_count());
/// ```
#[derive(Debug, Clone)]
pub struct PowerModel {
    machine: Machine,
    energy: EnergyTable,
    leakage: LeakageModel,
    frequency_hz: f64,
    nominal_dynamic: Vec<f64>,
    op: OperatingPoint,
}

impl PowerModel {
    /// Creates a power model for the given machine shape and clock.
    ///
    /// # Panics
    ///
    /// Panics if the energy table fails validation or the frequency is not
    /// positive.
    pub fn new(
        machine: Machine,
        energy: EnergyTable,
        leakage: LeakageModel,
        frequency_hz: f64,
    ) -> Self {
        energy
            .validate()
            .unwrap_or_else(|e| panic!("bad energy table: {e}"));
        assert!(frequency_hz > 0.0, "frequency must be positive");
        PowerModel {
            nominal_dynamic: vec![0.0; machine.block_count()],
            machine,
            energy,
            leakage,
            frequency_hz,
            op: OperatingPoint::nominal(),
        }
    }

    /// Sets the global (V, f) operating point used by subsequent power
    /// computations (global DVFS).
    ///
    /// # Panics
    ///
    /// Panics if the operating point fails validation.
    pub fn set_operating_point(&mut self, op: OperatingPoint) {
        op.validate()
            .unwrap_or_else(|e| panic!("bad operating point: {e}"));
        self.op = op;
    }

    /// The operating point in force.
    pub fn operating_point(&self) -> OperatingPoint {
        self.op
    }

    /// The clock frequency at the current operating point, in Hz. At the
    /// nominal point this equals the constructor's frequency exactly.
    pub fn effective_frequency_hz(&self) -> f64 {
        self.frequency_hz * self.op.f_scale
    }

    /// The machine shape.
    pub fn machine(&self) -> Machine {
        self.machine
    }

    /// The leakage model in use.
    pub fn leakage_model(&self) -> LeakageModel {
        self.leakage
    }

    /// Replaces the leakage model (sensitivity studies, or stress tests of
    /// the leakage↔temperature coupling).
    pub fn set_leakage_model(&mut self, leakage: LeakageModel) {
        self.leakage = leakage;
    }

    /// Sets the per-block nominal average dynamic power used by the leakage
    /// term (from a pilot run).
    ///
    /// # Panics
    ///
    /// Panics if the length does not match the block count.
    pub fn set_nominal_dynamic(&mut self, nominal: Vec<f64>) {
        assert_eq!(nominal.len(), self.machine.block_count());
        self.nominal_dynamic = nominal;
    }

    /// The current nominal dynamic power vector.
    pub fn nominal_dynamic(&self) -> &[f64] {
        &self.nominal_dynamic
    }

    /// Per-block *dynamic* power in Watts for one interval of activity.
    ///
    /// # Panics
    ///
    /// Panics if the activity shape does not match the machine, or the
    /// interval covers zero cycles.
    pub fn dynamic_power(&self, act: &ActivityCounters) -> Vec<f64> {
        let mut power = Vec::new();
        self.dynamic_power_into(act, &mut power);
        power
    }

    /// [`dynamic_power`](Self::dynamic_power) into `pj`, whose allocation
    /// is reused.
    fn dynamic_power_into(&self, act: &ActivityCounters, pj: &mut Vec<f64>) {
        assert_eq!(act.partitions(), self.machine.partitions);
        assert_eq!(act.backends.len(), self.machine.backends);
        assert_eq!(act.tc_bank_accesses.len(), self.machine.tc_banks);
        assert!(act.cycles > 0, "interval covers zero cycles");
        let e = &self.energy;
        let m = &self.machine;
        pj.clear();
        pj.resize(m.block_count(), 0.0);
        let distributed = m.partitions > 1;
        let part_factor = if distributed {
            e.partition_access_factor
        } else {
            1.0
        };

        for p in 0..m.partitions {
            pj[m.index_of(BlockId::Rob(p as u8))] = (act.rob_writes[p] as f64 * e.rob_write
                + act.rob_reads[p] as f64 * e.rob_read)
                * part_factor
                + (act.rob_rl_writes[p] + act.rob_rl_reads[p]) as f64 * e.rob_rl_access;
            pj[m.index_of(BlockId::Rat(p as u8))] = (act.rat_reads[p] as f64 * e.rat_read
                + act.rat_writes[p] as f64 * e.rat_write)
                * part_factor;
        }
        pj[m.index_of(BlockId::Itlb)] = act.itlb_accesses as f64 * e.itlb_access;
        pj[m.index_of(BlockId::Deco)] = act.decoded_uops as f64 * e.decode_uop
            + act.steer_lookups as f64 * e.steer_lookup
            + act.copy_requests as f64 * e.copy_request;
        pj[m.index_of(BlockId::Bp)] = act.bp_accesses as f64 * e.bp_access;

        // Trace-cache fills are apportioned to banks by their access share,
        // keeping the total equal to the proportional part of the cache
        // power as the paper prescribes for the biased mapping (§4).
        let total_tc: u64 = act.tc_bank_accesses.iter().sum();
        for (k, &acc) in act.tc_bank_accesses.iter().enumerate() {
            let fill_share = if total_tc == 0 {
                0.0
            } else {
                act.tc_fills as f64 * acc as f64 / total_tc as f64
            };
            pj[m.index_of(BlockId::TcBank(k as u8))] =
                acc as f64 * e.tc_access + fill_share * e.tc_fill;
        }

        pj[m.index_of(BlockId::Ul2)] = act.ul2_accesses as f64 * e.ul2_access;

        let n_back = m.backends as f64;
        let total_copies: u64 = act.backends.iter().map(|b| b.copy_ops).sum();
        for (c, b) in act.backends.iter().enumerate() {
            let c8 = c as u8;
            pj[m.index_of(BlockId::Dl1(c8))] = b.dl1_accesses as f64 * e.dl1_access;
            pj[m.index_of(BlockId::Dtlb(c8))] = b.dtlb_accesses as f64 * e.dtlb_access;
            pj[m.index_of(BlockId::IntFu(c8))] = b.int_fu_ops as f64 * e.int_fu_op;
            pj[m.index_of(BlockId::FpFu(c8))] = b.fp_fu_ops as f64 * e.fp_fu_op;
            pj[m.index_of(BlockId::Irf(c8))] =
                b.irf_reads as f64 * e.irf_read + b.irf_writes as f64 * e.irf_write;
            pj[m.index_of(BlockId::Fprf(c8))] =
                b.fprf_reads as f64 * e.fprf_read + b.fprf_writes as f64 * e.fprf_write;
            pj[m.index_of(BlockId::IntSched(c8))] =
                b.iq_writes as f64 * e.iq_write + b.iq_issues as f64 * e.iq_issue;
            pj[m.index_of(BlockId::FpSched(c8))] =
                b.fpq_writes as f64 * e.iq_write + b.fpq_issues as f64 * e.iq_issue;
            let link_share = if total_copies == 0 {
                0.0
            } else {
                act.link_flits as f64 * b.copy_ops as f64 / total_copies as f64
            };
            pj[m.index_of(BlockId::CopySched(c8))] =
                b.copy_ops as f64 * e.copy_op + link_share * e.link_flit;
            pj[m.index_of(BlockId::Mob(c8))] = b.mob_allocs as f64 * e.mob_alloc
                + b.mob_searches as f64 * e.mob_search
                + act.disamb_broadcasts as f64 / n_back * e.disamb_broadcast;
        }

        // At the operating point: each operation's switching energy scales
        // as V², and the same cycle count covers 1/f_scale the wall time.
        // Both factors are exactly 1.0 at nominal, keeping this path
        // bit-identical to a model without DVFS support.
        let seconds = act.cycles as f64 / self.effective_frequency_hz();
        let scale = e.activity_scale * self.op.v_scale * self.op.v_scale;
        for p in pj.iter_mut() {
            *p = *p * scale * 1e-12 / seconds;
        }
    }

    /// Per-block *total* power (dynamic + leakage) given current block
    /// temperatures. Blocks in `gated` dissipate nothing.
    ///
    /// # Panics
    ///
    /// Panics if `temps_c` length does not match the block count.
    pub fn total_power(
        &self,
        act: &ActivityCounters,
        temps_c: &[f64],
        gated: &[BlockId],
    ) -> Vec<f64> {
        let mut power = Vec::new();
        self.total_power_into(act, temps_c, gated, &mut power);
        power
    }

    /// [`total_power`](Self::total_power) into `power`, whose allocation
    /// is reused.
    ///
    /// # Panics
    ///
    /// As [`total_power`](Self::total_power).
    pub fn total_power_into(
        &self,
        act: &ActivityCounters,
        temps_c: &[f64],
        gated: &[BlockId],
        power: &mut Vec<f64>,
    ) {
        assert_eq!(temps_c.len(), self.machine.block_count());
        self.dynamic_power_into(act, power);
        for (i, p) in power.iter_mut().enumerate() {
            *p += self.leakage.leakage_watts_scaled(
                self.nominal_dynamic[i],
                temps_c[i],
                self.op.v_scale,
            );
        }
        for &g in gated {
            power[self.machine.index_of(g)] = 0.0;
        }
    }

    /// Sum of a power vector over the frontend blocks.
    pub fn frontend_watts(&self, power: &[f64]) -> f64 {
        self.machine
            .blocks()
            .iter()
            .zip(power)
            .filter(|(b, _)| b.is_frontend())
            .map(|(_, &w)| w)
            .sum()
    }

    /// Sum of a power vector over the backend blocks.
    pub fn backend_watts(&self, power: &[f64]) -> f64 {
        self.machine
            .blocks()
            .iter()
            .zip(power)
            .filter(|(b, _)| b.is_backend())
            .map(|(_, &w)| w)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(partitions: usize, banks: usize) -> PowerModel {
        PowerModel::new(
            Machine::new(partitions, 4, banks),
            EnergyTable::nm65(),
            LeakageModel::paper(),
            10e9,
        )
    }

    fn busy_activity(partitions: usize, banks: usize) -> ActivityCounters {
        let mut act = ActivityCounters::new(partitions, 4, banks);
        act.cycles = 1_000_000;
        act.committed_uops = 2_000_000;
        act.decoded_uops = 2_100_000;
        act.itlb_accesses = 150_000;
        act.bp_accesses = 500_000;
        act.tc_fills = 3_000;
        for p in 0..partitions {
            act.rat_reads[p] = 3_400_000 / partitions as u64;
            act.rat_writes[p] = 2_000_000 / partitions as u64;
            act.rob_writes[p] = 2_000_000 / partitions as u64;
            act.rob_reads[p] = 2_000_000 / partitions as u64;
        }
        for k in 0..banks {
            act.tc_bank_accesses[k] = 150_000 / banks as u64;
        }
        for b in &mut act.backends {
            b.iq_writes = 300_000;
            b.iq_issues = 300_000;
            b.fpq_writes = 80_000;
            b.fpq_issues = 80_000;
            b.irf_reads = 700_000;
            b.irf_writes = 400_000;
            b.fprf_reads = 160_000;
            b.fprf_writes = 90_000;
            b.int_fu_ops = 400_000;
            b.fp_fu_ops = 80_000;
            b.dl1_accesses = 180_000;
            b.dtlb_accesses = 180_000;
            b.mob_allocs = 200_000;
            b.mob_searches = 120_000;
            b.copy_ops = 40_000;
        }
        act.ul2_accesses = 10_000;
        act.disamb_broadcasts = 50_000;
        act.link_flits = 60_000;
        act
    }

    #[test]
    fn power_vector_shape_and_positivity() {
        let m = model(1, 2);
        let w = m.dynamic_power(&busy_activity(1, 2));
        assert_eq!(w.len(), m.machine().block_count());
        assert!(w.iter().all(|&x| x >= 0.0));
        assert!(w.iter().sum::<f64>() > 1.0, "busy machine draws real power");
    }

    #[test]
    fn frontend_share_calibrated() {
        // §1: the frontend accounts for ~30 % of dynamic power.
        let m = model(1, 2);
        let w = m.dynamic_power(&busy_activity(1, 2));
        let total: f64 = w.iter().sum();
        let fe = m.frontend_watts(&w);
        let share = fe / total;
        assert!(
            (0.20..0.45).contains(&share),
            "frontend dynamic share {share}"
        );
    }

    #[test]
    fn distributed_partitions_draw_less_each() {
        let cm = model(1, 2);
        let dm = model(2, 2);
        let cw = cm.dynamic_power(&busy_activity(1, 2));
        let dw = dm.dynamic_power(&busy_activity(2, 2));
        let c_rob = cw[cm.machine().index_of(BlockId::Rob(0))];
        let d_rob0 = dw[dm.machine().index_of(BlockId::Rob(0))];
        let d_rob1 = dw[dm.machine().index_of(BlockId::Rob(1))];
        // Each partition sees half the accesses at <half the energy.
        assert!(d_rob0 < c_rob * 0.30);
        // Total distributed ROB power is lower too (§4.1 reports ~11 %).
        assert!(d_rob0 + d_rob1 < c_rob);
    }

    #[test]
    fn leakage_rises_with_temperature() {
        let mut m = model(1, 2);
        let act = busy_activity(1, 2);
        let dynamic = m.dynamic_power(&act);
        m.set_nominal_dynamic(dynamic.clone());
        let cold = m.total_power(&act, &vec![45.0; dynamic.len()], &[]);
        let hot = m.total_power(&act, &vec![95.0; dynamic.len()], &[]);
        let cold_total: f64 = cold.iter().sum();
        let hot_total: f64 = hot.iter().sum();
        assert!(hot_total > cold_total * 1.1);
    }

    #[test]
    fn gated_bank_draws_nothing() {
        let mut m = model(1, 3);
        let mut act = busy_activity(1, 3);
        act.tc_bank_accesses[2] = 0;
        m.set_nominal_dynamic(vec![1.0; m.machine().block_count()]);
        let w = m.total_power(
            &act,
            &vec![70.0; m.machine().block_count()],
            &[BlockId::TcBank(2)],
        );
        assert_eq!(w[m.machine().index_of(BlockId::TcBank(2))], 0.0);
        assert!(w[m.machine().index_of(BlockId::TcBank(0))] > 0.0);
    }

    #[test]
    fn idle_interval_draws_only_leakage() {
        let mut m = model(1, 2);
        let mut act = ActivityCounters::new(1, 4, 2);
        act.cycles = 1000;
        let w = m.dynamic_power(&act);
        assert!(w.iter().all(|&x| x == 0.0));
        m.set_nominal_dynamic(vec![2.0; m.machine().block_count()]);
        let total = m.total_power(&act, &vec![45.0; m.machine().block_count()], &[]);
        for &x in &total {
            assert!((x - 0.6).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "zero cycles")]
    fn zero_cycle_interval_panics() {
        let m = model(1, 2);
        let act = ActivityCounters::new(1, 4, 2);
        m.dynamic_power(&act);
    }

    #[test]
    fn nominal_operating_point_is_bit_identical() {
        let mut m = model(1, 2);
        let act = busy_activity(1, 2);
        let before = m.dynamic_power(&act);
        m.set_operating_point(OperatingPoint::nominal());
        let after = m.dynamic_power(&act);
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            m.effective_frequency_hz().to_bits(),
            10e9f64.to_bits(),
            "nominal f_scale must not perturb the frequency"
        );
    }

    #[test]
    fn scaled_point_cuts_dynamic_and_leakage_power() {
        let mut m = model(1, 2);
        let act = busy_activity(1, 2);
        let nominal_dyn = m.dynamic_power(&act);
        m.set_nominal_dynamic(nominal_dyn.clone());
        let temps = vec![80.0; nominal_dyn.len()];
        let full: f64 = m.total_power(&act, &temps, &[]).iter().sum();
        m.set_operating_point(OperatingPoint::scaled(0.7, 0.85));
        let scaled: f64 = m.total_power(&act, &temps, &[]).iter().sum();
        // Dynamic drops by f·V² = 0.506, leakage by V² = 0.7225; the total
        // must land strictly between those two factors of the original.
        assert!(scaled < full * 0.7225, "scaled {scaled} vs full {full}");
        assert!(scaled > full * 0.5, "scaled {scaled} vs full {full}");
        // And wall time per cycle stretches by 1/f_scale.
        assert!((m.effective_frequency_hz() - 7e9).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "bad operating point")]
    fn overvolted_point_rejected() {
        model(1, 2).set_operating_point(OperatingPoint::scaled(1.0, 1.2));
    }

    #[test]
    fn watts_scale_inversely_with_time() {
        let m = model(1, 2);
        let mut act = busy_activity(1, 2);
        let w1: f64 = m.dynamic_power(&act).iter().sum();
        act.cycles *= 2; // same events over twice the time
        let w2: f64 = m.dynamic_power(&act).iter().sum();
        assert!((w1 / w2 - 2.0).abs() < 1e-9);
    }
}
