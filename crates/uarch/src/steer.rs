//! The centralized steering unit.
//!
//! Steering decides the destination backend for each micro-op using the
//! availability table (which backends already hold the sources — sending an
//! instruction there avoids copies) balanced against backend load. The
//! paper keeps this stage centralized in both frontend organizations.

use crate::rename::RenameUnit;
use distfront_trace::uop::MicroOp;

/// Steering heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SteeringPolicy {
    /// Prefer the backend holding the most source operands; break ties
    /// toward the least-loaded backend. This is the paper-era standard for
    /// clustered machines and the default.
    #[default]
    DependenceBalance,
    /// Ignore dependences entirely (ablation baseline).
    RoundRobin,
}

/// Score bonus for a backend inside the preferred range, in the same units
/// as the dependence-match weight (one match = 6). Strong enough to pull
/// single-dependence micro-ops toward the preferred clusters, weak enough
/// that double-dependence chains stay where their values live.
const PREFERRED_BONUS: i64 = 9;

/// The steering unit.
///
/// # Examples
///
/// ```
/// use distfront_uarch::rename::RenameUnit;
/// use distfront_uarch::steer::{Steerer, SteeringPolicy};
/// use distfront_trace::uop::{ArchReg, MicroOp, UopKind};
///
/// let ru = RenameUnit::new(4, 1, 160, 160);
/// let mut steerer = Steerer::new(4, SteeringPolicy::DependenceBalance);
/// let uop = MicroOp::reg_op(0, UopKind::IntAlu, ArchReg::int(1), [None, None]);
/// let backend = steerer.steer(&uop, &ru);
/// assert!(backend < 4);
/// ```
#[derive(Debug, Clone)]
pub struct Steerer {
    policy: SteeringPolicy,
    /// Estimated in-flight micro-ops per backend.
    in_flight: Vec<i64>,
    /// Half-open backend range favoured by the thermal-migration control
    /// (`None` = unbiased).
    preferred: Option<(usize, usize)>,
    rr: usize,
}

impl Steerer {
    /// Creates a steering unit for `backends` clusters.
    ///
    /// # Panics
    ///
    /// Panics if `backends` is zero.
    pub fn new(backends: usize, policy: SteeringPolicy) -> Self {
        assert!(backends > 0, "need at least one backend");
        Steerer {
            policy,
            in_flight: vec![0; backends],
            preferred: None,
            rr: 0,
        }
    }

    /// Biases [`SteeringPolicy::DependenceBalance`] toward the backends in
    /// `range` (half-open), or removes the bias with `None`. The front-end
    /// activity-migration DTM policy uses this to drain work away from a
    /// hot frontend partition's clusters.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn set_preferred(&mut self, range: Option<(usize, usize)>) {
        if let Some((start, end)) = range {
            assert!(start < end && end <= self.in_flight.len(), "bad range");
        }
        self.preferred = range;
    }

    /// The backend range currently favoured, if any.
    pub fn preferred(&self) -> Option<(usize, usize)> {
        self.preferred
    }

    /// Chooses the destination backend for `uop`.
    pub fn steer(&mut self, uop: &MicroOp, rename: &RenameUnit) -> usize {
        let n = self.in_flight.len();
        let choice = match self.policy {
            SteeringPolicy::RoundRobin => {
                self.rr = next_in_rotation(self.rr, n);
                self.rr
            }
            SteeringPolicy::DependenceBalance => {
                // Rotate tie-breaking so score ties spread over all
                // backends instead of systematically favouring backend 0
                // (which would skew one frontend partition hot).
                self.rr = next_in_rotation(self.rr, n);
                let [m0, m1] = uop.srcs.map(|s| s.map_or(0, |r| rename.availability(r)));
                // One pass in rotation order from `rr`; the first strictly
                // greater score wins, so ties go to the backend nearest
                // `rr`.
                let mut best = self.rr;
                let mut best_score = i64::MIN;
                let mut b = self.rr;
                for _ in 0..n {
                    // Dependence matches dominate unless the backend is
                    // over-loaded: each match is worth 6 in-flight
                    // micro-ops of imbalance. Loads enter as `-in_flight`;
                    // the least load, common to every backend, cannot
                    // change the winner.
                    let matches = i64::from((m0 >> b) & 1) + i64::from((m1 >> b) & 1);
                    let bias = match self.preferred {
                        Some((start, end)) if (start..end).contains(&b) => PREFERRED_BONUS,
                        _ => 0,
                    };
                    let score = matches * 6 + bias - self.in_flight[b];
                    if score > best_score {
                        best = b;
                        best_score = score;
                    }
                    b = next_in_rotation(b, n);
                }
                best
            }
        };
        self.in_flight[choice] += 1;
        choice
    }

    /// Notifies the steerer that a micro-op retired from `backend`.
    pub fn note_retire(&mut self, backend: usize) {
        self.in_flight[backend] -= 1;
        debug_assert!(self.in_flight[backend] >= 0, "retire underflow");
    }

    /// Estimated in-flight micro-ops per backend.
    pub fn loads(&self) -> &[i64] {
        &self.in_flight
    }
}

/// The backend after `b` in rotation order over `n` backends: `(b + 1) %
/// n` for `b < n`, wrapped with a compare instead of a division.
fn next_in_rotation(b: usize, n: usize) -> usize {
    if b + 1 == n {
        0
    } else {
        b + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfront_trace::uop::{ArchReg, UopKind};

    fn alu(seq: u64, dst: u8, src: u8) -> MicroOp {
        MicroOp::reg_op(
            seq,
            UopKind::IntAlu,
            ArchReg::int(dst),
            [Some(ArchReg::int(src)), None],
        )
    }

    #[test]
    fn round_robin_cycles() {
        let ru = RenameUnit::new(4, 1, 160, 160);
        let mut s = Steerer::new(4, SteeringPolicy::RoundRobin);
        let picks: Vec<_> = (0..8).map(|i| s.steer(&alu(i, 1, 2), &ru)).collect();
        assert_eq!(picks, vec![1, 2, 3, 0, 1, 2, 3, 0]);
    }

    #[test]
    fn dependence_follows_producer() {
        let mut ru = RenameUnit::new(4, 1, 160, 160);
        let mut s = Steerer::new(4, SteeringPolicy::DependenceBalance);
        // Produce r1 on backend 2 (write invalidates other copies).
        ru.rename(&alu(0, 1, 2), 2).unwrap();
        // A consumer of r1 should be steered to backend 2.
        let pick = s.steer(&alu(1, 3, 1), &ru);
        assert_eq!(pick, 2);
    }

    #[test]
    fn balance_spreads_independent_work() {
        let ru = RenameUnit::new(4, 1, 160, 160);
        let mut s = Steerer::new(4, SteeringPolicy::DependenceBalance);
        // All sources boot available everywhere: matches tie, so load
        // balancing must distribute.
        for i in 0..40 {
            s.steer(&alu(i, 1, 2), &ru);
        }
        let max = *s.loads().iter().max().unwrap();
        let min = *s.loads().iter().min().unwrap();
        assert!(max - min <= 1, "loads {:?}", s.loads());
    }

    #[test]
    fn retire_decrements_load() {
        let ru = RenameUnit::new(2, 1, 160, 160);
        let mut s = Steerer::new(2, SteeringPolicy::RoundRobin);
        let b = s.steer(&alu(0, 1, 2), &ru);
        assert_eq!(s.loads()[b], 1);
        s.note_retire(b);
        assert_eq!(s.loads()[b], 0);
    }

    #[test]
    fn preferred_range_attracts_independent_work() {
        let ru = RenameUnit::new(4, 1, 160, 160);
        let mut s = Steerer::new(4, SteeringPolicy::DependenceBalance);
        s.set_preferred(Some((2, 4)));
        for i in 0..40 {
            s.steer(&alu(i, 1, 2), &ru);
        }
        let left: i64 = s.loads()[..2].iter().sum();
        let right: i64 = s.loads()[2..].iter().sum();
        assert!(right > left * 2, "loads {:?}", s.loads());
        // Clearing the bias restores balance for new work.
        s.set_preferred(None);
        assert_eq!(s.preferred(), None);
    }

    #[test]
    fn preferred_range_yields_to_heavy_overload() {
        let ru = RenameUnit::new(2, 1, 160, 160);
        let mut s = Steerer::new(2, SteeringPolicy::DependenceBalance);
        s.set_preferred(Some((1, 2)));
        for i in 0..60 {
            s.steer(&alu(i, 1, 2), &ru);
        }
        // The bias shifts work but load balancing still uses both clusters.
        assert!(s.loads()[0] > 0, "loads {:?}", s.loads());
        assert!(s.loads()[1] > s.loads()[0], "loads {:?}", s.loads());
    }

    #[test]
    #[should_panic(expected = "bad range")]
    fn empty_preferred_range_rejected() {
        let mut s = Steerer::new(4, SteeringPolicy::DependenceBalance);
        s.set_preferred(Some((2, 2)));
    }

    #[test]
    fn overload_overrides_dependence() {
        let mut ru = RenameUnit::new(2, 1, 160, 160);
        let mut s = Steerer::new(2, SteeringPolicy::DependenceBalance);
        ru.rename(&alu(0, 1, 2), 0).unwrap(); // r1 lives on backend 0
                                              // Pile load onto backend 0 beyond the 12-entry dependence bonus.
        for i in 0..30 {
            s.steer(&alu(i + 1, 2, 1), &ru);
        }
        // Eventually consumers of r1 spill to backend 1 despite dependence.
        assert!(s.loads()[1] > 0, "loads {:?}", s.loads());
    }
}
