//! Dynamic micro-op stream generation.
//!
//! A [`TraceGenerator`] performs a stochastic walk over one or more
//! [`SyntheticProgram`] CFGs and materializes [`MicroOp`]s: branch outcomes
//! are drawn from per-block probabilities, and memory addresses evolve per
//! static memory template (base + n·stride within the template's region), so
//! the stream exhibits the profile's temporal and spatial locality.
//!
//! A generator over a [`PhasedProfile`] multiplexes one walk per phase:
//! each phase owns its own program, RNG stream and address-space slab, and
//! the generator rotates between them on the phase schedule, switching only
//! at basic-block boundaries (so every phase preserves the trace-cache
//! invariant that re-fetching a PC yields the same micro-ops). A
//! single-profile generator is the one-walk special case and produces a
//! stream bit-identical to the pre-phase implementation.

use crate::phased::PhasedProfile;
use crate::profile::AppProfile;
use crate::program::{MemRegion, SyntheticProgram};
use crate::rng::SplitMix64;
use crate::uop::MicroOp;

/// Base address of the hot data region in the synthetic address space.
pub const HOT_BASE: u64 = 0x1000_0000;
/// Base address of the cold data region.
pub const COLD_BASE: u64 = 0x4000_0000;

/// Address-space slab size per phase: phase `i` of a phased workload has
/// its code, hot and cold regions shifted by `i * PHASE_ADDR_STRIDE`, so
/// distinct programs never alias in the trace cache or data caches (the
/// largest SPEC2000 working set is well under a slab).
pub const PHASE_ADDR_STRIDE: u64 = 1 << 32;

/// One phase's stochastic walk over its program, with all state needed to
/// suspend at a block boundary and resume later.
#[derive(Debug, Clone)]
struct ProgramWalk {
    program: SyntheticProgram,
    rng: SplitMix64,
    /// Current block index.
    block: usize,
    /// Next template index within the current block.
    slot: usize,
    /// Per-template dynamic execution counts (drives strided addresses).
    mem_iter: Vec<u64>,
    /// Cumulative template index of the first template of each block.
    template_base: Vec<usize>,
    /// Address-space slab offset applied to code and data addresses.
    addr_offset: u64,
}

impl ProgramWalk {
    fn new(program: SyntheticProgram, seed: u64, addr_offset: u64) -> Self {
        let mut template_base = Vec::with_capacity(program.blocks.len());
        let mut acc = 0;
        for b in &program.blocks {
            template_base.push(acc);
            acc += b.len();
        }
        ProgramWalk {
            mem_iter: vec![0; acc],
            template_base,
            program,
            rng: SplitMix64::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1)),
            block: 0,
            slot: 0,
            addr_offset,
        }
    }

    /// Micro-ops left in the current basic block, this one included.
    fn block_remaining(&self) -> usize {
        self.program.blocks[self.block].len() - self.slot
    }

    /// Produces the next micro-op of this walk.
    fn next_uop(&mut self) -> MicroOp {
        let blocks = &self.program.blocks;
        let block = &blocks[self.block];
        let t = &block.templates[self.slot];
        let pc = block.uop_pc(self.slot) + self.addr_offset;
        let is_last = self.slot + 1 == block.len();

        let mem_addr = t.mem.map(|m| {
            let idx = self.template_base[self.block] + self.slot;
            let n = self.mem_iter[idx];
            self.mem_iter[idx] = n + 1;
            let (base, size) = match m.region {
                MemRegion::Hot => (HOT_BASE, self.program.hot_size),
                MemRegion::Cold => (COLD_BASE, self.program.cold_size),
            };
            base + (m.offset + n * m.stride) % size.max(8) + self.addr_offset
        });

        let taken = is_last && self.rng.chance(block.taken_prob);
        let uop = MicroOp {
            pc,
            kind: t.kind,
            dst: t.dst,
            srcs: t.srcs,
            mem_addr,
            taken,
            ends_block: is_last,
        };

        if is_last {
            self.block = if taken {
                block.taken_target
            } else {
                block.fallthrough
            };
            self.slot = 0;
        } else {
            self.slot += 1;
        }
        uop
    }
}

/// Per-phase seed: phase 0 reuses the workload seed exactly (so a
/// one-phase schedule reproduces the single-profile stream), later phases
/// decorrelate via an odd multiplier.
fn phase_seed(seed: u64, phase: usize) -> u64 {
    seed ^ (phase as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// An infinite, deterministic micro-op stream for one workload.
///
/// # Examples
///
/// ```
/// use distfront_trace::{AppProfile, TraceGenerator};
///
/// let mut g = TraceGenerator::new(&AppProfile::test_tiny(), 1);
/// let first: Vec<_> = (&mut g).take(100).collect();
/// assert_eq!(first.len(), 100);
/// // Inside a basic block, micro-ops fill consecutive 16-byte slots.
/// assert!(first.windows(2).all(|w| w[0].ends_block || w[1].pc == w[0].pc + 16));
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    walks: Vec<ProgramWalk>,
    /// Micro-op budget per visit, per walk.
    slices: Vec<u64>,
    /// Index of the walk currently emitting.
    active: usize,
    /// Micro-ops left in the current visit; once it reaches zero the
    /// generator rotates at the next block boundary.
    left: u64,
    /// Micro-ops emitted per phase (phase-boundary accounting).
    phase_uops: Vec<u64>,
}

impl TraceGenerator {
    /// Creates a generator for `profile`, seeding both program synthesis and
    /// the dynamic walk from `seed`.
    pub fn new(profile: &AppProfile, seed: u64) -> Self {
        Self::from_program(SyntheticProgram::generate(profile, seed), seed)
    }

    /// Creates a generator over an existing program.
    pub fn from_program(program: SyntheticProgram, seed: u64) -> Self {
        TraceGenerator {
            walks: vec![ProgramWalk::new(program, seed, 0)],
            slices: vec![u64::MAX],
            active: 0,
            left: u64::MAX,
            phase_uops: vec![0],
        }
    }

    /// Creates a generator over a phase schedule: one program walk per
    /// phase, each in its own address-space slab, rotated cyclically with
    /// visits of `phase.uops` micro-ops rounded up to a block boundary.
    ///
    /// # Panics
    ///
    /// Panics if the schedule fails [`PhasedProfile::validate`].
    pub fn phased(profile: &PhasedProfile, seed: u64) -> Self {
        profile
            .validate()
            .unwrap_or_else(|e| panic!("bad phased profile: {e}"));
        let walks: Vec<ProgramWalk> = profile
            .phases
            .iter()
            .enumerate()
            .map(|(i, phase)| {
                let ps = phase_seed(seed, i);
                ProgramWalk::new(
                    SyntheticProgram::generate(&phase.profile, ps),
                    ps,
                    i as u64 * PHASE_ADDR_STRIDE,
                )
            })
            .collect();
        let slices: Vec<u64> = profile.phases.iter().map(|p| p.uops).collect();
        TraceGenerator {
            left: slices[0],
            phase_uops: vec![0; walks.len()],
            walks,
            slices,
            active: 0,
        }
    }

    /// The program the active phase is walking.
    pub fn program(&self) -> &SyntheticProgram {
        &self.walks[self.active].program
    }

    /// Number of phases (1 for a single-profile generator).
    pub fn phase_count(&self) -> usize {
        self.walks.len()
    }

    /// The phase currently emitting.
    pub fn active_phase(&self) -> usize {
        self.active
    }

    /// Micro-ops emitted so far, per phase. Each visit emits its phase's
    /// nominal slice rounded up to the basic-block boundary in flight, so
    /// per-phase totals exceed `visits × slice` by less than one block per
    /// visit.
    pub fn phase_uops(&self) -> &[u64] {
        &self.phase_uops
    }

    /// Micro-ops left in the basic block the next micro-op belongs to,
    /// that one included: the static block length minus the walk's slot.
    /// Phases rotate only at block boundaries, so the next
    /// `block_remaining()` micro-ops all come from the active phase.
    pub fn block_remaining(&self) -> usize {
        self.walks[self.active].block_remaining()
    }

    /// Produces the next micro-op in program order.
    pub fn next_uop(&mut self) -> MicroOp {
        let uop = self.walks[self.active].next_uop();
        self.phase_uops[self.active] += 1;
        self.left = self.left.saturating_sub(1);
        if self.left == 0 && uop.ends_block && self.walks.len() > 1 {
            self.active = (self.active + 1) % self.walks.len();
            self.left = self.slices[self.active];
        }
        uop
    }
}

impl Iterator for TraceGenerator {
    type Item = MicroOp;

    fn next(&mut self) -> Option<MicroOp> {
        Some(self.next_uop())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phased::Phase;
    use crate::uop::UopKind;
    use std::collections::HashMap;

    fn gen() -> TraceGenerator {
        TraceGenerator::new(&AppProfile::test_tiny(), 11)
    }

    #[test]
    fn deterministic_stream() {
        let a: Vec<_> = gen().take(5000).collect();
        let b: Vec<_> = gen().take(5000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn pcs_follow_the_walk_in_program_order() {
        // Inside a block the next micro-op sits in the next slot; after a
        // block's last micro-op the walk opens the taken successor's block
        // if the branch was taken and the fall-through block otherwise.
        let mut g = gen();
        let program = g.program().clone();
        let by_last_pc: HashMap<u64, &crate::BasicBlock> = program
            .blocks
            .iter()
            .map(|b| (b.uop_pc(b.len() - 1), b))
            .collect();
        let mut prev = g.next_uop();
        assert_eq!(prev.pc, program.blocks[0].pc);
        let mut taken = 0;
        for _ in 0..5_000 {
            let u = g.next_uop();
            let expected = if prev.ends_block {
                let block = by_last_pc[&prev.pc];
                if prev.taken {
                    taken += 1;
                    program.blocks[block.taken_target].pc
                } else {
                    program.blocks[block.fallthrough].pc
                }
            } else {
                prev.pc + crate::program::UOP_BYTES
            };
            assert_eq!(u.pc, expected, "after {prev:?}");
            prev = u;
        }
        assert!(taken > 0, "no taken branch in 5k micro-ops");
    }

    #[test]
    fn block_remaining_counts_down_to_each_block_end() {
        let gzip = *AppProfile::by_name("gzip").unwrap();
        let phased = PhasedProfile::alternating("ab", AppProfile::test_tiny(), gzip, 50);
        for mut g in [gen(), TraceGenerator::phased(&phased, 3)] {
            for _ in 0..5_000 {
                let left = g.block_remaining();
                assert!(left > 0);
                let u = g.next_uop();
                assert_eq!(u.ends_block, left == 1);
            }
        }
    }

    #[test]
    fn same_pc_same_static_content() {
        // The trace-cache invariant: revisiting a PC yields identical static
        // fields (kind, dst, srcs), though dynamic fields may differ.
        let mut seen: HashMap<u64, (UopKind, _, _)> = HashMap::new();
        for u in gen().take(20_000) {
            let entry = (u.kind, u.dst, u.srcs);
            if let Some(prev) = seen.get(&u.pc) {
                assert_eq!(*prev, entry, "pc {:#x} changed content", u.pc);
            } else {
                seen.insert(u.pc, entry);
            }
        }
    }

    #[test]
    fn branches_end_blocks_and_only_branches_are_taken() {
        for u in gen().take(5000) {
            if u.kind == UopKind::Branch {
                assert!(u.ends_block);
            } else {
                assert!(!u.taken);
            }
        }
    }

    #[test]
    fn mem_ops_have_addresses_in_regions() {
        for u in gen().take(10_000) {
            if u.kind.is_mem() {
                let a = u.mem_addr.expect("mem op without address");
                assert!(a >= HOT_BASE, "address {a:#x} below hot base");
            } else {
                assert!(u.mem_addr.is_none());
            }
        }
    }

    #[test]
    fn mix_matches_profile_roughly() {
        let profile = *AppProfile::by_name("swim").unwrap();
        let g = TraceGenerator::new(&profile, 3);
        let n = 50_000;
        let mut loads = 0;
        let mut fp = 0;
        let mut branches = 0;
        for u in g.take(n) {
            match u.kind {
                UopKind::Load => loads += 1,
                UopKind::Branch => branches += 1,
                k if k.is_fp() => fp += 1,
                _ => {}
            }
        }
        let lf = loads as f64 / n as f64;
        let ff = fp as f64 / n as f64;
        let bf = branches as f64 / n as f64;
        assert!((lf - profile.load_frac).abs() < 0.08, "load frac {lf}");
        assert!((ff - profile.fp_frac).abs() < 0.10, "fp frac {ff}");
        // swim has very long blocks so branches are rare.
        assert!(bf < 0.10, "branch frac {bf}");
    }

    #[test]
    fn strided_template_advances() {
        // Find a load template executed twice and check its address moved.
        let mut first: HashMap<u64, u64> = HashMap::new();
        let mut advanced = false;
        for u in gen().take(20_000) {
            if let Some(a) = u.mem_addr {
                if let Some(&prev) = first.get(&u.pc) {
                    if prev != a {
                        advanced = true;
                        break;
                    }
                } else {
                    first.insert(u.pc, a);
                }
            }
        }
        assert!(advanced, "no strided access ever changed address");
    }

    #[test]
    fn all_spec_profiles_stream() {
        for p in AppProfile::spec2000() {
            let g = TraceGenerator::new(p, 1);
            assert_eq!(g.take(2000).count(), 2000);
        }
    }

    #[test]
    fn one_phase_schedule_reproduces_the_single_profile_stream() {
        // The phased path with a single phase must be bit-identical to the
        // plain generator: same program seed, zero address offset, and a
        // rotation that never actually rotates.
        let profile = AppProfile::test_tiny();
        let phased = PhasedProfile::new(
            "solo",
            vec![Phase {
                profile,
                uops: 1_000,
            }],
        );
        let a: Vec<_> = TraceGenerator::new(&profile, 7).take(10_000).collect();
        let b: Vec<_> = TraceGenerator::phased(&phased, 7).take(10_000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn phases_switch_at_block_boundaries_with_bounded_overshoot() {
        let a = AppProfile::test_tiny();
        let b = *AppProfile::by_name("gzip").unwrap();
        let slice = 1_000u64;
        let phased = PhasedProfile::alternating("ab", a, b, slice);
        let mut g = TraceGenerator::phased(&phased, 3);
        let mut prev_phase = g.active_phase();
        let mut last: Option<MicroOp> = None;
        let mut switches = 0;
        for _ in 0..40_000 {
            let u = g.next_uop();
            let phase = g.active_phase();
            if phase != prev_phase {
                switches += 1;
                // The uop just emitted closed a basic block.
                assert!(u.ends_block, "phase switched mid-block");
                prev_phase = phase;
            }
            last = Some(u);
        }
        assert!(switches >= 10, "only {switches} switches in 40k uops");
        assert!(last.is_some());
        // Accounting: both phases ran, each visit within one block of the
        // nominal slice. With alternating equal slices the totals differ by
        // at most (overshoot per visit) × visits; blocks are ≤ ~32 uops.
        let counts = g.phase_uops();
        assert_eq!(counts.len(), 2);
        let total: u64 = counts.iter().sum();
        assert_eq!(total, 40_000);
        for (i, &c) in counts.iter().enumerate() {
            let visits = c.div_ceil(slice);
            assert!(c >= slice, "phase {i} never completed a visit: {c}");
            assert!(
                c <= visits * (slice + 64),
                "phase {i} overshoot too large: {c} uops in {visits} visits"
            );
        }
    }

    #[test]
    fn phases_live_in_disjoint_address_slabs() {
        let a = AppProfile::test_tiny();
        let b = *AppProfile::by_name("gzip").unwrap();
        let phased = PhasedProfile::alternating("ab", a, b, 500);
        let mut g = TraceGenerator::phased(&phased, 5);
        let mut slabs = [false, false];
        for _ in 0..5_000 {
            let phase = g.active_phase();
            let u = g.next_uop();
            let slab = (u.pc / PHASE_ADDR_STRIDE) as usize;
            assert_eq!(slab, phase, "pc {:#x} outside its phase slab", u.pc);
            if let Some(m) = u.mem_addr {
                assert_eq!((m / PHASE_ADDR_STRIDE) as usize, phase);
            }
            slabs[slab] = true;
        }
        assert_eq!(slabs, [true, true], "one phase never ran");
    }

    #[test]
    fn interleaving_round_robins_every_program() {
        let apps: Vec<AppProfile> = ["gzip", "mcf", "swim"]
            .iter()
            .map(|n| *AppProfile::by_name(n).unwrap())
            .collect();
        let phased = PhasedProfile::interleaving("mix3", &apps, 300);
        let mut g = TraceGenerator::phased(&phased, 9);
        let mut order = Vec::new();
        let mut prev = g.active_phase();
        order.push(prev);
        for _ in 0..20_000 {
            g.next_uop();
            let phase = g.active_phase();
            if phase != prev {
                order.push(phase);
                prev = phase;
            }
        }
        // Rotation is strictly cyclic: 0, 1, 2, 0, 1, 2, ...
        for (i, &p) in order.iter().enumerate() {
            assert_eq!(p, i % 3, "rotation broke at visit {i}");
        }
        assert!(order.len() >= 12, "too few rotations: {}", order.len());
    }

    #[test]
    #[should_panic(expected = "bad phased profile")]
    fn phased_generator_rejects_empty_schedules() {
        TraceGenerator::phased(&PhasedProfile::new("none", vec![]), 1);
    }
}
