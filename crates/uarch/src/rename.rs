//! Register renaming: centralized baseline and the distributed scheme of
//! §3.1.1 (Figs. 4–5).
//!
//! The pieces, following the paper:
//!
//! * The **steering stage** is centralized. It owns the *availability
//!   table* (one bit per backend per logical register: does that backend
//!   hold a valid copy?) and the per-backend *freelists*. Destination
//!   registers are renamed here, right after the steering decision, so the
//!   per-partition rename tables never need to communicate.
//! * Each **frontend partition** owns a rename table (RAT) with columns for
//!   its backends only; source operands are mapped there.
//! * When a source value lives only in backends of *another* partition, a
//!   **copy request** is sent to that partition, which generates the copy
//!   instruction (the two-step process of §3.1.1).
//!
//! [`RenameUnit`] models the timing of all this: the availability table,
//! one free-register count per backend and register class, and the
//! activity counters. No timing or activity number depends on *which*
//! physical register holds a value, so registers are counted, not
//! numbered. The timing simulator consumes its [`Renamed`] outcomes.
//!
//! # Why counts are exact
//!
//! Backend `b` holds a physical register for logical register `r` exactly
//! when `r`'s availability bit `b` is set. Boot sets every bit, with every
//! file holding the architectural state; a copy into `b` allocates there
//! and sets bit `b`; a destination write allocates in its backend and
//! clears every other bit. So the stale copies a write frees at commit
//! are the set bits of the destination's mask before the write, all of
//! the destination's class: the write's [`ReleaseSet`]. The simulator's
//! ROB entry keeps it, and [`RenameUnit::commit_release`] adds one free
//! register to each backend in the mask. A test-only model that numbers
//! every register (freelist stacks, a mapping table, release FIFOs) is
//! driven with the same random streams and must agree on every outcome,
//! free count and mask.
//!
//! # The pre-check counts a repeated source twice
//!
//! [`RenameUnit::rename`] first checks that every register it will
//! allocate is free, so a refusal leaves the unit untouched. The check
//! counts every non-local source operand, so `r6 ← r5, r5` with `r5`
//! remote asks for two copies though it gets one. A refusal forces an
//! earlier commit, so correcting the count moves result bits; it is kept
//! as it is. Once the ROB has drained, a backend holds one register per
//! logical register it has a copy of, so a file of 34 per class has at
//! least two free plus one per distinct remote source, and the pre-check
//! never asks for more, double count included. 34 is the floor
//! [`ProcessorConfig::validate`](crate::config::ProcessorConfig::validate)
//! enforces, so the simulator's stall loop always ends.
//!
//! # No heap traffic per micro-op
//!
//! [`RenameUnit::rename`] runs once per micro-op on the simulator's hot
//! path, so it allocates nothing. The availability table and the free
//! counts are fixed arrays, a micro-op's copies fit an inline
//! [`CopyList`] (at most one per source), and its release set is a mask
//! and a class.

use distfront_trace::uop::{ArchReg, MicroOp, RegClass, NUM_ARCH_REGS};

#[cfg(test)]
mod model;

/// A register-value copy into the renamed micro-op's backend, generated
/// at rename.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyOp {
    /// The logical register being copied.
    pub reg: ArchReg,
    /// Backend that holds the value (source of the copy instruction).
    pub from: usize,
    /// `true` when `from` belongs to a different frontend partition than
    /// the micro-op's backend, i.e. a copy *request* had to cross
    /// partitions (§3.1.1 step 2).
    pub cross_partition: bool,
}

/// The registers a micro-op frees when it commits: one of `class` in
/// every backend of `mask` (the stale copies of its destination).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReleaseSet {
    /// Bit `b` set when backend `b` gets a register back.
    pub mask: u32,
    /// Class of the freed registers.
    pub class: RegClass,
}

impl ReleaseSet {
    /// Frees nothing: the release set of a micro-op without destination.
    pub const NONE: ReleaseSet = ReleaseSet {
        mask: 0,
        class: RegClass::Int,
    };
}

/// The copies one micro-op needs: at most one per source, so at most two,
/// held inline. Dereferences to a slice in generation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyList {
    /// Slots past `len` hold a fixed filler, so the derived equality is
    /// equality of the slices.
    ops: [CopyOp; 2],
    len: usize,
}

impl CopyList {
    fn new() -> Self {
        let filler = CopyOp {
            reg: ArchReg::from_index(0),
            from: 0,
            cross_partition: false,
        };
        CopyList {
            ops: [filler; 2],
            len: 0,
        }
    }

    fn push(&mut self, op: CopyOp) {
        self.ops[self.len] = op;
        self.len += 1;
    }
}

impl std::ops::Deref for CopyList {
    type Target = [CopyOp];

    fn deref(&self) -> &[CopyOp] {
        &self.ops[..self.len]
    }
}

/// Outcome of renaming one micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Renamed {
    /// Copies that must execute before the micro-op's sources are local.
    pub copies: CopyList,
    /// Registers freed when this micro-op commits. Pass it to
    /// [`RenameUnit::commit_release`].
    pub release: ReleaseSet,
}

/// Error: a required freelist was empty; the frontend must stall until a
/// commit releases registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfRegisters {
    /// Backend whose freelist was exhausted.
    pub backend: usize,
    /// Class that ran dry.
    pub class: RegClass,
}

impl std::fmt::Display for OutOfRegisters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "backend {} has no free {:?} registers",
            self.backend, self.class
        )
    }
}

impl std::error::Error for OutOfRegisters {}

/// Per-partition activity counters maintained by the rename unit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RenameActivity {
    /// Source-mapping lookups per partition.
    pub rat_reads: Vec<u64>,
    /// Destination-mapping writes per partition.
    pub rat_writes: Vec<u64>,
    /// Availability-table lookups at steer.
    pub steer_lookups: u64,
    /// Cross-partition copy requests.
    pub copy_requests: u64,
}

/// The complete rename subsystem.
///
/// # Examples
///
/// ```
/// use distfront_trace::uop::{ArchReg, MicroOp, UopKind};
/// use distfront_uarch::rename::RenameUnit;
///
/// // Bi-clustered frontend over four backends (Fig. 3).
/// let mut ru = RenameUnit::new(4, 2, 160, 160);
/// let add = MicroOp::reg_op(0, UopKind::IntAlu, ArchReg::int(1),
///                           [Some(ArchReg::int(2)), None]);
/// let out = ru.rename(&add, 0).unwrap();
/// assert!(out.copies.is_empty()); // r2 boots available everywhere
/// // r1 booted in all four backends: four stale copies free at commit.
/// assert_eq!(out.release.mask, 0b1111);
/// ru.commit_release(out.release);
/// ```
#[derive(Debug, Clone)]
pub struct RenameUnit {
    backends: usize,
    partitions: usize,
    /// `partition[backend]`: the frontend partition feeding each backend,
    /// read instead of dividing on every lookup.
    partition: [u8; Self::MAX_BACKENDS],
    /// Availability table: bit `b` set when backend `b` holds a valid copy.
    availability: [u32; REGS],
    /// `free[class as usize][backend]`: free registers of each file.
    free: [[usize; Self::MAX_BACKENDS]; 2],
    /// Register-file size per class, the bound a free count stays below.
    regs: [usize; 2],
    activity: RenameActivity,
}

/// Logical registers, both classes.
const REGS: usize = NUM_ARCH_REGS as usize;

impl RenameUnit {
    /// Largest backend count the `u32` availability mask can hold: the
    /// all-backends mask is `(1 << backends) - 1`.
    pub const MAX_BACKENDS: usize = 31;

    /// Creates a rename unit for `backends` clusters grouped into
    /// `partitions` frontend partitions, with the given per-backend
    /// register-file sizes.
    ///
    /// Every logical register boots with a valid copy in every backend, as
    /// after a context switch that broadcast the architectural state.
    ///
    /// # Panics
    ///
    /// Panics if `backends` is not divisible by `partitions`, exceeds
    /// [`MAX_BACKENDS`](Self::MAX_BACKENDS), or the register files are too
    /// small to hold the architectural state.
    pub fn new(backends: usize, partitions: usize, int_regs: usize, fp_regs: usize) -> Self {
        assert!(partitions > 0 && backends.is_multiple_of(partitions));
        assert!(
            backends <= Self::MAX_BACKENDS,
            "{backends} backends overflow the availability mask"
        );
        let arch_per_class = REGS / 2;
        assert!(int_regs > arch_per_class, "int register file too small");
        assert!(fp_regs > arch_per_class, "fp register file too small");
        let per = backends / partitions;
        let mut partition = [0; Self::MAX_BACKENDS];
        for (b, p) in partition.iter_mut().enumerate().take(backends) {
            *p = (b / per) as u8;
        }
        let mut free = [[0; Self::MAX_BACKENDS]; 2];
        for (class, regs) in [(RegClass::Int, int_regs), (RegClass::Fp, fp_regs)] {
            free[class as usize][..backends].fill(regs - arch_per_class);
        }
        RenameUnit {
            backends,
            partitions,
            partition,
            availability: [(1u32 << backends) - 1; REGS],
            free,
            regs: [int_regs, fp_regs],
            activity: RenameActivity {
                rat_reads: vec![0; partitions],
                rat_writes: vec![0; partitions],
                steer_lookups: 0,
                copy_requests: 0,
            },
        }
    }

    /// Number of backend clusters.
    pub fn backends(&self) -> usize {
        self.backends
    }

    /// Number of frontend partitions.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// The frontend partition feeding `backend`.
    pub fn partition_of(&self, backend: usize) -> usize {
        usize::from(self.partition[backend])
    }

    /// Backends currently holding a valid copy of `reg`.
    pub fn holders(&self, reg: ArchReg) -> impl Iterator<Item = usize> + '_ {
        let mask = self.availability[reg.index()];
        (0..self.backends).filter(move |&b| mask & (1 << b) != 0)
    }

    /// The availability mask of `reg`: bit `b` set when backend `b` holds
    /// a valid copy.
    pub fn availability(&self, reg: ArchReg) -> u32 {
        self.availability[reg.index()]
    }

    /// `true` if `backend` holds a valid copy of `reg`.
    pub fn is_available(&self, reg: ArchReg, backend: usize) -> bool {
        self.availability[reg.index()] & (1 << backend) != 0
    }

    /// Free integer/fp registers of a backend (diagnostics and tests).
    pub fn free_regs(&self, backend: usize, class: RegClass) -> usize {
        self.free[class as usize][backend]
    }

    /// Renames `uop` after the steering unit chose `backend`.
    ///
    /// Generates the copies needed to localize source operands, allocates
    /// the destination register from the centralized freelist, and updates
    /// the availability table and the owning partition's RAT counters.
    /// [`Renamed::release`] names the stale copies the commit of this
    /// micro-op frees.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRegisters`] if a required freelist is empty; the
    /// caller should retire older instructions and retry. The unit's state
    /// is unchanged on error.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is out of range.
    pub fn rename(&mut self, uop: &MicroOp, backend: usize) -> Result<Renamed, OutOfRegisters> {
        assert!(backend < self.backends, "backend out of range");
        let bit = 1u32 << backend;
        // Feasibility pre-check so errors leave state untouched: count
        // registers needed per class, a repeated non-local source twice
        // (see the module docs).
        let mut need = [0usize; 2];
        for src in uop.sources() {
            if self.availability[src.index()] & bit == 0 {
                need[src.class() as usize] += 1;
            }
        }
        if let Some(dst) = uop.dst {
            need[dst.class() as usize] += 1;
        }
        for class in [RegClass::Int, RegClass::Fp] {
            if self.free[class as usize][backend] < need[class as usize] {
                return Err(OutOfRegisters { backend, class });
            }
        }

        let part = self.partition_of(backend);
        let mut copies = CopyList::new();

        // Source localization (availability lookups happen at steer).
        for src in uop.sources() {
            self.activity.steer_lookups += 1;
            self.activity.rat_reads[part] += 1;
            if self.availability[src.index()] & bit == 0 {
                let from = self.nearest_holder(src, backend);
                let cross = self.partition_of(from) != part;
                if cross {
                    self.activity.copy_requests += 1;
                }
                self.free[src.class() as usize][backend] -= 1;
                self.availability[src.index()] |= bit;
                // The copy's mapping is written in the destination
                // partition's RAT.
                self.activity.rat_writes[part] += 1;
                copies.push(CopyOp {
                    reg: src,
                    from,
                    cross_partition: cross,
                });
            }
        }

        // Destination rename at the steering stage (centralized freelists):
        // the copies it overwrites everywhere free when this commits.
        let mut release = ReleaseSet::NONE;
        if let Some(dst) = uop.dst {
            release = ReleaseSet {
                mask: self.availability[dst.index()],
                class: dst.class(),
            };
            self.free[dst.class() as usize][backend] -= 1;
            self.availability[dst.index()] = bit;
            self.activity.rat_writes[part] += 1;
        }

        Ok(Renamed { copies, release })
    }

    /// Returns the holder of `reg` nearest to `backend`, preferring holders
    /// in the same partition (request-free copies) over closer holders in
    /// other partitions.
    ///
    /// # Panics
    ///
    /// Panics if no backend holds `reg`, which renaming never allows.
    fn nearest_holder(&self, reg: ArchReg, backend: usize) -> usize {
        let part = self.partition_of(backend);
        self.holders(reg)
            .min_by_key(|&b| (self.partition_of(b) != part, b.abs_diff(backend), b))
            .expect("register lost from every backend")
    }

    /// Returns a committed micro-op's stale copies to the freelists: one
    /// register of `release.class` to every backend in `release.mask`.
    pub fn commit_release(&mut self, release: ReleaseSet) {
        let class = release.class as usize;
        let free = &mut self.free[class];
        let mut mask = release.mask;
        while mask != 0 {
            let b = mask.trailing_zeros() as usize;
            debug_assert!(free[b] < self.regs[class], "double free");
            free[b] += 1;
            mask &= mask - 1;
        }
    }

    /// Activity counters since the last
    /// [`take_activity`](Self::take_activity), left in place.
    pub fn activity(&self) -> &RenameActivity {
        &self.activity
    }

    /// Takes and resets the rename activity counters.
    pub fn take_activity(&mut self) -> RenameActivity {
        let fresh = RenameActivity {
            rat_reads: vec![0; self.partitions],
            rat_writes: vec![0; self.partitions],
            steer_lookups: 0,
            copy_requests: 0,
        };
        std::mem::replace(&mut self.activity, fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfront_trace::uop::UopKind;

    fn alu(seq: u64, dst: u8, src: u8) -> MicroOp {
        MicroOp::reg_op(
            seq,
            UopKind::IntAlu,
            ArchReg::int(dst),
            [Some(ArchReg::int(src)), None],
        )
    }

    #[test]
    fn boot_state_available_everywhere() {
        let ru = RenameUnit::new(4, 2, 160, 160);
        for i in 0..4 {
            assert!(ru.is_available(ArchReg::int(5), i));
            assert!(ru.is_available(ArchReg::fp(5), i));
        }
        assert_eq!(ru.free_regs(0, RegClass::Int), 160 - 32);
    }

    #[test]
    fn local_sources_need_no_copies() {
        let mut ru = RenameUnit::new(4, 2, 160, 160);
        let out = ru.rename(&alu(0, 1, 2), 3).unwrap();
        assert!(out.copies.is_empty());
        // Only the destination is allocated.
        assert_eq!(ru.free_regs(3, RegClass::Int), 160 - 32 - 1);
    }

    #[test]
    fn write_invalidates_other_copies() {
        let mut ru = RenameUnit::new(4, 2, 160, 160);
        ru.rename(&alu(0, 1, 2), 0).unwrap();
        assert!(ru.is_available(ArchReg::int(1), 0));
        for b in 1..4 {
            assert!(!ru.is_available(ArchReg::int(1), b));
        }
    }

    #[test]
    fn remote_source_generates_copy() {
        let mut ru = RenameUnit::new(4, 2, 160, 160);
        ru.rename(&alu(0, 1, 2), 0).unwrap(); // r1 now only in backend 0
        let out = ru.rename(&alu(1, 3, 1), 1).unwrap(); // r1 read on backend 1
        assert_eq!(out.copies.len(), 1);
        let c = out.copies[0];
        assert_eq!(c.from, 0);
        assert!(!c.cross_partition, "backends 0 and 1 share frontend 0");
        // After the copy, r1 is available on backend 1 too.
        assert!(ru.is_available(ArchReg::int(1), 1));
    }

    #[test]
    fn cross_partition_copy_raises_request() {
        let mut ru = RenameUnit::new(4, 2, 160, 160);
        ru.rename(&alu(0, 1, 2), 0).unwrap(); // r1 only in backend 0 (frontend 0)
        let out = ru.rename(&alu(1, 3, 1), 2).unwrap(); // consumed on backend 2 (frontend 1)
        assert_eq!(out.copies.len(), 1);
        assert!(out.copies[0].cross_partition);
        assert_eq!(ru.take_activity().copy_requests, 1);
    }

    #[test]
    fn centralized_never_requests() {
        let mut ru = RenameUnit::new(4, 1, 160, 160);
        ru.rename(&alu(0, 1, 2), 0).unwrap();
        ru.rename(&alu(1, 3, 1), 3).unwrap();
        let act = ru.take_activity();
        assert_eq!(act.copy_requests, 0, "single partition cannot cross");
    }

    #[test]
    fn overwrite_releases_stale_copies() {
        let mut ru = RenameUnit::new(4, 2, 160, 160);
        // r1 boots available in all 4 backends -> 4 stale copies released.
        let out = ru.rename(&alu(0, 1, 2), 0).unwrap();
        assert_eq!(out.release.mask, 0b1111);
        assert_eq!(out.release.class, RegClass::Int);
        // A second write releases only the single live copy.
        let out2 = ru.rename(&alu(1, 1, 2), 0).unwrap();
        assert_eq!(out2.release.mask, 0b0001);
        // No destination, nothing to release.
        let mut store = MicroOp::reg_op(2, UopKind::Store, ArchReg::int(9), [None, None]);
        store.dst = None;
        assert_eq!(ru.rename(&store, 0).unwrap().release, ReleaseSet::NONE);
    }

    #[test]
    fn widest_mask_boots_and_releases_every_backend() {
        let b = RenameUnit::MAX_BACKENDS;
        let mut ru = RenameUnit::new(b, 1, 160, 160);
        assert_eq!(ru.availability(ArchReg::int(1)), u32::MAX >> 1);
        let out = ru.rename(&alu(0, 1, 2), b - 1).unwrap();
        assert_eq!(out.release.mask, u32::MAX >> 1);
        ru.commit_release(out.release);
        for k in 0..b - 1 {
            assert_eq!(ru.free_regs(k, RegClass::Int), 160 - 32 + 1);
        }
    }

    #[test]
    #[should_panic(expected = "availability mask")]
    fn backends_beyond_the_mask_rejected() {
        RenameUnit::new(RenameUnit::MAX_BACKENDS + 1, 1, 160, 160);
    }

    #[test]
    fn each_commit_frees_its_own_release_set() {
        let mut ru = RenameUnit::new(4, 2, 160, 160);
        let boot = 160 - 32;
        let free = |ru: &RenameUnit| {
            (0..4)
                .map(|b| ru.free_regs(b, RegClass::Int))
                .collect::<Vec<_>>()
        };
        // Partition 1 renames first; partition 0 commits first anyway.
        let a = ru.rename(&alu(0, 1, 2), 2).unwrap(); // frees r1 boot copies
        let b = ru.rename(&alu(1, 3, 2), 0).unwrap(); // frees r3 boot copies
        let c = ru.rename(&alu(2, 1, 2), 0).unwrap(); // frees a's r1 on 2
        let masks = (a.release.mask, b.release.mask, c.release.mask);
        assert_eq!(masks, (0b1111, 0b1111, 0b0100));
        // Committing b frees b's registers, one per backend, not c's.
        ru.commit_release(b.release);
        assert_eq!(free(&ru), [boot - 1, boot + 1, boot, boot + 1]);
        ru.commit_release(a.release);
        ru.commit_release(c.release);
        assert_eq!(free(&ru), [boot, boot + 2, boot + 2, boot + 2]);
    }

    #[test]
    fn commit_release_returns_registers() {
        let mut ru = RenameUnit::new(4, 2, 160, 160);
        let before = ru.free_regs(0, RegClass::Int);
        let out = ru.rename(&alu(0, 1, 2), 0).unwrap();
        assert_eq!(ru.free_regs(0, RegClass::Int), before - 1);
        ru.commit_release(out.release);
        // Backend 0 got its stale copy of r1 back; net usage is stable.
        assert_eq!(ru.free_regs(0, RegClass::Int), before);
    }

    #[test]
    fn exhaustion_is_reported_and_state_preserved() {
        let mut ru = RenameUnit::new(2, 1, 33, 33); // one spare register
        ru.rename(&alu(0, 1, 2), 0).unwrap(); // uses the spare
        let err = ru.rename(&alu(1, 3, 2), 0).unwrap_err();
        assert_eq!(err.backend, 0);
        assert_eq!(err.class, RegClass::Int);
        // Backend 1 untouched.
        assert_eq!(ru.free_regs(1, RegClass::Int), 1);
    }

    /// The pre-check counts a repeated remote source twice (see the module
    /// docs): after a full drain, `r6 ← r5, r5` needs two registers on
    /// backend 0 but asks for three. A 33-register file has two free and
    /// refuses with nothing in flight; the 34-register floor of
    /// `ProcessorConfig::validate` has three.
    #[test]
    fn repeated_remote_source_fits_a_drained_34_register_file() {
        let read_r5_twice = MicroOp::reg_op(
            1,
            UopKind::IntAlu,
            ArchReg::int(6),
            [Some(ArchReg::int(5)), Some(ArchReg::int(5))],
        );
        for (regs, fits) in [(33, false), (34, true)] {
            let mut ru = RenameUnit::new(2, 1, regs, regs);
            let w = ru.rename(&alu(0, 5, 2), 1).unwrap();
            ru.commit_release(w.release); // the ROB is empty now
            assert_eq!(ru.free_regs(0, RegClass::Int), regs - 31);
            let out = ru.rename(&read_r5_twice, 0);
            assert_eq!(out.is_ok(), fits, "{regs} registers");
            if let Ok(out) = out {
                assert_eq!(out.copies.len(), 1, "one copy serves both reads");
                assert_eq!(ru.free_regs(0, RegClass::Int), regs - 33);
            }
        }
    }

    #[test]
    fn rename_counts_rat_activity_per_partition() {
        let mut ru = RenameUnit::new(4, 2, 160, 160);
        ru.rename(&alu(0, 1, 2), 0).unwrap(); // partition 0
        ru.rename(&alu(1, 3, 4), 2).unwrap(); // partition 1
        let act = ru.take_activity();
        assert_eq!(act.rat_reads, vec![1, 1]);
        assert_eq!(act.rat_writes, vec![1, 1]);
        assert_eq!(act.steer_lookups, 2);
        // Counters reset after take.
        assert_eq!(ru.take_activity().steer_lookups, 0);
    }

    #[test]
    fn nearest_holder_prefers_same_partition() {
        let mut ru = RenameUnit::new(4, 2, 160, 160);
        // Make r1 live in backends 1 and 2 only: write on 1, copy to 2.
        ru.rename(&alu(0, 1, 2), 1).unwrap();
        let out = ru.rename(&alu(1, 3, 1), 2).unwrap(); // copies 1 -> 2
        assert_eq!(out.copies[0].from, 1);
        // Now r1 lives in 1 and 2. A consumer on backend 3 (partition 1)
        // must prefer backend 2 (same partition) even though backend 1 and
        // 2 are equidistant choices by partition rule anyway; check `from`.
        let out2 = ru.rename(&alu(2, 4, 1), 3).unwrap();
        assert_eq!(out2.copies[0].from, 2, "same-partition holder preferred");
        assert!(!out2.copies[0].cross_partition);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use distfront_trace::uop::UopKind;
    use proptest::prelude::*;

    proptest! {
        /// Under random rename/commit interleavings: every source is
        /// available after rename, freelists never go negative, and
        /// releasing at commit restores balance (no register leaks).
        #[test]
        fn no_register_leaks(
            ops in proptest::collection::vec((0u8..32, 0u8..32, 0usize..4), 1..300),
        ) {
            let mut ru = RenameUnit::new(4, 2, 160, 160);
            // Release sets of the in-flight renames, oldest first.
            let mut pending = std::collections::VecDeque::new();
            for (i, &(dst, src, backend)) in ops.iter().enumerate() {
                let uop = MicroOp::reg_op(
                    i as u64,
                    UopKind::IntAlu,
                    ArchReg::int(dst),
                    [Some(ArchReg::int(src)), None],
                );
                match ru.rename(&uop, backend) {
                    Ok(out) => {
                        prop_assert!(ru.is_available(ArchReg::int(src), backend));
                        prop_assert!(ru.is_available(ArchReg::int(dst), backend));
                        pending.push_back(out.release);
                        // Commit in order with a window of 8 in flight.
                        if pending.len() > 8 {
                            ru.commit_release(pending.pop_front().unwrap());
                        }
                    }
                    Err(_) => {
                        // Drain the window and retry once; must succeed.
                        while let Some(release) = pending.pop_front() {
                            ru.commit_release(release);
                        }
                        prop_assert!(ru.rename(&uop, backend).is_ok());
                    }
                }
            }
            // Every logical register is still held somewhere.
            for l in 0..64u8 {
                let reg = ArchReg::from_index(l);
                prop_assert!(ru.holders(reg).count() >= 1, "register {reg} lost");
            }
        }
    }
}
