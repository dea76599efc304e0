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
//! [`RenameUnit`] models all of this with real freelists and mapping
//! tables; the timing simulator consumes its [`Renamed`] outcomes.
//!
//! # No heap traffic per micro-op
//!
//! [`RenameUnit::rename`] runs once per micro-op on the simulator's hot
//! path, so it allocates nothing. The mapping table is one flat vector
//! indexed `backend * NUM_ARCH_REGS + reg`. A micro-op has at most two
//! sources, so its copies fit an inline [`CopyList`]. The stale registers
//! a destination write frees at commit go straight onto a FIFO per
//! frontend partition, in ascending backend order; [`Renamed`] reports
//! only how many, and [`RenameUnit::commit_release`] pops that many from
//! the partition's FIFO when the micro-op commits. A partition's ROB
//! commits its entries in the order they were renamed, so each FIFO
//! drains in the order it was filled and the freelists (stacks) see the
//! same push sequence as a list per micro-op would give them. The FIFOs and freelists grow to their high-water mark
//! once and are reused after that.

use std::collections::VecDeque;

use distfront_trace::uop::{ArchReg, MicroOp, RegClass, NUM_ARCH_REGS};

/// Identifier of a physical register within one backend's register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysReg(pub u16);

/// A register-value copy between backends, generated at rename.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyOp {
    /// The logical register being copied.
    pub reg: ArchReg,
    /// Backend that holds the value (source of the copy instruction).
    pub from: usize,
    /// Backend that needs the value.
    pub to: usize,
    /// `true` when `from` belongs to a different frontend partition than
    /// `to`, i.e. a copy *request* had to cross partitions (§3.1.1 step 2).
    pub cross_partition: bool,
    /// Physical register allocated for the copy in the destination backend.
    pub dest_phys: PhysReg,
}

/// A physical register to return to a freelist when the owning instruction
/// commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Release {
    /// Backend whose freelist receives the register.
    pub backend: usize,
    /// Register class.
    pub class: RegClass,
    /// The register itself.
    pub reg: PhysReg,
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
            to: 0,
            cross_partition: false,
            dest_phys: PhysReg(0),
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
    /// Number of registers queued on the partition's release FIFO, to be
    /// freed when this micro-op commits (stale copies of the overwritten
    /// logical destination). Pass it to [`RenameUnit::commit_release`].
    pub releases: usize,
    /// Physical destination allocated for the micro-op, if it has one.
    pub dest_phys: Option<PhysReg>,
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

#[derive(Debug, Clone)]
struct FreeList {
    free: Vec<PhysReg>,
    capacity: usize,
}

impl FreeList {
    fn new(capacity: usize, reserved: usize) -> Self {
        // Registers `0..reserved` boot as the architectural mappings.
        FreeList {
            free: (reserved..capacity).map(|i| PhysReg(i as u16)).collect(),
            capacity,
        }
    }

    fn alloc(&mut self) -> Option<PhysReg> {
        self.free.pop()
    }

    fn release(&mut self, r: PhysReg) {
        debug_assert!(self.free.len() < self.capacity, "double free");
        self.free.push(r);
    }

    fn available(&self) -> usize {
        self.free.len()
    }
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
/// assert_eq!(out.releases, 4);
/// ru.commit_release(ru.partition_of(0), out.releases);
/// ```
#[derive(Debug, Clone)]
pub struct RenameUnit {
    backends: usize,
    partitions: usize,
    /// `partition[backend]`: the frontend partition feeding each backend,
    /// read instead of dividing on every lookup.
    partition: [u8; Self::MAX_BACKENDS],
    /// Availability table: bit `b` set when backend `b` holds a valid copy.
    availability: Vec<u32>,
    /// `mapping[backend * NUM_ARCH_REGS + logical]` — current physical
    /// mapping, if any.
    mapping: Vec<Option<PhysReg>>,
    int_free: Vec<FreeList>,
    fp_free: Vec<FreeList>,
    /// Per frontend partition: registers queued for release, in rename
    /// order, until their owning micro-ops commit.
    pending_releases: Vec<VecDeque<Release>>,
    activity: RenameActivity,
}

/// Logical registers per backend row of the flat mapping table.
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
        let all = (1u32 << backends) - 1;
        let per = backends / partitions;
        let mut partition = [0; Self::MAX_BACKENDS];
        for (b, p) in partition.iter_mut().enumerate().take(backends) {
            *p = (b / per) as u8;
        }
        let mapping = (0..backends)
            .flat_map(|_| (0..REGS).map(|l| Some(PhysReg((l % arch_per_class) as u16))))
            .collect();
        RenameUnit {
            backends,
            partitions,
            partition,
            availability: vec![all; REGS],
            mapping,
            int_free: (0..backends)
                .map(|_| FreeList::new(int_regs, arch_per_class))
                .collect(),
            fp_free: (0..backends)
                .map(|_| FreeList::new(fp_regs, arch_per_class))
                .collect(),
            pending_releases: vec![VecDeque::new(); partitions],
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
        match class {
            RegClass::Int => self.int_free[backend].available(),
            RegClass::Fp => self.fp_free[backend].available(),
        }
    }

    fn freelist(&mut self, backend: usize, class: RegClass) -> &mut FreeList {
        match class {
            RegClass::Int => &mut self.int_free[backend],
            RegClass::Fp => &mut self.fp_free[backend],
        }
    }

    /// Renames `uop` after the steering unit chose `backend`.
    ///
    /// Generates the copies needed to localize source operands, allocates
    /// the destination register from the centralized freelist, updates the
    /// availability table and the owning partition's RAT, and queues the
    /// stale physical registers the commit of this micro-op will release
    /// on the partition's release FIFO. [`Renamed::releases`] says how
    /// many were queued.
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
        // Feasibility pre-check so errors leave state untouched: count
        // registers needed per class.
        let mut need_int = 0usize;
        let mut need_fp = 0usize;
        for src in uop.sources() {
            if !self.is_available(src, backend) {
                match src.class() {
                    RegClass::Int => need_int += 1,
                    RegClass::Fp => need_fp += 1,
                }
            }
        }
        if let Some(dst) = uop.dst {
            match dst.class() {
                RegClass::Int => need_int += 1,
                RegClass::Fp => need_fp += 1,
            }
        }
        if self.int_free[backend].available() < need_int {
            return Err(OutOfRegisters {
                backend,
                class: RegClass::Int,
            });
        }
        if self.fp_free[backend].available() < need_fp {
            return Err(OutOfRegisters {
                backend,
                class: RegClass::Fp,
            });
        }

        let part = self.partition_of(backend);
        let mut copies = CopyList::new();

        // Source localization (availability lookups happen at steer).
        for src in uop.sources() {
            self.activity.steer_lookups += 1;
            self.activity.rat_reads[part] += 1;
            if !self.is_available(src, backend) {
                let from = self
                    .nearest_holder(src, backend)
                    .expect("register lost from every backend");
                let cross = self.partition_of(from) != part;
                if cross {
                    self.activity.copy_requests += 1;
                }
                let dest_phys = self
                    .freelist(backend, src.class())
                    .alloc()
                    .expect("pre-checked allocation failed");
                self.mapping[backend * REGS + src.index()] = Some(dest_phys);
                self.availability[src.index()] |= 1 << backend;
                // The copy's mapping is written in the destination
                // partition's RAT.
                self.activity.rat_writes[part] += 1;
                copies.push(CopyOp {
                    reg: src,
                    from,
                    to: backend,
                    cross_partition: cross,
                    dest_phys,
                });
            }
        }

        // Destination rename at the steering stage (centralized freelists).
        let mut releases = 0;
        let dest_phys = match uop.dst {
            Some(dst) => {
                // Stale copies everywhere are released when this commits,
                // queued in ascending backend order.
                let mut mask = self.availability[dst.index()];
                while mask != 0 {
                    let b = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    if let Some(old) = self.mapping[b * REGS + dst.index()] {
                        self.pending_releases[part].push_back(Release {
                            backend: b,
                            class: dst.class(),
                            reg: old,
                        });
                        releases += 1;
                    }
                }
                let fresh = self
                    .freelist(backend, dst.class())
                    .alloc()
                    .expect("pre-checked allocation failed");
                for b in 0..self.backends {
                    self.mapping[b * REGS + dst.index()] = None;
                }
                self.mapping[backend * REGS + dst.index()] = Some(fresh);
                self.availability[dst.index()] = 1 << backend;
                self.activity.rat_writes[part] += 1;
                Some(fresh)
            }
            None => None,
        };

        Ok(Renamed {
            copies,
            releases,
            dest_phys,
        })
    }

    /// Returns the holder of `reg` nearest to `backend`, preferring holders
    /// in the same partition (request-free copies) over closer holders in
    /// other partitions.
    fn nearest_holder(&self, reg: ArchReg, backend: usize) -> Option<usize> {
        let part = self.partition_of(backend);
        let mut best: Option<(bool, usize, usize)> = None; // (foreign, dist, b)
        for b in self.holders(reg) {
            let key = (self.partition_of(b) != part, b.abs_diff(backend), b);
            if best.is_none() || key < best.unwrap() {
                best = Some(key);
            }
        }
        best.map(|(_, _, b)| b)
    }

    /// Returns registers to the freelists when their owning instruction
    /// commits: pops the `count` oldest entries of `partition`'s release
    /// FIFO, where `count` is the [`Renamed::releases`] of that
    /// instruction. Instructions of one partition must commit in the order
    /// they were renamed.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `count` releases are queued for `partition`.
    pub fn commit_release(&mut self, partition: usize, count: usize) {
        for _ in 0..count {
            let r = self.pending_releases[partition]
                .pop_front()
                .expect("release queued at rename");
            self.freelist(r.backend, r.class).release(r.reg);
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
        assert!(out.dest_phys.is_some());
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
        assert_eq!(c.to, 1);
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
        assert_eq!(out.releases, 4);
        // A second write releases only the single live copy.
        let out2 = ru.rename(&alu(1, 1, 2), 0).unwrap();
        assert_eq!(out2.releases, 1);
    }

    #[test]
    fn widest_mask_boots_and_releases_every_backend() {
        let b = RenameUnit::MAX_BACKENDS;
        let mut ru = RenameUnit::new(b, 1, 160, 160);
        assert_eq!(ru.availability(ArchReg::int(1)), u32::MAX >> 1);
        let out = ru.rename(&alu(0, 1, 2), b - 1).unwrap();
        assert_eq!(out.releases, b);
        ru.commit_release(0, out.releases);
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
    fn releases_drain_per_partition_in_rename_order() {
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
        assert_eq!((a.releases, b.releases, c.releases), (4, 4, 1));
        // Partition 0 queues b's four releases, then c's one: committing
        // b must free b's, one per backend, not c's.
        ru.commit_release(0, b.releases);
        assert_eq!(free(&ru), [boot - 1, boot + 1, boot, boot + 1]);
        ru.commit_release(1, a.releases);
        ru.commit_release(0, c.releases);
        assert_eq!(free(&ru), [boot, boot + 2, boot + 2, boot + 2]);
        // Freelists are stacks: backend 2 last got back a's destination.
        let d = ru.rename(&alu(3, 5, 2), 2).unwrap();
        assert_eq!(d.dest_phys, a.dest_phys);
    }

    #[test]
    fn commit_release_returns_registers() {
        let mut ru = RenameUnit::new(4, 2, 160, 160);
        let before = ru.free_regs(0, RegClass::Int);
        let out = ru.rename(&alu(0, 1, 2), 0).unwrap();
        assert_eq!(ru.free_regs(0, RegClass::Int), before - 1);
        ru.commit_release(0, out.releases);
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
            // (partition, release count) of each in-flight rename.
            let mut pending: VecDeque<(usize, usize)> = VecDeque::new();
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
                        pending.push_back((ru.partition_of(backend), out.releases));
                        // Commit in order with a window of 8 in flight.
                        if pending.len() > 8 {
                            let (part, n) = pending.pop_front().unwrap();
                            ru.commit_release(part, n);
                        }
                    }
                    Err(_) => {
                        // Drain the window and retry once; must succeed.
                        while let Some((part, n)) = pending.pop_front() {
                            ru.commit_release(part, n);
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
