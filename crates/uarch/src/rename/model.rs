//! The physical-register rename unit [`RenameUnit`](super::RenameUnit)
//! replaced, kept as the reference its counts are checked against.
//!
//! This model numbers every physical register: per backend and class a
//! freelist stack, a `backends × 64` mapping table, and one FIFO per
//! frontend partition of the registers a commit frees. It finds a
//! write's stale copies in the mapping table, not in the availability
//! mask the timing unit reads, so the check also tests that the two
//! agree. The check below
//! drives it and the timing-only unit with the same random streams and
//! asserts that every outcome, free count and availability mask agree.

use std::collections::VecDeque;

use distfront_trace::uop::{ArchReg, MicroOp, RegClass, UopKind, NUM_ARCH_REGS};
use proptest::prelude::*;

use super::{OutOfRegisters, RenameActivity, RenameUnit};

const REGS: usize = NUM_ARCH_REGS as usize;

/// A copy into the renamed backend, as the model reports it.
#[derive(Debug, Clone, Copy)]
struct ModelCopy {
    reg: ArchReg,
    from: usize,
    cross_partition: bool,
}

/// A physical register to return to a freelist at commit.
#[derive(Debug, Clone, Copy)]
struct Release {
    backend: usize,
    class: RegClass,
    reg: u16,
}

struct ModelRenamed {
    copies: Vec<ModelCopy>,
    /// Registers queued on the partition's release FIFO.
    releases: usize,
}

struct Model {
    backends: usize,
    per: usize,
    availability: Vec<u32>,
    mapping: Vec<Option<u16>>,
    /// `free[class][backend]`: freelist stacks.
    free: [Vec<Vec<u16>>; 2],
    pending_releases: Vec<VecDeque<Release>>,
    activity: RenameActivity,
}

impl Model {
    fn new(backends: usize, partitions: usize, int_regs: usize, fp_regs: usize) -> Self {
        let arch = REGS / 2;
        let freelist = |regs: usize| (arch as u16..regs as u16).collect::<Vec<_>>();
        Model {
            backends,
            per: backends / partitions,
            availability: vec![(1 << backends) - 1; REGS],
            mapping: (0..backends * REGS)
                .map(|i| Some((i % REGS % arch) as u16))
                .collect(),
            free: [
                vec![freelist(int_regs); backends],
                vec![freelist(fp_regs); backends],
            ],
            pending_releases: vec![VecDeque::new(); partitions],
            activity: RenameActivity {
                rat_reads: vec![0; partitions],
                rat_writes: vec![0; partitions],
                steer_lookups: 0,
                copy_requests: 0,
            },
        }
    }

    fn partition_of(&self, backend: usize) -> usize {
        backend / self.per
    }

    fn rename(&mut self, uop: &MicroOp, backend: usize) -> Result<ModelRenamed, OutOfRegisters> {
        let mut need = [0; 2];
        for src in uop.sources() {
            if self.availability[src.index()] & (1 << backend) == 0 {
                need[src.class() as usize] += 1;
            }
        }
        if let Some(dst) = uop.dst {
            need[dst.class() as usize] += 1;
        }
        for class in [RegClass::Int, RegClass::Fp] {
            if self.free[class as usize][backend].len() < need[class as usize] {
                return Err(OutOfRegisters { backend, class });
            }
        }
        let part = self.partition_of(backend);
        let mut copies = Vec::new();
        for src in uop.sources() {
            self.activity.steer_lookups += 1;
            self.activity.rat_reads[part] += 1;
            if self.availability[src.index()] & (1 << backend) == 0 {
                let from = (0..self.backends)
                    .filter(|&b| self.availability[src.index()] & (1 << b) != 0)
                    .min_by_key(|&b| (self.partition_of(b) != part, b.abs_diff(backend), b))
                    .expect("register lost from every backend");
                let cross = self.partition_of(from) != part;
                if cross {
                    self.activity.copy_requests += 1;
                }
                let phys = self.free[src.class() as usize][backend].pop().unwrap();
                self.mapping[backend * REGS + src.index()] = Some(phys);
                self.availability[src.index()] |= 1 << backend;
                self.activity.rat_writes[part] += 1;
                copies.push(ModelCopy {
                    reg: src,
                    from,
                    cross_partition: cross,
                });
            }
        }
        let mut releases = 0;
        if let Some(dst) = uop.dst {
            for b in 0..self.backends {
                if let Some(old) = self.mapping[b * REGS + dst.index()].take() {
                    self.pending_releases[part].push_back(Release {
                        backend: b,
                        class: dst.class(),
                        reg: old,
                    });
                    releases += 1;
                }
            }
            let fresh = self.free[dst.class() as usize][backend].pop().unwrap();
            self.mapping[backend * REGS + dst.index()] = Some(fresh);
            self.availability[dst.index()] = 1 << backend;
            self.activity.rat_writes[part] += 1;
        }
        Ok(ModelRenamed { copies, releases })
    }

    /// The `count` releases most recently queued on `partition`.
    fn queued(&self, partition: usize, count: usize) -> impl Iterator<Item = &Release> {
        let q = &self.pending_releases[partition];
        q.range(q.len() - count..)
    }

    fn commit_release(&mut self, partition: usize, count: usize) {
        for _ in 0..count {
            let r = self.pending_releases[partition].pop_front().unwrap();
            self.free[r.class as usize][r.backend].push(r.reg);
        }
    }
}

/// Checks that the two units agree on every free count, availability
/// mask and activity counter.
fn same_state(ru: &RenameUnit, model: &Model) -> Result<(), String> {
    for b in 0..model.backends {
        for class in [RegClass::Int, RegClass::Fp] {
            prop_assert_eq!(ru.free_regs(b, class), model.free[class as usize][b].len());
        }
    }
    for l in 0..NUM_ARCH_REGS {
        let reg = ArchReg::from_index(l);
        prop_assert_eq!(ru.availability(reg), model.availability[reg.index()]);
    }
    prop_assert_eq!(ru.activity(), &model.activity);
    Ok(())
}

/// Decodes a random micro-op: a source of 64 is none, and a second source
/// above 64 repeats the first.
fn uop(seq: u64, kind: u8, dst: u8, (s0, s1): (u8, u8)) -> MicroOp {
    let reg = |r: u8| (r < NUM_ARCH_REGS).then(|| ArchReg::from_index(r));
    let s0 = reg(s0);
    let s1 = if s1 > NUM_ARCH_REGS { s0 } else { reg(s1) };
    let mut op = MicroOp::reg_op(seq, UopKind::IntAlu, ArchReg::from_index(dst), [s0, s1]);
    if kind == 2 {
        // A store or branch: sources only.
        op.dst = None;
    }
    op
}

/// One in-flight micro-op: its partition's ROB order is its rename order.
struct InFlight {
    seq: u64,
    release: super::ReleaseSet,
    model_releases: usize,
}

/// Commits the oldest in-flight micro-op of `partition` on both units.
fn commit(
    ru: &mut RenameUnit,
    model: &mut Model,
    rob: &mut [VecDeque<InFlight>],
    partition: usize,
) {
    if let Some(inf) = rob[partition].pop_front() {
        ru.commit_release(inf.release);
        model.commit_release(partition, inf.model_releases);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// Random rename/commit/stall streams over 1–2 partitions × 1–8
    /// backends and 34–160 registers per class: after every operation
    /// the timing-only unit and the physical-register model report the
    /// same copies and releases (or the same refusal), free counts,
    /// availability masks and activity. A refused rename stalls: the
    /// globally oldest micro-op commits until the rename fits, as in the
    /// simulator.
    #[test]
    fn timing_unit_matches_the_physical_register_model(
        shape in (1usize..3, 1usize..5, 34usize..161, 34usize..161),
        ops in proptest::collection::vec((0u8..8, 0u8..NUM_ARCH_REGS, (0u8..65, 0u8..80), 0usize..8), 1..600),
    ) {
        let (partitions, per, int_regs, fp_regs) = shape;
        let backends = partitions * per;
        let mut ru = RenameUnit::new(backends, partitions, int_regs, fp_regs);
        let mut model = Model::new(backends, partitions, int_regs, fp_regs);
        let mut rob: Vec<VecDeque<InFlight>> = (0..partitions).map(|_| VecDeque::new()).collect();
        for (seq, &(kind, dst, srcs, backend)) in ops.iter().enumerate() {
            let backend = backend % backends;
            if kind < 2 {
                commit(&mut ru, &mut model, &mut rob, backend % partitions);
                same_state(&ru, &model)?;
                continue;
            }
            let op = uop(seq as u64, kind, dst, srcs);
            let part = ru.partition_of(backend);
            let (out, expected) = loop {
                match (ru.rename(&op, backend), model.rename(&op, backend)) {
                    (Ok(out), Ok(expected)) => break (out, expected),
                    (Err(e), Err(expected)) => {
                        prop_assert_eq!(e, expected);
                        let oldest = (0..partitions)
                            .filter_map(|p| rob[p].front().map(|f| (f.seq, p)))
                            .min();
                        prop_assert!(oldest.is_some(), "refused with nothing in flight: {e}");
                        commit(&mut ru, &mut model, &mut rob, oldest.unwrap().1);
                        same_state(&ru, &model)?;
                    }
                    (got, want) => {
                        let want = want.map(|m| m.releases);
                        return Err(format!("outcomes differ: {got:?} vs {want:?}"));
                    }
                }
            };
            prop_assert_eq!(out.copies.len(), expected.copies.len());
            for (c, m) in out.copies.iter().zip(&expected.copies) {
                prop_assert_eq!((c.reg, c.from, c.cross_partition), (m.reg, m.from, m.cross_partition));
            }
            let mut mask = 0u32;
            for r in model.queued(part, expected.releases) {
                prop_assert_eq!(r.class, out.release.class);
                prop_assert!(mask & (1 << r.backend) == 0, "backend {} released twice", r.backend);
                mask |= 1 << r.backend;
            }
            prop_assert_eq!(out.release.mask, mask);
            rob[part].push_back(InFlight {
                seq: seq as u64,
                release: out.release,
                model_releases: expected.releases,
            });
            same_state(&ru, &model)?;
        }
    }
}
