//! The micro-op ISA understood by the simulator.
//!
//! The paper's frontend translates IA32 instructions into micro-ops and
//! stores *micro-ops* in the trace cache; everything downstream of decode
//! (rename, steer, issue, execute, commit) operates on micro-ops only. This
//! module defines that internal ISA.

use std::fmt;

/// Number of architectural integer registers visible to rename.
pub const NUM_INT_REGS: u8 = 32;
/// Number of architectural floating-point registers visible to rename.
pub const NUM_FP_REGS: u8 = 32;
/// Total number of architectural registers (`int` + `fp`).
pub const NUM_ARCH_REGS: u8 = NUM_INT_REGS + NUM_FP_REGS;

/// Register class of an architectural register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegClass {
    /// Integer register file.
    Int,
    /// Floating-point register file.
    Fp,
}

/// An architectural (logical) register.
///
/// Registers `0..32` are integer, `32..64` floating point.
///
/// # Examples
///
/// ```
/// use distfront_trace::{ArchReg, RegClass};
///
/// assert_eq!(ArchReg::int(3).class(), RegClass::Int);
/// assert_eq!(ArchReg::fp(3).class(), RegClass::Fp);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArchReg(u8);

impl ArchReg {
    /// Creates an integer register.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= NUM_INT_REGS`.
    pub fn int(idx: u8) -> Self {
        assert!(idx < NUM_INT_REGS, "integer register {idx} out of range");
        ArchReg(idx)
    }

    /// Creates a floating-point register.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= NUM_FP_REGS`.
    pub fn fp(idx: u8) -> Self {
        assert!(idx < NUM_FP_REGS, "fp register {idx} out of range");
        ArchReg(NUM_INT_REGS + idx)
    }

    /// Creates a register from a flat index in `0..NUM_ARCH_REGS`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= NUM_ARCH_REGS`.
    pub fn from_index(idx: u8) -> Self {
        assert!(idx < NUM_ARCH_REGS, "register {idx} out of range");
        ArchReg(idx)
    }

    /// The flat index of this register in `0..NUM_ARCH_REGS`.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// Which register file this register belongs to.
    pub fn class(self) -> RegClass {
        if self.0 < NUM_INT_REGS {
            RegClass::Int
        } else {
            RegClass::Fp
        }
    }
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class() {
            RegClass::Int => write!(f, "r{}", self.0),
            RegClass::Fp => write!(f, "f{}", self.0 - NUM_INT_REGS),
        }
    }
}

/// The operation class of a micro-op.
///
/// The set mirrors the functional-unit classes of the simulated backend
/// (integer ALU/mul/div, FP add/mul/div, memory, control).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UopKind {
    /// Single-cycle integer ALU operation.
    IntAlu,
    /// Pipelined integer multiply.
    IntMul,
    /// Unpipelined integer divide.
    IntDiv,
    /// Floating-point add/sub/convert.
    FpAdd,
    /// Floating-point multiply.
    FpMul,
    /// Unpipelined floating-point divide/sqrt.
    FpDiv,
    /// Memory load.
    Load,
    /// Memory store (address generation + data).
    Store,
    /// Conditional or unconditional branch.
    Branch,
}

impl UopKind {
    /// Execution latency in cycles, excluding cache access time for memory
    /// operations (the data cache adds its own latency).
    pub fn latency(self) -> u32 {
        match self {
            UopKind::IntAlu | UopKind::Branch | UopKind::Store => 1,
            UopKind::IntMul => 3,
            UopKind::IntDiv => 20,
            UopKind::FpAdd => 4,
            UopKind::FpMul => 6,
            UopKind::FpDiv => 24,
            UopKind::Load => 1,
        }
    }

    /// `true` for loads and stores.
    pub fn is_mem(self) -> bool {
        matches!(self, UopKind::Load | UopKind::Store)
    }

    /// `true` for operations that execute on the floating-point units.
    pub fn is_fp(self) -> bool {
        matches!(self, UopKind::FpAdd | UopKind::FpMul | UopKind::FpDiv)
    }
}

impl fmt::Display for UopKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UopKind::IntAlu => "alu",
            UopKind::IntMul => "mul",
            UopKind::IntDiv => "div",
            UopKind::FpAdd => "fadd",
            UopKind::FpMul => "fmul",
            UopKind::FpDiv => "fdiv",
            UopKind::Load => "ld",
            UopKind::Store => "st",
            UopKind::Branch => "br",
        };
        f.write_str(s)
    }
}

/// A dynamic micro-op instance flowing through the pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MicroOp {
    /// Address of the micro-op (synthetic PCs are 16-byte aligned).
    pub pc: u64,
    /// Operation class.
    pub kind: UopKind,
    /// Destination architectural register, if the op produces a value.
    pub dst: Option<ArchReg>,
    /// Source architectural registers (up to two).
    pub srcs: [Option<ArchReg>; 2],
    /// Effective address for loads/stores.
    pub mem_addr: Option<u64>,
    /// For branches: the dynamic direction taken this time.
    pub taken: bool,
    /// Marks the last micro-op of its basic block.
    pub ends_block: bool,
}

impl MicroOp {
    /// A convenience constructor for a register-to-register op at the
    /// `seq`-th micro-op slot (pc `16 * seq`); useful in tests and
    /// examples.
    ///
    /// # Examples
    ///
    /// ```
    /// use distfront_trace::{ArchReg, MicroOp, UopKind};
    ///
    /// let add = MicroOp::reg_op(0, UopKind::IntAlu, ArchReg::int(1),
    ///                           [Some(ArchReg::int(2)), Some(ArchReg::int(3))]);
    /// assert_eq!(add.dst, Some(ArchReg::int(1)));
    /// ```
    pub fn reg_op(seq: u64, kind: UopKind, dst: ArchReg, srcs: [Option<ArchReg>; 2]) -> Self {
        MicroOp {
            pc: seq * 16,
            kind,
            dst: Some(dst),
            srcs,
            mem_addr: None,
            taken: false,
            ends_block: false,
        }
    }

    /// `true` if this micro-op is a branch.
    pub fn is_branch(&self) -> bool {
        self.kind == UopKind::Branch
    }

    /// Iterator over the present source registers.
    pub fn sources(&self) -> impl Iterator<Item = ArchReg> + '_ {
        self.srcs.iter().flatten().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_class_split() {
        assert_eq!(ArchReg::int(0).class(), RegClass::Int);
        assert_eq!(ArchReg::int(31).class(), RegClass::Int);
        assert_eq!(ArchReg::fp(0).class(), RegClass::Fp);
        assert_eq!(ArchReg::fp(31).class(), RegClass::Fp);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn int_reg_out_of_range() {
        ArchReg::int(32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fp_reg_out_of_range() {
        ArchReg::fp(32);
    }

    #[test]
    fn index_roundtrip() {
        for i in 0..NUM_ARCH_REGS {
            assert_eq!(ArchReg::from_index(i).index(), usize::from(i));
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(ArchReg::int(4).to_string(), "r4");
        assert_eq!(ArchReg::fp(4).to_string(), "f4");
    }

    #[test]
    fn latencies_sane() {
        assert_eq!(UopKind::IntAlu.latency(), 1);
        assert!(UopKind::IntDiv.latency() > UopKind::IntMul.latency());
        assert!(UopKind::FpDiv.latency() > UopKind::FpMul.latency());
    }

    #[test]
    fn mem_and_fp_predicates() {
        assert!(UopKind::Load.is_mem());
        assert!(UopKind::Store.is_mem());
        assert!(!UopKind::IntAlu.is_mem());
        assert!(UopKind::FpMul.is_fp());
        assert!(!UopKind::Load.is_fp());
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn micro_op_is_forty_bytes() {
        // Every fetched micro-op is built into the trace buffer and read by
        // the simulator once; a field added here costs every run.
        assert_eq!(std::mem::size_of::<MicroOp>(), 40);
    }

    #[test]
    fn sources_iterates_present_only() {
        let op = MicroOp::reg_op(
            0,
            UopKind::IntAlu,
            ArchReg::int(1),
            [Some(ArchReg::int(2)), None],
        );
        let srcs: Vec<_> = op.sources().collect();
        assert_eq!(srcs, vec![ArchReg::int(2)]);
    }
}
