//! Synthetic workload substrate for the `distfront` simulator.
//!
//! The original paper drives its simulator with IA32 SPEC2000 binaries that
//! are translated into micro-ops by the frontend. Those traces are not
//! redistributable, so this crate provides the closest synthetic equivalent:
//!
//! * a micro-op ISA ([`MicroOp`], [`UopKind`], [`ArchReg`]) matching what the
//!   paper's frontend stores in the trace cache,
//! * a deterministic [`rng::SplitMix64`] generator so every experiment is
//!   exactly reproducible,
//! * a [`program::SyntheticProgram`] — a control-flow graph of basic blocks
//!   whose micro-ops are a pure function of `(profile, block)`, so that
//!   re-visiting a PC re-fetches the *same* micro-ops (this is what makes a
//!   trace cache meaningful), and
//! * 26 per-application [`profile::AppProfile`]s that mimic the SPEC2000
//!   integer and floating-point mixes the paper evaluates,
//! * phase-structured and multi-program workloads
//!   ([`phased::PhasedProfile`], [`phased::Workload`]) composed from those
//!   profiles, and
//! * the serializable recorded-activity format
//!   ([`record::ActivityTrace`]) that the engine's record/replay pipeline
//!   stores per-interval per-unit activity in.
//!
//! # Examples
//!
//! ```
//! use distfront_trace::{AppProfile, TraceGenerator};
//!
//! let profile = AppProfile::spec2000()[0]; // "gzip"
//! let mut gen = TraceGenerator::new(&profile, 42);
//! let uop = gen.next_uop();
//! // The walk starts at the program's first block.
//! assert_eq!(uop.pc, gen.program().blocks[0].pc);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod generator;
pub mod phased;
pub mod profile;
pub mod program;
pub mod record;
pub mod rng;
pub mod uop;

pub use generator::TraceGenerator;
pub use phased::{Phase, PhasedProfile, Workload};
pub use profile::AppProfile;
pub use program::{BasicBlock, SyntheticProgram};
pub use record::{ActivityTrace, FinalStats, Fingerprint, IntervalRecord, TraceMeta, TraceShape};
pub use uop::{ArchReg, MicroOp, RegClass, UopKind};
