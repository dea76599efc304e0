//! Trace construction for the trace cache.
//!
//! The fetch unit delivers *traces*: dynamic sequences of up to
//! [`TraceLimits::max_uops`] micro-ops containing at most
//! [`TraceLimits::max_branches`] branches, identified by the PC of the
//! first micro-op plus the directions of the branches inside
//! ([`distfront_cache::trace_cache::TraceKey`]). A trace ends early at its
//! branch limit, so re-walking the same path re-creates the same key — the
//! property that makes the trace cache work.

use distfront_cache::trace_cache::TraceKey;
use distfront_trace::generator::TraceGenerator;
use distfront_trace::uop::MicroOp;

/// Structural limits of a trace line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceLimits {
    /// Maximum micro-ops per trace (the trace-cache line size).
    pub max_uops: usize,
    /// Maximum branches per trace (the classic trace cache stores 3).
    pub max_branches: usize,
}

impl Default for TraceLimits {
    fn default() -> Self {
        TraceLimits {
            max_uops: 16,
            max_branches: 3,
        }
    }
}

/// Builds traces by consuming a [`TraceGenerator`] stream.
///
/// Traces are aligned to basic-block boundaries: a trace ends when the next
/// whole block would not fit, at its branch limit, or at the micro-op limit
/// (blocks longer than a line are split at fixed offsets). Alignment keeps
/// the set of distinct trace keys proportional to the *code footprint*
/// rather than to the number of distinct dynamic paths, which is what lets
/// a real trace cache converge on the hot path.
///
/// The builder holds no micro-ops of its own: it asks the generator how
/// much of the current block is left
/// ([`TraceGenerator::block_remaining`]) and generates the part it takes
/// straight into the caller's buffer.
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    generator: TraceGenerator,
    limits: TraceLimits,
}

impl TraceBuilder {
    /// Wraps a generator with the given limits.
    pub fn new(generator: TraceGenerator, limits: TraceLimits) -> Self {
        TraceBuilder { generator, limits }
    }

    /// Builds the next trace along the executed path into `uops`, which
    /// is cleared first, and returns its trace-cache key.
    ///
    /// The caller owns the buffer and passes the same one every time, so
    /// after the first few traces building one allocates nothing.
    pub fn next_trace_into(&mut self, uops: &mut Vec<MicroOp>) -> TraceKey {
        uops.clear();
        let mut branch_bits = 0u8;
        let mut branches = 0;
        loop {
            let block_len = self.generator.block_remaining();
            let fits = uops.len() + block_len <= self.limits.max_uops;
            if !fits && !uops.is_empty() {
                break; // end the trace at the block boundary
            }
            let take = if fits {
                block_len
            } else {
                self.limits.max_uops
            };
            for _ in 0..take {
                let uop = self.generator.next_uop();
                if uop.is_branch() {
                    if uop.taken {
                        branch_bits |= 1 << branches;
                    }
                    branches += 1;
                }
                uops.push(uop);
            }
            if branches >= self.limits.max_branches || uops.len() >= self.limits.max_uops {
                break;
            }
        }
        TraceKey::new(uops[0].pc, branch_bits)
    }
}

#[cfg(test)]
mod model;

#[cfg(test)]
mod tests {
    use super::*;
    use distfront_trace::profile::AppProfile;
    use distfront_trace::uop::UopKind;
    use std::collections::HashMap;

    fn builder() -> TraceBuilder {
        TraceBuilder::new(
            TraceGenerator::new(&AppProfile::test_tiny(), 9),
            TraceLimits::default(),
        )
    }

    /// Runs `check` on the next `n` traces of a fresh builder, all built
    /// into one reused buffer.
    fn each_trace(n: usize, mut check: impl FnMut(TraceKey, &[MicroOp])) {
        let mut b = builder();
        let mut uops = Vec::new();
        for _ in 0..n {
            let key = b.next_trace_into(&mut uops);
            check(key, &uops);
        }
    }

    #[test]
    fn traces_respect_limits() {
        each_trace(500, |_, uops| {
            assert!(!uops.is_empty());
            assert!(uops.len() <= 16);
            let branches = uops.iter().filter(|u| u.is_branch()).count();
            assert!(branches <= 3);
        });
    }

    #[test]
    fn traces_are_contiguous_in_program_order() {
        // Back to back, the traces are the generator's stream: nothing
        // skipped, repeated or reordered.
        let mut stream = TraceGenerator::new(&AppProfile::test_tiny(), 9);
        each_trace(200, |_, uops| {
            for u in uops {
                assert_eq!(*u, stream.next_uop());
            }
        });
    }

    #[test]
    fn key_encodes_branch_directions() {
        each_trace(300, |key, uops| {
            let mut bits = 0u8;
            for (i, u) in uops
                .iter()
                .filter(|u| u.kind == UopKind::Branch)
                .enumerate()
            {
                if u.taken {
                    bits |= 1 << i;
                }
            }
            assert_eq!(key.branch_bits, bits);
            assert_eq!(key.start_pc, uops[0].pc);
        });
    }

    #[test]
    fn same_key_means_same_static_content() {
        // The fundamental trace-cache property.
        let mut seen: HashMap<TraceKey, Vec<(u64, UopKind)>> = HashMap::new();
        each_trace(2000, |key, uops| {
            let sig: Vec<_> = uops.iter().map(|u| (u.pc, u.kind)).collect();
            if let Some(prev) = seen.get(&key) {
                assert_eq!(prev, &sig, "key {key:?} changed contents");
            } else {
                seen.insert(key, sig);
            }
        });
        assert!(seen.len() > 4, "workload produced too few distinct traces");
    }

    #[test]
    fn trace_ends_at_third_branch() {
        each_trace(300, |_, uops| {
            let branches = uops.iter().filter(|u| u.is_branch()).count();
            if branches == 3 {
                assert!(
                    uops.last().unwrap().is_branch(),
                    "3rd branch must end trace"
                );
            }
        });
    }
}
