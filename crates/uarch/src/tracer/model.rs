//! The block-buffered trace builder [`TraceBuilder`](super::TraceBuilder)
//! replaced, kept as the reference its traces are checked against.
//!
//! This model generates each basic block whole into a buffer of its own
//! and copies traces out of that buffer slice by slice, so it never asks
//! the generator where a block ends. The checks below run it and the
//! single-copy builder over the same streams and assert that every trace
//! key and every micro-op agree.

use distfront_cache::trace_cache::TraceKey;
use distfront_trace::generator::TraceGenerator;
use distfront_trace::phased::PhasedProfile;
use distfront_trace::profile::AppProfile;
use distfront_trace::uop::MicroOp;
use proptest::prelude::*;

use super::{TraceBuilder, TraceLimits};

struct BlockBufferedBuilder {
    generator: TraceGenerator,
    limits: TraceLimits,
    /// The block currently being consumed; `pending[head..]` is not yet
    /// emitted.
    pending: Vec<MicroOp>,
    head: usize,
}

impl BlockBufferedBuilder {
    fn new(generator: TraceGenerator, limits: TraceLimits) -> Self {
        BlockBufferedBuilder {
            generator,
            limits,
            pending: Vec::new(),
            head: 0,
        }
    }

    /// Replaces the consumed block in `pending` with the next whole basic
    /// block from the generator.
    fn refill(&mut self) {
        self.pending.clear();
        self.head = 0;
        loop {
            let uop = self.generator.next_uop();
            let ends = uop.ends_block;
            self.pending.push(uop);
            if ends {
                break;
            }
        }
    }

    fn next_trace_into(&mut self, uops: &mut Vec<MicroOp>) -> TraceKey {
        uops.clear();
        let mut branch_bits = 0u8;
        let mut branches = 0;
        loop {
            if self.head == self.pending.len() {
                self.refill();
            }
            let block_len = self.pending.len() - self.head;
            let fits = uops.len() + block_len <= self.limits.max_uops;
            if !fits && !uops.is_empty() {
                break;
            }
            let take = if fits {
                block_len
            } else {
                self.limits.max_uops
            };
            let taken = &self.pending[self.head..self.head + take];
            for uop in taken.iter().filter(|u| u.is_branch()) {
                if uop.taken {
                    branch_bits |= 1 << branches;
                }
                branches += 1;
            }
            uops.extend_from_slice(taken);
            self.head += take;
            if branches >= self.limits.max_branches || uops.len() >= self.limits.max_uops {
                break;
            }
        }
        TraceKey::new(uops[0].pc, branch_bits)
    }
}

/// What a run of both builders saw, for the coverage assertions.
#[derive(Debug, Default)]
struct Seen {
    /// Traces that end inside a basic block (a block split by the line).
    splits: usize,
    /// Traces whose micro-ops come from two phases' address slabs.
    phase_switches: usize,
}

/// Builds `traces` traces with both builders from `generator` and
/// compares every key and micro-op.
fn same_traces(
    generator: TraceGenerator,
    limits: TraceLimits,
    traces: usize,
) -> Result<Seen, String> {
    let mut single = TraceBuilder::new(generator.clone(), limits);
    let mut reference = BlockBufferedBuilder::new(generator, limits);
    let (mut got, mut want) = (Vec::new(), Vec::new());
    let mut seen = Seen::default();
    for i in 0..traces {
        let key = single.next_trace_into(&mut got);
        let expected = reference.next_trace_into(&mut want);
        prop_assert!(key == expected, "trace {i}: key {key:?}, want {expected:?}");
        prop_assert!(got == want, "trace {i}: micro-ops {got:?}, want {want:?}");
        if !got.last().expect("a trace is never empty").ends_block {
            seen.splits += 1;
        }
        let slab = |u: &MicroOp| u.pc >> 32;
        if got.iter().any(|u| slab(u) != slab(&got[0])) {
            seen.phase_switches += 1;
        }
    }
    Ok(seen)
}

/// A random valid profile: mix fractions sum to at most 1, blocks of
/// 2–20 micro-ops on average (so up to 24 with the branch).
fn profile(
    (fp, load, store, branch): (f64, f64, f64, f64),
    (taken_bias, dep_distance, locality): (f64, f64, f64),
    (code_blocks, block_len, working_set): (usize, f64, u64),
) -> AppProfile {
    AppProfile {
        name: "random",
        is_fp: fp > 0.15,
        fp_frac: fp,
        load_frac: load,
        store_frac: store,
        branch_frac: branch,
        taken_bias,
        int_mul_frac: 0.1,
        fp_mul_frac: 0.4,
        dep_distance,
        code_blocks,
        block_len,
        working_set,
        locality,
    }
}

fn limits(max_uops: usize, max_branches: usize) -> TraceLimits {
    TraceLimits {
        max_uops,
        max_branches,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    /// Random profiles, seeds and line shapes (1–24 micro-ops, 1–3
    /// branches): the single-copy builder emits the reference's traces.
    #[test]
    fn single_copy_builder_matches_the_block_buffered_reference(
        mix in (0.0f64..0.3, 0.0f64..0.3, 0.0f64..0.2, 0.0f64..0.2),
        walk in (0.0f64..1.0, 1.0f64..8.0, 0.0f64..1.0),
        code in (1usize..80, 2.0f64..20.0, 64u64..(1 << 20)),
        shape in (1usize..25, 1usize..4, 0u64..1_000),
    ) {
        let (max_uops, max_branches, seed) = shape;
        let generator = TraceGenerator::new(&profile(mix, walk, code), seed);
        same_traces(generator, limits(max_uops, max_branches), 400)?;
    }

    /// Phased pairs of SPEC2000 apps with slices of 1–60 micro-ops, so
    /// phases rotate every few blocks.
    #[test]
    fn phased_streams_match_the_reference(
        apps in (0usize..26, 0usize..26, 1u64..60, 0u64..1_000),
        shape in (1usize..25, 1usize..4),
    ) {
        let (a, b, slice, seed) = apps;
        let spec = AppProfile::spec2000();
        let phased = PhasedProfile::alternating("ab", spec[a], spec[b], slice);
        let generator = TraceGenerator::phased(&phased, seed);
        same_traces(generator, limits(shape.0, shape.1), 400)?;
    }
}

#[test]
fn phase_switches_inside_traces_match_the_reference() {
    // One-micro-op slices rotate the phase at every block end, so every
    // trace of two or more blocks spans both phases.
    let gzip = *AppProfile::by_name("gzip").unwrap();
    let phased = PhasedProfile::alternating("ab", AppProfile::test_tiny(), gzip, 1);
    let seen = same_traces(TraceGenerator::phased(&phased, 7), limits(16, 3), 2_000)
        .unwrap_or_else(|e| panic!("{e}"));
    assert!(seen.phase_switches > 100, "{seen:?}");
}

#[test]
fn lines_shorter_than_the_longest_block_split_blocks_like_the_reference() {
    // Blocks of swim run up to 24 micro-ops; lines of 4-12 split them.
    let swim = *AppProfile::by_name("swim").unwrap();
    for max_uops in [4, 7, 12] {
        let seen = same_traces(TraceGenerator::new(&swim, 5), limits(max_uops, 3), 2_000)
            .unwrap_or_else(|e| panic!("line of {max_uops}: {e}"));
        assert!(seen.splits > 0, "line of {max_uops} split no block");
    }
}
