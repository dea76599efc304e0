//! Untrusted-input fuzzing of the DFAT (`.dft`) decoder.
//!
//! `ActivityTrace::decode` reads files a user points the CLI at, so any
//! byte sequence must come back as `Ok` or a `TraceCodecError`: never a
//! panic, a hang or an allocation larger than the input. The mutations
//! start from the committed v3 fixture (a real DVFS-family recording)
//! and from a synthetic multi-point trace, and flip, truncate, splice and
//! replace bytes at random.
//!
//! The binary's global allocator records the largest single request, so
//! the oversized-count test can check that a `u32::MAX` word count on a
//! short input fails before it allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use distfront_trace::record::{
    ActivityTrace, FinalStats, IntervalRecord, PointKey, PointRecord, TraceCodecError, TraceMeta,
    TraceShape, TRACE_FORMAT_VERSION,
};
use distfront_trace::rng::SplitMix64;
use proptest::prelude::*;

/// The system allocator, recording the largest request it served.
struct PeakRequest;

static PEAK_REQUEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the wrapper only
// reads the layout's size.
unsafe impl GlobalAlloc for PeakRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        PEAK_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        PEAK_REQUEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: PeakRequest = PeakRequest;

/// The committed v3 recording: two DVFS-family cells of a real run.
fn fixture() -> Vec<u8> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/dvfs-v3.dft"
    );
    std::fs::read(path).expect("the v3 fixture is committed")
}

/// A synthetic trace with a four-point family, so delta rows mix one- and
/// multi-byte varints.
fn synthetic(seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let shape = TraceShape {
        partitions: 2,
        backends: 3,
        tc_banks: 2,
    };
    let flat = shape.flat_len();
    let points = vec![
        PointKey::Nominal,
        PointKey::dvfs(0.7, 0.85),
        PointKey::FetchGate { open: 1, period: 2 },
        PointKey::MigrateTo(1),
    ];
    let intervals = (0..4)
        .map(|i| {
            let nominal: Vec<u64> = (0..flat).map(|_| rng.next_below(1 << 20)).collect();
            IntervalRecord {
                points: points
                    .iter()
                    .map(|_| PointRecord {
                        counters: nominal
                            .iter()
                            .map(|&n| n.wrapping_add(rng.next_below(1 << 12)))
                            .collect(),
                        done: i == 3,
                    })
                    .collect(),
                gated_bank: (i % 2 == 0).then_some(1),
            }
        })
        .collect();
    ActivityTrace {
        meta: TraceMeta {
            version: TRACE_FORMAT_VERSION,
            workload: "gzip".into(),
            config: "technique-ladder-dvfs".into(),
            processor_fingerprint: rng.next_u64(),
            seed: 1,
            uops_per_app: 40_000,
            interval_cycles: 200_000,
            shape,
            hop: false,
            replay_safe: true,
            dtm: Some("global-dvfs".into()),
            points,
        },
        pilot: (0..flat).map(|_| rng.next_u64()).collect(),
        intervals,
        finals: FinalStats {
            cycles: 1,
            uops: 2,
            tc_hit_rate: 0.5,
            mispredict_rate: 0.25,
        },
    }
    .encode()
}

/// Decodes `bytes`, which must not panic; whatever a success yields must
/// survive an encode/decode round trip unchanged.
fn decode_strictly(bytes: &[u8]) -> Result<(), String> {
    match ActivityTrace::decode(bytes) {
        Ok(trace) if ActivityTrace::decode(&trace.encode()).as_ref() != Ok(&trace) => {
            Err("a decoded trace does not survive a round trip".into())
        }
        _ => Ok(()),
    }
}

#[test]
fn the_unmutated_inputs_decode() {
    ActivityTrace::decode(&fixture()).unwrap();
    ActivityTrace::decode(&synthetic(7)).unwrap();
}

proptest! {
    /// One to eight random bytes of a valid stream XORed with random
    /// non-zero masks.
    #[test]
    fn byte_flips_never_panic(seed in 0u64..u64::MAX, synth in proptest::bool::ANY) {
        let mut bytes = if synth { synthetic(seed) } else { fixture() };
        let mut rng = SplitMix64::new(seed);
        for _ in 0..1 + rng.next_below(8) {
            let at = rng.next_below(bytes.len() as u64) as usize;
            bytes[at] ^= 1 + rng.next_below(255) as u8;
        }
        decode_strictly(&bytes)?;
    }

    /// A flip followed by a cut: every prefix of a mutated stream.
    #[test]
    fn flipped_truncations_never_panic(seed in 0u64..u64::MAX, frac in 0.0f64..1.0) {
        let mut bytes = fixture();
        let mut rng = SplitMix64::new(seed);
        let at = rng.next_below(bytes.len() as u64) as usize;
        bytes[at] ^= 1 + rng.next_below(255) as u8;
        let cut = (bytes.len() as f64 * frac) as usize;
        prop_assert!(ActivityTrace::decode(&bytes[..cut]).is_err());
    }

    /// Random garbage, bare and behind a valid magic and version (so the
    /// decoder reaches its variable-length sections).
    #[test]
    fn garbage_never_panics(seed in 0u64..u64::MAX, len in 0usize..4096) {
        let mut rng = SplitMix64::new(seed);
        let garbage: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        decode_strictly(&garbage)?;
        let mut framed = fixture()[..8].to_vec();
        framed.extend_from_slice(&garbage);
        decode_strictly(&framed)?;
    }

    /// A run of a valid stream overwritten by random bytes.
    #[test]
    fn spliced_garbage_never_panics(seed in 0u64..u64::MAX, len in 1usize..64) {
        let mut bytes = synthetic(seed);
        let mut rng = SplitMix64::new(seed);
        let at = rng.next_below(bytes.len() as u64) as usize;
        for b in bytes[at..].iter_mut().take(len) {
            *b = rng.next_u64() as u8;
        }
        decode_strictly(&bytes)?;
    }
}

/// A valid stream up to its pilot row's word count, which claims
/// `u32::MAX` words over four bytes of input: the decoder must report
/// the pilot truncated without reserving room for the claimed row.
#[test]
fn an_oversized_word_count_is_truncated_without_allocating_it() {
    let bytes = synthetic(3);
    let trace = ActivityTrace::decode(&bytes).unwrap();
    // The same metadata with no pilot and no intervals encodes as the
    // prefix, a zero pilot count, a zero interval count and 32 bytes of
    // final stats.
    let mut head = trace.clone();
    head.pilot.clear();
    head.intervals.clear();
    let count_at = head.encode().len() - 4 - 4 - 32;
    assert_eq!(
        bytes[count_at..count_at + 4],
        (trace.pilot.len() as u32).to_le_bytes(),
        "located the pilot's word count"
    );
    let mut short = bytes[..count_at].to_vec();
    short.extend_from_slice(&u32::MAX.to_le_bytes());
    short.extend_from_slice(&[0; 4]);

    PEAK_REQUEST.store(0, Ordering::Relaxed);
    let err = ActivityTrace::decode(&short);
    let peak = PEAK_REQUEST.load(Ordering::Relaxed);
    assert_eq!(err, Err(TraceCodecError::Truncated("pilot counters")));
    // Other tests of this binary may allocate concurrently, but none
    // asks for a megabyte; the old decoder reserved 8 MiB here.
    assert!(peak < 1 << 20, "decoding reserved {peak} bytes");
}
