//! Untrusted-input fuzzing of the DFAT (`.dft`) decoder.
//!
//! `ActivityTrace::decode` reads files a user points the CLI at, so any
//! byte sequence must come back as `Ok` or a `TraceCodecError`: never a
//! panic, a hang or an allocation larger than the input. The mutations
//! start from the committed v4 fixture (a real DVFS recording) and from
//! a synthetic trace whose intervals take every kind of operating point
//! and record bank temperatures, and flip, truncate, splice and replace
//! bytes at random.
//!
//! The binary's global allocator records the largest single request, so
//! the oversized-count test can check that a `u32::MAX` word count on a
//! short input fails before it allocates.
//!
//! The v4 interval fields are cut at every byte and corrupted one at a
//! time: a bad operating-point key, a bank-temperature row of the wrong
//! length and a zero pilot length must each be named.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use distfront_trace::record::{
    ActivityTrace, FinalStats, IntervalRecord, PointKey, TraceCodecError, TraceMeta, TraceShape,
    TRACE_FORMAT_VERSION,
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

/// The committed v4 recording: a global-DVFS cell of a real run.
fn fixture() -> Vec<u8> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/dvfs-v4.dft"
    );
    std::fs::read(path).expect("the v4 fixture is committed")
}

/// A synthetic trace with a four-point family whose intervals take each
/// point in turn and read bank temperatures after the first.
fn synthetic(seed: u64) -> Vec<u8> {
    synthetic_trace(seed).encode()
}

fn synthetic_trace(seed: u64) -> ActivityTrace {
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
        .map(|i| IntervalRecord {
            counters: (0..flat).map(|_| rng.next_below(1 << 20)).collect(),
            done: i == 3,
            point: points[i],
            bank_temp_bits: (0..shape.tc_banks)
                .filter(|_| i > 0)
                .map(|_| (60.0 + rng.next_f64()).to_bits())
                .collect(),
            gated_bank: (i % 2 == 0).then_some(1),
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
            pilot_uops: 10_000,
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

/// Where a synthetic trace's v4 fields sit in its encoding: the pilot
/// length, and the last interval's key tag and bank-temperature count.
struct Offsets {
    pilot_uops_at: usize,
    last_key_at: usize,
    last_temps_at: usize,
}

fn offsets(trace: &ActivityTrace) -> Offsets {
    let flat = trace.meta.shape.flat_len();
    let bytes = trace.encode();
    let last = trace.intervals.last().unwrap();
    // The last interval: gated bank (2), done flag (1), the key (1 tag
    // byte for a migration point + 4), the temperature row and the
    // counter row, then 32 bytes of final stats.
    let temps_len = 4 + 8 * last.bank_temp_bits.len();
    let counters_len = 4 + 8 * flat;
    let last_temps_at = bytes.len() - 32 - counters_len - temps_len;
    let key_len = match last.point {
        PointKey::Nominal => 1,
        PointKey::Dvfs { .. } => 17,
        PointKey::FetchGate { .. } => 9,
        PointKey::MigrateTo(_) => 5,
    };
    // Workload and config strings, then fingerprint, seed, uops.
    let names = 4 + trace.meta.workload.len() + 4 + trace.meta.config.len();
    Offsets {
        pilot_uops_at: 8 + names + 24,
        last_key_at: last_temps_at - key_len,
        last_temps_at,
    }
}

/// Every cut of the synthetic stream fails, and a cut inside an
/// interval's key, temperature row or counter row names that field.
#[test]
fn v4_interval_fields_are_truncated_at_every_cut() {
    let bytes = synthetic(5);
    let mut named = Vec::new();
    for cut in 0..bytes.len() {
        match ActivityTrace::decode(&bytes[..cut]) {
            Ok(_) => panic!("a cut at {cut} decoded"),
            Err(TraceCodecError::Truncated(what)) => named.push(what),
            Err(e) => panic!("a cut at {cut} is not a truncation: {e}"),
        }
    }
    for what in [
        "pilot uops",
        "interval point",
        "bank temperatures",
        "interval counters",
    ] {
        assert!(named.contains(&what), "no cut named {what}");
    }
}

/// A corrupt operating-point key in an interval: an unknown tag, and a
/// migration target outside the machine shape.
#[test]
fn a_bad_interval_point_key_is_corrupt() {
    let trace = synthetic_trace(6);
    let bytes = trace.encode();
    let at = offsets(&trace).last_key_at;
    assert_eq!(bytes[at], 3, "located the last key's migration tag");
    let mut bad = bytes.clone();
    bad[at] = 9;
    assert_eq!(
        ActivityTrace::decode(&bad),
        Err(TraceCodecError::Corrupt("unknown operating-point tag"))
    );
    let mut bad = bytes;
    bad[at + 1..at + 5].copy_from_slice(&2u32.to_le_bytes());
    assert_eq!(
        ActivityTrace::decode(&bad),
        Err(TraceCodecError::Corrupt("migration point outside shape"))
    );
    let mut dvfs = synthetic_trace(6);
    dvfs.intervals[0].point = PointKey::dvfs(1.5, 0.85);
    assert_eq!(
        ActivityTrace::decode(&dvfs.encode()),
        Err(TraceCodecError::Corrupt("DVFS point outside (0, 1]"))
    );
}

/// A bank-temperature row must hold no value or one per physical bank.
#[test]
fn a_wrong_bank_temperature_count_is_corrupt() {
    for len in [1, 3, 4] {
        let mut trace = synthetic_trace(7);
        trace.intervals[2].bank_temp_bits = vec![50f64.to_bits(); len];
        assert_eq!(
            ActivityTrace::decode(&trace.encode()),
            Err(TraceCodecError::Corrupt(
                "bank temperature count mismatches shape"
            )),
            "{len} temperatures"
        );
    }
    // The count itself, rewritten in place.
    let trace = synthetic_trace(7);
    let mut bytes = trace.encode();
    let at = offsets(&trace).last_temps_at;
    assert_eq!(bytes[at..at + 4], 2u32.to_le_bytes(), "located the count");
    bytes[at..at + 4].copy_from_slice(&1u32.to_le_bytes());
    assert!(ActivityTrace::decode(&bytes).is_err());
}

/// A pilot of zero micro-ops cannot have produced the recorded pilot
/// activity.
#[test]
fn a_zero_pilot_length_is_corrupt() {
    let trace = synthetic_trace(8);
    let mut bytes = trace.encode();
    let at = offsets(&trace).pilot_uops_at;
    assert_eq!(
        bytes[at..at + 8],
        trace.meta.pilot_uops.to_le_bytes(),
        "located the pilot length"
    );
    bytes[at..at + 8].copy_from_slice(&0u64.to_le_bytes());
    assert_eq!(
        ActivityTrace::decode(&bytes),
        Err(TraceCodecError::Corrupt("empty pilot"))
    );
}
