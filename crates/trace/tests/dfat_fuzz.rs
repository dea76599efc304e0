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
//!
//! Delta rows decode a row at a time over a local cursor, with a
//! per-value `Result` only in the stream's last 10 bytes. Streams of
//! hand-made delta rows (1-, 2- and 3–10-byte varints, over-long and
//! overflowing ones) are therefore cut at every byte and each cut is
//! checked against a per-value decoder kept here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use distfront_trace::codec::{CodecError, Reader, Writer};
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

/// The raw bytes of one delta varint: mostly one or two bytes, as
/// recorded traces are, otherwise 3–10 bytes (non-canonical encodings
/// included).
fn random_varint(rng: &mut SplitMix64) -> Vec<u8> {
    let len = match rng.next_below(16) {
        0..=6 => 1,
        7..=12 => 2,
        _ => 3 + rng.next_below(8) as usize,
    };
    let mut v: Vec<u8> = (0..len - 1).map(|_| rng.next_u64() as u8 | 0x80).collect();
    v.push(rng.next_u64() as u8 & if len == 10 { 1 } else { 0x7f });
    v
}

/// A corrupt delta varint: over-long (ten continuation bytes, then an
/// end byte) or `u64`-overflowing (a tenth byte carrying more than the
/// one bit a `u64` has left).
fn corrupt_varint(rng: &mut SplitMix64) -> Vec<u8> {
    let mut v: Vec<u8> = (0..9).map(|_| rng.next_u64() as u8 | 0x80).collect();
    if rng.next_below(2) == 0 {
        v.push(rng.next_u64() as u8 | 0x80);
        v.push(rng.next_u64() as u8 & 0x7f);
    } else {
        v.push(2 + rng.next_below(126) as u8);
    }
    v
}

/// A stream with the metadata and family of `synthetic_trace(seed)`, one
/// or two intervals whose delta rows are `random_varint`s (one in two
/// streams with one `corrupt_varint` among them), and the final stats;
/// with the family's encoded length.
fn hand_made_deltas(seed: u64) -> (ActivityTrace, Vec<u8>, usize) {
    let mut rng = SplitMix64::new(seed);
    let trace = synthetic_trace(seed);
    let flat = trace.meta.shape.flat_len();
    let mut head = trace.clone();
    head.pilot.clear();
    head.intervals.clear();
    let head = head.encode();
    // The prefix ends before the pilot's word count; the interval count
    // and the final stats follow it.
    let prefix = &head[..head.len() - 4 - 4 - 32];
    let mut w = Writer::new();
    w.bytes(prefix);
    w.words(&trace.pilot);
    let intervals = 1 + rng.next_below(2);
    let deltas = intervals as usize * (trace.meta.points.len() - 1) * flat;
    let corrupt_at = (rng.next_below(2) == 0).then(|| rng.next_below(deltas as u64) as usize);
    let mut delta = 0;
    w.u32(intervals as u32);
    for i in 0..intervals {
        w.u16(if i % 2 == 0 { u16::MAX } else { 1 });
        for idx in 0..trace.meta.points.len() {
            w.u8((i + 1 == intervals) as u8);
            if idx == 0 {
                let nominal: Vec<u64> = (0..flat).map(|_| rng.next_u64()).collect();
                w.words(&nominal);
            } else {
                for _ in 0..flat {
                    if corrupt_at == Some(delta) {
                        w.bytes(&corrupt_varint(&mut rng));
                    } else {
                        w.bytes(&random_varint(&mut rng));
                    }
                    delta += 1;
                }
            }
        }
    }
    w.bytes(&head[head.len() - 32..]);
    // The family follows its count, the last field before it.
    let mut r = Reader::new(prefix);
    per_value_metadata(&mut r).unwrap();
    let family_len = r.remaining();
    (trace, w.into_vec(), family_len)
}

/// The metadata section up to the family's count, read field by field
/// with the decoder's section names.
fn per_value_metadata(r: &mut Reader<'_>) -> Result<(), CodecError> {
    r.take(4, "magic")?;
    r.u32("version")?;
    r.str("workload name")?;
    r.str("config name")?;
    r.u64("processor fingerprint")?;
    r.u64("seed")?;
    r.u64("uops")?;
    r.u64("interval")?;
    for _ in 0..3 {
        r.u32("shape")?;
    }
    r.flag("hop flag")?;
    r.flag("replay-safe flag")?;
    if r.u8("dtm flag")? == 1 {
        r.str("dtm name")?;
    }
    r.u32("point family")?;
    Ok(())
}

/// The decoder as it read delta rows before, one `Result` per value, on
/// a stream whose metadata is `meta`'s and whose family is
/// `family_len` bytes.
fn per_value_decode(
    bytes: &[u8],
    meta: &TraceMeta,
    family_len: usize,
) -> Result<ActivityTrace, TraceCodecError> {
    let mut r = Reader::new(bytes);
    per_value_metadata(&mut r)?;
    r.take(family_len, "point family")?;
    let pilot = r.words("pilot counters")?;
    let n = r.u32("interval count")?;
    let mut intervals = Vec::new();
    for _ in 0..n {
        let gated = r.u16("gated bank")?;
        let mut points: Vec<PointRecord> = Vec::new();
        for idx in 0..meta.points.len() {
            let done = r.flag("done flag")?;
            let counters = if idx == 0 {
                r.words("interval counters")?
            } else {
                let mut row = Vec::new();
                for &base in &points[0].counters {
                    row.push(base.wrapping_add(r.zigzag("interval point deltas")? as u64));
                }
                row
            };
            points.push(PointRecord { counters, done });
        }
        intervals.push(IntervalRecord {
            points,
            gated_bank: (gated != u16::MAX).then_some(gated as u8),
        });
    }
    let finals = FinalStats {
        cycles: r.u64("final stats")?,
        uops: r.u64("final stats")?,
        tc_hit_rate: r.f64("final stats")?,
        mispredict_rate: r.f64("final stats")?,
    };
    r.expect_end()?;
    Ok(ActivityTrace {
        meta: meta.clone(),
        pilot,
        intervals,
        finals,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Every cut of a stream of hand-made delta rows decodes to what the
    /// per-value decoder gives: the same trace, or the same error.
    #[test]
    fn delta_rows_decode_like_the_per_value_loop_at_every_cut(seed in 0u64..u64::MAX) {
        let (trace, bytes, family_len) = hand_made_deltas(seed);
        let mut truncated_in_a_row = false;
        for cut in 0..=bytes.len() {
            let want = per_value_decode(&bytes[..cut], &trace.meta, family_len);
            truncated_in_a_row |=
                want == Err(TraceCodecError::Truncated("interval point deltas"));
            let got = ActivityTrace::decode(&bytes[..cut]);
            prop_assert!(got == want, "cut at {cut}: {got:?} != {want:?}");
        }
        prop_assert!(truncated_in_a_row, "no cut fell inside a delta row");
    }
}

/// Both ways a delta varint can be corrupt, each alone in an otherwise
/// valid row, in the row-at-a-time path and in the last 10 bytes.
#[test]
fn corrupt_delta_varints_fail_like_the_per_value_loop() {
    let mut trace = synthetic_trace(11);
    // The last row equal to its nominal row: every delta is one 0 byte.
    let last = trace.intervals.last_mut().unwrap();
    let nominal = last.points[0].counters.clone();
    last.points.last_mut().unwrap().counters = nominal;
    let bytes = trace.encode();
    let flat = trace.meta.shape.flat_len();
    // The last delta row: the final stats follow it.
    let row_end = bytes.len() - 32;
    let corrupt: [(&[u8], &str); 2] = [
        (&[0x80; 11], "varint longer than 10 bytes"),
        (
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02],
            "varint overflows u64",
        ),
    ];
    for (varint, why) in corrupt {
        for (label, at) in [("row start", row_end - flat), ("row end", row_end - 1)] {
            // Replace one one-byte delta with the corrupt varint.
            assert_eq!(bytes[at], 0, "{label}: a zero delta");
            let mut bad = bytes[..at].to_vec();
            bad.extend_from_slice(varint);
            bad.extend_from_slice(&bytes[at + 1..]);
            assert_eq!(
                ActivityTrace::decode(&bad),
                Err(TraceCodecError::Corrupt(why)),
                "{label}"
            );
        }
    }
}
