//! Untrusted-input fuzzing of the DFSG segment scanner behind
//! [`DurableStore::open`], which reads the state directories of
//! `distfront-sweepd --state-dir`, `distfront-scenarios --state-dir` and
//! the shard workers.
//!
//! A segment file holds whatever a crash, a full disk or a stray writer
//! left behind, so opening a store must never panic. It returns `Ok` with
//! the surviving records and a count of what it dropped, or an `Err` for
//! a genuine I/O failure, which a scratch directory never produces, so
//! these tests require `Ok`. The contract checked on every case:
//!
//! - the records recovered are a prefix of the records written;
//! - damage is counted: `skipped == 0` only when each segment file was
//!   left as written, or was empty (a well-formed shorter segment, such
//!   as a cut at a record boundary, needs no repair);
//! - the repair sticks: reopening the repaired directory gives
//!   `skipped == 0` and the same records.
//!
//! The mutations start from a valid results segment and a valid traces
//! segment, then flip, cut and append garbage bytes. Every case writes
//! two files and opens the store twice, so the case counts stay small.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use distfront::store::{DurableStore, StoreSnapshot};
use distfront_trace::record::{
    ActivityTrace, FinalStats, IntervalRecord, PointKey, TraceMeta, TraceShape,
    TRACE_FORMAT_VERSION,
};
use distfront_trace::rng::SplitMix64;
use proptest::prelude::*;

/// The two segment files of a store, in the order [`Valid::files`]
/// holds their bytes.
const SEGMENTS: [&str; 2] = ["results.dfsg", "traces.dfsg"];

/// A valid store: its two segment files' bytes and the records they hold.
struct Valid {
    files: [Vec<u8>; 2],
    results: Vec<(u64, Vec<String>)>,
    traces: Vec<ActivityTrace>,
}

/// A scratch directory unique to this process and `tag`, emptied.
fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("distfront-dfsg-fuzz-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small replay-safe recording of a DVFS row that engaged once.
fn trace(config: &str, counter: u64) -> ActivityTrace {
    let shape = TraceShape {
        partitions: 2,
        backends: 2,
        tc_banks: 1,
    };
    let flat = shape.flat_len();
    ActivityTrace {
        meta: TraceMeta {
            version: TRACE_FORMAT_VERSION,
            workload: "gzip".to_string(),
            config: config.to_string(),
            processor_fingerprint: 0xfeed,
            seed: 7,
            uops_per_app: 1_000,
            pilot_uops: 250,
            interval_cycles: 100,
            shape,
            hop: false,
            replay_safe: true,
            dtm: None,
            points: vec![PointKey::Nominal, PointKey::dvfs(0.7, 0.85)],
        },
        pilot: vec![counter + 1; flat],
        intervals: (0..3)
            .map(|i| IntervalRecord {
                counters: vec![counter; flat],
                done: i == 2,
                point: if i == 1 {
                    PointKey::dvfs(0.7, 0.85)
                } else {
                    PointKey::Nominal
                },
                bank_temp_bits: Vec::new(),
                gated_bank: None,
            })
            .collect(),
        finals: FinalStats {
            cycles: 300,
            uops: 1_000,
            tc_hit_rate: 0.9,
            mispredict_rate: 0.05,
        },
    }
}

/// Writes the valid store once and keeps its bytes and records.
fn valid() -> &'static Valid {
    static VALID: OnceLock<Valid> = OnceLock::new();
    VALID.get_or_init(|| {
        let dir = scratch("valid");
        let (store, _) = DurableStore::open(&dir).unwrap();
        let results: Vec<(u64, Vec<String>)> = vec![
            (
                1,
                vec![
                    "CELL baseline,gzip,1".to_string(),
                    "ERRCELL baseline mcf warm start diverged".to_string(),
                    "DONE status=2 cells=2 failed=1".to_string(),
                ],
            ),
            (2, vec!["DONE status=0 cells=0 failed=0".to_string()]),
            (1, vec!["CELL drc,gzip,1.5,2".to_string(); 4]),
        ];
        for (fingerprint, frames) in &results {
            store.append_result(*fingerprint, frames).unwrap();
        }
        let traces = vec![trace("baseline", 3), trace("drc", 300)];
        for t in &traces {
            store.append_trace(t).unwrap();
        }
        store.flush().unwrap();
        drop(store);
        let files = SEGMENTS.map(|name| std::fs::read(dir.join(name)).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
        Valid {
            files,
            results,
            traces,
        }
    })
}

/// Opens the store under `dir`, which must succeed.
fn open(dir: &Path) -> Result<StoreSnapshot, String> {
    DurableStore::open(dir)
        .map(|(_, snapshot)| snapshot)
        .map_err(|e| format!("open failed: {e}"))
}

/// Writes `files` as a store's segments under a scratch directory, opens
/// it twice and checks the module's contract; returns the first open's
/// snapshot.
fn open_checked(tag: &str, files: &[Vec<u8>; 2]) -> Result<StoreSnapshot, String> {
    let valid = valid();
    let dir = scratch(tag);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    for (name, bytes) in SEGMENTS.iter().zip(files) {
        std::fs::write(dir.join(name), bytes).map_err(|e| e.to_string())?;
    }
    let first = open(&dir)?;
    if first.results.len() > valid.results.len()
        || first.results[..] != valid.results[..first.results.len()]
    {
        return Err(format!("results are not a prefix: {:?}", first.results));
    }
    if first.traces.len() > valid.traces.len()
        || first.traces[..] != valid.traces[..first.traces.len()]
    {
        return Err(format!("{} traces are not a prefix", first.traces.len()));
    }
    if first.skipped == 0 {
        for (name, bytes) in SEGMENTS.iter().zip(files) {
            let now = std::fs::read(dir.join(name)).map_err(|e| e.to_string())?;
            if !bytes.is_empty() && now != *bytes {
                return Err(format!("{name} was repaired but nothing was counted"));
            }
        }
    }
    let second = open(&dir)?;
    if second.skipped != 0 {
        return Err(format!("reopening skipped {} records", second.skipped));
    }
    if second.results != first.results || second.traces != first.traces {
        return Err("reopening changed the records".to_string());
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(first)
}

/// `len` random bytes, half the time opened by a record header (a kind
/// byte and a random length) so the garbage reaches the length and
/// checksum checks, not only the kind check.
fn garbage(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(len + 5);
    if rng.next_below(2) == 0 {
        bytes.push(1 + rng.next_below(2) as u8);
        bytes.extend_from_slice(&(rng.next_u64() as u32).to_le_bytes());
    }
    bytes.extend((0..len).map(|_| rng.next_u64() as u8));
    bytes
}

#[test]
fn the_valid_store_opens_whole() {
    let valid = valid();
    let snapshot = open_checked("whole", &valid.files).unwrap();
    assert_eq!(snapshot.skipped, 0);
    assert_eq!(snapshot.results, valid.results);
    assert_eq!(snapshot.traces, valid.traces);
}

proptest! {
    // Every case writes and opens a store on disk twice.
    #![proptest_config(ProptestConfig::with_cases(128))]
    /// One to eight bytes of one segment XORed with non-zero masks: the
    /// header check or a record checksum always catches it.
    #[test]
    fn byte_flips_are_counted_and_repaired(seed in 0u64..u64::MAX) {
        let mut rng = SplitMix64::new(seed);
        let mut files = valid().files.clone();
        let file = &mut files[rng.next_below(2) as usize];
        for _ in 0..1 + rng.next_below(8) {
            let at = rng.next_below(file.len() as u64) as usize;
            file[at] ^= 1 + rng.next_below(255) as u8;
        }
        let snapshot = open_checked("flips", &files)?;
        prop_assert!(snapshot.skipped > 0, "a flip went uncounted");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Each segment cut to a random prefix, the empty one included.
    #[test]
    fn truncations_are_counted_and_repaired(seed in 0u64..u64::MAX) {
        let mut rng = SplitMix64::new(seed);
        let files = valid().files.clone().map(|mut file| {
            if rng.next_below(3) != 0 {
                file.truncate(rng.next_below(file.len() as u64 + 1) as usize);
            }
            file
        });
        open_checked("cuts", &files)?;
    }

    /// Garbage after a valid segment, or in place of one.
    #[test]
    fn garbage_is_counted_and_repaired(seed in 0u64..u64::MAX, len in 0usize..64) {
        let mut rng = SplitMix64::new(seed);
        let mut files = valid().files.clone();
        let file = &mut files[rng.next_below(2) as usize];
        let tail = garbage(&mut rng, len);
        let bare = rng.next_below(4) == 0;
        if bare {
            *file = tail.clone();
        } else {
            file.extend_from_slice(&tail);
        }
        let snapshot = open_checked("garbage", &files)?;
        prop_assert!(tail.is_empty() || snapshot.skipped > 0, "garbage went uncounted");
    }
}
