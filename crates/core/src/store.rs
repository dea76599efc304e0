//! Crash-safe persistence for the daemon's caches: append-only segment
//! files under a `--state-dir`, built on [`distfront_trace::codec`].
//!
//! The store owns every byte `distfront-sweepd` keeps across restarts:
//! the [`ResultCache`]'s fingerprint → frame batches and the
//! [`TraceStore`]'s `.dft` blobs. Both live in one
//! directory as two segment files:
//!
//! ```text
//! <state-dir>/
//!   results.dfsg   fingerprint → protocol frames, one record per job
//!   traces.dfsg    recorded activity traces, one `.dft` payload each
//! ```
//!
//! # Segment format (`DFSG` v1)
//!
//! A segment starts with the shared magic + version header (`DFSG`,
//! little-endian `u32` version) and is followed by self-delimiting
//! records, each:
//!
//! | field | encoding |
//! |---|---|
//! | kind | `u8` — 1 result, 2 trace |
//! | length | `u32` payload byte count |
//! | payload | `length` bytes |
//! | checksum | `u64` FNV-1a over kind + payload |
//!
//! A result payload is `u64` fingerprint, `u32` frame count, then
//! length-prefixed frame strings (strictly, with no trailing bytes). A
//! trace payload is the `.dft` stream exactly as
//! [`ActivityTrace::encode`] produces it — so the trace format's own
//! version policy applies on load, and a segment written by an older
//! binary still decodes as long as the trace reader accepts its version.
//!
//! # Crash safety
//!
//! Appends go through one file handle per segment and become durable at
//! [`DurableStore::flush`] (an `fsync`), which the daemon calls at every
//! insert-batch boundary *before* acknowledging the work — so a `SIGKILL`
//! can lose at most frames never acknowledged to a client. On open, a
//! segment is scanned strictly: a truncated or checksum-corrupt tail
//! (the signature of a crash mid-append) is **repaired, not fatal** — the
//! valid prefix is rewritten via write-temp + rename + directory `fsync`,
//! the damaged records are counted in [`StoreSnapshot::skipped`], and the
//! segment reopens for appending. A file that is not a `DFSG` segment at
//! all, or carries an unknown store version, is set aside the same way
//! (fresh header, everything skipped) rather than poisoning startup.
//!
//! What invalidates stored *results* is the job fingerprint itself: it
//! seeds in the trace crate's fingerprint version, so a bump that changes
//! result bytes strands old records (they stay on disk, unreferenced)
//! instead of serving stale bytes. Stored *traces* are invalidated only by
//! the trace reader refusing their version: a v3 trace is counted in
//! [`StoreSnapshot::skipped`] and its cell runs live.
//!
//! [`ResultCache`]: crate::server::ResultCache
//! [`TraceStore`]: crate::engine::TraceStore

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use distfront_trace::codec::{CodecError, Reader, Writer};
use distfront_trace::ActivityTrace;

/// Magic bytes opening every segment file ("DistFront SeGment").
pub const STORE_MAGIC: [u8; 4] = *b"DFSG";

/// Current segment-container version. Bumped only when the record
/// framing itself changes; payload evolution rides the payloads' own
/// version policies.
pub const STORE_FORMAT_VERSION: u32 = 1;

/// Record kind: a cached job result (fingerprint + protocol frames).
const KIND_RESULT: u8 = 1;
/// Record kind: a recorded activity trace (`.dft` payload).
const KIND_TRACE: u8 = 2;

/// Bytes of framing around a record payload: kind + length + checksum.
const RECORD_OVERHEAD: usize = 1 + 4 + 8;

/// FNV-1a over the record kind and payload — the per-record integrity
/// check. Deliberately *not* the trace crate's seeded [`Fingerprint`],
/// whose seed shifts with its fingerprint version: segment integrity
/// must not depend on what the payloads mean.
///
/// [`Fingerprint`]: distfront_trace::Fingerprint
fn record_checksum(kind: u8, payload: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = (FNV_OFFSET ^ u64::from(kind)).wrapping_mul(FNV_PRIME);
    for &b in payload {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// One append-only segment file: a locked append handle plus the count
/// of framing-valid records it holds.
#[derive(Debug)]
struct Segment {
    kind: u8,
    path: PathBuf,
    file: Mutex<File>,
    records: AtomicU64,
}

/// What a strict scan of a segment's bytes found.
struct Scan {
    /// Payloads of checksum-valid records of the segment's kind, in
    /// append order.
    payloads: Vec<Vec<u8>>,
    /// Checksum-valid records carrying an unexpected kind byte (kept on
    /// disk — the framing is sound — but not surfaced).
    foreign: usize,
    /// Byte length of the valid prefix (header + whole valid records).
    valid_len: usize,
    /// Whether the magic + version header itself was usable.
    header_ok: bool,
    /// Records (or tails) dropped as truncated or corrupt.
    skipped: usize,
}

/// Scans `bytes` as a segment of `kind` records, stopping at the first
/// framing violation: everything after a bad record is untrustworthy
/// (record boundaries are only known by walking), so the scan keeps the
/// valid prefix and counts the rest as one skipped tail.
fn scan_segment(bytes: &[u8], kind: u8) -> Scan {
    let mut scan = Scan {
        payloads: Vec::new(),
        foreign: 0,
        valid_len: 0,
        header_ok: false,
        skipped: 0,
    };
    let mut r = Reader::new(bytes);
    match r.header(&STORE_MAGIC, "segment magic") {
        Ok(STORE_FORMAT_VERSION) => {}
        Ok(_) | Err(_) => {
            if !bytes.is_empty() {
                scan.skipped = 1;
            }
            return scan;
        }
    }
    scan.header_ok = true;
    scan.valid_len = bytes.len() - r.remaining();
    while r.remaining() > 0 {
        let record = (|| -> Result<(u8, &[u8]), CodecError> {
            let k = r.u8("record kind")?;
            let len = r.u32("record length")? as usize;
            let payload = r.take(len, "record payload")?;
            let sum = r.u64("record checksum")?;
            if sum != record_checksum(k, payload) {
                return Err(CodecError::Corrupt("record checksum"));
            }
            Ok((k, payload))
        })();
        match record {
            Ok((k, payload)) => {
                if k == kind {
                    scan.payloads.push(payload.to_vec());
                } else {
                    scan.foreign += 1;
                }
                scan.valid_len = bytes.len() - r.remaining();
            }
            Err(_) => {
                scan.skipped += 1;
                break;
            }
        }
    }
    scan
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// `fsync`, rename over the target, then a best-effort directory `fsync`
/// so the rename itself is durable.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("dfsg.tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

impl Segment {
    /// Opens (creating or repairing as needed) `dir/name` as a segment
    /// of `kind` records. Returns the segment ready for appends, the
    /// surviving payloads in append order, and how many records or tails
    /// were dropped as damaged.
    fn open(dir: &Path, name: &str, kind: u8) -> io::Result<(Segment, Vec<Vec<u8>>, usize)> {
        let path = dir.join(name);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let scan = scan_segment(&bytes, kind);
        if scan.valid_len != bytes.len() || bytes.is_empty() {
            // Crash tail, foreign garbage, or a brand-new segment: make
            // the on-disk file exactly the valid prefix before taking an
            // append handle, so the next crash scan starts clean.
            let repaired = if scan.header_ok {
                bytes[..scan.valid_len].to_vec()
            } else {
                let mut w = Writer::with_capacity(8);
                w.header(&STORE_MAGIC, STORE_FORMAT_VERSION);
                w.into_vec()
            };
            write_atomic(&path, &repaired)?;
        }
        let file = OpenOptions::new().append(true).open(&path)?;
        let segment = Segment {
            kind,
            path,
            file: Mutex::new(file),
            records: AtomicU64::new((scan.payloads.len() + scan.foreign) as u64),
        };
        Ok((segment, scan.payloads, scan.skipped))
    }

    /// Appends one framed record. Buffered in the OS until
    /// [`Segment::flush`]; a record is only considered persisted once
    /// the flush after it succeeds.
    fn append(&self, payload: &[u8]) -> io::Result<()> {
        let mut w = Writer::with_capacity(RECORD_OVERHEAD + payload.len());
        w.u8(self.kind);
        w.u32(payload.len() as u32);
        w.bytes(payload);
        w.u64(record_checksum(self.kind, payload));
        let bytes = w.into_vec();
        let mut file = self.file.lock().expect("segment file poisoned");
        file.write_all(&bytes)?;
        self.records.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// `fsync`s the segment file.
    fn flush(&self) -> io::Result<()> {
        self.file.lock().expect("segment file poisoned").sync_all()
    }
}

/// Everything a [`DurableStore`] recovered from disk on open, ready to
/// seed the in-memory caches. Entries appear in append order, so a
/// consumer folding them into a map naturally keeps the newest record
/// for a key (last-wins).
#[derive(Debug, Default)]
pub struct StoreSnapshot {
    /// Cached job results: fingerprint → the protocol frames the daemon
    /// streamed for that job (replayed verbatim on a hit).
    pub results: Vec<(u64, Vec<String>)>,
    /// Recorded activity traces, decoded under the current trace reader.
    pub traces: Vec<ActivityTrace>,
    /// Records dropped while loading: damaged framing (repaired away) or
    /// payloads the current readers refuse (left on disk, unreferenced).
    pub skipped: usize,
}

impl StoreSnapshot {
    /// The newest result record for `fingerprint`, honoring the
    /// last-wins append order. This is how a shard coordinator reads a
    /// worker's result artifact back, under the job fingerprint folded
    /// with the shard's range: a record exists exactly when the worker
    /// completed its append (segment records are atomic), so `None`
    /// means the worker died before finishing or ran another partition.
    pub fn last_result(&self, fingerprint: u64) -> Option<&[String]> {
        self.results
            .iter()
            .rev()
            .find(|(fp, _)| *fp == fingerprint)
            .map(|(_, frames)| frames.as_slice())
    }
}

/// The append-only persistence layer behind a daemon's `--state-dir`:
/// one segment file for cached results, one for recorded traces.
///
/// Thread-safe: appends from concurrent executors serialize on
/// per-segment locks. Durability is explicit — call
/// [`flush`](Self::flush) at the batch boundary that must survive a
/// crash (the daemon does this before acknowledging any job).
#[derive(Debug)]
pub struct DurableStore {
    results: Segment,
    traces: Segment,
}

impl DurableStore {
    /// Opens (creating if absent, repairing if damaged) the store under
    /// `dir` and returns it alongside everything it held.
    ///
    /// # Errors
    ///
    /// Only genuine I/O failures (permissions, disk full) are errors;
    /// truncated or corrupt segment *content* is repaired and reported
    /// through [`StoreSnapshot::skipped`] instead.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<(DurableStore, StoreSnapshot)> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let (results, result_payloads, mut skipped) =
            Segment::open(dir, "results.dfsg", KIND_RESULT)?;
        let (traces, trace_payloads, trace_skipped) =
            Segment::open(dir, "traces.dfsg", KIND_TRACE)?;
        skipped += trace_skipped;

        let mut snapshot = StoreSnapshot {
            skipped,
            ..StoreSnapshot::default()
        };
        for payload in &result_payloads {
            match decode_result(payload) {
                Ok(entry) => snapshot.results.push(entry),
                Err(_) => snapshot.skipped += 1,
            }
        }
        for payload in &trace_payloads {
            match ActivityTrace::decode(payload) {
                Ok(trace) => snapshot.traces.push(trace),
                Err(_) => snapshot.skipped += 1,
            }
        }
        Ok((DurableStore { results, traces }, snapshot))
    }

    /// Appends one cached job result (not yet durable — see
    /// [`flush`](Self::flush)).
    ///
    /// # Errors
    ///
    /// Propagates the underlying write failure.
    pub fn append_result(&self, fingerprint: u64, frames: &[String]) -> io::Result<()> {
        self.results.append(&encode_result(fingerprint, frames))
    }

    /// Appends one recorded trace as its `.dft` bytes (not yet durable —
    /// see [`flush`](Self::flush)).
    ///
    /// # Errors
    ///
    /// Propagates the underlying write failure.
    pub fn append_trace(&self, trace: &ActivityTrace) -> io::Result<()> {
        self.traces.append(&trace.encode())
    }

    /// `fsync`s both segments: everything appended so far survives any
    /// crash after this returns.
    ///
    /// # Errors
    ///
    /// Propagates the first failing `fsync`.
    pub fn flush(&self) -> io::Result<()> {
        self.results.flush()?;
        self.traces.flush()
    }

    /// Result records currently persisted (loaded + appended).
    pub fn persisted_results(&self) -> u64 {
        self.results.records.load(Ordering::Relaxed)
    }

    /// Trace records currently persisted (loaded + appended).
    pub fn persisted_traces(&self) -> u64 {
        self.traces.records.load(Ordering::Relaxed)
    }

    /// The directory holding the segment files.
    pub fn dir(&self) -> &Path {
        self.results
            .path
            .parent()
            .expect("segment path always has a parent")
    }
}

/// Encodes a result record payload: fingerprint, frame count, frames.
fn encode_result(fingerprint: u64, frames: &[String]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(fingerprint);
    w.u32(frames.len() as u32);
    for frame in frames {
        w.str(frame);
    }
    w.into_vec()
}

/// Decodes a result record payload, strictly.
fn decode_result(payload: &[u8]) -> Result<(u64, Vec<String>), CodecError> {
    let mut r = Reader::new(payload);
    let fingerprint = r.u64("result fingerprint")?;
    let count = r.u32("result frame count")? as usize;
    let mut frames = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        frames.push(r.str("result frame")?);
    }
    r.expect_end()?;
    Ok((fingerprint, frames))
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfront_trace::record::PointKey;
    use distfront_trace::{FinalStats, IntervalRecord, TraceMeta, TraceShape};

    /// A fresh scratch directory unique to `name` and this process.
    fn scratch_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("distfront-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_trace() -> ActivityTrace {
        let shape = TraceShape {
            partitions: 1,
            backends: 1,
            tc_banks: 1,
        };
        let flat = shape.flat_len();
        ActivityTrace {
            meta: TraceMeta {
                version: distfront_trace::record::TRACE_FORMAT_VERSION,
                workload: "wl".to_string(),
                config: "cfg".to_string(),
                processor_fingerprint: 0x1234,
                seed: 42,
                uops_per_app: 100,
                pilot_uops: 25,
                interval_cycles: 50,
                shape,
                hop: false,
                replay_safe: true,
                dtm: None,
                points: vec![PointKey::Nominal],
            },
            pilot: vec![7; flat],
            intervals: vec![IntervalRecord {
                counters: vec![3; flat],
                done: true,
                point: PointKey::Nominal,
                bank_temp_bits: Vec::new(),
                gated_bank: None,
            }],
            finals: FinalStats {
                cycles: 20,
                uops: 10,
                tc_hit_rate: 0.5,
                mispredict_rate: 0.25,
            },
        }
    }

    fn result_file(dir: &Path) -> PathBuf {
        dir.join("results.dfsg")
    }

    #[test]
    fn empty_then_round_trip() {
        let dir = scratch_dir("roundtrip");
        let (store, snapshot) = DurableStore::open(&dir).unwrap();
        assert!(snapshot.results.is_empty());
        assert!(snapshot.traces.is_empty());
        assert_eq!(snapshot.skipped, 0);

        let frames = vec!["CELL a,b,c".to_string(), "DONE status=0".to_string()];
        store.append_result(0xfeed_beef, &frames).unwrap();
        store.append_trace(&tiny_trace()).unwrap();
        store.flush().unwrap();
        assert_eq!(store.persisted_results(), 1);
        assert_eq!(store.persisted_traces(), 1);
        drop(store);

        let (store, snapshot) = DurableStore::open(&dir).unwrap();
        assert_eq!(snapshot.results, vec![(0xfeed_beef, frames)]);
        assert_eq!(snapshot.traces.len(), 1);
        assert_eq!(snapshot.traces[0], tiny_trace());
        assert_eq!(snapshot.skipped, 0);
        assert_eq!(store.persisted_results(), 1);
        assert_eq!(store.persisted_traces(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_keeps_append_order_for_last_wins() {
        let dir = scratch_dir("lastwins");
        let (store, _) = DurableStore::open(&dir).unwrap();
        store.append_result(1, &["DONE status=0".into()]).unwrap();
        store.append_result(1, &["DONE status=2".into()]).unwrap();
        store.flush().unwrap();
        drop(store);

        let (_, snapshot) = DurableStore::open(&dir).unwrap();
        let map: std::collections::HashMap<_, _> = snapshot.results.into_iter().collect();
        assert_eq!(map[&1], vec!["DONE status=2".to_string()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_is_repaired_not_fatal() {
        let dir = scratch_dir("truncated");
        let (store, _) = DurableStore::open(&dir).unwrap();
        store.append_result(1, &["DONE status=0".into()]).unwrap();
        store.append_result(2, &["DONE status=0".into()]).unwrap();
        store.flush().unwrap();
        drop(store);

        // Chop into the middle of the second record — a crash mid-append.
        let path = result_file(&dir);
        let len = fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 5).unwrap();
        drop(file);

        let (store, snapshot) = DurableStore::open(&dir).unwrap();
        assert_eq!(snapshot.results.len(), 1);
        assert_eq!(snapshot.results[0].0, 1);
        assert_eq!(snapshot.skipped, 1);
        // The tail is gone from disk too (header + the one whole
        // record), and appends keep working.
        let record = RECORD_OVERHEAD + encode_result(1, &["DONE status=0".into()]).len();
        assert_eq!(fs::metadata(&path).unwrap().len() as usize, 8 + record);
        store.append_result(3, &["DONE status=0".into()]).unwrap();
        store.flush().unwrap();
        drop(store);
        let (_, snapshot) = DurableStore::open(&dir).unwrap();
        let fps: Vec<u64> = snapshot.results.iter().map(|(fp, _)| *fp).collect();
        assert_eq!(fps, vec![1, 3]);
        assert_eq!(snapshot.skipped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_drops_the_tail_only() {
        let dir = scratch_dir("corrupt");
        let (store, _) = DurableStore::open(&dir).unwrap();
        store.append_result(1, &["DONE status=0".into()]).unwrap();
        store.append_result(2, &["DONE status=0".into()]).unwrap();
        store.flush().unwrap();
        drop(store);

        // Flip one payload byte inside the second record: its checksum
        // fails, and everything from there on is untrustworthy.
        let path = result_file(&dir);
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 12] ^= 0xff;
        fs::write(&path, &bytes).unwrap();

        let (_, snapshot) = DurableStore::open(&dir).unwrap();
        assert_eq!(snapshot.results.len(), 1);
        assert_eq!(snapshot.results[0].0, 1);
        assert_eq!(snapshot.skipped, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_file_is_set_aside_not_fatal() {
        let dir = scratch_dir("foreign");
        fs::create_dir_all(&dir).unwrap();
        fs::write(result_file(&dir), b"not a segment at all").unwrap();

        let (store, snapshot) = DurableStore::open(&dir).unwrap();
        assert!(snapshot.results.is_empty());
        assert_eq!(snapshot.skipped, 1);
        store.append_result(9, &["DONE status=0".into()]).unwrap();
        store.flush().unwrap();
        drop(store);
        let (_, snapshot) = DurableStore::open(&dir).unwrap();
        assert_eq!(snapshot.results.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_store_version_is_set_aside() {
        let dir = scratch_dir("version");
        fs::create_dir_all(&dir).unwrap();
        let mut w = Writer::new();
        w.header(&STORE_MAGIC, STORE_FORMAT_VERSION + 1);
        w.u64(0xdead);
        fs::write(result_file(&dir), w.into_vec()).unwrap();

        let (_, snapshot) = DurableStore::open(&dir).unwrap();
        assert!(snapshot.results.is_empty());
        assert_eq!(snapshot.skipped, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_covers_the_kind_byte() {
        assert_ne!(record_checksum(1, &[2, 3]), record_checksum(2, &[2, 3]));
        assert_ne!(record_checksum(1, &[]), record_checksum(2, &[]));
    }
}
