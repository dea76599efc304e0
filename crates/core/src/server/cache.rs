//! The daemon's content-addressed result cache.
//!
//! Maps a row fingerprint
//! ([`JobSpec::row_fingerprints`](crate::job::JobSpec::row_fingerprints))
//! — which covers every result-affecting input including the `DFAT`
//! trace-format version and the leakage-model bits, and excludes every
//! scheduling knob — to the row's serialized result frames
//! (`CELL`/`ERRCELL`/`DONE` lines in canonical order, see
//! [`protocol::row_frames`](super::protocol::row_frames)). A hit replays
//! the stored lines of every row of the job, concatenated under one
//! `DONE`, which is what makes the cached response byte-identical to the
//! first one: the bytes *are* the first one's.
//!
//! Deterministic failures are results too: a job whose cells all fail
//! (the fault-injection scenario) caches its `ERRCELL` frames like any
//! other outcome — resubmitting it is served without re-solving, with
//! the same per-cell errors and `DONE status=2`. Only jobs that never
//! ran (`ERR` frames: unresolvable spec, unknown name) bypass the cache,
//! since there is no result to address.
//!
//! # Persistence
//!
//! A cache opened through [`ResultCache::persistent`] is backed by a
//! [`DurableStore`]: it starts pre-seeded with every result a previous
//! daemon life persisted (so a restart serves the same bytes), and
//! every [`insert`](ResultCache::insert) of a *new* fingerprint appends
//! the frames to the store. Appends become durable at the daemon's
//! batch boundary ([`DurableStore::flush`] before the terminal frame is
//! sent), not here — the cache only writes. A store I/O failure is
//! logged and degrades the daemon to in-memory service for that entry;
//! it never fails the job.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use super::JobResponse;
use crate::store::DurableStore;

/// Fingerprint-keyed store of serialized result frames, one record per
/// row.
///
/// Concurrency note: lookup and insert are separate operations, so two
/// *concurrent* identical submissions may both execute and both insert —
/// benign, because the engine's bit-identity contract makes their frames
/// equal and the second insert overwrites with identical bytes (and is
/// not re-appended to a backing store). The cache guarantee the daemon
/// advertises is for resubmission: a job whose twin has *completed* is
/// always served stored frames.
#[derive(Debug, Default)]
pub struct ResultCache {
    map: Mutex<HashMap<u64, Arc<Vec<String>>>>,
    /// Fingerprints restored from a previous life's store — what lets
    /// the daemon log a *disk* cache hit distinctly.
    disk: Mutex<HashSet<u64>>,
    store: Option<Arc<DurableStore>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// An empty, in-memory-only cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache backed by `store`, pre-seeded with `loaded` entries from
    /// it (append order; the newest record for a fingerprint wins).
    pub fn persistent(store: Arc<DurableStore>, loaded: Vec<(u64, Vec<String>)>) -> Self {
        let mut map = HashMap::new();
        let mut disk = HashSet::new();
        for (fingerprint, frames) in loaded {
            map.insert(fingerprint, Arc::new(frames));
            disk.insert(fingerprint);
        }
        ResultCache {
            map: Mutex::new(map),
            disk: Mutex::new(disk),
            store: Some(store),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The stored response of a job whose rows have the fingerprints
    /// `rows`: every row's stored frames, concatenated under one `DONE`,
    /// if every row is stored and readable. Counts one hit or one miss,
    /// whatever the row count.
    pub fn lookup(&self, rows: &[u64]) -> Option<JobResponse> {
        let parts: Option<Vec<JobResponse>> = {
            let map = self.map.lock().expect("result cache poisoned");
            rows.iter()
                .map(|row| map.get(row).and_then(|f| JobResponse::from_frames(f).ok()))
                .collect()
        };
        match parts {
            Some(parts) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(JobResponse::concat(parts, false))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Whether this fingerprint's entry was restored from disk rather
    /// than computed in this daemon life.
    pub fn from_disk(&self, fingerprint: u64) -> bool {
        self.disk
            .lock()
            .expect("result cache poisoned")
            .contains(&fingerprint)
    }

    /// Stores a completed row's frames under its fingerprint, appending
    /// them to the backing store (if any) when the fingerprint is new.
    pub fn insert(&self, fingerprint: u64, frames: Vec<String>) {
        let fresh = self
            .map
            .lock()
            .expect("result cache poisoned")
            .insert(fingerprint, Arc::new(frames.clone()))
            .is_none();
        if fresh {
            if let Some(store) = &self.store {
                if let Err(e) = store.append_result(fingerprint, &frames) {
                    eprintln!("[sweepd] result persist failed fp={fingerprint:016x}: {e}");
                }
            }
        }
    }

    /// Distinct results stored.
    pub fn len(&self) -> usize {
        self.map.lock().expect("result cache poisoned").len()
    }

    /// Whether nothing is stored yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Job lookups served from the store.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Job lookups that found a row missing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(lines: &[&str]) -> Vec<String> {
        lines.iter().map(|l| l.to_string()).collect()
    }

    #[test]
    fn caches_and_counts() {
        let cache = ResultCache::new();
        assert!(cache.is_empty());
        assert!(cache.lookup(&[7]).is_none());
        cache.insert(7, frames(&["CELL a", "DONE status=0 cells=1 failed=0"]));
        let response = cache.lookup(&[7]).expect("stored");
        assert_eq!(response.result_lines.len(), 2);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        assert!(cache.lookup(&[8]).is_none());
        assert_eq!(cache.misses(), 2);
        assert!(!cache.from_disk(7));
    }

    #[test]
    fn a_job_is_served_only_when_every_row_is_stored() {
        let cache = ResultCache::new();
        cache.insert(1, frames(&["CELL a,x", "DONE status=0 cells=1 failed=0"]));
        cache.insert(
            2,
            frames(&["ERRCELL b y no", "DONE status=2 cells=1 failed=1"]),
        );
        cache.insert(3, frames(&["CELL c,z", "DONE status=0 cells=2 failed=0"]));
        // Row 3's record is unreadable (its DONE miscounts): a miss.
        assert!(cache.lookup(&[1, 3]).is_none());
        assert!(cache.lookup(&[1, 4]).is_none());
        let job = cache.lookup(&[2, 1]).expect("both rows stored");
        let want = frames(&[
            "ERRCELL b y no",
            "CELL a,x",
            "DONE status=2 cells=2 failed=1",
        ]);
        assert_eq!(job.result_lines, want);
        // One hit or miss per job, whatever its row count.
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn persistent_cache_round_trips_through_the_store() {
        let dir =
            std::env::temp_dir().join(format!("distfront-result-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let (store, snapshot) = DurableStore::open(&dir).unwrap();
        let cache = ResultCache::persistent(Arc::new(store), snapshot.results);
        assert!(cache.is_empty());
        let frames = frames(&["CELL a,b", "DONE status=0 cells=1 failed=0"]);
        cache.insert(42, frames.clone());
        // A re-insert of the same fingerprint must not append again.
        cache.insert(42, frames.clone());
        drop(cache);

        let (store, snapshot) = DurableStore::open(&dir).unwrap();
        assert_eq!(store.persisted_results(), 1);
        let cache = ResultCache::persistent(Arc::new(store), snapshot.results);
        assert_eq!(cache.lookup(&[42]).expect("restored").result_lines, frames);
        assert!(cache.from_disk(42));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
