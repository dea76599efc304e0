//! Multi-process sweep sharding: a coordinator that splits one job's
//! cells across N worker *processes* on the same host and merges their
//! results back into a report byte-identical to a serial run.
//!
//! # Why processes
//!
//! The thread-pool executor in [`SweepRunner`](crate::engine::SweepRunner)
//! already parallelizes a job, but every cell shares one address space —
//! one allocator, one trace store, one set of page tables. Sharding
//! across OS processes is the only way to measure real multi-core
//! contention (the sweep bench's serial vs threads vs processes
//! head-to-head), and it lifts PR 4's fault-isolation contract from cell
//! granularity to process granularity: a worker that dies mid-cell — OOM
//! kill, SIGKILL, a crash in native code — cannot poison the cells of any
//! other shard.
//!
//! # Protocol
//!
//! Everything moves through artifacts in one shared state directory;
//! there are no pipes or sockets to lose data in when a worker dies:
//!
//! ```text
//! <dir>/
//!   shard-000.job      work order: one JobSpec line (workers=1)
//!   shard-000/         the shard's DurableStore
//!     results.dfsg       ... holding one record of CELL/ERRCELL/DONE frames
//!   shard-000.kill     test hook: present => worker aborts unpersisted
//!   shard-001.job      ...
//! ```
//!
//! The coordinator ([`ShardRunner`]) partitions the job's flat cell list
//! (every row's workloads, rows concatenated; see
//! [`ResolvedJob`](crate::job::ResolvedJob)) into contiguous ranges
//! ([`partition`]), writes
//! one `.job` file per shard, and launches one worker per shard not yet
//! done (`distfront-scenarios --shard i/N --shard-dir <dir>`). Each worker
//! ([`run_worker`]) computes only its range via
//! [`SweepRunner::try_cells`](crate::engine::SweepRunner::try_cells) and
//! persists the result frames of its slice — the `CELL`/`ERRCELL` lines
//! and terminal `DONE` that
//! [`result_frames`](crate::server::protocol::result_frames) writes for a
//! whole job — as **one atomic record** in its own [`DurableStore`]
//! segment. The record's key is the job's content fingerprint folded
//! with the shard's range, so a record another partition left behind
//! (even one of equal length) is never found. DFSG records are
//! checksummed and indivisible, so the record *exists* iff the worker
//! finished — a worker killed mid-write leaves a repairable tail, not a
//! half-result — and the validity check is simply "the record under my
//! key parses through [`JobResponse::from_frames`] and its `DONE` counts
//! the range's cells". The coordinator accepts an artifact by that rule.
//! It also reads every shard's artifact before the first launch, so a
//! rerun on the same directory answers each shard already done from its
//! stored record and launches no worker for it.
//!
//! Invalid or missing artifacts get the shard re-queued with bounded
//! retries; a shard still failing after its last retry is reported in
//! [`ShardOutcome::failed_shards`] with status
//! [`StatusCode::ShardFailed`], and every *surviving* shard is still
//! merged. Ranges are contiguous and ascending, so concatenating the
//! shards' frames in shard order restores canonical row order — the
//! merged CSV rows and failure lines are byte-identical to
//! [`JobSpec::execute`] run serially, whatever order shards finished or
//! retried in.

use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use distfront_trace::Fingerprint;

use crate::job::{JobEnv, JobSpec, JobSpecError, StatusCode};
use crate::server::protocol::cell_frames;
use crate::server::JobResponse;
use crate::store::DurableStore;

/// Splits `cells` flat cell indices into exactly `shards` contiguous
/// ranges that cover `0..cells` with no gap and no overlap. Sizes
/// differ by at most one, larger ranges first; with more shards than
/// cells the tail ranges are empty.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn partition(cells: usize, shards: usize) -> Vec<Range<usize>> {
    assert!(shards > 0, "cannot partition into zero shards");
    let base = cells / shards;
    let extra = cells % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// One worker's identity in a sharded run: shard `index` of `of`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This worker's shard number (zero-based).
    pub index: usize,
    /// Total shard count.
    pub of: usize,
}

impl ShardSpec {
    /// Parses the CLI form `i/N` (e.g. `--shard 1/3`).
    ///
    /// # Errors
    ///
    /// Returns a usage message for malformed input, `N == 0`, or
    /// `i >= N`.
    pub fn parse(s: &str) -> Result<ShardSpec, String> {
        let (index, of) = s
            .split_once('/')
            .ok_or_else(|| format!("bad shard {s:?} (expected i/N, e.g. 1/3)"))?;
        let index: usize = index
            .parse()
            .map_err(|_| format!("bad shard index in {s:?}"))?;
        let of: usize = of
            .parse()
            .map_err(|_| format!("bad shard count in {s:?}"))?;
        if of == 0 {
            return Err("shard count must be positive".to_string());
        }
        if index >= of {
            return Err(format!("shard index {index} out of range for {of} shards"));
        }
        Ok(ShardSpec { index, of })
    }

    /// The contiguous flat-index range this shard owns in a job of
    /// `cells` total cells — [`partition`]'s `index`-th range.
    pub fn range(&self, cells: usize) -> Range<usize> {
        partition(cells, self.of).swap_remove(self.index)
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.of)
    }
}

fn job_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("shard-{index:03}.job"))
}

fn store_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("shard-{index:03}"))
}

fn kill_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("shard-{index:03}.kill"))
}

/// The key a shard's record is stored under: the job's content
/// fingerprint folded with the shard's range. The range, not only its
/// length: with 5 cells, shard 1 of 2 owns `3..5` and shard 1 of 3 owns
/// `2..4`, both 2 cells long.
fn record_key(fingerprint: u64, range: &Range<usize>) -> u64 {
    Fingerprint::new()
        .with_u64(fingerprint)
        .with_u64(range.start as u64)
        .with_u64(range.end as u64)
        .finish()
}

/// Runs one shard worker to completion: reads the work order
/// `shard-<i>.job` under `dir`, computes the shard's index range, and
/// persists the result record into `shard-<i>/`. This is the body of
/// `distfront-scenarios --shard i/N --shard-dir <dir>`. The worker
/// always computes and appends: the coordinator launches it only for a
/// shard without a valid record, so reruns do not grow the store.
///
/// If a `shard-<i>.kill` marker is present the worker removes it, does
/// the work, then aborts **before persisting**, running no destructors
/// and flushing no buffers — a deterministic stand-in for an OOM kill
/// mid-shard that the fault-injection tests and the CI gate use to
/// exercise the coordinator's re-queue path (the removed marker makes the
/// retry succeed).
///
/// Returns the exit status for the process: per-cell failures are
/// [`StatusCode::CellsFailed`] (the record is still complete — the
/// coordinator treats the shard as done), unreadable or malformed work
/// orders are [`StatusCode::Usage`], and persistence failures are
/// [`StatusCode::Io`].
pub fn run_worker(dir: &Path, shard: ShardSpec) -> StatusCode {
    let path = job_path(dir, shard.index);
    let line = match std::fs::read_to_string(&path) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("shard {shard}: cannot read {}: {e}", path.display());
            return StatusCode::Io;
        }
    };
    let spec = match JobSpec::parse_line(line.trim()) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("shard {shard}: bad work order: {e}");
            return StatusCode::Usage;
        }
    };
    let (fingerprint, resolved) = match spec
        .fingerprint()
        .and_then(|fp| spec.resolve().map(|r| (fp, r)))
    {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("shard {shard}: unresolvable work order: {e}");
            return StatusCode::Usage;
        }
    };
    let range = shard.range(resolved.workloads.len());
    let key = record_key(fingerprint, &range);
    let store = match DurableStore::open(store_path(dir, shard.index)) {
        Ok((store, _)) => store,
        Err(e) => {
            eprintln!("shard {shard}: cannot open shard store: {e}");
            return StatusCode::Io;
        }
    };

    // Arm the kill hook *before* computing so a retry (which sees no
    // marker) runs the exact same work unperturbed.
    let kill = kill_path(dir, shard.index);
    let die_before_persist = kill.exists() && std::fs::remove_file(&kill).is_ok();

    let cells = crate::engine::SweepRunner::from_spec(&spec, &JobEnv::default())
        .try_cells(&resolved.rows(), range);

    if die_before_persist {
        // Dies by SIGABRT: like SIGKILL it runs no destructors and
        // flushes no buffers, exactly the mid-shard death the coordinator
        // must survive. Re-queueing keys on the missing artifact, not on
        // the signal.
        std::process::abort();
    }

    let frames = cell_frames(&resolved.labels, &cells);
    let status = if cells.iter().any(|cell| cell.result.is_err()) {
        StatusCode::CellsFailed
    } else {
        StatusCode::Ok
    };

    if let Err(e) = store
        .append_result(key, &frames)
        .and_then(|()| store.flush())
    {
        eprintln!("shard {shard}: cannot persist result: {e}");
        return StatusCode::Io;
    }
    status
}

/// Why a sharded run could not even start (once workers are launched,
/// failures become re-queues and [`ShardOutcome::failed_shards`], never
/// an `Err`).
#[derive(Debug)]
pub enum ShardError {
    /// The job spec does not validate or resolve.
    Spec(JobSpecError),
    /// The shared state directory or a work order could not be written.
    Io(io::Error),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Spec(e) => write!(f, "{e}"),
            ShardError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<JobSpecError> for ShardError {
    fn from(e: JobSpecError) -> Self {
        ShardError::Spec(e)
    }
}

impl From<io::Error> for ShardError {
    fn from(e: io::Error) -> Self {
        ShardError::Io(e)
    }
}

/// What a sharded run produced, merged across every surviving shard.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// The merged response: every surviving shard's `CELL`/`ERRCELL`
    /// frames concatenated in shard order, then one `DONE` whose status
    /// is [`StatusCode::ShardFailed`] if any shard died permanently,
    /// else [`StatusCode::CellsFailed`] if any cell failed, else
    /// [`StatusCode::Ok`]. Its cell frames are byte-identical to those
    /// of the same spec run in one process.
    pub response: JobResponse,
    /// The merged response's CSV rows.
    pub csv_rows: Vec<String>,
    /// Worker launches per shard: 0 = answered from its stored record (a
    /// rerun on the same directory), 1 = a clean run.
    pub attempts: Vec<usize>,
    /// Shards that failed permanently after exhausting retries.
    pub failed_shards: Vec<usize>,
    /// Total cells in the job.
    pub cells: usize,
    /// Cells actually merged (`== cells` iff no shard died).
    pub merged: usize,
}

/// The coordinator: partitions a [`JobSpec`]'s cells, drives worker
/// processes, re-queues failures, and merges the shard artifacts.
#[derive(Debug)]
pub struct ShardRunner {
    spec: JobSpec,
    processes: usize,
    retries: usize,
    dir: Option<PathBuf>,
    worker: Option<PathBuf>,
}

impl ShardRunner {
    /// A coordinator for `spec` across `processes` worker processes.
    ///
    /// # Panics
    ///
    /// Panics if `processes` is zero.
    pub fn new(spec: JobSpec, processes: usize) -> ShardRunner {
        assert!(processes > 0, "need at least one worker process");
        ShardRunner {
            spec,
            processes,
            retries: 2,
            dir: None,
            worker: None,
        }
    }

    /// Sets how many times a failed shard is re-queued before being
    /// declared dead (default 2, i.e. up to three launches per shard).
    #[must_use]
    pub fn with_retries(mut self, retries: usize) -> Self {
        self.retries = retries;
        self
    }

    /// Sets the shared state directory (default: a per-process path
    /// under the system temp dir). The directory and its artifacts are
    /// left in place after the run — they *are* the audit trail.
    #[must_use]
    pub fn with_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }

    /// Sets the worker binary to launch (default: this executable —
    /// correct when the coordinator *is* `distfront-scenarios`; tests
    /// and benches point this at the built binary explicitly).
    #[must_use]
    pub fn with_worker(mut self, worker: impl Into<PathBuf>) -> Self {
        self.worker = Some(worker.into());
        self
    }

    /// Runs the sharded sweep to completion and merges the artifacts.
    ///
    /// # Errors
    ///
    /// Only setup can fail: an invalid spec, or I/O writing the state
    /// directory and work orders. Worker deaths are handled by re-queue
    /// and surface in [`ShardOutcome::failed_shards`].
    pub fn run(&self) -> Result<ShardOutcome, ShardError> {
        let fingerprint = self.spec.fingerprint()?;
        let cells = self.spec.resolve()?.workloads.len();
        let n = self.processes;
        let ranges = partition(cells, n);

        let dir = match &self.dir {
            Some(dir) => dir.clone(),
            None => std::env::temp_dir().join(format!("distfront-shard-{}", std::process::id())),
        };
        let worker = match &self.worker {
            Some(path) => path.clone(),
            None => std::env::current_exe()?,
        };
        std::fs::create_dir_all(&dir)?;
        // Ship each worker the same job at workers=1 — scheduling knobs
        // are excluded from the fingerprint, so the shipped spec's
        // content address still matches `fingerprint` above, and the
        // processes themselves are the parallelism.
        let mut order = self.spec.clone().with_workers(1).encode_line();
        order.push('\n');
        for i in 0..n {
            std::fs::write(job_path(&dir, i), &order)?;
        }

        // A shard already done (a rerun on the same directory) is
        // answered from its stored record and launches no worker.
        let mut completed: Vec<Option<JobResponse>> = ranges
            .iter()
            .enumerate()
            .map(|(i, range)| {
                read_artifact(&dir, i, record_key(fingerprint, range), range.len()).ok()
            })
            .collect();
        let mut pending: Vec<usize> = (0..n).filter(|&i| completed[i].is_none()).collect();
        let mut attempts = vec![0usize; n];
        let mut failed_shards = Vec::new();
        while !pending.is_empty() {
            // Launch the whole wave before waiting on any of it, so
            // shards genuinely run concurrently.
            let wave: Vec<(usize, io::Result<Child>)> = pending
                .iter()
                .map(|&i| (i, self.spawn(&worker, &dir, i, n)))
                .collect();
            let mut requeue = Vec::new();
            for (i, child) in wave {
                attempts[i] += 1;
                let exit = describe_exit(child);
                // A valid record trumps the exit code: a worker that
                // exited `cells-failed` still finished its shard, and
                // per-cell errors are outcomes, not crashes.
                let key = record_key(fingerprint, &ranges[i]);
                match read_artifact(&dir, i, key, ranges[i].len()) {
                    Ok(response) => completed[i] = Some(response),
                    Err(reason) if attempts[i] > self.retries => {
                        eprintln!(
                            "shard {i}/{n}: {exit}; {reason}; giving up after {} attempts",
                            attempts[i]
                        );
                        failed_shards.push(i);
                    }
                    Err(reason) => {
                        eprintln!(
                            "shard {i}/{n}: {exit}; {reason}; re-queuing (attempt {} of {})",
                            attempts[i],
                            self.retries + 1
                        );
                        requeue.push(i);
                    }
                }
            }
            pending = requeue;
        }

        // Merge: ranges are contiguous and ascending, so the shards'
        // frames concatenated in shard order are in canonical row order.
        let lost = !failed_shards.is_empty();
        let response = JobResponse::concat(completed.into_iter().flatten(), lost);
        Ok(ShardOutcome {
            csv_rows: response.csv_rows.clone(),
            merged: response.cells,
            response,
            attempts,
            failed_shards,
            cells,
        })
    }

    fn spawn(&self, worker: &Path, dir: &Path, index: usize, of: usize) -> io::Result<Child> {
        Command::new(worker)
            .arg("--shard")
            .arg(format!("{index}/{of}"))
            .arg("--shard-dir")
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
    }
}

fn describe_exit(child: io::Result<Child>) -> String {
    match child {
        Ok(mut child) => match child.wait() {
            Ok(status) => match status.code() {
                Some(code) => format!("exit {code}"),
                None => "killed by signal".to_string(),
            },
            Err(e) => format!("wait failed: {e}"),
        },
        Err(e) => format!("spawn failed: {e}"),
    }
}

/// Shard `index`'s result record stored under `key`, if it is valid: its
/// frames parse through [`JobResponse::from_frames`] (which checks the
/// `DONE` counts against the frames) and it holds `cells` cells, the
/// length of the shard's range. Anything less is grounds for a launch or
/// a re-queue.
fn read_artifact(dir: &Path, index: usize, key: u64, cells: usize) -> Result<JobResponse, String> {
    let (_, snapshot) = DurableStore::open(store_path(dir, index))
        .map_err(|e| format!("cannot open shard store: {e}"))?;
    let frames = snapshot
        .last_result(key)
        .ok_or_else(|| "no completed result record".to_string())?;
    let response =
        JobResponse::from_frames(frames).map_err(|e| format!("unreadable record: {e}"))?;
    if response.cells != cells {
        return Err(format!(
            "record holds {} cells for a {cells}-cell range",
            response.cells
        ));
    }
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_exactly_once_and_balances() {
        assert_eq!(partition(10, 3), vec![0..4, 4..7, 7..10]);
        assert_eq!(partition(6, 3), vec![0..2, 2..4, 4..6]);
        assert_eq!(partition(2, 4), vec![0..1, 1..2, 2..2, 2..2]);
        assert_eq!(partition(0, 2), vec![0..0, 0..0]);
        let ranges = partition(52, 7);
        assert_eq!(ranges.len(), 7);
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges.last().unwrap().end, 52);
        for pair in ranges.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
    }

    #[test]
    fn shard_spec_parses_the_cli_form() {
        let spec = ShardSpec::parse("1/3").unwrap();
        assert_eq!(spec, ShardSpec { index: 1, of: 3 });
        assert_eq!(spec.to_string(), "1/3");
        assert_eq!(spec.range(10), 4..7);
        assert!(ShardSpec::parse("3/3").is_err());
        assert!(ShardSpec::parse("0/0").is_err());
        assert!(ShardSpec::parse("x/2").is_err());
        assert!(ShardSpec::parse("2").is_err());
    }

    #[test]
    fn artifact_validation_rejects_bad_records() {
        let dir = std::env::temp_dir().join(format!(
            "distfront-shard-unit-{}-validation",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (store, _) = DurableStore::open(store_path(&dir, 0)).unwrap();
        let append = |key: u64, frames: &[&str]| {
            let frames: Vec<String> = frames.iter().map(|f| f.to_string()).collect();
            store.append_result(key, &frames).unwrap();
            store.flush().unwrap();
        };
        // With 5 cells, shard 1 of 2 owns 3..5 and shard 1 of 3 owns 2..4.
        let (job, range) = (1, 3..5);
        let key = record_key(job, &range);
        let good = [
            "CELL a,b",
            "ERRCELL lbl app solver diverged",
            "DONE status=2 cells=2 failed=1",
        ];

        // No record at all.
        let err = read_artifact(&dir, 0, key, 2).unwrap_err();
        assert!(err.contains("no completed result record"), "{err}");

        // Another job's complete record stays invisible.
        append(record_key(99, &range), &good);
        let err = read_artifact(&dir, 0, key, 2).unwrap_err();
        assert!(err.contains("no completed result record"), "{err}");

        // So does a complete record for an equal-length other range.
        append(record_key(job, &(2..4)), &good);
        let err = read_artifact(&dir, 0, key, 2).unwrap_err();
        assert!(err.contains("no completed result record"), "{err}");

        // A DONE whose counts disagree with its frames is unreadable.
        append(key, &["CELL a,b", "DONE status=0 cells=2 failed=0"]);
        let err = read_artifact(&dir, 0, key, 2).unwrap_err();
        assert!(err.contains("unreadable record"), "{err}");

        // A consistent record of the wrong length is rejected too.
        append(key, &["CELL a,b", "DONE status=0 cells=1 failed=0"]);
        let err = read_artifact(&dir, 0, key, 2).unwrap_err();
        assert!(err.contains("1 cells for a 2-cell range"), "{err}");

        // A good record: accepted, last-wins over the bad ones.
        append(key, &good);
        let response = read_artifact(&dir, 0, key, 2).unwrap();
        assert_eq!(response.csv_rows, vec!["a,b".to_string()]);
        assert_eq!(response.result_lines, good.map(String::from));
        assert_eq!(response.status, StatusCode::CellsFailed);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
