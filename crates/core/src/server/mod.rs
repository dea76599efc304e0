//! Sweep-as-a-service: the `distfront-sweepd` daemon.
//!
//! Every one-shot CLI invocation throws away state that could outlive
//! it: its results and its [`TraceStore`] die with the process, so a
//! second run of the same grid re-solves every cell and re-records every
//! trace. This module keeps them alive: a [`SweepDaemon`] is a
//! long-running TCP service holding one process-wide [`JobEnv`] plus a
//! content-addressed [`ResultCache`], so a resubmitted job is served
//! from stored frames without re-solving a single cell, and a *novel*
//! job can replay the traces earlier jobs recorded. Warm starts are not
//! kept: every cell solves its own in a few hundredths of a millisecond.
//!
//! # Architecture
//!
//! ```text
//!  client ──JOB──▶ connection thread ──▶ fingerprint ──▶ ResultCache ──hit──▶ replay frames
//!                                              │ miss
//!                                              ▼
//!                      interactive queue   deferrable queue
//!                            │                   │
//!                      run-ahead executor   queued executor ──▶ JobEnv (traces)
//!                            └───── frames ──────┘
//!                                  │
//!                         stream to client + insert into ResultCache
//! ```
//!
//! One thread per connection parses [`protocol`] commands; jobs are
//! classified by their [`JobClass`] onto two executors — the
//! *interactive* executor runs ahead (a bulk grid never delays a
//! latency-sensitive probe), the *deferrable* executor drains bulk jobs
//! in submission order. Both executors share the daemon's [`JobEnv`],
//! which is the whole point: it is the state worth keeping alive.
//! Connections are **pipelined**: a thread queues a `JOB` and goes back
//! to reading, so any number of jobs from one connection can be in
//! flight; every job-scoped frame carries a `job=<n>` sequence id (see
//! [`protocol`]) so responses demultiplex.
//!
//! # Persistence
//!
//! [`SweepDaemon::bind_persistent`] adds a [`DurableStore`] under a
//! state directory: the [`ResultCache`] and the env's
//! [`TraceStore`] load from it on startup and
//! append each novel result/recording back to it. An executor makes the
//! batch durable (`fsync`) **before** the job's terminal frame is sent —
//! the insert-batch boundary — so any result a client has seen
//! acknowledged survives a kill at any instant. A daemon restarted on
//! the same `--state-dir` therefore serves a resubmitted job from disk,
//! byte-identical to its previous life's response.
//!
//! The daemon follows the CLI's no-registry discipline: plain std TCP on
//! a loopback address, newline-delimited text frames, debuggable with
//! `nc`. Shutdown is a protocol command (`SHUTDOWN`), not a signal —
//! std-only Rust cannot trap SIGTERM, so the contract is: `SHUTDOWN`
//! drains the executors, flushes the store and exits 0; SIGTERM just
//! kills the process, which is *still* safe with a state dir, because
//! durability rides the insert-batch boundary above, not the exit path —
//! at worst the store misses results whose `DONE` no client ever saw.
//!
//! # Examples
//!
//! ```
//! use distfront::job::JobSpec;
//! use distfront::server::{Client, SweepDaemon};
//!
//! let handle = SweepDaemon::bind("127.0.0.1:0").unwrap().spawn();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let spec = JobSpec::scenario("baseline").with_smoke(true).with_uops(20_000);
//! let first = client.submit(&spec).unwrap();
//! let second = client.submit(&spec).unwrap();
//! assert!(!first.cached && second.cached);
//! assert_eq!(first.result_lines, second.result_lines); // byte-identical
//! client.shutdown().unwrap();
//! handle.join().unwrap();
//! ```

pub mod cache;
pub mod protocol;

pub use cache::ResultCache;
pub use protocol::Command;

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use crate::engine::TraceStore;
use crate::job::{JobClass, JobEnv, JobSpec, StatusCode};
use crate::store::DurableStore;

/// One job waiting on an executor.
struct QueuedJob {
    spec: JobSpec,
    fingerprint: u64,
    class: JobClass,
    /// The submitting connection's sequence id for this job — stamped
    /// onto every frame the executor sends for it.
    job_id: u64,
    /// Writer half of the submitting connection (reads happen on a
    /// separate clone); the executor streams frames through it.
    writer: Arc<Mutex<TcpStream>>,
}

/// A class's submission queue. The mutex also arbitrates shutdown:
/// [`push`](Self::push) refuses once the flag is up, and the flag is
/// raised under the lock, so an accepted job is always drained.
struct WorkQueue {
    state: Mutex<(VecDeque<QueuedJob>, bool)>,
    cv: Condvar,
}

impl WorkQueue {
    fn new() -> Self {
        WorkQueue {
            state: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
        }
    }

    /// Enqueues a job unless the daemon is shutting down.
    fn push(&self, job: QueuedJob) -> Result<(), QueuedJob> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.1 {
            return Err(job);
        }
        state.0.push_back(job);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` means shutdown *and* drained.
    fn pop(&self) -> Option<QueuedJob> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(job) = state.0.pop_front() {
                return Some(job);
            }
            if state.1 {
                return None;
            }
            state = self.cv.wait(state).expect("queue poisoned");
        }
    }

    fn close(&self) {
        self.state.lock().expect("queue poisoned").1 = true;
        self.cv.notify_all();
    }
}

/// Daemon state shared by the acceptor, connection threads and
/// executors.
struct DaemonState {
    addr: SocketAddr,
    env: JobEnv,
    results: ResultCache,
    /// The persistence layer behind `results` and the env's trace store,
    /// when the daemon was bound with a state dir — the daemon holds it
    /// for the flush boundaries and the `STATS` persisted counts.
    store: Option<Arc<DurableStore>>,
    /// Indexed by [`class_index`].
    queues: [WorkQueue; 2],
    shutdown: AtomicBool,
    jobs: AtomicU64,
    executed: AtomicU64,
}

fn class_index(class: JobClass) -> usize {
    match class {
        JobClass::Interactive => 0,
        JobClass::Deferrable => 1,
    }
}

/// A bound-but-not-yet-running sweep daemon.
pub struct SweepDaemon {
    listener: TcpListener,
    state: Arc<DaemonState>,
}

impl std::fmt::Debug for SweepDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepDaemon")
            .field("addr", &self.state.addr)
            .finish()
    }
}

impl SweepDaemon {
    /// Binds the daemon to `addr` (use port 0 for an ephemeral port;
    /// loopback strongly recommended — the protocol has no
    /// authentication).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<SweepDaemon> {
        Self::build(addr, JobEnv::default(), ResultCache::new(), None)
    }

    /// [`bind`](Self::bind) plus a [`DurableStore`] under `state_dir`:
    /// the result cache and trace store load whatever a previous daemon
    /// life persisted there (repairing damaged segment tails, never
    /// failing on them) and append every novel result and recording
    /// back, so a restart serves byte-identical disk cache hits.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure and genuine store I/O errors
    /// (permissions, disk full) — but not store *corruption*, which is
    /// repaired and logged instead.
    pub fn bind_persistent(
        addr: impl ToSocketAddrs,
        state_dir: impl AsRef<Path>,
    ) -> io::Result<SweepDaemon> {
        let (store, snapshot) = DurableStore::open(state_dir)?;
        let store = Arc::new(store);
        println!(
            "[sweepd] state dir {}: loaded {} results, {} traces ({} records skipped)",
            store.dir().display(),
            snapshot.results.len(),
            snapshot.traces.len(),
            snapshot.skipped,
        );
        let results = ResultCache::persistent(Arc::clone(&store), snapshot.results);
        let env = JobEnv {
            traces: Arc::new(TraceStore::persistent(Arc::clone(&store), snapshot.traces)),
        };
        Self::build(addr, env, results, Some(store))
    }

    fn build(
        addr: impl ToSocketAddrs,
        env: JobEnv,
        results: ResultCache,
        store: Option<Arc<DurableStore>>,
    ) -> io::Result<SweepDaemon> {
        let listener = TcpListener::bind(addr)?;
        let state = Arc::new(DaemonState {
            addr: listener.local_addr()?,
            env,
            results,
            store,
            queues: [WorkQueue::new(), WorkQueue::new()],
            shutdown: AtomicBool::new(false),
            jobs: AtomicU64::new(0),
            executed: AtomicU64::new(0),
        });
        Ok(SweepDaemon { listener, state })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Serves until a `SHUTDOWN` command arrives, then drains both
    /// executors and returns. Blocks the calling thread; see
    /// [`spawn`](Self::spawn) for the background form.
    ///
    /// # Errors
    ///
    /// Returns accept-loop I/O errors; per-connection errors only end
    /// their own connection.
    pub fn run(self) -> io::Result<()> {
        let executors: Vec<_> = [JobClass::Interactive, JobClass::Deferrable]
            .into_iter()
            .map(|class| {
                let state = Arc::clone(&self.state);
                thread::spawn(move || executor_loop(&state, class))
            })
            .collect();
        println!("[sweepd] listening on {}", self.state.addr);
        for stream in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    let state = Arc::clone(&self.state);
                    // Connection threads are detached: joining them would
                    // hang shutdown on any idle client still connected.
                    // Executors (below) are joined — accepted jobs drain.
                    thread::spawn(move || handle_connection(&state, stream));
                }
                Err(e) => eprintln!("[sweepd] accept failed: {e}"),
            }
        }
        for queue in &self.state.queues {
            queue.close();
        }
        for executor in executors {
            let _ = executor.join();
        }
        // Belt-and-braces: every executor already flushed at its last
        // batch boundary, but `SHUTDOWN` promises a settled store.
        if let Some(store) = &self.state.store {
            store.flush()?;
            println!(
                "[sweepd] state dir {}: {} results, {} traces persisted",
                store.dir().display(),
                store.persisted_results(),
                store.persisted_traces(),
            );
        }
        println!(
            "[sweepd] shutdown: {} jobs, {} executed, {} cache hits",
            self.state.jobs.load(Ordering::Relaxed),
            self.state.executed.load(Ordering::Relaxed),
            self.state.results.hits(),
        );
        Ok(())
    }

    /// Runs the daemon on a background thread, returning a handle with
    /// the bound address — the in-process form the integration tests and
    /// doctests use.
    pub fn spawn(self) -> DaemonHandle {
        let addr = self.state.addr;
        let thread = thread::spawn(move || self.run());
        DaemonHandle { addr, thread }
    }
}

/// A running background daemon (see [`SweepDaemon::spawn`]).
#[derive(Debug)]
pub struct DaemonHandle {
    addr: SocketAddr,
    thread: thread::JoinHandle<io::Result<()>>,
}

impl DaemonHandle {
    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the daemon to exit (something must have sent
    /// `SHUTDOWN`, e.g. [`Client::shutdown`]).
    ///
    /// # Errors
    ///
    /// Returns the daemon's exit error, or an [`io::Error`] if its
    /// thread panicked.
    pub fn join(self) -> io::Result<()> {
        self.thread
            .join()
            .map_err(|_| io::Error::other("daemon thread panicked"))?
    }
}

/// The executor loop for one job class: pop, execute, cache, persist,
/// stream — until shutdown *and* drained.
fn executor_loop(state: &DaemonState, class: JobClass) {
    let queue = &state.queues[class_index(class)];
    while let Some(job) = queue.pop() {
        state.executed.fetch_add(1, Ordering::Relaxed);
        let progress_writer = Arc::clone(&job.writer);
        let job_id = job.job_id;
        let outcome = job.spec.execute(&state.env, move |cell| {
            // Advisory, completion-order; a lost client must not kill
            // the solve (its result is still worth caching).
            let _ = write_line(&progress_writer, &protocol::progress_frame(job_id, cell));
        });
        match outcome {
            Ok(report) => {
                let frames = protocol::result_frames(&report);
                // Insert *and make durable* before streaming: this is
                // the insert-batch boundary — once the submitter has
                // seen DONE, a resubmission is guaranteed a cache hit,
                // in the next daemon life as much as in this one.
                state.results.insert(job.fingerprint, frames.clone());
                if let Some(store) = &state.store {
                    if let Err(e) = store.flush() {
                        eprintln!("[sweepd] store flush failed: {e}");
                    }
                }
                send_result_frames(&job.writer, job.job_id, &frames, false);
            }
            Err(e) => {
                // Unreachable in practice — the connection thread
                // fingerprinted (hence resolved) the spec before
                // enqueueing — but a protocol error beats a panic.
                let _ = write_line(
                    &job.writer,
                    &protocol::job_err_frame(job.job_id, StatusCode::Usage, &e.to_string()),
                );
            }
        }
    }
}

/// Writes one frame line in a single write; errors mean the client is
/// gone.
fn write_line(writer: &Arc<Mutex<TcpStream>>, line: &str) -> io::Result<()> {
    let mut stream = writer.lock().expect("writer poisoned");
    stream.write_all(format!("{line}\n").as_bytes())
}

/// Streams a job's stored result frames: each line picks up the
/// connection's `job=` tag, and the terminal `DONE` additionally the
/// `cached=` token (the only bytes that may differ between a fresh run
/// and a replay — the stored frames themselves are connection-free).
/// The whole batch goes out in one write under the writer lock, so
/// concurrent executors can never interleave two jobs' result batches on
/// a pipelined connection.
fn send_result_frames(writer: &Arc<Mutex<TcpStream>>, job: u64, frames: &[String], cached: bool) {
    let mut batch = String::new();
    for frame in frames {
        let line = if frame.starts_with("DONE ") {
            format!("{frame} cached={}", u8::from(cached))
        } else {
            frame.clone()
        };
        batch.push_str(&protocol::tag_frame(job, &line));
        batch.push('\n');
    }
    let mut stream = writer.lock().expect("writer poisoned");
    // An error means the client is gone; there is no one to tell.
    let _ = stream.write_all(batch.as_bytes());
}

/// Serves one connection until EOF, error, an over-long line, or
/// `SHUTDOWN`.
fn handle_connection(state: &DaemonState, stream: TcpStream) {
    // Frames are small and each is one write: send them at once rather
    // than holding them back for the peer's delayed ACK.
    let mut reader = match stream.set_nodelay(true).and_then(|()| stream.try_clone()) {
        Ok(read_half) => BufReader::new(read_half),
        Err(e) => {
            eprintln!("[sweepd] connection setup failed: {e}");
            return;
        }
    };
    let writer = Arc::new(Mutex::new(stream));
    // The connection's job sequence: monotonic from 0 in JOB order —
    // the ids that tag every job-scoped frame (see the protocol docs).
    let mut next_job: u64 = 0;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // At most MAX_LINE_BYTES per line, so a client that never sends
        // a newline cannot grow this buffer without bound.
        match (&mut reader)
            .take(protocol::MAX_LINE_BYTES)
            .read_until(b'\n', &mut buf)
        {
            Ok(0) | Err(_) => return, // EOF or client gone
            Ok(n) if n as u64 == protocol::MAX_LINE_BYTES && !buf.ends_with(b"\n") => {
                let msg = format!("request line exceeds {} bytes", protocol::MAX_LINE_BYTES);
                let _ = write_line(&writer, &protocol::err_frame(StatusCode::Usage, &msg));
                // Close now, even while an executor still holds the
                // writer for an in-flight job of this connection.
                let _ = reader.get_ref().shutdown(Shutdown::Both);
                return;
            }
            Ok(_) => {}
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            return; // not a UTF-8 client
        };
        let line = line.strip_suffix('\n').unwrap_or(line);
        let line = line.strip_suffix('\r').unwrap_or(line);
        if line.trim().is_empty() {
            continue;
        }
        let command = match Command::parse(line) {
            Ok(command) => command,
            Err((status, msg)) => {
                if write_line(&writer, &protocol::err_frame(status, &msg)).is_err() {
                    return;
                }
                continue;
            }
        };
        match command {
            Command::Ping => {
                if write_line(&writer, "PONG").is_err() {
                    return;
                }
            }
            Command::Stats => {
                if write_line(&writer, &stats_frame(state)).is_err() {
                    return;
                }
            }
            Command::Shutdown => {
                let _ = write_line(&writer, "BYE");
                initiate_shutdown(state);
                return;
            }
            Command::Job(spec) => {
                let job_id = next_job;
                next_job += 1;
                if !handle_job(state, &writer, spec, job_id) {
                    return;
                }
            }
        }
    }
}

/// Handles one `JOB` submission: acknowledge, serve from cache or
/// enqueue — never blocking on execution, so the connection thread goes
/// straight back to reading and the connection pipelines. Returns
/// `false` when the connection is dead and its thread should exit.
fn handle_job(
    state: &DaemonState,
    writer: &Arc<Mutex<TcpStream>>,
    spec: JobSpec,
    job_id: u64,
) -> bool {
    state.jobs.fetch_add(1, Ordering::Relaxed);
    let fingerprint = match spec.fingerprint() {
        Ok(fingerprint) => fingerprint,
        Err(e) => {
            return write_line(
                writer,
                &protocol::job_err_frame(job_id, StatusCode::Usage, &e.to_string()),
            )
            .is_ok();
        }
    };
    if write_line(
        writer,
        &protocol::queued_frame(job_id, fingerprint, spec.class),
    )
    .is_err()
    {
        return false;
    }
    if let Some(frames) = state.results.lookup(fingerprint) {
        let source = if state.results.from_disk(fingerprint) {
            "disk cache hit"
        } else {
            "cache hit"
        };
        println!(
            "[sweepd] {source} fp={fingerprint:016x} class={} ({} frames replayed)",
            spec.class,
            frames.len()
        );
        send_result_frames(writer, job_id, &frames, true);
        return true;
    }
    println!("[sweepd] job fp={fingerprint:016x} class={}", spec.class);
    let job = QueuedJob {
        fingerprint,
        writer: Arc::clone(writer),
        job_id,
        class: spec.class,
        spec,
    };
    let queue = &state.queues[class_index(job.class)];
    if queue.push(job).is_err() {
        return write_line(
            writer,
            &protocol::job_err_frame(job_id, StatusCode::Io, "daemon is shutting down"),
        )
        .is_ok();
    }
    true
}

/// Raises the shutdown flag, closes both queues, and unblocks the
/// accept loop with a throwaway self-connection.
fn initiate_shutdown(state: &DaemonState) {
    state.shutdown.store(true, Ordering::SeqCst);
    for queue in &state.queues {
        queue.close();
    }
    let _ = TcpStream::connect(state.addr);
}

/// The `STATS` response frame. The persisted counts are 0 for a daemon
/// without a state dir (nothing is, and nothing will be).
fn stats_frame(state: &DaemonState) -> String {
    let (persisted_results, persisted_traces) = state
        .store
        .as_ref()
        .map_or((0, 0), |s| (s.persisted_results(), s.persisted_traces()));
    format!(
        "STATS jobs={} executed={} result_hits={} result_entries={} traces={} persisted_results={persisted_results} persisted_traces={persisted_traces}",
        state.jobs.load(Ordering::Relaxed),
        state.executed.load(Ordering::Relaxed),
        state.results.hits(),
        state.results.len(),
        state.env.traces.len(),
    )
}

/// Daemon counters, parsed from a `STATS` frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// `JOB` submissions accepted (hits and misses alike).
    pub jobs: u64,
    /// Jobs actually executed (cache misses).
    pub executed: u64,
    /// Result-cache hits.
    pub result_hits: u64,
    /// Distinct results stored.
    pub result_entries: u64,
    /// Recorded traces stored.
    pub traces: u64,
    /// Result records persisted in the state dir (0 without one).
    pub persisted_results: u64,
    /// Trace records persisted in the state dir (0 without one).
    pub persisted_traces: u64,
}

impl DaemonStats {
    /// Parses a `STATS` frame.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] for anything else.
    pub fn parse(frame: &str) -> io::Result<DaemonStats> {
        let bad = || {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad STATS frame {frame:?}"),
            )
        };
        let mut stats = DaemonStats::default();
        let rest = frame.strip_prefix("STATS ").ok_or_else(bad)?;
        for token in rest.split_ascii_whitespace() {
            let (key, value) = token.split_once('=').ok_or_else(bad)?;
            let value: u64 = value.parse().map_err(|_| bad())?;
            match key {
                "jobs" => stats.jobs = value,
                "executed" => stats.executed = value,
                "result_hits" => stats.result_hits = value,
                "result_entries" => stats.result_entries = value,
                "traces" => stats.traces = value,
                "persisted_results" => stats.persisted_results = value,
                "persisted_traces" => stats.persisted_traces = value,
                _ => return Err(bad()),
            }
        }
        Ok(stats)
    }
}

/// One completed `JOB` exchange, as seen by a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResponse {
    /// The job's terminal status (from `DONE` or `ERR`).
    pub status: StatusCode,
    /// Whether the daemon served stored frames (`DONE … cached=1`).
    pub cached: bool,
    /// Total cells in the grid.
    pub cells: usize,
    /// Cells that failed.
    pub failed: usize,
    /// CSV rows from `CELL` frames, canonical grid order (no header).
    pub csv_rows: Vec<String>,
    /// The result frames verbatim — `CELL`/`ERRCELL` lines plus the
    /// `DONE` line with its run-specific `cached=` token stripped. Two
    /// responses to the same spec compare equal here whatever the worker
    /// count, job class, or cache state: this is the byte-identity
    /// surface.
    pub result_lines: Vec<String>,
    /// The `ERR` message, when the job never ran.
    pub error: Option<String>,
}

impl JobResponse {
    /// The accumulator a job's frames fold into.
    fn pending() -> JobResponse {
        JobResponse {
            status: StatusCode::Io,
            cached: false,
            cells: 0,
            failed: 0,
            csv_rows: Vec::new(),
            result_lines: Vec::new(),
            error: None,
        }
    }

    /// The response a job's complete result frames describe — the lines
    /// [`protocol::result_frames`] writes, a state directory stores and a
    /// shard worker stores for its slice — parsed exactly as a live `JOB`
    /// exchange's frames are. Every `Ok` has one result line per cell
    /// plus the `DONE` line.
    ///
    /// # Errors
    ///
    /// Rejects malformed and unknown frames, a `DONE` whose counts
    /// disagree with the frames before it, and a frame list that does
    /// not end in exactly one terminal `DONE` frame (stored results never
    /// hold an `ERR`).
    pub fn from_frames(frames: &[String]) -> io::Result<JobResponse> {
        let mut response = JobResponse::pending();
        for (i, frame) in frames.iter().enumerate() {
            if response.apply_frame(frame)? {
                if i + 1 == frames.len() && response.error.is_none() {
                    return Ok(response);
                }
                break;
            }
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "result frames do not end in exactly one terminal DONE frame",
        ))
    }

    /// The failed cells, in frame order, as `(label, app, message)`: the
    /// fields of each `ERRCELL` frame, as
    /// [`JobReport::failure_lines`](crate::job::JobReport::failure_lines)
    /// yields them for the job that wrote the frames.
    pub fn failures(&self) -> impl Iterator<Item = (String, String, String)> + '_ {
        self.result_lines
            .iter()
            .filter_map(|line| line.strip_prefix("ERRCELL "))
            .map(|err| {
                let mut parts = err.splitn(3, ' ');
                let mut part = || parts.next().unwrap_or_default().to_string();
                (part(), part(), part())
            })
    }

    /// Folds one already-untagged result frame in; `true` means the
    /// frame was terminal (`DONE`/`ERR`) and the response is complete.
    ///
    /// # Errors
    ///
    /// Rejects malformed and unknown frames, and a `DONE` whose `cells=`
    /// differs from the `CELL`+`ERRCELL` frames before it or whose
    /// `failed=` differs from the `ERRCELL` frames.
    fn apply_frame(&mut self, line: &str) -> io::Result<bool> {
        let bad = || io::Error::new(io::ErrorKind::InvalidData, format!("bad frame {line:?}"));
        if let Some(row) = line.strip_prefix("CELL ") {
            self.csv_rows.push(row.to_string());
            self.result_lines.push(line.to_string());
        } else if line.starts_with("ERRCELL ") {
            self.result_lines.push(line.to_string());
        } else if let Some(rest) = line.strip_prefix("DONE ") {
            let mut done_line = String::from("DONE");
            for token in rest.split_ascii_whitespace() {
                let (key, value) = token.split_once('=').ok_or_else(bad)?;
                match key {
                    "status" => {
                        let code = value.parse::<u8>().map_err(|_| bad())?;
                        self.status = StatusCode::from_code(code).ok_or_else(bad)?;
                    }
                    "cells" => self.cells = value.parse().map_err(|_| bad())?,
                    "failed" => self.failed = value.parse().map_err(|_| bad())?,
                    "cached" => self.cached = value == "1",
                    _ => return Err(bad()),
                }
                if key != "cached" {
                    done_line.push(' ');
                    done_line.push_str(token);
                }
            }
            if self.result_lines.len() != self.cells
                || self.csv_rows.len() + self.failed != self.cells
            {
                return Err(bad());
            }
            self.result_lines.push(done_line);
            return Ok(true);
        } else if let Some(rest) = line.strip_prefix("ERR ") {
            let (code, msg) = rest.split_once(' ').unwrap_or((rest, ""));
            let code = code.parse::<u8>().map_err(|_| bad())?;
            self.status = StatusCode::from_code(code).ok_or_else(bad)?;
            self.error = Some(msg.to_string());
            return Ok(true);
        } else {
            return Err(bad());
        }
        Ok(false)
    }
}

/// A client connection to a running daemon — what `--connect` and the
/// integration tests drive.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    /// Mirror of the daemon's per-connection job sequence counter: the
    /// id the *next* `JOB` sent on this connection will be tagged with.
    next_job: u64,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream),
            next_job: 0,
        })
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        self.reader
            .get_mut()
            .write_all(format!("{line}\n").as_bytes())
    }

    fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        while line.ends_with(['\n', '\r']) {
            line.pop();
        }
        Ok(line)
    }

    /// Submits a job and blocks until its terminal frame, discarding
    /// progress.
    ///
    /// # Errors
    ///
    /// Returns I/O errors and malformed frames; a job that *ran* and
    /// failed is an `Ok` response with a non-[`Ok`](StatusCode::Ok)
    /// status.
    pub fn submit(&mut self, spec: &JobSpec) -> io::Result<JobResponse> {
        self.submit_streaming(spec, |_| {})
    }

    /// [`submit`](Self::submit) with a frame callback: `on_frame` sees
    /// every `PROGRESS` line as it arrives (completion order).
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn submit_streaming(
        &mut self,
        spec: &JobSpec,
        mut on_frame: impl FnMut(&str),
    ) -> io::Result<JobResponse> {
        self.send(&Command::Job(spec.clone()).encode())?;
        self.next_job += 1;
        let mut response = JobResponse::pending();
        loop {
            let raw = self.recv()?;
            // One job in flight: the tag is informational, strip it.
            let (_, line) = protocol::split_job_tag(&raw);
            if line.starts_with("QUEUED ") {
                continue;
            } else if line.starts_with("PROGRESS ") {
                on_frame(&line);
            } else if response.apply_frame(&line)? {
                return Ok(response);
            }
        }
    }

    /// Submits every spec back-to-back on the pipelined connection —
    /// the daemon starts (or cache-serves) them all without waiting —
    /// then demultiplexes the interleaved frames by their `job=` tags.
    /// Responses come back in submission order, each exactly what
    /// [`submit`](Self::submit) would have returned.
    ///
    /// # Errors
    ///
    /// I/O errors, malformed frames, and any *untagged* `ERR` (a
    /// connection-level failure that cannot be attributed to one job)
    /// fail the whole batch.
    pub fn submit_batch(&mut self, specs: &[JobSpec]) -> io::Result<Vec<JobResponse>> {
        let base = self.next_job;
        for spec in specs {
            self.send(&Command::Job(spec.clone()).encode())?;
            self.next_job += 1;
        }
        let mut responses = vec![JobResponse::pending(); specs.len()];
        let mut terminal = vec![false; specs.len()];
        let mut outstanding = specs.len();
        while outstanding > 0 {
            let raw = self.recv()?;
            let (tag, line) = protocol::split_job_tag(&raw);
            let idx = tag
                .and_then(|id| id.checked_sub(base))
                .map(|i| i as usize)
                .filter(|i| *i < specs.len())
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("frame outside the batch: {raw:?}"),
                    )
                })?;
            if line.starts_with("QUEUED ") || line.starts_with("PROGRESS ") {
                continue;
            }
            if responses[idx].apply_frame(&line)? && !std::mem::replace(&mut terminal[idx], true) {
                outstanding -= 1;
            }
        }
        Ok(responses)
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Fails if the daemon is unreachable or answers anything but
    /// `PONG`.
    pub fn ping(&mut self) -> io::Result<()> {
        self.send("PING")?;
        match self.recv()?.as_str() {
            "PONG" => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected PONG, got {other:?}"),
            )),
        }
    }

    /// Fetches the daemon's counters.
    ///
    /// # Errors
    ///
    /// Propagates I/O and frame-parse failures.
    pub fn stats(&mut self) -> io::Result<DaemonStats> {
        self.send("STATS")?;
        let line = self.recv()?;
        DaemonStats::parse(&line)
    }

    /// Asks the daemon to drain and exit; consumes the client (the
    /// connection is closed by the exchange).
    ///
    /// # Errors
    ///
    /// Fails if the daemon does not acknowledge with `BYE`.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.send("SHUTDOWN")?;
        match self.recv()?.as_str() {
            "BYE" => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected BYE, got {other:?}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(lines: &[&str]) -> Vec<String> {
        lines.iter().map(|l| l.to_string()).collect()
    }

    #[test]
    fn stored_frames_parse_like_a_live_exchange() {
        let stored = frames(&[
            "CELL baseline,gzip,1",
            "ERRCELL baseline mcf warm start diverged",
            "DONE status=2 cells=2 failed=1",
        ]);
        let response = JobResponse::from_frames(&stored).unwrap();
        assert_eq!(response.status, StatusCode::CellsFailed);
        assert_eq!((response.cells, response.failed), (2, 1));
        assert!(!response.cached);
        assert_eq!(response.csv_rows, vec!["baseline,gzip,1".to_string()]);
        assert_eq!(response.result_lines, stored);
        assert_eq!(response.error, None);
        let failures: Vec<_> = response.failures().collect();
        assert_eq!(
            failures,
            vec![(
                "baseline".to_string(),
                "mcf".to_string(),
                "warm start diverged".to_string()
            )]
        );
    }

    #[test]
    fn stored_frames_must_end_in_one_terminal_frame() {
        for bad in [
            frames(&[]),
            frames(&["CELL baseline,gzip,1"]),
            frames(&["DONE status=0 cells=0 failed=0", "CELL baseline,gzip,1"]),
            frames(&["CELL baseline,gzip,1", "DONE status=0 cells=1 bogus=1"]),
            frames(&["NOPE", "DONE status=0 cells=0 failed=0"]),
            frames(&["ERR 64 unknown scenario"]),
            // DONE's counts must match the frames before it.
            frames(&["CELL a", "DONE status=0 cells=2 failed=0"]),
            frames(&["CELL a", "DONE status=2 cells=1 failed=1"]),
            frames(&["ERRCELL a b c", "DONE status=2 cells=1 failed=0"]),
        ] {
            assert!(JobResponse::from_frames(&bad).is_err(), "{bad:?}");
        }
    }
}
