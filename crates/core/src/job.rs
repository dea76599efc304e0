//! The unified sweep-job API: [`JobSpec`], [`StatusCode`] and the
//! content-address fingerprint shared by every execution front end.
//!
//! A [`JobSpec`] is the one description of "what to run and how": a
//! pure-data, versioned, line-serializable value that every front end
//! constructs — the one-shot CLI (plain, `--state-dir` and `--processes`
//! runs alike), the `distfront-sweepd` daemon protocol, the benches and
//! the test harness. [`JobSpec::execute`] is the execution path behind
//! them: it resolves the target against the registries, builds a runner
//! bound to a [`JobEnv`] with
//! [`SweepRunner::from_spec`](crate::engine::SweepRunner::from_spec) and
//! runs its rows. The front ends differ only in the environment they
//! share across jobs and in where the spec runs; a `--processes` run
//! hands the spec to
//! [`ShardRunner`](crate::shard::ShardRunner), whose workers run slices
//! of the same resolved cell list.
//!
//! A job's target is a list of registry scenario names. Each name is one
//! row: the scenario's configuration over its own workloads, so rows may
//! differ in length (the 26 SPEC applications, 4 with `smoke`, or a
//! scenario's pinned phased workloads). The CLI submits its whole
//! selection as one job.
//!
//! # Wire format and version policy
//!
//! A spec serializes to one line of space-separated `key=value` tokens
//! (no quoting — registry names never contain whitespace, which
//! [`JobSpec::validate`] enforces), opened by a `v=` version token:
//!
//! ```text
//! v=1 kind=scenario name=baseline smoke=1 uops=40000 workers=0 integrator=expm trace=live class=interactive
//! v=1 kind=scenario name=baseline,drc,phased-hot-cold smoke=1 uops=40000 workers=0 integrator=expm trace=live class=interactive
//! ```
//!
//! `name=` holds the row list, comma-separated, each name at most once; a
//! one-name line is the one-scenario line it always was. The `kind=grid`
//! target (`configs=` presets × `apps=` profiles) is retired: no front
//! end sent it, and a line with it is rejected like any unknown kind.
//! Neither change bumps the version. Every `v=1` line that parsed before
//! and still parses means what it meant, and a decoder that predates the
//! list rejects a multi-name line outright (`,` is wire-reserved in a
//! name), so no peer misreads one. A bump would also change every
//! fingerprint, which folds the version, and orphan every stored result.
//!
//! The version follows the trace-format policy (see
//! [`distfront_trace::record`]): [`JOBSPEC_VERSION`] is bumped on any
//! change to the token set or semantics, decoding rejects unknown
//! versions and unknown keys outright, and there is no cross-version
//! migration path — a stale client re-encodes, it never guesses.
//! Scheduling-only keys may default when omitted; result-affecting keys
//! are part of the [fingerprint](JobSpec::fingerprint) either way. A
//! `batch=0|1` token, which older encoders wrote, is still accepted on
//! `v=1` lines and ignored (replay has one schedule), so old `.job`
//! files and client lines keep parsing; any other `batch=` value is
//! rejected.
//!
//! # Content addressing
//!
//! [`JobSpec::fingerprint`] is the key the daemon's result cache dedupes
//! jobs under. It covers exactly the inputs the result bytes are a
//! function of — the scenario names, run length, integrator, and every resolved
//! configuration's content (leakage-model bits included: configurations
//! that differ only in silicon never share a result) — **plus** the trace-format version via the seeded
//! [`Fingerprint`] hasher, and excludes pure scheduling knobs (`workers`,
//! `class`, `trace`), which the engine's bit-identity contract
//! guarantees cannot change a byte of output. A golden-fingerprint test
//! pins the key for a reference scenario so it can never silently change
//! across refactors. Results are stored per row: a row's
//! [fingerprint](JobSpec::row_fingerprints) is the fingerprint of the
//! one-scenario job of that row, and a job of several rows folds its
//! rows' fingerprints, so a selection whose rows were all stored by
//! other jobs is answered from them.

use std::process::ExitCode;
use std::sync::Arc;

use distfront_thermal::Integrator;
use distfront_trace::record::points_id;
use distfront_trace::{Fingerprint, Workload};

use crate::engine::{CellOutcome, SweepReport, SweepRunner, TraceMode, TraceStore};
use crate::experiment::ExperimentConfig;
use crate::scenarios::{self, csv_row, FULL_UOPS, SMOKE_UOPS};

/// Current [`JobSpec`] wire-format version; see the module docs for the
/// policy.
pub const JOBSPEC_VERSION: u32 = 1;

/// One exit/status vocabulary shared by the CLI's process exit codes and
/// the daemon's `DONE`/`ERR` response frames, so client and server can
/// never disagree on what a number means.
///
/// The numeric values are the scenarios CLI's historical exit codes
/// (0/1/2/3/5/64) and are part of the wire format: they are transmitted
/// in `DONE` frames and compared by CI gates, so they must never be
/// renumbered. Code 4 is reserved: it once meant that batched replay
/// diverged from serial replay, and is never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum StatusCode {
    /// Every cell produced a result and every output was written.
    Ok = 0,
    /// `--verify` found the run diverging from a serial live re-run.
    VerifyDiverged = 1,
    /// One or more cells failed; surviving results were still published.
    CellsFailed = 2,
    /// Results were computed but an output or connection failed
    /// (I/O — the invocation was fine, data was lost).
    Io = 3,
    /// A multi-process run lost a whole shard: one of the coordinator's
    /// worker processes kept dying (or kept leaving an invalid result
    /// artifact) until its bounded retries ran out, so the merged report
    /// is missing that shard's cells. Distinct from
    /// [`CellsFailed`](StatusCode::CellsFailed), which means every cell
    /// *ran* and some produced `Err` outcomes — a shard failure means
    /// cells never reported at all.
    ShardFailed = 5,
    /// Command-line or request misuse (BSD `EX_USAGE`; a malformed or
    /// unresolvable [`JobSpec`] maps here).
    Usage = 64,
}

impl StatusCode {
    /// Every status, in ascending code order.
    pub const ALL: [StatusCode; 6] = [
        StatusCode::Ok,
        StatusCode::VerifyDiverged,
        StatusCode::CellsFailed,
        StatusCode::Io,
        StatusCode::ShardFailed,
        StatusCode::Usage,
    ];

    /// The process exit / wire code.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The stable wire name (`ok`, `verify-diverged`, `cells-failed`,
    /// `io`, `shard-failed`, `usage`).
    pub fn name(self) -> &'static str {
        match self {
            StatusCode::Ok => "ok",
            StatusCode::VerifyDiverged => "verify-diverged",
            StatusCode::CellsFailed => "cells-failed",
            StatusCode::Io => "io",
            StatusCode::ShardFailed => "shard-failed",
            StatusCode::Usage => "usage",
        }
    }

    /// Parses a wire code back to the status it names.
    pub fn from_code(code: u8) -> Option<StatusCode> {
        StatusCode::ALL.into_iter().find(|s| s.code() == code)
    }

    /// The more severe of two statuses, for folding per-job statuses into
    /// one process exit: any failure beats [`Ok`](StatusCode::Ok), and
    /// between failures the numerically smaller (more result-specific)
    /// code wins — usage/I-O errors never mask a divergence.
    #[must_use]
    pub fn worst(self, other: StatusCode) -> StatusCode {
        match (self, other) {
            (StatusCode::Ok, s) | (s, StatusCode::Ok) => s,
            (a, b) => {
                if a.code() <= b.code() {
                    a
                } else {
                    b
                }
            }
        }
    }
}

impl std::fmt::Display for StatusCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl From<StatusCode> for ExitCode {
    fn from(s: StatusCode) -> ExitCode {
        ExitCode::from(s.code())
    }
}

/// How a job interacts with the executor's trace store — the pure-data
/// counterpart of [`TraceMode`], which carries live store handles and so
/// cannot go over a wire. The daemon binds these to its process-wide
/// store; the one-shot CLI binds them to a per-invocation store loaded
/// from / saved to a directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceSpec {
    /// Simulate every cell live.
    #[default]
    Live,
    /// Simulate live and record each successful, replay-safe cell into
    /// the executor's trace store.
    Record,
    /// Replay cells from the executor's trace store where a compatible
    /// trace exists; fall back to live simulation otherwise.
    Replay,
}

impl TraceSpec {
    fn name(self) -> &'static str {
        match self {
            TraceSpec::Live => "live",
            TraceSpec::Record => "record",
            TraceSpec::Replay => "replay",
        }
    }

    fn parse(s: &str) -> Option<TraceSpec> {
        match s {
            "live" => Some(TraceSpec::Live),
            "record" => Some(TraceSpec::Record),
            "replay" => Some(TraceSpec::Replay),
            _ => None,
        }
    }

    /// Binds the spec to a concrete store, yielding the engine-level
    /// [`TraceMode`].
    pub fn bind(self, store: &Arc<TraceStore>) -> TraceMode {
        match self {
            TraceSpec::Live => TraceMode::Live,
            TraceSpec::Record => TraceMode::Record(Arc::clone(store)),
            TraceSpec::Replay => TraceMode::Replay(Arc::clone(store)),
        }
    }
}

/// The daemon's two job classes, after the deferrable-vs-realtime split
/// of carbon-aware cluster schedulers: interactive jobs are
/// latency-sensitive and run ahead on their own executor; deferrable
/// jobs (bulk grids) queue behind each other and never delay an
/// interactive submission.
///
/// Purely a scheduling property: the class is excluded from the content
/// fingerprint, so an interactive job is served from a result a
/// deferrable job cached, and vice versa.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobClass {
    /// Latency-sensitive; dispatched to the dedicated run-ahead executor.
    #[default]
    Interactive,
    /// Bulk/batch; queued on the deferrable executor.
    Deferrable,
}

impl JobClass {
    /// The stable wire name (`interactive` / `deferrable`).
    pub fn name(self) -> &'static str {
        match self {
            JobClass::Interactive => "interactive",
            JobClass::Deferrable => "deferrable",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<JobClass> {
        match s {
            "interactive" => Some(JobClass::Interactive),
            "deferrable" => Some(JobClass::Deferrable),
            _ => None,
        }
    }
}

impl std::fmt::Display for JobClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Why a [`JobSpec`] failed to decode, validate or resolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSpecError {
    /// The line's `v=` token names a version this build does not speak.
    UnsupportedVersion(u32),
    /// The line contains a token this version does not define.
    UnknownKey(String),
    /// A token's value failed to parse, with the offending `key=value`.
    BadValue(String),
    /// A required token is missing.
    MissingKey(&'static str),
    /// The spec references a scenario, configuration or application name
    /// the registries do not know.
    UnknownName(String),
    /// A structural invariant failed (empty list, whitespace in a name).
    Invalid(String),
}

impl std::fmt::Display for JobSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobSpecError::UnsupportedVersion(v) => write!(
                f,
                "unsupported jobspec version {v} (this build speaks {JOBSPEC_VERSION})"
            ),
            JobSpecError::UnknownKey(k) => write!(f, "unknown jobspec key {k}"),
            JobSpecError::BadValue(t) => write!(f, "bad jobspec value {t}"),
            JobSpecError::MissingKey(k) => write!(f, "jobspec missing required key {k}"),
            JobSpecError::UnknownName(n) => write!(f, "unknown name {n} (try --list)"),
            JobSpecError::Invalid(msg) => write!(f, "invalid jobspec: {msg}"),
        }
    }
}

impl std::error::Error for JobSpecError {}

/// A complete, serializable description of one sweep job.
///
/// See the [module docs](self) for the wire format, version policy and
/// fingerprint semantics.
///
/// # Examples
///
/// ```
/// use distfront::job::{JobClass, JobSpec};
///
/// let spec = JobSpec::scenario("baseline")
///     .with_smoke(true)
///     .with_uops(30_000)
///     .with_class(JobClass::Deferrable);
/// let line = spec.encode_line();
/// assert_eq!(JobSpec::parse_line(&line).unwrap(), spec);
/// let report = spec.execute(&Default::default(), |_| {}).unwrap();
/// assert!(report.report.is_complete());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Wire-format version ([`JOBSPEC_VERSION`]).
    pub version: u32,
    /// What to run: registry scenario names ([`scenarios::registry`], or
    /// the CLI's `fault-injection` scenario), one row each, in order.
    pub scenarios: Vec<String>,
    /// Smoke-suite selection for scenarios without pinned workloads.
    pub smoke: bool,
    /// Micro-ops per application.
    pub uops: u64,
    /// Sweep worker count; `0` means "every available hardware thread",
    /// resolved by the executor.
    pub workers: usize,
    /// Transient integrator.
    pub integrator: Integrator,
    /// Trace-store interaction.
    pub trace: TraceSpec,
    /// Scheduling class.
    pub class: JobClass,
}

impl JobSpec {
    /// A spec running one registry scenario with the full-suite defaults.
    pub fn scenario(name: impl Into<String>) -> Self {
        Self::scenarios([name])
    }

    /// A spec running registry scenarios as rows of one job, in order,
    /// with the full-suite defaults.
    pub fn scenarios(names: impl IntoIterator<Item = impl Into<String>>) -> Self {
        JobSpec {
            version: JOBSPEC_VERSION,
            scenarios: names.into_iter().map(Into::into).collect(),
            smoke: false,
            uops: FULL_UOPS,
            workers: 0,
            integrator: Integrator::default(),
            trace: TraceSpec::Live,
            class: JobClass::Interactive,
        }
    }

    /// Sets the smoke flag; returns `self` for chaining. Turning smoke on
    /// also shortens a full-length run ([`FULL_UOPS`]) to [`SMOKE_UOPS`].
    #[must_use]
    pub fn with_smoke(mut self, smoke: bool) -> Self {
        self.smoke = smoke;
        if smoke && self.uops == FULL_UOPS {
            self.uops = SMOKE_UOPS;
        }
        self
    }

    /// Sets the run length; returns `self` for chaining.
    #[must_use]
    pub fn with_uops(mut self, uops: u64) -> Self {
        self.uops = uops;
        self
    }

    /// Sets the worker count (`0` = all hardware threads); returns `self`
    /// for chaining.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the integrator; returns `self` for chaining.
    #[must_use]
    pub fn with_integrator(mut self, integrator: Integrator) -> Self {
        self.integrator = integrator;
        self
    }

    /// Does nothing and returns `self`: replay has one schedule, in
    /// which every replay-mode cell is its own task, so there is no
    /// batching left to turn on or off. Kept so callers written against
    /// the old knob still build.
    #[must_use]
    pub fn with_batch(self, _batch: bool) -> Self {
        self
    }

    /// Sets the trace interaction; returns `self` for chaining.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceSpec) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the scheduling class; returns `self` for chaining.
    #[must_use]
    pub fn with_class(mut self, class: JobClass) -> Self {
        self.class = class;
        self
    }

    /// Serializes the spec to its canonical one-line wire form (every
    /// token present, canonical order). `parse_line` inverts this
    /// byte-exactly.
    pub fn encode_line(&self) -> String {
        format!(
            "v={} kind=scenario name={} smoke={} uops={} workers={} integrator={} trace={} class={}",
            self.version,
            self.scenarios.join(","),
            u8::from(self.smoke),
            self.uops,
            self.workers,
            self.integrator,
            self.trace.name(),
            self.class.name(),
        )
    }

    /// Parses a wire line produced by [`encode_line`](Self::encode_line)
    /// (or written by hand: scheduling tokens may be omitted and take
    /// their defaults; `v=`, `kind=` and the target tokens are required).
    /// A `batch=0` or `batch=1` token is accepted and ignored.
    ///
    /// # Errors
    ///
    /// Rejects unknown versions, unknown keys and malformed values
    /// outright — see the module docs' version policy.
    pub fn parse_line(line: &str) -> Result<JobSpec, JobSpecError> {
        let mut version = None;
        let mut kind = None;
        let mut name = None;
        let mut smoke = false;
        let mut uops = None;
        let mut workers = 0usize;
        let mut integrator = Integrator::default();
        let mut trace = TraceSpec::Live;
        let mut class = JobClass::Interactive;
        let bad = |tok: &str| JobSpecError::BadValue(tok.to_string());
        for tok in line.split_ascii_whitespace() {
            let (key, value) = tok.split_once('=').ok_or_else(|| bad(tok))?;
            match key {
                "v" => version = Some(value.parse::<u32>().map_err(|_| bad(tok))?),
                "kind" => kind = Some(value.to_string()),
                "name" => name = Some(value.split(',').map(str::to_string).collect()),
                "smoke" => smoke = parse_flag(value).ok_or_else(|| bad(tok))?,
                "uops" => uops = Some(value.parse::<u64>().map_err(|_| bad(tok))?),
                "workers" => workers = value.parse::<usize>().map_err(|_| bad(tok))?,
                "integrator" => integrator = value.parse().map_err(|_| bad(tok))?,
                // Accepted for old lines and ignored: replay has one schedule.
                "batch" => {
                    parse_flag(value).ok_or_else(|| bad(tok))?;
                }
                "trace" => trace = TraceSpec::parse(value).ok_or_else(|| bad(tok))?,
                "class" => class = JobClass::parse(value).ok_or_else(|| bad(tok))?,
                _ => return Err(JobSpecError::UnknownKey(key.to_string())),
            }
        }
        let version = version.ok_or(JobSpecError::MissingKey("v"))?;
        if version != JOBSPEC_VERSION {
            return Err(JobSpecError::UnsupportedVersion(version));
        }
        match kind.as_deref() {
            Some("scenario") => {}
            Some(other) => return Err(JobSpecError::BadValue(format!("kind={other}"))),
            None => return Err(JobSpecError::MissingKey("kind")),
        }
        let smoke_default = if smoke { SMOKE_UOPS } else { FULL_UOPS };
        let spec = JobSpec {
            version,
            scenarios: name.ok_or(JobSpecError::MissingKey("name"))?,
            smoke,
            uops: uops.unwrap_or(smoke_default),
            workers,
            integrator,
            trace,
            class,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Checks the structural invariants the wire format relies on: no
    /// whitespace/`=`/`,` inside names, a non-empty list naming each
    /// scenario once, positive run length.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), JobSpecError> {
        let check_name = |n: &str| {
            if n.is_empty() {
                return Err(JobSpecError::Invalid("empty name".into()));
            }
            if n.chars().any(|c| c.is_whitespace() || c == '=' || c == ',') {
                return Err(JobSpecError::Invalid(format!(
                    "name {n:?} contains wire-reserved characters"
                )));
            }
            Ok(())
        };
        if self.scenarios.is_empty() {
            return Err(JobSpecError::Invalid("empty scenario list".into()));
        }
        for (i, n) in self.scenarios.iter().enumerate() {
            check_name(n)?;
            if self.scenarios[..i].contains(n) {
                return Err(JobSpecError::Invalid(format!("scenario {n} listed twice")));
            }
        }
        if self.uops == 0 {
            return Err(JobSpecError::Invalid("empty run (uops=0)".into()));
        }
        Ok(())
    }

    /// Resolves the scenario names against the registry into the rows
    /// the engine runs.
    ///
    /// # Errors
    ///
    /// Returns [`JobSpecError::UnknownName`] for any name the registry
    /// does not know.
    pub fn resolve(&self) -> Result<ResolvedJob, JobSpecError> {
        self.validate()?;
        let mut job = ResolvedJob {
            labels: Vec::new(),
            configs: Vec::new(),
            workloads: Vec::new(),
            bounds: vec![0],
        };
        for name in &self.scenarios {
            let s = scenarios::by_name(name)
                .or_else(|| {
                    // The CLI's fault-injection scenario is resolvable
                    // so daemon fault-isolation can be exercised end
                    // to end, exactly like `--inject-fail` locally.
                    (name == scenarios::fault_injection().name).then(scenarios::fault_injection)
                })
                .ok_or_else(|| JobSpecError::UnknownName(name.clone()))?;
            job.labels.push(s.name);
            job.configs.push(
                s.config()
                    .with_uops(self.uops)
                    .with_integrator(self.integrator),
            );
            job.workloads.extend(s.workloads(self.smoke));
            job.bounds.push(job.workloads.len());
        }
        Ok(job)
    }

    /// The job's content address: a stable 64-bit fingerprint of every
    /// input the result bytes are a function of, and nothing else. A
    /// one-row job's is its row's [fingerprint](Self::row_fingerprints);
    /// a job of several rows folds its rows' fingerprints in order.
    ///
    /// # Errors
    ///
    /// Resolution errors propagate: an unresolvable spec has no content
    /// to address.
    pub fn fingerprint(&self) -> Result<u64, JobSpecError> {
        Ok(job_fingerprint(&self.row_fingerprints()?))
    }

    /// Each row's content address, in row order: the fingerprint of the
    /// one-scenario job of that row, which is what results are stored
    /// under.
    ///
    /// Covered: the wire version, target kind and scenario name, smoke
    /// flag, run length, integrator, and the row's configuration — its
    /// name, machine shape, interval, seed, pilot fraction, idle density,
    /// hop flag, DTM policy name, operating points (the trace-store key,
    /// numeric parameters included) and the **exact bits of its leakage
    /// model** — and its workload names, plus the trace crate's
    /// [`FINGERPRINT_VERSION`](distfront_trace::record::FINGERPRINT_VERSION)
    /// through the seeded [`Fingerprint`] hasher, so a bump that changes
    /// result bytes invalidates every cached result. Excluded: `workers`,
    /// `class` and `trace`, which the engine's bit-identity contract makes
    /// output-neutral — replay checks its own path and runs live where it
    /// leaves it — so an 8-worker interactive replay hits the cache entry
    /// a serial deferrable live run stored.
    ///
    /// # Errors
    ///
    /// Resolution errors propagate.
    pub fn row_fingerprints(&self) -> Result<Vec<u64>, JobSpecError> {
        let job = self.resolve()?;
        let head = Fingerprint::new()
            .with_bytes(b"DFJS")
            .with_u32(self.version)
            .with_u64(self.uops)
            .with_u32(u32::from(self.smoke))
            // The token names the kernel, not the CLI spelling: results
            // from the retired per-step matrix exponential differ in the
            // last bits, so they must never be served for the modal step.
            .with_str(match self.integrator {
                Integrator::Rk4 => "rk4",
                Integrator::Expm => "expm-modal",
            })
            .with_str("scenario");
        Ok(job
            .rows()
            .into_iter()
            .zip(&job.labels)
            .map(|((cfg, workloads), name)| {
                let fp = config_fingerprint(head.with_str(name), cfg);
                workloads
                    .iter()
                    .fold(fp, |fp, w| fp.with_str(w.name()))
                    .finish()
            })
            .collect())
    }

    /// Runs the job to completion on the calling thread: resolves the
    /// target, builds the [`SweepRunner::from_spec`] runner bound to
    /// `env`'s trace store, and returns the per-cell report.
    /// `on_cell` streams outcomes in completion order, exactly like
    /// [`SweepRunner::with_on_cell`].
    ///
    /// This is the one execution path behind the one-shot CLI, the
    /// daemon's executors, the benches and the test harness — they
    /// differ only in the [`JobEnv`] they share across calls.
    ///
    /// # Errors
    ///
    /// Returns resolution errors; engine failures are per-cell outcomes
    /// in the report, never an `Err` here.
    pub fn execute(
        &self,
        env: &JobEnv,
        on_cell: impl Fn(&CellOutcome) + Send + Sync + 'static,
    ) -> Result<JobReport, JobSpecError> {
        let resolved = self.resolve()?;
        let report = SweepRunner::from_spec(self, env)
            .with_on_cell(on_cell)
            .try_rows(&resolved.rows());
        Ok(JobReport {
            labels: resolved.labels,
            report,
        })
    }
}

/// A job's content address from its rows' ([`JobSpec::fingerprint`]).
pub(crate) fn job_fingerprint(rows: &[u64]) -> u64 {
    match rows {
        [row] => *row,
        _ => rows
            .iter()
            .fold(Fingerprint::new().with_bytes(b"DFJL"), |fp, row| {
                fp.with_u64(*row)
            })
            .finish(),
    }
}

fn parse_flag(value: &str) -> Option<bool> {
    match value {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

/// Folds one configuration's result-affecting content into `fp`: an
/// explicit field enumeration (never `Debug` or `Hash` derives, whose
/// renderings change silently), so the golden-fingerprint test fails
/// loudly on any change — which is the point: cache keys change
/// consciously or not at all.
fn config_fingerprint(fp: Fingerprint, cfg: &ExperimentConfig) -> Fingerprint {
    let p = &cfg.processor;
    fp.with_str(cfg.name)
        .with_u64(p.frontend_mode.partitions() as u64)
        .with_u64(p.backends as u64)
        .with_u64(p.trace_cache.physical_banks() as u64)
        .with_f64(p.frequency_hz)
        .with_u64(cfg.interval_cycles)
        .with_u64(cfg.uops_per_app)
        .with_u64(cfg.seed)
        .with_f64(cfg.pilot_fraction)
        .with_f64(cfg.idle_density_w_mm2)
        .with_u32(u32::from(cfg.hop))
        .with_str(cfg.dtm.as_ref().map_or("none", |d| d.name()))
        // The operating points — nominal plus the DTM policy's actionable
        // ones, numeric parameters included. The policy *name* above
        // cannot distinguish two DVFS policies with different scale
        // pairs; the point labels can.
        .with_str(&points_id(&cfg.replay_points()))
        // Two jobs identical in shape and workload but differing in
        // silicon must never share a result. Exact bits.
        .with_f64(cfg.leakage.ratio_at_ambient)
        .with_f64(cfg.leakage.ambient_c)
        .with_f64(cfg.leakage.doubling_celsius)
        .with_f64(cfg.leakage.emergency_c)
}

/// A [`JobSpec`] resolved against the registry: the rows the engine
/// runs, one per scenario name.
#[derive(Debug, Clone)]
pub struct ResolvedJob {
    /// Each row's scenario name: the CSV `scenario` column of its cells.
    pub(crate) labels: Vec<&'static str>,
    /// One configuration per row, run-length- and integrator-scaled.
    pub configs: Vec<ExperimentConfig>,
    /// The flat cell list: every row's workloads, rows concatenated. For
    /// a one-row job, the row's workloads.
    pub workloads: Vec<Workload>,
    /// Row `r`'s workloads are `workloads[bounds[r]..bounds[r + 1]]`.
    bounds: Vec<usize>,
}

impl ResolvedJob {
    /// Each row as its configuration and its workloads: what
    /// [`SweepRunner::try_cells`] runs.
    pub fn rows(&self) -> Vec<(&ExperimentConfig, &[Workload])> {
        self.configs
            .iter()
            .zip(self.bounds.windows(2))
            .map(|(cfg, w)| (cfg, &self.workloads[w[0]..w[1]]))
            .collect()
    }
}

/// The shared execution state a job runs against: the trace store. One-shot
/// runs use a fresh default; the daemon keeps one alive for its whole
/// life, which is what makes recorded traces outlive a job. Warm starts
/// are not shared: every cell solves its own.
#[derive(Debug, Clone, Default)]
pub struct JobEnv {
    /// Trace store [`TraceSpec::Record`]/[`TraceSpec::Replay`] bind to.
    pub traces: Arc<TraceStore>,
}

/// One executed job's results, labeled by row.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Each row's scenario name.
    pub(crate) labels: Vec<&'static str>,
    /// The underlying per-cell report, one report row per job row.
    pub report: SweepReport,
}

impl JobReport {
    /// The label a cell's CSV row carries in the `scenario` column: its
    /// row's scenario name.
    pub fn row_label(&self, cell: &CellOutcome) -> &'static str {
        self.labels[cell.config]
    }

    /// CSV rows (no header) for every successful cell, in canonical row
    /// order, whatever order the cells completed in. This is
    /// [`scenarios::to_csv`]'s body.
    pub fn csv_rows(&self) -> Vec<String> {
        self.report
            .cells()
            .iter()
            .filter_map(|c| {
                c.result
                    .as_ref()
                    .ok()
                    .map(|r| csv_row(self.row_label(c), r))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::JobResponse;

    #[test]
    fn status_codes_are_the_cli_contract() {
        let codes: Vec<u8> = StatusCode::ALL.iter().map(|s| s.code()).collect();
        assert_eq!(codes, vec![0, 1, 2, 3, 5, 64]);
        for s in StatusCode::ALL {
            assert_eq!(StatusCode::from_code(s.code()), Some(s));
            assert!(!s.name().is_empty());
        }
        assert_eq!(StatusCode::from_code(42), None);
        // 4 is reserved: it once meant batched replay diverged.
        assert_eq!(StatusCode::from_code(4), None);
    }

    #[test]
    fn worst_status_prefers_specific_failures() {
        use StatusCode::*;
        assert_eq!(Ok.worst(CellsFailed), CellsFailed);
        assert_eq!(CellsFailed.worst(Ok), CellsFailed);
        assert_eq!(Usage.worst(CellsFailed), CellsFailed);
        assert_eq!(VerifyDiverged.worst(Io), VerifyDiverged);
        assert_eq!(Ok.worst(ShardFailed), ShardFailed);
        assert_eq!(ShardFailed.worst(Usage), ShardFailed);
        assert_eq!(CellsFailed.worst(ShardFailed), CellsFailed);
        assert_eq!(Ok.worst(Ok), Ok);
    }

    #[test]
    fn encode_parse_roundtrip_one_and_many_scenarios() {
        let scenario = JobSpec::scenario("dtm-dvfs")
            .with_smoke(true)
            .with_uops(30_000)
            .with_workers(3)
            .with_trace(TraceSpec::Replay)
            .with_class(JobClass::Deferrable);
        assert_eq!(JobSpec::parse_line(&scenario.encode_line()), Ok(scenario));
        // A one-name list is the one-scenario spec, byte for byte.
        assert_eq!(
            JobSpec::scenarios(["baseline"]),
            JobSpec::scenario("baseline")
        );
        assert_eq!(
            JobSpec::scenario("baseline").encode_line(),
            "v=1 kind=scenario name=baseline smoke=0 uops=200000 workers=0 \
             integrator=expm trace=live class=interactive"
        );
        let list = JobSpec::scenarios(["baseline", "drc+bh+ab"]).with_uops(25_000);
        let line = list.encode_line();
        assert!(line.contains("kind=scenario name=baseline,drc+bh+ab smoke=0"));
        assert_eq!(JobSpec::parse_line(&line), Ok(list));
    }

    #[test]
    fn parse_applies_scheduling_defaults_but_requires_target() {
        let spec = JobSpec::parse_line("v=1 kind=scenario name=baseline").unwrap();
        assert_eq!(spec.uops, FULL_UOPS);
        assert_eq!(spec.workers, 0);
        assert_eq!(spec.class, JobClass::Interactive);
        let smoke = JobSpec::parse_line("v=1 kind=scenario name=baseline smoke=1").unwrap();
        assert_eq!(smoke.uops, SMOKE_UOPS);
        assert_eq!(
            JobSpec::parse_line("v=1 kind=scenario"),
            Err(JobSpecError::MissingKey("name"))
        );
        assert_eq!(
            JobSpec::parse_line("kind=scenario name=baseline"),
            Err(JobSpecError::MissingKey("v"))
        );
    }

    #[test]
    fn parse_rejects_unknown_versions_keys_and_values() {
        assert_eq!(
            JobSpec::parse_line("v=2 kind=scenario name=baseline"),
            Err(JobSpecError::UnsupportedVersion(2))
        );
        assert_eq!(
            JobSpec::parse_line("v=1 kind=scenario name=baseline color=red"),
            Err(JobSpecError::UnknownKey("color".into()))
        );
        assert!(matches!(
            JobSpec::parse_line("v=1 kind=scenario name=baseline smoke=yes"),
            Err(JobSpecError::BadValue(_))
        ));
        assert!(matches!(
            JobSpec::parse_line("v=1 kind=teapot name=baseline"),
            Err(JobSpecError::BadValue(_))
        ));
    }

    #[test]
    fn batch_token_is_accepted_and_ignored_but_never_written() {
        let line = "v=1 kind=scenario name=baseline smoke=1";
        let spec = JobSpec::parse_line(line).unwrap();
        for flag in ["0", "1"] {
            let with_token = format!("{line} batch={flag}");
            assert_eq!(JobSpec::parse_line(&with_token), Ok(spec.clone()));
        }
        assert_eq!(
            JobSpec::parse_line(&format!("{line} batch=2")),
            Err(JobSpecError::BadValue("batch=2".into()))
        );
        assert_eq!(spec.clone().with_batch(true), spec);
        assert!(!spec.encode_line().contains("batch="));
    }

    #[test]
    fn validate_rejects_wire_reserved_names_and_empty_lists() {
        assert!(JobSpec::scenario("has space").validate().is_err());
        assert!(JobSpec::scenario("has=eq").validate().is_err());
        assert!(JobSpec::scenarios(["baseline", "a,b"]).validate().is_err());
        assert!(JobSpec::scenarios(Vec::<String>::new()).validate().is_err());
        assert!(JobSpec::scenario("baseline")
            .with_uops(0)
            .validate()
            .is_err());
    }

    #[test]
    fn duplicate_names_and_retired_grid_lines_are_rejected() {
        assert_eq!(
            JobSpec::scenarios(["baseline", "drc", "baseline"]).validate(),
            Err(JobSpecError::Invalid(
                "scenario baseline listed twice".into()
            ))
        );
        assert!(JobSpec::parse_line("v=1 kind=scenario name=drc,drc").is_err());
        assert_eq!(
            JobSpec::parse_line("v=1 kind=scenario name=a,,b"),
            Err(JobSpecError::Invalid("empty name".into()))
        );
        assert_eq!(
            JobSpec::parse_line("v=1 kind=grid configs=baseline apps=gzip"),
            Err(JobSpecError::UnknownKey("configs".into()))
        );
        assert_eq!(
            JobSpec::parse_line("v=1 kind=grid name=baseline"),
            Err(JobSpecError::BadValue("kind=grid".into()))
        );
    }

    #[test]
    fn resolve_covers_registry_scenarios_lists_and_fault_injection() {
        for s in scenarios::registry() {
            JobSpec::scenario(s.name)
                .with_smoke(true)
                .resolve()
                .unwrap_or_else(|e| panic!("{}: {e}", s.name));
        }
        // Ragged rows: 4 smoke apps, then 2 pinned phased workloads.
        let r = JobSpec::scenarios(["baseline", "phased-hot-cold"])
            .with_smoke(true)
            .resolve()
            .unwrap();
        assert_eq!((r.configs.len(), r.workloads.len()), (2, 6));
        let lens: Vec<usize> = r.rows().iter().map(|(_, w)| w.len()).collect();
        assert_eq!(lens, vec![4, 2]);
        assert_eq!(r.labels, vec!["baseline", "phased-hot-cold"]);
        assert_eq!(r.rows()[1].1[0].name(), "crafty-mcf");
        assert!(JobSpec::scenario("fault-injection").resolve().is_ok());
        assert_eq!(
            JobSpec::scenario("nope").resolve().unwrap_err(),
            JobSpecError::UnknownName("nope".into())
        );
        assert_eq!(
            JobSpec::scenarios(["baseline", "nope"])
                .resolve()
                .unwrap_err(),
            JobSpecError::UnknownName("nope".into())
        );
    }

    #[test]
    fn fingerprint_excludes_scheduling_knobs() {
        let base = JobSpec::scenario("baseline").with_smoke(true);
        let fp = base.fingerprint().unwrap();
        assert_eq!(base.clone().with_workers(8).fingerprint().unwrap(), fp);
        assert_eq!(
            base.clone()
                .with_class(JobClass::Deferrable)
                .fingerprint()
                .unwrap(),
            fp
        );
        assert_eq!(
            base.clone()
                .with_trace(TraceSpec::Replay)
                .fingerprint()
                .unwrap(),
            fp
        );
    }

    #[test]
    fn fingerprint_covers_result_affecting_inputs() {
        let base = JobSpec::scenario("baseline").with_smoke(true);
        let fp = base.fingerprint().unwrap();
        assert_ne!(base.clone().with_uops(50_000).fingerprint().unwrap(), fp);
        assert_ne!(base.clone().with_smoke(false).fingerprint().unwrap(), fp);
        assert_ne!(
            base.clone()
                .with_integrator(Integrator::Rk4)
                .fingerprint()
                .unwrap(),
            fp
        );
        assert_ne!(
            JobSpec::scenario("drc")
                .with_smoke(true)
                .fingerprint()
                .unwrap(),
            fp
        );
    }

    #[test]
    fn a_row_is_addressed_as_its_one_scenario_job() {
        let one = |name| {
            JobSpec::scenario(name)
                .with_smoke(true)
                .fingerprint()
                .unwrap()
        };
        let pair = JobSpec::scenarios(["baseline", "drc"]).with_smoke(true);
        assert_eq!(
            pair.row_fingerprints().unwrap(),
            vec![one("baseline"), one("drc")]
        );
        // The job folds its rows, in order, into an address of its own.
        let fp = pair.fingerprint().unwrap();
        assert!(fp != one("baseline") && fp != one("drc"));
        let swapped = JobSpec::scenarios(["drc", "baseline"]).with_smoke(true);
        assert_ne!(swapped.fingerprint().unwrap(), fp);
    }

    #[test]
    fn fingerprint_covers_leakage_bits_via_dtm_scenarios() {
        // Two registry scenarios sharing the baseline processor but
        // differing in DTM policy must address differently (the dtm name
        // is in the config fingerprint)...
        let a = JobSpec::scenario("dtm-dvfs").with_smoke(true);
        let b = JobSpec::scenario("dtm-fetch-gate").with_smoke(true);
        assert_ne!(a.fingerprint().unwrap(), b.fingerprint().unwrap());
        // ...and the leakage bits participate directly: fault-injection
        // is the baseline with only its leakage model changed, yet it
        // must never share baseline's cached results.
        let base = JobSpec::scenario("baseline").with_smoke(true);
        let faulty = JobSpec::scenario("fault-injection").with_smoke(true);
        assert_ne!(base.fingerprint().unwrap(), faulty.fingerprint().unwrap());
    }

    #[test]
    fn execute_runs_and_labels_rows() {
        let env = JobEnv::default();
        let spec = JobSpec::scenario("baseline")
            .with_smoke(true)
            .with_uops(20_000)
            .with_workers(2);
        let report = spec.execute(&env, |_| {}).unwrap();
        assert_eq!(JobResponse::from(&report).status, StatusCode::Ok);
        let rows = report.csv_rows();
        assert_eq!(rows.len(), scenarios::suite_apps(true).len());
        assert!(rows.iter().all(|r| r.starts_with("baseline,")));
        // Each row is labeled by its scenario name, even where two rows
        // share a configuration (phased-hot-cold runs the baseline).
        let list = JobSpec::scenarios(["phased-hot-cold", "drc"])
            .with_smoke(true)
            .with_uops(20_000);
        let report = list.execute(&env, |_| {}).unwrap();
        let rows = report.csv_rows();
        let labels: Vec<&str> = rows.iter().map(|r| r.split(',').next().unwrap()).collect();
        assert_eq!(labels[..3], ["phased-hot-cold", "phased-hot-cold", "drc"]);
        assert_eq!(labels.len(), 2 + scenarios::suite_apps(true).len());
        // The env carries nothing that changes a result: the job on the
        // reused env equals the same spec on a fresh one.
        let fresh = list.execute(&JobEnv::default(), |_| {}).unwrap();
        assert_eq!(report, fresh);
    }

    #[test]
    fn execute_reports_failures_as_cells_failed() {
        let env = JobEnv::default();
        let report = JobSpec::scenario("fault-injection")
            .with_smoke(true)
            .with_uops(20_000)
            .execute(&env, |_| {})
            .unwrap();
        let response = JobResponse::from(&report);
        assert_eq!(response.status, StatusCode::CellsFailed);
        assert!(report.csv_rows().is_empty());
        let failures: Vec<_> = response.failures().collect();
        assert_eq!(failures.len(), scenarios::suite_apps(true).len());
        assert!(failures[0].2.contains("not converged"));
    }
}
