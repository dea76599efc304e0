//! `distfront-scenarios` — run named experiment scenarios from the
//! command line.
//!
//! ```text
//! distfront-scenarios --list
//! distfront-scenarios --run NAME [--run NAME ...] [options]
//! distfront-scenarios --all [options]
//!
//! Options:
//!   --smoke          4-app smoke suite instead of the full 26
//!   --uops N         micro-ops per application (default 200000; smoke 40000)
//!   --workers N      sweep workers (default: all hardware threads)
//!   --integrator I   transient integrator: expm (default) or rk4
//!   --csv PATH       write results as CSV (in this process, rows also
//!                    stream to the file as cells complete; it is
//!                    rewritten in canonical order at the end)
//!   --json PATH      write results as JSON
//!   --progress       print one line per cell (or daemon frame) as it
//!                    completes
//!   --verify         also re-run serially, in this process and live, and
//!                    fail unless the CSV bytes match
//!   --inject-fail    append a divergent-leakage scenario whose cells all
//!                    fail (exercises the partial-results path; CI uses it)
//!   --record DIR     simulate live and write one .dft activity trace per
//!                    successful cell into DIR
//!   --replay DIR     load .dft traces from DIR and replay each cell whose
//!                    path a trace recorded instead of re-simulating the
//!                    core (the rest run live); byte-identical output,
//!                    several times faster per replayed cell
//!
//! Back ends (at most one; without one, the job runs in this process):
//!   --state-dir DIR  run against DIR's crash-safe segment store (the
//!                    same layout `distfront-sweepd --state-dir` uses),
//!                    which holds one result per scenario: a selection
//!                    whose scenarios are all stored is served from disk
//!                    byte-identically; any other runs whole and every
//!                    scenario's result is appended
//!   --processes N    shard the selection's cells across N worker processes
//!                    (see [`distfront::shard`]); the merged rows are
//!                    byte-identical to a serial run and dead workers are
//!                    re-queued with bounded retries
//!   --shard-retries N  re-queue a failed shard up to N times before
//!                    declaring it dead (default 2; needs --processes)
//!   --shard-dir DIR  the shards' state directory (default: under the
//!                    system temp dir; needs --processes)
//!   --connect ADDR   submit the selection as one job to a running sweep
//!                    daemon (see `distfront-sweepd`) and stream the
//!                    results back
//!   --class C        job class: interactive (default, run-ahead) or
//!                    deferrable (queued bulk work)
//!   --shutdown       after any jobs complete, ask the daemon to drain
//!                    and exit (needs --connect; usable alone)
//!
//! Worker mode:
//!   --shard i/N      run one shard of DIR's work order and exit
//!                    (launched by the coordinator; needs --shard-dir)
//! ```
//!
//! The selection is one [`JobSpec`], one row per scenario in selection
//! order (a scenario named twice is a usage error), and every back end
//! runs it as one job and answers one [`JobResponse`]. One output stage
//! splits the response into its scenarios and serves every back end:
//! `--record`'s traces and `--replay`'s count, `--verify`, the CSV, the
//! JSON, the summary table, the failed cells and the exit status. The
//! only exclusions left: `--record` and `--replay` exclude each other
//! and run in this process only (DIR is a local `.dft` directory that a
//! daemon or a shard worker never sees); at most one back end; and
//! `--shutdown`, `--shard-dir`, `--shard-retries` and `--shard` as
//! listed above.
//!
//! Exit status — the [`StatusCode`] vocabulary, shared verbatim with the
//! daemon's `DONE`/`ERR` frames so client and server cannot disagree:
//! 0 on success, 1 when `--verify` detects a divergence between the run
//! and a serial live re-run, 2 when any cell failed (the failed
//! coordinates are listed on stderr and the surviving cells are still
//! written), 3 when writing an output file or reaching the daemon
//! failed, 5 when `--processes` lost a whole shard after exhausting its
//! retries (survivors are still merged and written — distinct from 2,
//! where every cell *ran*), 64 on a usage error. Code 4 is reserved.
//! Every front end reports a failed cell on stderr as
//! `error: cell <label>/<app>: <message>`.

use std::io::Write as _;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use distfront::engine::{CellOutcome, TraceStore};
use distfront::job::{JobClass, JobEnv, JobSpec, JobSpecError, StatusCode, TraceSpec};
use distfront::scenarios::{self, Scenario, ScenarioRun};
use distfront::server::{protocol, Client, JobResponse, ResultCache};
use distfront::shard::{self, ShardError, ShardRunner, ShardSpec};
use distfront::store::DurableStore;
use distfront_thermal::Integrator;
use distfront_trace::ActivityTrace;

#[derive(Default)]
struct Args {
    list: bool,
    all: bool,
    run: Vec<String>,
    smoke: bool,
    uops: Option<u64>,
    workers: Option<usize>,
    integrator: Option<Integrator>,
    csv: Option<String>,
    json: Option<String>,
    progress: bool,
    verify: bool,
    inject_fail: bool,
    record: Option<String>,
    replay: Option<String>,
    state_dir: Option<String>,
    connect: Option<String>,
    class: JobClass,
    shutdown: bool,
    processes: Option<usize>,
    shard_retries: Option<usize>,
    shard_dir: Option<String>,
    shard: Option<ShardSpec>,
}

fn usage() -> &'static str {
    "usage: distfront-scenarios --list | --all | --run NAME [--run NAME ...]\n\
     options: [--smoke] [--uops N] [--workers N] [--integrator rk4|expm] \
     [--csv PATH] [--json PATH] [--progress] [--verify] [--inject-fail] \
     [--record DIR | --replay DIR]\n\
     back end (at most one): [--state-dir DIR] \
     | [--processes N [--shard-retries N] [--shard-dir DIR]] \
     | [--connect ADDR [--class interactive|deferrable] [--shutdown]]\n\
     worker:  [--shard i/N --shard-dir DIR]\n\
     --record/--replay run in this process only"
}

/// `flag`'s value `v` as a number of at least `min`.
fn number<T: std::str::FromStr + PartialOrd + std::fmt::Display>(
    flag: &str,
    v: String,
    min: T,
) -> Result<T, String> {
    let n: T = v.parse().map_err(|_| format!("bad {flag} value {v}"))?;
    if n < min {
        return Err(format!("{flag} must be at least {min}"));
    }
    Ok(n)
}

fn parse(mut argv: std::env::Args) -> Result<Args, String> {
    let mut args = Args::default();
    argv.next(); // program name
    while let Some(a) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--list" => args.list = true,
            "--all" => args.all = true,
            "--run" => args.run.push(value()?),
            "--smoke" => args.smoke = true,
            "--uops" => args.uops = Some(number(&a, value()?, 0)?),
            "--workers" => args.workers = Some(number(&a, value()?, 1)?),
            "--integrator" => args.integrator = Some(value()?.parse()?),
            "--csv" => args.csv = Some(value()?),
            "--json" => args.json = Some(value()?),
            "--progress" => args.progress = true,
            "--verify" => args.verify = true,
            "--inject-fail" => args.inject_fail = true,
            "--record" => args.record = Some(value()?),
            "--replay" => args.replay = Some(value()?),
            "--state-dir" => args.state_dir = Some(value()?),
            "--connect" => args.connect = Some(value()?),
            "--class" => {
                let v = value()?;
                args.class = JobClass::parse(&v).ok_or_else(|| format!("bad --class value {v}"))?;
            }
            "--shutdown" => args.shutdown = true,
            "--processes" => args.processes = Some(number(&a, value()?, 1)?),
            "--shard-retries" => args.shard_retries = Some(number(&a, value()?, 0)?),
            "--shard-dir" => args.shard_dir = Some(value()?),
            "--shard" => args.shard = Some(ShardSpec::parse(&value()?)?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let shutdown_only = args.shutdown && args.connect.is_some();
    if !args.list
        && !args.all
        && args.run.is_empty()
        && !args.inject_fail
        && !shutdown_only
        && args.shard.is_none()
    {
        return Err("nothing to do".into());
    }
    if args.shard.is_some() {
        if args.shard_dir.is_none() {
            return Err("--shard (worker mode) needs --shard-dir".into());
        }
        if args.processes.is_some() || args.connect.is_some() || args.state_dir.is_some() {
            return Err("--shard is worker mode; only --shard-dir applies".into());
        }
    }
    if args.shard_dir.is_some() && args.shard.is_none() && args.processes.is_none() {
        return Err("--shard-dir needs --processes or --shard".into());
    }
    if args.shard_retries.is_some() && args.processes.is_none() {
        return Err("--shard-retries needs --processes".into());
    }
    let back_ends = [
        args.connect.is_some(),
        args.state_dir.is_some(),
        args.processes.is_some(),
    ];
    if back_ends.iter().filter(|&&b| b).count() > 1 {
        return Err("at most one of --connect, --state-dir and --processes".into());
    }
    if args.record.is_some() && args.replay.is_some() {
        return Err("--record and --replay are mutually exclusive".into());
    }
    if (args.record.is_some() || args.replay.is_some()) && back_ends.contains(&true) {
        return Err(
            "--record/--replay run in this process only (DIR is a local .dft directory)".into(),
        );
    }
    if args.shutdown && args.connect.is_none() {
        return Err("--shutdown needs --connect".into());
    }
    Ok(args)
}

fn list() {
    println!("{:<16} summary", "name");
    for s in scenarios::registry() {
        println!("{:<16} {}", s.name, s.summary);
    }
}

/// Streams per-cell progress lines and (optionally) CSV rows to `csv` as
/// cells complete, so a killed run still leaves partial results on disk,
/// and counts the replayed cells `--replay` reports. Rows arrive in
/// completion order, labeled by their row's scenario; the output stage
/// rewrites the file in canonical order once the run finishes.
#[derive(Clone, Default)]
struct CellStream {
    /// Each job row's scenario name.
    labels: Vec<&'static str>,
    progress: bool,
    csv: Option<Arc<Mutex<std::fs::File>>>,
    replayed: Arc<AtomicUsize>,
}

impl CellStream {
    /// This stream's cell callback for the job of `selected`.
    fn observer(&self, selected: &[Scenario]) -> impl Fn(&CellOutcome) + Send + Sync + 'static {
        let stream = CellStream {
            labels: selected.iter().map(|s| s.name).collect(),
            ..self.clone()
        };
        move |cell| stream.observe(cell)
    }

    fn observe(&self, cell: &CellOutcome) {
        let scenario = self.labels[cell.config];
        if cell.replayed {
            self.replayed.fetch_add(1, Ordering::Relaxed);
        }
        if self.progress {
            match &cell.result {
                Ok(_) => eprintln!(
                    "  [{}/{}] ok in {:.2}s{}",
                    scenario,
                    cell.app_name,
                    cell.wall_time_s,
                    if cell.replayed { " (replayed)" } else { "" }
                ),
                Err(e) => eprintln!("  [{scenario}/{}] FAILED: {e}", cell.app_name),
            }
        }
        if let (Some(file), Ok(r)) = (&self.csv, &cell.result) {
            let mut file = file.lock().expect("csv stream poisoned");
            let row = scenarios::csv_row(scenario, r);
            if let Err(e) = writeln!(file, "{row}").and_then(|()| file.flush()) {
                eprintln!("warning: streaming CSV row: {e}");
            }
        }
    }
}

/// Reads every `.dft` trace under `dir` into a store for replay;
/// undecodable files warn and are skipped (their cells fall back to live
/// simulation).
fn load_traces(dir: &str) -> Result<Arc<TraceStore>, String> {
    let store = TraceStore::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {dir}: {e}"))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("reading {dir}: {e}"))?.path();
        if path.extension().is_none_or(|ext| ext != "dft") {
            continue;
        }
        match std::fs::read(&path)
            .map_err(|e| e.to_string())
            .and_then(|b| ActivityTrace::decode(&b).map_err(|e| e.to_string()))
        {
            Ok(trace) => store.insert(trace),
            Err(e) => eprintln!("warning: skipping {}: {e}", path.display()),
        }
    }
    Ok(Arc::new(store))
}

/// Writes every recorded trace to `dir` as
/// `<config>__<workload>__<capability>.dft` — the capability id keeps two
/// recordings of the same cell under different operating points (say, a
/// no-DTM baseline recording and a DVFS one) from clobbering each other
/// on disk, mirroring the store's keying.
fn save_traces(dir: &str, store: &TraceStore) -> Result<usize, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    let traces = store.traces();
    for trace in &traces {
        let file = format!(
            "{}__{}__{}.dft",
            trace.meta.config,
            trace.meta.workload,
            trace.meta.capability_id()
        )
        .replace(['/', '\\'], "-");
        let path = Path::new(dir).join(file);
        std::fs::write(&path, trace.encode())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(traces.len())
}

/// Opens `path` for streaming CSV rows, starting with the header so a
/// partial file is self-describing even if the run dies on the first
/// cell.
fn open_csv_stream(path: &str) -> Option<Arc<Mutex<std::fs::File>>> {
    match std::fs::File::create(path)
        .and_then(|mut f| writeln!(f, "{}", scenarios::CSV_HEADER).map(|()| f))
    {
        Ok(f) => Some(Arc::new(Mutex::new(f))),
        Err(e) => {
            eprintln!("warning: cannot stream CSV to {path}: {e}");
            None
        }
    }
}

/// The job a scenario selection + CLI flags describe — the same
/// [`JobSpec`] every back end runs, so a back end changes where the spec
/// runs, never what it means.
fn spec_for(args: &Args, selected: &[Scenario]) -> JobSpec {
    let trace = if args.record.is_some() {
        TraceSpec::Record
    } else if args.replay.is_some() {
        TraceSpec::Replay
    } else {
        TraceSpec::Live
    };
    let mut spec = JobSpec::scenarios(selected.iter().map(|s| s.name))
        .with_smoke(args.smoke)
        .with_class(args.class)
        .with_trace(trace);
    if let Some(uops) = args.uops {
        spec = spec.with_uops(uops);
    }
    if let Some(workers) = args.workers {
        spec = spec.with_workers(workers);
    }
    if let Some(integrator) = args.integrator {
        spec = spec.with_integrator(integrator);
    }
    spec
}

/// Reports a spec that does not resolve: a usage error.
fn usage_error(e: JobSpecError) -> StatusCode {
    eprintln!("error: {e}");
    StatusCode::Usage
}

/// Where the selection's job runs: the one seam between the selection and
/// the output stage. Every arm answers a [`JobResponse`], so the output
/// stage cannot tell them apart.
struct Backend {
    arm: Arm,
    /// The environment the in-process and state-dir arms execute on.
    env: JobEnv,
    /// Progress lines, the in-process CSV stream and the replay count.
    stream: CellStream,
}

enum Arm {
    /// In this process through [`JobSpec::execute`] at `workers`, on the
    /// one [`JobEnv`] whose trace store `--replay` loads and `--record`
    /// saves; `replay` says whether it loaded one.
    InProcess { workers: usize, replay: bool },
    /// Against a local [`DurableStore`] through the daemon's persistent
    /// [`ResultCache`]: a job whose scenarios are all stored is served
    /// from disk (byte-identical frames, no cell solved); any other
    /// executes, and each scenario's frames are inserted and flushed
    /// before it is reported — the daemon's cache semantics on the layout
    /// `sweepd --state-dir` reads and writes.
    StateDir {
        store: Arc<DurableStore>,
        results: ResultCache,
    },
    /// On a running daemon, as one `JOB`.
    Daemon { addr: String, client: Client },
    /// Sharded across worker processes by [`ShardRunner`] in `dir`.
    Shards {
        processes: usize,
        retries: Option<usize>,
        dir: PathBuf,
    },
}

impl Backend {
    /// The back end `args` select, opened: connected, loaded or set up.
    fn open(args: &Args) -> Result<Backend, StatusCode> {
        let mut env = JobEnv::default();
        let mut stream = CellStream {
            progress: args.progress,
            ..CellStream::default()
        };
        let arm = if let Some(addr) = &args.connect {
            let client = Client::connect(addr).map_err(|e| {
                eprintln!("error: connecting to {addr}: {e}");
                StatusCode::Io
            })?;
            let addr = addr.clone();
            Arm::Daemon { addr, client }
        } else if let Some(dir) = &args.state_dir {
            let (store, snapshot) = DurableStore::open(dir).map_err(|e| {
                eprintln!("error: opening state dir {dir}: {e}");
                StatusCode::Io
            })?;
            let store = Arc::new(store);
            let results = ResultCache::persistent(Arc::clone(&store), snapshot.results);
            println!(
                "state dir {dir}: {} result(s), {} trace(s) loaded ({} records skipped)",
                results.len(),
                snapshot.traces.len(),
                snapshot.skipped
            );
            env.traces = Arc::new(TraceStore::persistent(Arc::clone(&store), snapshot.traces));
            Arm::StateDir { store, results }
        } else if let Some(processes) = args.processes {
            let dir = args.shard_dir.as_ref().map_or_else(
                || std::env::temp_dir().join(format!("distfront-shard-{}", std::process::id())),
                PathBuf::from,
            );
            let retries = args.shard_retries;
            Arm::Shards {
                processes,
                retries,
                dir,
            }
        } else {
            if let Some(dir) = &args.replay {
                env.traces = load_traces(dir).map_err(|e| {
                    eprintln!("error: {e}");
                    StatusCode::Io
                })?;
                println!("replay: loaded {} trace(s) from {dir}", env.traces.len());
            }
            stream.csv = args.csv.as_deref().and_then(open_csv_stream);
            // Resolved here, not left at 0, so the count printed is the count run.
            let workers = args.workers.unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
            });
            Arm::InProcess {
                workers,
                replay: args.replay.is_some(),
            }
        };
        Ok(Backend { arm, env, stream })
    }

    /// What `--verify` compares against a serial run.
    fn name(&self) -> String {
        match &self.arm {
            Arm::InProcess {
                workers,
                replay: true,
            } => format!("replayed {workers}-worker"),
            Arm::InProcess { workers, .. } => format!("{workers}-worker"),
            Arm::StateDir { .. } => "state-dir".into(),
            Arm::Daemon { .. } => "daemon".into(),
            Arm::Shards { processes, .. } => format!("{processes}-process"),
        }
    }

    /// Runs the job `spec` of `selected` and answers its response; an
    /// `Err` (already reported) stops the run.
    fn run(&mut self, selected: &[Scenario], spec: &JobSpec) -> Result<JobResponse, StatusCode> {
        let label = match &spec.scenarios[..] {
            [one] => one.clone(),
            many => format!("{} scenarios", many.len()),
        };
        match &mut self.arm {
            Arm::InProcess { workers, .. } => {
                let spec = spec.clone().with_workers(*workers);
                for s in selected {
                    println!(
                        "running {:<16} ({} workloads x {} uops, {workers} workers, {} integrator)",
                        s.name,
                        s.workloads(spec.smoke).len(),
                        spec.uops,
                        spec.integrator
                    );
                }
                let report = spec
                    .execute(&self.env, self.stream.observer(selected))
                    .map_err(usage_error)?;
                Ok(JobResponse::from(&report))
            }
            Arm::StateDir { store, results } => {
                let rows = spec.row_fingerprints().map_err(usage_error)?;
                let names = spec.scenarios.iter().zip(&rows);
                if let Some(response) = results.lookup(&rows) {
                    for (name, fp) in names {
                        println!("  {name}: served from state dir (fp={fp:016x})");
                    }
                    return Ok(response);
                }
                for (name, fp) in names {
                    println!("running {name:<16} (fp={fp:016x})");
                }
                let report = spec
                    .execute(&self.env, self.stream.observer(selected))
                    .map_err(usage_error)?;
                for (row, frames) in rows.iter().zip(protocol::row_frames(&report)) {
                    results.insert(*row, frames);
                }
                // The daemon's insert-batch boundary: durable before
                // the result is reported anywhere.
                if let Err(e) = store.flush() {
                    eprintln!("warning: persisting {label}: {e}");
                }
                Ok(JobResponse::from(&report))
            }
            Arm::Daemon { addr, client } => {
                println!("submitting {label:<16} to {addr} ({} class)", spec.class);
                let progress = self.stream.progress;
                let response = client
                    .submit_streaming(spec, |frame| {
                        if progress {
                            eprintln!("  {frame}");
                        }
                    })
                    .map_err(|e| {
                        eprintln!("error: job {label}: {e}");
                        StatusCode::Io
                    })?;
                // A job that never ran stops the run, as a spec that
                // does not resolve does in this process.
                if let Some(msg) = &response.error {
                    eprintln!("error: daemon rejected {label}: {msg}");
                    return Err(response.status);
                }
                let cached = if response.cached {
                    " (served from daemon cache)"
                } else {
                    ""
                };
                println!(
                    "  {label}: {} cell(s), {} failed{cached}",
                    response.cells, response.failed
                );
                Ok(response)
            }
            Arm::Shards {
                processes,
                retries,
                dir,
            } => {
                let mut runner = ShardRunner::new(spec.clone(), *processes).with_dir(&*dir);
                if let Some(retries) = retries {
                    runner = runner.with_retries(*retries);
                }
                println!(
                    "sharding {label:<16} across {processes} process(es) under {}",
                    dir.display()
                );
                let outcome = runner.run().map_err(|e| {
                    eprintln!("error: {e}");
                    match e {
                        ShardError::Spec(_) => StatusCode::Usage,
                        ShardError::Io(_) => StatusCode::Io,
                    }
                })?;
                println!(
                    "  {label}: merged {}/{} cell(s), {} failed, launches per shard {:?}",
                    outcome.merged, outcome.cells, outcome.response.failed, outcome.attempts
                );
                if !outcome.failed_shards.is_empty() {
                    eprintln!(
                        "error: {label}: shard(s) {:?} failed permanently; the merged report \
                         is missing their cells",
                        outcome.failed_shards
                    );
                }
                Ok(outcome.response)
            }
        }
    }
}

/// Splits the job's response into one run per selected scenario, by the
/// scenario each result row is labeled with, in selection order; a row
/// that does not parse is an I/O error.
fn take_runs(
    selected: &[Scenario],
    response: &JobResponse,
) -> Result<Vec<ScenarioRun>, StatusCode> {
    selected
        .iter()
        .map(|s| {
            ScenarioRun::new(*s, response.row(s.name)).map_err(|e| {
                eprintln!("error: {}: {e}", s.name);
                StatusCode::Io
            })
        })
        .collect()
}

/// Writes `contents()` to `path`, when one was given; a failed write is
/// reported and becomes [`StatusCode::Io`].
fn write_output(
    path: &Option<String>,
    contents: impl FnOnce() -> String,
) -> Result<(), StatusCode> {
    if let Some(path) = path {
        if let Err(e) = std::fs::write(path, contents()) {
            eprintln!("error: writing {path}: {e}");
            return Err(StatusCode::Io);
        }
        println!("wrote {path}");
    }
    Ok(())
}

/// The one output stage, run once after the selection loop whatever the
/// back end: `--record`'s traces and `--replay`'s count (in-process),
/// `--verify`, the CSV, the JSON, the summary table, then the failed
/// cells. Returns the exit status, `status` folded with its own.
fn write_outputs(
    args: &Args,
    backend: &Backend,
    runs: &[ScenarioRun],
    status: StatusCode,
) -> StatusCode {
    if let Arm::InProcess { .. } = backend.arm {
        if let Some(dir) = &args.record {
            match save_traces(dir, &backend.env.traces) {
                Ok(n) => println!("recorded {n} trace(s) to {dir}"),
                Err(e) => {
                    eprintln!("error: {e}");
                    return status.worst(StatusCode::Io);
                }
            }
        }
        if args.replay.is_some() {
            let cells: usize = runs.iter().map(|r| r.response.cells).sum();
            let replayed = backend.stream.replayed.load(Ordering::Relaxed);
            println!("replay: {replayed}/{cells} cell(s) replayed, the rest ran live");
        }
    }
    let csv = scenarios::csv_text(runs.iter().flat_map(|r| &r.response.csv_rows));

    if args.verify {
        // The serial re-run is always live, in this process and on a
        // fresh environment: with --replay it checks the replayed bytes
        // against a live simulation, not against another replay.
        println!("verify: re-running serially to check byte identity...");
        let selected: Vec<Scenario> = runs.iter().map(|r| r.scenario).collect();
        let serial = spec_for(args, &selected)
            .with_workers(1)
            .with_trace(TraceSpec::Live)
            .execute(&JobEnv::default(), |_| {});
        let name = backend.name();
        match serial {
            Ok(report) if scenarios::to_csv([&report]) == csv => {
                println!("verify: live serial and {name} CSV are byte-identical");
            }
            Ok(_) => {
                eprintln!("error: live serial and {name} results diverge — the bit-identity guarantee is broken");
                return status.worst(StatusCode::VerifyDiverged);
            }
            Err(e) => {
                eprintln!("error: serial re-run: {e}");
                return status.worst(StatusCode::Usage);
            }
        }
    }

    // Rewrite the streamed CSV in canonical (suite) order: the streaming
    // writes are completion-ordered crash insurance; the final file is
    // deterministic, byte-identical across worker counts and back ends.
    if let Err(code) = write_output(&args.csv, || csv)
        .and_then(|()| write_output(&args.json, || scenarios::to_json(runs)))
    {
        return status.worst(code);
    }
    println!("\n{}", scenarios::summary_table(runs));

    let mut failed = 0usize;
    for (label, app, msg) in runs.iter().flat_map(|r| r.response.failures()) {
        failed += 1;
        eprintln!("error: cell {label}/{app}: {msg}");
    }
    if failed > 0 {
        eprintln!(
            "error: {failed} cell(s) failed; surviving results were written \
             (see rows above)"
        );
    }
    status
}

/// Runs the selection as one job through `backend` and the output stage.
fn run_selection(args: &Args, backend: &mut Backend, selected: &[Scenario]) -> StatusCode {
    let spec = spec_for(args, selected);
    if let Err(e) = spec.validate() {
        return usage_error(e);
    }
    let response = match backend.run(selected, &spec) {
        Ok(response) => response,
        Err(code) => return code,
    };
    match take_runs(selected, &response) {
        Ok(runs) => write_outputs(args, backend, &runs, response.status),
        Err(code) => response.status.worst(code),
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return StatusCode::Usage.into();
        }
    };
    // Worker mode: run one shard of a coordinator's work order and exit.
    // No selection flags apply — the work arrives as a JobSpec artifact.
    if let Some(shard) = args.shard {
        let dir = args.shard_dir.as_deref().expect("checked by parse");
        return shard::run_worker(Path::new(dir), shard).into();
    }

    if args.list {
        list();
        if !args.all && args.run.is_empty() && !args.inject_fail {
            return StatusCode::Ok.into();
        }
    }

    let mut selected: Vec<Scenario> = if args.all {
        scenarios::registry()
    } else {
        let mut picked = Vec::new();
        for name in &args.run {
            match scenarios::by_name(name) {
                Some(s) => picked.push(s),
                None => {
                    eprintln!("error: unknown scenario {name} (try --list)");
                    return StatusCode::Usage.into();
                }
            }
        }
        picked
    };
    if args.inject_fail {
        selected.push(scenarios::fault_injection());
    }

    let mut backend = match Backend::open(&args) {
        Ok(backend) => backend,
        Err(code) => return code.into(),
    };
    // `--connect ADDR --shutdown` alone selects nothing: no outputs.
    let mut status = if selected.is_empty() {
        StatusCode::Ok
    } else {
        run_selection(&args, &mut backend, &selected)
    };
    if let (true, Arm::Daemon { addr, client }) = (args.shutdown, backend.arm) {
        match client.shutdown() {
            Ok(()) => println!("daemon at {addr} acknowledged shutdown"),
            Err(e) => {
                eprintln!("error: shutting down daemon at {addr}: {e}");
                status = status.worst(StatusCode::Io);
            }
        }
    }
    status.into()
}
