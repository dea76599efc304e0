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
//!   --csv PATH       write results as CSV (rows stream to the file as cells
//!                    complete; rewritten in canonical order at the end)
//!   --json PATH      write results as JSON
//!   --progress       print one line per cell as it completes
//!   --verify         also run serially and fail unless the bytes match
//!   --inject-fail    append a divergent-leakage scenario whose cells all
//!                    fail (exercises the partial-results path; CI uses it)
//!   --record DIR     simulate live and write one .dft activity trace per
//!                    successful cell into DIR
//!   --replay DIR     load .dft traces from DIR and replay compatible cells
//!                    instead of re-simulating the core (live fallback
//!                    otherwise); byte-identical output, several times
//!                    faster per replayed cell
//!   --state-dir DIR  run against DIR's crash-safe segment store (the
//!                    same layout `distfront-sweepd --state-dir` uses):
//!                    scenarios whose content fingerprint is already
//!                    stored are served from disk byte-identically, new
//!                    ones run and are appended (local-only; excludes
//!                    --record/--replay/--verify/--json)
//!
//! Multi-process mode (see [`distfront::shard`]):
//!   --processes N    shard each scenario's grid across N worker
//!                    processes sharing one state directory; the merged
//!                    report is byte-identical to a serial run and dead
//!                    workers are re-queued with bounded retries
//!                    (excludes --connect/--state-dir/--record/--replay/
//!                    --json; --verify compares against an in-process
//!                    serial rerun)
//!   --shard-retries N  re-queue a failed shard up to N times before
//!                    declaring it dead (default 2)
//!   --shard-dir DIR  the shared state directory (default: under the
//!                    system temp dir); each scenario gets a subdirectory
//!   --shard i/N      worker mode — run one shard of DIR's work order and
//!                    exit (launched by the coordinator; needs
//!                    --shard-dir)
//!
//! Server-client mode (see `distfront-sweepd`):
//!   --connect ADDR   submit the selected scenarios as jobs to a running
//!                    sweep daemon instead of executing locally; streams
//!                    results back and honors --smoke/--uops/--workers/
//!                    --integrator/--csv/--progress (--record,
//!                    --replay, --json and --verify are local-only)
//!   --class C        job class for --connect: interactive (default,
//!                    run-ahead) or deferrable (queued bulk work)
//!   --shutdown       after any jobs complete, ask the daemon to drain
//!                    and exit (usable alone: --connect ADDR --shutdown)
//! ```
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
use std::path::Path;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};

use distfront::engine::{CellOutcome, TraceStore};
use distfront::job::{JobClass, JobEnv, JobReport, JobSpec, JobSpecError, StatusCode, TraceSpec};
use distfront::scenarios::{self, Scenario};
use distfront::server::{protocol, Client, JobResponse, ResultCache};
use distfront::shard::{self, ShardError, ShardRunner, ShardSpec};
use distfront::store::DurableStore;
use distfront_thermal::Integrator;
use distfront_trace::ActivityTrace;

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
    shard: Option<String>,
}

fn usage() -> &'static str {
    "usage: distfront-scenarios --list | --all | --run NAME [--run NAME ...]\n\
     options: [--smoke] [--uops N] [--workers N] [--integrator rk4|expm] \
     [--csv PATH] [--json PATH] [--progress] [--verify] [--inject-fail] \
     [--record DIR | --replay DIR] [--state-dir DIR]\n\
     multi-process: [--processes N [--shard-retries N] [--shard-dir DIR]]\n\
     worker:  [--shard i/N --shard-dir DIR]\n\
     client:  [--connect ADDR [--class interactive|deferrable] [--shutdown]]"
}

fn parse(mut argv: std::env::Args) -> Result<Args, String> {
    let mut args = Args {
        list: false,
        all: false,
        run: Vec::new(),
        smoke: false,
        uops: None,
        workers: None,
        integrator: None,
        csv: None,
        json: None,
        progress: false,
        verify: false,
        inject_fail: false,
        record: None,
        replay: None,
        state_dir: None,
        connect: None,
        class: JobClass::Interactive,
        shutdown: false,
        processes: None,
        shard_retries: None,
        shard_dir: None,
        shard: None,
    };
    argv.next(); // program name
    while let Some(a) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "--list" => args.list = true,
            "--all" => args.all = true,
            "--run" => args.run.push(value("--run")?),
            "--smoke" => args.smoke = true,
            "--uops" => {
                let v = value("--uops")?;
                args.uops = Some(v.parse().map_err(|_| format!("bad --uops value {v}"))?);
            }
            "--workers" => {
                let v = value("--workers")?;
                let w: usize = v.parse().map_err(|_| format!("bad --workers value {v}"))?;
                if w == 0 {
                    return Err("--workers must be at least 1".into());
                }
                args.workers = Some(w);
            }
            "--integrator" => {
                let v = value("--integrator")?;
                args.integrator = Some(v.parse()?);
            }
            "--csv" => args.csv = Some(value("--csv")?),
            "--json" => args.json = Some(value("--json")?),
            "--progress" => args.progress = true,
            "--verify" => args.verify = true,
            "--inject-fail" => args.inject_fail = true,
            "--record" => args.record = Some(value("--record")?),
            "--replay" => args.replay = Some(value("--replay")?),
            "--state-dir" => args.state_dir = Some(value("--state-dir")?),
            "--connect" => args.connect = Some(value("--connect")?),
            "--class" => {
                let v = value("--class")?;
                args.class = JobClass::parse(&v).ok_or_else(|| format!("bad --class value {v}"))?;
            }
            "--shutdown" => args.shutdown = true,
            "--processes" => {
                let v = value("--processes")?;
                let p: usize = v
                    .parse()
                    .map_err(|_| format!("bad --processes value {v}"))?;
                if p == 0 {
                    return Err("--processes must be at least 1".into());
                }
                args.processes = Some(p);
            }
            "--shard-retries" => {
                let v = value("--shard-retries")?;
                args.shard_retries = Some(
                    v.parse()
                        .map_err(|_| format!("bad --shard-retries value {v}"))?,
                );
            }
            "--shard-dir" => args.shard_dir = Some(value("--shard-dir")?),
            "--shard" => args.shard = Some(value("--shard")?),
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
    if args.processes.is_some()
        && (args.connect.is_some()
            || args.state_dir.is_some()
            || args.record.is_some()
            || args.replay.is_some()
            || args.json.is_some())
    {
        return Err("--processes excludes --connect/--state-dir/--record/--replay/--json".into());
    }
    if args.record.is_some() && args.replay.is_some() {
        return Err("--record and --replay are mutually exclusive".into());
    }
    if args.shutdown && args.connect.is_none() {
        return Err("--shutdown needs --connect".into());
    }
    if args.connect.is_some()
        && (args.record.is_some() || args.replay.is_some() || args.verify || args.json.is_some())
    {
        return Err("--record/--replay/--verify/--json are local-only (not with --connect)".into());
    }
    if args.state_dir.is_some()
        && (args.record.is_some()
            || args.replay.is_some()
            || args.verify
            || args.json.is_some()
            || args.connect.is_some())
    {
        return Err(
            "--state-dir excludes --record/--replay/--verify/--json/--connect \
             (point --connect at a `sweepd --state-dir` instead)"
                .into(),
        );
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
/// cells complete, so a killed run still leaves partial results on disk.
/// Rows arrive in completion order; `main` rewrites the file in canonical
/// order once the run finishes.
struct CellStream {
    scenario: &'static str,
    progress: bool,
    csv: Option<Arc<Mutex<std::fs::File>>>,
}

impl CellStream {
    fn observe(&self, cell: &CellOutcome) {
        if self.progress {
            match &cell.result {
                Ok(_) => eprintln!(
                    "  [{}/{}] ok in {:.2}s{}",
                    self.scenario,
                    cell.app_name,
                    cell.wall_time_s,
                    if cell.replayed { " (replayed)" } else { "" }
                ),
                Err(e) => eprintln!("  [{}/{}] FAILED: {e}", self.scenario, cell.app_name),
            }
        }
        if let (Some(file), Ok(r)) = (&self.csv, &cell.result) {
            let mut file = file.lock().expect("csv stream poisoned");
            let row = scenarios::csv_row(self.scenario, r);
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
/// point families of the same cell (say, a nominal-only baseline recording
/// and a DVFS-family one) from clobbering each other on disk, mirroring
/// the store's keying.
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
/// scenario. One shared handle serves every scenario's stream.
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

/// Executes `spec_of(s)` for every selected scenario on `env`, quietly,
/// and returns the canonical CSV: the re-runs behind `--verify`.
fn rerun_csv(
    selected: &[Scenario],
    env: &JobEnv,
    spec_of: impl Fn(&Scenario) -> JobSpec,
) -> Result<String, JobSpecError> {
    let reports = selected
        .iter()
        .map(|s| spec_of(s).execute(env, |_| {}))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(scenarios::to_csv(&reports))
}

/// The job a scenario selection + CLI flags describe — the same
/// [`JobSpec`] every mode runs (in-process, on a daemon, sharded across
/// processes), so a mode changes where the spec runs, never what it
/// means.
fn spec_for(args: &Args, scenario: &str) -> JobSpec {
    let mut spec = JobSpec::scenario(scenario)
        .with_smoke(args.smoke)
        .with_class(args.class);
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

/// Writes `csv` to the `--csv` path, when one was given; a failed write
/// is reported and becomes [`StatusCode::Io`].
fn write_csv(args: &Args, csv: &str) -> Result<(), StatusCode> {
    if let Some(path) = &args.csv {
        if let Err(e) = std::fs::write(path, csv) {
            eprintln!("error: writing {path}: {e}");
            return Err(StatusCode::Io);
        }
        println!("wrote {path}");
    }
    Ok(())
}

/// Reports one failed cell on stderr: the one failed-cell line of every
/// front end (one-shot, `--connect`, `--state-dir`, `--processes`).
fn report_failed_cell(label: &str, app: &str, msg: &str) {
    eprintln!("error: cell {label}/{app}: {msg}");
}

/// Reports a job response's failed cells, moves its CSV rows into `rows`
/// and returns its status.
fn take_rows(response: JobResponse, rows: &mut Vec<String>) -> StatusCode {
    for (label, app, msg) in response.failures() {
        report_failed_cell(&label, &app, &msg);
    }
    rows.extend(response.csv_rows);
    response.status
}

/// Submits the selected scenarios to a running daemon and streams the
/// results back; the thin-client half of the CLI.
fn client_main(args: &Args, selected: &[Scenario]) -> StatusCode {
    let addr = args.connect.as_deref().expect("checked by caller");
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("error: connecting to {addr}: {e}");
            return StatusCode::Io;
        }
    };
    let mut status = StatusCode::Ok;
    let mut rows: Vec<String> = Vec::new();
    for s in selected {
        let spec = spec_for(args, s.name);
        println!("submitting {:<16} to {addr} ({} class)", s.name, spec.class);
        let progress = args.progress;
        let response = match client.submit_streaming(&spec, |frame| {
            if progress {
                eprintln!("  {frame}");
            }
        }) {
            Ok(response) => response,
            Err(e) => {
                eprintln!("error: job {}: {e}", s.name);
                return StatusCode::Io;
            }
        };
        if let Some(msg) = &response.error {
            eprintln!("error: daemon rejected {}: {msg}", s.name);
        } else {
            println!(
                "  {}: {} cell(s), {} failed{}",
                s.name,
                response.cells,
                response.failed,
                if response.cached {
                    " (served from daemon cache)"
                } else {
                    ""
                }
            );
        }
        status = status.worst(take_rows(response, &mut rows));
    }
    if let Err(code) = write_csv(args, &scenarios::csv_text(&rows)) {
        return status.worst(code);
    }
    if args.shutdown {
        match client.shutdown() {
            Ok(()) => println!("daemon at {addr} acknowledged shutdown"),
            Err(e) => {
                eprintln!("error: shutting down daemon at {addr}: {e}");
                return status.worst(StatusCode::Io);
            }
        }
    }
    status
}

/// Runs the selected scenarios against a local [`DurableStore`] through
/// the daemon's persistent [`ResultCache`]: jobs already persisted are
/// served from disk (byte-identical frames, no cells solved), novel ones
/// execute, are inserted and flushed before they are reported — the
/// daemon's cache semantics without the daemon, on the same state-dir
/// layout `sweepd --state-dir` reads and writes.
fn state_dir_main(args: &Args, selected: &[Scenario]) -> StatusCode {
    let dir = args.state_dir.as_deref().expect("checked by caller");
    let (store, snapshot) = match DurableStore::open(dir) {
        Ok(opened) => opened,
        Err(e) => {
            eprintln!("error: opening state dir {dir}: {e}");
            return StatusCode::Io;
        }
    };
    let store = Arc::new(store);
    let results = ResultCache::persistent(Arc::clone(&store), snapshot.results);
    println!(
        "state dir {dir}: {} result(s), {} trace(s) loaded ({} records skipped)",
        results.len(),
        snapshot.traces.len(),
        snapshot.skipped
    );
    let env = JobEnv {
        traces: Arc::new(TraceStore::persistent(Arc::clone(&store), snapshot.traces)),
    };

    let mut status = StatusCode::Ok;
    let mut rows: Vec<String> = Vec::new();
    for s in selected {
        let spec = spec_for(args, s.name);
        let fingerprint = match spec.fingerprint() {
            Ok(fingerprint) => fingerprint,
            Err(e) => {
                eprintln!("error: {e}");
                return StatusCode::Usage;
            }
        };
        let frames = if let Some(frames) = results.lookup(fingerprint) {
            println!(
                "  {}: served from state dir (fp={fingerprint:016x})",
                s.name
            );
            frames
        } else {
            println!("running {:<16} (fp={fingerprint:016x})", s.name);
            let stream = CellStream {
                scenario: s.name,
                progress: args.progress,
                csv: None,
            };
            let report = match spec.execute(&env, move |cell| stream.observe(cell)) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("error: {e}");
                    return StatusCode::Usage;
                }
            };
            let frames = protocol::result_frames(&report);
            results.insert(fingerprint, frames.clone());
            // The daemon's insert-batch boundary: durable before the
            // result is reported anywhere.
            if let Err(e) = store.flush() {
                eprintln!("warning: persisting {}: {e}", s.name);
            }
            Arc::new(frames)
        };
        match JobResponse::from_frames(&frames) {
            Ok(response) => status = status.worst(take_rows(response, &mut rows)),
            Err(e) => {
                eprintln!("error: {}: stored result unreadable: {e}", s.name);
                return status.worst(StatusCode::Io);
            }
        }
    }
    if let Err(code) = write_csv(args, &scenarios::csv_text(&rows)) {
        return status.worst(code);
    }
    status
}

/// Runs the selected scenarios sharded across `--processes` worker
/// processes via [`ShardRunner`], merging each scenario's shard
/// artifacts into rows byte-identical to a serial run. `--verify`
/// cross-checks that claim against an in-process serial live rerun.
fn processes_main(args: &Args, selected: &[Scenario]) -> StatusCode {
    let n = args.processes.expect("checked by caller");
    let base = match &args.shard_dir {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("distfront-shard-{}", std::process::id())),
    };
    let mut status = StatusCode::Ok;
    let mut rows: Vec<String> = Vec::new();
    for s in selected {
        let mut runner = ShardRunner::new(spec_for(args, s.name), n).with_dir(base.join(s.name));
        if let Some(retries) = args.shard_retries {
            runner = runner.with_retries(retries);
        }
        println!(
            "sharding {:<16} across {n} process(es) under {}",
            s.name,
            base.display()
        );
        let outcome = match runner.run() {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("error: {e}");
                return match e {
                    ShardError::Spec(_) => StatusCode::Usage,
                    ShardError::Io(_) => StatusCode::Io,
                };
            }
        };
        println!(
            "  {}: merged {}/{} cell(s), {} failed, launches per shard {:?}",
            s.name,
            outcome.merged,
            outcome.cells,
            outcome.failures.len(),
            outcome.attempts
        );
        for (label, app, msg) in &outcome.failures {
            report_failed_cell(label, app, msg);
        }
        if !outcome.failed_shards.is_empty() {
            eprintln!(
                "error: {}: shard(s) {:?} failed permanently; the merged report \
                 is missing their cells",
                s.name, outcome.failed_shards
            );
        }
        rows.extend(outcome.csv_rows);
        status = status.worst(outcome.status);
    }
    let merged = scenarios::csv_text(&rows);
    if args.verify {
        println!("verify: re-running serially in-process to check byte identity...");
        let serial = match rerun_csv(selected, &JobEnv::default(), |s| {
            spec_for(args, s.name).with_workers(1)
        }) {
            Ok(serial) => serial,
            Err(e) => {
                eprintln!("error: {e}");
                return StatusCode::Usage;
            }
        };
        if serial != merged {
            eprintln!(
                "error: serial and {n}-process results diverge — the bit-identity \
                 guarantee is broken"
            );
            return status.worst(StatusCode::VerifyDiverged);
        }
        println!("verify: serial and {n}-process CSV are byte-identical");
    }
    if let Err(code) = write_csv(args, &merged) {
        return status.worst(code);
    }
    status
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
    if let Some(shard) = &args.shard {
        let spec = match ShardSpec::parse(shard) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("error: {e}\n{}", usage());
                return StatusCode::Usage.into();
            }
        };
        let dir = args.shard_dir.as_deref().expect("checked by parse");
        return shard::run_worker(Path::new(dir), spec).into();
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

    if args.connect.is_some() {
        return client_main(&args, &selected).into();
    }
    if args.state_dir.is_some() {
        return state_dir_main(&args, &selected).into();
    }
    if args.processes.is_some() {
        return processes_main(&args, &selected).into();
    }

    local_main(&args, &selected).into()
}

/// Runs the selected scenarios in this process: one [`JobSpec`] per
/// scenario through [`JobSpec::execute`], all sharing one [`JobEnv`]
/// whose trace store `--replay` loads from and `--record` saves to.
fn local_main(args: &Args, selected: &[Scenario]) -> StatusCode {
    let trace = if args.record.is_some() {
        TraceSpec::Record
    } else if args.replay.is_some() {
        TraceSpec::Replay
    } else {
        TraceSpec::Live
    };
    let mut env = JobEnv::default();
    if let Some(dir) = &args.replay {
        match load_traces(dir) {
            Ok(store) => {
                println!("replay: loaded {} trace(s) from {dir}", store.len());
                env.traces = store;
            }
            Err(e) => {
                eprintln!("error: {e}");
                return StatusCode::Io;
            }
        }
    }
    // Resolved here, not left at 0, so the count printed is the count run.
    let workers = args
        .workers
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get));
    let spec_of = |s: &Scenario| {
        spec_for(args, s.name)
            .with_workers(workers)
            .with_trace(trace)
    };
    let csv_stream = args.csv.as_deref().and_then(open_csv_stream);
    let mut reports: Vec<JobReport> = Vec::with_capacity(selected.len());
    for s in selected {
        let spec = spec_of(s);
        println!(
            "running {:<16} ({} workloads x {} uops, {workers} workers, {} integrator)",
            s.name,
            s.workloads(spec.smoke).len(),
            spec.uops,
            spec.integrator
        );
        let stream = CellStream {
            scenario: s.name,
            progress: args.progress,
            csv: csv_stream.clone(),
        };
        match spec.execute(&env, move |cell| stream.observe(cell)) {
            Ok(report) => reports.push(report),
            Err(e) => {
                eprintln!("error: {e}");
                return StatusCode::Usage;
            }
        }
    }
    let csv = scenarios::to_csv(&reports);

    if let Some(dir) = &args.record {
        match save_traces(dir, &env.traces) {
            Ok(n) => println!("recorded {n} trace(s) to {dir}"),
            Err(e) => {
                eprintln!("error: {e}");
                return StatusCode::Io;
            }
        }
    }
    if trace == TraceSpec::Replay {
        let replayed: usize = reports.iter().map(|r| r.report.replayed()).sum();
        let cells: usize = reports.iter().map(|r| r.report.cells().len()).sum();
        println!("replay: {replayed}/{cells} cell(s) replayed, the rest ran live");
    }

    if args.verify {
        // The serial re-run is always live and gets a fresh environment:
        // with --replay it checks the replayed bytes against a live
        // simulation, not against another replay.
        println!("verify: re-running serially to check byte identity...");
        match rerun_csv(selected, &JobEnv::default(), |s| {
            spec_of(s).with_workers(1).with_trace(TraceSpec::Live)
        }) {
            Ok(serial) if serial == csv => {
                println!("verify: serial and {workers}-worker CSV are byte-identical");
            }
            Ok(_) => {
                eprintln!(
                    "error: serial and {workers}-worker results diverge — the \
                     bit-identity guarantee is broken"
                );
                return StatusCode::VerifyDiverged;
            }
            Err(e) => {
                eprintln!("error: serial re-run: {e}");
                return StatusCode::Usage;
            }
        }
    }

    // Rewrite the streamed CSV in canonical (suite) order: the streaming
    // writes above are completion-ordered crash insurance; the final file
    // is deterministic, byte-identical across worker counts.
    if let Err(code) = write_csv(args, &csv) {
        return code;
    }
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, scenarios::to_json(selected.iter().zip(&reports))) {
            eprintln!("error: writing {path}: {e}");
            return StatusCode::Io;
        }
        println!("wrote {path}");
    }

    println!(
        "\n{}",
        scenarios::summary_table(selected.iter().zip(&reports))
    );

    let mut failed = 0usize;
    for (label, app, msg) in reports.iter().flat_map(JobReport::failure_lines) {
        failed += 1;
        report_failed_cell(&label, &app, &msg);
    }
    if failed > 0 {
        eprintln!(
            "error: {failed} cell(s) failed; surviving results were written \
             (see rows above)"
        );
        return StatusCode::CellsFailed;
    }
    StatusCode::Ok
}
