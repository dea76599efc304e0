//! `replay-ladder`: the three `technique-ladder-*` scenarios recorded
//! once, then replayed the way `--replay DIR` replays them — decode the
//! directory's `.dft` traces, replay with the default batching. The core
//! simulator does nothing here; the thermal kernel dominates.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use distfront::engine::{BatchScheduler, TraceStore};
use distfront::job::{JobEnv, JobReport, JobSpec, TraceSpec};
use distfront::WarmStartCache;
use distfront_trace::ActivityTrace;

use crate::layers::{self, Tracer};
use crate::live::{self, check_cells, traced_cells};
use crate::report::{mean, peak_rss_mb, seeded_rotation, Report, MIN_P90_SAMPLES};
use crate::speed::HostSpeed;
use crate::Args;

pub const SCENARIOS: [&str; 3] = [
    "technique-ladder-dvfs",
    "technique-ladder-fetch-gate",
    "technique-ladder-migration",
];

/// One scenario's recording: its trace directory and the live rows the
/// recording run produced.
struct Recording {
    scenario: &'static str,
    dir: PathBuf,
    live: JobReport,
}

/// Records every scenario into its own directory, as
/// `--run <scenario> --record <dir>` does, probing the host speed after
/// every cell.
fn record(
    report: &mut Report,
    order: &[&'static str],
    work: &Path,
    speed: &Arc<Mutex<HostSpeed>>,
) -> Vec<Recording> {
    order
        .iter()
        .map(|&scenario| {
            let env = JobEnv::default();
            let live = live::execute_probed(
                &live::spec(scenario).with_trace(TraceSpec::Record),
                &env,
                speed,
            );
            let dir = work.join(scenario);
            std::fs::create_dir_all(&dir).expect("work directory is writable");
            let traces = env.traces.traces();
            report.check(
                traces.len() == live.report.cells().len(),
                format!("{scenario}: recorded {} traces", traces.len()),
            );
            for (i, trace) in traces.iter().enumerate() {
                std::fs::write(dir.join(format!("{i:03}.dft")), trace.encode())
                    .expect("work directory is writable");
            }
            Recording {
                scenario,
                dir,
                live,
            }
        })
        .collect()
}

/// Reads and decodes every `.dft` file of `dir` into a fresh store;
/// returns it with the bytes read.
fn load(report: &mut Report, dir: &Path) -> (TraceStore, usize) {
    let store = TraceStore::new();
    let mut bytes = 0;
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("trace directory is readable")
        .map(|e| e.expect("trace directory is readable").path())
        .collect();
    paths.sort();
    for path in paths {
        let raw = std::fs::read(&path).expect("trace file is readable");
        bytes += raw.len();
        match ActivityTrace::decode(&raw) {
            Ok(trace) => store.insert(trace),
            Err(e) => report.check(false, format!("{}: {e}", path.display())),
        }
    }
    (store, bytes)
}

fn replay_spec(scenario: &str) -> JobSpec {
    live::spec(scenario)
        .with_trace(TraceSpec::Replay)
        .with_batch(true)
}

/// One replay invocation: decode the scenario's traces and replay its
/// grid, checked against the recording's live rows.
fn replay_job(report: &mut Report, rec: &Recording) -> JobReport {
    let (store, _) = load(report, &rec.dir);
    let env = JobEnv {
        traces: Arc::new(store),
        ..JobEnv::default()
    };
    let job = replay_spec(rec.scenario)
        .execute(&env, |_| {})
        .expect("registry scenarios always resolve");
    check_cells(report, &job, &live::cell_rows(&rec.live), rec.scenario);
    let cells = job.report.cells().len();
    report.check(
        job.report.replayed() == cells,
        format!(
            "{}: {} of {cells} cells replayed (the rest fell back to live)",
            rec.scenario,
            job.report.replayed()
        ),
    );
    job
}

pub fn run(args: &Args, report: &mut Report, work: &Path) {
    let order = seeded_rotation(&SCENARIOS, args.seed);
    let speed = Arc::new(Mutex::new(HostSpeed::new()));
    let started = Instant::now();
    let recordings = record(report, &order, work, &speed);
    let raw_s = started.elapsed().as_secs_f64();
    let setup_s = speed.lock().expect("probe lock").normalise_s(raw_s);
    println!("replay-ladder: set-up took {raw_s:.4} s of host time, {setup_s:.4} s normalised");
    report.metric("setup_s", setup_s, "s");

    // Whole rounds of the three scenarios, so every run times the same mix.
    // The host-speed probe runs between the invocations.
    let mut speed = HostSpeed::new();
    let mut cells = 0;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < args.seconds || speed.spans() < MIN_P90_SAMPLES {
        for rec in &recordings {
            let t = Instant::now();
            let job = replay_job(report, rec);
            speed.span(t.elapsed().as_secs_f64() * 1e3);
            cells += job.report.cells().len();
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    println!(
        "replay-ladder: {cells} cells in {elapsed:.2} s; request = decode + replay of one \
         scenario, {} samples",
        speed.spans()
    );
    speed.report(report, cells);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// The traced run: codec, unbatched replay untraced and traced, and the
/// batch scheduler called directly on each scenario's cohort.
pub fn traced(args: &Args, report: &mut Report, work: &Path) {
    let order = seeded_rotation(&SCENARIOS, args.seed);
    let recordings = record(
        report,
        &order,
        work,
        &Arc::new(Mutex::new(HostSpeed::new())),
    );
    let specs: Vec<JobSpec> = order.iter().map(|s| replay_spec(s)).collect();
    live::job_fingerprint_us(report, &specs);

    let mut decode_ms = Vec::new();
    let mut bytes = 0;
    let mut cells = 0;
    let mut warm_hits = 0;
    let mut stores = Vec::new();
    for rec in &recordings {
        let t = Instant::now();
        let (store, read) = load(report, &rec.dir);
        decode_ms.push(t.elapsed().as_secs_f64() * 1e3);
        bytes += read;
        cells += rec.live.report.cells().len();
        stores.push(Arc::new(store));
        warm_hits += replay_job(report, rec).report.warm_hits();
    }
    report.metric("trace.decode_ms", mean(&decode_ms), "ms");
    report.metric(
        "trace.bytes_per_cell",
        bytes as f64 / cells.max(1) as f64,
        "B",
    );
    report.metric(
        "sweep.warm_hit_ratio",
        warm_hits as f64 / cells.max(1) as f64,
        "ratio",
    );

    let mut untraced_ms = Vec::new();
    let mut batch_ms = 0.0;
    let mut cohorts = 0;
    let tracer = Tracer::new();
    for ((rec, spec), store) in recordings.iter().zip(&specs).zip(&stores) {
        let resolved = spec.resolve().expect("registry scenarios always resolve");
        let n_apps = resolved.workloads.len();
        let trace_of = |i: usize| {
            let cfg = &resolved.configs[i / n_apps];
            store.get(
                cfg.name,
                resolved.workloads[i % n_apps].name(),
                &cfg.replay_points(),
            )
        };
        let members: Vec<(usize, Arc<ActivityTrace>)> = (0..rec.live.report.cells().len())
            .filter_map(|i| trace_of(i).map(|t| (i, t)))
            .collect();

        untraced_ms.extend(traced_cells(
            report,
            &tracer,
            spec,
            &rec.live,
            Some(&trace_of),
        ));

        let t = Instant::now();
        let outcomes = BatchScheduler::run_cohort(
            &resolved.configs,
            &resolved.workloads,
            &members,
            Arc::new(WarmStartCache::new()),
        );
        batch_ms += t.elapsed().as_secs_f64() * 1e3;
        cohorts += 1;
        for (outcome, (i, _)) in outcomes.iter().zip(&members) {
            let want = rec.live.report.cells()[*i].result.as_ref().ok();
            report.check(
                outcome.result.as_ref().ok() == want && outcome.result.is_ok(),
                format!("{}: batched cell {i} differs from live", rec.scenario),
            );
        }
    }
    layers::emit(report, &tracer.tally(), mean(&untraced_ms));
    report.metric("batch.ms_per_cell", batch_ms / cells.max(1) as f64, "ms");
    report.metric(
        "batch.cells_per_cohort",
        cells as f64 / cohorts.max(1) as f64,
        "count",
    );
}
