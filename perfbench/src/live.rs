//! `live-grid`: serial in-process `JobSpec` runs of three scenarios over
//! the 26 SPEC2000 applications, simulated live — the path where the
//! core simulator dominates. The traced run also pushes the same jobs
//! through `ShardRunner` to measure the `shard` layer, and runs the
//! daemon session of `sweepd.rs` for the `server` and `store` layers.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use distfront::job::{JobEnv, JobReport, JobSpec};
use distfront::scenarios::csv_row;
use distfront::shard::ShardRunner;
use distfront::CoupledEngine;
use distfront_trace::ActivityTrace;

use crate::layers::{self, Tracer};
use crate::report::{mean, peak_rss_mb, seeded_rotation, Report, MIN_P90_SAMPLES};
use crate::speed::HostSpeed;
use crate::sweepd;
use crate::Args;

/// The grid's configurations: the baseline, the full distributed
/// frontend, and global DVFS (which engages at this run length).
pub const SCENARIOS: [&str; 3] = ["baseline", "drc+bh+ab", "dtm-dvfs"];

/// The CLI's full-suite run length: long enough for DTM to engage.
pub const UOPS: u64 = 200_000;

/// Worker processes of the sharded pass (the host's two cores).
const SHARD_PROCESSES: usize = 2;

pub fn spec(scenario: &str) -> JobSpec {
    JobSpec::scenario(scenario).with_uops(UOPS).with_workers(1)
}

/// Per-cell CSV rows of a job (`None` for a failed cell), grid order.
pub fn cell_rows(job: &JobReport) -> Vec<Option<String>> {
    job.report
        .cells()
        .iter()
        .map(|c| c.result.as_ref().ok().map(|r| csv_row(job.row_label(c), r)))
        .collect()
}

fn execute(spec: &JobSpec, env: &JobEnv) -> JobReport {
    spec.execute(env, |_| {})
        .expect("registry scenarios always resolve")
}

/// Executes `spec`, probing the host speed after every cell, outside
/// the cell's own timing.
pub fn execute_probed(spec: &JobSpec, env: &JobEnv, speed: &Arc<Mutex<HostSpeed>>) -> JobReport {
    let probe = Arc::clone(speed);
    spec.execute(env, move |cell| {
        probe
            .lock()
            .expect("probe lock")
            .span(cell.wall_time_s * 1e3);
    })
    .expect("registry scenarios always resolve")
}

/// Checks every cell of `job` against the reference rows, one operation
/// per cell.
pub fn check_cells(report: &mut Report, job: &JobReport, reference: &[Option<String>], what: &str) {
    let rows = cell_rows(job);
    for i in 0..rows.len().max(reference.len()) {
        let (row, want) = (
            rows.get(i).cloned().flatten(),
            reference.get(i).cloned().flatten(),
        );
        report.check(
            row.is_some() && row == want,
            format!("{what}: cell {i} differs from the reference pass: {row:?}"),
        );
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let order = seeded_rotation(&SCENARIOS, args.seed);
    let specs: Vec<JobSpec> = order.iter().map(|s| spec(s)).collect();
    let env = JobEnv::default();

    // Set-up: one warm-up pass, which also fills the warm-start cache the
    // timed passes share.
    let speed = Arc::new(Mutex::new(HostSpeed::new()));
    let started = Instant::now();
    let reference: Vec<Vec<Option<String>>> = specs
        .iter()
        .map(|s| cell_rows(&execute_probed(s, &env, &speed)))
        .collect();
    let raw_s = started.elapsed().as_secs_f64();
    let setup_s = speed.lock().expect("probe lock").normalise_s(raw_s);
    println!("live-grid: set-up took {raw_s:.4} s of host time, {setup_s:.4} s normalised");
    report.metric("setup_s", setup_s, "s");

    // Whole rounds of the three jobs, so every run times the same mix.
    let speed = Arc::new(Mutex::new(HostSpeed::new()));
    let mut rounds = 0;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < args.seconds
        || speed.lock().expect("probe lock").spans() < MIN_P90_SAMPLES
    {
        for ((spec, want), scenario) in specs.iter().zip(&reference).zip(&order) {
            let job = execute_probed(spec, &env, &speed);
            check_cells(report, &job, want, scenario);
        }
        rounds += 1;
    }
    let elapsed = started.elapsed().as_secs_f64();
    let speed = speed.lock().expect("probe lock");
    println!(
        "live-grid: {rounds} rounds, {} cells in {elapsed:.2} s; request = one cell, {} samples",
        speed.spans(),
        speed.spans()
    );
    speed.report(report, speed.spans());
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// The traced run: an untraced one-shot pass (reference rows and
/// timings), the same cells traced stage by stage, one sharded pass,
/// then the daemon session.
pub fn traced(args: &Args, report: &mut Report, work: &Path) {
    let order = seeded_rotation(&SCENARIOS, args.seed);
    let specs: Vec<JobSpec> = order.iter().map(|s| spec(s)).collect();

    let env = JobEnv::default();
    let mut serial_s = 0.0;
    let mut jobs = Vec::new();
    for s in &specs {
        let started = Instant::now();
        jobs.push(execute(s, &env));
        serial_s += started.elapsed().as_secs_f64();
    }
    let outcomes: Vec<_> = jobs.iter().flat_map(|j| j.report.cells()).collect();
    let warm_hits = outcomes.iter().filter(|c| c.warm_hit).count();
    report.metric(
        "sweep.warm_hit_ratio",
        warm_hits as f64 / outcomes.len().max(1) as f64,
        "ratio",
    );
    job_fingerprint_us(report, &specs);

    let tracer = Tracer::new();
    let mut plain_ms = Vec::new();
    for (s, job) in specs.iter().zip(&jobs) {
        plain_ms.extend(traced_cells(report, &tracer, s, job, None));
    }
    layers::emit(report, &tracer.tally(), mean(&plain_ms));

    // One sharded pass: merged rows must match the serial pass byte for
    // byte, with every shard done on its first launch.
    let mut shard_s = 0.0;
    let mut attempts = 0usize;
    for (i, (s, job)) in specs.iter().zip(&jobs).enumerate() {
        let runner = ShardRunner::new(s.clone(), SHARD_PROCESSES)
            .with_dir(work.join(format!("shard-{i}")))
            .with_retries(0);
        let started = Instant::now();
        let outcome = runner.run();
        shard_s += started.elapsed().as_secs_f64();
        let want: Vec<String> = job.csv_rows();
        match outcome {
            Ok(o) => {
                attempts += o.attempts.iter().sum::<usize>();
                report.check(
                    o.csv_rows == want && o.failed_shards.is_empty() && o.merged == o.cells,
                    format!("{}: sharded rows differ from the serial pass", order[i]),
                );
                report.check(
                    o.attempts.iter().all(|&a| a == 1),
                    format!("{}: a shard was re-queued", order[i]),
                );
            }
            Err(e) => report.check(false, format!("{}: sharded run failed: {e}", order[i])),
        }
    }
    report.metric(
        "shard.overhead_s",
        shard_s - serial_s / SHARD_PROCESSES as f64,
        "s",
    );
    report.metric("shard.attempts", attempts as f64, "count");

    sweepd::session(args, report, work);
}

/// Runs every cell of `spec` twice, interleaved so drift hits both
/// alike: plainly (tracing off), then traced. Both must equal the cell
/// of `untraced`; `replay` supplies the trace to replay a cell from.
/// Returns the plain runs' times in ms, the tracing overhead's baseline.
pub fn traced_cells(
    report: &mut Report,
    tracer: &Tracer,
    spec: &JobSpec,
    untraced: &JobReport,
    replay: Option<&dyn Fn(usize) -> Option<Arc<ActivityTrace>>>,
) -> Vec<f64> {
    let resolved = spec.resolve().expect("registry scenarios always resolve");
    let n_apps = resolved.workloads.len();
    let mut plain_ms = Vec::new();
    for (i, cell) in untraced.report.cells().iter().enumerate() {
        let cfg = &resolved.configs[i / n_apps];
        let workload = &resolved.workloads[i % n_apps];
        let trace = replay.and_then(|get| get(i));
        if replay.is_some() && trace.is_none() {
            report.check(false, format!("{}: no trace to replay", cell.label()));
            continue;
        }
        let started = Instant::now();
        let mut engine = CoupledEngine::for_workload(cfg, workload.clone());
        if let Some(trace) = &trace {
            engine = engine.with_replay(Arc::clone(trace));
        }
        let plain = engine.run();
        plain_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let traced = tracer.cell(cfg, workload, trace.as_ref());
        let want = cell.result.as_ref().ok();
        report.check(
            want.is_some() && plain.as_ref().ok() == want && traced.as_ref().ok() == want,
            format!(
                "{}: plain or traced result differs from the job's",
                cell.label()
            ),
        );
    }
    plain_ms
}

/// The `job` layer: content-addressing cost per submission
/// (`JobSpec::fingerprint` resolves the target and hashes it).
pub fn job_fingerprint_us(report: &mut Report, specs: &[JobSpec]) {
    const REPS: usize = 200;
    let started = Instant::now();
    for _ in 0..REPS {
        for s in specs {
            std::hint::black_box(s.fingerprint().expect("registry scenarios resolve"));
        }
    }
    let us = started.elapsed().as_secs_f64() * 1e6 / (REPS * specs.len().max(1)) as f64;
    report.metric("job.fingerprint_us", us, "us");
}
