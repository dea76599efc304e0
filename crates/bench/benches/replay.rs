//! Record-once / replay-many benchmark: the cost of a thermal/DTM sweep
//! cell driven live (full core simulation) vs replayed from a recorded
//! [`ActivityTrace`].
//!
//! Before the Criterion timing loops run, the comparison is measured
//! head-to-head on a small suite: every cell runs live N times, then the
//! suite is recorded once and replayed N times under a power-level DTM
//! sweep. The same head-to-head then repeats for the DFAT v2 ladder — a
//! core-perturbing global-DVFS sweep whose recordings carry a
//! multi-operating-point family, so replay selects among recorded points
//! instead of rejecting the policy. The numbers — per-cell live and
//! replay times, the recording overhead, the replay speedups, and the
//! encoded trace bytes per cell for both the nominal-only and the
//! multi-point family — are written to `BENCH_replay.json` at the
//! workspace root (override the path with `DISTFRONT_BENCH_REPLAY_JSON`),
//! so CI tracks the record/replay trajectory across PRs; the acceptance
//! bar is ≥ 2× per cell, and the measured speedup is typically far
//! higher because replay skips the core simulator entirely. Byte
//! identity between the live and replayed reports is asserted, not
//! assumed. Runs in `--test` mode too.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use distfront::engine::{CoupledEngine, TraceMode, TraceStore};
use distfront::{DtmSpec, DvfsPolicy, EmergencyPolicy, ExperimentConfig, SweepRunner};
use distfront_bench::kernel_app;
use distfront_trace::{AppProfile, Workload};
use std::hint::black_box;

/// Per-app run length: long enough that a cell closes many intervals,
/// short enough for CI (`DISTFRONT_BENCH_UOPS` raises it).
fn uops() -> u64 {
    std::env::var("DISTFRONT_BENCH_UOPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(60_000)
}

fn suite() -> Vec<Workload> {
    [
        AppProfile::test_tiny(),
        kernel_app(),
        *AppProfile::by_name("mcf").expect("profile exists"),
    ]
    .map(Workload::from)
    .to_vec()
}

/// The power-side sweep driven from the recording: the emergency throttle
/// at a trip that engages on the hot cells (a pure thermal/DTM change,
/// exactly what record/replay accelerates).
fn throttled(uops: u64) -> ExperimentConfig {
    ExperimentConfig::baseline()
        .with_uops(uops)
        .with_dtm(DtmSpec::Emergency(EmergencyPolicy::with_threshold(100.0)))
}

/// Per-cell live vs record-once-replay-many numbers for one sweep pair:
/// the suite runs live under `replay_cfg` `rounds` times, is recorded
/// once under `record_cfg`, and replays `rounds` times from that store.
/// Byte identity between live and replayed reports is asserted. Returns
/// `(live_ms, replay_ms, record_ms, trace_bytes)` per cell.
fn head_to_head(
    label: &str,
    record_cfg: &ExperimentConfig,
    replay_cfg: &ExperimentConfig,
    apps: &[Workload],
    rounds: u32,
) -> (f64, f64, f64, f64) {
    // Live reference: the target sweep, simulated end to end.
    let t0 = Instant::now();
    let mut live = None;
    for _ in 0..rounds {
        live = Some(SweepRunner::serial().try_grid(std::slice::from_ref(replay_cfg), apps));
    }
    let live_s = t0.elapsed().as_secs_f64();
    let live = live.expect("at least one live round");
    assert!(
        live.is_complete(),
        "{label}: live bench cells must not fail"
    );

    let store = Arc::new(TraceStore::new());
    let t1 = Instant::now();
    SweepRunner::serial()
        .with_trace_mode(TraceMode::Record(Arc::clone(&store)))
        .try_grid(std::slice::from_ref(record_cfg), apps);
    let record_s = t1.elapsed().as_secs_f64();
    let trace_bytes: usize = store.traces().iter().map(|t| t.encode().len()).sum();
    let traces = store.len();

    let t2 = Instant::now();
    let mut replayed = None;
    for _ in 0..rounds {
        replayed = Some(
            SweepRunner::serial()
                .with_trace_mode(TraceMode::Replay(Arc::clone(&store)))
                .try_grid(std::slice::from_ref(replay_cfg), apps),
        );
    }
    let replay_s = t2.elapsed().as_secs_f64();
    let replayed = replayed.expect("at least one replay round");
    assert_eq!(
        replayed.replayed(),
        apps.len(),
        "{label}: every replay cell must come from the recording"
    );
    assert_eq!(
        replayed, live,
        "{label}: replay diverged from live simulation"
    );

    let cells = (apps.len() as u32 * rounds) as f64;
    (
        live_s * 1e3 / cells,
        replay_s * 1e3 / cells,
        record_s * 1e3 / apps.len() as f64,
        trace_bytes as f64 / traces as f64,
    )
}

fn comparison() {
    let uops = uops();
    let apps = suite();
    let rounds = 3u32;
    println!(
        "\nreplay: {} apps x {uops} uops, {rounds} live rounds vs record-once-replay-{rounds}...",
        apps.len()
    );

    // Power-side sweep from a nominal-only recording: record under the
    // plain baseline (the uarch side the sweep shares), replay the
    // emergency-throttled variant from it.
    let base = ExperimentConfig::baseline().with_uops(uops);
    let (live_ms, replay_ms, record_ms, bytes) =
        head_to_head("nominal", &base, &throttled(uops), &apps, rounds);
    let speedup = live_ms / replay_ms;
    println!(
        "nominal: live {live_ms:.2} ms/cell | replay {replay_ms:.2} ms/cell | \
         speedup {speedup:.1}x (record once: {record_ms:.2} ms/cell, {bytes:.0} trace B/cell; \
         results bit-identical)"
    );

    // The DFAT v2 ladder: a core-perturbing global-DVFS sweep, recorded
    // under its own policy so each trace carries the nominal + scaled
    // operating points, then replayed by per-interval point selection.
    let ladder = ExperimentConfig::baseline()
        .with_uops(uops)
        .with_dtm(DtmSpec::GlobalDvfs(DvfsPolicy::with_trip(50.0)));
    let (l_live_ms, l_replay_ms, l_record_ms, l_bytes) =
        head_to_head("ladder", &ladder, &ladder, &apps, rounds);
    let l_speedup = l_live_ms / l_replay_ms;
    println!(
        "ladder (dvfs): live {l_live_ms:.2} ms/cell | replay {l_replay_ms:.2} ms/cell | \
         speedup {l_speedup:.1}x (record once: {l_record_ms:.2} ms/cell, {l_bytes:.0} trace \
         B/cell; results bit-identical)\n"
    );

    let json = format!(
        "{{\n  \"bench\": \"replay_sweep_cell\",\n  \"apps\": {},\n  \"uops\": {uops},\n  \
         \"rounds\": {rounds},\n  \"live_ms_per_cell\": {live_ms:.3},\n  \
         \"replay_ms_per_cell\": {replay_ms:.3},\n  \"record_ms_per_cell\": {record_ms:.3},\n  \
         \"trace_bytes_per_cell\": {bytes:.0},\n  \"speedup\": {speedup:.2},\n  \
         \"ladder_live_ms_per_cell\": {l_live_ms:.3},\n  \
         \"ladder_replay_ms_per_cell\": {l_replay_ms:.3},\n  \
         \"ladder_record_ms_per_cell\": {l_record_ms:.3},\n  \
         \"ladder_trace_bytes_per_cell\": {l_bytes:.0},\n  \"ladder_speedup\": {l_speedup:.2}\n}}\n",
        apps.len(),
    );
    let path = std::env::var("DISTFRONT_BENCH_REPLAY_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_replay.json").into());
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

fn bench(c: &mut Criterion) {
    comparison();

    let uops = uops();
    let cfg = ExperimentConfig::baseline().with_uops(uops);
    let app = AppProfile::test_tiny();
    let trace = Arc::new(
        CoupledEngine::new(&cfg, &app)
            .run_recorded()
            .expect("recording the bench kernel")
            .1,
    );

    c.bench_function("replay/cell_live", |b| {
        b.iter(|| black_box(CoupledEngine::new(&cfg, &app).run().unwrap()))
    });
    c.bench_function("replay/cell_replayed", |b| {
        b.iter(|| {
            black_box(
                CoupledEngine::new(&cfg, &app)
                    .with_replay(Arc::clone(&trace))
                    .run()
                    .unwrap(),
            )
        })
    });
    c.bench_function("replay/trace_codec_roundtrip", |b| {
        let bytes = trace.encode();
        b.iter(|| {
            black_box(
                distfront_trace::ActivityTrace::decode(black_box(&bytes))
                    .unwrap()
                    .intervals
                    .len(),
            )
        })
    });

    // Keep the workload plumbing honest under Criterion too: a phased
    // workload through the engine in one timed kernel.
    c.bench_function("replay/phased_cell_live", |b| {
        let phased = Workload::Phased(distfront_trace::PhasedProfile::alternating(
            "bench-tiny-gzip",
            AppProfile::test_tiny(),
            kernel_app(),
            5_000,
        ));
        b.iter(|| {
            black_box(
                CoupledEngine::for_workload(&cfg, phased.clone())
                    .run()
                    .unwrap(),
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
