//! Golden-scenario regression tests: canonical CSV outputs for several
//! smoke scenarios are committed under `tests/golden/` and diffed
//! byte-for-byte against the current engine. Any behavioural change —
//! simulator timing, power arithmetic, thermal integration, CSV
//! formatting — shows up here as a precise diff instead of a silent
//! drift. The technique-ladder goldens run in **replay mode**: each is
//! recorded live, replayed from its own multi-point trace, and the
//! *replayed* bytes are diffed — pinning the DFAT v2 record→replay path
//! itself, not just the live engine.
//!
//! `golden_figures_smoke` pins the paper's four figure tables (Figs. 1
//! and 12–14) over the smoke apps the same way, with every value's exact
//! round-trip digits under each table.
//!
//! To re-bless after an *intentional* change:
//!
//! ```sh
//! BLESS=1 cargo test -p distfront --test golden_scenarios
//! ```
//!
//! then review the golden diffs like any other code change.

use std::path::PathBuf;
use std::sync::Arc;

use distfront::engine::{SweepRunner, TraceStore};
use distfront::job::{JobEnv, JobReport, JobSpec, TraceSpec};
use distfront::scenarios;
use distfront::{FigureData, FigureTable};
use distfront_trace::Workload;

/// Executes `scenario` in the pinned run shape, with `trace` bound to
/// `env`'s store. The shape is small enough for CI, large enough that
/// every scenario closes several intervals and the phased scenario
/// genuinely crosses phase boundaries (its slices are 25 k micro-ops, so
/// a 60 k run visits phase 0, phase 1, and phase 0 again — a regression
/// in phase rotation, seeding or the address-slab offset changes these
/// bytes).
fn golden_run(scenario: &str, trace: TraceSpec, env: &JobEnv) -> JobReport {
    JobSpec::scenario(scenario)
        .with_smoke(true)
        .with_uops(60_000)
        .with_workers(2)
        .with_trace(trace)
        .execute(env, |_| {})
        .unwrap_or_else(|e| panic!("{scenario}: {e}"))
}

fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"))
}

fn check(scenario: &str) {
    let report = golden_run(scenario, TraceSpec::Live, &JobEnv::default());
    compare(scenario, &report, format!("{scenario}.csv"));
}

/// Records `scenario` live, replays it from its own multi-point trace,
/// and diffs the **replayed** CSV against the committed golden — every
/// cell must actually replay, so a capability regression (the trace no
/// longer covering its own policy's operating points) fails here before
/// any byte is compared.
fn check_replayed(scenario: &str) {
    let store = Arc::new(TraceStore::new());
    let recorded = golden_run(
        scenario,
        TraceSpec::Record,
        &JobEnv {
            traces: Arc::clone(&store),
            ..JobEnv::default()
        },
    );
    assert!(
        recorded.report.is_complete(),
        "{scenario}: {} cells failed while recording",
        recorded.report.failed()
    );
    let report = golden_run(
        scenario,
        TraceSpec::Replay,
        &JobEnv {
            traces: store,
            ..JobEnv::default()
        },
    );
    assert_eq!(
        report.report.replayed(),
        report.report.cells().len(),
        "{scenario}: not every cell replayed from its own recording"
    );
    compare(scenario, &report, format!("{scenario}.replay.csv"));
}

fn compare(scenario: &str, report: &JobReport, file: String) {
    assert!(
        report.report.is_complete(),
        "{scenario}: {} cells failed",
        report.report.failed()
    );
    compare_text(scenario, &scenarios::to_csv([report]), file);
}

fn compare_text(scenario: &str, text: &str, file: String) {
    let path = golden_dir().join(file);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, text).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with BLESS=1 to create it",
            path.display()
        )
    });
    if text != golden {
        // A byte diff with the first differing line pinpointed beats a
        // 20-line assert_eq dump.
        let mismatch = text
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        match mismatch {
            Some((i, (now, was))) => panic!(
                "{scenario}: output diverged from {} at line {}:\n  golden:  {was}\n  current: {now}\n\
                 (re-bless with BLESS=1 only if the change is intentional)",
                path.display(),
                i + 1
            ),
            None => panic!(
                "{scenario}: output length diverged from {} ({} vs {} bytes)",
                path.display(),
                text.len(),
                golden.len()
            ),
        }
    }
}

#[test]
fn golden_baseline() {
    check("baseline");
}

#[test]
fn golden_dtm_emergency() {
    check("dtm-emergency");
}

#[test]
fn golden_phased_hot_cold() {
    check("phased-hot-cold");
}

#[test]
fn golden_technique_ladder_dvfs_replayed() {
    check_replayed("technique-ladder-dvfs");
}

#[test]
fn golden_technique_ladder_migration_replayed() {
    check_replayed("technique-ladder-migration");
}

/// The four figure tables as `all_figures` prints them, each followed by
/// its values' exact (shortest round-trip) digits, so the golden pins
/// every bit rather than two decimals.
fn render_figures(tables: &[FigureTable]) -> String {
    let mut text = String::new();
    for table in tables {
        text.push_str(&format!("{table}\n"));
        for row in &table.rows {
            text.push_str(&format!("  {} = {:?}\n", row.label, row.values));
        }
        text.push('\n');
    }
    text
}

#[test]
fn golden_figures_smoke() {
    let apps: Vec<Workload> = scenarios::suite_apps(true)
        .into_iter()
        .map(Workload::from)
        .collect();
    let tables = FigureData::collect(&SweepRunner::new(), &apps, 60_000)
        .unwrap_or_else(|failed| panic!("{} figure cells failed", failed.len()))
        .tables();
    compare_text(
        "figures",
        &render_figures(&tables),
        "figures-smoke.txt".into(),
    );
}
