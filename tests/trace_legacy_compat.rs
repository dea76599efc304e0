//! Retired DFAT versions: the reader accepts only the current trace
//! format, so a committed v1 (`baseline-v1.dft`, single-row layout), v2
//! (`dvfs-v2.dft`, raw multi-point rows) or v3 (`dvfs-v3.dft`,
//! delta-coded multi-point rows) fixture must decode to
//! `UnsupportedVersion` — and the cell it was recorded from, run the way
//! `--replay DIR` runs it after skipping the file, must still produce
//! the CSV row pinned when the fixture was recorded. A user holding old
//! traces gets the same bytes; only the core is simulated again.
//!
//! The `.dft` fixtures under `tests/golden/` are kept byte-for-byte as
//! the v1, v2 and v3 encoders wrote them; nothing regenerates them. After an
//! *intentional* change of result bits, re-pin the CSV rows alone:
//!
//! ```sh
//! BLESS=1 cargo test -p distfront --test trace_legacy_compat
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use distfront::dtm::DvfsPolicy;
use distfront::engine::{SweepRunner, TraceMode, TraceStore};
use distfront::scenarios::csv_row;
use distfront::{DtmSpec, ExperimentConfig};
use distfront_trace::record::{ActivityTrace, TraceCodecError};
use distfront_trace::{AppProfile, Workload};

fn fixture_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"))
}

/// The cell every retired fixture was recorded from: gzip at 30 k
/// micro-ops under `cfg`. The fixture `<stem>.dft`, written in
/// `version`, must be `UnsupportedVersion(version)`, and the live run of
/// its cell must equal the row pinned in `<stem>.csv`.
fn check_retired_fixture(stem: &str, version: u32, cfg: &ExperimentConfig) {
    let app = *AppProfile::by_name("gzip").unwrap();
    let dft_path = fixture_dir().join(format!("{stem}.dft"));
    let bytes = std::fs::read(&dft_path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e})", dft_path.display()));
    // Load the way the CLI's `--replay DIR` does: an undecodable file is
    // skipped, so the store stays empty.
    let store = Arc::new(TraceStore::new());
    match ActivityTrace::decode(&bytes) {
        Ok(trace) => store.insert(trace),
        Err(e) => assert_eq!(
            e,
            TraceCodecError::UnsupportedVersion(version),
            "{stem}: wrong rejection"
        ),
    }
    assert!(store.is_empty(), "{stem}: a retired format was read");

    let report = SweepRunner::serial()
        .with_trace_mode(TraceMode::Replay(store))
        .try_grid(std::slice::from_ref(cfg), &[Workload::from(app)]);
    assert_eq!(report.replayed(), 0, "{stem}: nothing could replay");
    let result = report.cells()[0]
        .result
        .as_ref()
        .unwrap_or_else(|e| panic!("{stem}: live run failed: {e}"));
    let row = format!("{}\n", csv_row(&format!("{stem}-fixture"), result));
    let csv_path = fixture_dir().join(format!("{stem}.csv"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&csv_path, &row).unwrap();
        eprintln!("blessed {}", csv_path.display());
        return;
    }
    assert_eq!(
        row,
        std::fs::read_to_string(&csv_path).unwrap(),
        "{stem}: the live run diverged from the row pinned at recording"
    );
}

#[test]
fn retired_v1_fixture_is_unsupported_and_its_cell_runs_live_to_the_pinned_row() {
    check_retired_fixture(
        "baseline-v1",
        1,
        &ExperimentConfig::baseline().with_uops(30_000),
    );
}

/// A two-point family (nominal + one DVFS point): every interval carries
/// a non-nominal row that v2 stored raw.
#[test]
fn retired_v2_fixture_is_unsupported_and_its_cell_runs_live_to_the_pinned_row() {
    check_retired_fixture(
        "dvfs-v2",
        2,
        &ExperimentConfig::baseline()
            .with_uops(30_000)
            .with_dtm(DtmSpec::GlobalDvfs(DvfsPolicy::paper_limit())),
    );
}

/// Likewise a two-point family whose non-nominal rows v3 delta-coded.
#[test]
fn retired_v3_fixture_is_unsupported_and_its_cell_runs_live_to_the_pinned_row() {
    check_retired_fixture(
        "dvfs-v3",
        3,
        &ExperimentConfig::baseline()
            .with_uops(30_000)
            .with_dtm(DtmSpec::GlobalDvfs(DvfsPolicy::paper_limit())),
    );
}
