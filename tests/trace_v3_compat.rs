//! Forward-pinning the DFAT v3 writer: a committed v3 `.dft` fixture —
//! the *current* write format, whose delta-encoded point rows were until
//! now only pinned implicitly via encode/decode round-trips — must keep
//! decoding, must re-encode to the **exact committed bytes** (so any
//! accidental writer change trips this test, not just reader changes),
//! and must replay byte-identically to its pinned CSV row.
//!
//! The fixture pair under `tests/golden/` (`dvfs-v3.dft` plus
//! `dvfs-v3.csv`) is the same recording cell the v2 fixture pins,
//! written by the production encoder. To regenerate after an
//! *intentional* core- or format-side change:
//!
//! ```sh
//! BLESS=1 cargo test -p distfront --test trace_v3_compat
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use distfront::dtm::DvfsPolicy;
use distfront::engine::CoupledEngine;
use distfront::scenarios::csv_row;
use distfront::{DtmSpec, ExperimentConfig};
use distfront_trace::record::{ActivityTrace, PointKey, TRACE_FORMAT_VERSION};
use distfront_trace::AppProfile;

fn fixture_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"))
}

/// The recording cell the fixture pins — deliberately the same cell as
/// the v2 fixture (paper-limit global DVFS over gzip): a two-point
/// family, so every interval carries the non-nominal row that v3
/// delta-encodes. Same physics, three container versions on disk.
fn fixture_cfg() -> ExperimentConfig {
    ExperimentConfig::baseline()
        .with_uops(30_000)
        .with_dtm(DtmSpec::GlobalDvfs(DvfsPolicy::paper_limit()))
}

fn fixture_app() -> AppProfile {
    *AppProfile::by_name("gzip").unwrap()
}

#[test]
fn committed_v3_fixture_reencodes_and_replays_byte_identically() {
    let cfg = fixture_cfg();
    let app = fixture_app();
    let dft_path = fixture_dir().join("dvfs-v3.dft");
    let csv_path = fixture_dir().join("dvfs-v3.csv");

    if std::env::var_os("BLESS").is_some() {
        let (live, trace) = CoupledEngine::new(&cfg, &app)
            .run_recorded()
            .expect("fixture recording failed");
        assert!(
            trace.meta.points.len() > 1,
            "fixture must be multi-point to pin the delta-row layout"
        );
        std::fs::write(&dft_path, trace.encode()).unwrap();
        let mut row = csv_row("dvfs-v3-fixture", &live);
        row.push('\n');
        std::fs::write(&csv_path, row).unwrap();
        eprintln!("blessed {} and its pinned CSV", dft_path.display());
        return;
    }

    let bytes = std::fs::read(&dft_path).unwrap_or_else(|e| {
        panic!(
            "missing v3 fixture {} ({e}); run with BLESS=1 to create it",
            dft_path.display()
        )
    });
    let trace = ActivityTrace::decode(&bytes).expect("v3 fixture no longer decodes");
    assert_eq!(trace.meta.version, TRACE_FORMAT_VERSION);
    let dvfs = DvfsPolicy::paper_limit();
    assert_eq!(
        trace.meta.points,
        vec![
            PointKey::Nominal,
            PointKey::dvfs(dvfs.f_scale, dvfs.v_scale)
        ]
    );
    assert!(trace.meta.replay_safe);

    // The writer pin: v3 *is* the current format, so re-encoding the
    // decoded trace must reproduce the committed bytes exactly. The v1
    // and v2 fixtures cannot pin this — their re-encodes upgrade — which
    // is exactly the gap this fixture closes.
    let reencoded = trace.encode();
    assert_eq!(
        reencoded, bytes,
        "the production encoder no longer writes the committed v3 bytes; \
         if the format changed intentionally, bump the version and re-bless"
    );
    let roundtrip = ActivityTrace::decode(&reencoded).unwrap();
    assert_eq!(roundtrip.meta.version, TRACE_FORMAT_VERSION);
    assert_eq!(roundtrip.intervals, trace.intervals);
    assert_eq!(roundtrip.meta.capability_id(), trace.meta.capability_id());

    // And the decoded fixture still drives a replay to the exact bytes
    // pinned when it was recorded.
    let replayed = CoupledEngine::new(&cfg, &app)
        .with_replay(Arc::new(trace))
        .run()
        .expect("v3 fixture no longer replays; if the core changed intentionally, re-bless");
    let pinned = std::fs::read_to_string(&csv_path).unwrap();
    assert_eq!(
        format!("{}\n", csv_row("dvfs-v3-fixture", &replayed)),
        pinned,
        "v3 fixture replay diverged from its pinned CSV"
    );
}
