//! The `distfront-scenarios` binary on every front end: in this process,
//! `--state-dir`, `--processes` and `--connect` (to a daemon running in
//! the test). Every back end answers a job response and one output stage
//! writes the CSV, the JSON, `--verify` and the failed-cell lines for all
//! of them, so each front end must match the in-process run byte for
//! byte. The selections run as one job of rows that differ in length (4
//! smoke apps, then 2 phased workloads).

use std::path::{Path, PathBuf};
use std::process::Command;

use distfront::server::{Client, DaemonHandle, SweepDaemon};

/// A fresh directory for one test's files (tests share one pid).
fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("distfront-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// What one front end's run left behind.
#[derive(Debug)]
struct Run {
    code: Option<i32>,
    csv: String,
    json: String,
    /// The `error: cell <label>/<app>: <msg>` stderr lines.
    failed_cells: Vec<String>,
    stdout: String,
}

/// Runs the binary with `args` plus `front_end`, writing its CSV and
/// JSON under `dir` with the front end's `tag`.
fn run(dir: &Path, tag: &str, args: &[&str], front_end: &[String]) -> Run {
    let (csv, json) = (
        dir.join(format!("{tag}.csv")),
        dir.join(format!("{tag}.json")),
    );
    let out = Command::new(env!("CARGO_BIN_EXE_distfront-scenarios"))
        .args(args)
        .arg("--csv")
        .arg(&csv)
        .arg("--json")
        .arg(&json)
        .args(front_end)
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    Run {
        code: out.status.code(),
        csv: std::fs::read_to_string(csv).unwrap_or_default(),
        json: std::fs::read_to_string(json).unwrap_or_default(),
        failed_cells: stderr
            .lines()
            .filter(|l| l.starts_with("error: cell "))
            .map(String::from)
            .collect(),
        stdout: String::from_utf8(out.stdout).unwrap(),
    }
}

/// Every front end's arguments, in-process first, with the daemon they
/// use.
fn front_ends(dir: &Path) -> (DaemonHandle, Vec<(&'static str, Vec<String>)>) {
    let daemon = SweepDaemon::bind("127.0.0.1:0").unwrap().spawn();
    let path = |sub: &str| dir.join(sub).display().to_string();
    let ends = vec![
        ("in-process", vec![]),
        ("state-dir", vec!["--state-dir".into(), path("state")]),
        (
            "processes",
            vec![
                "--processes".into(),
                "2".into(),
                "--shard-dir".into(),
                path("shards"),
            ],
        ),
        (
            "connect",
            vec!["--connect".into(), daemon.addr().to_string()],
        ),
    ];
    (daemon, ends)
}

fn stop(daemon: DaemonHandle) {
    Client::connect(daemon.addr()).unwrap().shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn every_front_end_writes_and_verifies_the_in_process_bytes() {
    let dir = test_dir("ok");
    let (daemon, ends) = front_ends(&dir);
    let args = [
        "--run",
        "baseline",
        "--run",
        "phased-hot-cold",
        "--smoke",
        "--uops",
        "20000",
        "--verify",
    ];
    let runs: Vec<(&str, Run)> = ends
        .iter()
        .map(|(tag, end)| (*tag, run(&dir, tag, &args, end)))
        .collect();
    let (_, local) = &runs[0];
    assert_eq!(local.code, Some(0), "{}", local.stdout);
    assert_eq!(local.csv.lines().count(), 7, "header + 4 smoke apps + 2");
    assert!(local.json.contains("\"name\": \"baseline\""));
    assert!(local.json.contains("\"name\": \"phased-hot-cold\""));
    for (tag, r) in &runs {
        assert_eq!(r.code, Some(0), "{tag}: {}", r.stdout);
        assert_eq!(r.csv, local.csv, "{tag}: CSV");
        assert_eq!(r.json, local.json, "{tag}: JSON");
        assert!(r.failed_cells.is_empty(), "{tag}: {:?}", r.failed_cells);
        assert!(
            r.stdout.contains("CSV are byte-identical"),
            "{tag}: no verify line in {}",
            r.stdout
        );
    }
    // The whole selection is one sharded job: one coordinator round.
    let (_, sharded) = &runs[2];
    assert_eq!(
        sharded.stdout.matches("launches per shard [1, 1]").count(),
        1,
        "{}",
        sharded.stdout
    );
    assert_eq!(sharded.stdout.matches("launches per shard").count(), 1);
    stop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_front_end_reports_failed_cells_alike() {
    let dir = test_dir("fail");
    let (daemon, ends) = front_ends(&dir);
    let args = [
        "--run",
        "baseline",
        "--run",
        "phased-hot-cold",
        "--inject-fail",
        "--smoke",
        "--uops",
        "20000",
    ];
    let runs: Vec<(&str, Run)> = ends
        .iter()
        .map(|(tag, end)| (*tag, run(&dir, tag, &args, end)))
        .collect();
    let (_, local) = &runs[0];
    assert_eq!(local.code, Some(2), "cells failed");
    assert_eq!(local.csv.lines().count(), 7, "the surviving rows");
    assert_eq!(local.failed_cells.len(), 4, "{:?}", local.failed_cells);
    assert!(local.failed_cells[0].starts_with("error: cell fault-injection/"));
    assert_eq!(local.json.matches("\"error\": \"not converged").count(), 4);
    for (tag, r) in &runs {
        assert_eq!(r.code, Some(2), "{tag}: {}", r.stdout);
        assert_eq!(r.csv, local.csv, "{tag}: CSV");
        assert_eq!(r.json, local.json, "{tag}: JSON");
        assert_eq!(r.failed_cells, local.failed_cells, "{tag}: stderr");
    }
    stop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--replay --verify` checks the replayed bytes against a live serial
/// re-run and says so. A baseline replay from a `dtm-dvfs` recording
/// finds no trace under the baseline's key, so every cell runs live.
#[test]
fn replay_verify_compares_the_replayed_run_with_live() {
    let dir = test_dir("replay");
    let traces = dir.join("traces").display().to_string();
    let smoke = |extra: &[&'static str]| {
        let mut args = vec!["--smoke", "--uops", "40000", "--workers", "2"];
        args.extend_from_slice(extra);
        args
    };
    let mut record = smoke(&["--run", "dtm-dvfs", "--record"]);
    record.push(&traces);
    let recorded = run(&dir, "record", &record, &[]);
    assert_eq!(recorded.code, Some(0), "{}", recorded.stdout);
    let mut replay = smoke(&["--run", "baseline", "--verify", "--replay"]);
    replay.push(&traces);
    let replayed = run(&dir, "replay", &replay, &[]);
    assert_eq!(replayed.code, Some(0), "{}", replayed.stdout);
    for line in [
        "replay: 0/4 cell(s) replayed, the rest ran live",
        "verify: live serial and replayed 2-worker CSV are byte-identical",
    ] {
        assert!(replayed.stdout.contains(line), "{}", replayed.stdout);
    }
    let live = run(&dir, "live", &smoke(&["--run", "baseline"]), &[]);
    assert_eq!(replayed.csv, live.csv);
    let _ = std::fs::remove_dir_all(&dir);
}
