//! Integration tests for the `distfront-sweepd` daemon: the
//! content-addressed result cache, byte-identity of streamed results
//! against one-shot runs, per-job fault isolation under concurrency, and
//! the golden fingerprint pin that keeps cache keys from drifting.

use std::sync::mpsc;
use std::thread;

use distfront::job::{JobClass, JobEnv, JobSpec, StatusCode, TraceSpec};
use distfront::scenarios;
use distfront::server::{protocol, Client, SweepDaemon};

/// A small, fast job used throughout: baseline scenario, smoke suite
/// (3 apps), short run.
fn small_spec() -> JobSpec {
    JobSpec::scenario("baseline")
        .with_smoke(true)
        .with_uops(20_000)
        .with_workers(2)
}

#[test]
fn resubmission_is_a_cache_hit_and_byte_identical_to_one_shot() {
    let handle = SweepDaemon::bind("127.0.0.1:0").expect("bind").spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let spec = small_spec();

    let first = client.submit(&spec).expect("first submission");
    assert_eq!(first.status, StatusCode::Ok);
    assert!(!first.cached, "first submission must execute");
    let suite = scenarios::suite_apps(true).len();
    assert_eq!(first.cells, suite);
    assert_eq!(first.failed, 0);
    assert_eq!(first.csv_rows.len(), suite);

    // Same spec again: served from the content-addressed cache...
    let second = client.submit(&spec).expect("second submission");
    assert!(second.cached, "identical resubmission must be a cache hit");
    // ...byte-identical to the first response...
    assert_eq!(first.result_lines, second.result_lines);
    assert_eq!(first.csv_rows, second.csv_rows);

    // ...with no cell re-solved: still exactly one execution.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.jobs, 2);
    assert_eq!(stats.executed, 1, "cache hit must not re-execute");
    assert_eq!(stats.result_hits, 1);

    // A scheduling-only variation (different workers, class) is the
    // *same* content address: also a hit, same bytes.
    let reshaped = spec
        .clone()
        .with_workers(1)
        .with_class(JobClass::Deferrable);
    let third = client.submit(&reshaped).expect("reshaped submission");
    assert!(third.cached, "scheduling knobs must not change the address");
    assert_eq!(first.result_lines, third.result_lines);

    // Byte-identity against a one-shot run of the same JobSpec: the
    // daemon's stored frames are exactly what a fresh local execution
    // serializes to.
    let report = spec.execute(&JobEnv::default(), |_| {}).expect("one-shot");
    assert_eq!(protocol::result_frames(&report), first.result_lines);
    assert_eq!(report.csv_rows(), first.csv_rows);

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exit");
}

#[test]
fn concurrent_clients_are_fault_isolated() {
    let handle = SweepDaemon::bind("127.0.0.1:0").expect("bind").spawn();
    let addr = handle.addr();

    // Client A submits a job whose every cell deterministically fails;
    // client B concurrently submits a healthy deferrable job. B must be
    // untouched by A's failures, and the daemon must survive both.
    let faulty = JobSpec::scenario("fault-injection")
        .with_smoke(true)
        .with_uops(20_000)
        .with_workers(2);
    let healthy = small_spec().with_class(JobClass::Deferrable);

    let (tx, rx) = mpsc::channel();
    let spawn_submit = |spec: JobSpec, tx: mpsc::Sender<_>| {
        thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            tx.send(client.submit(&spec).expect("submit")).unwrap();
        })
    };
    let a = spawn_submit(faulty.clone(), tx.clone());
    let b = spawn_submit(healthy.clone(), tx);
    a.join().expect("client A");
    b.join().expect("client B");
    let responses: Vec<_> = rx.iter().take(2).collect();

    let failed = responses
        .iter()
        .find(|r| r.status == StatusCode::CellsFailed)
        .expect("fault-injection job reports CellsFailed");
    let ok = responses
        .iter()
        .find(|r| r.status == StatusCode::Ok)
        .expect("healthy job unaffected");
    assert_eq!(failed.failed, failed.cells);
    assert!(failed.csv_rows.is_empty());
    assert!(failed
        .result_lines
        .iter()
        .take(failed.cells)
        .all(|l| l.starts_with("ERRCELL ")));
    assert_eq!(ok.failed, 0);
    assert_eq!(ok.csv_rows.len(), ok.cells);

    // Deterministic failures are results too: resubmitting the faulty
    // job is served from the cache with the same bytes.
    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("daemon alive after failures");
    let replayed = client.submit(&faulty).expect("resubmit faulty");
    assert!(replayed.cached);
    assert_eq!(replayed.result_lines, failed.result_lines);

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exit");
}

/// A selection is stored one record per row, under the row's own
/// fingerprint: after one job of several rows (of different lengths),
/// any selection of those rows — one of them alone, or several in
/// another order — is served from the records without running.
#[test]
fn rows_are_stored_and_served_per_scenario() {
    let handle = SweepDaemon::bind("127.0.0.1:0").expect("bind").spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let spec = |names: &[&str]| {
        JobSpec::scenarios(names.iter().copied())
            .with_smoke(true)
            .with_uops(20_000)
    };
    let suite = scenarios::suite_apps(true).len();

    let first = client
        .submit(&spec(&["baseline", "drc", "phased-hot-cold"]))
        .expect("first submission");
    assert!(!first.cached);
    assert_eq!((first.status, first.cells), (StatusCode::Ok, 2 * suite + 2));

    // One row alone: the frames of a one-shot job of that scenario.
    let drc = client.submit(&spec(&["drc"])).expect("drc");
    assert!(drc.cached, "a stored row must be served");
    let one_shot = spec(&["drc"])
        .execute(&JobEnv::default(), |_| {})
        .expect("one-shot");
    assert_eq!(drc.result_lines, protocol::result_frames(&one_shot));
    assert_eq!(first.row("drc").result_lines, drc.result_lines);

    // Two rows in another order: each row's frames, in the new order.
    let swapped = client.submit(&spec(&["drc", "baseline"])).expect("swapped");
    assert!(swapped.cached);
    assert_eq!(swapped.cells, 2 * suite);
    assert_eq!(swapped.result_lines[..suite], drc.result_lines[..suite]);
    assert_eq!(swapped.row("baseline"), first.row("baseline"));
    let phased = client.submit(&spec(&["phased-hot-cold"])).expect("phased");
    assert!(phased.cached);
    assert_eq!(phased.cells, 2);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.jobs, 4);
    assert_eq!(stats.executed, 1, "stored rows must not re-execute");
    assert_eq!(stats.result_hits, 3, "one hit per job");
    assert_eq!(stats.result_entries, 3, "one record per row");

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exit");
}

#[test]
fn shared_env_warms_across_distinct_jobs() {
    let handle = SweepDaemon::bind("127.0.0.1:0").expect("bind").spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Two *different* jobs over the same configuration: the second is a
    // result-cache miss (different content) and runs on the process-wide
    // JobEnv the first ran on, to the bytes of a one-shot run.
    let first = small_spec();
    let second = small_spec().with_uops(24_000);
    assert_ne!(
        first.fingerprint().unwrap(),
        second.fingerprint().unwrap(),
        "different run lengths are different content"
    );
    client.submit(&first).expect("first");
    let novel = client.submit(&second).expect("second");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.executed, 2, "distinct content must execute");
    assert!(!novel.cached);
    let one_shot = second
        .execute(&JobEnv::default(), |_| {})
        .expect("one-shot");
    assert_eq!(protocol::result_frames(&one_shot), novel.result_lines);
    assert_eq!(one_shot.csv_rows(), novel.csv_rows);

    // Record/replay against the daemon's process-wide trace store: a
    // recording job populates it, and it persists across jobs.
    let recorded = small_spec().with_uops(28_000).with_trace(TraceSpec::Record);
    client.submit(&recorded).expect("record");
    let stats = client.stats().expect("stats");
    assert!(stats.traces > 0, "recorded traces outlive the job");

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exit");
}

#[test]
fn malformed_and_unresolvable_jobs_answer_err_frames() {
    let handle = SweepDaemon::bind("127.0.0.1:0").expect("bind").spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");

    let unknown = JobSpec::scenario("no-such-scenario").with_smoke(true);
    let response = client.submit(&unknown).expect("exchange completes");
    assert_eq!(response.status, StatusCode::Usage);
    assert!(response
        .error
        .as_deref()
        .unwrap()
        .contains("no-such-scenario"));

    // The connection survives a rejected job.
    let ok = client.submit(&small_spec()).expect("healthy job after ERR");
    assert_eq!(ok.status, StatusCode::Ok);

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exit");
}

/// The persistence round trip: a daemon started on a state dir persists
/// its solved results and recorded traces at the insert-batch boundary,
/// and a *new* daemon on the same directory serves a resubmission as a
/// disk cache hit — without re-executing, byte-identical to the first
/// life's response. (The CI `sweepd-restart` gate replays this across a
/// real SIGTERM; here the first life exits cleanly.)
#[test]
fn restarted_daemon_serves_disk_cache_hits_byte_identically() {
    let dir = std::env::temp_dir().join(format!("distfront-daemon-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = small_spec().with_trace(TraceSpec::Record);

    // First life: execute, persist, exit.
    let handle = SweepDaemon::bind_persistent("127.0.0.1:0", &dir)
        .expect("bind")
        .spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let first = client.submit(&spec).expect("first life");
    assert_eq!(first.status, StatusCode::Ok);
    assert!(!first.cached, "fresh state dir must execute");
    let stats = client.stats().expect("stats");
    assert!(stats.persisted_results >= 1, "result not persisted");
    assert!(stats.persisted_traces >= 1, "recorded traces not persisted");
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exit");

    // Second life, same directory: the resubmission never executes — it
    // is served from the loaded store with the first life's bytes.
    let handle = SweepDaemon::bind_persistent("127.0.0.1:0", &dir)
        .expect("rebind")
        .spawn();
    let mut client = Client::connect(handle.addr()).expect("reconnect");
    let second = client.submit(&spec).expect("second life");
    assert!(second.cached, "restart must serve the stored result");
    assert_eq!(first.result_lines, second.result_lines);
    assert_eq!(first.csv_rows, second.csv_rows);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.executed, 0, "disk cache hit must not re-execute");
    assert!(
        stats.persisted_results >= 1,
        "loaded results count as persisted"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Connection pipelining: several `JOB` frames in flight on one
/// connection, demuxed by the per-connection `job=<n>` tag. Submitted
/// against a cold daemon so the two distinct jobs genuinely execute
/// concurrently (interactive + deferrable executors interleave their
/// frames); each demuxed response must be byte-identical to a
/// sequential submission of the same spec.
#[test]
fn pipelined_jobs_on_one_connection_demux_byte_identically() {
    let handle = SweepDaemon::bind("127.0.0.1:0").expect("bind").spawn();
    let addr = handle.addr();

    let specs = [
        small_spec(),
        small_spec()
            .with_uops(24_000)
            .with_class(JobClass::Deferrable),
        // A duplicate of the first: its response rides the same
        // connection and must carry the same bytes.
        small_spec(),
    ];

    let mut piped = Client::connect(addr).expect("connect");
    let responses = piped.submit_batch(&specs).expect("batch");
    assert_eq!(responses.len(), specs.len());

    // Sequential twins (now warm: all cache hits, i.e. the stored bytes).
    let mut seq = Client::connect(addr).expect("connect");
    for (got, spec) in responses.iter().zip(&specs) {
        let want = seq.submit(spec).expect("sequential twin");
        assert_eq!(got.status, want.status);
        assert_eq!(got.result_lines, want.result_lines);
        assert_eq!(got.csv_rows, want.csv_rows);
    }
    assert_eq!(responses[0].result_lines, responses[2].result_lines);

    drop(piped);
    seq.shutdown().expect("shutdown");
    handle.join().expect("daemon exit");
}

/// A request line at the protocol's length bound with no newline is
/// refused with a connection-level `ERR` and the connection is closed;
/// the daemon still serves new connections.
#[test]
fn over_long_request_line_is_refused_and_the_daemon_survives() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;

    let handle = SweepDaemon::bind("127.0.0.1:0").expect("bind").spawn();
    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    // Exactly the bound: the daemon consumes every byte sent before it
    // answers, so the close leaves nothing unread on its side.
    let line = vec![b'x'; usize::try_from(protocol::MAX_LINE_BYTES).unwrap()];
    raw.write_all(&line).expect("send the over-long line");
    let mut reader = BufReader::new(raw);
    let mut frame = String::new();
    reader.read_line(&mut frame).expect("read the ERR frame");
    let usage = format!("ERR {} ", StatusCode::Usage.code());
    assert!(frame.starts_with(&usage), "unexpected frame {frame:?}");
    let mut rest = Vec::new();
    // Closed: EOF right after the ERR frame (a reset also counts).
    if reader.read_to_end(&mut rest).is_ok() {
        assert!(rest.is_empty(), "frames after the ERR: {rest:?}");
    }

    let mut client = Client::connect(handle.addr()).expect("reconnect");
    client.ping().expect("PING after an over-long line");
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exit");
}

/// Record `dtm-dvfs`, replay `baseline`, then run `baseline` live, on
/// one daemon. The replay job finds no recording under the baseline key,
/// so its cells run live and the rows it caches are live bytes: the
/// third job, served from that cache, equals a fresh live run. (A store
/// that served the DVFS recording to the baseline row would cache
/// another trajectory's cycles under the baseline's address.)
#[test]
fn a_replay_of_another_rows_recording_caches_live_rows() {
    let handle = SweepDaemon::bind("127.0.0.1:0").expect("bind").spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");
    // 40 k uops: DVFS engages on gzip and tiny from the second interval.
    let spec = |name: &str, trace| {
        JobSpec::scenario(name)
            .with_smoke(true)
            .with_uops(40_000)
            .with_workers(2)
            .with_trace(trace)
    };
    let recorded = client
        .submit(&spec("dtm-dvfs", TraceSpec::Record))
        .expect("record");
    assert_eq!(recorded.status, StatusCode::Ok);
    assert!(client.stats().expect("stats").traces > 0);
    let replayed = client
        .submit(&spec("baseline", TraceSpec::Replay))
        .expect("replay");
    assert_eq!(replayed.status, StatusCode::Ok);
    assert!(!replayed.cached, "the replay job must execute");
    let live = client
        .submit(&spec("baseline", TraceSpec::Live))
        .expect("live");
    assert!(live.cached, "the live job is served the replay job's rows");

    let fresh = spec("baseline", TraceSpec::Live)
        .execute(&JobEnv::default(), |_| {})
        .expect("one-shot");
    assert_eq!(replayed.csv_rows, fresh.csv_rows());
    assert_eq!(live.csv_rows, fresh.csv_rows());
    assert_eq!(live.result_lines, protocol::result_frames(&fresh));

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exit");
}

/// The golden fingerprint pin (ISSUE 7 satellite): the content address
/// of a pinned scenario must never change silently. It may only change
/// when a result-affecting input *consciously* changes — a
/// `TRACE_FORMAT_VERSION` bump, a `JOBSPEC_VERSION` bump, a baseline
/// configuration change, a thermal-kernel change (the integrator token),
/// or an intentional fingerprint-schema change —
/// and then this constant must be updated in the same commit, making the
/// cache-key break visible in review.
#[test]
fn golden_fingerprint_is_pinned() {
    let spec = JobSpec::scenario("baseline")
        .with_smoke(true)
        .with_uops(40_000);
    assert_eq!(
        format!("{:016x}", spec.fingerprint().unwrap()),
        "0aad450f779addbf",
        "the content-address fingerprint for the pinned baseline smoke \
         job changed; if this is intentional (trace-format bump, jobspec \
         version bump, baseline config change, thermal-kernel change), \
         update the golden value in the same commit"
    );
}
