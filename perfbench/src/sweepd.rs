//! The daemon leg of the traced `live-grid` run: an in-process persistent
//! `SweepDaemon` on a fresh state directory, driven by two closed-loop
//! connections. The interactive connection sends a seeded mix of
//! resubmissions (result-cache hits: reads) and fresh-fingerprint smoke
//! jobs (misses: execution plus an appended, fsynced store record); the
//! deferrable connection sends fresh bulk jobs back to back.
//!
//! It is not a timed workload. A cache hit's round trip is bound by TCP
//! timers (Nagle's algorithm against the client's delayed ACK), not by
//! the CPU, so the host-speed normalisation of the timed workloads does
//! not apply to it; its latencies are reported raw, per layer.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::Instant;

use distfront::job::{JobClass, JobEnv, JobSpec, StatusCode};
use distfront::server::protocol::{result_frames, split_job_tag};
use distfront::server::{Client, Command, DaemonHandle, SweepDaemon};
use distfront::DurableStore;

use crate::report::{median, quantile, Report, SeedRng, MIN_P90_SAMPLES};
use crate::Args;

/// Distinct jobs the set-up submits once and the mix resubmits.
const HIT_SET: u64 = 8;

/// Cells in a smoke job (three SPEC applications plus `tiny`).
const SMOKE_CELLS: usize = 4;

/// The session's fixed work: interactive requests at 5 hits per block of
/// ten — 100 hits and 100 misses, a p90 of each with ten samples beyond
/// it — and bulk jobs on the deferrable connection.
const REQUESTS: usize = 2 * MIN_P90_SAMPLES;
const HITS_PER_BLOCK: usize = 5;
const BULK: u64 = 16;

/// Misses re-executed in process for `server.miss_overhead_ms`.
const OVERHEAD_SAMPLES: usize = 20;

/// The seeded job families. Run lengths keep their fingerprints apart:
/// the hit set, the fresh interactive jobs and the bulk jobs each own a
/// disjoint `uops` range, offset per seed.
struct Jobs {
    base: u64,
}

impl Jobs {
    fn new(seed: u64) -> Self {
        Jobs {
            base: 20_000 + (seed % 97) * 10,
        }
    }

    fn hit(&self, i: u64) -> JobSpec {
        JobSpec::scenario("baseline")
            .with_smoke(true)
            .with_uops(self.base + i)
            .with_workers(1)
    }

    fn miss(&self, k: u64) -> JobSpec {
        self.hit(HIT_SET + k)
    }

    fn bulk(&self, k: u64) -> JobSpec {
        JobSpec::scenario("drc")
            .with_smoke(true)
            .with_uops(2 * self.base + k)
            .with_workers(1)
            .with_class(JobClass::Deferrable)
    }
}

/// The interactive request sequence: `true` for a hit. Blocks of ten
/// hold exactly `hits` hits in seeded order, so every prefix of whole
/// blocks has the same share.
fn mix(rng: &mut SeedRng, hits: usize) -> impl FnMut() -> bool + '_ {
    let mut block: Vec<bool> = Vec::new();
    move || {
        if block.is_empty() {
            block = (0..10).map(|i| i < hits).collect();
            rng.shuffle(&mut block);
        }
        block.pop().expect("block refilled above")
    }
}

/// A daemon on a fresh state directory plus the first submission of
/// every hit-set job; returns the handle, the interactive connection
/// and each hit job's reference response lines.
fn set_up(
    report: &mut Report,
    jobs: &Jobs,
    dir: &Path,
) -> (DaemonHandle, RawClient, Vec<Vec<String>>) {
    let _ = std::fs::remove_dir_all(dir);
    let handle = SweepDaemon::bind_persistent("127.0.0.1:0", dir)
        .expect("loopback bind and a writable state directory")
        .spawn();
    let mut client = RawClient::connect(handle.addr()).expect("daemon accepts connections");
    let mut first = Vec::new();
    for i in 0..HIT_SET {
        match client.run(&jobs.hit(i)) {
            Ok(x) => {
                report.check(x.ok && !x.cached, format!("hit-set job {i} first run"));
                first.push(x.lines);
            }
            Err(e) => {
                report.check(false, format!("hit-set job {i}: {e}"));
                first.push(Vec::new());
            }
        }
    }
    (handle, client, first)
}

fn shut_down(report: &mut Report, handle: DaemonHandle, addr: SocketAddr) {
    let stopped = Client::connect(addr)
        .and_then(Client::shutdown)
        .and_then(|()| handle.join());
    if let Err(e) = stopped {
        report.check(false, format!("daemon shutdown: {e}"));
    }
}

/// One completed job as the benchmark sees it.
struct Exchange {
    ok: bool,
    cached: bool,
    cells: usize,
    /// Result frames with the run-specific `cached=` token dropped.
    lines: Vec<String>,
    /// Send to the `QUEUED` frame, and `QUEUED` to the first frame
    /// after it, in ms.
    queued: Option<f64>,
    queue_wait: Option<f64>,
}

/// A protocol client that timestamps the `QUEUED` frame, which `Client`
/// consumes silently. It writes each command exactly as `Client` does.
struct RawClient {
    reader: BufReader<TcpStream>,
}

impl RawClient {
    fn connect(addr: SocketAddr) -> io::Result<Self> {
        Ok(RawClient {
            reader: BufReader::new(TcpStream::connect(addr)?),
        })
    }

    fn run(&mut self, spec: &JobSpec) -> io::Result<Exchange> {
        let sent = Instant::now();
        let stream = self.reader.get_mut();
        stream.write_all(Command::Job(spec.clone()).encode().as_bytes())?;
        stream.write_all(b"\n")?;
        let mut x = Exchange {
            ok: false,
            cached: false,
            cells: 0,
            lines: Vec::new(),
            queued: None,
            queue_wait: None,
        };
        let mut queued = None;
        let mut raw = String::new();
        loop {
            raw.clear();
            if self.reader.read_line(&mut raw)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon hung up",
                ));
            }
            let (_, line) = split_job_tag(raw.trim_end());
            if line.starts_with("QUEUED ") {
                queued = Some(Instant::now());
                x.queued = Some(sent.elapsed().as_secs_f64() * 1e3);
                continue;
            }
            if let (Some(q), None) = (queued, x.queue_wait) {
                x.queue_wait = Some(q.elapsed().as_secs_f64() * 1e3);
            }
            if line.starts_with("CELL ") || line.starts_with("ERRCELL ") {
                x.lines.push(line);
            } else if let Some(rest) = line.strip_prefix("DONE ") {
                let mut done = String::from("DONE");
                let mut failed = 1;
                for token in rest.split_ascii_whitespace() {
                    match token.split_once('=') {
                        Some(("cached", v)) => {
                            x.cached = v == "1";
                            continue;
                        }
                        Some(("status", v)) => x.ok = v == StatusCode::Ok.code().to_string(),
                        Some(("cells", v)) => x.cells = v.parse().unwrap_or(0),
                        Some(("failed", v)) => failed = v.parse().unwrap_or(1),
                        _ => {}
                    }
                    done.push(' ');
                    done.push_str(token);
                }
                x.ok &= failed == 0;
                x.lines.push(done);
                return Ok(x);
            } else if line.starts_with("ERR ") {
                return Ok(x);
            }
        }
    }
}

/// Checks one interactive response: a hit must be served from the cache
/// with its first response's frames, a miss must run fresh.
fn check_response(report: &mut Report, x: &io::Result<Exchange>, hit: Option<&[String]>) {
    let ok = match (x, hit) {
        (Ok(x), Some(first)) => x.ok && x.cached && x.lines == first,
        (Ok(x), None) => x.ok && !x.cached && x.cells == SMOKE_CELLS,
        (Err(_), _) => false,
    };
    let kind = if hit.is_some() { "hit" } else { "miss" };
    report.check(ok, format!("interactive {kind}: wrong response"));
}

/// Runs `limit` bulk jobs on a deferrable connection; returns (jobs,
/// failures).
fn bulk_loop(addr: SocketAddr, jobs: &Jobs, limit: u64) -> (u64, u64) {
    let Ok(mut client) = Client::connect(addr) else {
        return (0, 1);
    };
    let (mut done, mut failures) = (0, 0);
    while done < limit {
        let response = client.submit(&jobs.bulk(done));
        done += 1;
        match response {
            Ok(r) if r.status == StatusCode::Ok && !r.cached => {}
            Ok(_) => failures += 1,
            Err(_) => {
                failures += 1;
                break;
            }
        }
    }
    (done, failures)
}

/// The session: fixed work (so its counts repeat exactly) through a raw
/// client that timestamps `QUEUED`, then the store re-opened and a
/// sample of the misses re-executed in process.
pub fn session(args: &Args, report: &mut Report, work: &Path) {
    let jobs = Jobs::new(args.seed);
    let dir = work.join("state");
    let (handle, mut client, first) = set_up(report, &jobs, &dir);
    let addr = handle.addr();

    let mut rng = SeedRng::new(args.seed);
    let mut pick = SeedRng::new(args.seed.wrapping_add(1));
    let mut next_is_hit = mix(&mut rng, HITS_PER_BLOCK);
    let (mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new());
    let (mut queued_ms, mut queue_ms) = (Vec::new(), Vec::new());
    let mut miss_specs = Vec::new();
    std::thread::scope(|scope| {
        let bulk = scope.spawn(|| bulk_loop(addr, &jobs, BULK));
        for _ in 0..REQUESTS {
            let hit = next_is_hit().then(|| pick.below(HIT_SET as usize));
            let spec = match hit {
                Some(i) => jobs.hit(i as u64),
                None => jobs.miss(miss_ms.len() as u64),
            };
            let t = Instant::now();
            let x = client.run(&spec);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            check_response(report, &x, hit.map(|i| first[i].as_slice()));
            let Ok(x) = x else { break };
            queued_ms.extend(x.queued);
            if hit.is_some() {
                hit_ms.push(ms);
            } else {
                miss_ms.push(ms);
                queue_ms.extend(x.queue_wait);
                miss_specs.push((spec, ms, x.lines));
            }
        }
        let (done, failures) = bulk.join().expect("bulk connection thread");
        report.check(done == BULK && failures == 0, "bulk jobs");
    });

    let stats = Client::connect(addr).and_then(|mut c| c.stats());
    drop(client);
    shut_down(report, handle, addr);
    match stats {
        Ok(s) => {
            report.metric(
                "server.hit_ratio",
                s.result_hits as f64 / s.jobs.max(1) as f64,
                "ratio",
            );
            report.metric("server.hits", s.result_hits as f64, "count");
            report.metric("server.misses", s.executed as f64, "count");
        }
        Err(e) => report.check(false, format!("STATS: {e}")),
    }
    report.metric("server.hit_rtt_ms", median(&hit_ms), "ms");
    report.metric("server.hit_rtt_p90_ms", quantile(&hit_ms, 0.9), "ms");
    report.metric("server.miss_rtt_ms", median(&miss_ms), "ms");
    report.metric("server.miss_rtt_p90_ms", quantile(&miss_ms, 0.9), "ms");
    report.metric("server.queued_ms", median(&queued_ms), "ms");
    report.metric("server.queue_wait_ms", median(&queue_ms), "ms");

    // The store as the next daemon life finds it.
    let mut open_ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let opened = DurableStore::open(&dir);
        open_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let results = opened.map(|(_, snapshot)| snapshot.results.len());
        let want = HIT_SET as usize + miss_ms.len() + BULK as usize;
        report.check(
            matches!(results, Ok(n) if n == want),
            format!("re-opened store holds {results:?} results, want {want}"),
        );
    }
    report.metric("store.open_ms", median(&open_ms), "ms");
    let bytes: u64 = std::fs::read_dir(&dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    report.metric("store.bytes", bytes as f64, "B");
    let _ = std::fs::remove_dir_all(&dir);

    // Daemon cost of a miss beyond executing it: the round trip minus an
    // in-process execute of the same spec.
    let mut overhead_ms = Vec::new();
    for (spec, rtt, lines) in miss_specs.iter().take(OVERHEAD_SAMPLES) {
        let t = Instant::now();
        let local = spec
            .execute(&JobEnv::default(), |_| {})
            .expect("registry scenarios always resolve");
        overhead_ms.push(rtt - t.elapsed().as_secs_f64() * 1e3);
        report.check(
            *lines == result_frames(&local),
            "daemon frames differ from an in-process execute",
        );
    }
    report.metric("server.miss_overhead_ms", median(&overhead_ms), "ms");
}
