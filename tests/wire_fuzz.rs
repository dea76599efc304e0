//! Untrusted-input fuzzing of the text wire parsers: the one-line
//! [`JobSpec`] codec (`.job` files, the daemon's `JOB` payload), the
//! daemon's command line ([`Command::parse`]), the result frames a client
//! reads and a state directory or shard worker stores
//! ([`JobResponse::from_frames`]), and the `STATS` frame
//! ([`DaemonStats::parse`]).
//!
//! They read lines from files and sockets that anyone can write, so any
//! input must come back as `Ok` or an error, never a panic. Whatever
//! parses must also survive the encoder: a parsed spec re-encodes to a
//! line that parses back to the same spec, and a parsed command to a line
//! that parses back to the same command. Parsed result frames must agree
//! with their own counts: one result line per cell plus the `DONE` line,
//! and no more failed cells than cells. The mutations start from valid
//! inputs and flip, cut and replace bytes at random; garbage comes bare
//! and behind a valid prefix. A frame record is one input with its frames
//! on separate lines.
//!
//! The [`Client`] reads the same frames off a socket: fed a daemon's
//! response stream, mutated the same ways or holding a line past
//! [`protocol::MAX_LINE_BYTES`], it must answer an error or a response
//! that agrees with its own counts, never panic or read without bound.

use distfront::job::{JobClass, JobSpec, TraceSpec};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener};

use distfront::server::{protocol, Client, Command, DaemonStats, JobResponse};
use distfront::Integrator;
use distfront_trace::rng::SplitMix64;
use proptest::prelude::*;

/// Valid jobspec lines: one- and many-scenario targets and every
/// non-default scheduling token, canonical and hand-written (tokens
/// omitted or reordered).
fn jobspec_lines() -> Vec<String> {
    let mut lines: Vec<String> = [
        JobSpec::scenario("baseline"),
        JobSpec::scenario("technique-ladder-dvfs")
            .with_smoke(true)
            .with_trace(TraceSpec::Record)
            .with_class(JobClass::Deferrable),
        JobSpec::scenarios(["baseline", "drc+bh+ab"])
            .with_uops(40_000)
            .with_workers(2)
            .with_integrator(Integrator::Rk4)
            .with_trace(TraceSpec::Replay),
    ]
    .iter()
    .map(JobSpec::encode_line)
    .collect();
    lines.push("kind=scenario v=1 name=dtm-dvfs smoke=1".into());
    // Older encoders wrote `batch=`; it still parses, and is ignored.
    lines.push("v=1 kind=scenario name=baseline workers=2 batch=1 trace=replay".into());
    lines.push("v=1 kind=scenario name=a,b".into());
    lines
}

/// Jobspec lines that must be rejected: an empty or a repeated name in
/// the list, and the retired `kind=grid` target.
fn rejected_jobspec_lines() -> Vec<String> {
    [
        "v=1 kind=scenario name=a,,b",
        "v=1 kind=scenario name=a,a",
        "v=1 kind=grid configs=baseline,,drc apps=gzip uops=+7",
    ]
    .map(String::from)
    .to_vec()
}

/// Valid command lines: one of each verb.
fn command_lines() -> Vec<String> {
    let mut lines: Vec<String> = jobspec_lines().iter().map(|l| format!("JOB {l}")).collect();
    lines.extend(["PING", "STATS", "SHUTDOWN\r\n"].map(String::from));
    lines
}

/// Valid result-frame records, one frame per line: what
/// `protocol::result_frames` writes for a job or a shard's slice.
fn frame_records() -> Vec<String> {
    [
        "CELL baseline,gzip,1\nERRCELL baseline mcf warm start diverged\nDONE status=2 cells=2 failed=1",
        "CELL drc,gzip,1.5,2\nCELL drc,mcf,3,4\nDONE status=0 cells=2 failed=0 cached=1",
        "DONE status=0 cells=0 failed=0",
    ]
    .map(String::from)
    .to_vec()
}

/// Valid `STATS` frames.
fn stats_lines() -> Vec<String> {
    [
        "STATS jobs=3 executed=2 result_hits=1 result_entries=2 traces=0 \
         persisted_results=2 persisted_traces=0",
        "STATS jobs=0",
    ]
    .map(String::from)
    .to_vec()
}

/// Fragments of the wire grammar, so garbage reaches the value parsers
/// and the validator, not only the key lookup.
const VOCABULARY: &[&str] = &[
    "v=",
    "1",
    "0",
    "kind=",
    "scenario",
    "grid",
    "name=",
    "configs=",
    "apps=",
    "smoke=",
    "uops=",
    "workers=",
    "integrator=",
    "expm",
    "rk4",
    "batch=",
    "trace=",
    "record",
    "replay",
    "class=",
    "deferrable",
    ",",
    "=",
    " ",
    "\t",
    "\r",
    "\n",
    "\u{a0}",
    "\u{1c}",
    "é",
    "-1",
    "+",
    "18446744073709551616",
    "baseline",
    "gzip",
    "JOB ",
    "PING",
    "STATS",
    "SHUTDOWN",
    "CELL ",
    "ERRCELL ",
    "DONE ",
    "ERR ",
    "status=",
    "cells=",
    "failed=",
    "cached=",
    "STATS ",
    "jobs=",
    "executed=",
];

/// `len` random bytes or vocabulary fragments, lossily decoded.
fn garbage(rng: &mut SplitMix64, len: usize) -> String {
    let mut bytes = Vec::new();
    for _ in 0..len {
        if rng.next_below(2) == 0 {
            bytes.push(rng.next_u64() as u8);
        } else {
            let word = VOCABULARY[rng.next_below(VOCABULARY.len() as u64) as usize];
            bytes.extend_from_slice(word.as_bytes());
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Parses `line` as a jobspec, which must not panic; a success must
/// re-encode to a line that parses back to the same spec.
fn jobspec_round_trips(line: &str) -> Result<(), String> {
    match JobSpec::parse_line(line) {
        Ok(spec) => match JobSpec::parse_line(&spec.encode_line()) {
            Ok(again) if again == spec => Ok(()),
            other => Err(format!(
                "{line:?} parsed to {spec:?}, re-parsed to {other:?}"
            )),
        },
        Err(_) => Ok(()),
    }
}

/// Parses `line` as a command, which must not panic; a success must
/// re-encode to a line that parses back to the same command.
fn command_round_trips(line: &str) -> Result<(), String> {
    match Command::parse(line) {
        Ok(command) => match Command::parse(&command.encode()) {
            Ok(again) if again == command => Ok(()),
            other => Err(format!(
                "{line:?} parsed to {command:?}, re-parsed to {other:?}"
            )),
        },
        Err(_) => Ok(()),
    }
}

/// Parses `input` as a result-frame record, one frame per line, which
/// must not panic; a success must hold one result line per cell plus the
/// `DONE` line, and no more failed cells than cells.
fn frames_hold_their_counts(input: &str) -> Result<(), String> {
    let frames: Vec<String> = input.split('\n').map(String::from).collect();
    match JobResponse::from_frames(&frames) {
        Ok(r) if r.result_lines.len() != r.cells + 1 || r.failed > r.cells => Err(format!(
            "{input:?} parsed to {} result lines for cells={} failed={}",
            r.result_lines.len(),
            r.cells,
            r.failed
        )),
        _ => Ok(()),
    }
}

/// Every parser on `input`.
fn check(input: &str) -> Result<(), String> {
    jobspec_round_trips(input)?;
    command_round_trips(input)?;
    let _ = DaemonStats::parse(input);
    frames_hold_their_counts(input)
}

/// One of the valid inputs of every parser, picked by `rng`.
fn pick(rng: &mut SplitMix64) -> Vec<u8> {
    let mut inputs = command_lines();
    inputs.extend(jobspec_lines());
    inputs.extend(rejected_jobspec_lines());
    inputs.extend(frame_records());
    inputs.extend(stats_lines());
    inputs[rng.next_below(inputs.len() as u64) as usize]
        .clone()
        .into_bytes()
}

/// Valid daemon response streams to one `JOB`.
fn response_streams() -> Vec<Vec<u8>> {
    [
        "QUEUED job=0 fp=00000000000000ab class=interactive\n\
         PROGRESS job=0 baseline gzip ok\n\
         CELL job=0 baseline,gzip,1\n\
         ERRCELL job=0 baseline mcf warm start diverged\n\
         DONE job=0 status=2 cells=2 failed=1 cached=0\n",
        "CELL job=0 drc,gzip,1.5,2\nDONE job=0 status=0 cells=1 failed=0 cached=1\n",
        "QUEUED job=0 fp=00000000000000ab class=deferrable\nERR job=0 64 unknown scenario\n",
    ]
    .map(|s| s.as_bytes().to_vec())
    .to_vec()
}

/// Submits a job to a stand-in daemon that answers `stream` and then
/// closes its side.
fn submit_to_stand_in(stream: Vec<u8>) -> io::Result<JobResponse> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let daemon = std::thread::spawn(move || {
        let (mut socket, _) = listener.accept().unwrap();
        let mut request = String::new();
        BufReader::new(socket.try_clone().unwrap())
            .read_line(&mut request)
            .unwrap();
        let _ = socket.write_all(&stream);
        let _ = socket.shutdown(Shutdown::Write);
        let _ = socket.read(&mut [0u8; 1]); // until the client hangs up
    });
    let mut client = Client::connect(addr)?;
    let outcome = client.submit(&JobSpec::scenario("baseline"));
    drop(client);
    daemon.join().expect("stand-in daemon panicked");
    outcome
}

/// The client must not panic on `stream`, and a response it parses must
/// hold one result line per cell plus the `DONE` line (or be an `ERR`).
fn client_reads(stream: Vec<u8>) -> Result<(), String> {
    match submit_to_stand_in(stream) {
        Ok(r)
            if r.error.is_none() && (r.result_lines.len() != r.cells + 1 || r.failed > r.cells) =>
        {
            Err(format!("{r:?} disagrees with its counts"))
        }
        _ => Ok(()),
    }
}

#[test]
fn the_client_reads_valid_streams_and_rejects_over_long_lines() {
    for stream in response_streams() {
        submit_to_stand_in(stream).unwrap();
    }
    let over = protocol::MAX_LINE_BYTES as usize + 1;
    let mut long = b"CELL job=0 ".to_vec();
    long.resize(over, b'x');
    for stream in [vec![b'x'; over], long] {
        // Alone, after a valid prefix, and with a newline past the bound.
        let mut prefixed = b"QUEUED job=0 fp=00000000000000ab class=interactive\n".to_vec();
        prefixed.extend_from_slice(&stream);
        let mut ended = stream.clone();
        ended.push(b'\n');
        for input in [stream, prefixed, ended] {
            let err = submit_to_stand_in(input).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("exceeds"), "{err}");
        }
    }
}

#[test]
fn the_unmutated_lines_parse_and_round_trip() {
    for line in jobspec_lines() {
        JobSpec::parse_line(&line).unwrap();
        jobspec_round_trips(&line).unwrap();
    }
    for line in rejected_jobspec_lines() {
        JobSpec::parse_line(&line).unwrap_err();
        Command::parse(&format!("JOB {line}")).unwrap_err();
    }
    for line in command_lines() {
        Command::parse(&line).unwrap();
        command_round_trips(&line).unwrap();
    }
    for record in frame_records() {
        let frames: Vec<String> = record.split('\n').map(String::from).collect();
        JobResponse::from_frames(&frames).unwrap();
        frames_hold_their_counts(&record).unwrap();
    }
    for line in stats_lines() {
        DaemonStats::parse(&line).unwrap();
    }
}

proptest! {
    // A parse takes microseconds, so the fuzzers afford many cases.
    #![proptest_config(ProptestConfig::with_cases(4096))]
    /// One to eight random bytes of a valid input XORed with random
    /// non-zero masks.
    #[test]
    fn byte_flips_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = SplitMix64::new(seed);
        let mut bytes = pick(&mut rng);
        for _ in 0..1 + rng.next_below(8) {
            let at = rng.next_below(bytes.len() as u64) as usize;
            bytes[at] ^= 1 + rng.next_below(255) as u8;
        }
        check(&String::from_utf8_lossy(&bytes))?;
    }

    /// Every prefix of a valid input, flipped or not.
    #[test]
    fn truncations_never_panic(seed in 0u64..u64::MAX, frac in 0.0f64..1.0) {
        let mut rng = SplitMix64::new(seed);
        let mut bytes = pick(&mut rng);
        if rng.next_below(2) == 0 {
            let at = rng.next_below(bytes.len() as u64) as usize;
            bytes[at] ^= 1 + rng.next_below(255) as u8;
        }
        let cut = (bytes.len() as f64 * frac) as usize;
        check(&String::from_utf8_lossy(&bytes[..cut]))?;
    }

    /// Garbage bare, and after a valid input and the separator a further
    /// token would follow.
    #[test]
    fn garbage_never_panics(seed in 0u64..u64::MAX, len in 0usize..48) {
        let mut rng = SplitMix64::new(seed);
        let tail = garbage(&mut rng, len);
        check(&tail)?;
        let prefix = String::from_utf8(pick(&mut rng)).unwrap();
        check(&format!("{prefix} {tail}"))?;
        check(&format!("{prefix}{tail}"))?;
    }
}

proptest! {
    // Each case is a socket round trip, so fewer cases than the parsers.
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// A daemon's response stream flipped, cut or followed by garbage.
    #[test]
    fn mutated_response_streams_never_panic_the_client(seed in 0u64..u64::MAX) {
        let mut rng = SplitMix64::new(seed);
        let streams = response_streams();
        let mut bytes = streams[rng.next_below(streams.len() as u64) as usize].clone();
        for _ in 0..rng.next_below(4) {
            let at = rng.next_below(bytes.len() as u64) as usize;
            bytes[at] ^= 1 + rng.next_below(255) as u8;
        }
        match rng.next_below(3) {
            0 => bytes.truncate(rng.next_below(bytes.len() as u64 + 1) as usize),
            1 => {
                let len = rng.next_below(48) as usize;
                bytes.extend_from_slice(garbage(&mut rng, len).as_bytes());
            }
            _ => {}
        }
        client_reads(bytes)?;
    }
}
