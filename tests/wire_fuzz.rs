//! Untrusted-input fuzzing of the two text wire parsers: the one-line
//! [`JobSpec`] codec (`.job` files, the daemon's `JOB` payload) and the
//! daemon's command line ([`Command::parse`]).
//!
//! Both read lines from files and sockets that anyone can write, so any
//! input must come back as `Ok` or an error, never a panic. Whatever
//! parses must also survive the encoder: a parsed spec re-encodes to a
//! line that parses back to the same spec, and a parsed command to a line
//! that parses back to the same command. The mutations start from valid
//! lines and flip, cut and replace bytes at random; garbage comes bare
//! and behind a valid prefix.

use distfront::job::{JobClass, JobSpec, TraceSpec};
use distfront::server::Command;
use distfront::Integrator;
use distfront_trace::rng::SplitMix64;
use proptest::prelude::*;

/// Valid jobspec lines: every target kind and every non-default
/// scheduling token, canonical and hand-written (tokens omitted or
/// reordered).
fn jobspec_lines() -> Vec<String> {
    let mut lines: Vec<String> = [
        JobSpec::scenario("baseline"),
        JobSpec::scenario("technique-ladder-dvfs")
            .with_smoke(true)
            .with_trace(TraceSpec::Record)
            .with_class(JobClass::Deferrable),
        JobSpec::grid(["baseline", "drc+bh+ab"], ["gzip", "mcf"])
            .with_uops(40_000)
            .with_workers(2)
            .with_integrator(Integrator::Rk4)
            .with_batch(true)
            .with_trace(TraceSpec::Replay),
    ]
    .iter()
    .map(JobSpec::encode_line)
    .collect();
    lines.push("kind=scenario v=1 name=dtm-dvfs smoke=1".into());
    lines.push("v=1 kind=grid configs=baseline,,drc apps=gzip uops=+7".into());
    lines
}

/// Valid command lines: one of each verb.
fn command_lines() -> Vec<String> {
    let mut lines: Vec<String> = jobspec_lines().iter().map(|l| format!("JOB {l}")).collect();
    lines.extend(["PING", "STATS", "SHUTDOWN\r\n"].map(String::from));
    lines
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

/// Both parsers on `line`: as a jobspec, and as a command.
fn check(line: &str) -> Result<(), String> {
    jobspec_round_trips(line)?;
    command_round_trips(line)
}

/// One of the valid lines, picked by `rng`.
fn pick(rng: &mut SplitMix64, command: bool) -> Vec<u8> {
    let lines = if command {
        command_lines()
    } else {
        jobspec_lines()
    };
    lines[rng.next_below(lines.len() as u64) as usize]
        .clone()
        .into_bytes()
}

#[test]
fn the_unmutated_lines_parse_and_round_trip() {
    for line in jobspec_lines() {
        JobSpec::parse_line(&line).unwrap();
        jobspec_round_trips(&line).unwrap();
    }
    for line in command_lines() {
        Command::parse(&line).unwrap();
        command_round_trips(&line).unwrap();
    }
}

proptest! {
    // A parse takes microseconds, so the fuzzers afford many cases.
    #![proptest_config(ProptestConfig::with_cases(4096))]
    /// One to eight random bytes of a valid line XORed with random
    /// non-zero masks.
    #[test]
    fn byte_flips_never_panic(seed in 0u64..u64::MAX, command in proptest::bool::ANY) {
        let mut rng = SplitMix64::new(seed);
        let mut bytes = pick(&mut rng, command);
        for _ in 0..1 + rng.next_below(8) {
            let at = rng.next_below(bytes.len() as u64) as usize;
            bytes[at] ^= 1 + rng.next_below(255) as u8;
        }
        check(&String::from_utf8_lossy(&bytes))?;
    }

    /// Every prefix of a valid line, flipped or not.
    #[test]
    fn truncations_never_panic(seed in 0u64..u64::MAX, frac in 0.0f64..1.0) {
        let mut rng = SplitMix64::new(seed);
        let command = rng.next_below(2) == 0;
        let mut bytes = pick(&mut rng, command);
        if rng.next_below(2) == 0 {
            let at = rng.next_below(bytes.len() as u64) as usize;
            bytes[at] ^= 1 + rng.next_below(255) as u8;
        }
        let cut = (bytes.len() as f64 * frac) as usize;
        check(&String::from_utf8_lossy(&bytes[..cut]))?;
    }

    /// Garbage bare, and after a valid line and the separator a further
    /// token would follow.
    #[test]
    fn garbage_never_panics(seed in 0u64..u64::MAX, len in 0usize..48) {
        let mut rng = SplitMix64::new(seed);
        let tail = garbage(&mut rng, len);
        check(&tail)?;
        let command = rng.next_below(2) == 0;
        let prefix = String::from_utf8(pick(&mut rng, command)).unwrap();
        check(&format!("{prefix} {tail}"))?;
        check(&format!("{prefix}{tail}"))?;
    }
}
