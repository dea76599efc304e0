//! The `distfront-sweepd` wire protocol: newline-delimited UTF-8 frames.
//!
//! # Framing
//!
//! Every message — both directions — is one line, terminated by `\n`,
//! whose first space-separated token names the frame. The protocol is
//! deliberately the same shape as the [`JobSpec`] line codec (and embeds
//! it verbatim in `JOB` frames): debuggable with `nc`, no length
//! prefixes, no binary. A request line may be at most
//! [`MAX_LINE_BYTES`] long, its newline included; a longer one is
//! answered with a connection-level `ERR` and the connection is closed.
//! The [`Client`] holds the daemon's frames to the same bound: a longer
//! one is an [`InvalidData`](std::io::ErrorKind::InvalidData) error.
//!
//! [`Client`]: crate::server::Client
//!
//! Client → server commands:
//!
//! | line | meaning |
//! |---|---|
//! | `JOB <jobspec-line>` | submit a job; the spec is [`JobSpec::encode_line`] verbatim |
//! | `PING` | liveness probe; answered with `PONG` |
//! | `STATS` | one `STATS` frame of daemon counters |
//! | `SHUTDOWN` | stop accepting, drain executors, exit cleanly |
//!
//! Server → client responses to `JOB`, in order:
//!
//! | line | meaning |
//! |---|---|
//! | `QUEUED job=<n> fp=<hex16> class=<class>` | accepted; content address echoed |
//! | `PROGRESS job=<n> <config> <app> <status>` | advisory, **completion order**; `ok`/`failed <msg>` |
//! | `CELL job=<n> <csv-row>` | one result row, **canonical grid order** |
//! | `ERRCELL job=<n> <config> <app> <msg>` | one failed cell, canonical grid order |
//! | `DONE job=<n> status=<code> cells=<n> failed=<n> cached=<0\|1>` | terminal |
//! | `ERR job=<n> <status-code> <msg>` | terminal: the job never ran |
//! | `ERR <status-code> <msg>` | connection-level: the line was not a command |
//!
//! `PROGRESS` frames stream live as cells complete and are excluded from
//! the byte-identity contract (their order is scheduling-dependent, and
//! a cache hit replays none). `CELL`/`ERRCELL`/`DONE` are the result
//! proper: emitted in canonical grid order after the job completes, they
//! are byte-identical across runs, worker counts, job classes and cache
//! hits — a replayed `DONE` differs only in its `cached=` token, which
//! is why that token exists (and sits last on the line).
//!
//! These result frames are also the one storage format for results: a
//! `--state-dir` or daemon record holds one row's frames ([`row_frames`]),
//! stored under the row's fingerprint, and a shard worker's record holds
//! the frames of its slice of the job's cells (see [`crate::shard`]).
//! [`JobResponse::from_frames`] reads either back, and rejects a list
//! whose `DONE` counts disagree with its `CELL`/`ERRCELL` lines.
//!
//! [`JobResponse::from_frames`]: crate::server::JobResponse::from_frames
//!
//! # Pipelining
//!
//! A connection may have **multiple jobs in flight**: the daemon reads
//! the next command as soon as a `JOB` is queued, instead of blocking
//! the connection until its terminal frame. Every job-scoped frame
//! (the table above) therefore carries a `job=<n>` token right after
//! the frame name, where `n` is the connection's job sequence id —
//! monotonic from 0 in `JOB` submission order, assigned at parse time —
//! so a client that pipelines can demultiplex interleaved responses.
//! One job's `CELL …DONE` result batch is written atomically (never
//! interleaved with another job's batch); only `QUEUED`/`PROGRESS`
//! frames from other jobs may appear between batches. A client that
//! submits one job at a time sees exactly the old frame sequence, ids
//! counting up from 0, and can simply ignore the token. Connection-level
//! `ERR` frames (a line that never parsed as a command) carry no job id.
//!
//! # Version policy
//!
//! The frame vocabulary is versioned *through* the embedded jobspec line:
//! a `JOB` frame carries `v=<n>` and the daemon rejects versions it does
//! not speak with `ERR 64 …` (see [`JobSpecError::UnsupportedVersion`]).
//! Frame names themselves are append-only — an existing name never
//! changes meaning; new capabilities get new tokens appended after the
//! existing ones (`job=` rode in exactly this way) — mirroring the
//! `DFAT` trace-format policy in [`distfront_trace::record`].
//!
//! [`JobSpecError::UnsupportedVersion`]: crate::job::JobSpecError::UnsupportedVersion

use crate::engine::CellOutcome;
use crate::job::{JobClass, JobReport, JobSpec, StatusCode};

/// The longest line either side reads, newline included (1 MiB). A `JOB`
/// line or a result frame is a few hundred bytes; the bound only stops a
/// peer that never sends a newline from growing the reader's buffer.
pub const MAX_LINE_BYTES: u64 = 1 << 20;

/// A parsed client → server command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `JOB <jobspec-line>`: run (or serve from cache) the spec.
    Job(JobSpec),
    /// `PING`: answer `PONG` without touching the queues.
    Ping,
    /// `STATS`: report daemon counters.
    Stats,
    /// `SHUTDOWN`: drain and exit.
    Shutdown,
}

impl Command {
    /// Parses one command line.
    ///
    /// # Errors
    ///
    /// Returns the `ERR` frame to answer with: [`StatusCode::Usage`] and
    /// a message, for unknown verbs and malformed jobspecs alike.
    pub fn parse(line: &str) -> Result<Command, (StatusCode, String)> {
        let line = line.trim_end_matches(['\r', '\n']);
        let (verb, rest) = match line.split_once(' ') {
            Some((v, r)) => (v, r),
            None => (line, ""),
        };
        match verb {
            "JOB" => JobSpec::parse_line(rest)
                .map(Command::Job)
                .map_err(|e| (StatusCode::Usage, e.to_string())),
            "PING" if rest.is_empty() => Ok(Command::Ping),
            "STATS" if rest.is_empty() => Ok(Command::Stats),
            "SHUTDOWN" if rest.is_empty() => Ok(Command::Shutdown),
            _ => Err((
                StatusCode::Usage,
                format!("unknown command {verb:?} (expected JOB/PING/STATS/SHUTDOWN)"),
            )),
        }
    }

    /// Serializes the command to its wire line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Command::Job(spec) => format!("JOB {}", spec.encode_line()),
            Command::Ping => "PING".to_string(),
            Command::Stats => "STATS".to_string(),
            Command::Shutdown => "SHUTDOWN".to_string(),
        }
    }
}

/// The `QUEUED` acknowledgement frame.
pub fn queued_frame(job: u64, fingerprint: u64, class: JobClass) -> String {
    format!("QUEUED job={job} fp={fingerprint:016x} class={class}")
}

/// One advisory `PROGRESS` frame (completion order, not part of the
/// byte-identity contract).
pub fn progress_frame(job: u64, cell: &CellOutcome) -> String {
    match &cell.result {
        Ok(_) => format!(
            "PROGRESS job={job} {} {} ok",
            cell.config_name, cell.app_name
        ),
        Err(e) => format!(
            "PROGRESS job={job} {} {} failed {e}",
            cell.config_name, cell.app_name
        ),
    }
}

/// Inserts the per-connection `job=<n>` token after a frame's name —
/// how stored (untagged) result frames pick up their connection-scoped
/// identity at send time, keeping the cached bytes connection-free.
pub fn tag_frame(job: u64, frame: &str) -> String {
    match frame.split_once(' ') {
        Some((verb, rest)) => format!("{verb} job={job} {rest}"),
        None => format!("{frame} job={job}"),
    }
}

/// Splits a frame's `job=<n>` token (if its second token is one) from
/// the rest of the line — the client-side inverse of [`tag_frame`].
pub fn split_job_tag(line: &str) -> (Option<u64>, String) {
    if let Some((verb, rest)) = line.split_once(' ') {
        let (token, tail) = match rest.split_once(' ') {
            Some((t, tail)) => (t, Some(tail)),
            None => (rest, None),
        };
        if let Some(id) = token.strip_prefix("job=").and_then(|v| v.parse().ok()) {
            return match tail {
                Some(tail) => (Some(id), format!("{verb} {tail}")),
                None => (Some(id), verb.to_string()),
            };
        }
    }
    (None, line.to_string())
}

/// The result frames a completed job serializes to: `CELL`/`ERRCELL`
/// lines in canonical row order followed by the terminal `DONE` —
/// exactly the lines the daemon sends, minus the `DONE` frame's
/// `cached=` suffix, which the sender appends (see the module docs).
/// They are its [`row_frames`] concatenated under one `DONE`.
pub fn result_frames(report: &JobReport) -> Vec<String> {
    cell_frames(&report.labels, report.report.cells())
}

/// Each row's result frames, in row order: the row's `CELL`/`ERRCELL`
/// lines and its own `DONE` — the record a daemon or a state directory
/// stores under the row's fingerprint, byte-identical to the frames of
/// the one-scenario job of that row.
pub fn row_frames(report: &JobReport) -> Vec<Vec<String>> {
    (0..report.labels.len())
        .map(|row| cell_frames(&report.labels, report.report.row(row)))
        .collect()
}

/// The result frames of a run of cells: one `CELL`/`ERRCELL` line per
/// cell, in the order given, labeled by its row's entry in `labels`,
/// then `DONE status=<code> cells=<n> failed=<n>`. A whole job's report,
/// a row and a shard worker's slice of the cells all serialize through
/// here, so a stored record holds the same lines as the matching stretch
/// of the whole job's frames.
pub(crate) fn cell_frames(labels: &[&str], cells: &[CellOutcome]) -> Vec<String> {
    let mut frames = Vec::with_capacity(cells.len() + 1);
    let mut failed = 0usize;
    for cell in cells {
        let name = labels[cell.config];
        frames.push(match &cell.result {
            Ok(r) => format!("CELL {}", crate::scenarios::csv_row(name, r)),
            Err(e) => {
                failed += 1;
                format!("ERRCELL {name} {} {e}", cell.app_name)
            }
        });
    }
    frames.push(done_frame(cells.len(), failed, false));
    frames
}

/// The terminal `DONE status=<code> cells=<n> failed=<n>` frame of `cells`
/// reported cells, `failed` of them failed. Its status is
/// [`StatusCode::ShardFailed`] if `lost` (cells that never reported),
/// else [`StatusCode::CellsFailed`] if any cell failed, else
/// [`StatusCode::Ok`].
pub(crate) fn done_frame(cells: usize, failed: usize, lost: bool) -> String {
    let status = if lost {
        StatusCode::ShardFailed
    } else if failed > 0 {
        StatusCode::CellsFailed
    } else {
        StatusCode::Ok
    };
    format!(
        "DONE status={} cells={cells} failed={failed}",
        status.code()
    )
}

/// The connection-level `ERR` frame (a line that never became a job
/// carries no job id).
pub fn err_frame(status: StatusCode, msg: &str) -> String {
    format!("ERR {} {msg}", status.code())
}

/// The terminal `ERR` frame for a job that never ran (tagged with the
/// connection's job sequence id).
pub fn job_err_frame(job: u64, status: StatusCode, msg: &str) -> String {
    format!("ERR job={job} {} {msg}", status.code())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpecError;

    #[test]
    fn commands_roundtrip() {
        let spec = JobSpec::scenario("baseline").with_smoke(true);
        for cmd in [
            Command::Job(spec),
            Command::Ping,
            Command::Stats,
            Command::Shutdown,
        ] {
            assert_eq!(Command::parse(&cmd.encode()), Ok(cmd));
        }
    }

    #[test]
    fn parse_tolerates_line_endings_and_rejects_junk() {
        assert_eq!(Command::parse("PING\r\n"), Ok(Command::Ping));
        assert!(Command::parse("EVAL rm -rf /").is_err());
        assert!(Command::parse("PING extra").is_err());
        let (status, msg) = Command::parse("JOB v=9 kind=scenario name=x").unwrap_err();
        assert_eq!(status, StatusCode::Usage);
        assert_eq!(msg, JobSpecError::UnsupportedVersion(9).to_string());
    }

    #[test]
    fn queued_frame_is_fixed_width_hex() {
        let frame = queued_frame(3, 0xAB, JobClass::Deferrable);
        assert_eq!(frame, "QUEUED job=3 fp=00000000000000ab class=deferrable");
    }

    #[test]
    fn job_tags_round_trip() {
        assert_eq!(tag_frame(7, "CELL a,b,c"), "CELL job=7 a,b,c");
        assert_eq!(
            split_job_tag("CELL job=7 a,b,c"),
            (Some(7), "CELL a,b,c".to_string())
        );
        assert_eq!(
            tag_frame(0, "DONE status=0 cells=1 failed=0"),
            "DONE job=0 status=0 cells=1 failed=0"
        );
        // Untagged (connection-level) frames pass through unchanged.
        assert_eq!(split_job_tag("ERR 64 nope"), (None, "ERR 64 nope".into()));
        assert_eq!(split_job_tag("PONG"), (None, "PONG".into()));
        // A job= mid-line is not a tag.
        assert_eq!(
            split_job_tag("ERR 64 bad key job=x"),
            (None, "ERR 64 bad key job=x".into())
        );
    }
}
