//! `distfront-sweepd` — the persistent sweep daemon.
//!
//! ```text
//! distfront-sweepd [--addr HOST:PORT] [--state-dir DIR]
//!
//! Options:
//!   --addr A       listen address (default 127.0.0.1:4705; port 0 picks
//!                  an ephemeral port, printed on the "listening" line)
//!   --state-dir D  persist the result cache and trace store as segment
//!                  files under D, and load them back on startup
//! ```
//!
//! Serves the newline-delimited protocol documented in
//! [`distfront::server::protocol`]: `JOB <jobspec>` submissions are
//! deduped against a content-addressed result cache and executed on two
//! class executors (interactive run-ahead, deferrable queue) sharing one
//! process-wide trace store. Drive it with
//! `distfront-scenarios --connect ADDR` or raw `nc`.
//!
//! With `--state-dir`, solved results and recorded traces are also
//! appended to crash-safe segment files and `fsync`ed *before* each
//! job's terminal frame is sent — so a daemon restarted on the same
//! directory serves resubmitted jobs as disk cache hits, byte-identical
//! to its previous life (see [`distfront::store`]).
//!
//! Exits 0 after a `SHUTDOWN` command drains both executors and settles
//! the store. std-only builds cannot trap signals, so SIGTERM just kills
//! the process — still safe: without a state dir the caches are
//! in-memory and rebuilt on demand, and with one, durability rides the
//! pre-acknowledgement flush, not the exit path. Usage errors exit 64,
//! bind failures 3, per the shared [`StatusCode`] vocabulary.

use std::process::ExitCode;

use distfront::job::StatusCode;
use distfront::server::SweepDaemon;

/// Default listen address: loopback only (the protocol is
/// unauthenticated), on an arbitrary fixed port.
const DEFAULT_ADDR: &str = "127.0.0.1:4705";

fn usage() -> &'static str {
    "usage: distfront-sweepd [--addr HOST:PORT] [--state-dir DIR]"
}

struct Args {
    addr: String,
    state_dir: Option<String>,
}

fn parse_args(mut argv: std::env::Args) -> Result<Args, String> {
    let mut args = Args {
        addr: DEFAULT_ADDR.to_string(),
        state_dir: None,
    };
    argv.next(); // program name
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--addr" => {
                args.addr = argv.next().ok_or("--addr needs a value")?;
            }
            "--state-dir" => {
                args.state_dir = Some(argv.next().ok_or("--state-dir needs a value")?);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return StatusCode::Usage.into();
        }
    };
    let daemon = match &args.state_dir {
        Some(dir) => SweepDaemon::bind_persistent(&args.addr, dir),
        None => SweepDaemon::bind(&args.addr),
    };
    let daemon = match daemon {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("error: binding {}: {e}", args.addr);
            return StatusCode::Io.into();
        }
    };
    match daemon.run() {
        Ok(()) => StatusCode::Ok.into(),
        Err(e) => {
            eprintln!("error: {e}");
            StatusCode::Io.into()
        }
    }
}
