//! Named, self-describing experiment scenarios.
//!
//! A scenario binds an application suite, a processor configuration and a
//! DTM policy into one runnable, comparable unit — the registry covers the
//! paper's technique configurations (Figs. 12–14) plus the DTM design
//! space the techniques are motivated by. A scenario runs as a
//! [`JobSpec`](crate::job::JobSpec) target through
//! [`JobSpec::execute`](crate::job::JobSpec::execute), the one execution
//! path of every front end, and inherits the engine's bit-identity
//! guarantee: the same scenario at any worker count produces byte-identical
//! CSV/JSON output.
//!
//! The `distfront-scenarios` binary is the command-line front end:
//!
//! ```sh
//! distfront-scenarios --list
//! distfront-scenarios --run dtm-dvfs --uops 100000 --csv out.csv
//! distfront-scenarios --all --smoke --json out.json
//! distfront-scenarios --all --smoke --verify   # serial vs parallel bytes
//! ```
//!
//! Scenario execution is *fault-tolerant*: a cell that fails (e.g. a
//! non-converged warm start) becomes an `Err` outcome in the report — the
//! remaining cells still run, the CSV/JSON emitters publish the partial
//! results, and the summary table counts the failures. The CLI exits with
//! status 2 when any cell failed, listing the failed coordinates.
//!
//! # Examples
//!
//! ```
//! use distfront::job::{JobEnv, JobSpec};
//! use distfront::scenarios;
//!
//! let spec = JobSpec::scenario("baseline").with_smoke(true).with_uops(30_000);
//! let report = spec.execute(&JobEnv::default(), |_| {}).unwrap();
//! assert!(report.report.is_complete());
//! assert_eq!(report.csv_rows().len(), scenarios::suite_apps(true).len());
//! ```

use std::fmt::Write as _;
use std::io;

use distfront_power::LeakageModel;
use distfront_trace::{AppProfile, PhasedProfile, Workload};

use crate::dtm::{DvfsPolicy, FetchGatePolicy, MigrationPolicy};
use crate::emergency::EmergencyPolicy;
use crate::experiment::{DtmSpec, ExperimentConfig};
use crate::job::JobReport;
use crate::report::{FigureRow, FigureTable};
use crate::runner::AppResult;
use crate::server::JobResponse;

/// Trip temperature for the DTM study scenarios, in °C.
///
/// The paper's hard limit is 381 K (≈ 107.9 °C); the calibrated baseline
/// peaks right at it, so a study trip a few degrees lower guarantees the
/// policies actually engage on the hot applications while the cool ones
/// run free — the regime the paper's §4 discussion is about.
pub const STUDY_TRIP_C: f64 = 100.0;

/// Micro-ops per application of a full run: the 26-application
/// evaluation at a CI-friendly run length.
pub const FULL_UOPS: u64 = 200_000;

/// Micro-ops per application of a smoke run.
pub const SMOKE_UOPS: u64 = 40_000;

/// One named experiment: workload suite × configuration × policy.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Registry name (stable; used by `--run`).
    pub name: &'static str,
    /// One-line description shown by `--list`.
    pub summary: &'static str,
    build: fn() -> ExperimentConfig,
    /// Fixed workload suite; `None` runs over [`suite_apps`].
    /// Phased/multi-program scenarios pin their own workloads.
    workloads: Option<fn() -> Vec<Workload>>,
}

impl Scenario {
    /// A scenario from its parts (the [`registry`] covers the paper; this
    /// is for ad-hoc scenarios like the CLI's fault injection).
    pub fn new(name: &'static str, summary: &'static str, build: fn() -> ExperimentConfig) -> Self {
        Scenario {
            name,
            summary,
            build,
            workloads: None,
        }
    }

    /// Pins a fixed workload suite (phased profiles, interleavings) in
    /// place of the [`suite_apps`] application suite; returns `self` for
    /// chaining.
    #[must_use]
    pub fn with_workloads(mut self, workloads: fn() -> Vec<Workload>) -> Self {
        self.workloads = Some(workloads);
        self
    }

    /// The scenario's experiment configuration (before run-length scaling).
    pub fn config(&self) -> ExperimentConfig {
        (self.build)()
    }

    /// The workload suite the scenario runs: its pinned suite if it has
    /// one, otherwise [`suite_apps`]`(smoke)`.
    pub fn workloads(&self, smoke: bool) -> Vec<Workload> {
        match self.workloads {
            Some(f) => f(),
            None => suite_apps(smoke)
                .into_iter()
                .map(Workload::Single)
                .collect(),
        }
    }
}

/// The application suite a scenario without pinned workloads runs: the
/// full SPEC2000 set, or in smoke mode `tiny` plus one compute-bound
/// integer, one memory-bound integer and one streaming FP application.
pub fn suite_apps(smoke: bool) -> Vec<AppProfile> {
    if smoke {
        ["gzip", "mcf", "swim"]
            .iter()
            .map(|n| *AppProfile::by_name(n).expect("smoke app exists"))
            .chain(std::iter::once(AppProfile::test_tiny()))
            .collect()
    } else {
        AppProfile::spec2000().to_vec()
    }
}

/// A deliberately broken scenario for fault-injection runs: the baseline
/// with a leakage feedback gain far past the stability limit, so every
/// cell's warm start fails with
/// [`EngineError::NotConverged`](crate::engine::EngineError). Not part of
/// the [`registry`]; the CLI's `--inject-fail` appends it so CI can assert
/// the partial-results contract (exit code 2, surviving cells published).
pub fn fault_injection() -> Scenario {
    Scenario::new(
        "fault-injection",
        "baseline with runaway leakage feedback: every cell fails to converge",
        || {
            ExperimentConfig::baseline().with_leakage(LeakageModel {
                ratio_at_ambient: 6.0,
                doubling_celsius: 4.0,
                emergency_c: f64::MAX,
                ..LeakageModel::paper()
            })
        },
    )
}

/// Phased workloads for the `phased-hot-cold` scenario: long alternating
/// slices of a hot compute-bound application and a cooler memory-bound
/// one, so the thermal trajectory actually follows the phases.
fn hot_cold_workloads() -> Vec<Workload> {
    let p = |n| *AppProfile::by_name(n).expect("registry profile exists");
    vec![
        Workload::Phased(PhasedProfile::alternating(
            "crafty-mcf",
            p("crafty"),
            p("mcf"),
            25_000,
        )),
        Workload::Phased(PhasedProfile::alternating(
            "gzip-art",
            p("gzip"),
            p("art"),
            25_000,
        )),
    ]
}

/// Phased workloads for the `phased-ramp` scenario: three-phase cycles
/// stepping compute-bound → memory-bound → FP-streaming behaviour.
fn ramp_workloads() -> Vec<Workload> {
    use distfront_trace::Phase;
    let p = |n| *AppProfile::by_name(n).expect("registry profile exists");
    let ramp = |name, a, b, c| {
        Workload::Phased(PhasedProfile::new(
            name,
            [a, b, c]
                .into_iter()
                .map(|n| Phase {
                    profile: p(n),
                    uops: 20_000,
                })
                .collect(),
        ))
    };
    vec![
        ramp("gzip-mcf-swim", "gzip", "mcf", "swim"),
        ramp("crafty-art-mgrid", "crafty", "art", "mgrid"),
    ]
}

/// Multi-program workloads for the `multiprog-timeslice` scenario: OS-style
/// round-robin interleavings with short quanta, each program in its own
/// address-space slab (context switches thrash the trace cache).
fn multiprog_workloads() -> Vec<Workload> {
    let p = |n| *AppProfile::by_name(n).expect("registry profile exists");
    vec![
        Workload::Phased(PhasedProfile::interleaving(
            "gzip+swim",
            &[p("gzip"), p("swim")],
            4_000,
        )),
        Workload::Phased(PhasedProfile::interleaving(
            "int4-mix",
            &[p("gzip"), p("mcf"), p("crafty"), p("bzip2")],
            2_000,
        )),
    ]
}

/// Every scenario in presentation order: the paper's technique ladder
/// first, then the DTM policy study, then the phased/multi-program
/// workload studies.
pub fn registry() -> Vec<Scenario> {
    fn s(name: &'static str, summary: &'static str, build: fn() -> ExperimentConfig) -> Scenario {
        Scenario::new(name, summary, build)
    }
    vec![
        s(
            "baseline",
            "centralized frontend, two-banked trace cache, no thermal management",
            ExperimentConfig::baseline,
        ),
        s(
            "drc",
            "distributed rename/commit (Fig. 12): bi-clustered frontend, +1 commit cycle",
            ExperimentConfig::distributed_rename_commit,
        ),
        s(
            "bank-hopping",
            "trace-cache bank hopping (Fig. 13): 2+1 banks, rotating Vdd-gated spare",
            ExperimentConfig::bank_hopping,
        ),
        s(
            "bh+ab",
            "bank hopping + thermal-aware biased mapping (Fig. 13)",
            ExperimentConfig::hopping_and_biasing,
        ),
        s(
            "drc+bh+ab",
            "the full distributed frontend (Fig. 14): every technique combined",
            ExperimentConfig::combined,
        ),
        s(
            "dtm-emergency",
            "baseline + conventional halve-the-clock emergency throttle",
            || {
                ExperimentConfig::baseline().with_dtm(DtmSpec::Emergency(
                    EmergencyPolicy::with_threshold(STUDY_TRIP_C),
                ))
            },
        ),
        s(
            "dtm-dvfs",
            "baseline + global DVFS (70% f, 85% V) with leakage at the scaled point",
            || {
                ExperimentConfig::baseline()
                    .with_dtm(DtmSpec::GlobalDvfs(DvfsPolicy::with_trip(STUDY_TRIP_C)))
            },
        ),
        s(
            "dtm-fetch-gate",
            "baseline + half-duty fetch toggling when hot",
            || {
                ExperimentConfig::baseline()
                    .with_dtm(DtmSpec::FetchGate(FetchGatePolicy::with_trip(STUDY_TRIP_C)))
            },
        ),
        s(
            "dtm-migration",
            "distributed frontend + activity migration toward the cooler partition",
            || {
                ExperimentConfig::distributed_rename_commit()
                    .with_dtm(DtmSpec::Migration(MigrationPolicy::with_trip(STUDY_TRIP_C)))
            },
        ),
        s(
            "technique-ladder-dvfs",
            "full distributed frontend + global DVFS: the combined-technique ladder rung",
            || {
                ExperimentConfig::combined()
                    .with_dtm(DtmSpec::GlobalDvfs(DvfsPolicy::with_trip(STUDY_TRIP_C)))
            },
        ),
        s(
            "technique-ladder-fetch-gate",
            "full distributed frontend + half-duty fetch gating when hot",
            || {
                ExperimentConfig::combined()
                    .with_dtm(DtmSpec::FetchGate(FetchGatePolicy::with_trip(STUDY_TRIP_C)))
            },
        ),
        s(
            "technique-ladder-migration",
            "full distributed frontend + activity migration toward the cooler partition",
            || {
                ExperimentConfig::combined()
                    .with_dtm(DtmSpec::Migration(MigrationPolicy::with_trip(STUDY_TRIP_C)))
            },
        ),
        s(
            "phased-hot-cold",
            "baseline over alternating hot-compute / cool-memory phase pairs",
            ExperimentConfig::baseline,
        )
        .with_workloads(hot_cold_workloads),
        s(
            "phased-ramp",
            "baseline over compute -> memory -> FP-streaming three-phase ramps",
            ExperimentConfig::baseline,
        )
        .with_workloads(ramp_workloads),
        s(
            "multiprog-timeslice",
            "baseline over round-robin multi-program interleavings (short quanta)",
            ExperimentConfig::baseline,
        )
        .with_workloads(multiprog_workloads),
        s(
            "phased-dtm-emergency",
            "emergency throttle over the hot/cold phase pairs (replay-exact DTM)",
            || {
                ExperimentConfig::baseline().with_dtm(DtmSpec::Emergency(
                    EmergencyPolicy::with_threshold(STUDY_TRIP_C),
                ))
            },
        )
        .with_workloads(hot_cold_workloads),
    ]
}

/// Looks a scenario up by registry name.
pub fn by_name(name: &str) -> Option<Scenario> {
    registry().into_iter().find(|s| s.name == name)
}

/// The CSV header matching [`to_csv`]'s rows.
pub const CSV_HEADER: &str = "scenario,app,cycles,uops,ipc,cpi,tc_hit_rate,mispredict_rate,\
avg_power_w,wall_time_s,emergencies,throttled_intervals,over_limit_s,\
proc_abs_max_c,proc_average_c,proc_avg_max_c,frontend_abs_max_c,frontend_average_c,\
trace_cache_abs_max_c,rob_abs_max_c,rat_abs_max_c";

/// One CSV row (no trailing newline) for a successful result, matching
/// [`CSV_HEADER`]. Public so streaming emitters (the CLI's incremental
/// CSV) produce bytes identical to [`to_csv`]'s.
pub fn csv_row(scenario: &str, r: &AppResult) -> String {
    let t = &r.temps;
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        scenario,
        r.app,
        r.cycles,
        r.uops,
        r.ipc,
        r.cpi,
        r.tc_hit_rate,
        r.mispredict_rate,
        r.avg_power_w,
        r.wall_time_s,
        r.emergencies,
        r.throttled_intervals,
        r.over_limit_s,
        t.processor.abs_max_c,
        t.processor.average_c,
        t.processor.avg_max_c,
        t.frontend.abs_max_c,
        t.frontend.average_c,
        t.trace_cache.abs_max_c,
        t.rob.abs_max_c,
        t.rat.abs_max_c,
    )
}

/// Renders job reports as CSV (header + one [`JobReport::csv_rows`] row
/// per *successful* cell; failed cells are reported out-of-band, so a
/// partially failed suite still yields a usable partial CSV).
///
/// Results are bit-identical across worker counts, and every float is
/// formatted with Rust's shortest-roundtrip `Display`, so the bytes are
/// identical too — error cells included, since an engine failure is as
/// deterministic as a result.
pub fn to_csv<'a>(reports: impl IntoIterator<Item = &'a JobReport>) -> String {
    csv_text(reports.into_iter().flat_map(JobReport::csv_rows))
}

/// A CSV document: [`CSV_HEADER`], then one [`csv_row`] per line — the
/// bytes [`to_csv`] writes, for rows gathered elsewhere (result frames
/// from a daemon, a state directory or shard artifacts).
pub fn csv_text(rows: impl IntoIterator<Item = impl AsRef<str>>) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for row in rows {
        out.push_str(row.as_ref());
        out.push('\n');
    }
    out
}

/// The [`CSV_HEADER`] columns after `scenario` and `app`: the numeric
/// values of a row, in order.
fn value_columns() -> impl Iterator<Item = &'static str> {
    CSV_HEADER.split(',').skip(2)
}

/// The columns whose [`AppResult`] field is an integer count.
const COUNT_COLUMNS: [&str; 4] = ["cycles", "uops", "emergencies", "throttled_intervals"];

/// One numeric CSV value, typed as its [`AppResult`] field.
#[derive(Debug, Clone, Copy)]
enum Value {
    Count(u64),
    Real(f64),
}

/// A `CELL` row parsed back into typed values: its app, then one value
/// per [`value_columns`] entry.
#[derive(Debug, Clone)]
struct CellRow {
    app: String,
    values: Vec<Value>,
}

impl CellRow {
    /// Parses one [`csv_row`]; `None` unless it has exactly the
    /// [`CSV_HEADER`] columns, each of its field's type.
    fn parse(row: &str) -> Option<CellRow> {
        let mut fields = row.split(',');
        fields.next()?; // the scenario label; the registry names the run
        let app = fields.next()?.to_string();
        let values = value_columns()
            .map(|column| {
                let field = fields.next()?;
                if COUNT_COLUMNS.contains(&column) {
                    field.parse().ok().map(Value::Count)
                } else {
                    field.parse().ok().map(Value::Real)
                }
            })
            .collect::<Option<Vec<_>>>()?;
        fields.next().is_none().then_some(CellRow { app, values })
    }

    fn value(&self, column: &str) -> Value {
        self.values[value_columns().position(|c| c == column).expect("a column")]
    }

    fn real(&self, column: &str) -> f64 {
        match self.value(column) {
            Value::Real(x) => x,
            Value::Count(n) => n as f64,
        }
    }

    fn count(&self, column: &str) -> u64 {
        match self.value(column) {
            Value::Count(n) => n,
            Value::Real(_) => unreachable!("{column} is not a count column"),
        }
    }
}

/// One scenario's response — its own job's, or its row of a selection's
/// ([`JobResponse::row`]) — with its `CELL` rows parsed once into typed
/// values: what [`to_json`] and [`summary_table`] read, whichever front
/// end (in-process, state directory, daemon or shards) produced the
/// response. A [`JobReport`] converts through
/// [`JobResponse::from`](crate::server::JobResponse).
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// The registry scenario: its name and summary head the JSON entry,
    /// and its name labels the summary row.
    pub scenario: Scenario,
    /// The job's response: CSV rows, failed cells and status.
    pub response: JobResponse,
    rows: Vec<CellRow>,
}

impl ScenarioRun {
    /// Parses `response`'s rows.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] naming the first row that is not a
    /// [`CSV_HEADER`] row of typed values.
    pub fn new(scenario: Scenario, response: JobResponse) -> io::Result<ScenarioRun> {
        let bad = |row| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad result row {row:?}"),
            )
        };
        let rows = response
            .csv_rows
            .iter()
            .map(|row| CellRow::parse(row).ok_or_else(|| bad(row)))
            .collect::<io::Result<_>>()?;
        Ok(ScenarioRun {
            scenario,
            response,
            rows,
        })
    }
}

/// `s` as the body of a JSON string: quotes, backslashes and control
/// characters escaped, everything else verbatim.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c < ' ' => {
                write!(out, "\\u{:04x}", u32::from(c)).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders scenario runs as a JSON document (an object with a
/// `scenarios` array; same fields as the CSV, nested per application,
/// plus a `failures` array naming any failed cells and their errors).
/// Each entry is headed by its scenario's name and summary.
pub fn to_json(runs: &[ScenarioRun]) -> String {
    let mut out = String::from("{\n  \"scenarios\": [");
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            "\n    {{\n      \"name\": \"{}\",\n      \"summary\": \"{}\",\n      \"results\": [",
            json_str(run.scenario.name),
            json_str(run.scenario.summary)
        )
        .expect("writing to a String cannot fail");
        for (j, row) in run.rows.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write!(out, "\n        {{\"app\": \"{}\"", json_str(&row.app))
                .expect("writing to a String cannot fail");
            // Written as `csv_row` wrote them: floats through Rust's
            // shortest round-trip formatting, so a parsed value prints
            // its CSV bytes back unchanged.
            for (column, value) in value_columns().zip(&row.values) {
                match value {
                    Value::Count(n) => write!(out, ", \"{column}\": {n}"),
                    Value::Real(x) => write!(out, ", \"{column}\": {x}"),
                }
                .expect("writing to a String cannot fail");
            }
            out.push('}');
        }
        out.push_str("\n      ],\n      \"failures\": [");
        for (j, (_, app, msg)) in run.response.failures().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write!(
                out,
                "\n        {{\"app\": \"{}\", \"error\": \"{}\"}}",
                json_str(&app),
                json_str(&msg)
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n      ]\n    }");
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// A per-scenario summary (suite means and peaks) ready to print, one
/// row per scenario run, labeled with the scenario's name. Means cover
/// the *successful* cells; the final `Failed` column counts the cells
/// that produced no result (a scenario with failures still gets a
/// summary row from its surviving cells).
pub fn summary_table(runs: &[ScenarioRun]) -> FigureTable {
    let rows = runs
        .iter()
        .map(|run| {
            let ok = &run.rows;
            let n = ok.len().max(1) as f64;
            // `+ 0.0` turns an empty sum's -0.0 into an unsigned zero.
            let mean = |column: &str| (ok.iter().map(|r| r.real(column)).sum::<f64>() + 0.0) / n;
            let total = |column: &str| ok.iter().map(|r| r.count(column)).sum::<u64>() as f64;
            let peak = ok
                .iter()
                .map(|r| r.real("proc_abs_max_c"))
                .fold(f64::NEG_INFINITY, f64::max);
            FigureRow {
                label: run.scenario.name.to_string(),
                values: vec![
                    mean("ipc"),
                    mean("cpi"),
                    mean("avg_power_w"),
                    if ok.is_empty() { f64::NAN } else { peak },
                    mean("proc_average_c"),
                    mean("frontend_abs_max_c"),
                    total("emergencies"),
                    total("throttled_intervals"),
                    mean("over_limit_s") * 1e3,
                    run.response.failed as f64,
                ],
            }
        })
        .collect();
    FigureTable {
        id: "scenarios",
        title: "Scenario summary (suite means over surviving cells; temperatures in C)".into(),
        columns: [
            "IPC",
            "CPI",
            "Power(W)",
            "PeakT",
            "AvgT",
            "FE PeakT",
            "Emerg.",
            "Throttled",
            "OverLim(ms)",
            "Failed",
        ]
        .iter()
        .map(|s| (*s).to_string())
        .collect(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CellOutcome;
    use crate::job::{JobEnv, JobSpec};

    /// The successful results of a report, in suite order.
    fn results(rep: &JobReport) -> impl Iterator<Item = &AppResult> {
        rep.report
            .cells()
            .iter()
            .filter_map(|c| c.result.as_ref().ok())
    }

    /// Scenario `s`'s report as the output stage reads it.
    fn run_of(s: Scenario, report: &JobReport) -> ScenarioRun {
        ScenarioRun::new(s, JobResponse::from(report)).unwrap()
    }

    fn frames(lines: &[&str]) -> JobResponse {
        let lines: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        JobResponse::from_frames(&lines).unwrap()
    }

    /// Executes scenario `name` on the smoke suite at `uops` micro-ops
    /// per application on two workers.
    fn run_smoke(
        name: &str,
        uops: u64,
        on_cell: impl Fn(&CellOutcome) + Send + Sync + 'static,
    ) -> JobReport {
        JobSpec::scenario(name)
            .with_smoke(true)
            .with_uops(uops)
            .with_workers(2)
            .execute(&JobEnv::default(), on_cell)
            .unwrap()
    }

    #[test]
    fn registry_is_populated_and_unique() {
        let reg = registry();
        assert!(reg.len() >= 6, "need at least six scenarios");
        let mut names: Vec<_> = reg.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len(), "duplicate scenario names");
        for s in &reg {
            s.config()
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert!(!s.summary.is_empty());
            // Every workload a scenario would run — pinned phased suites
            // included — validates, and names are unique within the suite
            // (they become CSV rows and trace-store keys).
            let workloads = s.workloads(true);
            assert!(!workloads.is_empty(), "{}: empty suite", s.name);
            let mut wnames = Vec::new();
            for w in &workloads {
                w.validate()
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", s.name, w.name()));
                assert!(!w.name().contains(','), "{}: comma in name", w.name());
                wnames.push(w.name());
            }
            wnames.sort_unstable();
            wnames.dedup();
            assert_eq!(wnames.len(), workloads.len(), "{}: dup workload", s.name);
        }
    }

    #[test]
    fn registry_includes_phased_and_multiprogram_scenarios() {
        let phased: Vec<_> = registry()
            .into_iter()
            .filter(|s| {
                s.workloads(true)
                    .iter()
                    .any(|w| matches!(w, Workload::Phased(_)))
            })
            .collect();
        assert!(
            phased.len() >= 3,
            "need at least three phased/multi-program scenarios, got {}",
            phased.len()
        );
        assert!(phased.iter().any(|s| s.name == "multiprog-timeslice"));
    }

    #[test]
    fn phased_scenario_runs_and_reports_its_workload_names() {
        let report = run_smoke("phased-hot-cold", 30_000, |_| {});
        assert!(report.report.is_complete());
        let apps: Vec<_> = results(&report).map(|r| r.app).collect();
        assert_eq!(apps, vec!["crafty-mcf", "gzip-art"]);
        let csv = to_csv([&report]);
        assert!(csv.contains("phased-hot-cold,crafty-mcf,"));
    }

    #[test]
    fn by_name_finds_every_scenario() {
        for s in registry() {
            assert_eq!(by_name(s.name).unwrap().name, s.name);
        }
        assert!(by_name("no-such-scenario").is_none());
    }

    #[test]
    fn smoke_suite_is_small_and_mixed() {
        let apps = suite_apps(true);
        assert_eq!(apps.len(), 4);
        assert!(apps.iter().any(|a| a.is_fp));
        assert!(apps.iter().any(|a| !a.is_fp));
        assert_eq!(suite_apps(false).len(), 26);
    }

    #[test]
    fn csv_and_json_cover_every_cell() {
        let suite = suite_apps(true).len();
        let names = ["baseline", "dtm-emergency"];
        let scenarios: Vec<Scenario> = names.iter().map(|n| by_name(n).unwrap()).collect();
        let reports: Vec<JobReport> = names.iter().map(|n| run_smoke(n, 20_000, |_| {})).collect();
        let csv = to_csv(&reports);
        assert_eq!(csv.lines().count(), 1 + 2 * suite);
        assert!(csv.starts_with("scenario,app,"));
        assert!(csv.contains("dtm-emergency,tiny,"));
        let runs: Vec<ScenarioRun> = scenarios
            .iter()
            .zip(&reports)
            .map(|(s, r)| run_of(*s, r))
            .collect();
        let json = to_json(&runs);
        assert!(json.contains("\"name\": \"baseline\""));
        assert_eq!(json.matches("\"app\":").count(), 2 * suite);
        let table = summary_table(&runs);
        assert_eq!(table.rows.len(), 2);
        assert!(table.value("baseline", 0).unwrap() > 0.0, "IPC positive");
        assert_eq!(table.value("baseline", 9), Some(0.0), "no failed cells");
    }

    #[test]
    fn streamed_rows_reassemble_into_to_csv() {
        use std::sync::{Arc, Mutex};
        let rows = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&rows);
        let report = run_smoke("baseline", 20_000, move |cell| {
            if let Ok(r) = &cell.result {
                sink.lock()
                    .unwrap()
                    .push((cell.app, csv_row("baseline", r)));
            }
        });
        // Streamed rows arrive in completion order; sorted by suite index
        // they are byte-identical to the canonical emitter's.
        let mut rows = rows.lock().unwrap().clone();
        rows.sort_by_key(|(app, _)| *app);
        let streamed: Vec<String> = rows.into_iter().map(|(_, row)| row).collect();
        let canonical: Vec<String> = to_csv([&report])
            .lines()
            .skip(1)
            .map(str::to_owned)
            .collect();
        assert_eq!(streamed, canonical);
    }

    #[test]
    fn fault_injection_scenario_fails_every_cell_without_panicking() {
        let suite = suite_apps(true).len();
        let report = run_smoke(fault_injection().name, 20_000, |_| {});
        assert_eq!(report.report.failed(), suite);
        assert!(!report.report.is_complete());
        assert_eq!(results(&report).count(), 0);
        for cell in report.report.failures() {
            assert!(
                matches!(
                    cell.result,
                    Err(crate::engine::EngineError::NotConverged(_))
                ),
                "{}: unexpected error kind",
                cell.label()
            );
        }
        // The emitters degrade instead of aborting: an all-failed scenario
        // is a header-only CSV, a failures-only JSON, and a summary row
        // whose Failed column carries the count.
        let runs = [run_of(fault_injection(), &report)];
        assert_eq!(to_csv([&report]), format!("{CSV_HEADER}\n"));
        let json = to_json(&runs);
        assert_eq!(json.matches("\"error\": \"not converged").count(), suite);
        let table = summary_table(&runs);
        assert_eq!(table.value("fault-injection", 9), Some(suite as f64));
    }

    #[test]
    fn json_writes_each_parsed_row_value_as_the_csv_wrote_it() {
        let row = "baseline,gzip,123456,40000,0.32,3.125,0.9,0.0001,12.5,0.000001,\
                   2,3,0.5,100.25,60,-0,81,71,79,78,77";
        let run = ScenarioRun::new(
            by_name("baseline").unwrap(),
            frames(&[&format!("CELL {row}"), "DONE status=0 cells=1 failed=0"]),
        )
        .unwrap();
        let json = to_json(std::slice::from_ref(&run));
        let want = "{\"app\": \"gzip\", \"cycles\": 123456, \"uops\": 40000, \"ipc\": 0.32, \
                    \"cpi\": 3.125, \"tc_hit_rate\": 0.9, \"mispredict_rate\": 0.0001, \
                    \"avg_power_w\": 12.5, \"wall_time_s\": 0.000001, \"emergencies\": 2, \
                    \"throttled_intervals\": 3, \"over_limit_s\": 0.5, \
                    \"proc_abs_max_c\": 100.25, \"proc_average_c\": 60, \"proc_avg_max_c\": -0, \
                    \"frontend_abs_max_c\": 81, \"frontend_average_c\": 71, \
                    \"trace_cache_abs_max_c\": 79, \"rob_abs_max_c\": 78, \"rat_abs_max_c\": 77}";
        assert!(json.contains(want), "{json}");
        let table = summary_table(&[run]);
        assert_eq!(table.value("baseline", 0), Some(0.32));
        assert_eq!(table.value("baseline", 6), Some(2.0), "emergencies");
        assert_eq!(table.value("baseline", 8), Some(500.0), "over-limit ms");
    }

    #[test]
    fn rows_that_do_not_parse_are_invalid_data() {
        let good = "baseline,gzip,1,2,0.5,2,0.9,0.01,12.5,0.1,0,0,0,80,70,75,81,71,79,78,77";
        assert!(CellRow::parse(good).is_some());
        for bad in [
            "baseline,gzip",
            "baseline,gzip,1,2,0.5,2,0.9,0.01,12.5,0.1,0,0,0,80,70,75,81,71,79,78",
            "baseline,gzip,1,2,0.5,2,0.9,0.01,12.5,0.1,0,0,0,80,70,75,81,71,79,78,77,1",
            "baseline,gzip,1.5,2,0.5,2,0.9,0.01,12.5,0.1,0,0,0,80,70,75,81,71,79,78,77",
            "baseline,gzip,-1,2,0.5,2,0.9,0.01,12.5,0.1,0,0,0,80,70,75,81,71,79,78,77",
            "baseline,gzip,1,2,x,2,0.9,0.01,12.5,0.1,0,0,0,80,70,75,81,71,79,78,77",
        ] {
            assert!(CellRow::parse(bad).is_none(), "{bad}");
            let cell = format!("CELL {bad}");
            let response = frames(&[&cell, "DONE status=0 cells=1 failed=0"]);
            let err = ScenarioRun::new(by_name("baseline").unwrap(), response).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad}");
        }
    }

    #[test]
    fn json_escapes_quotes_backslashes_and_control_characters() {
        // A daemon's ERRCELL message, label and app reach the JSON
        // verbatim; none of them may break the document.
        let response = frames(&[
            "ERRCELL lbl a\\b solver said \"no\" at C:\\tmp\tthen\u{1}",
            "DONE status=2 cells=1 failed=1",
        ]);
        let run = ScenarioRun::new(fault_injection(), response).unwrap();
        let json = to_json(&[run]);
        assert!(
            json.contains(
                "{\"app\": \"a\\\\b\", \
                 \"error\": \"solver said \\\"no\\\" at C:\\\\tmp\\u0009then\\u0001\"}"
            ),
            "{json}"
        );
        assert_eq!(
            json_str("10 °C — non-ASCII passes"),
            "10 °C — non-ASCII passes"
        );
    }
}
