//! Named, self-describing experiment scenarios.
//!
//! A scenario binds an application suite, a processor configuration and a
//! DTM policy into one runnable, comparable unit — the registry covers the
//! paper's technique configurations (Figs. 12–14) plus the DTM design
//! space the techniques are motivated by. Every scenario runs on the
//! parallel [`SweepRunner`] and inherits the engine's bit-identity
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
//! use distfront::scenarios::{self, RunOptions};
//!
//! let scenario = scenarios::by_name("baseline").unwrap();
//! let report = scenario.run(&RunOptions::smoke().with_uops(30_000));
//! assert!(report.is_complete());
//! assert_eq!(report.results().count(), RunOptions::smoke().apps().len());
//! ```

use std::fmt::Write as _;

use distfront_power::LeakageModel;
use distfront_thermal::Integrator;
use distfront_trace::{AppProfile, PhasedProfile, Workload};

use crate::dtm::{DvfsPolicy, FetchGatePolicy, MigrationPolicy};
use crate::emergency::EmergencyPolicy;
use crate::engine::{CellOutcome, SweepReport, SweepRunner, TraceMode};
use crate::experiment::{DtmSpec, ExperimentConfig};
use crate::report::{FigureRow, FigureTable};
use crate::runner::AppResult;

/// Trip temperature for the DTM study scenarios, in °C.
///
/// The paper's hard limit is 381 K (≈ 107.9 °C); the calibrated baseline
/// peaks right at it, so a study trip a few degrees lower guarantees the
/// policies actually engage on the hot applications while the cool ones
/// run free — the regime the paper's §4 discussion is about.
pub const STUDY_TRIP_C: f64 = 100.0;

/// One named experiment: workload suite × configuration × policy.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Registry name (stable; used by `--run`).
    pub name: &'static str,
    /// One-line description shown by `--list`.
    pub summary: &'static str,
    build: fn() -> ExperimentConfig,
    /// Fixed workload suite; `None` runs over the [`RunOptions`] app
    /// suite. Phased/multi-program scenarios pin their own workloads.
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
    /// place of the [`RunOptions`] application suite; returns `self` for
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

    /// The workload suite a run with `opts` would execute: the pinned
    /// suite if the scenario has one, otherwise `opts.apps()`.
    pub fn workloads(&self, opts: &RunOptions) -> Vec<Workload> {
        match self.workloads {
            Some(f) => f(),
            None => opts.apps().into_iter().map(Workload::Single).collect(),
        }
    }

    /// Runs the scenario over its workload suite on a [`SweepRunner`] with
    /// `opts.workers` workers. Fault-tolerant: a failing cell becomes an
    /// `Err` outcome in the report, never a panic.
    pub fn run(&self, opts: &RunOptions) -> ScenarioReport {
        self.run_streaming(opts, |_| {})
    }

    /// [`run`](Self::run) with a streaming callback: `on_cell` fires once
    /// per workload as its cell completes (completion order), which is
    /// what the CLI's `--progress` display and incremental CSV emission
    /// hang off.
    pub fn run_streaming(
        &self,
        opts: &RunOptions,
        on_cell: impl Fn(&CellOutcome) + Send + Sync + 'static,
    ) -> ScenarioReport {
        self.run_traced(opts, TraceMode::Live, on_cell)
    }

    /// [`run_streaming`](Self::run_streaming) with an explicit
    /// [`TraceMode`]: `Record` captures every successful cell's activity
    /// into the mode's [`TraceStore`](crate::engine::TraceStore), `Replay`
    /// drives cells from the store where a compatible trace exists and
    /// falls back to live simulation otherwise. Results are byte-identical
    /// across all three modes.
    pub fn run_traced(
        &self,
        opts: &RunOptions,
        mode: TraceMode,
        on_cell: impl Fn(&CellOutcome) + Send + Sync + 'static,
    ) -> ScenarioReport {
        let cfg = self
            .config()
            .with_uops(opts.uops)
            .with_integrator(opts.integrator);
        let workloads = self.workloads(opts);
        // One construction path for every front end: options become a
        // JobSpec, the runner comes from the spec (the builder calls
        // below attach only the runtime handles a pure-data spec cannot
        // carry — see `job`).
        let spec = crate::job::JobSpec::from_options(self.name, opts);
        let report = SweepRunner::from_spec(&spec)
            .with_on_cell(on_cell)
            .with_trace_mode(mode)
            .try_suite_workloads(&cfg, &workloads);
        ScenarioReport {
            scenario: self.name,
            summary: self.summary,
            report,
        }
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

/// How a scenario run is sized and parallelized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Micro-ops per application.
    pub uops: u64,
    /// Sweep worker count (clamped to the cell count by the runner).
    pub workers: usize,
    /// Smoke mode: a 4-application subset instead of the full 26.
    pub smoke: bool,
    /// Transient integrator (exact modal propagator by default).
    pub integrator: Integrator,
    /// Lockstep batched replay ([`SweepRunner::with_batch`]): group
    /// replay-mode cells into cohorts advanced through one shared batched
    /// propagator. Purely a performance knob — results are bit-identical
    /// either way — and only meaningful under [`TraceMode::Replay`].
    pub batch: bool,
}

impl RunOptions {
    /// The full 26-application evaluation at a CI-friendly run length,
    /// using every available hardware thread.
    pub fn full() -> Self {
        RunOptions {
            uops: 200_000,
            workers: SweepRunner::new().threads(),
            smoke: false,
            integrator: Integrator::default(),
            batch: false,
        }
    }

    /// A fast smoke run: four representative applications at a short run
    /// length.
    pub fn smoke() -> Self {
        RunOptions {
            uops: 40_000,
            smoke: true,
            ..Self::full()
        }
    }

    /// Overrides the run length; returns `self` for chaining.
    pub fn with_uops(mut self, uops: u64) -> Self {
        self.uops = uops;
        self
    }

    /// Overrides the worker count; returns `self` for chaining.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Overrides the transient integrator; returns `self` for chaining.
    pub fn with_integrator(mut self, integrator: Integrator) -> Self {
        self.integrator = integrator;
        self
    }

    /// Enables or disables lockstep batched replay; returns `self` for
    /// chaining.
    pub fn with_batch(mut self, batch: bool) -> Self {
        self.batch = batch;
        self
    }

    /// The application suite these options select: the full SPEC2000 set,
    /// or in smoke mode `tiny` plus one compute-bound integer, one
    /// memory-bound integer and one streaming FP application.
    pub fn apps(&self) -> Vec<AppProfile> {
        if self.smoke {
            ["gzip", "mcf", "swim"]
                .iter()
                .map(|n| *AppProfile::by_name(n).expect("smoke app exists"))
                .chain(std::iter::once(AppProfile::test_tiny()))
                .collect()
        } else {
            AppProfile::spec2000().to_vec()
        }
    }
}

impl Default for RunOptions {
    fn default() -> Self {
        Self::full()
    }
}

/// The results of one scenario over its application suite.
///
/// Equality (like the underlying [`SweepReport`]'s) covers the outcomes —
/// error cells included — but not per-cell wall times, so serial and
/// parallel runs of the same scenario compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: &'static str,
    /// Scenario description.
    pub summary: &'static str,
    /// One outcome per application, in suite order (a one-row sweep).
    pub report: SweepReport,
}

impl ScenarioReport {
    /// Per-application outcomes, in suite order.
    pub fn outcomes(&self) -> &[CellOutcome] {
        self.report.cells()
    }

    /// The successful results, in suite order.
    pub fn results(&self) -> impl Iterator<Item = &AppResult> {
        self.outcomes()
            .iter()
            .filter_map(|c| c.result.as_ref().ok())
    }

    /// The failed cells, in suite order.
    pub fn failures(&self) -> impl Iterator<Item = &CellOutcome> {
        self.report.failures()
    }

    /// How many cells failed.
    pub fn failed(&self) -> usize {
        self.report.failed()
    }

    /// Whether every application produced a result.
    pub fn is_complete(&self) -> bool {
        self.report.is_complete()
    }
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

/// Renders scenario reports as CSV (header + one row per *successful*
/// scenario × app cell; failed cells are reported out-of-band, so a
/// partially failed suite still yields a usable partial CSV).
///
/// Results are bit-identical across worker counts, and every float is
/// formatted with Rust's shortest-roundtrip `Display`, so the bytes are
/// identical too — error cells included, since an engine failure is as
/// deterministic as a result.
pub fn to_csv(reports: &[ScenarioReport]) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for rep in reports {
        for r in rep.results() {
            out.push_str(&csv_row(rep.scenario, r));
            out.push('\n');
        }
    }
    out
}

/// Renders scenario reports as a JSON document (an object with a
/// `scenarios` array; same fields as the CSV, nested per application,
/// plus a `failures` array naming any failed cells and their errors).
pub fn to_json(reports: &[ScenarioReport]) -> String {
    let mut out = String::from("{\n  \"scenarios\": [");
    for (i, rep) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            "\n    {{\n      \"name\": \"{}\",\n      \"summary\": \"{}\",\n      \"results\": [",
            rep.scenario, rep.summary
        )
        .expect("writing to a String cannot fail");
        for (j, r) in rep.results().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let t = &r.temps;
            write!(
                out,
                "\n        {{\"app\": \"{}\", \"cycles\": {}, \"uops\": {}, \"ipc\": {}, \
                 \"cpi\": {}, \"tc_hit_rate\": {}, \"mispredict_rate\": {}, \
                 \"avg_power_w\": {}, \"wall_time_s\": {}, \"emergencies\": {}, \
                 \"throttled_intervals\": {}, \"over_limit_s\": {}, \
                 \"proc_abs_max_c\": {}, \"proc_average_c\": {}, \"proc_avg_max_c\": {}, \
                 \"frontend_abs_max_c\": {}, \"frontend_average_c\": {}, \
                 \"trace_cache_abs_max_c\": {}, \"rob_abs_max_c\": {}, \"rat_abs_max_c\": {}}}",
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
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n      ],\n      \"failures\": [");
        for (j, cell) in rep.failures().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let err = cell.result.as_ref().unwrap_err();
            write!(
                out,
                "\n        {{\"app\": \"{}\", \"error\": \"{err}\"}}",
                cell.app_name
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n      ]\n    }");
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// A per-scenario summary (suite means and peaks) ready to print. Means
/// cover the *successful* cells; the final `Failed` column counts the
/// cells that produced no result (a scenario with failures still gets a
/// summary row from its surviving cells).
pub fn summary_table(reports: &[ScenarioReport]) -> FigureTable {
    let rows = reports
        .iter()
        .map(|rep| {
            let ok: Vec<&AppResult> = rep.results().collect();
            let n = ok.len().max(1) as f64;
            // `+ 0.0` turns an empty sum's -0.0 into an unsigned zero.
            let mean =
                |f: &dyn Fn(&AppResult) -> f64| (ok.iter().map(|r| f(r)).sum::<f64>() + 0.0) / n;
            let peak = ok
                .iter()
                .map(|r| r.temps.processor.abs_max_c)
                .fold(f64::NEG_INFINITY, f64::max);
            FigureRow {
                label: rep.scenario.to_string(),
                values: vec![
                    mean(&|r| r.ipc),
                    mean(&|r| r.cpi),
                    mean(&|r| r.avg_power_w),
                    if ok.is_empty() { f64::NAN } else { peak },
                    mean(&|r| r.temps.processor.average_c),
                    mean(&|r| r.temps.frontend.abs_max_c),
                    ok.iter().map(|r| r.emergencies).sum::<u64>() as f64,
                    ok.iter().map(|r| r.throttled_intervals).sum::<u64>() as f64,
                    mean(&|r| r.over_limit_s) * 1e3,
                    rep.failed() as f64,
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

    #[test]
    fn registry_is_populated_and_unique() {
        let reg = registry();
        assert!(reg.len() >= 6, "need at least six scenarios");
        let mut names: Vec<_> = reg.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len(), "duplicate scenario names");
        let opts = RunOptions::smoke();
        for s in &reg {
            s.config()
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert!(!s.summary.is_empty());
            // Every workload a scenario would run — pinned phased suites
            // included — validates, and names are unique within the suite
            // (they become CSV rows and trace-store keys).
            let workloads = s.workloads(&opts);
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
                s.workloads(&RunOptions::smoke())
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
        let opts = RunOptions::smoke().with_uops(30_000).with_workers(2);
        let report = by_name("phased-hot-cold").unwrap().run(&opts);
        assert!(report.is_complete());
        let apps: Vec<_> = report.results().map(|r| r.app).collect();
        assert_eq!(apps, vec!["crafty-mcf", "gzip-art"]);
        let csv = to_csv(std::slice::from_ref(&report));
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
        let apps = RunOptions::smoke().apps();
        assert_eq!(apps.len(), 4);
        assert!(apps.iter().any(|a| a.is_fp));
        assert!(apps.iter().any(|a| !a.is_fp));
        assert_eq!(RunOptions::full().apps().len(), 26);
    }

    #[test]
    fn csv_and_json_cover_every_cell() {
        let opts = RunOptions::smoke().with_uops(20_000).with_workers(2);
        let reports = vec![
            by_name("baseline").unwrap().run(&opts),
            by_name("dtm-emergency").unwrap().run(&opts),
        ];
        let csv = to_csv(&reports);
        assert_eq!(csv.lines().count(), 1 + 2 * opts.apps().len());
        assert!(csv.starts_with("scenario,app,"));
        assert!(csv.contains("dtm-emergency,tiny,"));
        let json = to_json(&reports);
        assert!(json.contains("\"name\": \"baseline\""));
        assert_eq!(json.matches("\"app\":").count(), 2 * opts.apps().len());
        let table = summary_table(&reports);
        assert_eq!(table.rows.len(), 2);
        assert!(table.value("baseline", 0).unwrap() > 0.0, "IPC positive");
        assert_eq!(table.value("baseline", 9), Some(0.0), "no failed cells");
    }

    #[test]
    fn streamed_rows_reassemble_into_to_csv() {
        use std::sync::{Arc, Mutex};
        let opts = RunOptions::smoke().with_uops(20_000).with_workers(2);
        let rows = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&rows);
        let report = by_name("baseline")
            .unwrap()
            .run_streaming(&opts, move |cell| {
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
        let canonical: Vec<String> = to_csv(std::slice::from_ref(&report))
            .lines()
            .skip(1)
            .map(str::to_owned)
            .collect();
        assert_eq!(streamed, canonical);
    }

    #[test]
    fn fault_injection_scenario_fails_every_cell_without_panicking() {
        let opts = RunOptions::smoke().with_uops(20_000).with_workers(2);
        let report = fault_injection().run(&opts);
        assert_eq!(report.failed(), opts.apps().len());
        assert!(!report.is_complete());
        assert_eq!(report.results().count(), 0);
        for cell in report.failures() {
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
        let reports = [report];
        assert_eq!(to_csv(&reports), format!("{CSV_HEADER}\n"));
        let json = to_json(&reports);
        assert_eq!(
            json.matches("\"error\": \"not converged").count(),
            opts.apps().len()
        );
        let table = summary_table(&reports);
        assert_eq!(
            table.value("fault-injection", 9),
            Some(opts.apps().len() as f64)
        );
    }
}
