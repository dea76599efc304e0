//! Parallel execution of sweep rows — each a configuration over its own
//! workloads, rows of any lengths — plus the trace store its record and
//! replay modes share. An application × configuration grid is the
//! rectangular case.
//!
//! Execution is *fault-tolerant*: every cell of a [`SweepRunner::try_grid`]
//! is an independent [`Result`], so one non-converged configuration aborts
//! exactly one [`CellOutcome`] instead of the whole sweep. The strict,
//! panicking surface survives behind [`SweepReport::strict`].

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Instant;

use distfront_trace::record::{points_id, ActivityTrace, PointKey};
use distfront_trace::Workload;

use super::coupled::CoupledEngine;
use super::replay::{processor_fingerprint, ReplayBackend};
use super::EngineError;
use crate::experiment::ExperimentConfig;
use crate::job::{JobEnv, JobSpec};
use crate::runner::AppResult;
use crate::store::DurableStore;

/// The streaming callback [`SweepRunner::with_on_cell`] installs.
type CellCallback = Box<dyn Fn(&CellOutcome) + Send + Sync>;

/// One schedulable unit of a sweep: a cell run live (recording, or a
/// replay-mode cell falling back), or a replay-mode cell with the trace
/// planning validated for it, as `(flat index, trace)`.
enum Task {
    Cell(usize),
    Replay((usize, Arc<ActivityTrace>)),
}

/// The flat cell list of a sweep's rows: every row's workloads, rows
/// concatenated in order. Cell `i` belongs to the row `r` with
/// `starts[r] <= i < starts[r + 1]`.
struct Cells<'a> {
    rows: &'a [(&'a ExperimentConfig, &'a [Workload])],
    starts: Vec<usize>,
}

impl<'a> Cells<'a> {
    fn new(rows: &'a [(&'a ExperimentConfig, &'a [Workload])]) -> Self {
        let mut starts = vec![0];
        for (_, workloads) in rows {
            starts.push(starts[starts.len() - 1] + workloads.len());
        }
        Cells { rows, starts }
    }

    fn len(&self) -> usize {
        self.starts[self.rows.len()]
    }

    /// Cell `i`'s `(row, index in row)`.
    fn coords(&self, i: usize) -> (usize, usize) {
        let row = self.starts.partition_point(|&s| s <= i) - 1;
        (row, i - self.starts[row])
    }

    /// Cell `i`'s configuration and workload.
    fn cell(&self, i: usize) -> (&'a ExperimentConfig, &'a Workload) {
        let (row, app) = self.coords(i);
        (self.rows[row].0, &self.rows[row].1[app])
    }
}

/// A grid's rows: every configuration over every workload.
fn grid_rows<'a>(
    configs: &'a [ExperimentConfig],
    workloads: &'a [Workload],
) -> Vec<(&'a ExperimentConfig, &'a [Workload])> {
    configs.iter().map(|c| (c, workloads)).collect()
}

/// Shares recorded [`ActivityTrace`]s between sweep runs: a recording
/// sweep inserts one trace per successful cell, a replaying sweep looks
/// cells up by `(configuration name, workload name)` plus the
/// configuration's operating points
/// ([`ExperimentConfig::replay_points`]) — under the convention that a
/// configuration's name identifies its core (uarch) side, which is
/// exactly what two configurations sweeping only the power/thermal/DTM
/// side share.
///
/// Keys include [`TraceMeta::capability_id`], so a no-DTM recording and a
/// DVFS recording of the same cell coexist instead of clobbering each
/// other, and a row normally finds the recording of its own policy. No
/// DTM and the emergency throttle share a key: both run the core at the
/// nominal point. Which rows a trace serves exactly is settled at replay
/// time, where the replay checks that it stays on the recorded path.
///
/// A store built with [`persistent`](Self::persistent) is additionally
/// disk-backed: it starts pre-seeded from a [`DurableStore`] and appends
/// each *novel* recording (new key, or changed bytes under an existing
/// key) back to it as `.dft` payloads — behind the exact same
/// `insert`/`get` contract, so record/replay never knows whether a trace
/// survived a restart. Appends become durable at the owner's
/// [`DurableStore::flush`] boundary; an append failure is logged and
/// degrades that trace to in-memory life.
///
/// [`TraceMeta::capability_id`]: distfront_trace::record::TraceMeta::capability_id
#[derive(Debug, Default)]
pub struct TraceStore {
    map: Mutex<HashMap<(String, String, String), Arc<ActivityTrace>>>,
    store: Option<Arc<DurableStore>>,
}

impl TraceStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// A disk-backed store seeded with `loaded` traces recovered from
    /// `store` (append order, so the newest recording of a key wins).
    pub fn persistent(store: Arc<DurableStore>, loaded: Vec<ActivityTrace>) -> Self {
        let traces = TraceStore::new();
        for trace in loaded {
            traces.insert(trace);
        }
        TraceStore {
            store: Some(store),
            ..traces
        }
    }

    /// Inserts a trace under its recorded `(config, workload, capability)`
    /// key, replacing any previous recording of the same cell *with the
    /// same operating points* (recordings of other points coexist).
    /// Disk-backed stores append the trace unless an identical recording
    /// already sits under the key.
    pub fn insert(&self, trace: ActivityTrace) {
        let key = (
            trace.meta.config.clone(),
            trace.meta.workload.clone(),
            trace.meta.capability_id(),
        );
        let mut map = self.map.lock().expect("trace store poisoned");
        let novel = map.get(&key).is_none_or(|prev| **prev != trace);
        if novel {
            if let Some(store) = &self.store {
                if let Err(e) = store.append_trace(&trace) {
                    eprintln!(
                        "[sweepd] trace persist failed {}/{}/{}: {e}",
                        key.0, key.1, key.2
                    );
                }
            }
        }
        map.insert(key, Arc::new(trace));
    }

    /// Looks up the trace recorded for a configuration × workload cell
    /// under exactly the operating points `points` (a configuration's
    /// [`ExperimentConfig::replay_points`]); tainted recordings never
    /// match.
    pub fn get(
        &self,
        config: &str,
        workload: &str,
        points: &[PointKey],
    ) -> Option<Arc<ActivityTrace>> {
        let key = (config.to_string(), workload.to_string(), points_id(points));
        let map = self.map.lock().expect("trace store poisoned");
        map.get(&key).map(Arc::clone)
    }

    /// Number of stored traces.
    pub fn len(&self) -> usize {
        self.map.lock().expect("trace store poisoned").len()
    }

    /// Whether the store holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every stored trace, ordered by key (deterministic, for writing
    /// trace directories).
    pub fn traces(&self) -> Vec<Arc<ActivityTrace>> {
        let map = self.map.lock().expect("trace store poisoned");
        let mut entries: Vec<_> = map.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries.into_iter().map(|(_, t)| Arc::clone(t)).collect()
    }
}

/// How a sweep interacts with recorded traces.
#[derive(Debug, Clone, Default)]
pub enum TraceMode {
    /// Simulate every cell live (the default).
    #[default]
    Live,
    /// Simulate live and record each successful cell into the store.
    /// Cells driven by a custom DTM policy still run live but are not
    /// stored.
    Record(Arc<TraceStore>),
    /// Replay cells from the store where a compatible trace exists; fall
    /// back to live simulation (leaving the store untouched) otherwise,
    /// and for a cell whose replay leaves the recorded path.
    Replay(Arc<TraceStore>),
}

/// The outcome of one sweep cell: the engine's result plus per-cell
/// execution metadata (wall time, replay provenance).
///
/// Equality ignores the measurement metadata — two outcomes are equal when
/// their coordinates and engine results are, which is what the engine's
/// bit-identity guarantee is about (wall time is never deterministic, and
/// a replayed cell is by construction equal to its live counterpart).
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Row index: into the sweep's `configs` (a grid's configuration).
    pub config: usize,
    /// Index into the row's workloads (a grid's application).
    pub app: usize,
    /// The configuration's name.
    pub config_name: &'static str,
    /// The workload's name.
    pub app_name: &'static str,
    /// What the engine produced for this cell.
    pub result: Result<AppResult, EngineError>,
    /// Wall-clock seconds this cell took (measurement metadata; excluded
    /// from equality).
    pub wall_time_s: f64,
    /// Always `false`: every warm start is solved for its own cell. Kept
    /// for the end-to-end benchmark; see the compatibility block at the
    /// end of this module.
    pub warm_hit: bool,
    /// Whether the cell was driven from a recorded trace instead of the
    /// live core simulator (excluded from equality: replay is exactly the
    /// claim that the results match).
    pub replayed: bool,
}

impl CellOutcome {
    /// The outcome of cell `i` of `cells` from its engine run, timed
    /// from `started`; `replayed` says whether the sweep replayed it.
    fn new(
        cells: &Cells,
        i: usize,
        result: Result<AppResult, EngineError>,
        started: Instant,
        replayed: bool,
    ) -> Self {
        let (config, app) = cells.coords(i);
        let (cfg, workloads) = cells.rows[config];
        CellOutcome {
            config,
            app,
            config_name: cfg.name,
            app_name: workloads[app].name(),
            result,
            wall_time_s: started.elapsed().as_secs_f64(),
            warm_hit: false,
            replayed,
        }
    }

    /// `"config/app"`, the coordinate label used in error reports.
    pub fn label(&self) -> String {
        format!("{}/{}", self.config_name, self.app_name)
    }

    /// The one-line failure description every strict consumer panics
    /// with: `"engine failed for config/app: error"`. Empty-string free:
    /// only meaningful for failed cells.
    pub fn failure_line(&self) -> String {
        match &self.result {
            Ok(_) => format!("cell {} did not fail", self.label()),
            Err(e) => format!("engine failed for {}: {e}", self.label()),
        }
    }
}

impl PartialEq for CellOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config && self.app == other.app && self.result == other.result
    }
}

/// The outcome of a whole sweep: one [`CellOutcome`] per cell, row by
/// row, placed by index — never by completion order — so serial and
/// parallel reports of the same sweep compare equal (error cells included;
/// per-cell wall times are excluded from equality).
///
/// # Examples
///
/// ```
/// use distfront::engine::SweepRunner;
/// use distfront::ExperimentConfig;
/// use distfront_trace::{AppProfile, Workload};
///
/// let cfgs = [ExperimentConfig::baseline().with_uops(30_000)];
/// let apps = [Workload::from(AppProfile::test_tiny())];
/// let report = SweepRunner::new().try_grid(&cfgs, &apps);
/// assert!(report.is_complete());
/// assert!(report.cell(0, 0).result.is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Row `r`'s cells are `cells[starts[r]..starts[r + 1]]`.
    starts: Vec<usize>,
    cells: Vec<CellOutcome>,
}

impl SweepReport {
    /// `(row count, the longest row's cell count)`: for a grid,
    /// `(configuration count, application count)`.
    pub fn shape(&self) -> (usize, usize) {
        let widest = self.starts.windows(2).map(|w| w[1] - w[0]).max();
        (self.starts.len() - 1, widest.unwrap_or(0))
    }

    /// All cells, row by row (`configs[0]` × every app first).
    pub fn cells(&self) -> &[CellOutcome] {
        &self.cells
    }

    /// The cell for `configs[config]` × its row's workload `app`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn cell(&self, config: usize, app: usize) -> &CellOutcome {
        assert!(
            config + 1 < self.starts.len() && app < self.row(config).len(),
            "cell out of range"
        );
        &self.row(config)[app]
    }

    /// One row's outcomes: a grid configuration's across every
    /// application.
    ///
    /// # Panics
    ///
    /// Panics if `config` is out of range.
    pub fn row(&self, config: usize) -> &[CellOutcome] {
        &self.cells[self.starts[config]..self.starts[config + 1]]
    }

    /// The cells that failed, in grid order.
    pub fn failures(&self) -> impl Iterator<Item = &CellOutcome> {
        self.cells.iter().filter(|c| c.result.is_err())
    }

    /// How many cells failed.
    pub fn failed(&self) -> usize {
        self.failures().count()
    }

    /// Whether every cell succeeded.
    pub fn is_complete(&self) -> bool {
        self.failed() == 0
    }

    /// How many cells were driven from recorded traces.
    pub fn replayed(&self) -> usize {
        self.cells.iter().filter(|c| c.replayed).count()
    }

    /// The strict view: every cell's `AppResult`, as
    /// `result[config][app]`, panicking if any cell failed — the
    /// pre-fault-tolerance contract, for callers (figures, calibration)
    /// that cannot use a partial grid.
    ///
    /// # Panics
    ///
    /// Panics if any cell failed, listing every failed cell's coordinates
    /// and error.
    pub fn strict(self) -> Vec<Vec<AppResult>> {
        let failed: Vec<String> = self.failures().map(CellOutcome::failure_line).collect();
        assert!(
            failed.is_empty(),
            "{} of {} sweep cells failed:\n{}",
            failed.len(),
            self.cells.len(),
            failed.join("\n")
        );
        let mut cells = self.cells.into_iter();
        self.starts
            .windows(2)
            .map(|w| {
                cells
                    .by_ref()
                    .take(w[1] - w[0])
                    .map(|c| c.result.expect("failures checked above"))
                    .collect()
            })
            .collect()
    }
}

/// Executes an application × configuration grid, fanning cells out over
/// `std::thread::scope` workers.
///
/// Every cell is an independent [`CoupledEngine`] run — a pure function of
/// its (configuration, application) pair — so the grid parallelizes
/// embarrassingly and the output is **bit-identical to a serial double
/// loop** regardless of thread count or scheduling: results are written
/// into their grid slot by index, never in completion order. Cell failures
/// are part of that contract: [`try_grid`](Self::try_grid) returns a
/// [`SweepReport`] in which a failing cell is an `Err` *outcome*, not a
/// sweep-wide panic.
///
/// # Examples
///
/// ```
/// use distfront::engine::SweepRunner;
/// use distfront::ExperimentConfig;
/// use distfront_trace::{AppProfile, Workload};
///
/// let cfgs = [ExperimentConfig::baseline().with_uops(30_000)];
/// let apps = [Workload::from(AppProfile::test_tiny())];
/// let parallel = SweepRunner::new().try_grid(&cfgs, &apps);
/// let serial = SweepRunner::serial().try_grid(&cfgs, &apps);
/// assert_eq!(parallel, serial);
/// ```
pub struct SweepRunner {
    threads: usize,
    on_cell: Option<CellCallback>,
    mode: TraceMode,
}

impl std::fmt::Debug for SweepRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepRunner")
            .field("threads", &self.threads)
            .field("on_cell", &self.on_cell.as_ref().map(|_| "…"))
            .field("mode", &self.mode)
            .finish()
    }
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepRunner {
    /// A runner using every available hardware thread.
    pub fn new() -> Self {
        let threads = thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        Self::with_threads(threads)
    }

    /// A runner executing cells one at a time on the calling thread.
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// A runner with an explicit worker count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "a sweep needs at least one worker");
        SweepRunner {
            threads,
            on_cell: None,
            mode: TraceMode::Live,
        }
    }

    /// The runner a [`JobSpec`] describes, bound to `env`: the worker
    /// count (`0` means every hardware thread) comes from the spec, and
    /// the spec's trace mode is bound to `env`'s trace store. This is the
    /// one spec-to-runner assembly, shared by [`JobSpec::execute`] and the
    /// shard worker
    /// ([`shard::run_worker`](crate::shard::run_worker)). The other
    /// builders set the same fields for engine-level callers that run
    /// explicit configuration grids rather than jobs (the figures, the
    /// benches, the engine tests).
    pub fn from_spec(spec: &JobSpec, env: &JobEnv) -> Self {
        let runner = if spec.workers == 0 {
            Self::new()
        } else {
            Self::with_threads(spec.workers)
        };
        runner.with_trace_mode(spec.trace.bind(&env.traces))
    }

    /// Selects how this runner's cells interact with recorded traces:
    /// live simulation (the default), record-into-store, or
    /// replay-from-store with per-cell live fallback.
    #[must_use]
    pub fn with_trace_mode(mut self, mode: TraceMode) -> Self {
        self.mode = mode;
        self
    }

    /// Streams cell outcomes as they complete: `f` is invoked once per
    /// cell, in *completion* order (which only equals grid order on a
    /// serial runner), from the thread that called
    /// [`try_grid`](Self::try_grid). Progress displays and incremental row
    /// emitters hang off this; the returned report is unaffected.
    #[must_use]
    pub fn with_on_cell(mut self, f: impl Fn(&CellOutcome) + Send + Sync + 'static) -> Self {
        self.on_cell = Some(Box::new(f));
        self
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every configuration over every workload, fault-tolerantly:
    /// the report's `cell(c, a)` corresponds to `configs[c]` and
    /// `workloads[a]` exactly as the serial nested loop would order them,
    /// and a failing cell is an `Err` outcome in its slot — every other
    /// cell still runs. Single profiles and phased compositions mix freely
    /// in one grid; [`SweepReport::strict`] is the panicking view for
    /// callers that need every cell.
    pub fn try_grid(&self, configs: &[ExperimentConfig], workloads: &[Workload]) -> SweepReport {
        self.try_rows(&grid_rows(configs, workloads))
    }

    /// Runs every cell of `rows` — each row a configuration over its own
    /// workloads — into a report whose row `r` is `rows[r]`:
    /// [`try_grid`](Self::try_grid) for rows of any lengths.
    pub(crate) fn try_rows(&self, rows: &[(&ExperimentConfig, &[Workload])]) -> SweepReport {
        let cells = Cells::new(rows);
        let outcomes = self.run_cells(&cells, 0..cells.len());
        SweepReport {
            starts: cells.starts,
            cells: outcomes,
        }
    }

    /// Runs only the cells of `rows` whose flat index — every row's
    /// workloads, rows concatenated in order, the order a report stores —
    /// falls in `range`, returning their outcomes in ascending index
    /// order. This is the shard primitive behind
    /// [`distfront::shard`](crate::shard): a contiguous slice runs in
    /// isolation, bit-identical to the same cells of a whole run, so the
    /// slices of contiguous ascending ranges, concatenated in range order,
    /// are the whole run's cells.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past the rows' cell count.
    pub fn try_cells(
        &self,
        rows: &[(&ExperimentConfig, &[Workload])],
        range: std::ops::Range<usize>,
    ) -> Vec<CellOutcome> {
        self.run_cells(&Cells::new(rows), range)
    }

    fn run_cells(&self, cells: &Cells, range: std::ops::Range<usize>) -> Vec<CellOutcome> {
        assert!(
            range.end <= cells.len(),
            "cell range {range:?} reaches past the sweep"
        );
        let start = range.start;
        let mut flat: Vec<Option<CellOutcome>> = (0..range.len()).map(|_| None).collect();
        // Streams an outcome to the callback, then files it in its slot.
        let mut place = |outcome: CellOutcome| {
            if let Some(cb) = &self.on_cell {
                cb(&outcome);
            }
            let i = cells.starts[outcome.config] + outcome.app - start;
            flat[i] = Some(outcome);
        };
        let tasks = self.plan_tasks(cells, range);
        let workers = self.threads.min(tasks.len());
        if workers <= 1 {
            for task in &tasks {
                place(self.run_task(cells, task));
            }
        } else {
            let next = AtomicUsize::new(0);
            let (tx, rx) = mpsc::channel::<CellOutcome>();
            let tasks = &tasks;
            thread::scope(|scope| {
                for _ in 0..workers {
                    let tx = tx.clone();
                    let next = &next;
                    scope.spawn(move || loop {
                        let t = next.fetch_add(1, Ordering::Relaxed);
                        if t >= tasks.len() {
                            break;
                        }
                        if tx.send(self.run_task(cells, &tasks[t])).is_err() {
                            return;
                        }
                    });
                }
                drop(tx);
                rx.into_iter().for_each(&mut place);
            });
        }
        flat.into_iter()
            .map(|c| c.expect("worker died mid-sweep"))
            .collect()
    }

    /// Splits the cells in `range` into schedulable tasks, one per cell.
    /// In replay mode each cell looks up its trace and validates it,
    /// hashing each row's processor fingerprint once; a cell without a
    /// valid trace runs live.
    fn plan_tasks(&self, cells: &Cells, range: std::ops::Range<usize>) -> Vec<Task> {
        let TraceMode::Replay(store) = &self.mode else {
            return range.map(Task::Cell).collect();
        };
        if range.is_empty() {
            return Vec::new();
        }
        let first_row = cells.coords(range.start).0;
        let rows: Vec<(u64, Vec<PointKey>)> = cells.rows[first_row..=cells.coords(range.end - 1).0]
            .iter()
            .map(|(cfg, _)| (processor_fingerprint(cfg), cfg.replay_points()))
            .collect();
        range
            .map(|i| {
                let (row, app) = cells.coords(i);
                let (cfg, workloads) = cells.rows[row];
                let workload = &workloads[app];
                let (fingerprint, points) = &rows[row - first_row];
                let trace = store.get(cfg.name, workload.name(), points).filter(|t| {
                    ReplayBackend::validate_fingerprinted(cfg, *fingerprint, workload, t).is_ok()
                });
                match trace {
                    Some(t) => Task::Replay((i, t)),
                    None => Task::Cell(i),
                }
            })
            .collect()
    }

    fn run_task(&self, cells: &Cells, task: &Task) -> CellOutcome {
        match task {
            Task::Cell(i) => self.run_cell(cells, *i),
            Task::Replay((i, trace)) => run_replay_cell(cells, *i, trace),
        }
    }

    /// Runs cell `i` live, recording it in record mode. Replay-mode cells
    /// get here only when planning found no valid trace for them, so a
    /// replaying sweep always completes.
    fn run_cell(&self, cells: &Cells, i: usize) -> CellOutcome {
        let (cfg, workload) = cells.cell(i);
        let started = Instant::now();
        let engine = CoupledEngine::for_workload(cfg, workload.clone());
        let run = match &self.mode {
            TraceMode::Record(store) => {
                engine.run_recorded().map(|(result, trace)| {
                    // Only tainted recordings — made under a custom DTM
                    // closure no configuration describes — are skipped.
                    if trace.meta.replay_safe {
                        store.insert(trace);
                    }
                    result
                })
            }
            TraceMode::Live | TraceMode::Replay(_) => engine.run(),
        };
        CellOutcome::new(cells, i, run, started, false)
    }
}

/// Replays cell `i` of `cells` from `trace` through the ordinary
/// [`CoupledEngine`] replay pipeline: the sweep executor's one
/// replay-cell runner. The cell is an independent engine run, and a
/// failing cell leaves every other cell's bits untouched. A replay that
/// leaves the recorded path ([`EngineError::ReplayDiverged`]) is run
/// again live and counted as live, so the outcome is always
/// bit-identical to a live run of the cell.
///
/// `trace` must be one [`ReplayBackend::validate`] accepts for the cell:
/// the executor validates while planning, so it is not validated again.
fn run_replay_cell(cells: &Cells, i: usize, trace: &Arc<ActivityTrace>) -> CellOutcome {
    let started = Instant::now();
    let (cfg, workload) = cells.cell(i);
    let engine = || CoupledEngine::for_workload(cfg, workload.clone());
    match engine().with_validated_replay(Arc::clone(trace)).run() {
        Err(EngineError::ReplayDiverged(_)) => {
            CellOutcome::new(cells, i, engine().run(), started, false)
        }
        run => CellOutcome::new(cells, i, run, started, true),
    }
}

// Compatibility with the end-to-end benchmark (`perfbench/`), which
// still compiles against the names below and changes only on its own
// (ROADMAP item 3). None of them does anything: every warm start is
// solved for its own cell. They go when the benchmark drops its calls.

/// Inert: warm starts are solved per cell, so there is nothing to share.
/// Kept, with the ignored cache arguments of
/// [`BatchScheduler::run_cohort`], [`CoupledEngine::default_stages`] and
/// [`ReplayBackend::stages`], for the end-to-end benchmark.
#[derive(Debug, Default)]
pub struct WarmStartCache;

impl WarmStartCache {
    /// The inert cache.
    pub fn new() -> Self {
        WarmStartCache
    }
}

impl SweepReport {
    /// Always 0: no warm start is shared between cells
    /// ([`CellOutcome::warm_hit`] is always `false`).
    pub fn warm_hits(&self) -> usize {
        0
    }
}

/// Replays cells one after another through the executor's replay-cell
/// runner. Kept for the end-to-end benchmark; the executor replays each
/// cell as its own task.
#[derive(Debug)]
pub struct BatchScheduler;

impl BatchScheduler {
    /// Replays every `(cell index, trace)` member of the `configs` ×
    /// `workloads` grid in turn and returns one [`CellOutcome`] per
    /// member, in member order. Every member's trace must be one
    /// [`ReplayBackend::validate`] accepts for its cell, as the sweep
    /// executor's planning ensures. `_cache` is ignored.
    pub fn run_cohort(
        configs: &[ExperimentConfig],
        workloads: &[Workload],
        members: &[(usize, Arc<ActivityTrace>)],
        _cache: Arc<WarmStartCache>,
    ) -> Vec<CellOutcome> {
        let rows = grid_rows(configs, workloads);
        let cells = Cells::new(&rows);
        members
            .iter()
            .map(|(i, trace)| run_replay_cell(&cells, *i, trace))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_app;
    use distfront_trace::AppProfile;

    fn tiny_grid() -> (Vec<ExperimentConfig>, Vec<AppProfile>) {
        (
            vec![
                ExperimentConfig::baseline().with_uops(40_000),
                ExperimentConfig::bank_hopping().with_uops(40_000),
            ],
            vec![
                AppProfile::test_tiny(),
                *AppProfile::by_name("gzip").unwrap(),
            ],
        )
    }

    fn singles(apps: &[AppProfile]) -> Vec<Workload> {
        apps.iter().copied().map(Workload::from).collect()
    }

    #[test]
    fn parallel_grid_matches_serial_grid() {
        let (cfgs, apps) = tiny_grid();
        let workloads = singles(&apps);
        let serial = SweepRunner::serial().try_grid(&cfgs, &workloads).strict();
        let parallel = SweepRunner::with_threads(4)
            .try_grid(&cfgs, &workloads)
            .strict();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn grid_matches_run_app_cell_by_cell() {
        let (cfgs, apps) = tiny_grid();
        let grid = SweepRunner::with_threads(3)
            .try_grid(&cfgs, &singles(&apps))
            .strict();
        for (c, cfg) in cfgs.iter().enumerate() {
            for (a, app) in apps.iter().enumerate() {
                assert_eq!(grid[c][a], run_app(cfg, app), "cell [{c}][{a}]");
            }
        }
    }

    #[test]
    fn try_grid_report_indexes_cells_by_coordinates() {
        let (cfgs, apps) = tiny_grid();
        let report = SweepRunner::with_threads(3).try_grid(&cfgs, &singles(&apps));
        assert_eq!(report.shape(), (2, 2));
        assert!(report.is_complete());
        assert_eq!(report.failed(), 0);
        for (c, cfg) in cfgs.iter().enumerate() {
            assert_eq!(report.row(c).len(), apps.len());
            for (a, app) in apps.iter().enumerate() {
                let cell = report.cell(c, a);
                assert_eq!((cell.config, cell.app), (c, a));
                assert_eq!(cell.config_name, cfg.name);
                assert_eq!(cell.app_name, app.name);
                assert_eq!(cell.result.as_ref().unwrap(), &run_app(cfg, app));
                assert!(cell.wall_time_s >= 0.0);
            }
        }
    }

    #[test]
    fn empty_grid_is_fine() {
        let grid = SweepRunner::new()
            .try_grid(&[], &singles(&[AppProfile::test_tiny()]))
            .strict();
        assert!(grid.is_empty());
        let (cfgs, _) = tiny_grid();
        let grid = SweepRunner::new().try_grid(&cfgs, &[]).strict();
        assert_eq!(grid.len(), 2);
        assert!(grid.iter().all(Vec::is_empty));
    }

    #[test]
    fn on_cell_streams_every_outcome_once() {
        let (cfgs, apps) = tiny_grid();
        let apps = singles(&apps);
        let seen = Arc::new(Mutex::new(Vec::<(usize, usize)>::new()));
        let sink = Arc::clone(&seen);
        let report = SweepRunner::with_threads(4)
            .with_on_cell(move |cell| {
                sink.lock().unwrap().push((cell.config, cell.app));
            })
            .try_grid(&cfgs, &apps);
        let mut coords = seen.lock().unwrap().clone();
        coords.sort_unstable();
        // Every cell streamed exactly once, whatever the completion order.
        assert_eq!(coords, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
        assert!(report.is_complete());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        SweepRunner::with_threads(0);
    }

    #[test]
    fn a_cell_failing_mid_replay_leaves_its_neighbours_byte_identical() {
        let cfgs = vec![ExperimentConfig::baseline().with_uops(60_000)];
        let apps = singles(&[
            AppProfile::test_tiny(),
            *AppProfile::by_name("gzip").unwrap(),
            *AppProfile::by_name("mcf").unwrap(),
        ]);
        let store = Arc::new(TraceStore::new());
        let recorded = SweepRunner::serial()
            .with_trace_mode(TraceMode::Record(Arc::clone(&store)))
            .try_grid(&cfgs, &apps);
        assert!(recorded.is_complete(), "recording must succeed");
        let replay = |threads| {
            SweepRunner::with_threads(threads)
                .with_trace_mode(TraceMode::Replay(Arc::clone(&store)))
                .try_grid(&cfgs, &apps)
        };
        let clean = replay(1);
        assert!(clean.is_complete());
        assert_eq!(clean.replayed(), apps.len());

        // Corrupt the gzip trace mid-stream: a truncated counter record
        // passes validation (which only shape-checks the pilot) but fails
        // unflatten inside the replay loop, with one cell replayed before
        // it and one after.
        let broken = {
            let mut t = (*store.get("baseline", "gzip", &[PointKey::Nominal]).unwrap()).clone();
            assert!(t.intervals.len() >= 2, "need a mid-run interval to corrupt");
            t.intervals[1].counters.truncate(3);
            t
        };
        store.insert(broken);

        for threads in [1, 3] {
            let faulted = replay(threads);
            assert_eq!(faulted.failed(), 1);
            let gzip = faulted.cell(0, 1);
            assert!(
                matches!(&gzip.result, Err(EngineError::ReplayIncompatible(_))),
                "{:?}",
                gzip.result
            );
            for a in [0, 2] {
                let survivor = faulted.cell(0, a).result.as_ref().unwrap();
                let reference = clean.cell(0, a).result.as_ref().unwrap();
                assert_eq!(
                    survivor, reference,
                    "cell {a} perturbed at {threads} workers"
                );
                // Byte-identical, not merely equal: the CSV row a scenario
                // emitter would write is the same string.
                assert_eq!(
                    crate::scenarios::csv_row("baseline", survivor),
                    crate::scenarios::csv_row("baseline", reference),
                );
            }
        }
    }

    #[test]
    fn ragged_cell_slices_concatenate_into_the_rows_and_each_rows_grid() {
        let (cfgs, apps) = tiny_grid();
        let apps = singles(&apps);
        // Rows of 2, 0, 1 and 1 cells; the empty row holds no index.
        let rows = [
            (&cfgs[0], &apps[..]),
            (&cfgs[1], &apps[..0]),
            (&cfgs[1], &apps[1..]),
            (&cfgs[0], &apps[..1]),
        ];
        let store = Arc::new(TraceStore::new());
        let whole = SweepRunner::with_threads(2)
            .with_trace_mode(TraceMode::Record(Arc::clone(&store)))
            .try_rows(&rows);
        assert!(whole.is_complete());
        assert_eq!(whole.shape(), (4, 2));
        assert!(whole.row(1).is_empty());
        assert_eq!((whole.cell(2, 0).config, whole.cell(2, 0).app), (2, 0));
        for (r, (cfg, workloads)) in rows.iter().enumerate() {
            let grid = SweepRunner::serial().try_grid(std::slice::from_ref(*cfg), workloads);
            let results = |cells: &[CellOutcome]| -> Vec<_> {
                cells.iter().map(|c| (c.app, c.result.clone())).collect()
            };
            assert_eq!(results(whole.row(r)), results(grid.cells()), "row {r}");
        }
        // Slices at several cuts, live and replayed, concatenate into the
        // whole run; replay plans each slice's rows on their own.
        for mode in [TraceMode::Live, TraceMode::Replay(Arc::clone(&store))] {
            let runner = SweepRunner::with_threads(2).with_trace_mode(mode);
            for cuts in [&[0, 4][..], &[0, 1, 4], &[0, 2, 3, 4], &[0, 1, 2, 3, 4]] {
                let cells: Vec<CellOutcome> = cuts
                    .windows(2)
                    .flat_map(|w| runner.try_cells(&rows, w[0]..w[1]))
                    .collect();
                assert_eq!(cells, whole.cells(), "cuts {cuts:?}");
            }
        }
        let replayed = SweepRunner::serial()
            .with_trace_mode(TraceMode::Replay(store))
            .try_cells(&rows, 1..4);
        assert!(replayed.iter().all(|c| c.replayed));
    }

    /// A recording of the `baseline`/`gzip` cell stored under `points`,
    /// replay-safe unless `tainted`.
    fn recording(points: Vec<PointKey>, tainted: bool) -> ActivityTrace {
        use distfront_trace::record::{FinalStats, TraceMeta, TraceShape};
        ActivityTrace {
            meta: TraceMeta {
                version: distfront_trace::record::TRACE_FORMAT_VERSION,
                workload: "gzip".into(),
                config: "baseline".into(),
                processor_fingerprint: 0,
                seed: 0,
                uops_per_app: 1,
                pilot_uops: 1,
                interval_cycles: 1,
                shape: TraceShape {
                    partitions: 2,
                    backends: 4,
                    tc_banks: 2,
                },
                hop: false,
                replay_safe: !tainted,
                dtm: None,
                points,
            },
            pilot: Vec::new(),
            intervals: Vec::new(),
            finals: FinalStats {
                cycles: 0,
                uops: 0,
                tc_hit_rate: 1.0,
                mispredict_rate: 0.0,
            },
        }
    }

    #[test]
    fn trace_store_lookup_is_exact_on_the_operating_points() {
        let nominal = PointKey::Nominal;
        let dvfs = PointKey::dvfs(0.7, 0.85);
        let gate = PointKey::FetchGate { open: 1, period: 2 };
        let families = [
            vec![nominal, gate],
            vec![nominal, dvfs, gate],
            vec![nominal, dvfs],
        ];
        let picked = |store: &TraceStore, points: &[PointKey]| {
            store
                .get("baseline", "gzip", points)
                .map(|t| t.meta.capability_id())
        };
        let store = TraceStore::new();
        store.insert(recording(vec![nominal], true));
        for points in &families {
            store.insert(recording(points.clone(), false));
        }
        // Each key finds its own recording and nothing else: a larger
        // family never stands in for a smaller one, and the tainted
        // nominal recording never matches.
        for points in &families {
            assert_eq!(picked(&store, points), Some(points_id(points)));
        }
        assert_eq!(picked(&store, &[nominal]), None);
        assert_eq!(picked(&store, &[nominal, PointKey::MigrateTo(1)]), None);
        store.insert(recording(vec![nominal], false));
        assert_eq!(picked(&store, &[nominal]).as_deref(), Some("nominal"));
        assert_eq!(store.get("baseline", "mcf", &[nominal]), None);
    }
}
