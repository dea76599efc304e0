//! Parallel execution of an application × configuration grid, plus the
//! warm-start cache shared between its cells.
//!
//! Execution is *fault-tolerant*: every cell of a [`SweepRunner::try_grid`]
//! is an independent [`Result`], so one non-converged configuration aborts
//! exactly one [`CellOutcome`] instead of the whole sweep. The strict,
//! panicking surface survives behind [`SweepReport::strict`].

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Instant;

use distfront_power::{LeakageModel, Machine};
use distfront_trace::record::{ActivityTrace, PointKey};
use distfront_trace::Workload;

use super::coupled::{CoupledEngine, RunStats};
use super::replay::{processor_fingerprint, ReplayBackend};
use super::EngineError;
use crate::experiment::ExperimentConfig;
use crate::job::{JobEnv, JobSpec};
use crate::runner::AppResult;
use crate::store::DurableStore;

/// Packs a cache key — the machine shape, the exact bits of the leakage
/// model, and the exact bits of the nominal power profile — into one
/// `u64` slice:
/// `[partitions, backends, tc_banks, leakage_bits×4, nominal_bits...]`.
///
/// The warm-start fixed point is a pure function of these (the package is
/// a constant), so an exact-bit key makes a cache hit indistinguishable
/// from a cold solve. The leakage model is part of the key because it is
/// per-configuration: two configurations identical in shape and nominal
/// power but differing in silicon must never share a warm start.
fn pack_key(machine: Machine, leakage: &LeakageModel, nominal: &[f64]) -> Vec<u64> {
    let mut key = Vec::with_capacity(7 + nominal.len());
    key.extend([
        machine.partitions as u64,
        machine.backends as u64,
        machine.tc_banks as u64,
        leakage.ratio_at_ambient.to_bits(),
        leakage.ambient_c.to_bits(),
        leakage.doubling_celsius.to_bits(),
        leakage.emergency_c.to_bits(),
    ]);
    key.extend(nominal.iter().map(|x| x.to_bits()));
    key
}

/// The streaming callback [`SweepRunner::with_on_cell`] installs.
type CellCallback = Box<dyn Fn(&CellOutcome) + Send + Sync>;

/// One schedulable unit of a sweep: a grid cell run live (recording, or
/// a replay-mode cell falling back), or a replay-mode cell with the
/// trace planning validated for it, as `(grid index, trace)`.
enum Task {
    Cell(usize),
    Replay((usize, Arc<ActivityTrace>)),
}

/// Shares converged steady-state warm starts between engines.
///
/// Keyed by (machine shape, leakage model, nominal power profile) — the
/// warm-start fixed point is a pure function of exactly those inputs, and
/// the key stores the leakage parameters' and power profile's exact bits,
/// so a hit is bit-identical to solving cold. One lock guards the map and
/// is held across a cold solve, so concurrent misses on the same key solve
/// once. A lookup is a few hundred nanoseconds against a cell of a tenth
/// of a millisecond (replayed) to tens of milliseconds (live), so the one
/// lock costs a sweep nothing measurable. One cache is shared by every
/// cell of a [`SweepRunner`] grid.
#[derive(Debug, Default)]
pub struct WarmStartCache {
    map: Mutex<HashMap<Vec<u64>, Arc<Vec<f64>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl WarmStartCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up the converged node temperatures for a (machine shape,
    /// leakage model, nominal power profile), solving cold via `compute`
    /// on a miss.
    ///
    /// Returns the state plus whether it was served from the cache. The
    /// key is hashed and the map locked once per lookup, and two threads
    /// missing on the same key perform **one** cold solve: the second
    /// waits for the lock and takes the first's state as a hit.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error; a failed computation leaves the cache
    /// without the key (so a later attempt solves cold again) and counts
    /// as a miss.
    pub fn get_or_compute<E>(
        &self,
        machine: Machine,
        leakage: &LeakageModel,
        nominal: &[f64],
        compute: impl FnOnce() -> Result<Vec<f64>, E>,
    ) -> Result<(Arc<Vec<f64>>, bool), E> {
        let key = pack_key(machine, leakage, nominal);
        let mut map = self.map.lock().expect("cache poisoned");
        if let Some(state) = map.get(key.as_slice()) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(state), true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let state = Arc::new(compute()?);
        map.insert(key, Arc::clone(&state));
        Ok((state, false))
    }

    /// Distinct warm starts stored.
    pub fn len(&self) -> usize {
        self.map.lock().expect("cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache (including lookups that waited for
    /// another thread's in-flight solve of the same key).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to solve cold.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Shares recorded [`ActivityTrace`]s between sweep runs: a recording
/// sweep inserts one trace per successful cell, a replaying sweep looks
/// cells up by `(configuration name, workload name)` plus the
/// **capability set** the replay requires — under the convention that a
/// configuration's name identifies its core (uarch) side, which is
/// exactly what two configurations sweeping only the power/thermal/DTM
/// side share.
///
/// Keys include [`TraceMeta::capability_id`], so a nominal-only recording
/// and a DVFS-family recording of the same cell coexist instead of
/// clobbering each other, and a lookup that *needs* core-perturbing
/// points can never be satisfied by a power-only trace: [`get`](Self::get)
/// returns only traces whose recorded point family covers the request.
///
/// A store built with [`persistent`](Self::persistent) is additionally
/// disk-backed: it starts pre-seeded from a [`DurableStore`] and appends
/// each *novel* recording (new key, or changed bytes under an existing
/// key) back to it as `.dft` payloads — behind the exact same
/// `insert`/`get`/coverage contract, so record/replay never knows
/// whether a trace survived a restart. Appends become durable at the
/// owner's [`DurableStore::flush`] boundary; an append failure is logged
/// and degrades that trace to in-memory life.
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
    /// same capability set* (recordings with different families coexist).
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

    /// Looks up a trace recorded for a configuration × workload cell whose
    /// point family covers every key in `required` (tainted recordings
    /// never match). When several qualify, the smallest covering family
    /// wins (ties broken by capability id) — a deterministic pick, so
    /// sweep results never depend on insertion order.
    pub fn get(
        &self,
        config: &str,
        workload: &str,
        required: &[PointKey],
    ) -> Option<Arc<ActivityTrace>> {
        let map = self.map.lock().expect("trace store poisoned");
        map.iter()
            .filter(|((c, w, _), t)| c == config && w == workload && t.meta.covers(required))
            .min_by(|((_, _, a), ta), ((_, _, b), tb)| {
                (ta.meta.points.len(), a).cmp(&(tb.meta.points.len(), b))
            })
            .map(|(_, t)| Arc::clone(t))
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
    /// Cells whose configuration makes the recording unreplayable (a
    /// core-perturbing DTM policy) still run live but are not stored.
    Record(Arc<TraceStore>),
    /// Replay cells from the store where a compatible trace exists; fall
    /// back to live simulation (leaving the store untouched) otherwise.
    Replay(Arc<TraceStore>),
}

/// The outcome of one grid cell: the engine's result plus per-cell
/// execution metadata (wall time, warm-cache hit, replay provenance).
///
/// Equality ignores the measurement metadata — two outcomes are equal when
/// their coordinates and engine results are, which is what the engine's
/// bit-identity guarantee is about (wall time is never deterministic, and
/// a replayed cell is by construction equal to its live counterpart).
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Configuration (row) index into the sweep's `configs`.
    pub config: usize,
    /// Application (column) index into the sweep's `apps`.
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
    /// Whether the cell's warm start was served from the shared cache
    /// (excluded from equality: it depends on cell scheduling).
    pub warm_hit: bool,
    /// Whether the cell was driven from a recorded trace instead of the
    /// live core simulator (excluded from equality: replay is exactly the
    /// claim that the results match).
    pub replayed: bool,
}

impl CellOutcome {
    /// The outcome of grid cell `cell` (row-major over `configs` ×
    /// `workloads`) from its engine run, timed from `started`.
    fn new(
        cell: usize,
        configs: &[ExperimentConfig],
        workloads: &[Workload],
        (result, stats): (Result<AppResult, EngineError>, RunStats),
        started: Instant,
    ) -> Self {
        let (config, app) = (cell / workloads.len(), cell % workloads.len());
        CellOutcome {
            config,
            app,
            config_name: configs[config].name,
            app_name: workloads[app].name(),
            result,
            wall_time_s: started.elapsed().as_secs_f64(),
            warm_hit: stats.warm_start_hit,
            replayed: stats.replayed,
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

/// The outcome of a whole sweep: one [`CellOutcome`] per (configuration,
/// application) pair, row-major, placed by index — never by completion
/// order — so serial and parallel reports of the same grid compare equal
/// (error cells included; per-cell wall times are excluded from equality).
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
    configs: usize,
    apps: usize,
    cells: Vec<CellOutcome>,
}

impl SweepReport {
    /// `(configuration count, application count)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.configs, self.apps)
    }

    /// All cells, row-major (`configs[0]` × every app first).
    pub fn cells(&self) -> &[CellOutcome] {
        &self.cells
    }

    /// The cell for `configs[config]` × `apps[app]`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn cell(&self, config: usize, app: usize) -> &CellOutcome {
        assert!(
            config < self.configs && app < self.apps,
            "cell out of range"
        );
        &self.cells[config * self.apps + app]
    }

    /// One configuration's outcomes across every application.
    ///
    /// # Panics
    ///
    /// Panics if `config` is out of range.
    pub fn row(&self, config: usize) -> &[CellOutcome] {
        &self.cells[config * self.apps..(config + 1) * self.apps]
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

    /// How many cells' warm starts were served from the shared cache.
    pub fn warm_hits(&self) -> usize {
        self.cells.iter().filter(|c| c.warm_hit).count()
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
        let apps = self.apps.max(1);
        let mut rows = Vec::with_capacity(self.configs);
        let mut cells = self.cells.into_iter();
        for _ in 0..self.configs {
            rows.push(
                cells
                    .by_ref()
                    .take(apps)
                    .map(|c| c.result.expect("failures checked above"))
                    .collect(),
            );
        }
        rows
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
    cache: Arc<WarmStartCache>,
    on_cell: Option<CellCallback>,
    mode: TraceMode,
}

impl std::fmt::Debug for SweepRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepRunner")
            .field("threads", &self.threads)
            .field("cache", &self.cache)
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
            cache: Arc::new(WarmStartCache::new()),
            on_cell: None,
            mode: TraceMode::Live,
        }
    }

    /// The runner a [`JobSpec`] describes, bound to `env`: the worker
    /// count (`0` means every hardware thread) comes from the spec, the
    /// warm-start cache is `env`'s, and the spec's trace mode is
    /// bound to `env`'s trace store. This is the one spec-to-runner
    /// assembly, shared by [`JobSpec::execute`] and the shard worker
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
        runner
            .with_warm_cache(Arc::clone(&env.warm))
            .with_trace_mode(spec.trace.bind(&env.traces))
    }

    /// Replaces this runner's warm-start cache with a shared one, so the
    /// cache outlives the runner: [`from_spec`](Self::from_spec) binds
    /// the job environment's cache this way, so the daemon's jobs share
    /// one process-wide cache, which is what makes a second job's warm
    /// starts free. (A fresh runner owns a fresh cache; see
    /// [`warm_cache`](Self::warm_cache).)
    #[must_use]
    pub fn with_warm_cache(mut self, cache: Arc<WarmStartCache>) -> Self {
        self.cache = cache;
        self
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

    /// The warm-start cache shared by this runner's cells (persists across
    /// [`try_grid`](Self::try_grid) calls, so repeated sweeps of overlapping
    /// configurations reuse each other's warm starts).
    pub fn warm_cache(&self) -> &Arc<WarmStartCache> {
        &self.cache
    }

    /// Runs every configuration over every workload, fault-tolerantly:
    /// the report's `cell(c, a)` corresponds to `configs[c]` and
    /// `workloads[a]` exactly as the serial nested loop would order them,
    /// and a failing cell is an `Err` outcome in its slot — every other
    /// cell still runs. Single profiles and phased compositions mix freely
    /// in one grid; [`SweepReport::strict`] is the panicking view for
    /// callers that need every cell.
    pub fn try_grid(&self, configs: &[ExperimentConfig], workloads: &[Workload]) -> SweepReport {
        let cells = self.try_cells(configs, workloads, 0..configs.len() * workloads.len());
        SweepReport {
            configs: configs.len(),
            apps: workloads.len(),
            cells,
        }
    }

    /// Runs only the grid cells whose flat index
    /// (`config * workloads.len() + app`, row-major — the same order the
    /// report stores) falls in `range`, returning their outcomes in
    /// ascending index order. This is the shard primitive behind
    /// [`distfront::shard`](crate::shard): a contiguous slice of the grid
    /// runs in isolation, bit-identical to the same cells of a whole-grid
    /// run, so the slices of contiguous ascending ranges, concatenated in
    /// range order, are the whole grid's cells.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past the grid's cell count.
    pub fn try_cells(
        &self,
        configs: &[ExperimentConfig],
        workloads: &[Workload],
        range: std::ops::Range<usize>,
    ) -> Vec<CellOutcome> {
        assert!(
            range.end <= configs.len() * workloads.len(),
            "cell range {range:?} reaches past the grid"
        );
        let start = range.start;
        let mut flat: Vec<Option<CellOutcome>> = (0..range.len()).map(|_| None).collect();
        // Streams an outcome to the callback, then files it in its slot.
        let mut place = |outcome: CellOutcome| {
            if let Some(cb) = &self.on_cell {
                cb(&outcome);
            }
            let i = outcome.config * workloads.len() + outcome.app - start;
            flat[i] = Some(outcome);
        };
        let tasks = self.plan_tasks(configs, workloads, range);
        let workers = self.threads.min(tasks.len());
        if workers <= 1 {
            for task in &tasks {
                place(self.run_task(configs, workloads, task));
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
                        if tx
                            .send(self.run_task(configs, workloads, &tasks[t]))
                            .is_err()
                        {
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

    /// Splits the grid cells in `range` into schedulable tasks, one per
    /// cell. In replay mode each cell looks up its trace and validates it,
    /// hashing each configuration row's processor fingerprint once; a
    /// cell without a valid trace runs live.
    fn plan_tasks(
        &self,
        configs: &[ExperimentConfig],
        workloads: &[Workload],
        range: std::ops::Range<usize>,
    ) -> Vec<Task> {
        let TraceMode::Replay(store) = &self.mode else {
            return range.map(Task::Cell).collect();
        };
        if range.is_empty() {
            return Vec::new();
        }
        let n = workloads.len();
        let first_row = range.start / n;
        let rows: Vec<(u64, Vec<PointKey>)> = configs[first_row..range.end.div_ceil(n)]
            .iter()
            .map(|cfg| (processor_fingerprint(cfg), cfg.replay_points()))
            .collect();
        range
            .map(|i| {
                let cfg = &configs[i / n];
                let workload = &workloads[i % n];
                let (fingerprint, required) = &rows[i / n - first_row];
                let trace = store.get(cfg.name, workload.name(), required).filter(|t| {
                    ReplayBackend::validate_fingerprinted(cfg, *fingerprint, workload, t).is_ok()
                });
                match trace {
                    Some(t) => Task::Replay((i, t)),
                    None => Task::Cell(i),
                }
            })
            .collect()
    }

    fn run_task(
        &self,
        configs: &[ExperimentConfig],
        workloads: &[Workload],
        task: &Task,
    ) -> CellOutcome {
        match task {
            Task::Cell(i) => self.run_cell(configs, workloads, *i),
            Task::Replay(member) => BatchScheduler::run_cohort(
                configs,
                workloads,
                std::slice::from_ref(member),
                Arc::clone(&self.cache),
            )
            .pop()
            .expect("one outcome per member"),
        }
    }

    /// Runs cell `i` live, recording it in record mode. Replay-mode cells
    /// get here only when planning found no valid trace for them, so a
    /// replaying sweep always completes.
    fn run_cell(
        &self,
        configs: &[ExperimentConfig],
        workloads: &[Workload],
        i: usize,
    ) -> CellOutcome {
        let cfg = &configs[i / workloads.len()];
        let workload = &workloads[i % workloads.len()];
        let started = Instant::now();
        let engine = CoupledEngine::for_workload(cfg, workload.clone())
            .with_warm_cache(Arc::clone(&self.cache));
        let run = match &self.mode {
            TraceMode::Record(store) => {
                let (recorded, stats) = engine.run_recorded();
                let result = recorded.map(|(result, trace)| {
                    // Only tainted recordings — made under an unverifiable
                    // custom DTM closure — are skipped: they cannot prove
                    // any operating point. Core-perturbing spec policies
                    // record their full point family and store fine; the
                    // capability-aware key keeps families from clobbering
                    // each other.
                    if trace.meta.replay_safe {
                        store.insert(trace);
                    }
                    result
                });
                (result, stats)
            }
            TraceMode::Live | TraceMode::Replay(_) => engine.run_with_stats(),
        };
        CellOutcome::new(i, configs, workloads, run, started)
    }
}

/// The sweep executor's replay-cell runner: replays `(cell index,
/// trace)` members through the ordinary [`CoupledEngine`] replay
/// pipeline, one after another. The executor calls it once per replay
/// task, with one member. Each member is an independent engine run, so
/// its outcome is bit-identical to a live run of the cell, and a failing
/// member leaves the others' bits untouched.
#[derive(Debug)]
pub struct BatchScheduler;

impl BatchScheduler {
    /// Replays every `(cell index, trace)` member in turn and returns one
    /// [`CellOutcome`] per member, in member order.
    ///
    /// Every member's trace must be one [`ReplayBackend::validate`]
    /// accepts for its `(config, workload)` cell: the sweep executor
    /// validates while planning, so the members are not validated again.
    /// Warm starts go through the shared `cache`.
    pub fn run_cohort(
        configs: &[ExperimentConfig],
        workloads: &[Workload],
        members: &[(usize, Arc<ActivityTrace>)],
        cache: Arc<WarmStartCache>,
    ) -> Vec<CellOutcome> {
        members
            .iter()
            .map(|(cell, trace)| {
                let started = Instant::now();
                let cfg = &configs[cell / workloads.len()];
                let workload = &workloads[cell % workloads.len()];
                let run = CoupledEngine::for_workload(cfg, workload.clone())
                    .with_warm_cache(Arc::clone(&cache))
                    .with_validated_replay(Arc::clone(trace))
                    .run_with_stats();
                CellOutcome::new(*cell, configs, workloads, run, started)
            })
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
    fn warm_cache_populates_and_hits_on_rerun() {
        let runner = SweepRunner::with_threads(2);
        let cfgs = vec![ExperimentConfig::baseline().with_uops(30_000)];
        let apps = singles(&[AppProfile::test_tiny()]);
        let first = runner.try_grid(&cfgs, &apps);
        assert_eq!(runner.warm_cache().len(), 1);
        assert_eq!(runner.warm_cache().hits(), 0);
        assert_eq!(first.warm_hits(), 0);
        // The same cell again: warm start served from cache, same result.
        let second = runner.try_grid(&cfgs, &apps);
        assert_eq!(runner.warm_cache().hits(), 1);
        assert_eq!(second.warm_hits(), 1);
        assert_eq!(first, second);
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
    fn get_or_compute_coordinates_concurrent_misses() {
        let cache = Arc::new(WarmStartCache::new());
        let machine = Machine::new(2, 4, 3);
        let leakage = LeakageModel::paper();
        let nominal = vec![1.0; machine.block_count()];
        let solves = Arc::new(AtomicU64::new(0));
        thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let nominal = nominal.clone();
                let solves = Arc::clone(&solves);
                scope.spawn(move || {
                    let (state, _) = cache
                        .get_or_compute(machine, &LeakageModel::paper(), &nominal, || {
                            solves.fetch_add(1, Ordering::Relaxed);
                            Ok::<_, EngineError>(vec![42.0])
                        })
                        .unwrap();
                    assert_eq!(state.as_slice(), &[42.0]);
                });
            }
        });
        // Eight racers on one key: exactly one cold solve.
        assert_eq!(solves.load(Ordering::Relaxed), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 7);
        assert_eq!(cache.len(), 1);
        // Distinct leakage silicon never shares the key.
        let (_, hit) = cache
            .get_or_compute(
                machine,
                &LeakageModel {
                    ratio_at_ambient: 0.31,
                    ..leakage
                },
                &nominal,
                || Ok::<_, EngineError>(vec![43.0]),
            )
            .unwrap();
        assert!(!hit, "a different leakage model must miss");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn failed_compute_leaves_no_entry_behind() {
        let cache = WarmStartCache::new();
        let machine = Machine::new(1, 4, 2);
        let leakage = LeakageModel::paper();
        let nominal = vec![0.5; machine.block_count()];
        let err = cache
            .get_or_compute(machine, &leakage, &nominal, || {
                Err::<Vec<f64>, _>(EngineError::NotConverged("synthetic"))
            })
            .unwrap_err();
        assert_eq!(err, EngineError::NotConverged("synthetic"));
        assert!(cache.is_empty(), "failed solve left a key claimed");
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // The key is free again: a later attempt solves cold and caches.
        let (state, hit) = cache
            .get_or_compute(machine, &leakage, &nominal, || {
                Ok::<_, EngineError>(vec![1.0])
            })
            .unwrap();
        assert!(!hit);
        assert_eq!(state.as_slice(), &[1.0]);
        assert_eq!(cache.len(), 1);
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
            t.intervals[1].points[0].counters.truncate(3);
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

    /// A recording of the `baseline`/`gzip` cell with point family
    /// `points`, replay-safe unless `tainted`.
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
    fn trace_store_picks_the_smallest_covering_family_then_the_capability_id() {
        let nominal = PointKey::Nominal;
        let dvfs = PointKey::dvfs(0.7, 0.85);
        let gate = PointKey::FetchGate { open: 1, period: 2 };
        let migrate = PointKey::MigrateTo(1);
        let families = [
            vec![nominal, gate],
            vec![nominal, dvfs, gate],
            vec![nominal, migrate],
            vec![nominal, dvfs],
        ];
        let picked = |store: &TraceStore, required: &[PointKey]| {
            store
                .get("baseline", "gzip", required)
                .map(|t| t.meta.capability_id())
        };
        // Every insertion order picks the same trace.
        for rotation in 0..families.len() {
            let store = TraceStore::new();
            store.insert(recording(vec![nominal], true));
            for points in families.iter().cycle().skip(rotation).take(families.len()) {
                store.insert(recording(points.clone(), false));
            }
            // Three two-point families cover the nominal point: the
            // capability ids break the tie, and the tainted nominal-only
            // recording never matches.
            let pick = picked(&store, &[nominal]);
            assert_eq!(pick.as_deref(), Some("nominal+dvfs(0.7x0.85)"));
            let pick = picked(&store, &[nominal, gate]);
            assert_eq!(pick.as_deref(), Some("nominal+gate(1of2)"));
            let pick = picked(&store, &[dvfs, gate]);
            assert_eq!(pick.as_deref(), Some("nominal+dvfs(0.7x0.85)+gate(1of2)"));
            assert_eq!(picked(&store, &[dvfs, migrate]), None);
            // A smaller covering family wins over any capability id.
            store.insert(recording(vec![nominal], false));
            assert_eq!(picked(&store, &[nominal]).as_deref(), Some("nominal"));
        }
    }
}
