//! Parallel execution of an application × configuration grid, plus the
//! sharded warm-start cache shared between its cells.
//!
//! Execution is *fault-tolerant*: every cell of a [`SweepRunner::try_grid`]
//! is an independent [`Result`], so one non-converged configuration aborts
//! exactly one [`CellOutcome`] instead of the whole sweep. The strict,
//! panicking surface survives behind [`SweepReport::strict`] (which is all
//! [`SweepRunner::grid`] is).

use std::cell::RefCell;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Instant;

use distfront_power::{LeakageModel, Machine};
use distfront_thermal::Integrator;
use distfront_trace::record::{ActivityTrace, PointKey};
use distfront_trace::{AppProfile, Workload};

use super::batch::BatchScheduler;
use super::coupled::CoupledEngine;
use super::replay::ReplayBackend;
use super::EngineError;
use crate::experiment::ExperimentConfig;
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
/// power but differing in silicon must never share a warm start. Packing
/// into a flat slice lets the map be keyed by `Box<[u64]>` and *probed*
/// by `&[u64]` (via `Borrow<[u64]>`), so a lookup never allocates: the
/// slice is built in a thread-local scratch buffer.
fn pack_key(machine: Machine, leakage: &LeakageModel, nominal: &[f64], buf: &mut Vec<u64>) {
    buf.clear();
    buf.reserve(7 + nominal.len());
    buf.push(machine.partitions as u64);
    buf.push(machine.backends as u64);
    buf.push(machine.tc_banks as u64);
    buf.push(leakage.ratio_at_ambient.to_bits());
    buf.push(leakage.ambient_c.to_bits());
    buf.push(leakage.doubling_celsius.to_bits());
    buf.push(leakage.emergency_c.to_bits());
    buf.extend(nominal.iter().map(|x| x.to_bits()));
}

thread_local! {
    static KEY_SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One cache slot: `None` while the first computation for its key is in
/// flight, `Some` once a converged state is stored. The slot mutex — not
/// the shard mutex — serializes same-key computations, so two cells
/// missing on the same key perform one cold solve while cells with other
/// keys pass by untouched.
#[derive(Debug, Default)]
struct Slot(Mutex<Option<Arc<Vec<f64>>>>);

/// One key-hash shard of the cache map.
type Shard = Mutex<HashMap<Box<[u64]>, Arc<Slot>>>;

/// The streaming callback [`SweepRunner::with_on_cell`] installs.
type CellCallback = Box<dyn Fn(&CellOutcome) + Send + Sync>;

/// Default shard count: enough that a full-width sweep on a large host
/// rarely has two workers hashing into the same shard at once.
const DEFAULT_SHARDS: usize = 16;

/// Largest lockstep cohort one task advances. Bounds the batch state
/// matrix (`n_nodes × cohort`) and keeps enough independent tasks for the
/// worker pool to load-balance.
const MAX_COHORT: usize = 32;

/// One schedulable unit of a sweep: a single grid cell, or a lockstep
/// cohort of replay-mode cells sharing a machine shape that the
/// [`BatchScheduler`] advances through one batched propagator.
enum Task {
    Cell(usize),
    Cohort(Vec<(usize, Arc<ActivityTrace>)>),
}

impl Task {
    /// The lowest grid index the task covers — tasks are ordered by this
    /// so a serial batched sweep still streams outcomes near grid order.
    fn first_cell(&self) -> usize {
        match self {
            Task::Cell(i) => *i,
            Task::Cohort(members) => members.first().map_or(usize::MAX, |(i, _)| *i),
        }
    }
}

/// Shares converged steady-state warm starts between engines.
///
/// Keyed by (machine shape, leakage model, nominal power profile) — the
/// warm-start fixed point is a pure function of exactly those inputs, and
/// the key stores the leakage parameters' and power profile's exact bits,
/// so a hit is bit-identical to solving cold. The map is split into key-hash shards, each behind its own lock,
/// and [`get_or_compute`](Self::get_or_compute) holds a shard lock only
/// for the map probe itself: cold solves run under a per-key slot lock, so
/// concurrent misses on *different* keys never contend and concurrent
/// misses on the *same* key solve once. One cache is shared by every cell
/// of a [`SweepRunner`] grid.
#[derive(Debug)]
pub struct WarmStartCache {
    shards: Box<[Shard]>,
    hasher: RandomState,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for WarmStartCache {
    fn default() -> Self {
        Self::new()
    }
}

impl WarmStartCache {
    /// An empty cache with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// An empty cache split into `shards` key-hash shards.
    ///
    /// The shard count is a pure concurrency knob: hit/miss totals and the
    /// states returned are identical for any count (a property test pins
    /// this).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0, "a cache needs at least one shard");
        WarmStartCache {
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            hasher: RandomState::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The number of key-hash shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, key: &[u64]) -> &Shard {
        &self.shards[(self.hasher.hash_one(key) as usize) % self.shards.len()]
    }

    /// Returns the slot for the packed key, inserting an empty one first if
    /// the key is new. The shard lock is held only for this probe.
    fn slot_of(&self, key: &[u64]) -> Arc<Slot> {
        let mut map = self.shard_of(key).lock().expect("cache poisoned");
        match map.get(key) {
            Some(slot) => Arc::clone(slot),
            None => {
                let slot = Arc::new(Slot::default());
                map.insert(key.into(), Arc::clone(&slot));
                slot
            }
        }
    }

    /// Removes `key`'s entry if it still holds `slot` un-filled, so a
    /// failed computation never leaves a key claimed. The slot is probed
    /// with `try_lock` to keep the shard critical section O(probe): an
    /// unobtainable slot lock means a racer is mid-solve on the key, so
    /// the entry is in use and must not be evicted (if that solve also
    /// fails, the racer's own eviction retries).
    fn evict_empty(&self, key: &[u64], slot: &Arc<Slot>) {
        let mut map = self.shard_of(key).lock().expect("cache poisoned");
        if let Some(existing) = map.get(key) {
            let unfilled = Arc::ptr_eq(existing, slot)
                && matches!(existing.0.try_lock(), Ok(state) if state.is_none());
            if unfilled {
                map.remove(key);
            }
        }
    }

    /// Looks up the converged node temperatures for a (machine shape,
    /// leakage model, nominal power profile), solving cold via `compute`
    /// on a miss.
    ///
    /// Returns the state plus whether it was served from the cache. The
    /// single-entry design fixes two flaws of a lookup-then-insert pair:
    /// the key is hashed and the map locked once instead of twice, and two
    /// threads missing on the same key perform **one** cold solve — the
    /// second blocks on the key's slot and takes the first's state as a
    /// hit.
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
        let slot = KEY_SCRATCH.with(|scratch| {
            let mut buf = scratch.borrow_mut();
            pack_key(machine, leakage, nominal, &mut buf);
            self.slot_of(&buf)
        });
        let mut state = slot.0.lock().expect("cache poisoned");
        if let Some(v) = state.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(v), true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        match compute() {
            Ok(v) => {
                let v = Arc::new(v);
                *state = Some(Arc::clone(&v));
                drop(state);
                // Re-link the filled slot: a racer's failed solve may have
                // evicted the key while this solve ran (its evict_empty can
                // win the try_lock before this thread locks the slot), and
                // without the re-link this success would fill an orphaned
                // slot the map can no longer reach — every later lookup
                // would solve cold. Lock order stays shard-only here (the
                // slot guard is already dropped).
                KEY_SCRATCH.with(|scratch| {
                    let mut buf = scratch.borrow_mut();
                    pack_key(machine, leakage, nominal, &mut buf);
                    let mut map = self.shard_of(&buf).lock().expect("cache poisoned");
                    if !map.contains_key(buf.as_slice()) {
                        map.insert(buf[..].into(), Arc::clone(&slot));
                    }
                });
                Ok((v, false))
            }
            Err(e) => {
                drop(state);
                KEY_SCRATCH.with(|scratch| {
                    let mut buf = scratch.borrow_mut();
                    pack_key(machine, leakage, nominal, &mut buf);
                    self.evict_empty(&buf, &slot);
                });
                Err(e)
            }
        }
    }

    /// Distinct warm starts stored (in-flight cold solves included).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache poisoned").len())
            .sum()
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
        let traces = TraceStore {
            map: Mutex::new(HashMap::new()),
            store: None,
        };
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
            .min_by_key(|((_, _, cap), t)| (t.meta.points.len(), cap.clone()))
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
/// use distfront_trace::AppProfile;
///
/// let cfgs = [ExperimentConfig::baseline().with_uops(30_000)];
/// let apps = [AppProfile::test_tiny()];
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

    /// Total CPU seconds spent across all cells (≈ `workers ×` the sweep's
    /// wall time when the grid is balanced).
    pub fn total_cell_time_s(&self) -> f64 {
        self.cells.iter().map(|c| c.wall_time_s).sum()
    }

    /// Reassembles a report from per-cell outcomes produced out of band —
    /// the merge point for sharded execution: the outcomes of several
    /// [`SweepRunner::try_cells`] slices (in any order; shards complete
    /// independently) are placed back into their grid slots by index,
    /// exactly as `try_grid` places them, so a merged report compares
    /// equal to the serial run of the whole grid — error cells included.
    ///
    /// # Errors
    ///
    /// Returns a description of the first coverage violation: a cell
    /// whose coordinates fall outside the `configs × apps` grid, a
    /// duplicate cell, or a missing cell. Exactly-once coverage is the
    /// shard-merge contract; anything else means shards overlapped or a
    /// slice went missing, and silently merging would fabricate a report.
    pub fn assemble(
        configs: usize,
        apps: usize,
        cells: impl IntoIterator<Item = CellOutcome>,
    ) -> Result<SweepReport, String> {
        let mut flat: Vec<Option<CellOutcome>> = (0..configs * apps).map(|_| None).collect();
        for cell in cells {
            if cell.config >= configs || cell.app >= apps {
                return Err(format!(
                    "cell ({}, {}) outside the {configs}x{apps} grid",
                    cell.config, cell.app
                ));
            }
            let i = cell.config * apps + cell.app;
            if flat[i].is_some() {
                return Err(format!("duplicate cell ({}, {})", cell.config, cell.app));
            }
            flat[i] = Some(cell);
        }
        let cells = flat
            .into_iter()
            .enumerate()
            .map(|(i, c)| c.ok_or_else(|| format!("missing cell ({}, {})", i / apps, i % apps)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SweepReport {
            configs,
            apps,
            cells,
        })
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
/// use distfront_trace::AppProfile;
///
/// let cfgs = [ExperimentConfig::baseline().with_uops(30_000)];
/// let apps = [AppProfile::test_tiny()];
/// let parallel = SweepRunner::new().try_grid(&cfgs, &apps);
/// let serial = SweepRunner::serial().try_grid(&cfgs, &apps);
/// assert_eq!(parallel, serial);
/// ```
pub struct SweepRunner {
    threads: usize,
    cache: Arc<WarmStartCache>,
    on_cell: Option<CellCallback>,
    mode: TraceMode,
    batch: bool,
}

impl std::fmt::Debug for SweepRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepRunner")
            .field("threads", &self.threads)
            .field("cache", &self.cache)
            .field("on_cell", &self.on_cell.as_ref().map(|_| "…"))
            .field("mode", &self.mode)
            .field("batch", &self.batch)
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
            batch: false,
        }
    }

    /// A runner sized from a [`JobSpec`](crate::job::JobSpec)'s
    /// scheduling fields — the unified construction path behind the
    /// one-shot CLI, the daemon's executors and the test harness. The
    /// legacy builder chain ([`with_threads`](Self::with_threads) →
    /// [`with_batch`](Self::with_batch) →
    /// [`with_trace_mode`](Self::with_trace_mode)) remains as a
    /// compatibility shim over the same fields; new call sites should
    /// construct a spec and come through here, then attach the runtime
    /// handles a pure-data spec cannot carry
    /// ([`with_warm_cache`](Self::with_warm_cache),
    /// [`with_trace_mode`](Self::with_trace_mode),
    /// [`with_on_cell`](Self::with_on_cell)).
    pub fn from_spec(spec: &crate::job::JobSpec) -> Self {
        let runner = if spec.workers == 0 {
            Self::new()
        } else {
            Self::with_threads(spec.workers)
        };
        runner.with_batch(spec.batch)
    }

    /// Replaces this runner's warm-start cache with a shared one, so the
    /// cache outlives the runner: the daemon hands every job's runner the
    /// same process-wide cache, which is what makes a second job's warm
    /// starts free. (A fresh runner owns a fresh cache; see
    /// [`warm_cache`](Self::warm_cache).)
    #[must_use]
    pub fn with_warm_cache(mut self, cache: Arc<WarmStartCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Enables (or disables) lockstep batched replay: replay-mode cells
    /// sharing a machine shape are grouped into cohorts and advanced
    /// together through one shared batched propagator (see
    /// [`BatchScheduler`]), one state matrix and one modal basis per
    /// cohort.
    ///
    /// Purely a performance knob: batched reports compare equal —
    /// bit-identical cell results — to serial and parallel unbatched runs
    /// of the same grid. Cells that cannot batch (live fallback, RK4
    /// integrator, lone cohorts) run exactly as before; outside
    /// [`TraceMode::Replay`] the flag has no effect.
    #[must_use]
    pub fn with_batch(mut self, batch: bool) -> Self {
        self.batch = batch;
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
    /// [`grid`](Self::grid) calls, so repeated sweeps of overlapping
    /// configurations reuse each other's warm starts).
    pub fn warm_cache(&self) -> &Arc<WarmStartCache> {
        &self.cache
    }

    /// Runs every configuration over every application, fault-tolerantly:
    /// the report's `cell(c, a)` corresponds to `configs[c]` and `apps[a]`
    /// exactly as the serial nested loop would order them, and a failing
    /// cell is an `Err` outcome in its slot — every other cell still runs.
    pub fn try_grid(&self, configs: &[ExperimentConfig], apps: &[AppProfile]) -> SweepReport {
        let workloads: Vec<Workload> = apps.iter().map(|p| Workload::Single(*p)).collect();
        self.try_grid_workloads(configs, &workloads)
    }

    /// [`try_grid`](Self::try_grid) over arbitrary [`Workload`]s (single
    /// profiles and phased compositions mix freely in one suite).
    pub fn try_grid_workloads(
        &self,
        configs: &[ExperimentConfig],
        workloads: &[Workload],
    ) -> SweepReport {
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
    /// run, and [`SweepReport::assemble`] puts the slices back together.
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
        let tasks = self.plan_tasks(configs, workloads, range);
        let workers = self.threads.min(tasks.len());
        if workers <= 1 {
            for task in &tasks {
                for outcome in self.run_task(configs, workloads, task) {
                    if let Some(cb) = &self.on_cell {
                        cb(&outcome);
                    }
                    let i = outcome.config * workloads.len() + outcome.app - start;
                    flat[i] = Some(outcome);
                }
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
                        for outcome in self.run_task(configs, workloads, &tasks[t]) {
                            if tx.send(outcome).is_err() {
                                return;
                            }
                        }
                    });
                }
                drop(tx);
                for outcome in rx {
                    if let Some(cb) = &self.on_cell {
                        cb(&outcome);
                    }
                    let i = outcome.config * workloads.len() + outcome.app - start;
                    flat[i] = Some(outcome);
                }
            });
        }
        flat.into_iter()
            .map(|c| c.expect("worker died mid-sweep"))
            .collect()
    }

    /// Runs one configuration over a whole application suite,
    /// fault-tolerantly (a one-row [`try_grid`](Self::try_grid)).
    pub fn try_suite(&self, cfg: &ExperimentConfig, apps: &[AppProfile]) -> SweepReport {
        self.try_grid(std::slice::from_ref(cfg), apps)
    }

    /// Runs one configuration over a whole workload suite,
    /// fault-tolerantly (a one-row
    /// [`try_grid_workloads`](Self::try_grid_workloads)).
    pub fn try_suite_workloads(
        &self,
        cfg: &ExperimentConfig,
        workloads: &[Workload],
    ) -> SweepReport {
        self.try_grid_workloads(std::slice::from_ref(cfg), workloads)
    }

    /// The strict grid: `result[c][a]` corresponds to `configs[c]` and
    /// `apps[a]`, exactly as the serial nested loop would order them.
    /// Shorthand for [`try_grid`](Self::try_grid) followed by
    /// [`SweepReport::strict`].
    ///
    /// # Panics
    ///
    /// Panics if any cell's engine fails — an invalid configuration or a
    /// non-converged warm start (matching
    /// [`run_app`](crate::runner::run_app)) — listing every failed cell.
    pub fn grid(&self, configs: &[ExperimentConfig], apps: &[AppProfile]) -> Vec<Vec<AppResult>> {
        self.try_grid(configs, apps).strict()
    }

    /// Runs one configuration over a whole application suite (strict; see
    /// [`grid`](Self::grid)).
    ///
    /// # Panics
    ///
    /// Panics if any cell's engine fails.
    pub fn suite(&self, cfg: &ExperimentConfig, apps: &[AppProfile]) -> Vec<AppResult> {
        self.grid(std::slice::from_ref(cfg), apps)
            .pop()
            .expect("one configuration in, one row out")
    }

    /// Splits the grid cells in `range` into schedulable tasks: with
    /// batching off (or outside replay mode) every cell is its own task;
    /// with batching on, replayable cells sharing a machine shape coalesce
    /// into lockstep cohorts (capped at [`MAX_COHORT`]) and everything
    /// else — live fallbacks, RK4 cells, cohorts of one — stays a plain
    /// cell task.
    fn plan_tasks(
        &self,
        configs: &[ExperimentConfig],
        workloads: &[Workload],
        range: std::ops::Range<usize>,
    ) -> Vec<Task> {
        let store = match (&self.mode, self.batch) {
            (TraceMode::Replay(store), true) => store,
            _ => return range.map(Task::Cell).collect(),
        };
        // Cohort key: everything the shared thermal network depends on —
        // the machine shape fixes the floorplan, hence the RC network and
        // its modal basis. Every lane steps with its own dt, so interval
        // length and clock need not match.
        type CohortKey = (usize, usize, usize);
        type Members = Vec<(usize, Arc<ActivityTrace>)>;
        let mut tasks: Vec<Task> = Vec::new();
        let mut cohorts: Vec<(CohortKey, Members)> = Vec::new();
        for i in range {
            let cfg = &configs[i / workloads.len()];
            let workload = &workloads[i % workloads.len()];
            let trace = store
                .get(cfg.name, workload.name(), &cfg.replay_points())
                .filter(|t| ReplayBackend::validate(cfg, workload, t).is_ok());
            match trace {
                // Only the modal path has a batched kernel; RK4 cells
                // replay serially as before.
                Some(t) if cfg.integrator == Integrator::Expm => {
                    let pc = &cfg.processor;
                    let key = (
                        pc.frontend_mode.partitions(),
                        pc.backends,
                        pc.trace_cache.physical_banks(),
                    );
                    match cohorts.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, members)) => members.push((i, t)),
                        None => cohorts.push((key, vec![(i, t)])),
                    }
                }
                _ => tasks.push(Task::Cell(i)),
            }
        }
        for (_, members) in cohorts {
            for chunk in members.chunks(MAX_COHORT) {
                if chunk.len() < 2 {
                    // A cohort of one gains nothing from the batch matrix;
                    // the plain replay path avoids its setup entirely.
                    tasks.extend(chunk.iter().map(|(i, _)| Task::Cell(*i)));
                } else {
                    tasks.push(Task::Cohort(chunk.to_vec()));
                }
            }
        }
        tasks.sort_by_key(Task::first_cell);
        tasks
    }

    fn run_task(
        &self,
        configs: &[ExperimentConfig],
        workloads: &[Workload],
        task: &Task,
    ) -> Vec<CellOutcome> {
        match task {
            Task::Cell(i) => vec![self.run_cell(configs, workloads, *i)],
            Task::Cohort(members) => {
                BatchScheduler::run_cohort(configs, workloads, members, Arc::clone(&self.cache))
            }
        }
    }

    fn run_cell(
        &self,
        configs: &[ExperimentConfig],
        workloads: &[Workload],
        i: usize,
    ) -> CellOutcome {
        let (config, app) = (i / workloads.len(), i % workloads.len());
        let cfg = &configs[config];
        let workload = &workloads[app];
        let started = Instant::now();
        let engine = || {
            CoupledEngine::for_workload(cfg, workload.clone())
                .with_warm_cache(Arc::clone(&self.cache))
        };
        let (result, stats) = match &self.mode {
            TraceMode::Live => engine().run_with_stats(),
            TraceMode::Record(store) => {
                let (recorded, stats) = engine().run_recorded();
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
            TraceMode::Replay(store) => {
                // Replay when a covering trace exists; anything else —
                // no recording, a core-side mismatch, a missing operating
                // point — falls back to live simulation so a replaying
                // sweep always completes.
                match store.get(cfg.name, workload.name(), &cfg.replay_points()) {
                    Some(trace) if ReplayBackend::validate(cfg, workload, &trace).is_ok() => {
                        engine().with_replay(trace).run_with_stats()
                    }
                    _ => engine().run_with_stats(),
                }
            }
        };
        CellOutcome {
            config,
            app,
            config_name: cfg.name,
            app_name: workload.name(),
            result,
            wall_time_s: started.elapsed().as_secs_f64(),
            warm_hit: stats.warm_start_hit,
            replayed: stats.replayed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_app, run_suite};

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

    #[test]
    fn parallel_grid_matches_serial_grid() {
        let (cfgs, apps) = tiny_grid();
        let serial = SweepRunner::serial().grid(&cfgs, &apps);
        let parallel = SweepRunner::with_threads(4).grid(&cfgs, &apps);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn grid_matches_run_app_cell_by_cell() {
        let (cfgs, apps) = tiny_grid();
        let grid = SweepRunner::with_threads(3).grid(&cfgs, &apps);
        for (c, cfg) in cfgs.iter().enumerate() {
            for (a, app) in apps.iter().enumerate() {
                assert_eq!(grid[c][a], run_app(cfg, app), "cell [{c}][{a}]");
            }
        }
    }

    #[test]
    fn try_grid_report_indexes_cells_by_coordinates() {
        let (cfgs, apps) = tiny_grid();
        let report = SweepRunner::with_threads(3).try_grid(&cfgs, &apps);
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
    fn try_cells_slices_reassemble_into_the_whole_grid() {
        let (cfgs, apps) = tiny_grid();
        let workloads: Vec<Workload> = apps.iter().map(|p| Workload::Single(*p)).collect();
        let whole = SweepRunner::serial().try_grid(&cfgs, &apps);
        let runner = SweepRunner::serial();
        let head = runner.try_cells(&cfgs, &workloads, 0..1);
        let tail = runner.try_cells(&cfgs, &workloads, 1..4);
        assert_eq!((head.len(), tail.len()), (1, 3));
        // Slices merged out of order reassemble the exact serial report.
        let merged = SweepReport::assemble(2, 2, tail.into_iter().chain(head)).unwrap();
        assert_eq!(merged, whole);
        // Coverage violations are errors, never a fabricated report.
        let partial = runner.try_cells(&cfgs, &workloads, 0..2);
        let missing = SweepReport::assemble(2, 2, partial.clone()).unwrap_err();
        assert!(missing.contains("missing cell"), "{missing}");
        let doubled: Vec<_> = partial.clone().into_iter().chain(partial).collect();
        let duplicate = SweepReport::assemble(2, 2, doubled).unwrap_err();
        assert!(duplicate.contains("duplicate cell"), "{duplicate}");
    }

    #[test]
    fn suite_matches_run_suite() {
        let cfg = ExperimentConfig::baseline().with_uops(40_000);
        let apps = [
            AppProfile::test_tiny(),
            *AppProfile::by_name("gzip").unwrap(),
        ];
        assert_eq!(
            SweepRunner::new().suite(&cfg, &apps),
            run_suite(&cfg, &apps)
        );
    }

    #[test]
    fn empty_grid_is_fine() {
        let grid = SweepRunner::new().grid(&[], &[AppProfile::test_tiny()]);
        assert!(grid.is_empty());
        let (cfgs, _) = tiny_grid();
        let grid = SweepRunner::new().grid(&cfgs, &[]);
        assert_eq!(grid.len(), 2);
        assert!(grid.iter().all(Vec::is_empty));
    }

    #[test]
    fn warm_cache_populates_and_hits_on_rerun() {
        let runner = SweepRunner::with_threads(2);
        let cfgs = vec![ExperimentConfig::baseline().with_uops(30_000)];
        let apps = vec![AppProfile::test_tiny()];
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
        let cache = Arc::new(WarmStartCache::with_shards(4));
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
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        WarmStartCache::with_shards(0);
    }
}
