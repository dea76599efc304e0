//! The timing simulator.
//!
//! An instruction-driven cycle-accounting model of the Fig. 2 processor:
//! every micro-op flows fetch → decode/rename/steer → dispatch → issue →
//! execute → commit, with each stage's cycle computed from pipeline
//! latencies (Table 1), structural capacities (ROB, issue queues, MOB,
//! register files), bandwidth limits (8-wide dispatch/commit, 1 issue per
//! queue per cycle, 2 memory buses) and dataflow (per-backend register
//! ready times, inter-cluster copy latencies).
//!
//! Instruction-driven means the simulator walks micro-ops in program order
//! and *computes* the cycle each event happens instead of ticking every
//! cycle; the result is the same cycle arithmetic at a fraction of the
//! cost, which is what lets the full 26-application evaluation run on a
//! laptop. Structural hazards are modelled with capacity rings: a
//! structure of size `S` delays dispatch until the entry `S` positions
//! earlier has left.
//!
//! # No heap traffic per micro-op
//!
//! [`Simulator::step`] and [`Simulator::run`] spend their time in
//! `run_trace` and `process_uop`, which allocate nothing once the
//! simulator has warmed up:
//!
//! * each trace is generated straight into one buffer the simulator owns,
//!   one copy per micro-op ([`TraceBuilder::next_trace_into`]);
//! * renaming counts registers instead of numbering them and returns its
//!   copies inline; the registers a commit frees are a mask and a class,
//!   held in the ROB entry itself (see [`crate::rename`]);
//! * steering scores every backend from the sources' availability masks
//!   in one pass ([`Steerer::steer`]);
//! * an issue queue or MOB keeps the release cycles that arrive in order
//!   on a FIFO and only load completions on a heap (see `ReleaseQueue`);
//! * partition lookups read a table and the ROB capacity is stored, so no
//!   micro-op pays a division;
//! * a micro-op's activity that follows from its backend, kind and
//!   registers is one tally entry per micro-op (see `UopTally`), folded
//!   into the counters once per interval.
//!
//! The ROB rings and issue queues grow to their high-water mark and are
//! reused after that. Per-interval work in
//! [`Simulator::end_interval`] and [`Simulator::interval_activity`]
//! (taking or copying the counters) may allocate. A new per-uop `Vec`,
//! `Box` or iterator fold would undo this.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use distfront_cache::l1d::L1DataCache;
use distfront_cache::trace_cache::TraceCache;
use distfront_cache::ul2::UnifiedL2;
use distfront_trace::profile::AppProfile;
use distfront_trace::uop::{MicroOp, RegClass, UopKind, NUM_ARCH_REGS};
use distfront_trace::{TraceGenerator, Workload};

use crate::activity::ActivityCounters;
use crate::bpred::BranchPredictor;
use crate::config::{FrontendMode, ProcessorConfig};
use crate::rename::{ReleaseSet, RenameActivity, RenameUnit};
use crate::steer::Steerer;
use crate::tracer::{TraceBuilder, TraceLimits};

/// Depth of the fetch→dispatch decoupling buffer in micro-ops.
const DECOUPLE_DEPTH: usize = 64;
/// Bus occupancy per transfer in cycles (the 4+1-cycle latency is charged
/// separately).
const BUS_OCCUPANCY: u64 = 2;

/// A fetch-toggling duty cycle: the fetch unit delivers during `open` of
/// every `period` cycles (§ DTM fetch gating). `open == period` is
/// equivalent to no gating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchGate {
    /// Cycles per period the fetch unit is enabled.
    pub open: u32,
    /// Period of the gating pattern in cycles.
    pub period: u32,
}

impl FetchGate {
    /// Validates the duty cycle.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.open == 0 || self.period == 0 || self.open > self.period {
            return Err(format!(
                "fetch gate {}/{} is not a valid duty cycle",
                self.open, self.period
            ));
        }
        Ok(())
    }
}

/// Report for one simulation step (interval).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalReport {
    /// Activity of this interval only.
    pub activity: ActivityCounters,
    /// Cycle at which the interval ended (last commit observed).
    pub end_cycle: u64,
    /// Cumulative committed micro-ops.
    pub total_committed: u64,
    /// `true` once the micro-op budget passed to [`Simulator::step`] has
    /// been reached.
    pub done: bool,
}

/// Cumulative run statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    /// Total committed micro-ops.
    pub committed_uops: u64,
    /// Cycle of the last commit.
    pub cycles: u64,
    /// Committed micro-ops per cycle.
    pub ipc: f64,
    /// Branch misprediction rate.
    pub mispredict_rate: f64,
    /// Trace-cache hit rate.
    pub tc_hit_rate: f64,
}

/// Release cycles of one finite structure (an issue queue or a MOB): the
/// cycle at which each occupied entry leaves.
///
/// [`wait_for_slot`](Self::wait_for_slot) depends only on the multiset of
/// release cycles, so any exact multiset gives the same timing. Most
/// releases arrive in order and go on a FIFO; only the rest need a heap:
///
/// * an int, fp or copy release is the micro-op's issue cycle, which is at
///   least its port's `*_issue_free` (the previous issue + 1), so it
///   strictly increases per backend;
/// * a store's MOB release is its commit cycle, and the commit slot
///   allocator never grants a cycle below its last one;
/// * a load's MOB release is its completion, whose order depends on
///   whether it hit or missed: those go on the heap.
///
/// The model keeps one quirk: a full structure waits for exactly one
/// entry to leave. Store broadcasts push into every backend's MOB without
/// waiting for a slot, so a MOB can hold more than `mem_queue` entries,
/// and a dispatch into it still pops only the oldest one.
#[derive(Debug, Clone, Default)]
struct ReleaseQueue {
    /// Releases pushed in nondecreasing order.
    ordered: VecDeque<u64>,
    /// Releases pushed in any order, least first.
    unordered: BinaryHeap<Reverse<u64>>,
}

impl ReleaseQueue {
    /// Adds a release no earlier than every earlier in-order one.
    fn push_in_order(&mut self, release: u64) {
        debug_assert!(
            self.ordered.back().is_none_or(|&last| last <= release),
            "release {release} pushed out of order"
        );
        self.ordered.push_back(release);
    }

    /// Adds a release in any order.
    fn push(&mut self, release: u64) {
        self.unordered.push(Reverse(release));
    }

    /// Ensures a free slot at `cand`, possibly raising it; drains entries
    /// that have already left.
    fn wait_for_slot(&mut self, cand: &mut u64, capacity: usize) {
        while self.ordered.front().is_some_and(|&r| r <= *cand) {
            self.ordered.pop_front();
        }
        while self.unordered.peek().is_some_and(|&Reverse(r)| r <= *cand) {
            self.unordered.pop();
        }
        if self.ordered.len() + self.unordered.len() >= capacity {
            *cand = (*cand).max(self.pop_least());
        }
    }

    /// Removes and returns the earliest release.
    fn pop_least(&mut self) -> u64 {
        match (self.ordered.front(), self.unordered.peek()) {
            (Some(&a), Some(&Reverse(b))) if b < a => {
                self.unordered.pop();
                b
            }
            (Some(&a), _) => {
                self.ordered.pop_front();
                a
            }
            (None, _) => self.unordered.pop().expect("a full structure").0,
        }
    }
}

/// Bandwidth-limited slot allocator (dispatch/commit width).
#[derive(Debug, Clone)]
struct SlotAllocator {
    width: u32,
    cycle: u64,
    used: u32,
}

impl SlotAllocator {
    fn new(width: u32) -> Self {
        SlotAllocator {
            width,
            cycle: 0,
            used: 0,
        }
    }

    /// Allocates a slot at or after `cand`; returns the granted cycle.
    fn alloc(&mut self, cand: u64) -> u64 {
        if cand > self.cycle {
            self.cycle = cand;
            self.used = 1;
        } else if self.used < self.width {
            self.used += 1;
        } else {
            self.cycle += 1;
            self.used = 1;
        }
        self.cycle
    }
}

#[derive(Debug, Clone)]
struct InFlight {
    commit_cycle: u64,
    backend: usize,
    /// Registers this entry frees at commit.
    release: ReleaseSet,
}

#[derive(Debug, Clone)]
struct BackendTiming {
    /// Next cycle each issue port is free (int, fp, copy, mem).
    int_issue_free: u64,
    fp_issue_free: u64,
    copy_issue_free: u64,
    mem_issue_free: u64,
    /// Unpipelined divider availability.
    int_div_free: u64,
    fp_div_free: u64,
    /// Occupancy of the issue queues / MOB.
    int_q: ReleaseQueue,
    fp_q: ReleaseQueue,
    copy_q: ReleaseQueue,
    mem_q: ReleaseQueue,
    /// Per-logical-register value-ready cycle in this backend.
    reg_ready: Vec<u64>,
}

impl BackendTiming {
    fn new() -> Self {
        BackendTiming {
            int_issue_free: 0,
            fp_issue_free: 0,
            copy_issue_free: 0,
            mem_issue_free: 0,
            int_div_free: 0,
            fp_div_free: 0,
            int_q: ReleaseQueue::default(),
            fp_q: ReleaseQueue::default(),
            copy_q: ReleaseQueue::default(),
            mem_q: ReleaseQueue::default(),
            reg_ready: vec![0; usize::from(NUM_ARCH_REGS)],
        }
    }
}

/// The clustered-processor timing simulator.
///
/// # Examples
///
/// ```
/// use distfront_trace::AppProfile;
/// use distfront_uarch::config::ProcessorConfig;
/// use distfront_uarch::sim::Simulator;
///
/// let mut sim = Simulator::new(
///     ProcessorConfig::hpca05_baseline(),
///     &AppProfile::test_tiny(),
///     42,
/// );
/// let stats = sim.run(10_000);
/// assert!(stats.committed_uops >= 10_000);
/// assert!(stats.ipc > 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: ProcessorConfig,
    builder: TraceBuilder,
    /// The fetched trace's micro-ops; reused for every trace.
    trace_buf: Vec<MicroOp>,
    bp: BranchPredictor,
    tc: TraceCache,
    ul2: UnifiedL2,
    l1d: Vec<L1DataCache>,
    rename: RenameUnit,
    steerer: Steerer,
    /// The open interval's counters that do not follow from a micro-op's
    /// backend, kind and registers alone (copies, fetch, misses).
    act: ActivityCounters,
    /// The open interval's micro-ops, from which the rest of its activity
    /// is derived once, when the interval is read or closed.
    tally: UopTally,
    /// The per-micro-op increments the tally replaced, kept by the model
    /// check in `sim/model.rs`.
    #[cfg(test)]
    per_uop: ActivityCounters,

    backends: Vec<BackendTiming>,
    rob_rings: Vec<VecDeque<InFlight>>,
    /// ROB entries per frontend partition.
    rob_per_partition: usize,
    dispatch_slots: SlotAllocator,
    commit_slots: SlotAllocator,
    bus_free: Vec<u64>,

    fetch_cycle: u64,
    redirect_floor: u64,
    decouple: VecDeque<u64>,
    last_commit: u64,
    interval_start: u64,
    total_committed: u64,
    tc_lookups: u64,
    tc_hits: u64,

    /// DTM hooks, inactive by default (see the setters for semantics).
    fetch_gate: Option<FetchGate>,
    clock_scale: f64,
}

impl Simulator {
    /// Creates a simulator for `profile` with a deterministic `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`ProcessorConfig::validate`].
    pub fn new(cfg: ProcessorConfig, profile: &AppProfile, seed: u64) -> Self {
        Self::with_workload(cfg, &Workload::Single(*profile), seed)
    }

    /// Creates a simulator for any [`Workload`] — a stationary application
    /// profile or a phase-structured composition — with a deterministic
    /// `seed`. Single-profile workloads are bit-identical to
    /// [`Simulator::new`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`ProcessorConfig::validate`] or the workload
    /// fails [`Workload::validate`].
    pub fn with_workload(cfg: ProcessorConfig, workload: &Workload, seed: u64) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("bad config: {e}"));
        let generator = match workload {
            Workload::Single(profile) => TraceGenerator::new(profile, seed),
            Workload::Phased(phased) => TraceGenerator::phased(phased, seed),
        };
        let partitions = cfg.frontend_mode.partitions();
        let tc = TraceCache::new(cfg.trace_cache);
        let physical_banks = cfg.trace_cache.physical_banks();
        Simulator {
            builder: TraceBuilder::new(
                generator,
                TraceLimits {
                    max_uops: cfg.trace_cache.line_uops as usize,
                    max_branches: 3,
                },
            ),
            trace_buf: Vec::with_capacity(cfg.trace_cache.line_uops as usize),
            bp: BranchPredictor::new(16 * 1024),
            tc,
            ul2: UnifiedL2::new(cfg.ul2),
            l1d: (0..cfg.backends)
                .map(|_| L1DataCache::new(cfg.l1d))
                .collect(),
            rename: RenameUnit::new(cfg.backends, partitions, cfg.int_regs, cfg.fp_regs),
            steerer: Steerer::new(cfg.backends, cfg.steering),
            act: ActivityCounters::new(partitions, cfg.backends, physical_banks),
            tally: UopTally::default(),
            #[cfg(test)]
            per_uop: ActivityCounters::new(partitions, cfg.backends, physical_banks),
            backends: (0..cfg.backends).map(|_| BackendTiming::new()).collect(),
            rob_rings: vec![VecDeque::new(); partitions],
            rob_per_partition: cfg.rob_per_partition(),
            dispatch_slots: SlotAllocator::new(cfg.dispatch_width),
            commit_slots: SlotAllocator::new(cfg.commit_width),
            bus_free: vec![0; cfg.memory_buses],
            fetch_cycle: 0,
            redirect_floor: 0,
            decouple: VecDeque::with_capacity(DECOUPLE_DEPTH),
            last_commit: 0,
            interval_start: 0,
            total_committed: 0,
            tc_lookups: 0,
            tc_hits: 0,
            fetch_gate: None,
            clock_scale: 1.0,
            cfg,
        }
    }

    /// Gates the fetch unit to a duty cycle (thermal fetch toggling), or
    /// removes the gate with `None`. Gated fetch delivers traces at
    /// `open/period` of the nominal bandwidth, which lowers front-end
    /// activity density at an IPC cost when fetch is the bottleneck.
    ///
    /// # Panics
    ///
    /// Panics if the gate fails [`FetchGate::validate`].
    pub fn set_fetch_gate(&mut self, gate: Option<FetchGate>) {
        if let Some(g) = gate {
            g.validate()
                .unwrap_or_else(|e| panic!("bad fetch gate: {e}"));
        }
        self.fetch_gate = gate;
    }

    /// The fetch gate in force, if any.
    pub fn fetch_gate(&self) -> Option<FetchGate> {
        self.fetch_gate
    }

    /// Sets the core-domain clock as a fraction of nominal (global DVFS).
    ///
    /// The memory buses and UL2 sit on a fixed uncore domain, so when the
    /// core domain slows by `scale`, uncore latencies cost proportionally
    /// fewer *core* cycles — the classic "memory gets relatively closer
    /// under DVFS" effect. `1.0` restores nominal timing exactly.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not in `(0, 1]`.
    pub fn set_clock_scale(&mut self, scale: f64) {
        assert!(
            scale.is_finite() && 0.0 < scale && scale <= 1.0,
            "clock scale {scale} outside (0, 1]"
        );
        self.clock_scale = scale;
    }

    /// The core-domain clock scale in force.
    pub fn clock_scale(&self) -> f64 {
        self.clock_scale
    }

    /// Biases dispatch steering toward the backends fed by frontend
    /// partition `partition` (front-end activity migration), or removes the
    /// bias with `None`. With a centralized frontend the single partition
    /// covers every backend, so the bias is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range.
    pub fn set_partition_bias(&mut self, partition: Option<usize>) {
        let range = partition.map(|p| {
            assert!(
                p < self.cfg.frontend_mode.partitions(),
                "partition {p} out of range"
            );
            let per = self.cfg.backends_per_frontend();
            (p * per, (p + 1) * per)
        });
        self.steerer.set_preferred(range);
    }

    /// An uncore latency converted to core cycles at the current clock
    /// scale (identity at nominal).
    fn uncore_cycles(&self, lat: u64) -> u64 {
        if self.clock_scale == 1.0 {
            lat
        } else {
            ((lat as f64 * self.clock_scale).round() as u64).max(1)
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &ProcessorConfig {
        &self.cfg
    }

    /// Mutable access to the trace cache, for the thermal control loop
    /// (hopping and mapping rebalance happen at interval boundaries).
    pub fn trace_cache_mut(&mut self) -> &mut TraceCache {
        &mut self.tc
    }

    /// Shared access to the trace cache.
    pub fn trace_cache(&self) -> &TraceCache {
        &self.tc
    }

    /// Cycle of the most recent commit.
    pub fn current_cycle(&self) -> u64 {
        self.last_commit
    }

    /// Total micro-ops committed so far.
    pub fn total_committed(&self) -> u64 {
        self.total_committed
    }

    /// Branch misprediction rate so far.
    pub fn mispredict_rate(&self) -> f64 {
        self.bp.mispredict_rate()
    }

    /// Trace-cache hit rate so far.
    pub fn tc_hit_rate(&self) -> f64 {
        if self.tc_lookups == 0 {
            1.0
        } else {
            self.tc_hits as f64 / self.tc_lookups as f64
        }
    }

    /// Runs until `cycle_target` is passed or `uop_target` total micro-ops
    /// have committed, returning the interval's activity: one
    /// [`advance`](Self::advance) then one
    /// [`end_interval`](Self::end_interval).
    pub fn step(&mut self, cycle_target: u64, uop_target: u64) -> IntervalReport {
        self.advance(cycle_target, uop_target);
        self.end_interval(uop_target)
    }

    /// Runs whole traces until `cycle_target` is passed or `uop_target`
    /// total micro-ops have committed, leaving the interval open.
    ///
    /// The budget only stops this loop; nothing else reads it. So
    /// `advance(t, a)` followed by `advance(t, b)` with `a <= b` runs
    /// exactly the traces one `advance(t, b)` runs, which is what lets a
    /// core stopped at a pilot budget continue into the full run.
    pub fn advance(&mut self, cycle_target: u64, uop_target: u64) {
        while self.last_commit < cycle_target && self.total_committed < uop_target {
            self.run_trace();
        }
    }

    /// Closes the open interval and returns its report; `done` says
    /// whether `uop_target` total micro-ops have committed.
    pub fn end_interval(&mut self, uop_target: u64) -> IntervalReport {
        let bank_acc = self.tc.take_bank_accesses();
        let ra = self.rename.take_activity();
        let cycles = self.open_interval_cycles();
        fold_interval(&mut self.act, &bank_acc, &ra, cycles);
        self.tally
            .fold_into(&mut self.act, &self.rename, self.cfg.frontend_mode);
        self.tally = UopTally::default();
        self.interval_start = self.last_commit;
        IntervalReport {
            activity: self.act.take(),
            end_cycle: self.last_commit,
            total_committed: self.total_committed,
            done: self.total_committed >= uop_target,
        }
    }

    /// The open interval's activity exactly as
    /// [`end_interval`](Self::end_interval) would report it now, read
    /// without closing the interval.
    pub fn interval_activity(&self) -> ActivityCounters {
        let mut act = self.act.clone();
        fold_interval(
            &mut act,
            self.tc.bank_accesses(),
            self.rename.activity(),
            self.open_interval_cycles(),
        );
        self.tally
            .fold_into(&mut act, &self.rename, self.cfg.frontend_mode);
        act
    }

    /// Cycles the open interval covers (at least one).
    fn open_interval_cycles(&self) -> u64 {
        self.last_commit.saturating_sub(self.interval_start).max(1)
    }

    /// Runs at least `uops` further micro-ops to completion (rounding up to
    /// a whole trace) and returns cumulative stats.
    pub fn run(&mut self, uops: u64) -> RunStats {
        let target = self.total_committed + uops;
        while self.total_committed < target {
            self.run_trace();
        }
        RunStats {
            committed_uops: self.total_committed,
            cycles: self.last_commit,
            ipc: self.total_committed as f64 / self.last_commit.max(1) as f64,
            mispredict_rate: self.bp.mispredict_rate(),
            tc_hit_rate: self.tc_hit_rate(),
        }
    }

    /// Fetches and fully processes one trace.
    fn run_trace(&mut self) {
        let mut fc = self.fetch_cycle.max(self.redirect_floor);
        // Fetch/dispatch decoupling: the fetch unit stalls when the buffer
        // between fetch and dispatch is full.
        if self.decouple.len() >= DECOUPLE_DEPTH {
            let oldest_dispatch = *self.decouple.front().expect("non-empty");
            let pipe = u64::from(self.cfg.fetch_to_dispatch + self.cfg.decode_rename_steer);
            fc = fc.max(oldest_dispatch.saturating_sub(pipe));
        }

        // The buffer is taken out for the loop below, which needs `self`
        // mutably, and put back after it: no allocation per trace.
        let mut uops = std::mem::take(&mut self.trace_buf);
        let key = self.builder.next_trace_into(&mut uops);
        self.act.itlb_accesses += 1;
        self.tc_lookups += 1;
        let hit = self.tc.lookup(key);
        let deliver = if hit {
            self.tc_hits += 1;
            fc + 1
        } else {
            // Build the trace from the UL2 over a memory bus.
            self.act.tc_fills += 1;
            self.act.ul2_accesses += 1;
            let (grant, bus_lat) = self.alloc_bus(fc);
            let raw_lat = u64::from(self.ul2.access(key.start_pc));
            let lat = self.uncore_cycles(raw_lat);
            self.tc.insert(key);
            // Line build streams the micro-ops through decode.
            let build = uops.len() as u64 / 4 + 1;
            grant + bus_lat + lat + build
        };
        let mut fetch_cycles = (uops.len() as u64).div_ceil(u64::from(self.cfg.fetch_width));
        if let Some(g) = self.fetch_gate {
            // Toggling: the same fetch work spreads over period/open the
            // cycles (integer arithmetic keeps the timing deterministic).
            fetch_cycles = (fetch_cycles * u64::from(g.period)).div_ceil(u64::from(g.open));
        }
        self.fetch_cycle = deliver + fetch_cycles;
        let front_ready =
            deliver + u64::from(self.cfg.fetch_to_dispatch + self.cfg.decode_rename_steer);
        for uop in &uops {
            self.process_uop(uop, front_ready);
        }
        self.trace_buf = uops;
    }

    /// Allocates a memory bus at or after `request`; returns the grant
    /// cycle and the bus latency to charge.
    fn alloc_bus(&mut self, request: u64) -> (u64, u64) {
        self.act.bus_transfers += 1;
        let (idx, &free) = self
            .bus_free
            .iter()
            .enumerate()
            .min_by_key(|&(_, &f)| f)
            .expect("at least one bus");
        let grant = request.max(free);
        self.bus_free[idx] = grant + BUS_OCCUPANCY;
        (grant, self.uncore_cycles(u64::from(self.cfg.bus_latency)))
    }

    /// Pops the globally oldest in-flight instruction, applying its
    /// register releases. Returns `false` if nothing is in flight.
    fn pop_oldest_rob(&mut self) -> bool {
        // The first partition with the least head commit cycle.
        let mut oldest: Option<(usize, u64)> = None;
        for (p, ring) in self.rob_rings.iter().enumerate() {
            if let Some(front) = ring.front() {
                if oldest.is_none_or(|(_, c)| front.commit_cycle < c) {
                    oldest = Some((p, front.commit_cycle));
                }
            }
        }
        let Some((p, _)) = oldest else {
            return false;
        };
        let inf = self.rob_rings[p].pop_front().expect("checked");
        self.rename.commit_release(inf.release);
        self.steerer.note_retire(inf.backend);
        true
    }

    /// Drains ROB entries whose commit cycle has passed `cand`, then waits
    /// for a slot in `partition` if still full.
    fn wait_rob_slot(&mut self, partition: usize, cand: &mut u64) {
        let cap = self.rob_per_partition;
        loop {
            let ring = &self.rob_rings[partition];
            match ring.front() {
                Some(front) if front.commit_cycle <= *cand || ring.len() >= cap => {
                    *cand = (*cand).max(self.rob_rings[partition][0].commit_cycle);
                    let inf = self.rob_rings[partition].pop_front().expect("non-empty");
                    self.rename.commit_release(inf.release);
                    self.steerer.note_retire(inf.backend);
                    if ring_has_room(&self.rob_rings[partition], cap) {
                        break;
                    }
                }
                _ => break,
            }
        }
    }

    /// Processes one micro-op through rename → dispatch → issue → commit.
    fn process_uop(&mut self, uop: &MicroOp, front_ready: u64) {
        let cfg_dispatch_latency = u64::from(self.cfg.dispatch_latency);

        // -- Steer and rename ------------------------------------------------
        let backend = self.steerer.steer(uop, &self.rename);
        let partition = self.rename.partition_of(backend);
        let renamed = loop {
            match self.rename.rename(uop, backend) {
                Ok(r) => break r,
                Err(_) => {
                    let ok = self.pop_oldest_rob();
                    assert!(ok, "register deadlock with empty ROB");
                }
            }
        };

        // -- Dispatch --------------------------------------------------------
        let mut cand = front_ready;
        self.wait_rob_slot(partition, &mut cand);
        {
            let b = &mut self.backends[backend];
            match queue_class(uop.kind) {
                QueueClass::Int => b.int_q.wait_for_slot(&mut cand, self.cfg.int_queue),
                QueueClass::Fp => b.fp_q.wait_for_slot(&mut cand, self.cfg.fp_queue),
                QueueClass::Mem => b.mem_q.wait_for_slot(&mut cand, self.cfg.mem_queue),
            }
        }
        let dispatch = self.dispatch_slots.alloc(cand);
        if self.decouple.len() >= DECOUPLE_DEPTH {
            self.decouple.pop_front();
        }
        self.decouple.push_back(dispatch);

        // -- Copies to localize remote sources --------------------------------
        for copy in renamed.copies.iter() {
            let from_t = &mut self.backends[copy.from];
            let val_ready = from_t.reg_ready[copy.reg.index()];
            // A cross-partition copy is generated by the other frontend
            // after a request signal (§3.1.1, step 2): one extra cycle.
            let request = u64::from(copy.cross_partition);
            let mut c_cand = (dispatch + cfg_dispatch_latency + request).max(val_ready);
            from_t
                .copy_q
                .wait_for_slot(&mut c_cand, self.cfg.copy_queue);
            let issue = c_cand.max(from_t.copy_issue_free);
            from_t.copy_issue_free = issue + 1;
            from_t.copy_q.push_in_order(issue);
            let hops = u64::from(self.cfg.hops_between(copy.from, backend));
            let arrival = issue + 1 + hops;
            self.backends[backend].reg_ready[copy.reg.index()] =
                self.backends[backend].reg_ready[copy.reg.index()].max(arrival);

            // Activity: copy issues at the source, value lands at the dest.
            self.act.backends[copy.from].copy_ops += 1;
            self.act.link_flits += hops.max(1);
            match copy.reg.class() {
                RegClass::Int => {
                    self.act.backends[copy.from].irf_reads += 1;
                    self.act.backends[backend].irf_writes += 1;
                }
                RegClass::Fp => {
                    self.act.backends[copy.from].fprf_reads += 1;
                    self.act.backends[backend].fprf_writes += 1;
                }
            }
        }

        // -- Issue -----------------------------------------------------------
        let earliest_issue = dispatch + cfg_dispatch_latency;
        let bt = &mut self.backends[backend];
        let mut issue = earliest_issue;
        for s in uop.sources() {
            issue = issue.max(bt.reg_ready[s.index()]);
        }
        match queue_class(uop.kind) {
            QueueClass::Int => {
                issue = issue.max(bt.int_issue_free);
                if uop.kind == UopKind::IntDiv {
                    issue = issue.max(bt.int_div_free);
                    bt.int_div_free = issue + u64::from(uop.kind.latency());
                }
                bt.int_issue_free = issue + 1;
                bt.int_q.push_in_order(issue);
            }
            QueueClass::Fp => {
                issue = issue.max(bt.fp_issue_free);
                if uop.kind == UopKind::FpDiv {
                    issue = issue.max(bt.fp_div_free);
                    bt.fp_div_free = issue + u64::from(uop.kind.latency());
                }
                bt.fp_issue_free = issue + 1;
                bt.fp_q.push_in_order(issue);
            }
            QueueClass::Mem => {
                issue = issue.max(bt.mem_issue_free);
                bt.mem_issue_free = issue + 1;
            }
        }

        // -- Execute ---------------------------------------------------------
        let mut complete = issue + u64::from(uop.kind.latency());
        match uop.kind {
            UopKind::Load => {
                let addr = uop.mem_addr.expect("load without address");
                if self.l1d[backend].load(addr) {
                    complete += u64::from(self.cfg.l1d.hit_latency);
                } else {
                    let (grant, bus_lat) = self.alloc_bus(complete);
                    self.act.ul2_accesses += 1;
                    let raw_l2 = u64::from(self.ul2.access(addr));
                    let l2 = self.uncore_cycles(raw_l2);
                    complete = grant + bus_lat + l2;
                }
                // Loads release their MOB entry once disambiguated
                // (modelled at completion).
                self.backends[backend].mem_q.push(complete);
            }
            UopKind::Store => {
                let addr = uop.mem_addr.expect("store without address");
                self.l1d[backend].store(addr);
            }
            UopKind::Branch => {
                let mispredicted = self.bp.predict_and_update(uop.pc, uop.taken);
                if mispredicted {
                    let redirect = complete + u64::from(self.cfg.mispredict_penalty());
                    self.redirect_floor = self.redirect_floor.max(redirect);
                }
            }
            _ => {}
        }

        if let Some(dst) = uop.dst {
            self.backends[backend].reg_ready[dst.index()] = complete;
        }

        // -- Commit ----------------------------------------------------------
        let commit_ready = complete + 1 + u64::from(self.cfg.distributed_commit_penalty);
        let commit = self.commit_slots.alloc(commit_ready);
        if uop.kind == UopKind::Store {
            // The store's MOB slots (all clusters) free at commit.
            for b in 0..self.cfg.backends {
                if b != backend {
                    self.backends[b].mem_q.push_in_order(commit);
                }
            }
            self.backends[backend].mem_q.push_in_order(commit);
        }
        self.rob_rings[partition].push_back(InFlight {
            commit_cycle: commit,
            backend,
            release: renamed.release,
        });
        self.last_commit = self.last_commit.max(commit);
        self.total_committed += 1;
        self.tally.count(uop, backend);
        #[cfg(test)]
        model::count_per_uop(&mut self.per_uop, uop, backend, partition, &self.cfg);
    }
}

/// Kinds of micro-op, [`UopKind`] as an index (`Branch` is the last).
const UOP_KINDS: usize = UopKind::Branch as usize + 1;

/// The open interval's micro-ops by backend, kind and register class.
///
/// Most of a micro-op's activity follows from these alone: its issue
/// queue and functional unit from its kind, its data-cache, TLB and MOB
/// events from being a load or a store, its ROB partition from its
/// backend. So the simulator counts each micro-op once here and
/// [`fold_into`](Self::fold_into) derives those counters per interval.
/// Events that depend on timing or on other micro-ops (copies, misses,
/// bus transfers) are counted where they happen.
#[derive(Debug, Clone, Default)]
struct UopTally {
    /// `kinds[backend][kind as usize]`: micro-ops dispatched.
    kinds: [[u64; UOP_KINDS]; RenameUnit::MAX_BACKENDS],
    /// `reads[backend][class as usize]`: register-file reads of the
    /// micro-ops' sources.
    reads: [[u64; 2]; RenameUnit::MAX_BACKENDS],
    /// `writes[backend][class as usize]`: register-file writes of their
    /// destinations.
    writes: [[u64; 2]; RenameUnit::MAX_BACKENDS],
}

impl UopTally {
    /// Counts one micro-op dispatched to `backend`.
    fn count(&mut self, uop: &MicroOp, backend: usize) {
        self.kinds[backend][uop.kind as usize] += 1;
        for s in uop.sources() {
            self.reads[backend][s.class() as usize] += 1;
        }
        if let Some(dst) = uop.dst {
            self.writes[backend][dst.class() as usize] += 1;
        }
    }

    /// Adds the activity the tallied micro-ops caused into `act`.
    fn fold_into(&self, act: &mut ActivityCounters, rename: &RenameUnit, mode: FrontendMode) {
        let backends = act.backends.len();
        let stores: u64 = self.kinds[..backends]
            .iter()
            .map(|k| k[UopKind::Store as usize])
            .sum();
        let (mut uops, mut branches) = (0, 0);
        for (b, a) in act.backends.iter_mut().enumerate() {
            let n = |kind: UopKind| self.kinds[b][kind as usize];
            let int =
                n(UopKind::IntAlu) + n(UopKind::IntMul) + n(UopKind::IntDiv) + n(UopKind::Branch);
            let fp = n(UopKind::FpAdd) + n(UopKind::FpMul) + n(UopKind::FpDiv);
            let mem = n(UopKind::Load) + n(UopKind::Store);
            a.iq_writes += int;
            a.iq_issues += int;
            a.fpq_writes += fp;
            a.fpq_issues += fp;
            // Memory micro-ops use an integer unit for address generation.
            a.int_fu_ops += int + mem;
            a.fp_fu_ops += fp;
            a.dl1_accesses += mem;
            a.dtlb_accesses += mem;
            // A store address is broadcast on the disambiguation bus and
            // holds a slot in every cluster's MOB until commit (§2).
            a.mob_allocs += n(UopKind::Load) + stores;
            a.mob_searches += n(UopKind::Load);
            a.irf_reads += self.reads[b][RegClass::Int as usize];
            a.fprf_reads += self.reads[b][RegClass::Fp as usize];
            a.irf_writes += self.writes[b][RegClass::Int as usize];
            a.fprf_writes += self.writes[b][RegClass::Fp as usize];

            // One ROB write at dispatch and one read at commit, in the
            // backend's partition.
            let all = int + fp + mem;
            let p = rename.partition_of(b);
            act.rob_writes[p] += all;
            act.rob_reads[p] += all;
            if mode.is_distributed() {
                // The previous entry's L field is patched (narrow write).
                act.rob_rl_writes[p] += all;
            }
            uops += all;
            branches += n(UopKind::Branch);
        }
        if mode.is_distributed() {
            // Amortized R/L pre-read of the commit walk (§3.1.2).
            for r in &mut act.rob_rl_reads {
                *r += uops;
            }
        }
        act.decoded_uops += uops;
        act.committed_uops += uops;
        act.disamb_broadcasts += stores;
        // A branch is predicted at fetch and updated at resolve.
        act.bp_accesses += 2 * branches;
    }
}

/// Folds the trace cache's and the rename unit's counters into an
/// interval's activity and sets its cycle count.
fn fold_interval(act: &mut ActivityCounters, bank_acc: &[u64], ra: &RenameActivity, cycles: u64) {
    for (a, b) in act.tc_bank_accesses.iter_mut().zip(bank_acc) {
        *a += b;
    }
    for (a, b) in act.rat_reads.iter_mut().zip(&ra.rat_reads) {
        *a += b;
    }
    for (a, b) in act.rat_writes.iter_mut().zip(&ra.rat_writes) {
        *a += b;
    }
    act.steer_lookups += ra.steer_lookups;
    act.copy_requests += ra.copy_requests;
    act.cycles = cycles;
}

fn ring_has_room(ring: &VecDeque<InFlight>, cap: usize) -> bool {
    ring.len() < cap
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueueClass {
    Int,
    Fp,
    Mem,
}

fn queue_class(kind: UopKind) -> QueueClass {
    match kind {
        UopKind::Load | UopKind::Store => QueueClass::Mem,
        k if k.is_fp() => QueueClass::Fp,
        _ => QueueClass::Int,
    }
}

#[cfg(test)]
mod model;

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline_sim() -> Simulator {
        Simulator::new(
            ProcessorConfig::hpca05_baseline(),
            &AppProfile::test_tiny(),
            7,
        )
    }

    #[test]
    fn runs_and_commits_exactly() {
        let mut sim = baseline_sim();
        let stats = sim.run(5_000);
        assert!(
            stats.committed_uops >= 5_000,
            "ran {}",
            stats.committed_uops
        );
        assert!(stats.committed_uops < 5_000 + 16, "overshot a full trace");
        assert!(stats.cycles > 0);
    }

    #[test]
    fn deterministic() {
        let a = baseline_sim().run(20_000);
        let b = baseline_sim().run(20_000);
        assert_eq!(a, b);
    }

    #[test]
    fn ipc_in_plausible_range() {
        let mut sim = baseline_sim();
        let stats = sim.run(50_000);
        assert!(
            stats.ipc > 0.2 && stats.ipc <= 8.0,
            "ipc {} out of range",
            stats.ipc
        );
    }

    #[test]
    fn branch_predictor_learns_workload() {
        let mut sim = baseline_sim();
        let stats = sim.run(50_000);
        assert!(
            stats.mispredict_rate < 0.25,
            "mispredict rate {}",
            stats.mispredict_rate
        );
        assert!(stats.mispredict_rate > 0.0, "perfect prediction is fishy");
    }

    #[test]
    fn trace_cache_warms_up() {
        let mut sim = baseline_sim();
        let stats = sim.run(50_000);
        assert!(stats.tc_hit_rate > 0.8, "tc hit rate {}", stats.tc_hit_rate);
    }

    #[test]
    fn distributed_mode_runs_with_small_slowdown() {
        let base = baseline_sim().run(60_000);
        let mut dsim = Simulator::new(
            ProcessorConfig::distributed_rename_commit(),
            &AppProfile::test_tiny(),
            7,
        );
        let dist = dsim.run(60_000);
        let slowdown = dist.cycles as f64 / base.cycles as f64;
        assert!(
            (0.95..1.25).contains(&slowdown),
            "distributed slowdown {slowdown}"
        );
    }

    #[test]
    fn step_partitions_activity() {
        let mut sim = baseline_sim();
        let r1 = sim.step(u64::MAX, 10_000);
        assert!(r1.done);
        assert!(r1.total_committed >= 10_000);
        assert_eq!(r1.activity.committed_uops, r1.total_committed);
        assert!(r1.activity.decoded_uops >= r1.total_committed);
        // A second step starts from zeroed activity.
        let r2 = sim.step(u64::MAX, 15_000);
        assert_eq!(
            r2.activity.committed_uops,
            r2.total_committed - r1.total_committed
        );
        assert!(r2.total_committed >= 15_000);
    }

    #[test]
    fn activity_spread_over_backends() {
        let mut sim = baseline_sim();
        let r = sim.step(u64::MAX, 40_000);
        for (b, a) in r.activity.backends.iter().enumerate() {
            assert!(
                a.iq_writes + a.fpq_writes + a.dl1_accesses > 0,
                "backend {b} idle"
            );
        }
    }

    #[test]
    fn tc_bank_accesses_recorded() {
        let mut sim = baseline_sim();
        let r = sim.step(u64::MAX, 40_000);
        let total: u64 = r.activity.tc_bank_accesses.iter().sum();
        assert!(total > 0);
        assert_eq!(r.activity.tc_bank_accesses.len(), 2);
    }

    #[test]
    fn centralized_has_single_partition_counters() {
        let mut sim = baseline_sim();
        let r = sim.step(u64::MAX, 5_000);
        assert_eq!(r.activity.rat_reads.len(), 1);
        assert_eq!(r.activity.copy_requests, 0);
    }

    #[test]
    fn distributed_generates_copy_requests() {
        let mut sim = Simulator::new(
            ProcessorConfig::distributed_rename_commit(),
            &AppProfile::test_tiny(),
            7,
        );
        let r = sim.step(u64::MAX, 40_000);
        assert_eq!(r.activity.rat_reads.len(), 2);
        assert!(r.activity.copy_requests > 0, "no cross-partition copies");
        // Rename activity is split across both partitions.
        assert!(r.activity.rat_writes[0] > 0);
        assert!(r.activity.rat_writes[1] > 0);
    }

    #[test]
    fn stores_broadcast_disambiguation() {
        let mut sim = baseline_sim();
        let r = sim.step(u64::MAX, 20_000);
        assert!(r.activity.disamb_broadcasts > 0);
        // Every store allocates a MOB slot in all four clusters.
        let total_allocs: u64 = r.activity.backends.iter().map(|b| b.mob_allocs).sum();
        assert!(total_allocs >= r.activity.disamb_broadcasts * 4);
    }

    #[test]
    fn memory_bound_app_is_slower() {
        let fast = Simulator::new(
            ProcessorConfig::hpca05_baseline(),
            AppProfile::by_name("crafty").unwrap(),
            3,
        )
        .run(200_000);
        let slow = Simulator::new(
            ProcessorConfig::hpca05_baseline(),
            AppProfile::by_name("mcf").unwrap(),
            3,
        )
        .run(200_000);
        assert!(
            slow.ipc < fast.ipc,
            "mcf ({}) should be slower than crafty ({})",
            slow.ipc,
            fast.ipc
        );
    }

    #[test]
    fn fetch_gate_slows_the_run() {
        let free = baseline_sim().run(40_000);
        let mut gated_sim = baseline_sim();
        gated_sim.set_fetch_gate(Some(FetchGate { open: 1, period: 4 }));
        let gated = gated_sim.run(40_000);
        assert!(
            gated.cycles > free.cycles,
            "quarter-duty fetch must cost cycles: {} vs {}",
            gated.cycles,
            free.cycles
        );
        // Removing the gate restores nominal timing for fresh runs.
        gated_sim.set_fetch_gate(None);
        assert_eq!(gated_sim.fetch_gate(), None);
    }

    #[test]
    fn full_duty_gate_is_identical_to_no_gate() {
        let free = baseline_sim().run(30_000);
        let mut sim = baseline_sim();
        sim.set_fetch_gate(Some(FetchGate { open: 3, period: 3 }));
        assert_eq!(sim.run(30_000), free);
    }

    #[test]
    #[should_panic(expected = "bad fetch gate")]
    fn inverted_duty_cycle_rejected() {
        baseline_sim().set_fetch_gate(Some(FetchGate { open: 5, period: 2 }));
    }

    #[test]
    fn clock_scale_shrinks_uncore_latency() {
        // A slowed core domain sees the fixed-speed uncore as closer, so a
        // memory-bound run completes in fewer core cycles.
        let mcf = AppProfile::by_name("mcf").unwrap();
        let nominal = Simulator::new(ProcessorConfig::hpca05_baseline(), mcf, 3).run(60_000);
        let mut slow = Simulator::new(ProcessorConfig::hpca05_baseline(), mcf, 3);
        slow.set_clock_scale(0.5);
        let scaled = slow.run(60_000);
        assert!(
            scaled.cycles < nominal.cycles,
            "scaled {} vs nominal {}",
            scaled.cycles,
            nominal.cycles
        );
    }

    #[test]
    fn unit_clock_scale_is_identical() {
        let free = baseline_sim().run(30_000);
        let mut sim = baseline_sim();
        sim.set_clock_scale(1.0);
        assert_eq!(sim.run(30_000), free);
        assert_eq!(sim.clock_scale(), 1.0);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn overclocked_scale_rejected() {
        baseline_sim().set_clock_scale(1.5);
    }

    #[test]
    fn partition_bias_moves_commit_activity() {
        let cfg = ProcessorConfig::distributed_rename_commit();
        let app = AppProfile::test_tiny();
        let mut unbiased = Simulator::new(cfg.clone(), &app, 7);
        let ru = unbiased.step(u64::MAX, 40_000);
        let mut biased = Simulator::new(cfg, &app, 7);
        biased.set_partition_bias(Some(1));
        let rb = biased.step(u64::MAX, 40_000);
        // Partition 1 feeds backends 2 and 3; the bias must shift issue
        // activity (and with it RAT/ROB work) toward that partition.
        let share = |r: &IntervalReport| {
            let hi: u64 = r.activity.backends[2..].iter().map(|b| b.iq_writes).sum();
            let all: u64 = r.activity.backends.iter().map(|b| b.iq_writes).sum();
            hi as f64 / all as f64
        };
        assert!(
            share(&rb) > share(&ru) + 0.1,
            "biased share {} vs unbiased {}",
            share(&rb),
            share(&ru)
        );
        assert!(rb.activity.rat_writes[1] > ru.activity.rat_writes[1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn partition_bias_bounds_checked() {
        baseline_sim().set_partition_bias(Some(1));
    }

    #[test]
    fn clone_is_isolated_from_the_live_run() {
        // Stepping clones (at perturbing operating points!) between live
        // steps must leave the live trajectory bit-identical.
        let mut forked = baseline_sim();
        let mut plain = baseline_sim();
        let mut fork_reports = Vec::new();
        loop {
            let target = forked.current_cycle() + 5_000;
            let mut dvfs = forked.clone();
            dvfs.set_clock_scale(0.7);
            let dvfs = dvfs.step(target, 30_000);
            let mut gated = forked.clone();
            gated.set_fetch_gate(Some(FetchGate { open: 1, period: 2 }));
            let gated = gated.step(target, 30_000);
            assert!(gated.activity.cycles >= dvfs.activity.cycles / 2);
            let live = forked.step(target, 30_000);
            let reference = plain.step(plain.current_cycle() + 5_000, 30_000);
            assert_eq!(live.activity, reference.activity);
            assert_eq!(live.end_cycle, reference.end_cycle);
            fork_reports.push((dvfs, gated));
            if live.done {
                break;
            }
        }
        assert_eq!(forked.total_committed(), plain.total_committed());
        assert!(!fork_reports.is_empty());
    }

    #[test]
    fn commits_monotonic_and_bandwidth_bounded() {
        let mut sim = baseline_sim();
        let stats = sim.run(30_000);
        // Cannot commit faster than commit_width per cycle.
        assert!(stats.cycles >= 30_000 / 8);
    }
}

#[cfg(test)]
mod queue_model_tests {
    use super::*;
    use proptest::prelude::*;

    /// The min-heap of release cycles `ReleaseQueue` replaced, kept as the
    /// reference model.
    #[derive(Default)]
    struct ReferenceHeap {
        heap: BinaryHeap<Reverse<u64>>,
    }

    impl ReferenceHeap {
        fn push(&mut self, release: u64) {
            self.heap.push(Reverse(release));
        }

        fn wait_for_slot(&mut self, cand: &mut u64, capacity: usize) {
            while let Some(&Reverse(r)) = self.heap.peek() {
                if r <= *cand {
                    self.heap.pop();
                } else {
                    break;
                }
            }
            if self.heap.len() >= capacity {
                let Reverse(r) = self.heap.pop().expect("non-empty");
                *cand = (*cand).max(r);
            }
        }

        fn entries(&self) -> Vec<u64> {
            let mut v: Vec<u64> = self.heap.iter().map(|r| r.0).collect();
            v.sort_unstable();
            v
        }
    }

    fn entries(q: &ReleaseQueue) -> Vec<u64> {
        let mut v: Vec<u64> = q.ordered.iter().copied().collect();
        v.extend(q.unordered.iter().map(|r| r.0));
        v.sort_unstable();
        v
    }

    proptest! {
        /// Under random interleavings of in-order pushes, arbitrary
        /// pushes and slot waits at capacities 1-8, the FIFO-plus-heap
        /// queue grants the same cycles as the reference heap and holds
        /// the same release cycles after every operation.
        #[test]
        fn release_queue_matches_the_reference_heap(
            ops in proptest::collection::vec((0u8..3, 0u64..48, 1usize..9), 1..400),
        ) {
            let mut q = ReleaseQueue::default();
            let mut reference = ReferenceHeap::default();
            // In-order pushes never go below `clock`; the other releases
            // and the slot waits land around it, above and below.
            let mut clock = 0u64;
            for &(op, v, capacity) in &ops {
                match op {
                    0 => {
                        clock += v % 4;
                        q.push_in_order(clock);
                        reference.push(clock);
                    }
                    1 => {
                        let release = clock.saturating_sub(16) + v;
                        q.push(release);
                        reference.push(release);
                    }
                    _ => {
                        let start = clock.saturating_sub(16) + v % 32;
                        let (mut got, mut want) = (start, start);
                        q.wait_for_slot(&mut got, capacity);
                        reference.wait_for_slot(&mut want, capacity);
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(entries(&q), reference.entries());
            }
        }
    }

    #[test]
    fn a_full_queue_pops_only_its_least_release() {
        // Over capacity, as a MOB can be after store broadcasts: one wait
        // frees one entry, the least, and leaves the rest.
        let mut q = ReleaseQueue::default();
        for r in [10, 20, 30] {
            q.push_in_order(r);
        }
        q.push(15);
        let mut cand = 5;
        q.wait_for_slot(&mut cand, 2);
        assert_eq!(cand, 10);
        assert_eq!(entries(&q), [15, 20, 30]);
        q.wait_for_slot(&mut cand, 2);
        assert_eq!(cand, 15);
        assert_eq!(entries(&q), [20, 30]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of order")]
    fn an_out_of_order_push_in_order_is_caught() {
        let mut q = ReleaseQueue::default();
        q.push_in_order(7);
        q.push_in_order(6);
    }
}
