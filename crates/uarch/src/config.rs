//! Processor configuration (Table 1 of the paper).
//!
//! [`ProcessorConfig::hpca05_baseline`] reproduces the paper's baseline: an
//! 8-wide frontend feeding four backend clusters, each with its own issue
//! queues, register files, memory order buffer and L1 data cache, connected
//! by bidirectional point-to-point links and shared memory/disambiguation
//! buses.

use crate::rename::RenameUnit;
use crate::steer::SteeringPolicy;
use distfront_cache::l1d::L1Config;
use distfront_cache::trace_cache::TraceCacheConfig;
use distfront_cache::ul2::Ul2Config;
use distfront_trace::uop::NUM_ARCH_REGS;

/// How the rename/commit logic is organized (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontendMode {
    /// Monolithic rename table and reorder buffer (the baseline).
    Centralized,
    /// RAT and ROB split across `frontends` partitions, each feeding
    /// `backends / frontends` backend clusters.
    Distributed {
        /// Number of frontend partitions (the paper evaluates 2).
        frontends: usize,
    },
}

impl FrontendMode {
    /// Number of frontend partitions.
    pub fn partitions(self) -> usize {
        match self {
            FrontendMode::Centralized => 1,
            FrontendMode::Distributed { frontends } => frontends,
        }
    }

    /// `true` for [`FrontendMode::Distributed`].
    pub fn is_distributed(self) -> bool {
        matches!(self, FrontendMode::Distributed { .. })
    }
}

/// Complete static configuration of the simulated processor.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorConfig {
    /// Micro-ops fetched per cycle (Table 1: 8).
    pub fetch_width: u32,
    /// Micro-ops dispatched per cycle (Table 1: 8).
    pub dispatch_width: u32,
    /// Micro-ops committed per cycle (Table 1: 8).
    pub commit_width: u32,
    /// Trace-cache fetch-to-dispatch latency in cycles (Table 1: 4).
    pub fetch_to_dispatch: u32,
    /// Decode + rename + steer pipeline length in cycles (Table 1: 8).
    pub decode_rename_steer: u32,
    /// Dispatch latency into a backend in cycles (Table 1: 10).
    pub dispatch_latency: u32,
    /// Number of backend clusters (the paper's baseline: 4).
    pub backends: usize,
    /// Frontend organization under evaluation.
    pub frontend_mode: FrontendMode,
    /// Extra commit latency for the distributed reorder buffer (§3.1.2
    /// adds 1 cycle; 0 for the centralized baseline).
    pub distributed_commit_penalty: u32,
    /// Total reorder-buffer capacity in micro-ops (split evenly across
    /// partitions when distributed).
    pub rob_entries: usize,
    /// Integer issue-queue entries per backend (Table 1: 40).
    pub int_queue: usize,
    /// Floating-point issue-queue entries per backend (Table 1: 40).
    pub fp_queue: usize,
    /// Copy issue-queue entries per backend (Table 1: 40).
    pub copy_queue: usize,
    /// Memory order buffer entries per backend (Table 1: 96).
    pub mem_queue: usize,
    /// Issue bandwidth per queue per backend in micro-ops/cycle (Table 1:
    /// 1). The simulator issues exactly one micro-op per queue per cycle,
    /// so [`validate`](Self::validate) accepts no other value; the field
    /// records the Table 1 parameter (and is part of the `Debug` rendering
    /// replay fingerprints hash).
    pub issue_per_queue: u32,
    /// Integer physical registers per backend (Table 1: 160).
    pub int_regs: usize,
    /// Floating-point physical registers per backend (Table 1: 160).
    pub fp_regs: usize,
    /// Point-to-point link latency per hop in cycles (Table 1: 1).
    pub hop_latency: u32,
    /// Memory/disambiguation bus latency in cycles (Table 1: 4 + 1 arbiter).
    pub bus_latency: u32,
    /// Number of memory buses (Table 1: 2).
    pub memory_buses: usize,
    /// Trace-cache configuration.
    pub trace_cache: TraceCacheConfig,
    /// Per-cluster L1 data-cache configuration.
    pub l1d: L1Config,
    /// Unified L2 configuration.
    pub ul2: Ul2Config,
    /// Clock frequency in Hz (the paper assumes 10 GHz at 65 nm).
    pub frequency_hz: f64,
    /// Steering heuristic for the dispatch stage.
    pub steering: SteeringPolicy,
}

impl ProcessorConfig {
    /// The paper's baseline configuration (Table 1): quad-cluster backend,
    /// centralized rename/commit, two-banked trace cache with no thermal
    /// management.
    pub fn hpca05_baseline() -> Self {
        ProcessorConfig {
            fetch_width: 8,
            dispatch_width: 8,
            commit_width: 8,
            fetch_to_dispatch: 4,
            decode_rename_steer: 8,
            dispatch_latency: 10,
            backends: 4,
            frontend_mode: FrontendMode::Centralized,
            distributed_commit_penalty: 0,
            rob_entries: 256,
            int_queue: 40,
            fp_queue: 40,
            copy_queue: 40,
            mem_queue: 96,
            issue_per_queue: 1,
            int_regs: 160,
            fp_regs: 160,
            hop_latency: 1,
            bus_latency: 5, // 4-cycle bus + 1-cycle arbiter
            memory_buses: 2,
            trace_cache: TraceCacheConfig::baseline_two_banks(),
            l1d: L1Config::table1(),
            ul2: Ul2Config::table1(),
            frequency_hz: 10e9,
            steering: SteeringPolicy::DependenceBalance,
        }
    }

    /// Baseline with the distributed rename/commit technique enabled
    /// (bi-clustered frontend, quad-clustered backend, +1 commit cycle).
    pub fn distributed_rename_commit() -> Self {
        ProcessorConfig {
            frontend_mode: FrontendMode::Distributed { frontends: 2 },
            distributed_commit_penalty: 1,
            ..Self::hpca05_baseline()
        }
    }

    /// Backends fed by each frontend partition.
    pub fn backends_per_frontend(&self) -> usize {
        self.backends / self.frontend_mode.partitions()
    }

    /// The frontend partition feeding backend `backend`.
    ///
    /// With the Fig. 3 organization, frontend 0 feeds backends 0 and 1 and
    /// frontend 1 feeds backends 2 and 3.
    pub fn frontend_of(&self, backend: usize) -> usize {
        backend / self.backends_per_frontend()
    }

    /// Reorder-buffer entries per partition.
    pub fn rob_per_partition(&self) -> usize {
        self.rob_entries / self.frontend_mode.partitions()
    }

    /// Mispredict redirect penalty: the front pipeline must refill.
    pub fn mispredict_penalty(&self) -> u32 {
        self.fetch_to_dispatch + self.decode_rename_steer
    }

    /// Hop distance between two backends on the bidirectional point-to-point
    /// link (Table 1: 1 cycle per hop, 2 from side to side of the chip).
    pub fn hops_between(&self, a: usize, b: usize) -> u32 {
        // Clusters sit in a row pairwise: |0 1 2 3|, bidirectional link.
        let dist = a.abs_diff(b) as u32;
        // Side-to-side (0 <-> 3) costs 2 per Table 1.
        dist.min(2) * self.hop_latency
    }

    /// Validates structural invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant, e.g. a
    /// backend count that is not divisible by the frontend count.
    pub fn validate(&self) -> Result<(), String> {
        if self.backends == 0 {
            return Err("no backend clusters".into());
        }
        if self.backends > RenameUnit::MAX_BACKENDS {
            return Err(format!(
                "{} backends exceed the {}-backend availability mask",
                self.backends,
                RenameUnit::MAX_BACKENDS
            ));
        }
        let parts = self.frontend_mode.partitions();
        if parts == 0 {
            return Err("no frontend partitions".into());
        }
        if !self.backends.is_multiple_of(parts) {
            return Err(format!(
                "{} backends not divisible by {parts} frontends",
                self.backends
            ));
        }
        if !self.rob_entries.is_multiple_of(parts) {
            return Err(format!(
                "{} ROB entries not divisible by {parts} partitions",
                self.rob_entries
            ));
        }
        if self.rob_entries < parts {
            return Err(format!(
                "{} ROB entries cannot give each of {parts} partitions one",
                self.rob_entries
            ));
        }
        for (name, entries) in [
            ("int queue", self.int_queue),
            ("fp queue", self.fp_queue),
            ("copy queue", self.copy_queue),
            ("MOB", self.mem_queue),
        ] {
            if entries == 0 {
                return Err(format!("{name} has no entries"));
            }
        }
        if self.memory_buses == 0 {
            return Err("no memory buses".into());
        }
        if self.issue_per_queue != 1 {
            return Err(format!(
                "issue_per_queue {} is not modelled: the simulator issues one \
                 micro-op per queue per cycle",
                self.issue_per_queue
            ));
        }
        // A drained ROB leaves a backend holding at most one register per
        // logical register of a class. Two more let any micro-op rename
        // then, with the rename pre-check's double count of a repeated
        // remote source (see `crate::rename`), so the simulator's stall
        // loop always ends.
        let floor = usize::from(NUM_ARCH_REGS) / 2 + 2;
        for (name, regs) in [("int", self.int_regs), ("fp", self.fp_regs)] {
            if regs < floor {
                return Err(format!(
                    "{regs} {name} registers are fewer than {floor}: the \
                     architectural ones and two to rename into"
                ));
            }
        }
        if self.fetch_width == 0 || self.dispatch_width == 0 || self.commit_width == 0 {
            return Err("pipeline widths must be positive".into());
        }
        if self.frequency_hz <= 0.0 {
            return Err("frequency must be positive".into());
        }
        Ok(())
    }
}

impl Default for ProcessorConfig {
    fn default() -> Self {
        Self::hpca05_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table1() {
        let c = ProcessorConfig::hpca05_baseline();
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.backends, 4);
        assert_eq!(c.int_queue, 40);
        assert_eq!(c.mem_queue, 96);
        assert_eq!(c.int_regs, 160);
        assert_eq!(c.trace_cache.total_uops, 32 * 1024);
        assert_eq!(c.ul2.hit_latency, 12);
        assert_eq!(c.l1d.capacity, 16 << 10);
        c.validate().unwrap();
    }

    #[test]
    fn distributed_config() {
        let c = ProcessorConfig::distributed_rename_commit();
        assert_eq!(c.frontend_mode.partitions(), 2);
        assert_eq!(c.backends_per_frontend(), 2);
        assert_eq!(c.distributed_commit_penalty, 1);
        assert_eq!(c.rob_per_partition(), 128);
        c.validate().unwrap();
    }

    #[test]
    fn frontend_of_fig3_layout() {
        let c = ProcessorConfig::distributed_rename_commit();
        assert_eq!(c.frontend_of(0), 0);
        assert_eq!(c.frontend_of(1), 0);
        assert_eq!(c.frontend_of(2), 1);
        assert_eq!(c.frontend_of(3), 1);
    }

    #[test]
    fn centralized_has_one_partition() {
        let c = ProcessorConfig::hpca05_baseline();
        assert_eq!(c.frontend_mode.partitions(), 1);
        assert!(!c.frontend_mode.is_distributed());
        for b in 0..4 {
            assert_eq!(c.frontend_of(b), 0);
        }
    }

    #[test]
    fn hops_clamped_side_to_side() {
        let c = ProcessorConfig::hpca05_baseline();
        assert_eq!(c.hops_between(0, 0), 0);
        assert_eq!(c.hops_between(0, 1), 1);
        assert_eq!(c.hops_between(1, 3), 2);
        assert_eq!(c.hops_between(0, 3), 2, "side-to-side costs 2");
        assert_eq!(c.hops_between(3, 0), 2, "link is bidirectional");
    }

    #[test]
    fn validate_catches_bad_partitioning() {
        let mut c = ProcessorConfig::hpca05_baseline();
        c.frontend_mode = FrontendMode::Distributed { frontends: 3 };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_backends_beyond_the_availability_mask() {
        let mut c = ProcessorConfig::hpca05_baseline();
        c.backends = 31;
        c.validate().unwrap();
        for backends in [32, 33, 64] {
            c.backends = backends;
            let err = c.validate().unwrap_err();
            assert!(err.contains("availability mask"), "{err}");
        }
    }

    /// `validate` rejects the baseline changed by `edit`, with an error
    /// containing `needle`.
    fn assert_rejected(edit: impl FnOnce(&mut ProcessorConfig), needle: &str) {
        let mut c = ProcessorConfig::hpca05_baseline();
        edit(&mut c);
        let err = c.validate().unwrap_err();
        assert!(err.contains(needle), "{err}");
    }

    #[test]
    fn validate_rejects_an_empty_issue_queue_or_mob() {
        assert_rejected(|c| c.int_queue = 0, "int queue");
        assert_rejected(|c| c.fp_queue = 0, "fp queue");
        assert_rejected(|c| c.copy_queue = 0, "copy queue");
        assert_rejected(|c| c.mem_queue = 0, "MOB");
        let mut c = ProcessorConfig::hpca05_baseline();
        (c.int_queue, c.fp_queue, c.copy_queue, c.mem_queue) = (1, 1, 1, 1);
        c.validate().unwrap();
    }

    #[test]
    fn validate_rejects_an_unmodelled_issue_bandwidth() {
        assert_rejected(|c| c.issue_per_queue = 0, "issue_per_queue 0");
        assert_rejected(|c| c.issue_per_queue = 2, "issue_per_queue 2");
        ProcessorConfig::hpca05_baseline().validate().unwrap();
    }

    #[test]
    fn validate_rejects_no_memory_buses() {
        assert_rejected(|c| c.memory_buses = 0, "memory buses");
    }

    #[test]
    fn validate_rejects_an_empty_rob_partition() {
        assert_rejected(|c| c.rob_entries = 0, "ROB entries");
        let mut c = ProcessorConfig::distributed_rename_commit();
        c.rob_entries = 2;
        c.validate().unwrap();
        c.rob_entries = 0;
        assert!(c.validate().unwrap_err().contains("ROB entries"));
    }

    #[test]
    fn validate_rejects_register_files_below_the_drained_rob_floor() {
        assert_rejected(|c| c.int_regs = 8, "int registers");
        assert_rejected(|c| c.int_regs = 32, "int registers");
        assert_rejected(|c| c.fp_regs = 32, "fp registers");
        // 33 has a free register, but a drained ROB can still refuse a
        // micro-op reading one remote register twice.
        assert_rejected(|c| c.int_regs = 33, "int registers");
        assert_rejected(|c| c.fp_regs = 33, "fp registers");
        let mut c = ProcessorConfig::hpca05_baseline();
        (c.int_regs, c.fp_regs) = (34, 34);
        c.validate().unwrap();
        RenameUnit::new(c.backends, 1, c.int_regs, c.fp_regs);
    }

    #[test]
    fn mispredict_penalty_is_front_pipeline() {
        let c = ProcessorConfig::hpca05_baseline();
        assert_eq!(c.mispredict_penalty(), 12);
    }
}
