//! The sub-banked, thermally-managed trace cache (§3.2).
//!
//! The trace cache stores *traces* — sequences of up to 16 micro-ops keyed
//! by the PC of their first micro-op plus the directions of the branches
//! inside the trace. It is split into banks with non-overlapping contents;
//! a mapping function ([`crate::mapping`]) selects the bank for each trace.
//!
//! Two thermal mechanisms are modelled:
//!
//! * **Bank hopping** (§3.2.1): one extra physical bank is added and exactly
//!   one bank is Vdd-gated at any time. [`TraceCache::hop`] rotates the
//!   gated bank; the newly gated bank loses its contents and its mapping
//!   entries are retargeted at the newly enabled (empty) bank.
//! * **Thermal-aware mapping** (§3.2.2): [`TraceCache::rebalance`] rebuilds
//!   the mapping table from per-bank temperatures so colder banks receive
//!   more of the 32 address combinations.

use crate::mapping::{combination, BankMapTable, MappingPolicy};
use crate::set_assoc::{Geometry, SetAssocCache};
use crate::stats::CacheStats;

/// Identity of a cached trace: start PC plus branch-direction bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// PC of the first micro-op of the trace.
    pub start_pc: u64,
    /// Directions of the (up to three) branches inside the trace.
    pub branch_bits: u8,
}

impl TraceKey {
    /// Creates a trace key.
    pub fn new(start_pc: u64, branch_bits: u8) -> Self {
        TraceKey {
            start_pc,
            branch_bits,
        }
    }

    /// Five-bit mapping combination for this key.
    pub fn combination(self) -> usize {
        combination(self.start_pc, self.branch_bits)
    }

    fn storage_addr(self) -> u64 {
        // PCs are 16-byte aligned; branch bits live in the high bits so
        // distinct keys can never alias. The odd-constant multiply is a
        // bijection on u64 that spreads consecutive trace starts across the
        // bank's sets (trace starts are sparse and strided, so indexing on
        // raw PC bits would leave most sets cold).
        let raw = (self.start_pc >> 4) | (u64::from(self.branch_bits) << 48);
        // SplitMix64 finalizer: xor-shifts fold high bits back into the low
        // (set-index) bits, unlike a bare multiply which only carries upward.
        let mut z = raw;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Static configuration of the trace cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceCacheConfig {
    /// Total effective capacity in micro-ops (Table 1: 32 K).
    pub total_uops: u32,
    /// Micro-ops per trace line.
    pub line_uops: u32,
    /// Associativity of each bank.
    pub ways: usize,
    /// Number of *logical* (simultaneously enabled) banks.
    pub logical_banks: usize,
    /// If `true`, one extra physical bank exists and one bank is always
    /// gated ([`TraceCache::hop`] rotates it).
    pub hopping: bool,
    /// If `true`, [`TraceCache::rebalance`] applies the thermal bias;
    /// otherwise it restores a balanced table.
    pub biased: bool,
    /// Bias rule parameters.
    pub policy: MappingPolicy,
}

impl TraceCacheConfig {
    /// The paper's baseline: 32 K micro-ops, 4-way, two banks, no thermal
    /// management.
    pub fn baseline_two_banks() -> Self {
        TraceCacheConfig {
            total_uops: 32 * 1024,
            line_uops: 16,
            ways: 4,
            logical_banks: 2,
            hopping: false,
            biased: false,
            policy: MappingPolicy::paper(),
        }
    }

    /// Baseline plus the thermal-aware biased mapping (AB in Fig. 13).
    pub fn address_biasing() -> Self {
        TraceCacheConfig {
            biased: true,
            ..Self::baseline_two_banks()
        }
    }

    /// Two logical banks plus the hopping spare (BH in Fig. 13).
    pub fn bank_hopping() -> Self {
        TraceCacheConfig {
            hopping: true,
            ..Self::baseline_two_banks()
        }
    }

    /// Hopping and biased mapping combined (BH+AB in Fig. 13).
    pub fn hopping_and_biasing() -> Self {
        TraceCacheConfig {
            hopping: true,
            biased: true,
            ..Self::baseline_two_banks()
        }
    }

    /// Number of physical banks (logical plus the hopping spare).
    pub fn physical_banks(&self) -> usize {
        self.logical_banks + usize::from(self.hopping)
    }

    /// Capacity of one bank in trace lines.
    pub fn lines_per_bank(&self) -> usize {
        (self.total_uops / self.line_uops) as usize / self.logical_banks
    }
}

/// The banked trace cache.
#[derive(Debug, Clone)]
pub struct TraceCache {
    config: TraceCacheConfig,
    banks: Vec<SetAssocCache>,
    map: BankMapTable,
    /// Currently Vdd-gated physical bank (`None` when not hopping).
    gated: Option<usize>,
    /// Per-physical-bank access counts since the last `take_bank_accesses`.
    accesses: Vec<u64>,
    /// Total hops performed.
    hops: u64,
}

impl TraceCache {
    /// Creates the trace cache described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero banks, capacity smaller
    /// than one set per bank, non-power-of-two set counts).
    pub fn new(config: TraceCacheConfig) -> Self {
        assert!(config.logical_banks > 0, "need at least one bank");
        let physical = config.physical_banks();
        let lines = config.lines_per_bank();
        assert!(lines >= config.ways, "bank smaller than one set");
        // Model each trace line as one "byte" so the generic cache's
        // geometry machinery applies directly.
        let geo = Geometry::from_capacity(lines as u64, config.ways, 1);
        let banks = vec![SetAssocCache::new(geo); physical];
        let gated = config.hopping.then_some(physical - 1);
        let enabled: Vec<usize> = (0..physical).filter(|&b| Some(b) != gated).collect();
        TraceCache {
            config,
            banks,
            map: BankMapTable::balanced(&enabled),
            gated,
            accesses: vec![0; physical],
            hops: 0,
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &TraceCacheConfig {
        &self.config
    }

    /// The physical bank a key currently maps to.
    pub fn bank_of(&self, key: TraceKey) -> usize {
        self.map.bank_for(key.combination())
    }

    /// Looks up a trace; returns `true` on hit. Counts one access on the
    /// target bank.
    pub fn lookup(&mut self, key: TraceKey) -> bool {
        let bank = self.bank_of(key);
        debug_assert_ne!(Some(bank), self.gated, "mapped to a gated bank");
        self.accesses[bank] += 1;
        self.banks[bank].access(key.storage_addr()).is_hit()
    }

    /// Inserts a trace after a miss (counts the fill on the target bank).
    pub fn insert(&mut self, key: TraceKey) {
        let bank = self.bank_of(key);
        debug_assert_ne!(Some(bank), self.gated, "mapped to a gated bank");
        self.banks[bank].fill(key.storage_addr());
    }

    /// Rotates the gated bank (no-op unless hopping is enabled).
    ///
    /// The next bank in sequence is gated — losing its contents — and the
    /// previously gated (empty) bank takes over its mapping entries.
    pub fn hop(&mut self) {
        let Some(old_gated) = self.gated else {
            return;
        };
        let physical = self.banks.len();
        let new_gated = (old_gated + 1) % physical;
        self.map.retarget(new_gated, old_gated);
        self.banks[new_gated].invalidate_all();
        self.gated = Some(new_gated);
        self.hops += 1;
    }

    /// Rebuilds the mapping table from per-physical-bank temperatures.
    ///
    /// With `biased` configured, colder banks receive larger shares; without
    /// it the table is reset to balanced over the enabled banks (so a
    /// hopping-only cache stays balanced as it rotates).
    ///
    /// # Panics
    ///
    /// Panics if `temps_c` does not have one entry per physical bank.
    pub fn rebalance(&mut self, temps_c: &[f64]) {
        assert_eq!(temps_c.len(), self.banks.len(), "one temperature per bank");
        let enabled = self.enabled_banks();
        if self.config.biased {
            let temps: Vec<f64> = enabled.iter().map(|&b| temps_c[b]).collect();
            self.map = BankMapTable::biased(&enabled, &temps, self.config.policy);
        } else {
            self.map = BankMapTable::balanced(&enabled);
        }
    }

    /// Physical banks currently powered on.
    pub fn enabled_banks(&self) -> Vec<usize> {
        (0..self.banks.len())
            .filter(|&b| Some(b) != self.gated)
            .collect()
    }

    /// The currently gated bank, if hopping.
    pub fn gated_bank(&self) -> Option<usize> {
        self.gated
    }

    /// Number of hops performed so far.
    pub fn hops(&self) -> u64 {
        self.hops
    }

    /// Per-physical-bank access counts since the last
    /// [`take_bank_accesses`](Self::take_bank_accesses), left in place.
    pub fn bank_accesses(&self) -> &[u64] {
        &self.accesses
    }

    /// Per-physical-bank access counts since the last call, resetting them.
    pub fn take_bank_accesses(&mut self) -> Vec<u64> {
        let out = self.accesses.clone();
        self.accesses.iter_mut().for_each(|a| *a = 0);
        out
    }

    /// Mapping-table share of each physical bank (gated banks report 0).
    pub fn bank_shares(&self) -> Vec<usize> {
        (0..self.banks.len())
            .map(|b| self.map.share_of(b))
            .collect()
    }

    /// Aggregate statistics over all banks.
    pub fn stats(&self) -> CacheStats {
        let mut s = CacheStats::new();
        for b in &self.banks {
            s.merge(&b.stats());
        }
        s
    }

    /// Statistics of one physical bank.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn bank_stats(&self, bank: usize) -> CacheStats {
        self.banks[bank].stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64) -> impl Iterator<Item = TraceKey> {
        (0..n).map(|i| TraceKey::new(0x40_0000 + i * 16 * 16, (i % 8) as u8))
    }

    #[test]
    fn baseline_geometry() {
        let tc = TraceCache::new(TraceCacheConfig::baseline_two_banks());
        assert_eq!(tc.banks.len(), 2);
        assert_eq!(tc.config().lines_per_bank(), 1024);
        assert_eq!(tc.gated_bank(), None);
    }

    #[test]
    fn hopping_adds_spare_bank() {
        let tc = TraceCache::new(TraceCacheConfig::bank_hopping());
        assert_eq!(tc.banks.len(), 3);
        assert_eq!(tc.gated_bank(), Some(2));
        assert_eq!(tc.enabled_banks(), vec![0, 1]);
    }

    #[test]
    fn miss_insert_hit() {
        let mut tc = TraceCache::new(TraceCacheConfig::baseline_two_banks());
        let k = TraceKey::new(0x40_1000, 3);
        assert!(!tc.lookup(k));
        tc.insert(k);
        assert!(tc.lookup(k));
    }

    #[test]
    fn distinct_branch_bits_are_distinct_traces() {
        let mut tc = TraceCache::new(TraceCacheConfig::baseline_two_banks());
        let a = TraceKey::new(0x40_1000, 0);
        let b = TraceKey::new(0x40_1000, 1);
        tc.insert(a);
        assert!(!tc.lookup(b));
    }

    #[test]
    fn accesses_spread_across_banks() {
        let mut tc = TraceCache::new(TraceCacheConfig::baseline_two_banks());
        for k in keys(512) {
            tc.lookup(k);
        }
        let acc = tc.take_bank_accesses();
        assert_eq!(acc.iter().sum::<u64>(), 512);
        for (b, &a) in acc.iter().enumerate() {
            assert!(a > 128, "bank {b} starved: {a}");
        }
        // Counters reset after take.
        assert_eq!(tc.take_bank_accesses(), vec![0, 0]);
    }

    #[test]
    fn gated_bank_never_accessed() {
        let mut tc = TraceCache::new(TraceCacheConfig::bank_hopping());
        for k in keys(512) {
            tc.lookup(k);
            tc.insert(k);
        }
        let acc = tc.take_bank_accesses();
        assert_eq!(acc[2], 0, "gated bank was accessed");
    }

    #[test]
    fn hop_rotates_and_invalidates() {
        let mut tc = TraceCache::new(TraceCacheConfig::bank_hopping());
        // Fill with traces.
        let all: Vec<_> = keys(256).collect();
        for &k in &all {
            tc.insert(k);
        }
        let hits_before: usize = all.iter().filter(|&&k| tc.lookup(k)).count();
        assert!(hits_before > 200);

        tc.hop();
        assert_eq!(tc.gated_bank(), Some(0));
        assert_eq!(tc.enabled_banks(), vec![1, 2]);
        // Bank 0's traces are unreachable, bank 2 is empty: some misses.
        let hits_after: usize = all.iter().filter(|&&k| tc.lookup(k)).count();
        assert!(hits_after < hits_before);
        // Everything still maps to enabled banks.
        for &k in &all {
            assert_ne!(Some(tc.bank_of(k)), tc.gated_bank());
        }
    }

    #[test]
    fn full_rotation_returns_to_start() {
        let mut tc = TraceCache::new(TraceCacheConfig::bank_hopping());
        let first = tc.gated_bank();
        for _ in 0..3 {
            tc.hop();
        }
        assert_eq!(tc.gated_bank(), first);
        assert_eq!(tc.hops(), 3);
    }

    #[test]
    fn hop_without_hopping_is_noop() {
        let mut tc = TraceCache::new(TraceCacheConfig::baseline_two_banks());
        tc.hop();
        assert_eq!(tc.hops(), 0);
        assert_eq!(tc.gated_bank(), None);
    }

    #[test]
    fn rebalance_biased_shifts_shares() {
        let mut tc = TraceCache::new(TraceCacheConfig::address_biasing());
        tc.rebalance(&[60.0, 72.0]);
        let shares = tc.bank_shares();
        assert!(shares[0] > shares[1], "shares {shares:?}");
        assert_eq!(shares.iter().sum::<usize>(), 32);
    }

    #[test]
    fn rebalance_unbiased_restores_balance() {
        let mut tc = TraceCache::new(TraceCacheConfig::bank_hopping());
        tc.hop();
        tc.rebalance(&[70.0, 90.0, 50.0]);
        let shares = tc.bank_shares();
        assert_eq!(shares[0], 0, "gated bank holds share");
        assert_eq!(shares[1], 16);
        assert_eq!(shares[2], 16);
    }

    #[test]
    fn biased_hopping_respects_gating() {
        let mut tc = TraceCache::new(TraceCacheConfig::hopping_and_biasing());
        tc.rebalance(&[80.0, 60.0, 45.0]);
        let shares = tc.bank_shares();
        assert_eq!(shares[2], 0, "gated bank got entries");
        assert!(shares[1] > shares[0]);
    }

    #[test]
    #[should_panic(expected = "one temperature per bank")]
    fn rebalance_wrong_arity_panics() {
        let mut tc = TraceCache::new(TraceCacheConfig::baseline_two_banks());
        tc.rebalance(&[70.0]);
    }

    #[test]
    fn stats_aggregate() {
        let mut tc = TraceCache::new(TraceCacheConfig::baseline_two_banks());
        for k in keys(64) {
            if !tc.lookup(k) {
                tc.insert(k);
            }
            tc.lookup(k);
        }
        let s = tc.stats();
        assert_eq!(s.accesses, 128);
        assert!(s.hits >= 64);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Whatever sequence of lookups, inserts, hops and rebalances we
        /// apply: no access ever lands on the gated bank and shares always
        /// sum to 32 over enabled banks.
        #[test]
        fn thermal_ops_never_break_mapping(
            ops in proptest::collection::vec(0u8..4, 1..200),
            pcs in proptest::collection::vec(0u64..1_000_000u64, 1..200),
        ) {
            let mut tc = TraceCache::new(TraceCacheConfig::hopping_and_biasing());
            for (i, op) in ops.iter().enumerate() {
                let key = TraceKey::new(0x40_0000 + pcs[i % pcs.len()] * 16, (i % 8) as u8);
                match op {
                    0 => { tc.lookup(key); }
                    1 => { tc.insert(key); }
                    2 => tc.hop(),
                    _ => tc.rebalance(&[60.0 + i as f64 % 20.0, 70.0, 65.0]),
                }
                let gated = tc.gated_bank().expect("hopping config");
                prop_assert_eq!(tc.bank_shares()[gated], 0);
                prop_assert_eq!(tc.bank_shares().iter().sum::<usize>(), 32);
                prop_assert_ne!(tc.bank_of(key), gated);
            }
            let acc = tc.take_bank_accesses();
            prop_assert!(acc.len() == 3);
        }
    }
}
