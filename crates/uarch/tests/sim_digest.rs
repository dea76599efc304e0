//! Bit-identity pin of the timing simulator.
//!
//! Runs every SPEC2000 profile under the baseline, the distributed
//! configuration, and the distributed one with register files small
//! enough to stall renaming. Each run goes in short intervals, cycling
//! the DTM hooks (clock scale 0.7, fetch gate 1/2, partition bias) from
//! one interval to the next and stepping a clone one interval at the next
//! operating point at each boundary. Every `IntervalReport` — flattened counters, `end_cycle`,
//! `total_committed` — and the final `RunStats` are folded into one
//! FNV-1a digest, compared with a committed constant. A change to the
//! simulator's arithmetic, its tie-breaks or the commits that free
//! registers moves the digest; a rewrite of the hot path must leave it
//! unchanged.
//!
//! A second digest pins a machine whose issue queues and MOB are so small
//! that they are full on most micro-ops, so the path that waits for the
//! oldest entry to leave a full structure sets the timing there.

use distfront_trace::AppProfile;
use distfront_uarch::record::flatten_into;
use distfront_uarch::{FetchGate, IntervalReport, ProcessorConfig, RunStats, Simulator};

/// Micro-ops per application and configuration.
const UOPS: u64 = 20_000;
/// Cycle length of one interval.
const INTERVAL_CYCLES: u64 = 2_000;
/// Digest of the whole run set; see the module docs.
const GOLDEN_DIGEST: u64 = 0xd2ad_d05e_7e3b_4d8e;
/// Digest of the tight-queue machine; see the module docs.
const TIGHT_QUEUE_DIGEST: u64 = 0xe675_aab5_69dc_3a82;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn report(&mut self, r: &IntervalReport, scratch: &mut Vec<u64>) {
        scratch.clear();
        flatten_into(&r.activity, scratch);
        self.word(scratch.len() as u64);
        for &w in scratch.iter() {
            self.word(w);
        }
        self.word(r.end_cycle);
        self.word(r.total_committed);
        self.word(u64::from(r.done));
    }

    fn stats(&mut self, s: &RunStats) {
        self.word(s.committed_uops);
        self.word(s.cycles);
        self.word(s.ipc.to_bits());
        self.word(s.mispredict_rate.to_bits());
        self.word(s.tc_hit_rate.to_bits());
    }
}

/// Sets the live DTM hooks for interval `i`: nominal, clock-scaled,
/// fetch-gated, then partition-biased, in turn.
fn operating_point(sim: &mut Simulator, i: usize) {
    let partitions = sim.config().frontend_mode.partitions();
    sim.set_clock_scale(if i % 4 == 1 { 0.7 } else { 1.0 });
    sim.set_fetch_gate((i % 4 == 2).then_some(FetchGate { open: 1, period: 2 }));
    sim.set_partition_bias((i % 4 == 3).then_some((i / 4) % partitions));
}

fn digest_app(cfg: &ProcessorConfig, app: &AppProfile, seed: u64, h: &mut Fnv) {
    let mut sim = Simulator::new(cfg.clone(), app, seed);
    let mut scratch = Vec::new();
    let mut i = 0;
    loop {
        operating_point(&mut sim, i);
        let target = sim.current_cycle() + INTERVAL_CYCLES;
        let mut fork = sim.clone();
        operating_point(&mut fork, i + 1);
        h.report(&fork.step(target, UOPS), &mut scratch);
        let live = sim.step(target, UOPS);
        h.report(&live, &mut scratch);
        i += 1;
        if live.done {
            break;
        }
    }
    h.stats(&sim.run(0));
}

/// Digests 26 SPEC2000 apps on each machine of `cfgs`, in order.
fn digest_machines(cfgs: &[ProcessorConfig]) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for cfg in cfgs {
        for (k, app) in AppProfile::spec2000().iter().enumerate() {
            digest_app(cfg, app, 17 + k as u64, &mut h);
        }
    }
    h.0
}

#[test]
fn simulator_digest_is_pinned() {
    // The paper's register files never run dry; the third machine's do,
    // so renaming stalls on commits and each commit's release set sets
    // the timing.
    let starved = ProcessorConfig {
        int_regs: 40,
        fp_regs: 40,
        ..ProcessorConfig::distributed_rename_commit()
    };
    let digest = digest_machines(&[
        ProcessorConfig::hpca05_baseline(),
        ProcessorConfig::distributed_rename_commit(),
        starved,
    ]);
    assert_eq!(
        digest, GOLDEN_DIGEST,
        "simulator results moved: digest {digest:#018x}"
    );
}

#[test]
fn tight_queue_digest_is_pinned() {
    // 4-entry int/fp/copy queues and a 6-entry MOB: a dispatch finds its
    // queue full most of the time, and store broadcasts fill every MOB.
    let tight = ProcessorConfig {
        int_queue: 4,
        fp_queue: 4,
        copy_queue: 4,
        mem_queue: 6,
        ..ProcessorConfig::distributed_rename_commit()
    };
    let digest = digest_machines(&[tight]);
    assert_eq!(
        digest, TIGHT_QUEUE_DIGEST,
        "tight-queue results moved: digest {digest:#018x}"
    );
}
