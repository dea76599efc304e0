//! The per-micro-op activity increments [`UopTally`](super::UopTally)
//! replaced, kept as the reference its folded counters are checked
//! against.
//!
//! [`count_per_uop`] is the simulator's old bookkeeping: about ten counter
//! increments for every micro-op, at the point it was processed. Test
//! builds of the simulator apply it to a shadow set of counters next to
//! the tally; the check below closes and reads intervals and asserts that
//! the counters the simulator reports equal what the old increments give.

use distfront_trace::profile::AppProfile;
use distfront_trace::uop::{MicroOp, RegClass, UopKind};

use super::{fold_interval, Simulator};
use crate::activity::ActivityCounters;
use crate::config::{FrontendMode, ProcessorConfig};

/// Applies one micro-op's increments, as `process_uop` once did, for a
/// micro-op dispatched to `backend` in frontend partition `partition`.
pub(super) fn count_per_uop(
    act: &mut ActivityCounters,
    uop: &MicroOp,
    backend: usize,
    partition: usize,
    cfg: &ProcessorConfig,
) {
    act.decoded_uops += 1;
    act.rob_writes[partition] += 1;
    if cfg.frontend_mode.is_distributed() {
        act.rob_rl_writes[partition] += 1;
    }
    let a = &mut act.backends[backend];
    match uop.kind {
        UopKind::Load | UopKind::Store => a.int_fu_ops += 1,
        k if k.is_fp() => {
            a.fpq_writes += 1;
            a.fpq_issues += 1;
            a.fp_fu_ops += 1;
        }
        _ => {
            a.iq_writes += 1;
            a.iq_issues += 1;
            a.int_fu_ops += 1;
        }
    }
    for s in uop.sources() {
        match s.class() {
            RegClass::Int => a.irf_reads += 1,
            RegClass::Fp => a.fprf_reads += 1,
        }
    }
    match uop.kind {
        UopKind::Load => {
            a.dl1_accesses += 1;
            a.dtlb_accesses += 1;
            a.mob_allocs += 1;
            a.mob_searches += 1;
        }
        UopKind::Store => {
            a.dl1_accesses += 1;
            a.dtlb_accesses += 1;
            act.disamb_broadcasts += 1;
            for b in 0..cfg.backends {
                act.backends[b].mob_allocs += 1;
            }
        }
        UopKind::Branch => act.bp_accesses += 2,
        _ => {}
    }
    if let Some(dst) = uop.dst {
        let a = &mut act.backends[backend];
        match dst.class() {
            RegClass::Int => a.irf_writes += 1,
            RegClass::Fp => a.fprf_writes += 1,
        }
    }
    act.rob_reads[partition] += 1;
    if cfg.frontend_mode.is_distributed() {
        for r in &mut act.rob_rl_reads {
            *r += 1;
        }
    }
    act.committed_uops += 1;
}

/// The open interval's activity as the old per-micro-op counting gives
/// it: the counters kept outside the tally plus the shadow increments,
/// with the trace-cache and rename counters folded in. A tally that
/// counted nothing would leave this equal to what the simulator reports.
fn per_uop_activity(sim: &Simulator) -> ActivityCounters {
    let mut act = sim.act.clone();
    act.merge(&sim.per_uop);
    fold_interval(
        &mut act,
        sim.tc.bank_accesses(),
        sim.rename.activity(),
        sim.open_interval_cycles(),
    );
    act
}

/// A machine of `backends` clusters, centralized or with one frontend
/// partition per `per` backends.
fn machine(backends: usize, distributed_per: Option<usize>) -> ProcessorConfig {
    let base = match distributed_per {
        None => ProcessorConfig::hpca05_baseline(),
        Some(per) => ProcessorConfig {
            frontend_mode: FrontendMode::Distributed {
                frontends: backends / per,
            },
            ..ProcessorConfig::distributed_rename_commit()
        },
    };
    ProcessorConfig {
        backends,
        // Divisible by every partition count below (1, 2 and 31).
        rob_entries: 248,
        ..base
    }
}

#[test]
fn folded_tally_matches_per_uop_counting() {
    const UOPS: u64 = 12_000;
    const INTERVAL_CYCLES: u64 = 1_500;
    let machines = [
        machine(1, None),
        machine(1, Some(1)),
        machine(4, None),
        machine(4, Some(2)),
        machine(31, None),
        machine(31, Some(1)),
    ];
    let apps = [
        AppProfile::test_tiny(),
        *AppProfile::by_name("swim").unwrap(),
    ];
    for cfg in machines {
        cfg.validate().expect("a valid machine");
        for (k, app) in apps.iter().enumerate() {
            let label = format!(
                "{} backends, {:?}, {}",
                cfg.backends, cfg.frontend_mode, app.name
            );
            let mut sim = Simulator::new(cfg.clone(), app, 11 + k as u64);
            let mut intervals = 0;
            loop {
                let start = sim.current_cycle();
                // Mid-interval: the open interval read in place.
                sim.advance(start + INTERVAL_CYCLES / 3, UOPS);
                assert_eq!(
                    sim.interval_activity(),
                    per_uop_activity(&sim),
                    "{label}: open interval {intervals}"
                );
                sim.advance(start + INTERVAL_CYCLES, UOPS);
                let want = per_uop_activity(&sim);
                let report = sim.end_interval(UOPS);
                assert_eq!(report.activity, want, "{label}: interval {intervals}");
                sim.per_uop.reset();
                intervals += 1;
                if report.done {
                    break;
                }
            }
            assert!(intervals > 2, "{label}: only {intervals} intervals");
        }
    }
}
