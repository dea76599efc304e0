//! `Simulator::step` split into `advance` and `end_interval` is exact.
//!
//! A live cell's pilot stops its core at the pilot budget, inside an open
//! interval, and the interval loop later continues that same core to the
//! full run length. That is only sound if the budget does nothing but
//! stop `advance`: `advance(t, pilot)` then `advance(t, full)` and
//! `end_interval(full)` must report exactly what one `step(t, full)`
//! reports, interval after interval, and `interval_activity()` must read
//! the open interval exactly as `end_interval()` would close it.
//!
//! Covers every SPEC2000 profile under the baseline, the distributed
//! frontend and bank hopping, with the pilot's control (an ambient
//! rebalance, then a hop) between intervals.

use distfront_cache::trace_cache::TraceCacheConfig;
use distfront_trace::AppProfile;
use distfront_uarch::{ProcessorConfig, Simulator};

/// Micro-ops per run.
const UOPS: u64 = 16_000;
/// The pilot budget: the first quarter of the run.
const PILOT_UOPS: u64 = UOPS / 4;
/// Cycle length of one interval.
const INTERVAL_CYCLES: u64 = 2_000;
/// Ambient temperature the pilot rebalances the trace cache at, in °C.
const AMBIENT_C: f64 = 45.0;

/// The pilot's control at an interval boundary.
fn boundary(sim: &mut Simulator) {
    let banks = sim.config().trace_cache.physical_banks();
    sim.trace_cache_mut().rebalance(&vec![AMBIENT_C; banks]);
    sim.trace_cache_mut().hop();
}

#[test]
fn split_step_reports_equal_uninterrupted_steps() {
    let hopping = ProcessorConfig {
        trace_cache: TraceCacheConfig::bank_hopping(),
        ..ProcessorConfig::hpca05_baseline()
    };
    let mut stopped_inside = 0;
    for cfg in [
        ProcessorConfig::hpca05_baseline(),
        ProcessorConfig::distributed_rename_commit(),
        hopping,
    ] {
        for (k, app) in AppProfile::spec2000().iter().enumerate() {
            let seed = 31 + k as u64;
            let mut whole = Simulator::new(cfg.clone(), app, seed);
            let mut split = Simulator::new(cfg.clone(), app, seed);
            let mut i = 0;
            loop {
                let target = whole.current_cycle() + INTERVAL_CYCLES;
                assert_eq!(target, split.current_cycle() + INTERVAL_CYCLES);
                let want = whole.step(target, UOPS);

                let before = split.total_committed();
                split.advance(target, PILOT_UOPS);
                if before < PILOT_UOPS && split.current_cycle() < target {
                    stopped_inside += 1;
                }
                let mut closed = split.clone();
                assert_eq!(
                    split.interval_activity(),
                    closed.end_interval(PILOT_UOPS).activity,
                    "{} interval {i}: open-interval read differs from its close",
                    app.name
                );
                split.advance(target, UOPS);
                let got = split.end_interval(UOPS);
                assert_eq!(got, want, "{} interval {i}: split step diverged", app.name);

                boundary(&mut whole);
                boundary(&mut split);
                i += 1;
                if want.done {
                    break;
                }
            }
            assert_eq!(split.tc_hit_rate(), whole.tc_hit_rate(), "{}", app.name);
            assert_eq!(
                split.mispredict_rate(),
                whole.mispredict_rate(),
                "{}",
                app.name
            );
        }
    }
    // The pilot budget must actually have cut intervals short, or the
    // test proves nothing about resuming inside one.
    assert!(stopped_inside >= 26, "only {stopped_inside} intervals cut");
}
