//! Integration tests for the dynamic-thermal-management extension: the
//! techniques' peak reductions translate into fewer emergencies and less
//! throttle time, which is the paper's motivating claim for DTM-equipped
//! processors.

use distfront::{run_app, DtmSpec, EmergencyPolicy, ExperimentConfig};
use distfront_trace::AppProfile;

#[test]
fn dtm_off_by_default() {
    let r = run_app(
        &ExperimentConfig::baseline().with_uops(30_000),
        &AppProfile::test_tiny(),
    );
    assert_eq!(r.emergencies, 0);
    assert_eq!(r.throttled_intervals, 0);
}

#[test]
fn throttle_engages_below_natural_peak() {
    let app = AppProfile::test_tiny();
    let probe = run_app(&ExperimentConfig::baseline().with_uops(60_000), &app);
    let threshold = probe.temps.processor.abs_max_c - 2.0;
    let r = run_app(
        &ExperimentConfig::baseline()
            .with_uops(60_000)
            .with_dtm(DtmSpec::Emergency(EmergencyPolicy::with_threshold(
                threshold,
            ))),
        &app,
    );
    assert!(r.emergencies >= 1, "DTM armed below the peak never fired");
    assert!(r.throttled_intervals >= r.emergencies);
}

#[test]
fn throttling_extends_wall_time() {
    let app = AppProfile::test_tiny();
    let free = run_app(&ExperimentConfig::baseline().with_uops(60_000), &app);
    let threshold = free.temps.processor.abs_max_c - 2.0;
    let managed = run_app(
        &ExperimentConfig::baseline()
            .with_uops(60_000)
            .with_dtm(DtmSpec::Emergency(EmergencyPolicy::with_threshold(
                threshold,
            ))),
        &app,
    );
    assert!(
        managed.wall_time_s > free.wall_time_s,
        "throttling must cost wall-clock time: {} vs {}",
        managed.wall_time_s,
        free.wall_time_s
    );
}

#[test]
fn cooler_technique_triggers_fewer_emergencies() {
    // The paper's claim: peak-reducing techniques mean fewer DTM events.
    let app = AppProfile::test_tiny();
    let probe = run_app(&ExperimentConfig::baseline().with_uops(60_000), &app);
    let threshold = probe.temps.processor.abs_max_c - 2.0;
    let policy = EmergencyPolicy::with_threshold(threshold);
    let base = run_app(
        &ExperimentConfig::baseline()
            .with_uops(60_000)
            .with_dtm(DtmSpec::Emergency(policy)),
        &app,
    );
    let combined = run_app(
        &ExperimentConfig::combined()
            .with_uops(60_000)
            .with_dtm(DtmSpec::Emergency(policy)),
        &app,
    );
    assert!(
        combined.emergencies <= base.emergencies,
        "distributed frontend triggered more emergencies ({} vs {})",
        combined.emergencies,
        base.emergencies
    );
    assert!(combined.throttled_intervals <= base.throttled_intervals);
}

#[test]
fn hard_limit_rarely_fires_at_calibration() {
    // At the paper's real 381 K limit the calibrated baseline mostly stays
    // legal (the paper reports 107 C peaks, right at the limit).
    let r = run_app(
        &ExperimentConfig::baseline()
            .with_uops(60_000)
            .with_dtm(DtmSpec::Emergency(EmergencyPolicy::paper_limit())),
        &AppProfile::test_tiny(),
    );
    assert!(
        r.throttled_intervals <= 64,
        "calibration far above the emergency limit"
    );
}

/// The throttle stretch is computed in f64 from the exact cycle count —
/// no per-interval integer rounding — so interval energy and wall-time
/// accounting conserve the un-throttled run exactly: a throttled run's
/// extra wall time is proportional to `1/factor − 1`, and the committed
/// work (cycles, uops) is untouched.
#[test]
fn throttle_stretch_conserves_interval_accounting() {
    use distfront::engine::{CoupledEngine, DtmAction, DtmPolicy};

    /// Throttles every interval after the first at a fixed factor.
    struct ConstThrottle(f64);
    impl DtmPolicy for ConstThrottle {
        fn decide(&mut self, _temps_c: &[f64]) -> DtmAction {
            DtmAction::Throttle(self.0)
        }
        fn triggers(&self) -> u64 {
            0
        }
        fn throttled_intervals(&self) -> u64 {
            0
        }
    }

    let cfg = ExperimentConfig::baseline().with_uops(60_000);
    let app = AppProfile::test_tiny();
    let throttled = |factor: f64| {
        CoupledEngine::new(&cfg, &app)
            .with_dtm(Box::new(ConstThrottle(factor)))
            .run()
            .unwrap()
    };

    let free = run_app(&cfg, &app);
    // 0.3 does not divide any binary cycle count evenly — the case the
    // old `(cycles / throttle).round()` accounting drifted on by up to
    // half a cycle per interval.
    let slow = throttled(0.3);
    let third = throttled(1.0 / 3.0);

    // Throttling never changes the committed work, only its wall time.
    assert_eq!(slow.cycles, free.cycles);
    assert_eq!(slow.uops, free.uops);
    assert_eq!(third.cycles, free.cycles);

    // The first interval runs nominal (the policy is consulted at each
    // interval's end), every later interval stretches by 1/factor; the
    // extra wall time is therefore (1/factor − 1) · t_throttled_portion,
    // giving an exact cross-factor identity:
    //   (w(0.3) − w_free) / (w(1/3) − w_free) = (1/0.3 − 1) / (3 − 1).
    let extra_a = slow.wall_time_s - free.wall_time_s;
    let extra_b = third.wall_time_s - free.wall_time_s;
    assert!(extra_a > 0.0 && extra_b > 0.0, "throttle must cost time");
    let want = (1.0 / 0.3 - 1.0) / (1.0 / (1.0 / 3.0) - 1.0);
    let got = extra_a / extra_b;
    assert!(
        (got / want - 1.0).abs() < 1e-9,
        "stretch ratio {got} vs exact {want} — integer rounding drift"
    );

    // Dynamic switching energy is conserved under the stretch: the same
    // joules spread over more seconds, so average power must drop below
    // the free-running value rather than track it.
    assert!(slow.avg_power_w < free.avg_power_w);
}
