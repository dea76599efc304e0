//! Dynamic thermal management demo — measuring the paper's closing claim:
//! *"any technique that reduces the peak temperature may experience smaller
//! slowdowns"* once a thermal-emergency mechanism is enabled.
//!
//! Runs the baseline and the full distributed frontend with a DTM throttle
//! armed slightly below each one's peak, and compares how often the
//! emergency fires and how much wall-clock time the throttle costs.
//!
//! ```sh
//! cargo run --release --example dtm_demo
//! ```

use distfront::{run_app, DtmSpec, EmergencyPolicy, ExperimentConfig, AMBIENT_C};
use distfront_trace::AppProfile;

fn main() {
    let uops: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300_000);
    let app = AppProfile::by_name("gzip").expect("known profile");

    // Find the baseline's natural peak, then arm the DTM a few degrees
    // below it so emergencies actually occur.
    let probe = run_app(&ExperimentConfig::baseline().with_uops(uops), app);
    let threshold = probe.temps.processor.abs_max_c - 3.0;
    println!(
        "baseline peak {:.1} C (rise {:.1} C); arming DTM at {threshold:.1} C\n",
        probe.temps.processor.abs_max_c,
        probe.temps.processor.abs_max_c - AMBIENT_C
    );

    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "config", "emergencies", "throttled", "peak (C)", "wall (us)"
    );
    for cfg in [ExperimentConfig::baseline(), ExperimentConfig::combined()] {
        let name = cfg.name;
        let r = run_app(
            &cfg.with_uops(uops)
                .with_dtm(DtmSpec::Emergency(EmergencyPolicy::with_threshold(
                    threshold,
                ))),
            app,
        );
        println!(
            "{:<12} {:>12} {:>12} {:>12.1} {:>12.1}",
            name,
            r.emergencies,
            r.throttled_intervals,
            r.temps.processor.abs_max_c,
            r.wall_time_s * 1e6,
        );
    }
    println!();
    println!("expected: the distributed frontend runs below the threshold, so");
    println!("it triggers no emergencies and pays no throttle time — the");
    println!("paper's motivation for reducing peak temperature.");
}
