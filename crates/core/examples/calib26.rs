//! Calibration summary: the baseline over all 26 SPEC2000 profiles, as
//! mean IPC and power plus the averaged block-group temperatures.
//!
//! ```sh
//! cargo run --release --example calib26 -p distfront -- 100000
//! ```
use distfront::{average_temps, ExperimentConfig, SweepRunner};
use distfront_trace::{AppProfile, Workload};
fn main() {
    let uops: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let apps: Vec<Workload> = AppProfile::spec2000()
        .iter()
        .copied()
        .map(Workload::from)
        .collect();
    let res = SweepRunner::new()
        .try_grid(&[ExperimentConfig::baseline().with_uops(uops)], &apps)
        .strict()
        .remove(0);
    let mean_ipc = res.iter().map(|r| r.ipc).sum::<f64>() / res.len() as f64;
    let mean_pw = res.iter().map(|r| r.avg_power_w).sum::<f64>() / res.len() as f64;
    let t = average_temps(&res);
    println!("26 apps x {uops}: mean ipc {mean_ipc:.2} power {mean_pw:.1}W");
    println!(
        "ROB abs {:.1} avg {:.1} | RAT abs {:.1} avg {:.1} | TC abs {:.1} avg {:.1}",
        t.rob.abs_max_c,
        t.rob.average_c,
        t.rat.abs_max_c,
        t.rat.average_c,
        t.trace_cache.abs_max_c,
        t.trace_cache.average_c
    );
    println!(
        "FE abs {:.1} avg {:.1} | BE avg {:.1} | UL2 avg {:.1} | proc abs {:.1} avg {:.1}",
        t.frontend.abs_max_c,
        t.frontend.average_c,
        t.backend.average_c,
        t.ul2.average_c,
        t.processor.abs_max_c,
        t.processor.average_c
    );
}
