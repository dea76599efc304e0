//! Tours every thermal-management technique of the paper on a small
//! application set, printing the temperature reductions each achieves over
//! the baseline — a condensed version of Figs. 12–14.
//!
//! ```sh
//! cargo run --release --example technique_tour
//! # longer, more converged run:
//! cargo run --release --example technique_tour -- 400000
//! ```

use distfront::{average_temps, slowdown, ExperimentConfig, FigureData, SweepRunner, AMBIENT_C};
use distfront_trace::{AppProfile, Workload};

fn main() {
    let uops: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(120_000);
    let apps: Vec<Workload> = ["gzip", "gcc", "crafty", "swim", "art", "eon"]
        .iter()
        .map(|n| Workload::from(*AppProfile::by_name(n).expect("known profile")))
        .collect();

    println!(
        "baseline + 6 techniques, {} apps x {uops} uops each",
        apps.len()
    );
    // Every preset over the apps, as one grid.
    let data = FigureData::collect(&SweepRunner::new(), &apps, uops)
        .unwrap_or_else(|failed| panic!("{} cells failed", failed.len()));
    let base = data.results("baseline");
    let bt = average_temps(base);
    println!(
        "baseline:     ROB {:.1}C  RAT {:.1}C  TC {:.1}C  (AbsMax; ambient {AMBIENT_C}C)\n",
        bt.rob.abs_max_c, bt.rat.abs_max_c, bt.trace_cache.abs_max_c
    );

    println!(
        "{:<16} {:>9} {:>21} {:>21} {:>21}",
        "technique", "slowdown", "ROB abs/avg", "RAT abs/avg", "TC abs/avg"
    );
    for cfg in &ExperimentConfig::presets()[1..] {
        let name = cfg.name;
        let res = data.results(name);
        let t = average_temps(res);
        let rob = bt.rob.reduction_vs(&t.rob, AMBIENT_C);
        let rat = bt.rat.reduction_vs(&t.rat, AMBIENT_C);
        let tc = bt.trace_cache.reduction_vs(&t.trace_cache, AMBIENT_C);
        println!(
            "{:<16} {:>8.1}% {:>9.1}% /{:>7.1}% {:>9.1}% /{:>7.1}% {:>9.1}% /{:>7.1}%",
            name,
            slowdown(base, res) * 100.0,
            rob.abs_max_c * 100.0,
            rob.average_c * 100.0,
            rat.abs_max_c * 100.0,
            rat.average_c * 100.0,
            tc.abs_max_c * 100.0,
            tc.average_c * 100.0,
        );
    }
}
