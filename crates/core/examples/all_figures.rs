//! Regenerates Figures 1 and 12–14 at a given run length (micro-ops per
//! application, argv[1]) and prints them together. All four come from one
//! grid: every preset over the 26 SPEC2000 profiles, run once.
//!
//! ```sh
//! cargo run --release --example all_figures -p distfront -- 200000
//! ```
use distfront::{FigureData, SweepRunner};
use distfront_trace::{AppProfile, Workload};

fn main() {
    let uops: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300_000);
    let apps: Vec<Workload> = AppProfile::spec2000()
        .iter()
        .copied()
        .map(Workload::from)
        .collect();
    println!("run length: {uops} uops per app, 26 apps\n");
    let data = FigureData::collect(&SweepRunner::new(), &apps, uops).unwrap_or_else(|failed| {
        let lines: Vec<String> = failed.iter().map(|c| c.failure_line()).collect();
        panic!(
            "{} figure cells failed:\n{}",
            failed.len(),
            lines.join("\n")
        )
    });
    for table in data.tables() {
        println!("{table}");
    }
}
