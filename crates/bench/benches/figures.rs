//! Figures 1 and 12–14 of the paper's evaluation, regenerated from one
//! grid: every preset over the 26 SPEC2000 profiles, collected once by
//! [`FigureData::collect`], then printed as the four tables.
//!
//! * Figure 1 — temperature of Processor / Frontend / Backend / UL2 on
//!   the baseline (peak and average rise over the 45 °C ambient).
//! * Figure 12 — distributed renaming and commit. Paper: ~32/33 % (ROB
//!   peak/average), ~34/35 % (RAT), an indirect trace-cache reduction,
//!   and a 2 % slowdown.
//! * Figure 13 — the sub-banked trace cache. Paper: biasing alone trims
//!   the TC peak (~4 %) but not the average; hopping cuts average ~17 % /
//!   peak ~12 % and beats statically-gated blank silicon; the combination
//!   reaches 14 % peak / 18 % average at a 3–4 % slowdown.
//! * Figure 14 — the complete distributed frontend. Paper: the
//!   combination reduces the reorder buffer, rename table and trace cache
//!   rises by ~35 %, ~32 % and ~25 %.
//!
//! Criterion then times one single-application run per figure as the
//! tracked kernels (`fig01/…` … `fig14/…`).

use criterion::{criterion_group, criterion_main, Criterion};
use distfront::{run_app, ExperimentConfig, FigureData, SweepRunner};
use distfront_bench::{bench_uops, evaluation_apps, kernel_app};
use distfront_trace::Workload;
use std::hint::black_box;

/// What each figure should look like, printed under its table.
const PAPER_SHAPES: [&str; 4] = [
    "paper shape: frontend among the hottest elements (~62 C peak\n\
     rise, ~25 C average rise); UL2 the coolest.",
    "paper shape: ROB and RAT rises cut by roughly a third with ~2 %\n\
     slowdown; the trace cache benefits indirectly via heat spreading.",
    "paper shape: hopping > blank silicon on the trace-cache peak;\n\
     biasing alone moves the peak, not the average.",
    "paper shape: the combination is synergistic — it keeps the strong\n\
     ROB/RAT effect of distribution and the trace-cache effect of hopping.",
];

fn regenerate_figures() {
    let uops = bench_uops();
    let apps: Vec<Workload> = evaluation_apps()
        .iter()
        .copied()
        .map(Workload::from)
        .collect();
    let presets = ExperimentConfig::presets().len();
    println!(
        "\nregenerating Figures 1, 12, 13, 14 ({uops} uops x {} apps x {presets} configs)...",
        apps.len()
    );
    let data = FigureData::collect(&SweepRunner::new(), &apps, uops)
        .unwrap_or_else(|failed| panic!("{} figure cells failed", failed.len()));
    for (table, shape) in data.tables().iter().zip(PAPER_SHAPES) {
        println!("{table}");
        println!("{shape}\n");
    }
}

fn bench(c: &mut Criterion) {
    regenerate_figures();
    let app = kernel_app();
    for (id, cfg) in [
        ("fig01/baseline_app_run", ExperimentConfig::baseline()),
        (
            "fig12/distributed_app_run",
            ExperimentConfig::distributed_rename_commit(),
        ),
        (
            "fig13/hopping_app_run",
            ExperimentConfig::hopping_and_biasing(),
        ),
        ("fig14/combined_app_run", ExperimentConfig::combined()),
    ] {
        let cfg = cfg.with_uops(20_000);
        c.bench_function(id, |b| b.iter(|| black_box(run_app(&cfg, &app))));
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
