//! Cross-crate integration tests: the full simulator → power → thermal
//! pipeline driven through the public API.

use distfront::{run_app, slowdown, ExperimentConfig, SweepRunner};
use distfront_power::{BlockId, Machine};
use distfront_trace::{AppProfile, Workload};
use distfront_uarch::{ProcessorConfig, Simulator};

fn tiny(cfg: ExperimentConfig) -> distfront::AppResult {
    run_app(&cfg.with_uops(50_000), &AppProfile::test_tiny())
}

#[test]
fn full_stack_end_to_end() {
    let r = tiny(ExperimentConfig::baseline());
    assert!(r.uops >= 50_000);
    assert!(r.cycles > r.uops / 8, "cannot beat the 8-wide commit limit");
    assert!(r.avg_power_w > 5.0 && r.avg_power_w < 500.0);
    assert!(r.temps.processor.abs_max_c > 45.0);
    assert!(r.temps.processor.abs_max_c < 381.0 - 273.15 + 100.0);
}

#[test]
fn every_preset_runs_end_to_end() {
    for cfg in [
        ExperimentConfig::baseline(),
        ExperimentConfig::address_biasing(),
        ExperimentConfig::bank_hopping(),
        ExperimentConfig::hopping_and_biasing(),
        ExperimentConfig::blank_silicon(),
        ExperimentConfig::distributed_rename_commit(),
        ExperimentConfig::combined(),
    ] {
        let name = cfg.name;
        let r = run_app(&cfg.with_uops(30_000), &AppProfile::test_tiny());
        assert!(r.uops >= 30_000, "{name} under-ran");
        assert!(r.temps.frontend.average_c > 45.0, "{name} stayed cold");
    }
}

#[test]
fn seeds_change_the_run_but_not_the_shape() {
    let a = run_app(
        &ExperimentConfig::baseline().with_uops(40_000).with_seed(1),
        &AppProfile::test_tiny(),
    );
    let b = run_app(
        &ExperimentConfig::baseline().with_uops(40_000).with_seed(2),
        &AppProfile::test_tiny(),
    );
    assert_ne!(a.cycles, b.cycles, "different seeds, identical run");
    // But the thermal landscape stays in the same regime.
    assert!((a.temps.processor.average_c - b.temps.processor.average_c).abs() < 25.0);
}

#[test]
fn simulator_and_runner_agree_on_microarchitecture() {
    // A raw Simulator run and the full thermal runner see the same machine.
    let mut sim = Simulator::new(
        ProcessorConfig::hpca05_baseline(),
        &AppProfile::test_tiny(),
        0xD15F,
    );
    let stats = sim.run(50_000);
    let r = tiny(ExperimentConfig::baseline());
    // The runner's pilot interleaves control actions but the baseline has
    // none, so cycle counts match exactly for the same uop budget.
    assert_eq!(stats.committed_uops, r.uops);
    assert_eq!(stats.cycles, r.cycles);
}

#[test]
fn machine_shape_matches_processor_config() {
    for (cfg, parts, banks) in [
        (ExperimentConfig::baseline(), 1, 2),
        (ExperimentConfig::bank_hopping(), 1, 3),
        (ExperimentConfig::distributed_rename_commit(), 2, 2),
        (ExperimentConfig::combined(), 2, 3),
    ] {
        let p = &cfg.processor;
        let m = Machine::new(
            p.frontend_mode.partitions(),
            p.backends,
            p.trace_cache.physical_banks(),
        );
        assert_eq!(m.partitions, parts, "{}", cfg.name);
        assert_eq!(m.tc_banks, banks, "{}", cfg.name);
        assert!(m.contains(BlockId::Rob((parts - 1) as u8)));
        assert!(m.contains(BlockId::TcBank((banks - 1) as u8)));
    }
}

#[test]
fn suite_slowdowns_are_modest() {
    let apps = [
        Workload::from(AppProfile::test_tiny()),
        Workload::from(*AppProfile::by_name("gzip").unwrap()),
    ];
    let configs = [
        ExperimentConfig::baseline(),
        ExperimentConfig::distributed_rename_commit(),
        ExperimentConfig::hopping_and_biasing(),
        ExperimentConfig::combined(),
    ]
    .map(|c| c.with_uops(40_000));
    let rows = SweepRunner::new().try_grid(&configs, &apps).strict();
    for (cfg, tech) in configs[1..].iter().zip(&rows[1..]) {
        let name = cfg.name;
        let s = slowdown(&rows[0], tech);
        assert!(
            (-0.05..0.20).contains(&s),
            "{name}: slowdown {s} out of the paper's band"
        );
    }
}

#[test]
fn gated_bank_stays_dark_through_the_stack() {
    // Under blank silicon the spare bank must never be accessed.
    let cfg = ExperimentConfig::blank_silicon().with_uops(30_000);
    let mut sim = Simulator::new(cfg.processor.clone(), &AppProfile::test_tiny(), cfg.seed);
    let r = sim.step(u64::MAX, 30_000);
    assert_eq!(r.activity.tc_bank_accesses.len(), 3);
    assert_eq!(
        r.activity.tc_bank_accesses[2], 0,
        "statically gated bank was accessed"
    );
}

#[test]
fn hopping_touches_every_bank_over_time() {
    let cfg = ExperimentConfig::bank_hopping().with_uops(60_000);
    let r = run_app(&cfg, &AppProfile::test_tiny());
    assert!(r.uops >= 60_000);
    // End-to-end accesses can't verify per-interval gating from here, but
    // the run must have hopped: re-run the raw sim mirroring the control
    // loop and count.
    let mut sim = Simulator::new(cfg.processor.clone(), &AppProfile::test_tiny(), cfg.seed);
    let mut hops = 0;
    loop {
        let target = sim.current_cycle() + cfg.interval_cycles;
        let rep = sim.step(target, cfg.uops_per_app);
        sim.trace_cache_mut().hop();
        hops += 1;
        if rep.done {
            break;
        }
    }
    assert!(hops >= 2, "run too short to rotate the gated bank");
}
