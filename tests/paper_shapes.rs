//! Shape tests for the paper's headline results: who wins, in which
//! direction, with roughly which ordering. Absolute magnitudes are checked
//! loosely (the substrate is a from-scratch simulator, not the authors'
//! testbed); orderings are checked strictly.

use std::sync::OnceLock;

use distfront::{average_temps, ExperimentConfig, FigureData, SweepRunner, AMBIENT_C};
use distfront_trace::{AppProfile, Workload};

const UOPS: u64 = 80_000;

/// Every preset over the shape apps, run once as one grid and shared by
/// all the tests below.
fn data() -> &'static FigureData {
    static DATA: OnceLock<FigureData> = OnceLock::new();
    DATA.get_or_init(|| {
        let apps: Vec<Workload> = ["gzip", "crafty", "swim"]
            .iter()
            .map(|n| Workload::from(*AppProfile::by_name(n).unwrap()))
            .collect();
        FigureData::collect(&SweepRunner::new(), &apps, UOPS)
            .unwrap_or_else(|failed| panic!("{} shape cells failed", failed.len()))
    })
}

fn suite(cfg: ExperimentConfig) -> distfront::TempReport {
    average_temps(data().results(cfg.name))
}

#[test]
fn fig1_frontend_is_among_the_hottest() {
    let t = suite(ExperimentConfig::baseline());
    // Fig. 1: the frontend exhibits some of the highest temperatures; the
    // UL2 is far cooler.
    assert!(t.frontend.abs_max_c > t.ul2.abs_max_c + 5.0);
    assert!(t.frontend.average_c > t.processor.average_c);
    // Peak rise lands in the tens of degrees (paper: ~62 C over ambient).
    let peak_rise = t.processor.abs_max_c - AMBIENT_C;
    assert!(
        (20.0..100.0).contains(&peak_rise),
        "peak rise {peak_rise} outside the plausible band"
    );
}

#[test]
fn fig12_distribution_cools_rob_and_rat_strongly() {
    let base = suite(ExperimentConfig::baseline());
    let drc = suite(ExperimentConfig::distributed_rename_commit());
    let rob = base.rob.reduction_vs(&drc.rob, AMBIENT_C);
    let rat = base.rat.reduction_vs(&drc.rat, AMBIENT_C);
    // Paper: ~32-35 % for peak and average. Accept a generous band but
    // require a decidedly strong effect.
    assert!(
        rob.average_c > 0.10,
        "ROB average reduction {}",
        rob.average_c
    );
    assert!(
        rat.average_c > 0.15,
        "RAT average reduction {}",
        rat.average_c
    );
    assert!(rat.abs_max_c > 0.10, "RAT peak reduction {}", rat.abs_max_c);
    // The trace cache benefits indirectly (heat spreading), less than the
    // split structures themselves.
    let tc = base.trace_cache.reduction_vs(&drc.trace_cache, AMBIENT_C);
    assert!(tc.average_c > 0.0);
    assert!(tc.average_c < rat.average_c);
}

#[test]
fn fig13_hopping_cools_the_trace_cache() {
    let base = suite(ExperimentConfig::baseline());
    let bh = suite(ExperimentConfig::bank_hopping());
    let tc = base.trace_cache.reduction_vs(&bh.trace_cache, AMBIENT_C);
    // Paper: average -17 %, peak -12 %.
    assert!(tc.average_c > 0.04, "TC average reduction {}", tc.average_c);
    assert!(tc.abs_max_c > 0.04, "TC peak reduction {}", tc.abs_max_c);
}

#[test]
fn fig13_hopping_beats_blank_silicon() {
    // "the proposed techniques outperform this option".
    let base = suite(ExperimentConfig::baseline());
    let bh = suite(ExperimentConfig::bank_hopping());
    let blank = suite(ExperimentConfig::blank_silicon());
    let tc_bh = base.trace_cache.reduction_vs(&bh.trace_cache, AMBIENT_C);
    let tc_blank = base.trace_cache.reduction_vs(&blank.trace_cache, AMBIENT_C);
    assert!(
        tc_bh.abs_max_c >= tc_blank.abs_max_c - 0.01,
        "hopping peak {} vs blank {}",
        tc_bh.abs_max_c,
        tc_blank.abs_max_c
    );
}

#[test]
fn fig13_biasing_never_hurts_the_peak() {
    let base = suite(ExperimentConfig::baseline());
    let ab = suite(ExperimentConfig::address_biasing());
    let tc = base.trace_cache.reduction_vs(&ab.trace_cache, AMBIENT_C);
    // Paper: peak -4 %, average ~0 (activity is spread, not reduced).
    assert!(
        tc.abs_max_c > -0.02,
        "biasing worsened the peak: {}",
        tc.abs_max_c
    );
    assert!(
        tc.average_c.abs() < 0.05,
        "biasing changed the average: {}",
        tc.average_c
    );
}

#[test]
fn fig14_combination_is_best_overall() {
    let base = suite(ExperimentConfig::baseline());
    let drc = suite(ExperimentConfig::distributed_rename_commit());
    let bhab = suite(ExperimentConfig::hopping_and_biasing());
    let all = suite(ExperimentConfig::combined());

    let red = |t: &distfront::TempReport| {
        let rob = base.rob.reduction_vs(&t.rob, AMBIENT_C).average_c;
        let rat = base.rat.reduction_vs(&t.rat, AMBIENT_C).average_c;
        let tc = base
            .trace_cache
            .reduction_vs(&t.trace_cache, AMBIENT_C)
            .average_c;
        (rob, rat, tc)
    };
    let (rob_all, rat_all, tc_all) = red(&all);
    let (_, _, tc_drc) = red(&drc);
    let (rob_bhab, rat_bhab, _) = red(&bhab);

    // The combination keeps the strong ROB/RAT effect of distribution...
    assert!(
        rob_all > rob_bhab,
        "combined ROB {rob_all} vs bh+ab {rob_bhab}"
    );
    assert!(
        rat_all > rat_bhab,
        "combined RAT {rat_all} vs bh+ab {rat_bhab}"
    );
    // ...and cools the trace cache at least as much as distribution alone.
    assert!(
        tc_all > tc_drc - 0.03,
        "combined TC {tc_all} vs drc {tc_drc}"
    );
    // Everything is a genuine reduction.
    assert!(rob_all > 0.0 && rat_all > 0.0 && tc_all > 0.0);
}

#[test]
fn frontend_area_and_power_shares_match_the_paper() {
    // §1: frontend ~20 % of area and ~30 % of dynamic power.
    use distfront_power::Machine;
    use distfront_thermal::Floorplan;
    let fp = Floorplan::for_machine(Machine::new(1, 4, 2));
    let fe_area: f64 = fp
        .blocks()
        .iter()
        .filter(|(b, _)| b.is_frontend())
        .map(|(_, r)| r.area())
        .sum();
    let share = fe_area / fp.die_area();
    assert!((0.10..0.30).contains(&share), "frontend area share {share}");
}
