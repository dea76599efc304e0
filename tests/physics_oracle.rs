//! Physics oracle: every registered scenario, run under the production
//! modal thermal kernel ([`Integrator::Expm`]) and under the sub-stepped
//! RK4 reference ([`Integrator::Rk4`]), must publish the same physics.
//!
//! The golden CSVs pin bits; this file pins accuracy, so a numerical
//! kernel change can be re-blessed on evidence rather than on faith.
//! Integer columns (`cycles`, `uops`, `emergencies`,
//! `throttled_intervals`) must be equal: a kernel error large enough to
//! flip a DTM decision or an emergency shows up there first. Every
//! temperature column (`*_c`) must agree within 1e-9 °C and every other
//! float column within 1e-9 relative. The two kernels measure within a
//! few 1e-12 °C of each other, so the bounds leave more than 300×
//! headroom while still catching any error that matters.

use distfront::scenarios::{self, RunOptions, CSV_HEADER};
use distfront::Integrator;

const TEMP_TOL_C: f64 = 1e-9;
const REL_TOL: f64 = 1e-9;
const INTEGER_COLUMNS: [&str; 4] = ["cycles", "uops", "emergencies", "throttled_intervals"];

/// One scenario's CSV rows under `integrator`, keyed by app.
fn rows(scenario: &scenarios::Scenario, integrator: Integrator) -> Vec<String> {
    let opts = RunOptions::smoke()
        .with_workers(2)
        .with_integrator(integrator);
    let report = scenario.run(&opts);
    assert!(
        report.is_complete(),
        "{} under {integrator}: {} cells failed",
        scenario.name,
        report.failed()
    );
    report
        .results()
        .map(|r| scenarios::csv_row(scenario.name, r))
        .collect()
}

#[test]
fn every_scenario_agrees_with_the_rk4_reference() {
    let header: Vec<&str> = CSV_HEADER.split(',').collect();
    let mut worst_c = 0.0f64;
    let mut worst_rel = 0.0f64;
    for scenario in scenarios::registry() {
        let modal = rows(&scenario, Integrator::Expm);
        let reference = rows(&scenario, Integrator::Rk4);
        assert_eq!(modal.len(), reference.len(), "{}: row count", scenario.name);
        for (m, r) in modal.iter().zip(&reference) {
            let app = m.split(',').nth(1).unwrap();
            let fields = m.split(',').zip(r.split(',')).zip(&header);
            for ((mv, rv), &col) in fields.skip(2) {
                let at = || format!("{} / {app}: {col}", scenario.name);
                if INTEGER_COLUMNS.contains(&col) {
                    assert_eq!(mv, rv, "{}: integer column differs", at());
                    continue;
                }
                let (a, b): (f64, f64) = (mv.parse().unwrap(), rv.parse().unwrap());
                if col.ends_with("_c") {
                    let d = (a - b).abs();
                    worst_c = worst_c.max(d);
                    assert!(d <= TEMP_TOL_C, "{}: {a} vs rk4 {b} °C", at());
                } else {
                    let d = (a - b).abs() / b.abs().max(f64::MIN_POSITIVE);
                    worst_rel = worst_rel.max(d);
                    assert!(d <= REL_TOL, "{}: {a} vs rk4 {b} ({d:e} relative)", at());
                }
            }
        }
    }
    eprintln!("modal vs rk4: worst {worst_c:e} °C, worst {worst_rel:e} relative");
}
