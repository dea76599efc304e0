//! Regeneration of every figure in the paper's evaluation (§4).
//!
//! The evaluation compares the seven presets of
//! [`ExperimentConfig::presets`] against one shared baseline.
//! [`FigureData::collect`] runs that comparison once, every preset over
//! the given workloads as a single [`SweepRunner::try_grid`], and each
//! figure is a pure view over the collection that picks its rows by
//! configuration name, in the figure's order:
//!
//! * [`FigureData::figure1`] — baseline temperature of Processor /
//!   Frontend / Backend / UL2 (peak and average ΔT over the 45 °C ambient),
//! * [`FigureData::figure12`] — distributed rename and commit: % reduction
//!   of AbsMax/Average/AvgMax for ROB, RAT and trace cache, plus slowdown,
//! * [`FigureData::figure13`] — the four trace-cache techniques (address
//!   biasing, blank silicon, bank hopping, BH+AB) with the same metrics,
//! * [`FigureData::figure14`] — the combined distributed frontend.
//!
//! Run lengths are scaled down from the paper's 200 M instructions per
//! application; pass a larger `uops_per_app` to converge further. The
//! rows are bit-identical whatever the runner's worker count.

use distfront_thermal::GroupMetrics;
use distfront_trace::{AppProfile, Workload};

use crate::engine::{CellOutcome, SweepRunner};
use crate::experiment::ExperimentConfig;
use crate::report::{FigureRow, FigureTable};
use crate::runner::{average_temps, slowdown, AppResult};

/// Ambient temperature the paper measures rises against.
pub const AMBIENT_C: f64 = 45.0;

/// Every preset's results over one workload set: the raw data behind all
/// four figures.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureData {
    /// `(preset name, per-workload results)`, in
    /// [`ExperimentConfig::presets`] order.
    rows: Vec<(&'static str, Vec<AppResult>)>,
    /// Whether the workloads were exactly the 26 SPEC2000 profiles.
    spec2000: bool,
}

impl FigureData {
    /// Runs every preset over `workloads` at `uops_per_app` as one grid on
    /// `runner`.
    ///
    /// # Errors
    ///
    /// Returns every failed [`CellOutcome`], in grid order, when any cell
    /// fails: the reductions are relative to the baseline row, so a
    /// partial grid cannot be plotted.
    pub fn collect(
        runner: &SweepRunner,
        workloads: &[Workload],
        uops_per_app: u64,
    ) -> Result<Self, Vec<CellOutcome>> {
        let configs: Vec<ExperimentConfig> = ExperimentConfig::presets()
            .into_iter()
            .map(|c| c.with_uops(uops_per_app))
            .collect();
        let report = runner.try_grid(&configs, workloads);
        if !report.is_complete() {
            return Err(report.failures().cloned().collect());
        }
        let rows = configs
            .iter()
            .map(|c| c.name)
            .zip(report.strict())
            .collect();
        Ok(FigureData {
            rows,
            spec2000: is_spec2000(workloads),
        })
    }

    /// One preset's per-workload results.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a preset.
    pub fn results(&self, name: &str) -> &[AppResult] {
        self.rows
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, results)| results.as_slice())
            .unwrap_or_else(|| panic!("no preset named {name:?}"))
    }

    /// Figures 1, 12, 13 and 14, in the paper's order.
    pub fn tables(&self) -> [FigureTable; 4] {
        [
            self.figure1(),
            self.figure12(),
            self.figure13(),
            self.figure14(),
        ]
    }

    /// Figure 1: temperature comparison of the processor elements on the
    /// baseline — peak and average increase over the 45 °C ambient,
    /// averaged over the collected workloads (the paper's "SPEC2000
    /// average" when they are the 26 SPEC2000 profiles).
    pub fn figure1(&self) -> FigureTable {
        let baseline = self.results("baseline");
        let t = average_temps(baseline);
        let set = if self.spec2000 {
            "SPEC2000 average".to_string()
        } else {
            let n = baseline.len();
            format!("average over {n} workload{}", if n == 1 { "" } else { "s" })
        };
        let row = |label: &str, m: &GroupMetrics| FigureRow {
            label: label.to_string(),
            values: vec![m.abs_max_c - AMBIENT_C, m.average_c - AMBIENT_C],
        };
        FigureTable {
            id: "figure1",
            title: format!("Temperature increase over ambient (45C), baseline, {set}"),
            columns: vec!["Peak (C)".into(), "Average (C)".into()],
            rows: vec![
                row("Processor", &t.processor),
                row("Frontend", &t.frontend),
                row("Backend", &t.backend),
                row("UL2", &t.ul2),
            ],
        }
    }

    /// Figure 12: temperature reductions of distributed renaming and
    /// commit.
    pub fn figure12(&self) -> FigureTable {
        self.reduction_table(
            "figure12",
            "Distributed renaming and commit: reduction of temperature rise",
            &[ExperimentConfig::distributed_rename_commit()],
        )
    }

    /// Figure 13: the sub-banked thermal-aware trace-cache techniques.
    pub fn figure13(&self) -> FigureTable {
        self.reduction_table(
            "figure13",
            "Sub-banked trace cache: reduction of temperature rise",
            &ExperimentConfig::figure13_set(),
        )
    }

    /// Figure 14: the combined distributed frontend.
    pub fn figure14(&self) -> FigureTable {
        self.reduction_table(
            "figure14",
            "Distributed frontend: overall temperature reductions",
            &[
                ExperimentConfig::hopping_and_biasing(),
                ExperimentConfig::distributed_rename_commit(),
                ExperimentConfig::combined(),
            ],
        )
    }

    /// One row per technique in `techniques` (matched by name): the nine
    /// reduction percentages against the baseline (ROB/RAT/TC ×
    /// AbsMax/Average/AvgMax), then the slowdown.
    fn reduction_table(
        &self,
        id: &'static str,
        title: &str,
        techniques: &[ExperimentConfig],
    ) -> FigureTable {
        let baseline = self.results("baseline");
        let base = average_temps(baseline);
        let rows = techniques
            .iter()
            .map(|cfg| {
                let results = self.results(cfg.name);
                let t = average_temps(results);
                let mut values = Vec::with_capacity(10);
                for (b, m) in [
                    (&base.rob, &t.rob),
                    (&base.rat, &t.rat),
                    (&base.trace_cache, &t.trace_cache),
                ] {
                    let r = b.reduction_vs(m, AMBIENT_C);
                    values.push(r.abs_max_c * 100.0);
                    values.push(r.average_c * 100.0);
                    values.push(r.avg_max_c * 100.0);
                }
                values.push(slowdown(baseline, results) * 100.0);
                FigureRow {
                    label: cfg.name.to_string(),
                    values,
                }
            })
            .collect();
        let mut columns = Vec::with_capacity(10);
        for group in ["ROB", "RAT", "TC"] {
            for metric in ["AbsMax", "Average", "AvgMax"] {
                columns.push(format!("{group} {metric} %"));
            }
        }
        columns.push("Slowdown %".to_string());
        FigureTable {
            id,
            title: title.into(),
            columns,
            rows,
        }
    }
}

/// Whether `workloads` are exactly the 26 SPEC2000 profiles, in any
/// order.
fn is_spec2000(workloads: &[Workload]) -> bool {
    let spec = AppProfile::spec2000();
    workloads.len() == spec.len()
        && spec
            .iter()
            .all(|p| workloads.contains(&Workload::Single(*p)))
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;
    use crate::engine::EngineError;

    const UOPS: u64 = 50_000;

    fn tiny_apps() -> Vec<Workload> {
        vec![Workload::from(AppProfile::test_tiny())]
    }

    /// Every preset over the tiny app, collected once for the view tests.
    fn data() -> &'static FigureData {
        static DATA: OnceLock<FigureData> = OnceLock::new();
        DATA.get_or_init(|| {
            FigureData::collect(&SweepRunner::new(), &tiny_apps(), UOPS).expect("tiny grid")
        })
    }

    #[test]
    fn figure1_shape() {
        let t = data().figure1();
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.columns.len(), 2);
        for row in &t.rows {
            assert!(
                row.values[0] >= row.values[1],
                "{}: peak < average",
                row.label
            );
            assert!(row.values[1] > 0.0, "{} below ambient", row.label);
        }
    }

    /// Figure 1 names the workloads it averages: "SPEC2000 average" only
    /// over exactly the 26 SPEC2000 profiles.
    #[test]
    fn figure1_title_names_the_collected_workloads() {
        assert_eq!(
            data().figure1().title,
            "Temperature increase over ambient (45C), baseline, average over 1 workload"
        );
        let mut spec: Vec<Workload> = AppProfile::spec2000()
            .iter()
            .map(|p| Workload::from(*p))
            .collect();
        spec.reverse();
        assert!(is_spec2000(&spec));
        spec.pop();
        assert!(!is_spec2000(&spec), "25 profiles are not the suite");
        spec.push(Workload::from(AppProfile::test_tiny()));
        assert!(!is_spec2000(&spec), "tiny is not a SPEC2000 profile");
    }

    #[test]
    fn figure1_frontend_among_hottest() {
        let t = data().figure1();
        let get = |label: &str| {
            t.rows
                .iter()
                .find(|r| r.label == label)
                .map(|r| r.values[0])
                .unwrap()
        };
        assert!(get("Frontend") > get("UL2"), "frontend cooler than UL2");
    }

    #[test]
    fn figure12_reduces_rob_and_rat() {
        let t = data().figure12();
        assert_eq!(t.rows.len(), 1);
        let v = &t.rows[0].values;
        // ROB AbsMax and RAT AbsMax reductions are positive.
        assert!(v[0] > 0.0, "ROB AbsMax reduction {}", v[0]);
        assert!(v[3] > 0.0, "RAT AbsMax reduction {}", v[3]);
        // Slowdown is small.
        assert!(v[9].abs() < 20.0, "slowdown {}%", v[9]);
    }

    #[test]
    fn figure13_has_four_techniques() {
        let t = data().figure13();
        let labels: Vec<_> = t.rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(
            labels,
            vec!["address-biasing", "blank-silicon", "bank-hopping", "bh+ab"]
        );
        assert_eq!(t.columns.len(), 10);
    }

    #[test]
    fn parallel_collection_matches_serial_reference() {
        let serial = FigureData::collect(&SweepRunner::serial(), &tiny_apps(), UOPS).unwrap();
        assert_eq!(&serial, data());
        assert_eq!(serial.tables(), data().tables());
    }

    #[test]
    fn figure14_combined_beats_parts_on_tc() {
        let t = data().figure14();
        assert_eq!(t.rows.len(), 3);
        let tc_avg = |label: &str| {
            t.rows
                .iter()
                .find(|r| r.label == label)
                .map(|r| r.values[7])
                .unwrap()
        };
        // The combination should at least match DRC alone on the TC.
        assert!(tc_avg("drc+bh+ab") > tc_avg("drc") - 5.0);
    }

    #[test]
    fn a_failing_workload_returns_every_failed_cell() {
        let mut bad = AppProfile::test_tiny();
        bad.name = "bad-mix";
        bad.load_frac = 1.4;
        let workloads = [Workload::from(AppProfile::test_tiny()), Workload::from(bad)];
        let failed = FigureData::collect(&SweepRunner::with_threads(2), &workloads, 30_000)
            .expect_err("the bad workload fails under every preset");
        let presets = ExperimentConfig::presets();
        assert_eq!(failed.len(), presets.len(), "one failure per preset row");
        for (i, (cell, cfg)) in failed.iter().zip(&presets).enumerate() {
            assert_eq!((cell.config, cell.app), (i, 1));
            assert_eq!(cell.config_name, cfg.name);
            assert_eq!(cell.app_name, "bad-mix");
            assert!(
                matches!(cell.result, Err(EngineError::InvalidConfig(_))),
                "{}",
                cell.failure_line()
            );
        }
    }
}
