//! Regeneration of every figure in the paper's evaluation (§4).
//!
//! Each `figureN` function runs the configurations that figure compares,
//! over the application set given, and returns a [`FigureTable`] whose rows
//! mirror the bars of the original plot:
//!
//! * [`figure1`] — baseline temperature of Processor / Frontend / Backend /
//!   UL2 (peak and average ΔT over the 45 °C ambient),
//! * [`figure12`] — distributed rename and commit: % reduction of
//!   AbsMax/Average/AvgMax for ROB, RAT and trace cache, plus slowdown,
//! * [`figure13`] — the four trace-cache techniques (address biasing,
//!   blank silicon, bank hopping, BH+AB) with the same metrics,
//! * [`figure14`] — the combined distributed frontend.
//!
//! Run lengths are scaled down from the paper's 200 M instructions per
//! application; pass a larger `uops_per_app` to converge further.
//!
//! Every figure executes its whole app × config grid through a parallel
//! [`SweepRunner`] — rows are bit-identical to the old serial collection,
//! just produced across however many cores the host has.

use distfront_trace::AppProfile;

use crate::engine::{CellOutcome, SweepRunner};
use crate::experiment::ExperimentConfig;
use crate::report::{FigureRow, FigureTable};
use crate::runner::{average_temps, slowdown, AppResult};

/// Ambient temperature the paper measures rises against.
pub const AMBIENT_C: f64 = 45.0;

/// Raw data behind a technique-comparison figure.
#[derive(Debug, Clone)]
pub struct ComparisonData {
    /// Per-app results for the baseline.
    pub baseline: Vec<AppResult>,
    /// `(config name, per-app results)` per technique, in figure order.
    pub techniques: Vec<(&'static str, Vec<AppResult>)>,
}

impl ComparisonData {
    /// Runs the baseline plus `configs` over `apps` at `uops_per_app`,
    /// fanning the whole grid out over a parallel [`SweepRunner`].
    pub fn collect(apps: &[AppProfile], configs: &[ExperimentConfig], uops_per_app: u64) -> Self {
        Self::collect_with(&SweepRunner::new(), apps, configs, uops_per_app)
    }

    /// [`collect`](Self::collect) on a caller-supplied runner (e.g.
    /// [`SweepRunner::serial`] for a reference run, or a shared runner
    /// whose warm-start cache spans several figures).
    ///
    /// # Panics
    ///
    /// Panics if any cell fails, listing every failed cell — a figure's
    /// reductions are relative to the baseline row, so a partial grid
    /// cannot be plotted. Use [`try_collect_with`](Self::try_collect_with)
    /// to handle the failures instead.
    pub fn collect_with(
        runner: &SweepRunner,
        apps: &[AppProfile],
        configs: &[ExperimentConfig],
        uops_per_app: u64,
    ) -> Self {
        Self::try_collect_with(runner, apps, configs, uops_per_app).unwrap_or_else(|failed| {
            let list: Vec<String> = failed.iter().map(CellOutcome::failure_line).collect();
            panic!("{} figure cells failed:\n{}", failed.len(), list.join("\n"))
        })
    }

    /// The fault-tolerant [`collect_with`](Self::collect_with): runs the
    /// grid through [`SweepRunner::try_grid`] and, when any cell fails,
    /// returns the failed cells instead of panicking (a figure needs its
    /// full grid — reductions are computed against the baseline row — so
    /// there is no partial `ComparisonData`).
    ///
    /// # Errors
    ///
    /// Returns every failed [`CellOutcome`] when the grid is incomplete.
    pub fn try_collect_with(
        runner: &SweepRunner,
        apps: &[AppProfile],
        configs: &[ExperimentConfig],
        uops_per_app: u64,
    ) -> Result<Self, Vec<CellOutcome>> {
        let mut grid_cfgs = Vec::with_capacity(configs.len() + 1);
        grid_cfgs.push(ExperimentConfig::baseline().with_uops(uops_per_app));
        grid_cfgs.extend(configs.iter().map(|c| c.clone().with_uops(uops_per_app)));
        let report = runner.try_grid(&grid_cfgs, apps);
        if !report.is_complete() {
            return Err(report.failures().cloned().collect());
        }
        let mut rows = report.strict().into_iter();
        let baseline = rows.next().expect("baseline row");
        let techniques = grid_cfgs[1..].iter().map(|c| c.name).zip(rows).collect();
        Ok(ComparisonData {
            baseline,
            techniques,
        })
    }

    /// One figure row per technique: the nine reduction percentages
    /// (ROB/RAT/TC × AbsMax/Average/AvgMax) followed by the slowdown.
    pub fn reduction_rows(&self) -> Vec<FigureRow> {
        let base = average_temps(&self.baseline);
        self.techniques
            .iter()
            .map(|(name, results)| {
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
                values.push(slowdown(&self.baseline, results) * 100.0);
                FigureRow {
                    label: (*name).to_string(),
                    values,
                }
            })
            .collect()
    }
}

fn reduction_columns() -> Vec<String> {
    let mut cols = Vec::new();
    for group in ["ROB", "RAT", "TC"] {
        for metric in ["AbsMax", "Average", "AvgMax"] {
            cols.push(format!("{group} {metric} %"));
        }
    }
    cols.push("Slowdown %".to_string());
    cols
}

/// Figure 1: temperature comparison of the processor elements on the
/// baseline — peak and average increase over the 45 °C ambient.
pub fn figure1(apps: &[AppProfile], uops_per_app: u64) -> FigureTable {
    let cfg = ExperimentConfig::baseline().with_uops(uops_per_app);
    let results = SweepRunner::new().suite(&cfg, apps);
    let t = average_temps(&results);
    let row = |label: &str, m: &distfront_thermal::GroupMetrics| FigureRow {
        label: label.to_string(),
        values: vec![m.abs_max_c - AMBIENT_C, m.average_c - AMBIENT_C],
    };
    FigureTable {
        id: "figure1",
        title: "Temperature increase over ambient (45C), baseline, SPEC2000 average".into(),
        columns: vec!["Peak (C)".into(), "Average (C)".into()],
        rows: vec![
            row("Processor", &t.processor),
            row("Frontend", &t.frontend),
            row("Backend", &t.backend),
            row("UL2", &t.ul2),
        ],
    }
}

/// Figure 12: temperature reductions of distributed renaming and commit.
pub fn figure12(apps: &[AppProfile], uops_per_app: u64) -> FigureTable {
    let data = ComparisonData::collect(
        apps,
        &[ExperimentConfig::distributed_rename_commit()],
        uops_per_app,
    );
    FigureTable {
        id: "figure12",
        title: "Distributed renaming and commit: reduction of temperature rise".into(),
        columns: reduction_columns(),
        rows: data.reduction_rows(),
    }
}

/// Figure 13: the sub-banked thermal-aware trace-cache techniques.
pub fn figure13(apps: &[AppProfile], uops_per_app: u64) -> FigureTable {
    let data = ComparisonData::collect(apps, &ExperimentConfig::figure13_set(), uops_per_app);
    FigureTable {
        id: "figure13",
        title: "Sub-banked trace cache: reduction of temperature rise".into(),
        columns: reduction_columns(),
        rows: data.reduction_rows(),
    }
}

/// Figure 14: the combined distributed frontend.
pub fn figure14(apps: &[AppProfile], uops_per_app: u64) -> FigureTable {
    let data = ComparisonData::collect(
        apps,
        &[
            ExperimentConfig::hopping_and_biasing(),
            ExperimentConfig::distributed_rename_commit(),
            ExperimentConfig::combined(),
        ],
        uops_per_app,
    );
    FigureTable {
        id: "figure14",
        title: "Distributed frontend: overall temperature reductions".into(),
        columns: reduction_columns(),
        rows: data.reduction_rows(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_apps() -> Vec<AppProfile> {
        vec![AppProfile::test_tiny()]
    }

    #[test]
    fn figure1_shape() {
        let t = figure1(&tiny_apps(), 50_000);
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

    #[test]
    fn figure1_frontend_among_hottest() {
        let t = figure1(&tiny_apps(), 50_000);
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
        let t = figure12(&tiny_apps(), 50_000);
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
        let t = figure13(&tiny_apps(), 40_000);
        let labels: Vec<_> = t.rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(
            labels,
            vec!["address-biasing", "blank-silicon", "bank-hopping", "bh+ab"]
        );
        assert_eq!(t.columns.len(), 10);
    }

    #[test]
    fn parallel_collection_matches_serial_reference() {
        let apps = tiny_apps();
        let cfgs = [ExperimentConfig::distributed_rename_commit()];
        let parallel = ComparisonData::collect(&apps, &cfgs, 40_000);
        let serial = ComparisonData::collect_with(&SweepRunner::serial(), &apps, &cfgs, 40_000);
        assert_eq!(parallel.baseline, serial.baseline);
        assert_eq!(parallel.techniques, serial.techniques);
    }

    #[test]
    fn figure14_combined_beats_parts_on_tc() {
        let t = figure14(&tiny_apps(), 50_000);
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
}
