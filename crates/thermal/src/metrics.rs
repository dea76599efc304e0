//! The paper's temperature metrics (§4).
//!
//! * **AbsMax** — peak temperature over the whole run,
//! * **Average** — average over time *and* space (area-weighted),
//! * **AvgMax** — average over intervals of each interval's maximum.
//!
//! Metrics are evaluated over *groups* of blocks (e.g. "the reorder buffer"
//! is one block when centralized, two when distributed; "the frontend" is
//! the whole strip), which is how the paper reports Figs. 1 and 12–14.

/// The three paper metrics for one block group, in °C.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupMetrics {
    /// Peak temperature over the run.
    pub abs_max_c: f64,
    /// Area-weighted average over time and space.
    pub average_c: f64,
    /// Mean over intervals of the per-interval maximum.
    pub avg_max_c: f64,
}

impl GroupMetrics {
    /// The paper reports *reductions of the temperature increase over
    /// ambient*; this returns `(self − other) / (self − ambient)` per
    /// metric, i.e. how much of this group's rise `other` removed.
    pub fn reduction_vs(&self, other: &GroupMetrics, ambient_c: f64) -> GroupMetrics {
        let frac = |a: f64, b: f64| {
            let rise = a - ambient_c;
            if rise.abs() < 1e-12 {
                0.0
            } else {
                (a - b) / rise
            }
        };
        GroupMetrics {
            abs_max_c: frac(self.abs_max_c, other.abs_max_c),
            average_c: frac(self.average_c, other.average_c),
            avg_max_c: frac(self.avg_max_c, other.avg_max_c),
        }
    }
}

/// Closed intervals the metric loops read side by side: their serial
/// chains (a group's maximum and area sum within one interval) are
/// independent across intervals, so interleaving them overlaps their
/// latencies while every chain keeps its own operation order.
const LANES: usize = 4;

/// Accumulates per-block temperature samples, closed into intervals.
///
/// # Examples
///
/// ```
/// use distfront_thermal::TemperatureTracker;
///
/// let mut tr = TemperatureTracker::new(vec![1.0, 2.0]);
/// tr.record(&[50.0, 60.0], 0.001);
/// tr.end_interval();
/// let m = tr.group_metrics(&[0, 1]);
/// assert_eq!(m.abs_max_c, 60.0);
/// // Area-weighted: (50·1 + 60·2) / 3.
/// assert!((m.average_c - 56.666).abs() < 1e-2);
/// ```
#[derive(Debug, Clone)]
pub struct TemperatureTracker {
    areas: Vec<f64>,
    /// Per-block maximum of every closed interval, interval-major.
    max: Vec<f64>,
    /// Per-block time-weighted average of every closed interval,
    /// interval-major.
    avg: Vec<f64>,
    /// Duration of every closed interval in seconds.
    durations: Vec<f64>,
    cur_max: Vec<f64>,
    cur_sum: Vec<f64>,
    cur_time: f64,
}

impl TemperatureTracker {
    /// Creates a tracker for blocks with the given areas (mm², used for the
    /// spatial weighting of `Average`).
    ///
    /// # Panics
    ///
    /// Panics if `areas` is empty or contains a non-positive area; use
    /// [`try_new`](Self::try_new) for a recoverable error.
    pub fn new(areas: Vec<f64>) -> Self {
        Self::try_new(areas).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The non-panicking [`new`](Self::new).
    ///
    /// # Errors
    ///
    /// Returns a description of the defect when `areas` is empty or
    /// contains a non-positive (or non-finite) area.
    pub fn try_new(areas: Vec<f64>) -> Result<Self, String> {
        if areas.is_empty() {
            return Err("no blocks to track".into());
        }
        if let Some((i, a)) = areas
            .iter()
            .enumerate()
            .find(|(_, a)| !(a.is_finite() && **a > 0.0))
        {
            return Err(format!("areas must be positive: block {i} has {a} mm²"));
        }
        let n = areas.len();
        Ok(TemperatureTracker {
            areas,
            max: Vec::new(),
            avg: Vec::new(),
            durations: Vec::new(),
            cur_max: vec![f64::NEG_INFINITY; n],
            cur_sum: vec![0.0; n],
            cur_time: 0.0,
        })
    }

    /// Number of tracked blocks.
    pub fn block_count(&self) -> usize {
        self.areas.len()
    }

    /// Number of closed intervals.
    pub fn interval_count(&self) -> usize {
        self.durations.len()
    }

    /// Records one temperature sample held for `dt` seconds in the current
    /// interval.
    ///
    /// # Panics
    ///
    /// Panics if the sample length mismatches or `dt` is not positive.
    pub fn record(&mut self, temps_c: &[f64], dt: f64) {
        assert_eq!(temps_c.len(), self.areas.len());
        assert!(dt > 0.0, "dt must be positive");
        for (i, &t) in temps_c.iter().enumerate() {
            self.cur_max[i] = self.cur_max[i].max(t);
            self.cur_sum[i] += t * dt;
        }
        self.cur_time += dt;
    }

    /// Closes the current interval. Does nothing if no samples were
    /// recorded since the last close.
    pub fn end_interval(&mut self) {
        if self.cur_time == 0.0 {
            return;
        }
        self.max.extend_from_slice(&self.cur_max);
        self.avg
            .extend(self.cur_sum.iter().map(|&s| s / self.cur_time));
        self.durations.push(self.cur_time);
        self.cur_max.fill(f64::NEG_INFINITY);
        self.cur_sum.fill(0.0);
        self.cur_time = 0.0;
    }

    /// Seconds spent in closed intervals whose group peak reached
    /// `threshold_c` — the *violation residency* used to compare DTM
    /// policies (how long the group sat at or above an emergency limit,
    /// at interval granularity).
    ///
    /// # Panics
    ///
    /// Panics if the group is empty or an index is out of range.
    pub fn time_above(&self, threshold_c: f64, blocks: &[usize]) -> f64 {
        assert!(!blocks.is_empty(), "empty block group");
        // The durations sum in interval order from the empty float sum,
        // -0.0; the final +0.0 keeps a zero unsigned for reports.
        let mut total = -0.0;
        self.for_each_interval(blocks, |imax, _, duration| {
            if imax >= threshold_c {
                total += duration;
            }
        });
        total + 0.0
    }

    /// Computes the three paper metrics over the block-group `blocks`
    /// (canonical indices).
    ///
    /// # Panics
    ///
    /// Panics if no intervals are closed or the group is empty (use
    /// [`try_group_metrics`](Self::try_group_metrics) for a recoverable
    /// `None` instead), or if an index is out of range.
    pub fn group_metrics(&self, blocks: &[usize]) -> GroupMetrics {
        assert!(self.interval_count() > 0, "no closed intervals");
        assert!(!blocks.is_empty(), "empty block group");
        self.try_group_metrics(blocks).expect("validated above")
    }

    /// The non-panicking [`group_metrics`](Self::group_metrics): `None`
    /// when no intervals are closed or the group is empty — the metrics
    /// are undefined then (e.g. a zero-interval smoke run), and a report
    /// path should degrade gracefully instead of aborting.
    ///
    /// # Panics
    ///
    /// Still panics if a block index is out of range — that is a caller
    /// bug, not a data condition.
    pub fn try_group_metrics(&self, blocks: &[usize]) -> Option<GroupMetrics> {
        if self.interval_count() == 0 || blocks.is_empty() {
            return None;
        }
        let group_area: f64 = blocks.iter().map(|&b| self.areas[b]).sum();
        let mut abs_max = f64::NEG_INFINITY;
        let mut avg_max_sum = 0.0;
        let mut avg_sum = 0.0;
        let mut total_time = 0.0;
        self.for_each_interval(blocks, |imax, area_sum, duration| {
            abs_max = abs_max.max(imax);
            avg_max_sum += imax;
            avg_sum += area_sum / group_area * duration;
            total_time += duration;
        });
        Some(GroupMetrics {
            abs_max_c: abs_max,
            average_c: avg_sum / total_time,
            avg_max_c: avg_max_sum / self.interval_count() as f64,
        })
    }

    /// Calls `visit` on every closed interval in order with the group's
    /// maximum, its area-weighted sum of block averages and the
    /// interval's duration, folding [`LANES`] intervals side by side.
    fn for_each_interval(&self, blocks: &[usize], mut visit: impl FnMut(f64, f64, f64)) {
        let intervals = self.durations.len();
        let full = intervals - intervals % LANES;
        for first in (0..full).step_by(LANES) {
            let (imax, sums) = self.fold_group::<LANES>(first, blocks);
            for l in 0..LANES {
                visit(imax[l], sums[l], self.durations[first + l]);
            }
        }
        for first in full..intervals {
            let ([imax], [sum]) = self.fold_group::<1>(first, blocks);
            visit(imax, sum, self.durations[first]);
        }
    }

    /// The group's maximum and area-weighted sum of block averages in
    /// each of the `L` closed intervals from `first`. Each maximum folds
    /// the group's blocks in order from −∞, and each sum from the empty
    /// float sum, −0.0.
    fn fold_group<const L: usize>(&self, first: usize, blocks: &[usize]) -> ([f64; L], [f64; L]) {
        let n = self.areas.len();
        let max = &self.max[first * n..(first + L) * n];
        let avg = &self.avg[first * n..(first + L) * n];
        let mut imax = [f64::NEG_INFINITY; L];
        let mut sums = [-0.0; L];
        for &b in blocks {
            let a = self.areas[b];
            for l in 0..L {
                imax[l] = imax[l].max(max[l * n + b]);
                sums[l] += avg[l * n + b] * a;
            }
        }
        (imax, sums)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_interval_metrics() {
        let mut tr = TemperatureTracker::new(vec![1.0, 1.0]);
        tr.record(&[50.0, 70.0], 1.0);
        tr.end_interval();
        let m = tr.group_metrics(&[0, 1]);
        assert_eq!(m.abs_max_c, 70.0);
        assert_eq!(m.average_c, 60.0);
        assert_eq!(m.avg_max_c, 70.0);
    }

    #[test]
    fn avg_max_differs_from_abs_max() {
        let mut tr = TemperatureTracker::new(vec![1.0]);
        tr.record(&[50.0], 1.0);
        tr.end_interval();
        tr.record(&[90.0], 1.0);
        tr.end_interval();
        let m = tr.group_metrics(&[0]);
        assert_eq!(m.abs_max_c, 90.0);
        assert_eq!(m.avg_max_c, 70.0);
        assert_eq!(m.average_c, 70.0);
    }

    #[test]
    fn area_weighting() {
        let mut tr = TemperatureTracker::new(vec![3.0, 1.0]);
        tr.record(&[40.0, 80.0], 1.0);
        tr.end_interval();
        let m = tr.group_metrics(&[0, 1]);
        assert_eq!(m.average_c, 50.0); // (40·3 + 80·1)/4
    }

    #[test]
    fn time_weighting_within_interval() {
        let mut tr = TemperatureTracker::new(vec![1.0]);
        tr.record(&[40.0], 3.0);
        tr.record(&[80.0], 1.0);
        tr.end_interval();
        let m = tr.group_metrics(&[0]);
        assert_eq!(m.average_c, 50.0);
        assert_eq!(m.abs_max_c, 80.0);
    }

    #[test]
    fn unequal_interval_durations_weighted() {
        let mut tr = TemperatureTracker::new(vec![1.0]);
        tr.record(&[40.0], 3.0);
        tr.end_interval();
        tr.record(&[80.0], 1.0);
        tr.end_interval();
        let m = tr.group_metrics(&[0]);
        assert_eq!(m.average_c, 50.0, "Average weights by duration");
        assert_eq!(m.avg_max_c, 60.0, "AvgMax weights intervals equally");
    }

    #[test]
    fn subgroup_metrics() {
        let mut tr = TemperatureTracker::new(vec![1.0, 1.0, 1.0]);
        tr.record(&[50.0, 90.0, 60.0], 1.0);
        tr.end_interval();
        assert_eq!(tr.group_metrics(&[0]).abs_max_c, 50.0);
        assert_eq!(tr.group_metrics(&[0, 2]).abs_max_c, 60.0);
        assert_eq!(tr.group_metrics(&[1]).abs_max_c, 90.0);
    }

    #[test]
    fn empty_interval_close_is_noop() {
        let mut tr = TemperatureTracker::new(vec![1.0]);
        tr.end_interval();
        assert_eq!(tr.interval_count(), 0);
        tr.record(&[55.0], 1.0);
        tr.end_interval();
        tr.end_interval();
        assert_eq!(tr.interval_count(), 1);
    }

    #[test]
    fn time_above_sums_violating_interval_durations() {
        let mut tr = TemperatureTracker::new(vec![1.0, 1.0]);
        tr.record(&[50.0, 95.0], 2.0);
        tr.end_interval();
        tr.record(&[50.0, 70.0], 3.0);
        tr.end_interval();
        tr.record(&[91.0, 60.0], 1.0);
        tr.end_interval();
        assert_eq!(tr.time_above(90.0, &[0, 1]), 3.0);
        assert_eq!(tr.time_above(90.0, &[0]), 1.0);
        assert_eq!(tr.time_above(200.0, &[0, 1]), 0.0);
        assert_eq!(tr.time_above(0.0, &[0, 1]), 6.0);
    }

    #[test]
    fn reduction_vs_computes_rise_fraction() {
        let base = GroupMetrics {
            abs_max_c: 105.0,
            average_c: 75.0,
            avg_max_c: 95.0,
        };
        let improved = GroupMetrics {
            abs_max_c: 85.0,
            average_c: 65.0,
            avg_max_c: 80.0,
        };
        let r = base.reduction_vs(&improved, 45.0);
        assert!((r.abs_max_c - 20.0 / 60.0).abs() < 1e-12);
        assert!((r.average_c - 10.0 / 30.0).abs() < 1e-12);
        assert!((r.avg_max_c - 15.0 / 50.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no closed intervals")]
    fn metrics_before_close_panic() {
        let tr = TemperatureTracker::new(vec![1.0]);
        tr.group_metrics(&[0]);
    }

    #[test]
    #[should_panic(expected = "areas must be positive")]
    fn bad_area_panics() {
        TemperatureTracker::new(vec![0.0]);
    }

    #[test]
    fn try_group_metrics_degrades_instead_of_panicking() {
        let mut tr = TemperatureTracker::new(vec![1.0]);
        // Zero closed intervals: undefined metrics, not an abort.
        assert_eq!(tr.try_group_metrics(&[0]), None);
        assert_eq!(tr.try_group_metrics(&[]), None);
        tr.record(&[55.0], 1.0);
        tr.end_interval();
        let m = tr.try_group_metrics(&[0]).unwrap();
        assert_eq!(m, tr.group_metrics(&[0]), "try_ and panicking agree");
        assert_eq!(m.abs_max_c, 55.0);
    }

    #[test]
    fn try_new_reports_defects() {
        assert!(TemperatureTracker::try_new(vec![]).is_err());
        let err = TemperatureTracker::try_new(vec![1.0, -2.0]).unwrap_err();
        assert!(err.contains("block 1"), "{err}");
        assert!(TemperatureTracker::try_new(vec![1.0, f64::NAN]).is_err());
        assert_eq!(
            TemperatureTracker::try_new(vec![1.0])
                .unwrap()
                .block_count(),
            1
        );
    }
}
