//! The paper's metrics against the serial loops they replaced.
//!
//! `TemperatureTracker` keeps its closed intervals in flat rows and folds
//! several intervals side by side, so their per-interval chains (a
//! group's maximum and area sum) overlap. Every maximum, sum and division
//! keeps its operation order, so each metric must carry exactly the bits
//! of the one-interval-at-a-time loops below, on any interval count (all
//! lane remainders), any block group (unsorted, repeated, one block or
//! all) and any samples (NaN and infinities included; which NaN an
//! operation returns is unspecified, so NaNs compare as one).

use distfront_thermal::{GroupMetrics, TemperatureTracker};

/// A SplitMix64 stream.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A temperature sample: mostly 40–120 °C, now and then a non-finite
    /// or a repeated value.
    fn temperature(&mut self) -> f64 {
        match self.below(64) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 85.0,
            _ => 40.0 + 80.0 * self.unit(),
        }
    }
}

/// The tracker as it was: one record of per-block vectors per interval,
/// and every metric one serial pass over the intervals.
struct SerialTracker {
    areas: Vec<f64>,
    intervals: Vec<(Vec<f64>, Vec<f64>, f64)>,
    cur_max: Vec<f64>,
    cur_sum: Vec<f64>,
    cur_time: f64,
}

impl SerialTracker {
    fn new(areas: Vec<f64>) -> Self {
        let n = areas.len();
        SerialTracker {
            areas,
            intervals: Vec::new(),
            cur_max: vec![f64::NEG_INFINITY; n],
            cur_sum: vec![0.0; n],
            cur_time: 0.0,
        }
    }

    fn record(&mut self, temps_c: &[f64], dt: f64) {
        for (i, &t) in temps_c.iter().enumerate() {
            self.cur_max[i] = self.cur_max[i].max(t);
            self.cur_sum[i] += t * dt;
        }
        self.cur_time += dt;
    }

    fn end_interval(&mut self) {
        if self.cur_time == 0.0 {
            return;
        }
        let avg = self.cur_sum.iter().map(|&s| s / self.cur_time).collect();
        let max = std::mem::replace(&mut self.cur_max, vec![f64::NEG_INFINITY; self.areas.len()]);
        self.intervals.push((max, avg, self.cur_time));
        self.cur_sum.iter_mut().for_each(|s| *s = 0.0);
        self.cur_time = 0.0;
    }

    fn time_above(&self, threshold_c: f64, blocks: &[usize]) -> f64 {
        let total: f64 = self
            .intervals
            .iter()
            .filter(|(max, _, _)| {
                blocks
                    .iter()
                    .map(|&b| max[b])
                    .fold(f64::NEG_INFINITY, f64::max)
                    >= threshold_c
            })
            .map(|(_, _, duration)| duration)
            .sum();
        total + 0.0
    }

    fn group_metrics(&self, blocks: &[usize]) -> Option<GroupMetrics> {
        if self.intervals.is_empty() || blocks.is_empty() {
            return None;
        }
        let group_area: f64 = blocks.iter().map(|&b| self.areas[b]).sum();
        let mut abs_max = f64::NEG_INFINITY;
        let mut avg_max_sum = 0.0;
        let mut avg_sum = 0.0;
        let mut total_time = 0.0;
        for (max, avg, duration) in &self.intervals {
            let imax = blocks
                .iter()
                .map(|&b| max[b])
                .fold(f64::NEG_INFINITY, f64::max);
            abs_max = abs_max.max(imax);
            avg_max_sum += imax;
            let area_avg: f64 =
                blocks.iter().map(|&b| avg[b] * self.areas[b]).sum::<f64>() / group_area;
            avg_sum += area_avg * duration;
            total_time += duration;
        }
        Some(GroupMetrics {
            abs_max_c: abs_max,
            average_c: avg_sum / total_time,
            avg_max_c: avg_max_sum / self.intervals.len() as f64,
        })
    }
}

/// A value's bits, every NaN as one: Rust leaves the sign and payload of
/// an operation's NaN result unspecified, and vectorized code picks
/// differently.
fn bits(v: f64) -> u64 {
    if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

fn metric_bits(m: Option<GroupMetrics>) -> Option<[u64; 3]> {
    m.map(|m| [bits(m.abs_max_c), bits(m.average_c), bits(m.avg_max_c)])
}

/// A random group of `n` blocks: a contiguous range (as the paper's
/// groups are), every block, or an arbitrary list with repeats.
fn random_group(rng: &mut Rng, n: usize) -> Vec<usize> {
    match rng.below(3) {
        0 => {
            let a = rng.below(n as u64) as usize;
            let b = a + 1 + rng.below((n - a) as u64) as usize;
            (a..b).collect()
        }
        1 => (0..n).collect(),
        _ => (0..1 + rng.below(2 * n as u64))
            .map(|_| rng.below(n as u64) as usize)
            .collect(),
    }
}

#[test]
fn interleaved_metrics_equal_the_serial_loops() {
    let mut rng = Rng(0x6e7a_0001);
    for case in 0..600 {
        let n = 1 + rng.below(60) as usize;
        let areas: Vec<f64> = (0..n).map(|_| 0.05 + 4.0 * rng.unit()).collect();
        let mut fast = TemperatureTracker::new(areas.clone());
        let mut serial = SerialTracker::new(areas);
        // 0–13 intervals: every remainder of the interleaving, twice.
        for _ in 0..rng.below(14) {
            // An interval of zero samples closes nothing.
            for _ in 0..rng.below(4) {
                let temps: Vec<f64> = (0..n).map(|_| rng.temperature()).collect();
                let dt = 1e-6 + 1e-4 * rng.unit();
                fast.record(&temps, dt);
                serial.record(&temps, dt);
            }
            fast.end_interval();
            serial.end_interval();
        }
        assert_eq!(fast.interval_count(), serial.intervals.len());
        for _ in 0..4 {
            let group = random_group(&mut rng, n);
            assert_eq!(
                metric_bits(fast.try_group_metrics(&group)),
                metric_bits(serial.group_metrics(&group)),
                "case {case}: group {group:?}"
            );
            let threshold = 40.0 + 80.0 * rng.unit();
            assert_eq!(
                bits(fast.time_above(threshold, &group)),
                bits(serial.time_above(threshold, &group)),
                "case {case}: time above {threshold} on {group:?}"
            );
        }
    }
}

#[test]
fn an_out_of_range_block_panics_instead_of_reading_another_interval() {
    let mut tr = TemperatureTracker::new(vec![1.0, 1.0]);
    for _ in 0..5 {
        tr.record(&[50.0, 60.0], 1.0);
        tr.end_interval();
    }
    let metrics = std::panic::catch_unwind(|| tr.try_group_metrics(&[0, 2]));
    assert!(metrics.is_err(), "group metrics read block 2 of 2");
    let above = std::panic::catch_unwind(|| tr.time_above(55.0, &[2]));
    assert!(above.is_err(), "time_above read block 2 of 2");
}
