//! Host-speed normalisation of the timed workloads.
//!
//! The benchmark runs on a share of a shared machine whose CPU speed
//! drifts between regimes that last tens of seconds: over a 7-minute
//! `live-grid` run the same cells ran between 0.84x and 1.22x their
//! median time in 10-s bins, with no steal time and user time tracking
//! wall time. A 20–40 s run sees one or two regimes, so ten runs of one
//! commit spread by 10–30% (IQR over median) in raw host time, and longer
//! runs do not average it out.
//!
//! To cancel the drift, a fixed reference kernel — code in this file,
//! which never changes with the program — runs between the timed
//! requests. Each request's host time is divided by the mean time of the
//! two probes around it and multiplied by [`NOMINAL_PROBE_MS`], a typical
//! probe time on the 2-vCPU 2.1 GHz Xeon host the bounds were set on. A
//! normalised time is thus the host time the request would have taken at
//! that probe speed. The raw host times are printed beside the
//! normalised ones.

use std::time::Instant;

use crate::report::{median, quantile, Report};

/// A typical probe time on the reference host, in ms: its median over a
/// run ranged from 0.93 to 1.31 ms with the regime. It only scales the
/// normalised values.
pub const NOMINAL_PROBE_MS: f64 = 1.0;

/// Rows and columns of the floating-point part's matrix.
const N: usize = 48;

/// Matrix-vector products per probe.
const MATVECS: usize = 400;

/// Table steps per probe.
const STEPS: u32 = 60_000;

/// The reference kernel, two parts of ~0.4 ms each timed together:
/// dense `f64` matrix-vector products on an L1-resident 48x48 matrix (the
/// shape of the thermal propagator), and branchy integer work on a
/// 16 KiB table (the shape of the core simulator).
///
/// The host switches between a fast and a slow state that last ~0.4 s
/// each on average. Cells of both workloads are 1.4–1.6x slower in the
/// slow state. The matrix part alone slows by 1.46–1.72x, depending on
/// the regime, and the table part by 1.19–1.24x; their sum tracked the
/// cells closest of the kernels tried, which also included random access
/// to 256 KiB, 4 MiB and 64 MiB tables and a vectorised matrix-matrix
/// product (1.95x). Over 30-s windows of long runs it cut the spread of
/// throughput from 0.17–0.21 to 0.01–0.06 (IQR over median).
struct Kernel {
    matrix: Vec<f64>,
    v: Vec<f64>,
    out: Vec<f64>,
    table: Vec<u32>,
    state: u64,
}

impl Kernel {
    fn new() -> Self {
        Kernel {
            // Entries up to 12/128; times the 1/4 damping below, every
            // row sums to well under 1, so the iteration converges to a
            // fixed point of normal (not subnormal) numbers.
            matrix: (0..N * N).map(|i| ((i * 7) % 13) as f64 / 128.0).collect(),
            v: vec![1.0; N],
            out: vec![0.0; N],
            table: (0..4096u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
            state: 1,
        }
    }

    /// One probe's work; returns values the optimiser must keep.
    fn run(&mut self) -> (f64, u64) {
        for _ in 0..MATVECS {
            for (row, out) in self.matrix.chunks_exact(N).zip(&mut self.out) {
                *out = row.iter().zip(&self.v).map(|(a, b)| a * b).sum::<f64>() * 0.25 + 0.125;
            }
            std::mem::swap(&mut self.v, &mut self.out);
        }
        let mut x = self.state;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (self.table.len() - 1);
            let v = self.table[i];
            match v & 3 {
                0 => acc = acc.wrapping_add(u64::from(v)),
                1 => acc ^= x,
                _ => self.table[i] = v.wrapping_add(x as u32),
            }
        }
        self.state = x;
        (self.v[0], acc)
    }
}

/// Timed requests interleaved with probes of the reference kernel.
pub struct HostSpeed {
    kernel: Kernel,
    /// Time of the probe that closed the previous request (or opened the
    /// first), in ms.
    last_probe_ms: f64,
    probes_ms: Vec<f64>,
    raw_ms: Vec<f64>,
    norm_ms: Vec<f64>,
}

impl HostSpeed {
    /// Warms the kernel up and takes the probe that opens the first
    /// request.
    pub fn new() -> Self {
        let mut speed = HostSpeed {
            kernel: Kernel::new(),
            last_probe_ms: 0.0,
            probes_ms: Vec::new(),
            raw_ms: Vec::new(),
            norm_ms: Vec::new(),
        };
        speed.probe();
        speed.last_probe_ms = speed.probe();
        speed.probes_ms.clear();
        speed
    }

    fn probe(&mut self) -> f64 {
        let t = Instant::now();
        std::hint::black_box(self.kernel.run());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.probes_ms.push(ms);
        ms
    }

    /// Records a request that took `raw_ms` of host time since the last
    /// probe, probes again, and normalises the request by the two probes
    /// around it.
    pub fn span(&mut self, raw_ms: f64) {
        let after = self.probe();
        let around = 0.5 * (self.last_probe_ms + after);
        self.last_probe_ms = after;
        self.raw_ms.push(raw_ms);
        self.norm_ms.push(raw_ms * NOMINAL_PROBE_MS / around);
    }

    /// Normalises one stretch of `raw_s` host seconds over which this
    /// probe ran between the parts: the stretch less its probes, by the
    /// mean probe time.
    pub fn normalise_s(&self, raw_s: f64) -> f64 {
        let probes_ms: f64 = self.probes_ms.iter().sum();
        let mean_ms = probes_ms / self.probes_ms.len() as f64;
        (raw_s - probes_ms / 1e3) * NOMINAL_PROBE_MS / mean_ms
    }

    /// Requests recorded so far.
    pub fn spans(&self) -> usize {
        self.norm_ms.len()
    }

    /// Emits the normalised end-to-end metrics for `cells` grid cells
    /// done by the recorded requests, and prints the raw host times.
    pub fn report(&self, report: &mut Report, cells: usize) {
        let per_s = |ms: &[f64]| cells as f64 * 1e3 / ms.iter().sum::<f64>();
        println!(
            "host time as measured: {:.4} cells/s, request p50 {:.4} ms, p90 {:.4} ms; \
             {} probes, median {:.4} ms (nominal {NOMINAL_PROBE_MS} ms)",
            per_s(&self.raw_ms),
            median(&self.raw_ms),
            quantile(&self.raw_ms, 0.9),
            self.probes_ms.len(),
            median(&self.probes_ms),
        );
        report.metric("norm_cells_per_s", per_s(&self.norm_ms), "cells/s");
        report.metric("norm_request_ms_p50", median(&self.norm_ms), "ms");
        report.metric("norm_request_ms_p90", quantile(&self.norm_ms, 0.9), "ms");
    }
}
