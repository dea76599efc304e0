//! An interval is one prepared modal step applied twice, and a state
//! overwrite is projected at the next advance. Both are rearrangements of
//! the same IEEE operations, so each must carry exactly the bits of the
//! plain path: two `advance` calls of half the interval, and a projection
//! made the moment the state is set.
//!
//! Step lengths span `1e-9 s` to `1 s` (log-uniform), which on the paper
//! networks reaches all three `expm1` paths: the Taylor polynomial
//! (`|hλ| ≤ ln2/2`), the range reduction, and the `hλ > 40` cut-off
//! (`every_expm1_path_is_reached` checks it).

use std::sync::Arc;

use distfront_power::Machine;
use distfront_thermal::{ExpPropagator, ModalStep, PackageConfig, ThermalNetwork, ThermalParts};
use proptest::prelude::*;

/// Bounds of the step-length exponent: `dt = 10^e`.
const LOG_DT: (f64, f64) = (-9.0, 0.0);

/// The four floorplans the paper evaluates.
fn paper_parts(shape: usize) -> Arc<ThermalParts> {
    let (partitions, banks) = [(1, 2), (1, 3), (2, 2), (2, 3)][shape % 4];
    ThermalParts::for_machine(Machine::new(partitions, 4, banks), &PackageConfig::paper())
}

/// Element `i + shift` of `raw`, cycled.
fn cycled(raw: &[f64], i: usize, shift: usize) -> f64 {
    raw[(i + shift) % raw.len()]
}

/// One power per block, cycled from `raw` starting at `shift`.
fn block_power(net: &ThermalNetwork, raw: &[f64], shift: usize) -> Vec<f64> {
    (0..net.block_count())
        .map(|i| cycled(raw, i, shift))
        .collect()
}

/// A starting state: the steady state under `power`, every node moved by
/// up to ±5 °C (cycled from `offsets` starting at `shift`).
fn start_state(parts: &ThermalParts, power: &[f64], offsets: &[f64], shift: usize) -> Vec<f64> {
    let mut t = parts.solve_steady(power);
    for (i, v) in t.iter_mut().enumerate() {
        *v += cycled(offsets, i, shift);
    }
    t
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// What an interval hands its sampler: each half-step's block
/// temperatures and length, as bits.
type Samples = Vec<(Vec<u64>, u64)>;

#[test]
fn every_expm1_path_is_reached() {
    let half_ln2 = 0.5 * std::f64::consts::LN_2;
    for shape in 0..4 {
        let parts = paper_parts(shape);
        let lambda = parts.basis().eigenvalues();
        let max = lambda.iter().fold(0.0f64, |m, &l| m.max(l));
        let min = lambda.iter().fold(f64::INFINITY, |m, &l| m.min(l));
        // Half of the shortest interval: every mode on the Taylor path.
        assert!(0.5 * 10f64.powf(LOG_DT.0) * max <= half_ln2, "λmax {max}");
        // Half of the longest: the fastest mode below the cut-off, the
        // slowest (the sink) still on the Taylor path.
        let h = 0.5 * 10f64.powf(LOG_DT.1);
        assert!(h * max > 40.0, "λmax {max}");
        assert!(h * min <= half_ln2, "λmin {min}");
        // A 20 ms interval: the fastest mode on the range reduction.
        // (Production intervals, ~1e-5 s, keep every mode on the Taylor
        // path.)
        assert!((half_ln2..40.0).contains(&(0.01 * max)), "λmax {max}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `advance_interval` equals `advance(dt/2)`, sample, `advance(dt/2)`,
    /// sample: the same samples and the same final state, to the bit.
    #[test]
    fn an_interval_is_two_half_step_advances(
        shape in 0usize..4,
        raw_power in proptest::collection::vec(0.0f64..4.0, 1..24),
        warm_power in proptest::collection::vec(0.0f64..2.0, 1..8),
        offsets in proptest::collection::vec(-5.0f64..5.0, 1..16),
        log_dts in proptest::collection::vec(LOG_DT.0..LOG_DT.1, 1..6),
    ) {
        let parts = paper_parts(shape);
        let net = parts.network();
        let power = block_power(net, &raw_power, 0);
        let start = start_state(&parts, &block_power(net, &warm_power, 0), &offsets, 0);
        let mut interval = ExpPropagator::with_parts(Arc::clone(&parts));
        let mut halves = ExpPropagator::with_parts(Arc::clone(&parts));
        interval.set_temperatures(start.clone());
        halves.set_temperatures(start);
        for &e in &log_dts {
            let dt = 10f64.powf(e);
            let mut got = Samples::new();
            interval.advance_interval(&power, dt, |t, h| got.push((bits(t), h.to_bits())));
            let mut want = Samples::new();
            for _ in 0..2 {
                halves.advance(&power, dt / 2.0);
                want.push((bits(halves.block_temperatures()), (dt / 2.0).to_bits()));
            }
            prop_assert!(got == want, "samples at dt {}", dt);
            prop_assert_eq!(bits(interval.temperatures()), bits(halves.temperatures()));
        }
    }

    /// Overwriting the state defers its projection to the next advance;
    /// the result equals projecting at once, and the state reads back
    /// unchanged before then. Several overwrites in a row (a warm start's
    /// fixed point) keep only the last.
    #[test]
    fn a_lazy_projection_equals_an_eager_one(
        shape in 0usize..4,
        raw_power in proptest::collection::vec(0.0f64..4.0, 1..24),
        offsets in proptest::collection::vec(-5.0f64..5.0, 1..16),
        log_dts in proptest::collection::vec(LOG_DT.0..LOG_DT.1, 2..6),
        overwrites in 1usize..4,
        restore_after in 0usize..4,
    ) {
        let parts = paper_parts(shape);
        let net = parts.network();
        let basis = parts.basis();
        let n = net.node_count();
        let power = block_power(net, &raw_power, 0);
        let mut lazy = ExpPropagator::with_parts(Arc::clone(&parts));
        let mut state = Vec::new();
        for k in 0..overwrites {
            state = start_state(&parts, &block_power(net, &raw_power, k), &offsets, 0);
            lazy.set_temperatures(state.clone());
            prop_assert_eq!(bits(lazy.temperatures()), bits(&state));
        }
        // The eager reference: project now, then step through the basis.
        let rhs: Vec<f64> = (0..n)
            .map(|i| {
                let p = if i < net.block_count() { power[i] } else { 0.0 };
                p + net.ambient_conductances()[i] * net.ambient_c()
            })
            .collect();
        let (mut y, mut t, mut step) = (vec![0.0; n], vec![0.0; n], ModalStep::new(n));
        basis.project(&state, &mut y);
        for (k, &e) in log_dts.iter().enumerate() {
            let dt = 10f64.powf(e);
            if k == restore_after {
                // A mid-run restore: read back before the next advance.
                state = start_state(&parts, &power, &offsets, 1);
                lazy.set_temperatures(state.clone());
                prop_assert_eq!(bits(lazy.temperatures()), bits(&state));
                basis.project(&state, &mut y);
            }
            if k % 2 == 0 {
                lazy.advance(&power, dt);
                basis.prepare(&rhs, dt, &mut step);
                basis.apply(&step, &mut y, &mut t);
            } else {
                lazy.advance_interval(&power, dt, |_, _| ());
                basis.prepare(&rhs, dt / 2.0, &mut step);
                basis.apply(&step, &mut y, &mut t);
                basis.apply(&step, &mut y, &mut t);
            }
            prop_assert!(
                bits(lazy.temperatures()) == bits(&t),
                "advance {} at dt {}", k, dt
            );
        }
    }
}
