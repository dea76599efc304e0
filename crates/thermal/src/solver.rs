//! Steady-state and transient solution of the thermal network.
//!
//! The steady state (used to warm-start simulations, §4) solves the linear
//! system `(L + diag(G_amb)) · T = P + G_amb · T_amb`. The matrix depends
//! only on the network, never on the power vector, so it is factored
//! **once** per network and process ([`SteadyFactor`], LU with partial
//! pivoting, shared through [`ThermalParts`]) and every subsequent solve
//! — including each round of the leakage↔temperature fixed point that
//! warm-starts a run — is a pair of triangular substitutions over the
//! factors' nonzeros instead of an O(n³) elimination.
//! [`ThermalSolver::solve_steady_dense`] keeps the single-shot Gaussian
//! elimination as a cross-check reference.
//!
//! Transients integrate `C · dT/dt = P − L·T − G_amb·(T − T_amb)`. The
//! production path is the modal propagator in [`crate::expm`]
//! ([`ExpPropagator`](crate::expm::ExpPropagator)), which is exact for the
//! piecewise-constant power the engine supplies and advances a whole
//! interval with one projection of the power; the RK4 integrator
//! here ([`ThermalSolver::advance`], sub-stepped below the network's
//! smallest time constant for stability) is kept as the cross-check
//! reference and remains selectable with `--integrator rk4`.

use std::sync::Arc;

use crate::expm::ThermalParts;
use crate::rc::ThermalNetwork;

/// LU factorization (partial pivoting) of a steady-state system matrix,
/// reusable across right-hand sides.
///
/// The factors of a thermal network are sparse: on the paper's
/// distributed machine (53 nodes) strict L and U each hold 286 nonzeros
/// of 1,378 entries. [`factor`](Self::factor) eliminates densely, then
/// keeps each row's nonzero `(column, value)` pairs of L and U, and
/// [`solve`](Self::solve) subtracts only those, in the ascending column
/// order of a dense row-oriented substitution.
///
/// Skipping an exact zero changes no bit of a finite solve. For a finite
/// `v`, `0·v` is `±0`, and `acc − (±0)` equals `acc` for every `acc` but
/// `−0.0`. An accumulator is never `−0.0`: it starts at an entry of the
/// permuted right-hand side or of the forward solution, and in
/// round-to-nearest a difference is `−0.0` only when its minuend already
/// is. The right-hand side the thermal parts assemble is
/// `P + G_amb·T_amb`, whose ambient term is non-negative at an ambient
/// of 0 °C or more (the package's is 45 °C), and the sum of a `−0.0`
/// power with it is `+0.0`. A non-finite `v` is the one case a dense
/// solve differs in: `0·∞` is NaN there and skipped here. A non-finite
/// entry still spreads along the nonzeros, and `tests/steady_solve.rs`
/// checks that an infinite or NaN block power gives a non-finite block
/// temperature on every registry machine, so a runaway warm start still
/// fails to converge.
///
/// # Examples
///
/// ```
/// use distfront_thermal::solver::SteadyFactor;
///
/// // [[2, 1], [1, 3]] · x = [3, 4]  =>  x = [1, 1]
/// let f = SteadyFactor::factor(vec![vec![2.0, 1.0], vec![1.0, 3.0]]);
/// let mut x = [0.0; 2];
/// f.solve(&[3.0, 4.0], &mut x);
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct SteadyFactor {
    /// Row permutation applied before substitution.
    perm: Vec<usize>,
    /// Strict L (unit diagonal implied), nonzeros only.
    lower: SparseRows,
    /// Strict U, nonzeros only.
    upper: SparseRows,
    /// U's diagonal, the pivots.
    diag: Vec<f64>,
}

/// The nonzero `(column, value)` pairs of a triangle, row by row in
/// ascending column order.
#[derive(Debug, Clone)]
struct SparseRows {
    entries: Vec<(usize, f64)>,
    /// Row `r` is `entries[starts[r]..starts[r + 1]]`.
    starts: Vec<usize>,
}

impl SparseRows {
    /// Gathers the nonzeros of `cols(r)` of every row `r` of `lu`.
    fn gather(lu: &[Vec<f64>], cols: impl Fn(usize) -> std::ops::Range<usize>) -> Self {
        let mut entries = Vec::new();
        let mut starts = Vec::with_capacity(lu.len() + 1);
        starts.push(0);
        for (r, row) in lu.iter().enumerate() {
            entries.extend(cols(r).map(|c| (c, row[c])).filter(|&(_, v)| v != 0.0));
            starts.push(entries.len());
        }
        SparseRows { entries, starts }
    }

    fn row(&self, r: usize) -> &[(usize, f64)] {
        &self.entries[self.starts[r]..self.starts[r + 1]]
    }
}

impl SteadyFactor {
    /// Factors a square matrix, consuming it.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or is singular.
    pub fn factor(mut a: Vec<Vec<f64>>) -> Self {
        let n = a.len();
        for row in &a {
            assert_eq!(row.len(), n, "matrix must be square");
        }
        let mut perm: Vec<usize> = (0..n).collect();
        for col in 0..n {
            let pivot = (col..n)
                .max_by(|&i, &j| {
                    a[i][col]
                        .abs()
                        .partial_cmp(&a[j][col].abs())
                        .expect("finite")
                })
                .expect("non-empty");
            assert!(a[pivot][col].abs() > 1e-14, "singular thermal system");
            a.swap(col, pivot);
            perm.swap(col, pivot);
            for row in (col + 1)..n {
                let (upper, lower) = a.split_at_mut(row);
                let pivot_row = &upper[col];
                let cur = &mut lower[0];
                let f = cur[col] / pivot_row[col];
                cur[col] = f;
                if f == 0.0 {
                    continue;
                }
                for (c, p) in cur[col + 1..].iter_mut().zip(&pivot_row[col + 1..]) {
                    *c -= f * p;
                }
            }
        }
        SteadyFactor {
            lower: SparseRows::gather(&a, |r| 0..r),
            upper: SparseRows::gather(&a, |r| r + 1..n),
            diag: a.iter().enumerate().map(|(r, row)| row[r]).collect(),
            perm,
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.perm.len()
    }

    /// Solves `A·x = b` into `x` using the stored factorization.
    ///
    /// # Panics
    ///
    /// Panics if `b` or `x` does not match the matrix dimension.
    pub fn solve(&self, b: &[f64], x: &mut [f64]) {
        let n = self.dim();
        assert_eq!(b.len(), n, "rhs length mismatch");
        assert_eq!(x.len(), n, "solution length mismatch");
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        // Forward substitution (L has a unit diagonal).
        for row in 1..n {
            let mut acc = x[row];
            for &(col, l) in self.lower.row(row) {
                acc -= l * x[col];
            }
            x[row] = acc;
        }
        // Back substitution through U.
        for row in (0..n).rev() {
            let mut acc = x[row];
            for &(col, u) in self.upper.row(row) {
                acc -= u * x[col];
            }
            x[row] = acc / self.diag[row];
        }
    }
}

/// Owns the temperature state of a [`ThermalNetwork`] and advances it.
///
/// # Examples
///
/// ```
/// use distfront_power::Machine;
/// use distfront_thermal::{Floorplan, PackageConfig, ThermalNetwork, ThermalSolver};
///
/// let fp = Floorplan::for_machine(Machine::new(1, 4, 2));
/// let net = ThermalNetwork::from_floorplan(&fp, &PackageConfig::paper());
/// let mut solver = ThermalSolver::new(net);
/// let power = vec![0.5; solver.network().block_count()];
/// solver.set_steady_state(&power);
/// assert!(solver.block_temperatures()[0] > 45.0);
/// ```
#[derive(Debug, Clone)]
pub struct ThermalSolver {
    /// The network and the LU factorization of its steady-state matrix,
    /// shared by every solver on the network.
    parts: Arc<ThermalParts>,
    /// Node temperatures in °C.
    t: Vec<f64>,
    /// Cached stable sub-step in seconds.
    dt_max: f64,
}

impl ThermalSolver {
    /// Creates a solver with every node at ambient, on the parts of `net`
    /// from the process registry (see [`ThermalParts::for_network`]).
    pub fn new(net: ThermalNetwork) -> Self {
        ThermalSolver::with_parts(ThermalParts::for_network(net))
    }

    /// Creates a solver with every node at ambient on shared parts.
    pub fn with_parts(parts: Arc<ThermalParts>) -> Self {
        let net = parts.network();
        let t = vec![net.ambient_c(); net.node_count()];
        // RK4 is stable to ~2.8·τ; τ/8 keeps the local error far below
        // the tenth-of-a-degree resolution the experiments care about.
        let dt_max = net.min_time_constant() / 8.0;
        ThermalSolver { parts, t, dt_max }
    }

    /// The underlying network.
    pub fn network(&self) -> &ThermalNetwork {
        self.parts.network()
    }

    /// All node temperatures (blocks, then spreader, then sink) in °C.
    pub fn temperatures(&self) -> &[f64] {
        &self.t
    }

    /// Block temperatures only, in °C.
    pub fn block_temperatures(&self) -> &[f64] {
        &self.t[..self.network().block_count()]
    }

    /// Overwrites the state (for tests / checkpointing).
    ///
    /// # Panics
    ///
    /// Panics if the length does not match the node count.
    pub fn set_temperatures(&mut self, t: Vec<f64>) {
        assert_eq!(t.len(), self.network().node_count());
        self.t = t;
    }

    /// Solves for the steady state under constant block `power` and adopts
    /// it as the current state.
    ///
    /// # Panics
    ///
    /// Panics if `power` does not have one entry per block, or the network
    /// is disconnected from ambient (singular system).
    pub fn set_steady_state(&mut self, power: &[f64]) {
        let t = self.solve_steady(power);
        self.t = t;
    }

    /// Computes the steady-state temperatures without changing the state,
    /// through the network's shared factorization.
    pub fn solve_steady(&self, power: &[f64]) -> Vec<f64> {
        self.parts.solve_steady(power)
    }

    /// Reference steady-state solve by single-shot Gaussian elimination
    /// (re-assembling and eliminating the full matrix every call). Kept as
    /// a cross-check for the factored path; prefer [`Self::solve_steady`].
    pub fn solve_steady_dense(&self, power: &[f64]) -> Vec<f64> {
        let net = self.network();
        assert_eq!(power.len(), net.block_count(), "one power entry per block");
        let mut a = assemble_matrix(net);
        let mut b = vec![0.0; net.node_count()];
        assemble_rhs_into(net, power, &mut b);
        gaussian_solve(&mut a, &mut b)
    }

    /// Advances the transient state by `dt` seconds under constant block
    /// `power`, sub-stepping internally for stability.
    ///
    /// # Panics
    ///
    /// Panics if `power` does not have one entry per block or `dt` is not
    /// positive.
    pub fn advance(&mut self, power: &[f64], dt: f64) {
        assert!(dt > 0.0, "dt must be positive");
        assert_eq!(power.len(), self.network().block_count());
        let steps = (dt / self.dt_max).ceil().max(1.0) as usize;
        let h = dt / steps as f64;
        for _ in 0..steps {
            self.rk4_step(power, h);
        }
    }

    fn derivative(&self, t: &[f64], power: &[f64]) -> Vec<f64> {
        let net = self.network();
        let q = net.heat_balance(t, power);
        q.iter()
            .zip(net.capacitances())
            .map(|(&qi, &ci)| qi / ci)
            .collect()
    }

    fn rk4_step(&mut self, power: &[f64], h: f64) {
        let n = self.t.len();
        let k1 = self.derivative(&self.t, power);
        let mut tmp = vec![0.0; n];
        for i in 0..n {
            tmp[i] = self.t[i] + 0.5 * h * k1[i];
        }
        let k2 = self.derivative(&tmp, power);
        for i in 0..n {
            tmp[i] = self.t[i] + 0.5 * h * k2[i];
        }
        let k3 = self.derivative(&tmp, power);
        for i in 0..n {
            tmp[i] = self.t[i] + h * k3[i];
        }
        let k4 = self.derivative(&tmp, power);
        for i in 0..n {
            self.t[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
    }
}

/// Assembles the steady-state system matrix `A = L + diag(g_amb)`
/// (shared with the matrix-exponential propagator in [`crate::expm`]).
pub(crate) fn assemble_matrix(net: &ThermalNetwork) -> Vec<Vec<f64>> {
    let n = net.node_count();
    let mut a = vec![vec![0.0f64; n]; n];
    for (i, row) in a.iter_mut().enumerate() {
        let mut diag = net.ambient_conductances()[i];
        for (j, cell) in row.iter_mut().enumerate() {
            if i != j {
                let g = net.conductance(i, j);
                *cell = -g;
                diag += g;
            }
        }
        row[i] = diag;
    }
    a
}

/// Assembles the right-hand side `b = P_ext + g_amb · T_amb` into a
/// caller-provided node-count slice (shared with the matrix-exponential
/// propagator in [`crate::expm`], whose hot paths reuse scratch buffers).
pub(crate) fn assemble_rhs_into(net: &ThermalNetwork, power: &[f64], out: &mut [f64]) {
    let nb = net.block_count();
    assert_eq!(out.len(), net.node_count(), "rhs length mismatch");
    for (i, o) in out.iter_mut().enumerate() {
        let p = if i < nb { power[i] } else { 0.0 };
        *o = p + net.ambient_conductances()[i] * net.ambient_c();
    }
}

/// Solves `A·x = b` by Gaussian elimination with partial pivoting,
/// consuming the inputs.
///
/// # Panics
///
/// Panics if the system is singular.
fn gaussian_solve(a: &mut [Vec<f64>], b: &mut [f64]) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        // Partial pivot.
        let pivot = (col..n)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .expect("finite")
            })
            .expect("non-empty");
        assert!(a[pivot][col].abs() > 1e-14, "singular thermal system");
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in (col + 1)..n {
            let (upper, lower) = a.split_at_mut(row);
            let pivot_row = &upper[col];
            let cur = &mut lower[0];
            let f = cur[col] / pivot_row[col];
            if f == 0.0 {
                continue;
            }
            for (c, p) in cur[col..].iter_mut().zip(&pivot_row[col..]) {
                *c -= f * p;
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for col in (row + 1)..n {
            acc -= a[row][col] * x[col];
        }
        x[row] = acc / a[row][row];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Floorplan;
    use crate::package::PackageConfig;
    use distfront_power::Machine;

    fn solver() -> ThermalSolver {
        let fp = Floorplan::for_machine(Machine::new(1, 4, 2));
        ThermalSolver::new(ThermalNetwork::from_floorplan(&fp, &PackageConfig::paper()))
    }

    /// A single RC node against the analytic solution
    /// `T(t) = T_inf + (T0 - T_inf)·e^(−t/RC)`.
    #[test]
    fn transient_matches_analytic_single_rc() {
        let g = vec![vec![0.0]];
        let net = ThermalNetwork::from_parts(g, vec![0.5], vec![2.0], 45.0, 1);
        let mut s = ThermalSolver::new(net);
        let p = [10.0]; // T_inf = 45 + 10/0.5 = 65, tau = C/G = 4 s.
        let dt = 1.0;
        s.advance(&p, dt);
        let analytic = 65.0 + (45.0f64 - 65.0) * (-dt / 4.0).exp();
        assert!(
            (s.temperatures()[0] - analytic).abs() < 1e-4,
            "rk4 {} vs analytic {analytic}",
            s.temperatures()[0]
        );
    }

    #[test]
    fn steady_state_conserves_energy() {
        let mut s = solver();
        let nb = s.network().block_count();
        let power: Vec<f64> = (0..nb).map(|i| 0.2 + 0.05 * i as f64).collect();
        let total: f64 = power.iter().sum();
        s.set_steady_state(&power);
        // All heat must leave through the sink's convection path.
        let sink = s.network().node_count() - 1;
        let g_conv = s.network().ambient_conductances()[sink];
        let out = g_conv * (s.temperatures()[sink] - 45.0);
        assert!(
            (out - total).abs() / total < 1e-9,
            "in {total} W, out {out} W"
        );
    }

    #[test]
    fn steady_state_above_ambient_and_hot_blocks_hotter() {
        let mut s = solver();
        let nb = s.network().block_count();
        let mut power = vec![0.1; nb];
        power[0] = 8.0; // ROB blasted
        s.set_steady_state(&power);
        let t = s.block_temperatures();
        assert!(t.iter().all(|&x| x > 45.0));
        let hottest = t
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(hottest, 0, "powered block should be hottest");
    }

    #[test]
    fn transient_converges_to_steady_state() {
        let mut s = solver();
        let nb = s.network().block_count();
        let power = vec![0.5; nb];
        let steady = s.solve_steady(&power);
        // Perturb only the block nodes: the package nodes keep their
        // steady values (the sink alone has an hours-long time constant).
        let mut init = steady.clone();
        for t in init.iter_mut().take(nb) {
            *t -= 1.0;
        }
        s.set_temperatures(init);
        for _ in 0..50 {
            s.advance(&power, 0.01);
        }
        for (i, (&got, &want)) in s.temperatures().iter().zip(&steady).enumerate().take(nb) {
            assert!((got - want).abs() < 0.5, "node {i}: {got} vs steady {want}");
        }
    }

    #[test]
    fn zero_power_stays_at_ambient() {
        let mut s = solver();
        let nb = s.network().block_count();
        s.advance(&vec![0.0; nb], 0.1);
        for &t in s.temperatures() {
            assert!((t - 45.0).abs() < 1e-9);
        }
    }

    #[test]
    fn lateral_coupling_spreads_heat() {
        // Power only the ROB; its neighbours must still warm above remote
        // blocks.
        let fp = Floorplan::for_machine(Machine::new(1, 4, 2));
        let m = fp.machine();
        let rob = m.index_of(distfront_power::BlockId::Rob(0));
        let rat = m.index_of(distfront_power::BlockId::Rat(0));
        let far = m.index_of(distfront_power::BlockId::IntSched(3));
        let mut s =
            ThermalSolver::new(ThermalNetwork::from_floorplan(&fp, &PackageConfig::paper()));
        let mut power = vec![0.0; s.network().block_count()];
        power[rob] = 6.0;
        s.set_steady_state(&power);
        let t = s.block_temperatures();
        assert!(t[rat] > t[far] + 0.5, "RAT {} vs far {}", t[rat], t[far]);
    }

    #[test]
    fn advance_substeps_long_intervals() {
        // A 1 ms call with µs-scale taus must still be stable.
        let mut s = solver();
        let nb = s.network().block_count();
        s.advance(&vec![1.0; nb], 1e-3);
        for &t in s.temperatures() {
            assert!(t.is_finite() && t < 200.0, "diverged: {t}");
        }
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn zero_dt_panics() {
        let mut s = solver();
        let nb = s.network().block_count();
        s.advance(&vec![0.0; nb], 0.0);
    }

    #[test]
    fn lu_matches_gaussian_reference() {
        let s = solver();
        let nb = s.network().block_count();
        let power: Vec<f64> = (0..nb).map(|i| 0.1 + 0.03 * i as f64).collect();
        let lu = s.solve_steady(&power);
        let dense = s.solve_steady_dense(&power);
        for (i, (a, b)) in lu.iter().zip(&dense).enumerate() {
            assert!((a - b).abs() < 1e-9, "node {i}: LU {a} vs Gaussian {b}");
        }
    }

    #[test]
    fn factor_reuse_is_exact_across_rhs() {
        // Two different power vectors through the same factorization give
        // the same answers as freshly eliminated systems.
        let s = solver();
        let nb = s.network().block_count();
        for scale in [0.2, 3.0] {
            let power = vec![scale; nb];
            let lu = s.solve_steady(&power);
            let dense = s.solve_steady_dense(&power);
            for (a, b) in lu.iter().zip(&dense) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn singular_matrix_rejected() {
        SteadyFactor::factor(vec![vec![1.0, 1.0], vec![1.0, 1.0]]);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::floorplan::Floorplan;
    use crate::package::PackageConfig;
    use distfront_power::Machine;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Steady-state temperatures are monotone in power: adding power
        /// anywhere never cools any block.
        #[test]
        fn steady_state_monotone_in_power(
            extra_idx in 0usize..48,
            extra in 0.1f64..5.0,
        ) {
            let fp = Floorplan::for_machine(Machine::new(1, 4, 2));
            let s = ThermalSolver::new(ThermalNetwork::from_floorplan(
                &fp, &PackageConfig::paper()));
            let base_p = vec![0.3; 48];
            let base = s.solve_steady(&base_p);
            let mut boosted_p = base_p.clone();
            boosted_p[extra_idx] += extra;
            let boosted = s.solve_steady(&boosted_p);
            for i in 0..48 {
                prop_assert!(boosted[i] >= base[i] - 1e-9);
            }
        }
    }
}
