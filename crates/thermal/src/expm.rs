//! Exact transient advance in the network's modal coordinates.
//!
//! The thermal network's `C`, `L` and `G_amb` matrices are constant across
//! a run, and the engine holds block power piecewise-constant per
//! half-interval, so the transient `C·dT/dt = b − A·T` (with
//! `A = L + diag(G_amb)` and `b = P + G_amb·T_amb`) has an exact closed
//! form for every step. `A` is symmetric and `C` diagonal and positive, so
//! `C^{-1/2}·A·C^{-1/2} = V·Λ·Vᵀ` is a real symmetric eigendecomposition.
//! With `W = Vᵀ·C^{-1/2}` and `B = C^{-1/2}·V`, the modal state
//! `y = Vᵀ·C^{1/2}·T` splits into independent first-order modes, and a
//! step of any length `h` is
//!
//! ```text
//! g = W·b
//! y ← e^(−hλ)⊙y − (expm1(−hλ)/λ)⊙g      (the second factor → h as λ → 0)
//! T = B·y
//! ```
//!
//! [`ModalBasis`] holds `(λ, W, B)`. A cyclic Jacobi sweep computes it at
//! most once per distinct network per process, and a small fixed-size
//! registry hands it to every solver built on that network. The basis is
//! a pure function of the network's bits, so a registry hit returns
//! exactly the bits a rebuild would. Nothing is precomputed per step
//! size: the spread of interval lengths that DVFS, throttling and
//! whole-trace interval overshoot produce costs nothing.
//!
//! # Bit-identity contract
//!
//! [`ExpPropagator`] (one cell) and [`BatchPropagator`] (a column-major
//! `n_nodes × n_cells` cohort) advance every column through the same
//! [`ModalBasis::step`], each column with its own `h`. Column `j` of a
//! batch therefore carries exactly the bits an independent
//! `ExpPropagator` for cell `j` would hold after the same `advance`
//! calls, whatever step sizes the other columns take.
//!
//! [`ThermalSolver`]'s RK4 integrator remains the cross-check reference
//! (mirroring how `solve_steady_dense` backs `SteadyFactor`); the property
//! tests at the bottom of this module pin the two within 1e-6 °C.
//!
//! [`ThermalSolver`]: crate::solver::ThermalSolver

use std::sync::{Arc, Mutex, PoisonError};

use crate::rc::ThermalNetwork;
use crate::solver::{assemble_matrix, assemble_rhs, assemble_rhs_into, SteadyFactor};

/// Which transient integrator a run uses.
///
/// [`Integrator::Expm`] (the default) is exact for piecewise-constant power
/// and advances an interval with one modal step; [`Integrator::Rk4`] keeps
/// the explicit sub-stepped reference available for cross-checks and A/B
/// benchmarking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// Explicit RK4, sub-stepped below the smallest network time constant.
    Rk4,
    /// Exact modal step through the network's eigenbasis.
    #[default]
    Expm,
}

impl std::str::FromStr for Integrator {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "rk4" => Ok(Integrator::Rk4),
            "expm" => Ok(Integrator::Expm),
            other => Err(format!("unknown integrator {other} (expected rk4|expm)")),
        }
    }
}

impl std::fmt::Display for Integrator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Integrator::Rk4 => "rk4",
            Integrator::Expm => "expm",
        })
    }
}

/// Distinct networks whose basis a process keeps. A sweep touches one
/// network per machine shape (the paper evaluates four), so eviction only
/// happens on synthetic inputs, and a rebuilt basis has the same bits.
const REGISTRY_SLOTS: usize = 16;

/// Bases computed so far in this process, oldest first.
static REGISTRY: Mutex<Vec<(ThermalNetwork, Arc<ModalBasis>)>> = Mutex::new(Vec::new());

/// Upper bound on Jacobi sweeps, a guard against non-finite input; the
/// paper networks stop after a handful.
const MAX_SWEEPS: u32 = 64;

/// The eigenbasis of a network's symmetrized generator
/// `C^{-1/2}·A·C^{-1/2} = V·Λ·Vᵀ`, stored as the two projections the
/// modal step needs.
///
/// Both matrices are flat row-major `n × n` slabs (`W = Bᵀ`); each is
/// applied as a sum of its rows scaled by the input vector, so every
/// output element accumulates in one fixed order while the inner loop
/// vectorizes across elements.
#[derive(Debug)]
pub struct ModalBasis {
    /// Eigenvalues `λ` in 1/s: positive for every network tied to
    /// ambient, zero for a mode with no path to ambient.
    lambda: Box<[f64]>,
    /// `W = Vᵀ·C^{-1/2}`: row `k` is mode `k`'s projection.
    w: Box<[f64]>,
    /// `B = C^{-1/2}·V`: row `i` is node `i`'s modal loadings.
    b: Box<[f64]>,
    /// Node capacitances, for projecting temperatures: `y = W·(C⊙T)`.
    c: Box<[f64]>,
    /// Jacobi sweeps the decomposition took, the last one rotating nothing.
    sweeps: u32,
}

impl ModalBasis {
    /// Decomposes `net` by cyclic Jacobi rotations, stopping after the
    /// first full sweep that rotates nothing. An off-diagonal element is
    /// set to zero without a rotation once a hundred times its magnitude
    /// no longer changes either of the two diagonal elements it couples,
    /// so small eigenvalues keep their relative accuracy.
    ///
    /// Prefer [`ModalBasis::for_network`], which computes each network's
    /// basis once per process.
    pub fn new(net: &ThermalNetwork) -> Self {
        let n = net.node_count();
        let a = assemble_matrix(net);
        let inv_sqrt_c: Vec<f64> = net.capacitances().iter().map(|c| 1.0 / c.sqrt()).collect();
        // S = C^{-1/2}·A·C^{-1/2}, mirrored from the upper triangle so it
        // is symmetric to the bit.
        let mut s = vec![0.0f64; n * n];
        for i in 0..n {
            for j in i..n {
                let v = a[i][j] * inv_sqrt_c[i] * inv_sqrt_c[j];
                s[i * n + j] = v;
                s[j * n + i] = v;
            }
        }
        let mut v = vec![0.0f64; n * n];
        for i in 0..n {
            v[i * n + i] = 1.0;
        }
        let mut sweeps = 0;
        while sweeps < MAX_SWEEPS {
            sweeps += 1;
            let mut rotated = false;
            for p in 0..n {
                for q in p + 1..n {
                    rotated |= jacobi_rotate(&mut s, &mut v, n, p, q);
                }
            }
            if !rotated {
                break;
            }
        }
        let mut w = vec![0.0f64; n * n];
        let mut b = vec![0.0f64; n * n];
        for i in 0..n {
            for k in 0..n {
                let x = v[i * n + k] * inv_sqrt_c[i];
                w[k * n + i] = x;
                b[i * n + k] = x;
            }
        }
        ModalBasis {
            lambda: (0..n).map(|k| s[k * n + k]).collect(),
            w: w.into_boxed_slice(),
            b: b.into_boxed_slice(),
            c: net.capacitances().into(),
            sweeps,
        }
    }

    /// The basis of `net`, computed on the first request in this process
    /// and shared afterwards. Matching is on the network's exact bits.
    pub fn for_network(net: &ThermalNetwork) -> Arc<Self> {
        let find = |reg: &[(ThermalNetwork, Arc<ModalBasis>)]| {
            reg.iter()
                .find(|(k, _)| k.same_bits(net))
                .map(|(_, basis)| Arc::clone(basis))
        };
        if let Some(hit) = find(&REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)) {
            return hit;
        }
        // Decompose outside the lock; a racing thread builds the same bits.
        let built = Arc::new(ModalBasis::new(net));
        let mut reg = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = find(&reg) {
            return hit;
        }
        if reg.len() == REGISTRY_SLOTS {
            reg.remove(0);
        }
        reg.push((net.clone(), Arc::clone(&built)));
        built
    }

    /// The eigenvalues `λ` in 1/s, in no particular order.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.lambda
    }

    /// Jacobi sweeps the decomposition took, including the final sweep
    /// that rotated nothing.
    pub fn sweeps(&self) -> u32 {
        self.sweeps
    }

    /// Projects node temperatures `t` onto modal coordinates `y`.
    pub fn project(&self, t: &[f64], y: &mut [f64]) {
        let ct: Vec<f64> = t.iter().zip(self.c.iter()).map(|(t, c)| t * c).collect();
        mul_transposed(&self.b, &ct, y);
    }

    /// Advances modal state `y` by `h` seconds under the constant nodal
    /// right-hand side `rhs` and writes the resulting node temperatures
    /// to `t` (also used as scratch, so its input is ignored).
    pub fn step(&self, y: &mut [f64], rhs: &[f64], t: &mut [f64], h: f64) {
        // g = W·b, staged in `t` until the reconstruction overwrites it.
        mul_transposed(&self.b, rhs, t);
        for ((yk, &gk), &lk) in y.iter_mut().zip(t.iter()).zip(self.lambda.iter()) {
            let x = -h * lk;
            // One transcendental per mode: e^x = 1 + expm1(x), and
            // expm1(x)/λ → −h as λ → 0 (a mode with no path to ambient).
            let em1 = expm1(x);
            let gain = if x == 0.0 { -h } else { em1 / lk };
            *yk = (1.0 + em1) * *yk - gain * gk;
        }
        mul_transposed(&self.w, y, t);
    }
}

/// `e^x − 1` for `x ≤ ln2/2` (the step only passes `x = −hλ ≤ 0`), from
/// IEEE `+ − × /` alone.
///
/// The platform's `expm1` may pick a different code path per CPU at run
/// time, which would make a step's bits depend on the host. Here
/// `|x| ≤ ln2/2` is a degree-15 Taylor polynomial (truncation below
/// 1e-18 relative); smaller `x` reduces to `x = k·ln2 + r` and returns
/// `2^k·(1 + expm1(r)) − 1`. Within a few ulp of the exact value.
fn expm1(x: f64) -> f64 {
    // ln2 split so that k·LN2_HI is exact for the k reached here.
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    if x.abs() <= 0.5 * std::f64::consts::LN_2 {
        return expm1_taylor(x);
    }
    if x < -40.0 {
        // e^x < 5e-18, below half an ulp of 1.
        return -1.0;
    }
    let k = (x * std::f64::consts::LOG2_E).round();
    let r = (x - k * LN2_HI) - k * LN2_LO;
    let two_k = f64::from_bits(((1023 + k as i64) as u64) << 52);
    two_k * (1.0 + expm1_taylor(r)) - 1.0
}

/// `1/n!` for `n = 0..16`.
const INV_FACTORIAL: [f64; 16] = {
    let mut t = [1.0f64; 16];
    let mut n = 1;
    while n < 16 {
        t[n] = t[n - 1] / n as f64;
        n += 1;
    }
    t
};

/// `Σ_{n=1}^{15} xⁿ/n!` by Horner's rule, for `|x| ≤ ln2/2`.
fn expm1_taylor(x: f64) -> f64 {
    let acc = INV_FACTORIAL[1..]
        .iter()
        .rev()
        .fold(0.0, |acc, c| c + x * acc);
    x * acc
}

/// Zeroes `s[p][q]` with one Jacobi rotation, accumulating it into the
/// eigenvector columns of `v`; returns whether it rotated.
fn jacobi_rotate(s: &mut [f64], v: &mut [f64], n: usize, p: usize, q: usize) -> bool {
    let apq = s[p * n + q];
    let (app, aqq) = (s[p * n + p], s[q * n + q]);
    let g = 100.0 * apq.abs();
    if app.abs() + g == app.abs() && aqq.abs() + g == aqq.abs() {
        s[p * n + q] = 0.0;
        s[q * n + p] = 0.0;
        return false;
    }
    // The smaller rotation angle, tan θ = t (Rutishauser's formulation).
    let theta = (aqq - app) / (2.0 * apq);
    // Should θ² overflow, t comes out 0 instead of a negligible 1/(2θ).
    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
    let c = 1.0 / (t * t + 1.0).sqrt();
    let sn = t * c;
    let tau = sn / (1.0 + c);
    s[p * n + p] = app - t * apq;
    s[q * n + q] = aqq + t * apq;
    s[p * n + q] = 0.0;
    s[q * n + p] = 0.0;
    for r in (0..n).filter(|&r| r != p && r != q) {
        let (arp, arq) = (s[r * n + p], s[r * n + q]);
        let rp = arp - sn * (arq + tau * arp);
        let rq = arq + sn * (arp - tau * arq);
        s[r * n + p] = rp;
        s[p * n + r] = rp;
        s[r * n + q] = rq;
        s[q * n + r] = rq;
    }
    for row in v.chunks_exact_mut(n) {
        let (vp, vq) = (row[p], row[q]);
        row[p] = vp - sn * (vq + tau * vp);
        row[q] = vq + sn * (vp - tau * vq);
    }
    true
}

/// `out = Mᵀ·x` for a flat row-major square `m`: row `r`, scaled by
/// `x[r]`, is added to `out` in ascending `r`. Every element of `out`
/// sums its terms in that one order, so the bits are fixed, while the
/// inner loop runs across independent elements and vectorizes.
fn mul_transposed(m: &[f64], x: &[f64], out: &mut [f64]) {
    out.fill(0.0);
    for (row, &xr) in m.chunks_exact(out.len()).zip(x) {
        for (o, &mr) in out.iter_mut().zip(row) {
            *o += mr * xr;
        }
    }
}

/// Owns the temperature state of a [`ThermalNetwork`] and advances it
/// exactly through the network's [`ModalBasis`].
///
/// Drop-in alternative to [`ThermalSolver`](crate::solver::ThermalSolver):
/// the same construction-time LU factorization backs the steady-state
/// solves, and `advance` is exact for the piecewise-constant power the
/// interval loop supplies, for any step size. The advance path is
/// allocation-free.
///
/// # Examples
///
/// ```
/// use distfront_power::Machine;
/// use distfront_thermal::{ExpPropagator, Floorplan, PackageConfig, ThermalNetwork};
///
/// let fp = Floorplan::for_machine(Machine::new(1, 4, 2));
/// let net = ThermalNetwork::from_floorplan(&fp, &PackageConfig::paper());
/// let mut solver = ExpPropagator::new(net);
/// let power = vec![0.5; solver.network().block_count()];
/// solver.advance(&power, 1e-3);
/// assert!(solver.block_temperatures()[0] > 45.0);
/// ```
#[derive(Debug, Clone)]
pub struct ExpPropagator {
    net: ThermalNetwork,
    /// Node temperatures in °C.
    t: Vec<f64>,
    /// Modal coordinates of `t`.
    y: Vec<f64>,
    /// LU factorization of `A` for the steady-state solves.
    steady: SteadyFactor,
    basis: Arc<ModalBasis>,
    /// Scratch: assembled right-hand side `b = P + G_amb·T_amb`.
    rhs: Vec<f64>,
}

impl ExpPropagator {
    /// Creates a modal solver with every node at ambient; the steady-state
    /// matrix is assembled and LU-factored here, and the network's basis
    /// is fetched from (or computed into) the process registry.
    pub fn new(net: ThermalNetwork) -> Self {
        let basis = ModalBasis::for_network(&net);
        let n = net.node_count();
        let steady = SteadyFactor::factor(assemble_matrix(&net));
        let mut s = ExpPropagator {
            t: Vec::new(),
            y: vec![0.0; n],
            steady,
            basis,
            rhs: vec![0.0; n],
            net,
        };
        s.set_temperatures(vec![s.net.ambient_c(); n]);
        s
    }

    /// The underlying network.
    pub fn network(&self) -> &ThermalNetwork {
        &self.net
    }

    /// All node temperatures (blocks, then spreader, then sink) in °C.
    pub fn temperatures(&self) -> &[f64] {
        &self.t
    }

    /// Block temperatures only, in °C.
    pub fn block_temperatures(&self) -> &[f64] {
        &self.t[..self.net.block_count()]
    }

    /// Overwrites the state (for warm-start restore / checkpointing).
    ///
    /// # Panics
    ///
    /// Panics if the length does not match the node count.
    pub fn set_temperatures(&mut self, t: Vec<f64>) {
        assert_eq!(t.len(), self.net.node_count());
        self.basis.project(&t, &mut self.y);
        self.t = t;
    }

    /// Computes the steady-state temperatures without changing the state,
    /// reusing the factorization done at construction. Bit-identical to
    /// [`ThermalSolver::solve_steady`](crate::solver::ThermalSolver::solve_steady)
    /// on the same network.
    pub fn solve_steady(&self, power: &[f64]) -> Vec<f64> {
        assert_eq!(
            power.len(),
            self.net.block_count(),
            "one power entry per block"
        );
        self.steady.solve(&assemble_rhs(&self.net, power))
    }

    /// Solves for the steady state under constant block `power` and adopts
    /// it as the current state.
    ///
    /// # Panics
    ///
    /// Panics if `power` does not have one entry per block.
    pub fn set_steady_state(&mut self, power: &[f64]) {
        self.set_temperatures(self.solve_steady(power));
    }

    /// Advances the transient state by `dt` seconds under constant block
    /// `power`: one modal step, exact for constant power.
    ///
    /// # Panics
    ///
    /// Panics if `power` does not have one entry per block or `dt` is not
    /// positive.
    pub fn advance(&mut self, power: &[f64], dt: f64) {
        assert!(dt > 0.0, "dt must be positive");
        assert_eq!(power.len(), self.net.block_count());
        assemble_rhs_into(&self.net, power, &mut self.rhs);
        self.basis.step(&mut self.y, &self.rhs, &mut self.t, dt);
    }

    /// Spawns a batched propagator over `n_cells` lockstep cells on this
    /// solver's network, every column starting at ambient and sharing
    /// this solver's basis.
    pub fn batch(&self, n_cells: usize) -> BatchPropagator {
        BatchPropagator::with_basis(self.net.clone(), Arc::clone(&self.basis), n_cells)
    }
}

/// Advances `N` lockstep cells sharing one [`ThermalNetwork`]; the state
/// is a column-major SoA matrix `T: n_nodes × n_cells`.
///
/// Column `j` is cell `j`'s full node-temperature vector, contiguous at
/// `[j·n, (j+1)·n)`. [`advance_columns`](Self::advance_columns) takes an
/// explicit `(column, step)` list, so lanes whose `dt` differs
/// (throttle-stretched intervals, a shorter trace) step together, and a
/// failed cell's column simply stops being selected; the remaining
/// columns are arithmetically untouched by its departure.
///
/// # Examples
///
/// ```
/// use distfront_power::Machine;
/// use distfront_thermal::{BatchPropagator, Floorplan, PackageConfig, ThermalNetwork};
///
/// let fp = Floorplan::for_machine(Machine::new(1, 4, 2));
/// let net = ThermalNetwork::from_floorplan(&fp, &PackageConfig::paper());
/// let nb = net.block_count();
/// let mut batch = BatchPropagator::new(net, 8);
/// let powers = vec![0.5; nb * 8];
/// batch.advance_all(&powers, 1e-3);
/// assert!(batch.block_column(0)[0] > 45.0);
/// ```
#[derive(Debug, Clone)]
pub struct BatchPropagator {
    net: ThermalNetwork,
    basis: Arc<ModalBasis>,
    n_cells: usize,
    /// Column-major state matrix `T: n_nodes × n_cells`.
    t: Box<[f64]>,
    /// Modal coordinates of each column, same layout as `t`.
    y: Box<[f64]>,
    /// Scratch: one column's right-hand side.
    rhs: Vec<f64>,
}

impl BatchPropagator {
    /// Creates a batch of `n_cells` columns, all at ambient.
    ///
    /// # Panics
    ///
    /// Panics if `n_cells` is zero.
    pub fn new(net: ThermalNetwork, n_cells: usize) -> Self {
        let basis = ModalBasis::for_network(&net);
        BatchPropagator::with_basis(net, basis, n_cells)
    }

    fn with_basis(net: ThermalNetwork, basis: Arc<ModalBasis>, n_cells: usize) -> Self {
        assert!(n_cells > 0, "batch needs at least one cell");
        let n = net.node_count();
        let mut batch = BatchPropagator {
            t: vec![0.0; n * n_cells].into_boxed_slice(),
            y: vec![0.0; n * n_cells].into_boxed_slice(),
            rhs: vec![0.0; n],
            basis,
            n_cells,
            net,
        };
        let ambient = vec![batch.net.ambient_c(); n];
        for j in 0..n_cells {
            batch.set_column(j, &ambient);
        }
        batch
    }

    /// The underlying network (shared by every column).
    pub fn network(&self) -> &ThermalNetwork {
        &self.net
    }

    /// Number of lockstep cells (columns).
    pub fn n_cells(&self) -> usize {
        self.n_cells
    }

    /// All node temperatures of cell `j` in °C.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn column(&self, j: usize) -> &[f64] {
        let n = self.net.node_count();
        &self.t[j * n..(j + 1) * n]
    }

    /// Block temperatures of cell `j` only, in °C.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn block_column(&self, j: usize) -> &[f64] {
        let n = self.net.node_count();
        &self.t[j * n..j * n + self.net.block_count()]
    }

    /// Overwrites cell `j`'s state (warm-start restore).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range or the length does not match the
    /// node count.
    pub fn set_column(&mut self, j: usize, t: &[f64]) {
        let n = self.net.node_count();
        assert_eq!(t.len(), n, "column length must match node count");
        let col = j * n..(j + 1) * n;
        self.t[col.clone()].copy_from_slice(t);
        self.basis.project(t, &mut self.y[col]);
    }

    /// Advances every column by `dt` seconds.
    ///
    /// `powers` is column-major `block_count × n_cells`: cell `j`'s block
    /// powers at `[j·nb, (j+1)·nb)`.
    ///
    /// # Panics
    ///
    /// Panics if `powers` has the wrong length or `dt` is not positive.
    pub fn advance_all(&mut self, powers: &[f64], dt: f64) {
        let steps: Vec<(usize, f64)> = (0..self.n_cells).map(|j| (j, dt)).collect();
        self.advance_columns(powers, &steps);
    }

    /// Advances each selected column `j` by its own `dt` seconds for every
    /// `(j, dt)` in `steps`; unselected columns are untouched (their bits
    /// cannot change).
    ///
    /// `powers` spans all cells (column-major `block_count × n_cells`);
    /// only the selected columns' slices are read.
    ///
    /// # Panics
    ///
    /// Panics if `powers` has the wrong length, a `dt` is not positive, or
    /// a column index is out of range.
    pub fn advance_columns(&mut self, powers: &[f64], steps: &[(usize, f64)]) {
        let nb = self.net.block_count();
        let n = self.net.node_count();
        assert_eq!(powers.len(), nb * self.n_cells, "one power column per cell");
        for &(j, dt) in steps {
            assert!(dt > 0.0, "dt must be positive");
            assert!(j < self.n_cells, "column {j} out of range");
            assemble_rhs_into(&self.net, &powers[j * nb..(j + 1) * nb], &mut self.rhs);
            let col = j * n..(j + 1) * n;
            self.basis
                .step(&mut self.y[col.clone()], &self.rhs, &mut self.t[col], dt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Floorplan;
    use crate::package::PackageConfig;
    use crate::solver::ThermalSolver;
    use distfront_power::Machine;

    fn paper_net() -> ThermalNetwork {
        let fp = Floorplan::for_machine(Machine::new(1, 4, 2));
        ThermalNetwork::from_floorplan(&fp, &PackageConfig::paper())
    }

    /// The networks of every floorplan the paper evaluates: centralized
    /// and distributed frontends, two or three trace-cache banks.
    fn paper_nets() -> Vec<ThermalNetwork> {
        [(1, 2), (1, 3), (2, 2), (2, 3)]
            .iter()
            .map(|&(p, banks)| {
                let fp = Floorplan::for_machine(Machine::new(p, 4, banks));
                ThermalNetwork::from_floorplan(&fp, &PackageConfig::paper())
            })
            .collect()
    }

    /// Advances an RK4 reference solver with sub-steps ~200× below the
    /// smallest time constant — far finer than the solver's own τ/8
    /// stability step, so its error is negligible against 1e-6 °C.
    fn rk4_fine(s: &mut ThermalSolver, power: &[f64], dt: f64) {
        let tau = s.network().min_time_constant();
        let steps = (dt / (tau / 200.0)).ceil().max(1.0) as usize;
        let h = dt / steps as f64;
        for _ in 0..steps {
            s.advance(power, h);
        }
    }

    #[test]
    fn integrator_parses_and_displays() {
        assert_eq!("rk4".parse::<Integrator>().unwrap(), Integrator::Rk4);
        assert_eq!("expm".parse::<Integrator>().unwrap(), Integrator::Expm);
        assert!("euler".parse::<Integrator>().is_err());
        assert_eq!(Integrator::default(), Integrator::Expm);
        assert_eq!(Integrator::Rk4.to_string(), "rk4");
        assert_eq!(Integrator::Expm.to_string(), "expm");
    }

    #[test]
    fn matches_analytic_single_rc() {
        // One node, G_amb = 0.5 W/K, C = 2 J/K: T(t) = T_inf + (T0−T_inf)e^(−t/4).
        let net = ThermalNetwork::from_parts(vec![vec![0.0]], vec![0.5], vec![2.0], 45.0, 1);
        let mut s = ExpPropagator::new(net);
        let p = [10.0];
        let dt = 1.0;
        s.advance(&p, dt);
        let analytic = 65.0 + (45.0f64 - 65.0) * (-dt / 4.0).exp();
        assert!(
            (s.temperatures()[0] - analytic).abs() < 1e-10,
            "expm {} vs analytic {analytic}",
            s.temperatures()[0]
        );
    }

    #[test]
    fn steady_solve_is_bit_identical_to_rk4_solver() {
        let expm = ExpPropagator::new(paper_net());
        let rk4 = ThermalSolver::new(paper_net());
        let nb = expm.network().block_count();
        let power: Vec<f64> = (0..nb).map(|i| 0.1 + 0.04 * (i % 7) as f64).collect();
        for (a, b) in expm
            .solve_steady(&power)
            .iter()
            .zip(rk4.solve_steady(&power))
        {
            assert_eq!(a.to_bits(), b.to_bits(), "steady paths must share bits");
        }
    }

    #[test]
    fn matches_rk4_on_the_paper_floorplan() {
        let mut expm = ExpPropagator::new(paper_net());
        let mut rk4 = ThermalSolver::new(paper_net());
        let nb = expm.network().block_count();
        let hot: Vec<f64> = (0..nb).map(|i| 0.2 + 0.3 * (i % 5) as f64).collect();
        let cool = vec![0.1; nb];
        // A realistic interval sequence: alternating power, dt/2 half-steps.
        let dt = 2e-5;
        for step in 0..20 {
            let p = if step % 2 == 0 { &hot } else { &cool };
            expm.advance(p, dt / 2.0);
            rk4_fine(&mut rk4, p, dt / 2.0);
        }
        for (i, (a, b)) in expm
            .temperatures()
            .iter()
            .zip(rk4.temperatures())
            .enumerate()
        {
            assert!((a - b).abs() < 1e-6, "node {i}: expm {a} vs rk4 {b}");
        }
    }

    #[test]
    fn long_step_relaxes_back_to_steady_state() {
        // Perturb only the block nodes off the steady solution (the sink
        // alone has an hours-long time constant); steps ≫ the block time
        // constants must relax them back.
        let mut s = ExpPropagator::new(paper_net());
        let nb = s.network().block_count();
        let power = vec![0.6; nb];
        let steady = s.solve_steady(&power);
        let mut init = steady.clone();
        for t in init.iter_mut().take(nb) {
            *t -= 1.0;
        }
        s.set_temperatures(init);
        for _ in 0..50 {
            s.advance(&power, 0.01);
        }
        for (i, (got, want)) in s.temperatures().iter().zip(&steady).enumerate().take(nb) {
            assert!((got - want).abs() < 0.5, "node {i}: {got} vs steady {want}");
        }
    }

    #[test]
    fn zero_power_stays_at_ambient() {
        let mut s = ExpPropagator::new(paper_net());
        let nb = s.network().block_count();
        s.advance(&vec![0.0; nb], 0.1);
        for &t in s.temperatures() {
            assert!((t - 45.0).abs() < 1e-9);
        }
    }

    #[test]
    fn advance_is_deterministic() {
        let run = || {
            let mut s = ExpPropagator::new(paper_net());
            let nb = s.network().block_count();
            let p: Vec<f64> = (0..nb).map(|i| 0.3 + 0.02 * i as f64).collect();
            for _ in 0..8 {
                s.advance(&p, 1.3e-5);
            }
            s.temperatures().to_vec()
        };
        let a = run();
        let b = run();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn zero_dt_panics() {
        let mut s = ExpPropagator::new(paper_net());
        let nb = s.network().block_count();
        s.advance(&vec![0.0; nb], 0.0);
    }

    #[test]
    fn expm1_matches_the_platform_library_within_rounding() {
        let mut x = -45.0f64;
        while x < 0.34 {
            for v in [x, x * 1e-3, x * 1e-9, x * 1e-200] {
                let (got, want) = (expm1(v), v.exp_m1());
                assert!(
                    (got - want).abs() <= 4.0 * f64::EPSILON * want.abs(),
                    "expm1({v:e}) = {got:e}, library {want:e}"
                );
            }
            x += 0.0137;
        }
        assert_eq!(expm1(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(expm1(-800.0), -1.0);
    }

    #[test]
    fn basis_reconstructs_the_generator() {
        // B·diag(λ)·W·C must rebuild C⁻¹·A (W·C = Vᵀ·C^{1/2} is the
        // temperature projection), entry by entry, relative to the
        // largest entry of its row.
        for net in paper_nets() {
            let basis = ModalBasis::new(&net);
            let n = net.node_count();
            let a = assemble_matrix(&net);
            for (i, arow) in a.iter().enumerate() {
                let want: Vec<f64> = arow.iter().map(|v| v / net.capacitances()[i]).collect();
                let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                for (j, w) in want.iter().enumerate() {
                    let got: f64 = (0..n)
                        .map(|k| basis.b[i * n + k] * basis.lambda[k] * basis.w[k * n + j])
                        .sum::<f64>()
                        * net.capacitances()[j];
                    assert!(
                        (got - w).abs() <= 1e-12 * scale,
                        "({i}, {j}): {got} vs {w} (row scale {scale})"
                    );
                }
            }
        }
    }

    #[test]
    fn eigenvalues_are_positive_on_every_paper_floorplan() {
        for net in paper_nets() {
            let basis = ModalBasis::new(&net);
            assert_eq!(basis.eigenvalues().len(), net.node_count());
            for &l in basis.eigenvalues() {
                assert!(l > 0.0 && l.is_finite(), "eigenvalue {l}");
            }
        }
    }

    #[test]
    fn jacobi_sweep_count_is_bounded_on_paper_networks() {
        // The no-rotation stop ends a paper decomposition after a handful
        // of sweeps; a stopping rule that never fires runs all MAX_SWEEPS.
        for net in paper_nets() {
            let sweeps = ModalBasis::new(&net).sweeps();
            assert!(sweeps <= 12, "{sweeps} Jacobi sweeps");
        }
    }

    #[test]
    fn zero_ambient_mode_steps_to_the_h_limit() {
        // No path to ambient: λ = 0, and the step's gain must take its
        // λ → 0 limit h instead of dividing by zero.
        let single = ThermalNetwork::from_parts(vec![vec![0.0]], vec![0.0], vec![2.0], 45.0, 1);
        let basis = ModalBasis::new(&single);
        assert_eq!(basis.eigenvalues(), &[0.0]);
        let (mut y, mut t) = (vec![0.0], vec![0.0]);
        basis.project(&[45.0], &mut y);
        basis.step(&mut y, &[10.0], &mut t, 0.5);
        // 10 W into 2 J/K for 0.5 s.
        assert!((t[0] - 47.5).abs() < 1e-12, "{}", t[0]);

        // Two coupled nodes, neither tied to ambient: the heat stays in.
        let pair = ThermalNetwork::from_parts(
            vec![vec![0.0, 0.3], vec![0.3, 0.0]],
            vec![0.0, 0.0],
            vec![1.0, 3.0],
            45.0,
            2,
        );
        let basis = ModalBasis::new(&pair);
        let (mut y, mut t) = (vec![0.0; 2], vec![0.0; 2]);
        basis.project(&[45.0, 45.0], &mut y);
        basis.step(&mut y, &[4.0, 0.0], &mut t, 2.0);
        let heat = 1.0 * (t[0] - 45.0) + 3.0 * (t[1] - 45.0);
        assert!((heat - 8.0).abs() < 1e-12, "stored {heat} J, expected 8 J");
        assert!(t.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn registry_hit_matches_a_rebuilt_basis_bit_for_bit() {
        let net = paper_net();
        let shared = ModalBasis::for_network(&net);
        assert!(Arc::ptr_eq(&shared, &ModalBasis::for_network(&net.clone())));
        let rebuilt = ModalBasis::new(&net);
        let bits = |b: &ModalBasis| -> Vec<u64> {
            b.lambda
                .iter()
                .chain(b.w.iter())
                .chain(b.b.iter())
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&shared), bits(&rebuilt));
    }

    #[test]
    fn batch_columns_match_serial_advance_bits() {
        // Five cells with distinct power profiles and a dt that changes
        // mid-run: every batched column must carry the serial bits.
        let n_cells = 5;
        let net = paper_net();
        let nb = net.block_count();
        let serial_seed = ExpPropagator::new(net);
        let mut batch = serial_seed.batch(n_cells);
        let mut serial: Vec<ExpPropagator> = (0..n_cells).map(|_| serial_seed.clone()).collect();
        let powers: Vec<f64> = (0..nb * n_cells)
            .map(|i| 0.1 + 0.013 * (i % 17) as f64)
            .collect();
        for step in 0..6 {
            let dt = if step < 3 { 1.1e-5 } else { 1.7e-5 };
            batch.advance_all(&powers, dt);
            for (j, s) in serial.iter_mut().enumerate() {
                s.advance(&powers[j * nb..(j + 1) * nb], dt);
            }
        }
        for (j, s) in serial.iter().enumerate() {
            for (i, (a, b)) in batch.column(j).iter().zip(s.temperatures()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "cell {j} node {i}: batch {a} vs serial {b}"
                );
            }
        }
    }

    #[test]
    fn advancing_a_subset_leaves_other_columns_untouched() {
        let net = paper_net();
        let nb = net.block_count();
        let mut batch = BatchPropagator::new(net, 3);
        let powers: Vec<f64> = (0..nb * 3).map(|i| 0.2 + 0.01 * (i % 9) as f64).collect();
        batch.advance_all(&powers, 1e-5);
        let frozen = batch.column(1).to_vec();
        batch.advance_columns(&powers, &[(0, 1e-5), (2, 1e-5)]);
        batch.advance_columns(&powers, &[(0, 2e-5), (2, 2e-5)]);
        for (a, b) in batch.column(1).iter().zip(&frozen) {
            assert_eq!(a.to_bits(), b.to_bits(), "unselected column drifted");
        }
        // And the survivors match serial cells fed the same sequence.
        let mut s = ExpPropagator::new(paper_net());
        s.advance(&powers[..nb], 1e-5);
        s.advance(&powers[..nb], 1e-5);
        s.advance(&powers[..nb], 2e-5);
        for (a, b) in batch.column(0).iter().zip(s.temperatures()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn batch_set_column_restores_state() {
        let net = paper_net();
        let nb = net.block_count();
        let mut batch = BatchPropagator::new(net, 2);
        let warm = vec![55.0; batch.network().node_count()];
        batch.set_column(1, &warm);
        assert_eq!(batch.column(1), &warm[..]);
        assert!((batch.column(0)[0] - 45.0).abs() < 1e-12);
        let powers = vec![0.3; nb * 2];
        batch.advance_all(&powers, 1e-5);
        assert!(batch.column(1)[0] > batch.column(0)[0]);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::solver::ThermalSolver;
    use proptest::prelude::*;

    /// Builds a random well-posed RC network: symmetric non-negative
    /// conductances, strictly positive capacitances, every node tied to
    /// ambient (so the steady-state system is positive definite).
    fn random_net(n: usize, g_raw: &[f64], g_amb: &[f64], c: &[f64]) -> ThermalNetwork {
        let mut g = vec![vec![0.0; n]; n];
        let pairs = (0..n).flat_map(|i| ((i + 1)..n).map(move |j| (i, j)));
        for (k, (i, j)) in pairs.enumerate() {
            g[i][j] = g_raw[k % g_raw.len()];
            g[j][i] = g[i][j];
        }
        ThermalNetwork::from_parts(g, g_amb[..n].to_vec(), c[..n].to_vec(), 45.0, n)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// The propagator matches a finely sub-stepped RK4 reference within
        /// 1e-6 °C over random positive-definite networks driven by random
        /// piecewise-constant power.
        #[test]
        fn expm_matches_rk4_reference(
            n in 2usize..7,
            g_raw in proptest::collection::vec(0.05f64..3.0, 21),
            g_amb in proptest::collection::vec(0.1f64..1.5, 7),
            c in proptest::collection::vec(0.4f64..4.0, 7),
            power in proptest::collection::vec(0.0f64..6.0, 28),
            dt_factor in 0.2f64..2.5,
        ) {
            let net = random_net(n, &g_raw, &g_amb, &c);
            let tau = net.min_time_constant();
            let dt = dt_factor * tau;
            let mut fast = ExpPropagator::new(net.clone());
            let mut reference = ThermalSolver::new(net);
            // Four pieces of constant power, both solvers from ambient.
            for piece in 0..4 {
                let p: Vec<f64> = (0..n).map(|i| power[(piece * n + i) % power.len()]).collect();
                fast.advance(&p, dt);
                let steps = (dt / (tau / 200.0)).ceil().max(1.0) as usize;
                let h = dt / steps as f64;
                for _ in 0..steps {
                    reference.advance(&p, h);
                }
            }
            for (i, (a, b)) in fast
                .temperatures()
                .iter()
                .zip(reference.temperatures())
                .enumerate()
            {
                prop_assert!(
                    (a - b).abs() < 1e-6,
                    "node {}: expm {} vs rk4 {} (n={}, dt={})", i, a, b, n, dt
                );
            }
        }

        /// Batched columns are bit-identical to independent serial
        /// propagators on random RC networks, cohort sizes and powers —
        /// the module's bit-identity contract, pinned.
        #[test]
        fn batch_is_bit_identical_to_serial(
            n in 2usize..7,
            n_cells in 1usize..11,
            g_raw in proptest::collection::vec(0.05f64..3.0, 21),
            g_amb in proptest::collection::vec(0.1f64..1.5, 7),
            c in proptest::collection::vec(0.4f64..4.0, 7),
            power in proptest::collection::vec(0.0f64..6.0, 40),
            dt_factor in 0.2f64..2.5,
        ) {
            let net = random_net(n, &g_raw, &g_amb, &c);
            let dt = dt_factor * net.min_time_constant();
            let seed = ExpPropagator::new(net);
            let mut batch = seed.batch(n_cells);
            let mut serial: Vec<ExpPropagator> =
                (0..n_cells).map(|_| seed.clone()).collect();
            let powers: Vec<f64> = (0..n * n_cells)
                .map(|i| power[i % power.len()])
                .collect();
            for step in 0..3 {
                let h = dt * (1.0 + step as f64 * 0.25);
                batch.advance_all(&powers, h);
                for (j, s) in serial.iter_mut().enumerate() {
                    s.advance(&powers[j * n..(j + 1) * n], h);
                }
            }
            for (j, s) in serial.iter().enumerate() {
                for (a, b) in batch.column(j).iter().zip(s.temperatures()) {
                    prop_assert!(
                        a.to_bits() == b.to_bits(),
                        "cell {} diverged: batch {} vs serial {}", j, a, b
                    );
                }
            }
        }

        /// A cohort whose columns each take their own step size every
        /// interval (and sometimes sit one out) keeps every column's bits
        /// equal to an independent serial propagator's.
        #[test]
        fn batch_with_a_dt_per_column_is_bit_identical_to_serial(
            n in 2usize..7,
            n_cells in 1usize..9,
            g_raw in proptest::collection::vec(0.05f64..3.0, 21),
            g_amb in proptest::collection::vec(0.1f64..1.5, 7),
            c in proptest::collection::vec(0.4f64..4.0, 7),
            power in proptest::collection::vec(0.0f64..6.0, 40),
            dt_factors in proptest::collection::vec(0.0f64..2.5, 32),
        ) {
            let net = random_net(n, &g_raw, &g_amb, &c);
            let tau = net.min_time_constant();
            let seed = ExpPropagator::new(net);
            let mut batch = seed.batch(n_cells);
            let mut serial: Vec<ExpPropagator> =
                (0..n_cells).map(|_| seed.clone()).collect();
            let powers: Vec<f64> = (0..n * n_cells)
                .map(|i| power[i % power.len()])
                .collect();
            for step in 0..4 {
                // A factor below 0.1 leaves the column out this interval.
                let steps: Vec<(usize, f64)> = (0..n_cells)
                    .map(|j| (j, dt_factors[(step * n_cells + j) % dt_factors.len()]))
                    .filter(|&(_, f)| f >= 0.1)
                    .map(|(j, f)| (j, f * tau))
                    .collect();
                batch.advance_columns(&powers, &steps);
                for &(j, h) in &steps {
                    serial[j].advance(&powers[j * n..(j + 1) * n], h);
                }
            }
            for (j, s) in serial.iter().enumerate() {
                for (a, b) in batch.column(j).iter().zip(s.temperatures()) {
                    prop_assert!(
                        a.to_bits() == b.to_bits(),
                        "cell {} diverged: batch {} vs serial {}", j, a, b
                    );
                }
            }
        }
    }
}
