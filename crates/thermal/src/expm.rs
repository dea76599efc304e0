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
//! [`ModalBasis`] holds `(λ, W, B)`. Nothing is precomputed per step
//! size: the spread of interval lengths that DVFS, throttling and
//! whole-trace interval overshoot produce costs nothing.
//!
//! # One set of parts per machine
//!
//! Everything a solver needs that depends on the network alone, the
//! network, the LU factor of `A` for steady-state solves and the modal
//! basis, is one [`ThermalParts`], built at most once per process and
//! shared by `Arc` (the basis on its first use, so the RK4 reference,
//! which never steps through it, never decomposes it). The registry keys it two ways: by machine shape and
//! package ([`ThermalParts::for_machine`], the engine's lookup, which
//! builds no network on a hit) and by the network's exact bits
//! ([`ThermalParts::for_network`], for hand-built networks). Every part
//! is a pure function of the network's bits, so a registry hit hands out
//! exactly the bits a fresh build would.
//!
//! # One projection per interval
//!
//! The interval loop advances each interval in two half-steps under the
//! same power, so both share `h` and `b`. [`ModalBasis::prepare`] computes
//! the step's inputs (`g` scaled by the gains, and the decay factors)
//! once, and [`ModalBasis::apply`] updates `y` and reconstructs `T` from
//! them; [`ExpPropagator::advance_interval`] prepares once and applies
//! twice. [`ExpPropagator::set_temperatures`] defers its projection onto
//! `y` to the next advance, so a warm start that sets the state on every
//! fixed-point iteration projects once.
//!
//! # Bit-identity contract
//!
//! Every output of [`ModalBasis::prepare`] and [`ModalBasis::apply`] is
//! one fixed IEEE operation sequence, whatever the step size or how the
//! projections are blocked. An [`ExpPropagator`] interval therefore
//! carries exactly the bits of two `advance` calls of half its length:
//! each output is the same sequence, computed once.
//!
//! [`ThermalSolver`]'s RK4 integrator remains the cross-check reference
//! (mirroring how `solve_steady_dense` backs `SteadyFactor`); the property
//! tests at the bottom of this module pin the two within 1e-6 °C.
//!
//! [`ThermalSolver`]: crate::solver::ThermalSolver

use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use distfront_power::Machine;

use crate::floorplan::Floorplan;
use crate::package::PackageConfig;
use crate::rc::ThermalNetwork;
use crate::solver::{assemble_matrix, assemble_rhs_into, SteadyFactor};

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

/// Distinct registrations a process keeps. A sweep touches one network
/// per machine shape (the paper evaluates four), so eviction only happens
/// on synthetic inputs, and rebuilt parts have the same bits.
const REGISTRY_SLOTS: usize = 32;

/// Parts built so far in this process, oldest first.
static REGISTRY: Mutex<Vec<Registration>> = Mutex::new(Vec::new());

/// One registry entry: shared parts, and the machine shape and package
/// they were built for when the request named one.
struct Registration {
    machine: Option<MachineKey>,
    parts: Arc<ThermalParts>,
}

/// A machine shape and the bits of its package.
#[derive(Clone, Copy, PartialEq, Eq)]
struct MachineKey {
    machine: Machine,
    package: [u64; 15],
}

fn registry() -> MutexGuard<'static, Vec<Registration>> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The registered parts whose network is `net` to the bit.
fn find_network(reg: &[Registration], net: &ThermalNetwork) -> Option<Arc<ThermalParts>> {
    reg.iter()
        .find(|r| r.parts.net.same_bits(net))
        .map(|r| Arc::clone(&r.parts))
}

/// Everything a solver needs that depends on its network alone: the
/// network, the LU factor of its steady-state matrix and its modal basis.
/// The basis is decomposed on its first use, so parts that only ever
/// serve the RK4 reference never pay for it.
///
/// Build it through [`ThermalParts::for_machine`] or
/// [`ThermalParts::for_network`], which compute each network's parts at
/// most once per process and hand out shared references afterwards.
/// [`ExpPropagator`] and the RK4
/// [`ThermalSolver`](crate::solver::ThermalSolver) hold them by `Arc`.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use distfront_power::Machine;
/// use distfront_thermal::{ExpPropagator, PackageConfig, ThermalParts};
///
/// let machine = Machine::new(1, 4, 2);
/// let parts = ThermalParts::for_machine(machine, &PackageConfig::paper());
/// // A second request is a lookup, not a rebuild.
/// assert!(Arc::ptr_eq(&parts, &ThermalParts::for_machine(machine, &PackageConfig::paper())));
/// let solver = ExpPropagator::with_parts(parts);
/// assert_eq!(solver.network().block_count(), machine.block_count());
/// ```
#[derive(Debug)]
pub struct ThermalParts {
    net: ThermalNetwork,
    steady: SteadyFactor,
    basis: OnceLock<ModalBasis>,
}

impl ThermalParts {
    /// Builds the parts of `net` from scratch: the LU factorization now,
    /// the Jacobi decomposition (a few milliseconds on a paper network)
    /// at the first [`basis`](Self::basis) call. Prefer the shared
    /// [`ThermalParts::for_machine`] and [`ThermalParts::for_network`].
    pub fn new(net: ThermalNetwork) -> Self {
        let steady = SteadyFactor::factor(assemble_matrix(&net));
        ThermalParts {
            net,
            steady,
            basis: OnceLock::new(),
        }
    }

    /// The parts of `machine`'s floorplan network under `pkg`, built on
    /// the first request in this process and shared afterwards. A repeat
    /// request matches the machine shape and the package's exact bits,
    /// and builds no network.
    pub fn for_machine(machine: Machine, pkg: &PackageConfig) -> Arc<Self> {
        let key = MachineKey {
            machine,
            package: pkg.bits(),
        };
        let hit = registry()
            .iter()
            .find(|r| r.machine == Some(key))
            .map(|r| Arc::clone(&r.parts));
        hit.unwrap_or_else(|| {
            let net = ThermalNetwork::from_floorplan(&Floorplan::for_machine(machine), pkg);
            ThermalParts::register(Some(key), net)
        })
    }

    /// The parts of `net`, built on the first request in this process and
    /// shared afterwards. Matching is on the network's exact bits, so a
    /// repeat request costs one comparison, not a factorization.
    pub fn for_network(net: ThermalNetwork) -> Arc<Self> {
        let hit = find_network(&registry(), &net);
        hit.unwrap_or_else(|| ThermalParts::register(None, net))
    }

    /// Registers `net` under `machine`, sharing any registered parts of
    /// the same network.
    fn register(machine: Option<MachineKey>, net: ThermalNetwork) -> Arc<Self> {
        let known = find_network(&registry(), &net);
        // Build outside the lock; a racing thread builds the same bits,
        // and whichever registers first is the one every thread keeps.
        let built = known.unwrap_or_else(|| Arc::new(ThermalParts::new(net)));
        let mut reg = registry();
        let parts = find_network(&reg, &built.net).unwrap_or(built);
        let registered = reg
            .iter()
            .any(|r| r.machine == machine && Arc::ptr_eq(&r.parts, &parts));
        if !registered {
            if reg.len() == REGISTRY_SLOTS {
                reg.remove(0);
            }
            reg.push(Registration {
                machine,
                parts: Arc::clone(&parts),
            });
        }
        parts
    }

    /// The network.
    pub fn network(&self) -> &ThermalNetwork {
        &self.net
    }

    /// The network's modal basis, decomposed on the first call; racing
    /// first calls wait for one decomposition.
    pub fn basis(&self) -> &ModalBasis {
        self.basis.get_or_init(|| ModalBasis::new(&self.net))
    }

    /// The steady-state temperatures under constant block `power`.
    ///
    /// # Panics
    ///
    /// Panics if `power` does not have one entry per block.
    pub fn solve_steady(&self, power: &[f64]) -> Vec<f64> {
        let n = self.net.node_count();
        let mut t = vec![0.0; n];
        self.solve_steady_into(power, &mut vec![0.0; n], &mut t);
        t
    }

    /// [`solve_steady`](Self::solve_steady) into `t`, assembling the
    /// right-hand side in the scratch `rhs`: no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `power` does not have one entry per block, or `rhs` or
    /// `t` one per node.
    fn solve_steady_into(&self, power: &[f64], rhs: &mut [f64], t: &mut [f64]) {
        assert_eq!(
            power.len(),
            self.net.block_count(),
            "one power entry per block"
        );
        assemble_rhs_into(&self.net, power, rhs);
        self.steady.solve(rhs, t);
    }
}

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
    /// Prefer [`ThermalParts`], whose registry decomposes each network
    /// once per process.
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

    /// Prepares a step of `h` seconds under the constant nodal
    /// right-hand side `rhs`: `g = W·b`, the decay factors `e^(−hλ)` and
    /// the gains `expm1(−hλ)/λ` applied to `g`. One preparation serves any
    /// number of consecutive [`apply`](Self::apply) calls with the same
    /// `h` and `rhs`.
    pub fn prepare(&self, rhs: &[f64], h: f64, step: &mut ModalStep) {
        mul_transposed(&self.b, rhs, &mut step.drive);
        // Interval half-steps keep every `hλ` on expm1's Taylor path, and
        // there the per-mode loop has no branch left and vectorizes: the
        // same operations per mode as through `expm1`.
        if self.lambda.iter().all(|&lk| (h * lk).abs() <= TAYLOR_MAX) {
            self.scale_modes(h, step, expm1_taylor);
        } else {
            self.scale_modes(h, step, expm1);
        }
    }

    /// The per-mode half of [`prepare`](Self::prepare), with `em1` as
    /// `expm1`.
    #[inline(always)]
    fn scale_modes(&self, h: f64, step: &mut ModalStep, em1: impl Fn(f64) -> f64) {
        for ((decay, drive), &lk) in step
            .decay
            .iter_mut()
            .zip(step.drive.iter_mut())
            .zip(self.lambda.iter())
        {
            let x = -h * lk;
            // One transcendental per mode: e^x = 1 + expm1(x), and
            // expm1(x)/λ → −h as λ → 0 (a mode with no path to ambient).
            let em1 = em1(x);
            let gain = if x == 0.0 { -h } else { em1 / lk };
            *decay = 1.0 + em1;
            *drive *= gain;
        }
    }

    /// Advances modal state `y` by a prepared step and writes the
    /// resulting node temperatures to `t` (its input is ignored).
    pub fn apply(&self, step: &ModalStep, y: &mut [f64], t: &mut [f64]) {
        for ((yk, &decay), &drive) in y.iter_mut().zip(step.decay.iter()).zip(step.drive.iter()) {
            *yk = decay * *yk - drive;
        }
        mul_transposed(&self.w, y, t);
    }
}

/// A prepared modal step: per mode, the decay factor `e^(−hλ)` and the
/// drive `(expm1(−hλ)/λ)·g`. [`ModalBasis::prepare`] fills it and
/// [`ModalBasis::apply`] reads it; the buffers are reused across steps.
#[derive(Debug, Clone)]
pub struct ModalStep {
    decay: Box<[f64]>,
    drive: Box<[f64]>,
}

impl ModalStep {
    /// An unprepared step for an `n`-node network.
    pub fn new(n: usize) -> Self {
        ModalStep {
            decay: vec![0.0; n].into_boxed_slice(),
            drive: vec![0.0; n].into_boxed_slice(),
        }
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
    if x.abs() <= TAYLOR_MAX {
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

/// The largest `|x|` [`expm1`] evaluates by its Taylor polynomial alone.
const TAYLOR_MAX: f64 = 0.5 * std::f64::consts::LN_2;

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
/// sums its terms in that one order, so the bits are fixed. Outputs are
/// taken in blocks of 16, then 4, then 1, each block held in registers
/// over all rows and stored once, while the loop across a block's
/// independent elements vectorizes.
fn mul_transposed(m: &[f64], x: &[f64], out: &mut [f64]) {
    let n = out.len();
    let mut c0 = 0;
    while c0 + 16 <= n {
        mul_transposed_block::<16>(m, x, c0, out);
        c0 += 16;
    }
    while c0 + 4 <= n {
        mul_transposed_block::<4>(m, x, c0, out);
        c0 += 4;
    }
    while c0 < n {
        mul_transposed_block::<1>(m, x, c0, out);
        c0 += 1;
    }
}

/// Outputs `c0..c0 + W` of [`mul_transposed`].
#[inline(always)]
fn mul_transposed_block<const W: usize>(m: &[f64], x: &[f64], c0: usize, out: &mut [f64]) {
    let mut acc = [0.0f64; W];
    for (row, &xr) in m.chunks_exact(out.len()).zip(x) {
        let row: &[f64; W] = row[c0..c0 + W].try_into().unwrap();
        for (a, &mr) in acc.iter_mut().zip(row) {
            *a += mr * xr;
        }
    }
    out[c0..c0 + W].copy_from_slice(&acc);
}

/// Owns the temperature state of a [`ThermalNetwork`] and advances it
/// exactly through the network's [`ModalBasis`].
///
/// Drop-in alternative to [`ThermalSolver`](crate::solver::ThermalSolver):
/// the same shared LU factorization backs the steady-state solves, and
/// `advance` is exact for the piecewise-constant power the interval loop
/// supplies, for any step size. The advance path is allocation-free.
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
    parts: Arc<ThermalParts>,
    /// Node temperatures in °C.
    t: Vec<f64>,
    /// Modal coordinates of `t` once `projected` is set.
    y: Vec<f64>,
    /// Whether `y` is current; a state overwrite clears it, and the next
    /// advance projects.
    projected: bool,
    /// Scratch: assembled right-hand side `b = P + G_amb·T_amb`.
    rhs: Vec<f64>,
    /// Scratch: the prepared modal step.
    step: ModalStep,
}

impl ExpPropagator {
    /// Creates a modal solver with every node at ambient, on the parts of
    /// `net` from the process registry (built on the first request for
    /// this network, a bit comparison afterwards).
    pub fn new(net: ThermalNetwork) -> Self {
        ExpPropagator::with_parts(ThermalParts::for_network(net))
    }

    /// Creates a modal solver with every node at ambient on shared parts.
    pub fn with_parts(parts: Arc<ThermalParts>) -> Self {
        let n = parts.net.node_count();
        ExpPropagator {
            t: vec![parts.net.ambient_c(); n],
            y: vec![0.0; n],
            projected: false,
            rhs: vec![0.0; n],
            step: ModalStep::new(n),
            parts,
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &ThermalNetwork {
        &self.parts.net
    }

    /// All node temperatures (blocks, then spreader, then sink) in °C.
    pub fn temperatures(&self) -> &[f64] {
        &self.t
    }

    /// Block temperatures only, in °C.
    pub fn block_temperatures(&self) -> &[f64] {
        &self.t[..self.parts.net.block_count()]
    }

    /// Overwrites the state (for warm-start restore / checkpointing). The
    /// projection onto modal coordinates waits for the next advance, so
    /// overwriting the state repeatedly costs one projection.
    ///
    /// # Panics
    ///
    /// Panics if the length does not match the node count.
    pub fn set_temperatures(&mut self, t: Vec<f64>) {
        assert_eq!(t.len(), self.parts.net.node_count());
        self.t = t;
        self.projected = false;
    }

    /// Computes the steady-state temperatures without changing the state,
    /// through the shared factorization. Bit-identical to
    /// [`ThermalSolver::solve_steady`](crate::solver::ThermalSolver::solve_steady)
    /// on the same network.
    pub fn solve_steady(&self, power: &[f64]) -> Vec<f64> {
        self.parts.solve_steady(power)
    }

    /// Solves for the steady state under constant block `power` and adopts
    /// it as the current state, solving into the state itself: a warm
    /// start's fixed point allocates nothing per iteration.
    ///
    /// # Panics
    ///
    /// Panics if `power` does not have one entry per block.
    pub fn set_steady_state(&mut self, power: &[f64]) {
        self.parts
            .solve_steady_into(power, &mut self.rhs, &mut self.t);
        self.projected = false;
    }

    /// Advances the transient state by `dt` seconds under constant block
    /// `power`: one modal step, exact for constant power.
    ///
    /// # Panics
    ///
    /// Panics if `power` does not have one entry per block or `dt` is not
    /// positive.
    pub fn advance(&mut self, power: &[f64], dt: f64) {
        self.prepare(power, dt);
        self.parts
            .basis()
            .apply(&self.step, &mut self.y, &mut self.t);
    }

    /// Advances one interval of `dt` seconds under constant block `power`
    /// in two half-steps, calling `sample` with the block temperatures and
    /// the half-step length after each. The step is prepared once and
    /// applied twice: the bits of two [`advance`](Self::advance) calls of
    /// `dt / 2`, with one projection of the power instead of two.
    ///
    /// # Panics
    ///
    /// Panics if `power` does not have one entry per block or `dt / 2` is
    /// not positive.
    pub fn advance_interval(
        &mut self,
        power: &[f64],
        dt: f64,
        mut sample: impl FnMut(&[f64], f64),
    ) {
        let h = dt / 2.0;
        self.prepare(power, h);
        let nb = self.parts.net.block_count();
        for _half in 0..2 {
            self.parts
                .basis()
                .apply(&self.step, &mut self.y, &mut self.t);
            sample(&self.t[..nb], h);
        }
    }

    /// Projects a pending state overwrite and prepares a step of `h`
    /// under `power`.
    fn prepare(&mut self, power: &[f64], h: f64) {
        assert!(h > 0.0, "dt must be positive");
        let parts = &*self.parts;
        assert_eq!(power.len(), parts.net.block_count());
        if !self.projected {
            parts.basis().project(&self.t, &mut self.y);
            self.projected = true;
        }
        assemble_rhs_into(&parts.net, power, &mut self.rhs);
        parts.basis().prepare(&self.rhs, h, &mut self.step);
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
        let (mut y, mut t, mut step) = (vec![0.0], vec![0.0], ModalStep::new(1));
        basis.project(&[45.0], &mut y);
        basis.prepare(&[10.0], 0.5, &mut step);
        basis.apply(&step, &mut y, &mut t);
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
        let (mut y, mut t, mut step) = (vec![0.0; 2], vec![0.0; 2], ModalStep::new(2));
        basis.project(&[45.0, 45.0], &mut y);
        basis.prepare(&[4.0, 0.0], 2.0, &mut step);
        basis.apply(&step, &mut y, &mut t);
        let heat = 1.0 * (t[0] - 45.0) + 3.0 * (t[1] - 45.0);
        assert!((heat - 8.0).abs() < 1e-12, "stored {heat} J, expected 8 J");
        assert!(t.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn registry_hit_matches_a_rebuilt_basis_bit_for_bit() {
        let net = paper_net();
        let shared = ThermalParts::for_network(net.clone());
        assert!(Arc::ptr_eq(
            &shared,
            &ThermalParts::for_network(net.clone())
        ));
        // The machine lookup finds the same network's parts.
        let by_machine = ThermalParts::for_machine(Machine::new(1, 4, 2), &PackageConfig::paper());
        assert!(Arc::ptr_eq(&shared, &by_machine));
        let rebuilt = ThermalParts::new(net);
        let bits = |p: &ThermalParts| -> Vec<u64> {
            let b = p.basis();
            b.lambda
                .iter()
                .chain(b.w.iter())
                .chain(b.b.iter())
                .chain(b.c.iter())
                .chain(p.solve_steady(&vec![1.0; p.network().block_count()]).iter())
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&shared), bits(&rebuilt));
    }

    #[test]
    fn the_rk4_reference_never_decomposes_the_basis() {
        let parts = Arc::new(ThermalParts::new(paper_net()));
        let mut rk4 = ThermalSolver::with_parts(Arc::clone(&parts));
        let nb = rk4.network().block_count();
        rk4.set_steady_state(&vec![0.4; nb]);
        rk4.advance(&vec![0.6; nb], 1e-5);
        assert!(parts.basis.get().is_none(), "RK4 decomposed the basis");
        ExpPropagator::with_parts(Arc::clone(&parts)).advance(&vec![0.6; nb], 1e-5);
        assert!(parts.basis.get().is_some());
    }

    #[test]
    fn a_package_with_other_bits_is_another_registration() {
        let machine = Machine::new(2, 4, 3);
        let paper = ThermalParts::for_machine(machine, &PackageConfig::paper());
        let cooler = PackageConfig {
            ambient_c: 40.0,
            ..PackageConfig::paper()
        };
        let other = ThermalParts::for_machine(machine, &cooler);
        assert!(!Arc::ptr_eq(&paper, &other));
        assert_eq!(other.network().ambient_c(), 40.0);
        assert!(Arc::ptr_eq(
            &other,
            &ThermalParts::for_machine(machine, &cooler)
        ));
    }

    /// The blocked `mul_transposed` against the plain row-order loop it
    /// replaced, bit for bit, at every size up to 70 (every mix of 16-,
    /// 4- and 1-wide blocks), on values spanning 40 binary orders of
    /// magnitude and both signs so any change of summation order shows.
    #[test]
    fn blocked_mul_transposed_equals_the_row_order_sum() {
        fn row_order(m: &[f64], x: &[f64], out: &mut [f64]) {
            out.fill(0.0);
            for (row, &xr) in m.chunks_exact(out.len()).zip(x) {
                for (o, &mr) in out.iter_mut().zip(row) {
                    *o += mr * xr;
                }
            }
        }
        let mut rng = proptest::TestRng::from_name("blocked_mul_transposed");
        let mut value = || {
            let scale = (rng.next_f64() * 40.0 - 20.0).exp2();
            (rng.next_f64() - 0.5) * scale
        };
        for n in 1..=70 {
            for _ in 0..4 {
                let m: Vec<f64> = (0..n * n).map(|_| value()).collect();
                let x: Vec<f64> = (0..n).map(|_| value()).collect();
                let (mut want, mut got) = (vec![0.0; n], vec![f64::NAN; n]);
                row_order(&m, &x, &mut want);
                mul_transposed(&m, &x, &mut got);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "n = {n}");
            }
        }
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

    /// Parts of a one-off network, kept out of the process registry so
    /// the random networks cannot evict the paper networks' parts.
    fn unregistered(net: ThermalNetwork) -> Arc<ThermalParts> {
        Arc::new(ThermalParts::new(net))
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
            let parts = unregistered(net);
            let mut fast = ExpPropagator::with_parts(Arc::clone(&parts));
            let mut reference = ThermalSolver::with_parts(parts);
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
    }
}
