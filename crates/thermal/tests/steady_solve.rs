//! The sparse steady-state solve against the dense one it replaced.
//!
//! `SteadyFactor::solve` subtracts only the nonzeros of L and U, in the
//! ascending column order of a dense row-oriented substitution. Skipping
//! an exact zero changes no bit while every operand is finite and the
//! right-hand side holds no `−0.0` (see `SteadyFactor`'s docs), so on such
//! inputs the sparse solve must carry exactly the dense solve's bits. The
//! dense reference below is the elimination and substitution the solver
//! used before, walking every entry.
//!
//! A non-finite operand is where the two may differ (`0·∞` is NaN in the
//! dense solve and skipped in the sparse one). The warm start relies on a
//! runaway power showing up as a non-finite block temperature, so that
//! much is checked for an infinite and a NaN power on every block.

use distfront_power::Machine;
use distfront_thermal::solver::SteadyFactor;
use distfront_thermal::{Floorplan, PackageConfig, ThermalNetwork, ThermalParts};

/// A SplitMix64 stream: the test's random systems and right-hand sides.
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

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A finite value with a random sign and a magnitude spread over six
    /// decades; one draw in five is an exact `+0.0`.
    fn rhs_entry(&mut self) -> f64 {
        if self.below(5) == 0 {
            return 0.0;
        }
        let magnitude = (1.0 + 999.0 * self.unit()) * 10f64.powi(self.below(7) as i32 - 3);
        if self.below(2) == 0 {
            magnitude
        } else {
            -magnitude
        }
    }
}

/// The dense LU the solver computed before it kept only nonzeros: row
/// swaps recorded in `perm`, L below the diagonal, U on and above.
fn dense_factor(mut a: Vec<Vec<f64>>) -> (Vec<Vec<f64>>, Vec<usize>) {
    let n = a.len();
    let mut perm: Vec<usize> = (0..n).collect();
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&i, &j| a[i][col].abs().partial_cmp(&a[j][col].abs()).unwrap())
            .unwrap();
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
    (a, perm)
}

/// Dense row-oriented substitution through every entry of the factors.
fn dense_solve((lu, perm): &(Vec<Vec<f64>>, Vec<usize>), b: &[f64]) -> Vec<f64> {
    let n = lu.len();
    let mut x: Vec<f64> = perm.iter().map(|&p| b[p]).collect();
    for row in 1..n {
        let mut acc = x[row];
        for col in 0..row {
            acc -= lu[row][col] * x[col];
        }
        x[row] = acc;
    }
    for row in (0..n).rev() {
        let mut acc = x[row];
        for col in row + 1..n {
            acc -= lu[row][col] * x[col];
        }
        x[row] = acc / lu[row][row];
    }
    x
}

/// The steady-state matrix `L + diag(G_amb)` of `net`, assembled as the
/// solver assembles it (unconnected pairs hold `−0.0`).
fn system_matrix(net: &ThermalNetwork) -> Vec<Vec<f64>> {
    let n = net.node_count();
    (0..n)
        .map(|i| {
            let mut row = vec![0.0; n];
            let mut diag = net.ambient_conductances()[i];
            for (j, cell) in row.iter_mut().enumerate() {
                if i != j {
                    let g = net.conductance(i, j);
                    *cell = -g;
                    diag += g;
                }
            }
            row[i] = diag;
            row
        })
        .collect()
}

/// Every machine shape a floorplan exists for: one or two frontend
/// partitions, two or three trace-cache banks, one to four backends.
/// The scenario registry's machines are among them
/// (`tests/thermal_parts.rs` checks that).
fn floorplan_machines() -> Vec<Machine> {
    let mut out = Vec::new();
    for partitions in 1..=2 {
        for banks in 2..=3 {
            for backends in 1..=4 {
                out.push(Machine::new(partitions, backends, banks));
            }
        }
    }
    out
}

fn network(machine: Machine) -> ThermalNetwork {
    ThermalNetwork::from_floorplan(&Floorplan::for_machine(machine), &PackageConfig::paper())
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Solves through the sparse factor `f` into a fresh buffer.
fn sparse_solve(f: &SteadyFactor, b: &[f64]) -> Vec<f64> {
    let mut x = vec![f64::NAN; b.len()];
    f.solve(b, &mut x);
    x
}

#[test]
fn every_floorplan_factor_solves_like_the_dense_reference() {
    let mut rng = Rng(0x5eed_0001);
    for machine in floorplan_machines() {
        let a = system_matrix(&network(machine));
        let n = a.len();
        let sparse = SteadyFactor::factor(a.clone());
        let dense = dense_factor(a);
        for case in 0..64 {
            let b: Vec<f64> = (0..n).map(|_| rng.rhs_entry()).collect();
            assert_eq!(
                bits(&sparse_solve(&sparse, &b)),
                bits(&dense_solve(&dense, &b)),
                "{machine:?}, right-hand side {case}"
            );
        }
    }
}

#[test]
fn registry_parts_solve_the_steady_state_like_the_dense_reference() {
    let mut rng = Rng(0x5eed_0002);
    for machine in floorplan_machines() {
        let parts = ThermalParts::for_machine(machine, &PackageConfig::paper());
        let net = parts.network();
        let dense = dense_factor(system_matrix(net));
        for case in 0..16 {
            // Block powers from 0 to 8 W, one in five exactly zero.
            let power: Vec<f64> = (0..net.block_count())
                .map(|_| {
                    if rng.below(5) == 0 {
                        0.0
                    } else {
                        8.0 * rng.unit()
                    }
                })
                .collect();
            let b: Vec<f64> = (0..net.node_count())
                .map(|i| {
                    let p = if i < net.block_count() { power[i] } else { 0.0 };
                    p + net.ambient_conductances()[i] * net.ambient_c()
                })
                .collect();
            assert_eq!(
                bits(&parts.solve_steady(&power)),
                bits(&dense_solve(&dense, &b)),
                "{machine:?}, power {case}"
            );
        }
    }
}

/// A random row-diagonally-dominant system of dimension `n`: each
/// off-diagonal entry is nonzero with probability `density`, and an
/// exact `+0.0` or `−0.0` otherwise. Its columns are not dominant, so
/// partial pivoting swaps rows.
fn random_system(rng: &mut Rng, n: usize, density: f64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let mut row: Vec<f64> = (0..n)
                .map(|_| {
                    if rng.unit() < density {
                        (rng.unit() - 0.5) * 10f64.powi(rng.below(5) as i32 - 2)
                    } else if rng.below(2) == 0 {
                        0.0
                    } else {
                        -0.0
                    }
                })
                .collect();
            let off: f64 = (0..n).filter(|&j| j != i).map(|j| row[j].abs()).sum();
            row[i] = (off + 0.1 + rng.unit()) * if rng.below(4) == 0 { -1.0 } else { 1.0 };
            row
        })
        .collect()
}

#[test]
fn random_dominant_systems_solve_like_the_dense_reference() {
    let mut rng = Rng(0x5eed_0003);
    for system in 0..400 {
        let n = 1 + rng.below(60) as usize;
        let density = [0.02, 0.1, 0.3, 1.0][system % 4];
        let a = random_system(&mut rng, n, density);
        let sparse = SteadyFactor::factor(a.clone());
        let dense = dense_factor(a);
        for case in 0..8 {
            let b: Vec<f64> = (0..n).map(|_| rng.rhs_entry()).collect();
            assert_eq!(
                bits(&sparse_solve(&sparse, &b)),
                bits(&dense_solve(&dense, &b)),
                "system {system} (n = {n}, density {density}), right-hand side {case}"
            );
        }
    }
}

#[test]
fn a_non_finite_block_power_gives_a_non_finite_block_temperature() {
    for machine in floorplan_machines() {
        let parts = ThermalParts::for_machine(machine, &PackageConfig::paper());
        let nb = parts.network().block_count();
        for block in 0..nb {
            for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
                let mut power = vec![1.0; nb];
                power[block] = bad;
                let t = parts.solve_steady(&power);
                assert!(
                    t[..nb].iter().any(|t| !t.is_finite()),
                    "{machine:?}: power {bad} on block {block} left every block finite"
                );
            }
        }
    }
}
