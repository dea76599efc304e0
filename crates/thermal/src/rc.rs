//! The thermal RC network (dynamic compact model).
//!
//! Nodes are the floorplan blocks plus two package nodes (heat spreader and
//! heat sink). Conductances follow the thermal/electrical duality: lateral
//! conductances between adjacent blocks, vertical conductances through die
//! and interface material to the spreader, then spreader→sink and
//! sink→ambient. Thermal capacitors on every node give the model its
//! transient (RC) response — the "dynamic" in dynamic compact model.

use crate::floorplan::Floorplan;
use crate::package::PackageConfig;

/// A thermal RC network ready for solving.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalNetwork {
    /// Symmetric node-to-node conductance matrix in W/K (zero diagonal).
    g: Vec<Vec<f64>>,
    /// Node-to-ambient conductance in W/K (nonzero only for the sink in
    /// floorplan-built networks).
    g_ambient: Vec<f64>,
    /// Node heat capacities in J/K.
    c: Vec<f64>,
    /// Ambient temperature in °C.
    ambient_c: f64,
    /// Number of block nodes (package nodes follow).
    n_blocks: usize,
}

impl ThermalNetwork {
    /// Builds the network for a floorplan and package.
    ///
    /// Node layout: `0..n_blocks` are the floorplan blocks in canonical
    /// order, node `n_blocks` is the spreader, node `n_blocks + 1` the sink.
    pub fn from_floorplan(fp: &Floorplan, pkg: &PackageConfig) -> Self {
        let n_blocks = fp.blocks().len();
        let n = n_blocks + 2;
        let spreader = n_blocks;
        let sink = n_blocks + 1;
        let mut g = vec![vec![0.0; n]; n];
        let mut g_ambient = vec![0.0; n];
        let mut c = vec![0.0; n];

        let rects: Vec<_> = fp.blocks().to_vec();
        let m = fp.machine();
        // Lateral conductances between adjacent blocks (canonical indices).
        for (k, (bi, ri)) in rects.iter().enumerate() {
            let i = m.index_of(*bi);
            for (bj, rj) in rects.iter().skip(k + 1) {
                let shared = ri.shared_edge(rj, 1e-6);
                if shared <= 0.0 {
                    continue;
                }
                // Orientation: side-by-side shares a vertical edge (extent =
                // widths); stacked shares a horizontal edge (extent =
                // heights).
                let side_by_side =
                    ((ri.x + ri.w) - rj.x).abs() < 1e-6 || ((rj.x + rj.w) - ri.x).abs() < 1e-6;
                let (ea, eb) = if side_by_side {
                    (ri.w, rj.w)
                } else {
                    (ri.h, rj.h)
                };
                let r_lat = pkg.lateral_resistance(ea, eb, shared);
                let j = m.index_of(*bj);
                g[i][j] += 1.0 / r_lat;
                g[j][i] = g[i][j];
            }
        }

        // Vertical paths and block capacitances (canonical indices).
        for (b, r) in &rects {
            let i = m.index_of(*b);
            let gv = 1.0 / pkg.vertical_resistance(r.area());
            g[i][spreader] += gv;
            g[spreader][i] = g[i][spreader];
            c[i] = pkg.block_capacitance(r.area());
        }

        // Package path.
        g[spreader][sink] = 1.0 / pkg.r_spreader_sink;
        g[sink][spreader] = g[spreader][sink];
        g_ambient[sink] = 1.0 / pkg.r_convection;
        c[spreader] = pkg.spreader_capacitance();
        c[sink] = pkg.sink_capacitance();

        ThermalNetwork {
            g,
            g_ambient,
            c,
            ambient_c: pkg.ambient_c,
            n_blocks,
        }
    }

    /// Builds a network from raw parts (for tests and extensions).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions disagree, a capacitance is not positive, or
    /// the conductance matrix is not symmetric with a zero diagonal.
    pub fn from_parts(
        g: Vec<Vec<f64>>,
        g_ambient: Vec<f64>,
        c: Vec<f64>,
        ambient_c: f64,
        n_blocks: usize,
    ) -> Self {
        let n = g.len();
        assert_eq!(g_ambient.len(), n);
        assert_eq!(c.len(), n);
        assert!(n_blocks <= n);
        for (i, row) in g.iter().enumerate() {
            assert_eq!(row.len(), n, "G must be square");
            assert_eq!(row[i], 0.0, "G diagonal must be zero");
            for (j, &v) in row.iter().enumerate() {
                assert!(v >= 0.0, "negative conductance");
                assert!((v - g[j][i]).abs() < 1e-12, "G must be symmetric");
            }
        }
        assert!(c.iter().all(|&x| x > 0.0), "capacitances must be positive");
        ThermalNetwork {
            g,
            g_ambient,
            c,
            ambient_c,
            n_blocks,
        }
    }

    /// Whether `other` is this network to the bit: every conductance,
    /// capacitance and the ambient. The identity the process-wide
    /// thermal-parts registry matches a hand-built network on.
    pub(crate) fn same_bits(&self, other: &ThermalNetwork) -> bool {
        let eq = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        self.n_blocks == other.n_blocks
            && self.ambient_c.to_bits() == other.ambient_c.to_bits()
            && eq(&self.c, &other.c)
            && eq(&self.g_ambient, &other.g_ambient)
            && self.g.len() == other.g.len()
            && self.g.iter().zip(&other.g).all(|(a, b)| eq(a, b))
    }

    /// Total number of nodes (blocks + package).
    pub fn node_count(&self) -> usize {
        self.g.len()
    }

    /// Number of block nodes.
    pub fn block_count(&self) -> usize {
        self.n_blocks
    }

    /// Ambient temperature in °C.
    pub fn ambient_c(&self) -> f64 {
        self.ambient_c
    }

    /// Node capacitances in J/K.
    pub fn capacitances(&self) -> &[f64] {
        &self.c
    }

    /// Conductance between two nodes in W/K.
    pub fn conductance(&self, a: usize, b: usize) -> f64 {
        self.g[a][b]
    }

    /// Node-to-ambient conductances in W/K.
    pub fn ambient_conductances(&self) -> &[f64] {
        &self.g_ambient
    }

    /// Net heat flow into each node for temperatures `t` and block powers
    /// `p` (package nodes dissipate nothing), in Watts.
    pub fn heat_balance(&self, t: &[f64], p: &[f64]) -> Vec<f64> {
        let n = self.node_count();
        assert_eq!(t.len(), n);
        assert_eq!(p.len(), self.n_blocks);
        let mut q = vec![0.0; n];
        for i in 0..n {
            let mut flow = if i < self.n_blocks { p[i] } else { 0.0 };
            for j in 0..n {
                flow -= self.g[i][j] * (t[i] - t[j]);
            }
            flow -= self.g_ambient[i] * (t[i] - self.ambient_c);
            q[i] = flow;
        }
        q
    }

    /// Smallest node time constant `C / ΣG` in seconds — the stability
    /// scale for explicit integration.
    pub fn min_time_constant(&self) -> f64 {
        (0..self.node_count())
            .map(|i| {
                let total_g: f64 = self.g[i].iter().sum::<f64>() + self.g_ambient[i];
                self.c[i] / total_g.max(1e-12)
            })
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfront_power::Machine;

    fn network() -> ThermalNetwork {
        let fp = Floorplan::for_machine(Machine::new(1, 4, 2));
        ThermalNetwork::from_floorplan(&fp, &PackageConfig::paper())
    }

    #[test]
    fn node_layout() {
        let net = network();
        assert_eq!(net.block_count(), 48);
        assert_eq!(net.node_count(), 50);
    }

    #[test]
    fn every_block_reaches_the_spreader() {
        let net = network();
        let spreader = net.block_count();
        for i in 0..net.block_count() {
            assert!(net.conductance(i, spreader) > 0.0, "block {i} floats");
        }
    }

    #[test]
    fn package_chain_connected() {
        let net = network();
        let spreader = net.block_count();
        let sink = spreader + 1;
        assert!(net.conductance(spreader, sink) > 0.0);
        assert!(net.ambient_conductances()[sink] > 0.0);
        assert_eq!(net.ambient_conductances()[0], 0.0, "blocks see no ambient");
    }

    #[test]
    fn adjacent_blocks_coupled() {
        let fp = Floorplan::for_machine(Machine::new(1, 4, 2));
        let net = ThermalNetwork::from_floorplan(&fp, &PackageConfig::paper());
        let lateral_pairs = fp.adjacency().len();
        let mut coupled = 0;
        for i in 0..net.block_count() {
            for j in (i + 1)..net.block_count() {
                if net.conductance(i, j) > 0.0 {
                    coupled += 1;
                }
            }
        }
        assert_eq!(coupled, lateral_pairs);
        assert!(coupled > 30, "floorplan should be richly connected");
    }

    #[test]
    fn heat_balance_zero_at_ambient_no_power() {
        let net = network();
        let t = vec![net.ambient_c(); net.node_count()];
        let p = vec![0.0; net.block_count()];
        for q in net.heat_balance(&t, &p) {
            assert!(q.abs() < 1e-9);
        }
    }

    #[test]
    fn min_time_constant_reasonable() {
        let tau = network().min_time_constant();
        // Small blocks settle in 10 µs – 100 ms.
        assert!((1e-5..0.1).contains(&tau), "tau {tau}");
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn from_parts_rejects_asymmetric() {
        let g = vec![vec![0.0, 1.0], vec![2.0, 0.0]];
        ThermalNetwork::from_parts(g, vec![0.0; 2], vec![1.0; 2], 45.0, 2);
    }
}
