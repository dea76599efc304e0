//! Thermal modelling for the `distfront` simulator.
//!
//! A HotSpot-style *dynamic compact model* (Skadron et al. \[26\]\[27\], which
//! the paper's own model follows): the floorplan's blocks become nodes of an
//! RC network — thermal resistances from the electrical/thermal duality,
//! thermal capacitors for the transient response — connected laterally to
//! their neighbours and vertically through the package (copper heat
//! spreader and heat sink of the paper's §4) to the 45 °C in-box ambient.
//!
//! * [`floorplan`] — Fig. 10/11 floorplans, parametric in the machine shape
//!   (centralized/distributed frontend, 2 or 3 trace-cache banks),
//! * [`package`] — die, interface, spreader, sink and convection parameters,
//! * [`rc`] — building the conductance matrix and capacitance vector,
//! * [`solver`] — steady-state solve (warm start, as the paper boots its
//!   simulations already warm) and the RK4 reference transient integrator,
//! * [`expm`] — the default transient path: an exact step in the
//!   network's modal coordinates, with one eigenbasis per network,
//! * [`metrics`] — the paper's AbsMax / Average / AvgMax temperature
//!   metrics over block groups.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expm;
pub mod floorplan;
pub mod metrics;
pub mod package;
pub mod rc;
pub mod solver;

pub use expm::{BatchPropagator, ExpPropagator, Integrator, ModalBasis};
pub use floorplan::{Floorplan, Rect};
pub use metrics::{GroupMetrics, TemperatureTracker};
pub use package::PackageConfig;
pub use rc::ThermalNetwork;
pub use solver::{SteadyFactor, ThermalSolver};
