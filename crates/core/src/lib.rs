//! # distfront — Distributing the Frontend for Temperature Reduction
//!
//! A full reproduction of Chaparro, Magklis, González & González,
//! *"Distributing the Frontend for Temperature Reduction"*, HPCA-11, 2005:
//! the distributed rename/commit mechanism, the sub-banked trace cache with
//! bank hopping, and the thermal-aware biased bank mapping — together with
//! every substrate the paper's evaluation depends on (cycle-level clustered
//! simulator, synthetic SPEC2000-class workloads, activity-based power
//! model, HotSpot-style RC thermal model and the Fig. 10/11 floorplans).
//!
//! The three contributions, and where they live:
//!
//! | Paper section | Implementation |
//! |---|---|
//! | §3.1 distributed renaming | [`distfront_uarch::rename`] |
//! | §3.1.2 distributed commit (R/L walk) | [`distfront_uarch::rob`] |
//! | §3.2.1 bank hopping | [`distfront_cache::trace_cache`] |
//! | §3.2.2 biased mapping | [`distfront_cache::mapping`] |
//!
//! This crate ties the stack together: [`experiment`] holds the evaluated
//! configurations, [`engine`] couples simulator ⇄ power ⇄ thermal as a
//! staged pipeline (pilot → warm start → interval loop) with a parallel
//! [`SweepRunner`] over the app × config grid, [`runner`] keeps the
//! one-cell entry point and result types, and [`figures`] regenerates
//! every figure of §4 from one grid.
//!
//! # Examples
//!
//! Run the baseline on one application and inspect its thermal profile:
//!
//! ```
//! use distfront::{ExperimentConfig, run_app};
//! use distfront_trace::AppProfile;
//!
//! let cfg = ExperimentConfig::baseline().with_uops(50_000);
//! let result = run_app(&cfg, &AppProfile::test_tiny());
//! assert!(result.temps.frontend.abs_max_c > 45.0); // warm frontend
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dtm;
pub mod engine;
pub mod experiment;
pub mod figures;
pub mod job;
pub mod report;
pub mod runner;
pub mod scenarios;
pub mod server;
pub mod shard;
pub mod store;

pub use distfront_thermal::Integrator;
// The four DTM policies are data; `DtmSpec::build` turns one into a
// controller.
pub use dtm::{DvfsPolicy, EmergencyPolicy, FetchGatePolicy, MigrationPolicy};
pub use engine::{
    CellOutcome, CoupledEngine, DtmAction, DtmPolicy, EngineError, ReplayBackend, SweepReport,
    SweepRunner, TraceMode, TraceStore, WarmStartCache,
};
pub use experiment::{DtmSpec, ExperimentConfig};
pub use figures::{FigureData, AMBIENT_C};
pub use job::{JobClass, JobEnv, JobReport, JobSpec, JobSpecError, StatusCode, TraceSpec};
pub use report::{FigureRow, FigureTable};
pub use runner::{average_temps, mean_cpi, run_app, slowdown, AppResult, BlockGroups, TempReport};
pub use scenarios::Scenario;
pub use store::{DurableStore, StoreSnapshot};
