//! Experiment configurations: the baseline and every technique the paper
//! evaluates, as presets.

use crate::dtm::{
    DvfsPolicy, EmergencyPolicy, FetchGatePolicy, Hysteresis, MigrationController, MigrationPolicy,
};
use crate::engine::{DtmAction, DtmPolicy};
use distfront_cache::trace_cache::TraceCacheConfig;
use distfront_power::{LeakageModel, Machine};
use distfront_thermal::Integrator;
use distfront_trace::record::PointKey;
use distfront_uarch::{FrontendMode, ProcessorConfig};

/// Which dynamic-thermal-management policy a configuration runs with.
///
/// A spec is pure data — the engine builds the matching controller from it
/// with [`build`](Self::build) when a run starts, which keeps
/// [`ExperimentConfig`] a complete, copyable description of an experiment
/// and lets the parallel sweep executor rebuild identical controllers in
/// every worker. `build` is the only way to get a built-in controller
/// (see [`crate::dtm`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DtmSpec {
    /// The conventional emergency throttle: the threshold controller,
    /// holding [`DtmAction::Throttle`] after each violation.
    Emergency(EmergencyPolicy),
    /// Global voltage/frequency scaling: the threshold controller,
    /// returning [`DtmAction::Dvfs`] until the chip cools below release.
    GlobalDvfs(DvfsPolicy),
    /// Fetch toggling: the threshold controller, returning
    /// [`DtmAction::FetchGate`] until the chip cools below release.
    FetchGate(FetchGatePolicy),
    /// Front-end activity migration: the migration controller, returning
    /// [`DtmAction::MigrateTo`] the cooler partition.
    Migration(MigrationPolicy),
}

impl DtmSpec {
    /// Validates the underlying policy.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            DtmSpec::Emergency(p) => p.validate(),
            DtmSpec::GlobalDvfs(p) => p.validate(),
            DtmSpec::FetchGate(p) => p.validate(),
            DtmSpec::Migration(p) => p.validate(),
        }
    }

    /// Builds the controller this spec describes, watching `machine`.
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid (call [`validate`](Self::validate)
    /// first for a recoverable error).
    pub fn build(&self, machine: Machine) -> Box<dyn DtmPolicy> {
        if let Err(e) = self.validate() {
            panic!("bad {} policy: {e}", self.name());
        }
        match *self {
            DtmSpec::Emergency(p) => Box::new(Hysteresis::hold(
                p.threshold_c,
                p.hold_intervals,
                DtmAction::Throttle(p.throttle_factor),
            )),
            DtmSpec::GlobalDvfs(p) => Box::new(Hysteresis::cool_below(
                p.trip_c,
                p.release_c,
                DtmAction::Dvfs {
                    f_scale: p.f_scale,
                    v_scale: p.v_scale,
                },
            )),
            DtmSpec::FetchGate(p) => Box::new(Hysteresis::cool_below(
                p.trip_c,
                p.release_c,
                DtmAction::FetchGate {
                    open: p.open,
                    period: p.period,
                },
            )),
            DtmSpec::Migration(p) => Box::new(MigrationController::for_machine(p, machine)),
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            DtmSpec::Emergency(_) => "emergency-throttle",
            DtmSpec::GlobalDvfs(_) => "global-dvfs",
            DtmSpec::FetchGate(_) => "fetch-gate",
            DtmSpec::Migration(_) => "migration",
        }
    }

    /// Whether the policy acts purely at the power level, leaving the core
    /// pipeline untouched.
    ///
    /// The emergency throttle only stretches wall-clock time through the
    /// power model's operating point, so recorded activity is unaffected
    /// and any replay-safe trace — a nominal-only one included — replays
    /// it exactly. Global DVFS rescales the core clock (uncore
    /// latencies get relatively closer), and fetch gating / migration
    /// steer the pipeline directly: all three change the activity stream
    /// itself, so replaying them needs a trace whose recorded
    /// operating-point family covers the policy's
    /// [`actionable_points`](Self::actionable_points) (see
    /// [`ReplayBackend`](crate::engine::ReplayBackend)).
    pub fn replay_compatible(&self) -> bool {
        matches!(self, DtmSpec::Emergency(_))
    }

    /// The core-perturbing operating points this policy can put the
    /// pipeline into — the capabilities a trace must have recorded for a
    /// replay under this policy to be faithful. Power-level policies (the
    /// emergency throttle) need nothing beyond the nominal stream;
    /// migration is inert on a machine with fewer than two frontend
    /// partitions (its controller never fires), so it too needs nothing
    /// there.
    pub fn actionable_points(&self, partitions: usize) -> Vec<PointKey> {
        match self {
            DtmSpec::Emergency(_) => Vec::new(),
            DtmSpec::GlobalDvfs(p) => vec![PointKey::dvfs(p.f_scale, p.v_scale)],
            DtmSpec::FetchGate(p) => vec![PointKey::FetchGate {
                open: p.open,
                period: p.period,
            }],
            DtmSpec::Migration(_) => {
                if partitions >= 2 {
                    (0..partitions)
                        .map(|p| PointKey::MigrateTo(p as u32))
                        .collect()
                } else {
                    Vec::new()
                }
            }
        }
    }
}

/// A complete experiment configuration: processor + thermal-management
/// control knobs + run length.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Short name shown in reports (e.g. `"baseline"`, `"bh+ab"`).
    pub name: &'static str,
    /// The processor under test.
    pub processor: ProcessorConfig,
    /// Rotate the Vdd-gated trace-cache bank every interval (§3.2.1). When
    /// the trace cache has a spare bank but `hop` is false, the spare stays
    /// statically gated — the paper's "blank silicon" comparison point.
    pub hop: bool,
    /// Control/thermal interval in cycles (the paper uses 10 M; scaled runs
    /// use proportionally shorter intervals).
    pub interval_cycles: u64,
    /// Micro-ops to simulate per application.
    pub uops_per_app: u64,
    /// Fraction of the run used as the pilot that measures nominal average
    /// dynamic power (the paper uses its first 50 M instructions).
    pub pilot_fraction: f64,
    /// Un-gateable background switching power (clock tree, latches) as a
    /// density over the floorplan, in W/mm².
    pub idle_density_w_mm2: f64,
    /// Workload seed.
    pub seed: u64,
    /// Optional dynamic thermal management (the paper runs with none; §4
    /// names it as future work — see [`crate::dtm`]).
    pub dtm: Option<DtmSpec>,
    /// Transient integrator for the default thermal backend: the exact
    /// modal propagator (default) or the RK4 reference.
    pub integrator: Integrator,
    /// The silicon's leakage model (the paper's calibration by default).
    /// Overridable for sensitivity studies — or to stress the
    /// leakage↔temperature fixed point past its stability limit, which is
    /// how fault-injection runs create a cell that genuinely fails.
    pub leakage: LeakageModel,
}

impl ExperimentConfig {
    /// The paper's baseline: quad-cluster backend, centralized rename and
    /// commit, two-banked trace cache, no thermal management.
    pub fn baseline() -> Self {
        ExperimentConfig {
            name: "baseline",
            processor: ProcessorConfig::hpca05_baseline(),
            hop: false,
            interval_cycles: 200_000,
            uops_per_app: 400_000,
            pilot_fraction: 0.25,
            idle_density_w_mm2: 0.045,
            seed: 0xD15F,
            dtm: None,
            integrator: Integrator::default(),
            leakage: LeakageModel::paper(),
        }
    }

    /// Thermal-aware biased mapping only ("Address Biasing" in Fig. 13).
    pub fn address_biasing() -> Self {
        let mut c = Self::baseline();
        c.name = "address-biasing";
        c.processor.trace_cache = TraceCacheConfig::address_biasing();
        c
    }

    /// Bank hopping only (Fig. 13): 2+1 banks, one gated, rotating.
    pub fn bank_hopping() -> Self {
        let mut c = Self::baseline();
        c.name = "bank-hopping";
        c.processor.trace_cache = TraceCacheConfig::bank_hopping();
        c.hop = true;
        c
    }

    /// Bank hopping combined with the biased mapping (Fig. 13 "BH+AB").
    pub fn hopping_and_biasing() -> Self {
        let mut c = Self::baseline();
        c.name = "bh+ab";
        c.processor.trace_cache = TraceCacheConfig::hopping_and_biasing();
        c.hop = true;
        c
    }

    /// The Fig. 13 comparison point: three banks with one *statically*
    /// gated (inserted blank silicon; no rotation, no biasing).
    pub fn blank_silicon() -> Self {
        let mut c = Self::baseline();
        c.name = "blank-silicon";
        c.processor.trace_cache = TraceCacheConfig::bank_hopping();
        c.hop = false;
        c
    }

    /// Distributed rename and commit only (Fig. 12): bi-clustered frontend
    /// feeding the quad-clustered backend, +1 commit cycle.
    pub fn distributed_rename_commit() -> Self {
        let mut c = Self::baseline();
        c.name = "drc";
        c.processor.frontend_mode = FrontendMode::Distributed { frontends: 2 };
        c.processor.distributed_commit_penalty = 1;
        c
    }

    /// The full distributed frontend (Fig. 14): distributed rename/commit
    /// plus bank hopping plus the biased mapping.
    pub fn combined() -> Self {
        let mut c = Self::distributed_rename_commit();
        c.name = "drc+bh+ab";
        c.processor.trace_cache = TraceCacheConfig::hopping_and_biasing();
        c.hop = true;
        c
    }

    /// All Fig. 13 trace-cache configurations in presentation order.
    pub fn figure13_set() -> Vec<ExperimentConfig> {
        vec![
            Self::address_biasing(),
            Self::blank_silicon(),
            Self::bank_hopping(),
            Self::hopping_and_biasing(),
        ]
    }

    /// Every named preset, in presentation order — the configuration
    /// registry grid-targeted [`JobSpec`](crate::job::JobSpec)s resolve
    /// against.
    pub fn presets() -> Vec<ExperimentConfig> {
        vec![
            Self::baseline(),
            Self::address_biasing(),
            Self::blank_silicon(),
            Self::bank_hopping(),
            Self::hopping_and_biasing(),
            Self::distributed_rename_commit(),
            Self::combined(),
        ]
    }

    /// Looks a preset up by its `name` field (`"baseline"`, `"drc"`,
    /// `"drc+bh+ab"`, …).
    pub fn by_name(name: &str) -> Option<ExperimentConfig> {
        Self::presets().into_iter().find(|c| c.name == name)
    }

    /// Scales the run length (and control interval) for quick tests or
    /// long evaluations; returns `self` for chaining.
    pub fn with_uops(mut self, uops: u64) -> Self {
        self.uops_per_app = uops;
        self.interval_cycles = (uops / 2).clamp(20_000, 10_000_000);
        self
    }

    /// Overrides the workload seed; returns `self` for chaining.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables a dynamic-thermal-management policy; returns `self` for
    /// chaining.
    pub fn with_dtm(mut self, spec: DtmSpec) -> Self {
        self.dtm = Some(spec);
        self
    }

    /// Selects the transient integrator for the default thermal backend;
    /// returns `self` for chaining.
    pub fn with_integrator(mut self, integrator: Integrator) -> Self {
        self.integrator = integrator;
        self
    }

    /// Overrides the leakage model; returns `self` for chaining.
    pub fn with_leakage(mut self, leakage: LeakageModel) -> Self {
        self.leakage = leakage;
        self
    }

    /// Pilot run length in micro-ops.
    pub fn pilot_uops(&self) -> u64 {
        ((self.uops_per_app as f64 * self.pilot_fraction) as u64).max(10_000)
    }

    /// The operating-point family a recording of this configuration
    /// captures per interval — equivalently, the capability set a trace
    /// must cover to replay this configuration faithfully. Always opens
    /// with [`PointKey::Nominal`]; the configured DTM policy contributes
    /// its [`DtmSpec::actionable_points`].
    pub fn replay_points(&self) -> Vec<PointKey> {
        let mut points = vec![PointKey::Nominal];
        if let Some(spec) = &self.dtm {
            points.extend(spec.actionable_points(self.processor.frontend_mode.partitions()));
        }
        points
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        self.processor.validate()?;
        if self.hop && !self.processor.trace_cache.hopping {
            return Err("hop control enabled without a spare bank".into());
        }
        if self.interval_cycles == 0 {
            return Err("interval must be positive".into());
        }
        if self.uops_per_app == 0 {
            return Err("empty run".into());
        }
        if !(0.0..=1.0).contains(&self.pilot_fraction) {
            return Err("pilot fraction outside [0,1]".into());
        }
        if self.idle_density_w_mm2 < 0.0 {
            return Err("negative idle density".into());
        }
        if self.leakage.ratio_at_ambient.is_nan() || self.leakage.ratio_at_ambient < 0.0 {
            return Err("negative leakage ratio".into());
        }
        if self.leakage.doubling_celsius.is_nan() || self.leakage.doubling_celsius <= 0.0 {
            return Err("leakage doubling temperature must be positive".into());
        }
        if let Some(d) = &self.dtm {
            d.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_valid() {
        for c in [
            ExperimentConfig::baseline(),
            ExperimentConfig::address_biasing(),
            ExperimentConfig::bank_hopping(),
            ExperimentConfig::hopping_and_biasing(),
            ExperimentConfig::blank_silicon(),
            ExperimentConfig::distributed_rename_commit(),
            ExperimentConfig::combined(),
        ] {
            c.validate().unwrap_or_else(|e| panic!("{}: {e}", c.name));
        }
    }

    #[test]
    fn preset_names_unique() {
        let mut names: Vec<_> = [
            ExperimentConfig::baseline(),
            ExperimentConfig::address_biasing(),
            ExperimentConfig::bank_hopping(),
            ExperimentConfig::hopping_and_biasing(),
            ExperimentConfig::blank_silicon(),
            ExperimentConfig::distributed_rename_commit(),
            ExperimentConfig::combined(),
        ]
        .iter()
        .map(|c| c.name)
        .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn blank_silicon_has_spare_but_never_hops() {
        let c = ExperimentConfig::blank_silicon();
        assert!(c.processor.trace_cache.hopping);
        assert!(!c.hop);
        assert!(!c.processor.trace_cache.biased);
    }

    #[test]
    fn combined_enables_everything() {
        let c = ExperimentConfig::combined();
        assert!(c.processor.frontend_mode.is_distributed());
        assert!(c.processor.trace_cache.hopping);
        assert!(c.processor.trace_cache.biased);
        assert!(c.hop);
        assert_eq!(c.processor.distributed_commit_penalty, 1);
    }

    #[test]
    fn dtm_specs_validate_and_name() {
        let specs = [
            DtmSpec::Emergency(EmergencyPolicy::paper_limit()),
            DtmSpec::GlobalDvfs(DvfsPolicy::paper_limit()),
            DtmSpec::FetchGate(FetchGatePolicy::paper_limit()),
            DtmSpec::Migration(MigrationPolicy::paper_limit()),
        ];
        let mut names: Vec<_> = specs.iter().map(DtmSpec::name).collect();
        for spec in &specs {
            ExperimentConfig::baseline()
                .with_dtm(*spec)
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn replay_points_mirror_the_policy_ladder() {
        let base = ExperimentConfig::baseline();
        assert_eq!(base.replay_points(), vec![PointKey::Nominal]);
        assert_eq!(
            base.clone()
                .with_dtm(DtmSpec::Emergency(EmergencyPolicy::paper_limit()))
                .replay_points(),
            vec![PointKey::Nominal],
            "power-level throttling needs only the nominal stream"
        );
        let dvfs = DvfsPolicy::paper_limit();
        assert_eq!(
            base.clone()
                .with_dtm(DtmSpec::GlobalDvfs(dvfs))
                .replay_points(),
            vec![
                PointKey::Nominal,
                PointKey::dvfs(dvfs.f_scale, dvfs.v_scale)
            ]
        );
        let gate = FetchGatePolicy::paper_limit();
        assert_eq!(
            base.clone()
                .with_dtm(DtmSpec::FetchGate(gate))
                .replay_points(),
            vec![
                PointKey::Nominal,
                PointKey::FetchGate {
                    open: gate.open,
                    period: gate.period
                }
            ]
        );
        // Migration is inert on a centralized frontend…
        assert_eq!(
            base.with_dtm(DtmSpec::Migration(MigrationPolicy::paper_limit()))
                .replay_points(),
            vec![PointKey::Nominal]
        );
        // …and contributes one dispatch-bias point per partition otherwise.
        assert_eq!(
            ExperimentConfig::distributed_rename_commit()
                .with_dtm(DtmSpec::Migration(MigrationPolicy::paper_limit()))
                .replay_points(),
            vec![
                PointKey::Nominal,
                PointKey::MigrateTo(0),
                PointKey::MigrateTo(1)
            ]
        );
    }

    #[test]
    fn invalid_dtm_spec_fails_config_validation() {
        let bad = DtmSpec::GlobalDvfs(DvfsPolicy {
            f_scale: 0.0,
            ..DvfsPolicy::paper_limit()
        });
        assert!(ExperimentConfig::baseline()
            .with_dtm(bad)
            .validate()
            .is_err());
    }

    #[test]
    fn with_uops_scales_interval() {
        let c = ExperimentConfig::baseline().with_uops(100_000);
        assert_eq!(c.uops_per_app, 100_000);
        assert_eq!(c.interval_cycles, 50_000);
        c.validate().unwrap();
    }

    #[test]
    fn figure13_set_order() {
        let names: Vec<_> = ExperimentConfig::figure13_set()
            .iter()
            .map(|c| c.name)
            .collect();
        assert_eq!(
            names,
            vec!["address-biasing", "blank-silicon", "bank-hopping", "bh+ab"]
        );
    }
}
