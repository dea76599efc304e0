//! Shared helpers for the figure-regeneration benchmarks.
//!
//! The `figures` and `ablation` benches first *regenerate their figures* —
//! running the paper's configurations over the synthetic SPEC2000
//! profiles and printing the same rows the paper plots — and then let
//! Criterion time representative simulation kernels so `cargo bench` also
//! tracks performance regressions of the simulator itself.
//!
//! The run length per application defaults to [`DEFAULT_UOPS`] micro-ops
//! (scaled down from the paper's 200 M instructions so the whole harness
//! finishes in minutes); set `DISTFRONT_BENCH_UOPS` to raise it.

use distfront_trace::AppProfile;

/// Default micro-ops per application for figure regeneration.
pub const DEFAULT_UOPS: u64 = 200_000;

/// Micro-ops per application, honouring `DISTFRONT_BENCH_UOPS`.
pub fn bench_uops() -> u64 {
    std::env::var("DISTFRONT_BENCH_UOPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_UOPS)
}

/// The full 26-application SPEC2000 evaluation set.
pub fn evaluation_apps() -> &'static [AppProfile] {
    AppProfile::spec2000()
}

/// A small kernel workload for the Criterion timing loops.
pub fn kernel_app() -> AppProfile {
    *AppProfile::by_name("gzip").expect("gzip profile exists")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        assert_eq!(evaluation_apps().len(), 26);
        assert!(bench_uops() >= 1);
        assert_eq!(kernel_app().name, "gzip");
    }
}
