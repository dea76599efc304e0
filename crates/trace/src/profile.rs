//! Per-application workload profiles.
//!
//! Each [`AppProfile`] captures the coarse dynamic characteristics of one of
//! the 26 SPEC2000 applications the paper evaluates: instruction mix,
//! branch behaviour, dependence distances, code footprint (which determines
//! trace-cache pressure) and data working-set size (which determines L1/UL2
//! behaviour). The values are representative of published SPEC2000
//! characterization studies, not measurements of the (unavailable) paper
//! traces. The reproduction therefore checks the paper's results by shape
//! (who wins, in which direction, in roughly which order; see
//! `tests/paper_shapes.rs`), not by absolute value.

/// Coarse dynamic characteristics of one application.
///
/// All ratios are fractions of the dynamic micro-op stream and must satisfy
/// `fp + load + store + branch <= 1.0`; the remainder is integer ALU work
/// (including the occasional multiply/divide, controlled by
/// [`AppProfile::int_mul_frac`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppProfile {
    /// Short SPEC-style name, e.g. `"gzip"`.
    pub name: &'static str,
    /// `true` for SPECfp applications.
    pub is_fp: bool,
    /// Fraction of micro-ops that are floating point.
    pub fp_frac: f64,
    /// Fraction of micro-ops that are loads.
    pub load_frac: f64,
    /// Fraction of micro-ops that are stores.
    pub store_frac: f64,
    /// Fraction of micro-ops that are branches.
    pub branch_frac: f64,
    /// Probability that a conditional branch is taken (per static branch the
    /// generator perturbs this to create biased and unbiased branches).
    pub taken_bias: f64,
    /// Of the non-FP non-mem non-branch remainder, the fraction that is a
    /// multiply (a small slice of that again becomes a divide).
    pub int_mul_frac: f64,
    /// Of the FP slice, the fraction that is a multiply (rest add; a small
    /// slice becomes divide).
    pub fp_mul_frac: f64,
    /// Mean register dependence distance in micro-ops (small = serial code).
    pub dep_distance: f64,
    /// Number of basic blocks in the synthetic program (code footprint).
    /// Large values overflow the 32 K-micro-op trace cache.
    pub code_blocks: usize,
    /// Mean basic-block length in micro-ops.
    pub block_len: f64,
    /// Data working-set size in bytes.
    pub working_set: u64,
    /// Fraction of memory accesses that hit a small hot region (temporal
    /// locality knob; higher = better L1 hit rate).
    pub locality: f64,
}

impl AppProfile {
    /// The 26 SPEC2000 application profiles used throughout the evaluation
    /// (12 SPECint + 14 SPECfp), in the order the paper lists them.
    ///
    /// # Examples
    ///
    /// ```
    /// let apps = distfront_trace::AppProfile::spec2000();
    /// assert_eq!(apps.len(), 26);
    /// assert!(apps.iter().any(|a| a.name == "mcf"));
    /// ```
    pub fn spec2000() -> &'static [AppProfile] {
        SPEC2000
    }

    /// Looks a profile up by name.
    pub fn by_name(name: &str) -> Option<&'static AppProfile> {
        SPEC2000.iter().find(|p| p.name == name)
    }

    /// A small, fast profile for unit tests: tiny code footprint and working
    /// set so caches behave predictably.
    pub fn test_tiny() -> AppProfile {
        AppProfile {
            name: "tiny",
            is_fp: false,
            fp_frac: 0.05,
            load_frac: 0.25,
            store_frac: 0.10,
            branch_frac: 0.12,
            taken_bias: 0.6,
            int_mul_frac: 0.05,
            fp_mul_frac: 0.4,
            dep_distance: 4.0,
            code_blocks: 24,
            block_len: 8.0,
            working_set: 8 << 10,
            locality: 0.9,
        }
    }

    /// Validates the internal consistency of the profile.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let mix = self.fp_frac + self.load_frac + self.store_frac + self.branch_frac;
        if !(0.0..=1.0).contains(&mix) {
            return Err(format!("{}: mix fractions sum to {mix}", self.name));
        }
        for (label, v) in [
            ("fp_frac", self.fp_frac),
            ("load_frac", self.load_frac),
            ("store_frac", self.store_frac),
            ("branch_frac", self.branch_frac),
            ("taken_bias", self.taken_bias),
            ("int_mul_frac", self.int_mul_frac),
            ("fp_mul_frac", self.fp_mul_frac),
            ("locality", self.locality),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{}: {label} = {v} outside [0,1]", self.name));
            }
        }
        if self.dep_distance < 1.0 {
            return Err(format!("{}: dep_distance < 1", self.name));
        }
        if self.code_blocks == 0 {
            return Err(format!("{}: no code blocks", self.name));
        }
        if self.block_len < 2.0 {
            return Err(format!("{}: block_len < 2", self.name));
        }
        if self.working_set == 0 {
            return Err(format!("{}: empty working set", self.name));
        }
        Ok(())
    }
}

macro_rules! profiles {
    ($($name:literal, $is_fp:expr, fp=$fp:expr, ld=$ld:expr, st=$st:expr, br=$br:expr,
       tb=$tb:expr, im=$im:expr, fm=$fm:expr, dd=$dd:expr, cb=$cb:expr, bl=$bl:expr,
       ws=$ws:expr, loc=$loc:expr;)*) => {
        &[$(AppProfile {
            name: $name, is_fp: $is_fp, fp_frac: $fp, load_frac: $ld, store_frac: $st,
            branch_frac: $br, taken_bias: $tb, int_mul_frac: $im, fp_mul_frac: $fm,
            dep_distance: $dd, code_blocks: $cb, block_len: $bl, working_set: $ws,
            locality: $loc,
        },)*]
    };
}

/// SPECint2000 (12) followed by SPECfp2000 (14). Code footprints are in
/// basic blocks of mean length `bl`; `gcc`, `perlbmk`, `vortex` and `eon`
/// get large footprints (trace-cache stressors), `mcf`/`art` get large data
/// working sets and poor locality (memory-bound), `swim`/`mgrid`/`applu`
/// are regular FP streaming codes with long dependence distances (high ILP).
static SPEC2000: &[AppProfile] = profiles![
    // SPECint2000
    "gzip",    false, fp=0.00, ld=0.22, st=0.10, br=0.14, tb=0.62, im=0.03, fm=0.30, dd=3.5,  cb=220,  bl=7.0,  ws=180<<10,  loc=0.85;
    "vpr",     false, fp=0.04, ld=0.28, st=0.10, br=0.12, tb=0.58, im=0.04, fm=0.35, dd=3.8,  cb=340,  bl=7.5,  ws=1<<20,    loc=0.80;
    "gcc",     false, fp=0.00, ld=0.26, st=0.13, br=0.16, tb=0.60, im=0.02, fm=0.30, dd=3.2,  cb=2600, bl=6.0,  ws=2<<20,    loc=0.72;
    "mcf",     false, fp=0.00, ld=0.31, st=0.09, br=0.17, tb=0.55, im=0.02, fm=0.30, dd=3.0,  cb=120,  bl=6.5,  ws=48<<20,   loc=0.35;
    "crafty",  false, fp=0.00, ld=0.27, st=0.08, br=0.11, tb=0.57, im=0.05, fm=0.30, dd=4.2,  cb=520,  bl=9.0,  ws=900<<10,  loc=0.82;
    "parser",  false, fp=0.00, ld=0.24, st=0.11, br=0.15, tb=0.59, im=0.02, fm=0.30, dd=3.4,  cb=760,  bl=6.5,  ws=12<<20,   loc=0.66;
    "eon",     false, fp=0.12, ld=0.26, st=0.13, br=0.10, tb=0.61, im=0.04, fm=0.45, dd=4.0,  cb=1400, bl=8.0,  ws=350<<10,  loc=0.84;
    "perlbmk", false, fp=0.00, ld=0.27, st=0.14, br=0.15, tb=0.60, im=0.03, fm=0.30, dd=3.3,  cb=2100, bl=6.0,  ws=30<<20,   loc=0.70;
    "gap",     false, fp=0.01, ld=0.25, st=0.11, br=0.13, tb=0.62, im=0.06, fm=0.30, dd=3.7,  cb=900,  bl=7.0,  ws=90<<20,   loc=0.68;
    "vortex",  false, fp=0.00, ld=0.29, st=0.15, br=0.14, tb=0.63, im=0.02, fm=0.30, dd=3.6,  cb=1900, bl=6.5,  ws=50<<20,   loc=0.74;
    "bzip2",   false, fp=0.00, ld=0.23, st=0.11, br=0.13, tb=0.61, im=0.03, fm=0.30, dd=3.6,  cb=200,  bl=7.5,  ws=60<<20,   loc=0.78;
    "twolf",   false, fp=0.03, ld=0.26, st=0.09, br=0.13, tb=0.56, im=0.05, fm=0.40, dd=3.9,  cb=420,  bl=7.0,  ws=2<<20,    loc=0.79;
    // SPECfp2000
    "wupwise", true,  fp=0.34, ld=0.22, st=0.09, br=0.05, tb=0.80, im=0.03, fm=0.55, dd=6.5,  cb=160,  bl=14.0, ws=160<<20,  loc=0.72;
    "swim",    true,  fp=0.36, ld=0.26, st=0.08, br=0.02, tb=0.92, im=0.02, fm=0.50, dd=8.0,  cb=90,   bl=18.0, ws=190<<20,  loc=0.55;
    "mgrid",   true,  fp=0.40, ld=0.28, st=0.05, br=0.01, tb=0.94, im=0.02, fm=0.55, dd=8.5,  cb=110,  bl=20.0, ws=56<<20,   loc=0.62;
    "applu",   true,  fp=0.38, ld=0.25, st=0.09, br=0.02, tb=0.92, im=0.02, fm=0.52, dd=8.0,  cb=140,  bl=19.0, ws=180<<20,  loc=0.58;
    "mesa",    true,  fp=0.22, ld=0.24, st=0.12, br=0.08, tb=0.68, im=0.04, fm=0.50, dd=5.0,  cb=640,  bl=9.0,  ws=9<<20,    loc=0.81;
    "galgel",  true,  fp=0.37, ld=0.27, st=0.06, br=0.04, tb=0.85, im=0.02, fm=0.58, dd=7.0,  cb=240,  bl=15.0, ws=32<<20,   loc=0.70;
    "art",     true,  fp=0.28, ld=0.32, st=0.05, br=0.09, tb=0.72, im=0.02, fm=0.60, dd=5.5,  cb=70,   bl=9.0,  ws=3700<<10, loc=0.40;
    "equake",  true,  fp=0.30, ld=0.30, st=0.07, br=0.06, tb=0.78, im=0.03, fm=0.56, dd=6.0,  cb=130,  bl=12.0, ws=40<<20,   loc=0.52;
    "facerec", true,  fp=0.33, ld=0.26, st=0.07, br=0.05, tb=0.80, im=0.02, fm=0.55, dd=6.8,  cb=210,  bl=13.0, ws=16<<20,   loc=0.69;
    "ammp",    true,  fp=0.31, ld=0.28, st=0.08, br=0.06, tb=0.74, im=0.02, fm=0.54, dd=6.2,  cb=260,  bl=11.0, ws=26<<20,   loc=0.60;
    "lucas",   true,  fp=0.39, ld=0.24, st=0.08, br=0.02, tb=0.90, im=0.02, fm=0.57, dd=8.2,  cb=120,  bl=18.0, ws=140<<20,  loc=0.63;
    "fma3d",   true,  fp=0.32, ld=0.26, st=0.10, br=0.05, tb=0.79, im=0.03, fm=0.53, dd=6.4,  cb=980,  bl=10.0, ws=100<<20,  loc=0.66;
    "sixtrack",true,  fp=0.35, ld=0.23, st=0.09, br=0.04, tb=0.83, im=0.03, fm=0.55, dd=7.2,  cb=700,  bl=13.0, ws=26<<20,   loc=0.75;
    "apsi",    true,  fp=0.34, ld=0.25, st=0.09, br=0.04, tb=0.82, im=0.02, fm=0.54, dd=7.0,  cb=330,  bl=14.0, ws=190<<20,  loc=0.68;
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_six_profiles() {
        assert_eq!(AppProfile::spec2000().len(), 26);
    }

    #[test]
    fn twelve_int_fourteen_fp() {
        let fp = AppProfile::spec2000().iter().filter(|p| p.is_fp).count();
        assert_eq!(fp, 14);
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<_> = AppProfile::spec2000().iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 26);
    }

    #[test]
    fn all_profiles_valid() {
        for p in AppProfile::spec2000() {
            p.validate().unwrap();
        }
        AppProfile::test_tiny().validate().unwrap();
    }

    #[test]
    fn by_name_hit_and_miss() {
        assert!(AppProfile::by_name("gcc").is_some());
        assert!(AppProfile::by_name("doom3").is_none());
    }

    #[test]
    fn int_apps_have_no_heavy_fp() {
        for p in AppProfile::spec2000().iter().filter(|p| !p.is_fp) {
            assert!(p.fp_frac < 0.15, "{} fp_frac {}", p.name, p.fp_frac);
        }
    }

    #[test]
    fn fp_apps_have_long_dep_chains() {
        for p in AppProfile::spec2000().iter().filter(|p| p.is_fp) {
            assert!(p.dep_distance >= 5.0, "{}", p.name);
        }
    }

    #[test]
    fn memory_bound_apps_have_poor_locality() {
        for name in ["mcf", "art"] {
            let p = AppProfile::by_name(name).unwrap();
            assert!(p.locality < 0.5, "{name}");
        }
    }
}
