//! Temperature-dependent leakage power (§2.1).
//!
//! The paper models a block's leakage as a fraction of its nominal average
//! dynamic power: 30 % at the 45 °C in-box ambient, growing exponentially
//! with temperature (the well-known subthreshold dependence).

/// Exponential leakage model.
///
/// `P_leak(T) = ratio_at_ambient · P_dyn_nominal · 2^((T − T_ambient)/doubling_celsius)`
///
/// # Examples
///
/// ```
/// use distfront_power::LeakageModel;
///
/// let m = LeakageModel::paper();
/// let leak = m.leakage_watts(10.0, 45.0); // at ambient
/// assert!((leak - 3.0).abs() < 1e-9); // 30 % of nominal dynamic
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageModel {
    /// Leakage as a fraction of nominal dynamic power at ambient.
    pub ratio_at_ambient: f64,
    /// In-box ambient temperature in Celsius (45 °C per \[19\]\[27\]).
    pub ambient_c: f64,
    /// Temperature increase that doubles leakage, in Celsius.
    pub doubling_celsius: f64,
    /// Emergency temperature limit in Celsius (the paper's 381 K). The
    /// exponential is evaluated at no more than this temperature, which is
    /// where a real chip would throttle; it also keeps the
    /// leakage-temperature fixed point from running away numerically.
    pub emergency_c: f64,
}

impl LeakageModel {
    /// The paper's calibration: 30 % of dynamic at 45 °C, exponential in T
    /// (doubling every 38 °C, in the HotLeakage-era band for 65 nm).
    pub fn paper() -> Self {
        LeakageModel {
            ratio_at_ambient: 0.30,
            ambient_c: 45.0,
            doubling_celsius: 38.0,
            emergency_c: 381.0 - 273.15,
        }
    }

    /// Leakage power of a block in Watts given its nominal average dynamic
    /// power and current temperature.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `nominal_dynamic_watts` is negative. A
    /// NaN passes through, so the caller's finiteness check rejects it the
    /// same way in every build.
    pub fn leakage_watts(&self, nominal_dynamic_watts: f64, temp_c: f64) -> f64 {
        debug_assert!(nominal_dynamic_watts >= 0.0 || nominal_dynamic_watts.is_nan());
        let t = temp_c.min(self.emergency_c);
        self.ratio_at_ambient
            * nominal_dynamic_watts
            * 2f64.powf((t - self.ambient_c) / self.doubling_celsius)
    }

    /// Leakage power at a scaled supply voltage, for global-DVFS studies.
    ///
    /// `P_leak = V · I_sub` and the subthreshold current is roughly linear
    /// in `V` (to first order, away from the DIBL knee), so scaling the
    /// supply by `v_scale` scales leakage power by `v_scale²`. At
    /// `v_scale = 1.0` this is bit-identical to [`leakage_watts`]
    /// (multiplication by one is exact).
    ///
    /// [`leakage_watts`]: Self::leakage_watts
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `v_scale` is not positive.
    pub fn leakage_watts_scaled(
        &self,
        nominal_dynamic_watts: f64,
        temp_c: f64,
        v_scale: f64,
    ) -> f64 {
        debug_assert!(v_scale > 0.0);
        self.leakage_watts(nominal_dynamic_watts, temp_c) * v_scale * v_scale
    }
}

impl Default for LeakageModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirty_percent_at_ambient() {
        let m = LeakageModel::paper();
        assert!((m.leakage_watts(1.0, 45.0) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn doubles_per_step() {
        let m = LeakageModel::paper();
        let base = m.leakage_watts(1.0, m.ambient_c);
        let one_step = m.leakage_watts(1.0, m.ambient_c + m.doubling_celsius);
        assert!((one_step / base - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cooler_than_ambient_leaks_less() {
        let m = LeakageModel::paper();
        assert!(m.leakage_watts(1.0, 30.0) < m.leakage_watts(1.0, 45.0));
    }

    #[test]
    fn zero_dynamic_means_zero_leakage() {
        // Vdd-gated blocks (hopping) have no leakage: the model receives
        // zero nominal power for them.
        let m = LeakageModel::paper();
        assert_eq!(m.leakage_watts(0.0, 100.0), 0.0);
    }

    #[test]
    fn monotone_up_to_the_emergency_limit() {
        let m = LeakageModel::paper();
        let mut prev = 0.0;
        for t in 0..107 {
            let l = m.leakage_watts(5.0, f64::from(t));
            assert!(l > prev);
            prev = l;
        }
    }

    #[test]
    fn scaled_voltage_scales_leakage_quadratically() {
        let m = LeakageModel::paper();
        let base = m.leakage_watts(4.0, 80.0);
        let scaled = m.leakage_watts_scaled(4.0, 80.0, 0.8);
        assert!((scaled / base - 0.64).abs() < 1e-12);
        // Nominal voltage is bit-identical to the unscaled path.
        assert_eq!(
            m.leakage_watts_scaled(4.0, 80.0, 1.0).to_bits(),
            base.to_bits()
        );
    }

    #[test]
    fn capped_at_emergency_limit() {
        let m = LeakageModel::paper();
        let at_limit = m.leakage_watts(5.0, m.emergency_c);
        assert_eq!(m.leakage_watts(5.0, 500.0), at_limit);
        assert!(at_limit.is_finite());
    }
}
