//! Package and material parameters.
//!
//! The paper's thermal solution: a copper heat spreader of
//! 3.1 × 3.1 × 0.23 cm in contact with the die, topped by a copper heat
//! sink of 7 × 8.3 × 4.11 cm (Pentium 4 Northwood class \[17\]), in a 45 °C
//! in-box ambient.

/// Physical parameters of die, interface material and package.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackageConfig {
    /// In-box ambient temperature in °C.
    pub ambient_c: f64,
    /// Die thickness in metres.
    pub die_thickness_m: f64,
    /// Silicon thermal conductivity in W/(m·K).
    pub k_silicon: f64,
    /// Silicon volumetric heat capacity in J/(m³·K).
    pub c_silicon: f64,
    /// Thermal-interface-material thickness in metres.
    pub tim_thickness_m: f64,
    /// TIM conductivity in W/(m·K).
    pub k_tim: f64,
    /// Spreader dimensions in metres (side, side, thickness).
    pub spreader_m: (f64, f64, f64),
    /// Sink dimensions in metres.
    pub sink_m: (f64, f64, f64),
    /// Copper volumetric heat capacity in J/(m³·K).
    pub c_copper: f64,
    /// Spreader-to-sink thermal resistance in K/W (conduction + spreading).
    pub r_spreader_sink: f64,
    /// Sink-to-ambient convection resistance in K/W.
    pub r_convection: f64,
}

impl PackageConfig {
    /// The paper's package (§4), with HotSpot-class material constants.
    pub fn paper() -> Self {
        PackageConfig {
            ambient_c: 45.0,
            die_thickness_m: 0.5e-3,
            k_silicon: 100.0, // at operating temperature
            c_silicon: 1.75e6,
            tim_thickness_m: 50e-6,
            k_tim: 2.2,
            spreader_m: (0.031, 0.031, 0.0023),
            sink_m: (0.07, 0.083, 0.0411),
            c_copper: 3.4e6,
            r_spreader_sink: 0.05,
            r_convection: 0.075,
        }
    }

    /// Heat capacity of the spreader in J/K.
    pub fn spreader_capacitance(&self) -> f64 {
        let (a, b, t) = self.spreader_m;
        self.c_copper * a * b * t
    }

    /// Heat capacity of the sink in J/K.
    pub fn sink_capacitance(&self) -> f64 {
        let (a, b, t) = self.sink_m;
        self.c_copper * a * b * t
    }

    /// Vertical resistance from a block of `area_mm2` through the die and
    /// TIM to the spreader, in K/W.
    pub fn vertical_resistance(&self, area_mm2: f64) -> f64 {
        assert!(area_mm2 > 0.0, "block area must be positive");
        let a = area_mm2 * 1e-6; // m²
        self.die_thickness_m / (self.k_silicon * a) + self.tim_thickness_m / (self.k_tim * a)
    }

    /// Heat capacity of the silicon under a block of `area_mm2`, in J/K.
    pub fn block_capacitance(&self, area_mm2: f64) -> f64 {
        self.c_silicon * self.die_thickness_m * area_mm2 * 1e-6
    }

    /// Every parameter's bit pattern, in declaration order: the identity
    /// the process-wide thermal-parts registry matches a package on.
    pub(crate) fn bits(&self) -> [u64; 15] {
        // No `..`: a new field fails to compile here until the key has it.
        let PackageConfig {
            ambient_c,
            die_thickness_m,
            k_silicon,
            c_silicon,
            tim_thickness_m,
            k_tim,
            spreader_m: (sa, sb, st),
            sink_m: (ka, kb, kt),
            c_copper,
            r_spreader_sink,
            r_convection,
        } = *self;
        [
            ambient_c,
            die_thickness_m,
            k_silicon,
            c_silicon,
            tim_thickness_m,
            k_tim,
            sa,
            sb,
            st,
            ka,
            kb,
            kt,
            c_copper,
            r_spreader_sink,
            r_convection,
        ]
        .map(f64::to_bits)
    }

    /// Lateral resistance between two adjacent blocks, in K/W.
    ///
    /// HotSpot's formulation: each block contributes half its extent normal
    /// to the shared edge; heat flows through the die cross-section
    /// `thickness × shared_len`.
    pub fn lateral_resistance(
        &self,
        extent_a_mm: f64,
        extent_b_mm: f64,
        shared_len_mm: f64,
    ) -> f64 {
        assert!(shared_len_mm > 0.0);
        let cross = self.die_thickness_m * shared_len_mm * 1e-3;
        ((extent_a_mm / 2.0) * 1e-3 + (extent_b_mm / 2.0) * 1e-3) / (self.k_silicon * cross)
    }
}

impl Default for PackageConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dimensions() {
        let p = PackageConfig::paper();
        assert_eq!(p.spreader_m, (0.031, 0.031, 0.0023));
        assert_eq!(p.sink_m, (0.07, 0.083, 0.0411));
        assert_eq!(p.ambient_c, 45.0);
    }

    #[test]
    fn sink_dwarfs_spreader_capacitance() {
        let p = PackageConfig::paper();
        assert!(p.sink_capacitance() > 50.0 * p.spreader_capacitance() / 10.0);
        assert!(
            p.sink_capacitance() > 100.0,
            "sink should be hundreds of J/K"
        );
    }

    #[test]
    fn vertical_resistance_scales_inversely_with_area() {
        let p = PackageConfig::paper();
        let r1 = p.vertical_resistance(1.0);
        let r4 = p.vertical_resistance(4.0);
        assert!((r1 / r4 - 4.0).abs() < 1e-9);
        // Order of magnitude: a few K/W for mm²-scale blocks.
        assert!((1.0..40.0).contains(&r1), "Rv(1mm²) = {r1}");
    }

    #[test]
    fn lateral_resistance_positive_and_sane() {
        let p = PackageConfig::paper();
        let r = p.lateral_resistance(2.0, 3.0, 1.5);
        assert!(r > 0.0);
        // Longer shared edges conduct better.
        assert!(p.lateral_resistance(2.0, 3.0, 3.0) < r);
    }

    #[test]
    fn block_capacitance_order_of_magnitude() {
        let p = PackageConfig::paper();
        // ~0.9 mJ/K per mm² of die.
        let c = p.block_capacitance(1.0);
        assert!((0.5e-3..2e-3).contains(&c), "C(1mm²) = {c}");
    }
}
