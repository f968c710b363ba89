//! Linter configuration: thresholds, the QPU precision model and the
//! chain strength an embedding programs.

use qsmt_qubo::QuboModel;

/// A model of the analog precision available when programming a QPU.
///
/// Annealers expose each coupler/field as a fixed analog range programmed
/// through a DAC with limited effective resolution; coefficients outside
/// the range must be rescaled in, and coefficients much smaller than one
/// quantization step are effectively erased (Bian et al. call this the
/// dominant practical failure mode for SAT penalties). The defaults below
/// mirror a D-Wave 2000Q-like device: couplers in `[-1, 1]`, fields in
/// `[-2, 2]`, and roughly 8 bits of effective resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecisionModel {
    /// Display name used in diagnostics.
    pub name: &'static str,
    /// Programmable coupler range `[min, max]`.
    pub coupler_range: (f64, f64),
    /// Programmable field (linear bias) range `[min, max]`.
    pub field_range: (f64, f64),
    /// Effective DAC resolution in bits over the coupler range.
    pub resolution_bits: u32,
}

impl PrecisionModel {
    /// D-Wave 2000Q-like defaults (Chimera-era hardware).
    pub fn chimera_2000q() -> Self {
        PrecisionModel {
            name: "chimera-2000q",
            coupler_range: (-1.0, 1.0),
            field_range: (-2.0, 2.0),
            resolution_bits: 8,
        }
    }

    /// Largest programmable coupler magnitude.
    pub fn coupler_limit(&self) -> f64 {
        self.coupler_range.0.abs().max(self.coupler_range.1.abs())
    }

    /// Size of one quantization step across the coupler range.
    pub fn quantization_step(&self) -> f64 {
        let span = self.coupler_range.1 - self.coupler_range.0;
        span / (f64::from(2u32.pow(self.resolution_bits)) - 1.0)
    }

    /// The representable dynamic range: ratio between the largest
    /// programmable magnitude and one quantization step.
    pub fn dynamic_range(&self) -> f64 {
        self.coupler_limit() / self.quantization_step()
    }
}

impl Default for PrecisionModel {
    fn default() -> Self {
        PrecisionModel::chimera_2000q()
    }
}

/// The ferromagnetic coupling that holds a minor-embedding chain
/// together: uniform torque compensation (D-Wave's default heuristic),
/// `1.414 × rms(quadratic) × sqrt(average degree)`. It scales with the
/// *typical* torque neighbours exert on a chain rather than the worst
/// case, giving weaker chains that distort the spectrum less. A model
/// without quadratic terms takes `1.414 × max |coefficient|`; the result
/// is always strictly positive (1.0 on a model with no coefficients).
///
/// The `chain-strength` pass checks this value and `qsmt-qpu` programs
/// it, so the two cannot disagree.
pub fn chain_strength(model: &QuboModel) -> f64 {
    const PREFACTOR: f64 = 1.414;
    let (sum_sq, count) = model
        .quadratic_iter()
        .fold((0.0f64, 0usize), |(s, c), (_, _, q)| (s + q * q, c + 1));
    let s = if count == 0 {
        PREFACTOR * model.max_abs_coefficient()
    } else {
        let rms = (sum_sq / count as f64).sqrt();
        let avg_degree = 2.0 * count as f64 / model.num_vars().max(1) as f64;
        PREFACTOR * rms * avg_degree.sqrt()
    };
    if s > 0.0 {
        s
    } else {
        1.0
    }
}

/// Tunable knobs for a lint run.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Hardware precision model for the conditioning pass.
    pub precision: PrecisionModel,
    /// Largest inferred group validated by exact subset enumeration
    /// (`2^k` energies held for `k` members); larger groups fall back to
    /// a greedy counterexample search.
    pub max_exact_group: usize,
    /// Cap on variables listed per diagnostic (messages stay readable;
    /// the full count is always in the message text).
    pub max_listed_vars: usize,
    /// Absolute tolerance for energy comparisons.
    pub tolerance: f64,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            precision: PrecisionModel::default(),
            max_exact_group: 16,
            max_listed_vars: 8,
            tolerance: 1e-9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_step_matches_resolution() {
        let p = PrecisionModel::chimera_2000q();
        let step = p.quantization_step();
        assert!((step - 2.0 / 255.0).abs() < 1e-12);
        assert!((p.dynamic_range() - 127.5).abs() < 1e-9);
    }

    #[test]
    fn chain_strength_uses_rms_and_degree() {
        // two vars, one coupling of 2.0: rms = 2, avg degree = 1
        let mut m = QuboModel::new(2);
        m.add_quadratic(0, 1, 2.0);
        assert!((chain_strength(&m) - 1.414 * 2.0).abs() < 1e-12);
    }

    #[test]
    fn chain_strength_falls_back_without_quadratic_terms() {
        let mut m = QuboModel::new(1);
        m.add_linear(0, -3.0);
        assert!((chain_strength(&m) - 1.414 * 3.0).abs() < 1e-9);
    }

    #[test]
    fn chain_strength_of_a_degenerate_model_is_positive() {
        assert_eq!(chain_strength(&QuboModel::new(2)), 1.0);
    }
}
