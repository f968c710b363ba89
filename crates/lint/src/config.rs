//! Linter configuration: thresholds and the QPU precision model.

use qsmt_qpu::ChainStrength;

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

    /// Advantage-like defaults (Pegasus-era hardware): wider coupler
    /// range, same effective resolution.
    pub fn pegasus_advantage() -> Self {
        PrecisionModel {
            name: "pegasus-advantage",
            coupler_range: (-2.0, 1.0),
            field_range: (-4.0, 4.0),
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

/// Tunable knobs for a lint run.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Hardware precision model for the conditioning pass.
    pub precision: PrecisionModel,
    /// Chain-strength heuristic whose output is checked for feasibility.
    pub chain_strength: ChainStrength,
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
            chain_strength: ChainStrength::default(),
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
    fn pegasus_has_wider_couplers() {
        let p = PrecisionModel::pegasus_advantage();
        assert!((p.coupler_limit() - 2.0).abs() < 1e-12);
    }
}
