//! # qsmt-lint — static soundness analysis of compiled QUBO encodings
//!
//! The paper's central claim is that each string operation's QUBO
//! formulation has ground states that decode exactly to satisfying
//! strings. Nothing in the sampling pipeline *checks* a formulation
//! before burning reads on it, though — and penalty weights and
//! coefficient dynamic range decide whether any sampler (classical or
//! quantum) can see the ground state at all. This crate is that check:
//! a static analyzer over the compiled [`QuboModel`] — the model every
//! sampler receives — that runs **no sampling** and emits structured
//! diagnostics. [`lint_qubo`] is its one entry point.
//!
//! ## Passes
//!
//! 1. **Penalty-gap analysis** ([`passes::penalty_gap`]) — lower-bounds
//!    each inferred penalty group's margin against the objective's
//!    reachable pull and errors when a constraint violation can be
//!    energetically favorable.
//! 2. **Dead / presolve-fixable variables** ([`passes::dead_variables`],
//!    [`passes::presolve_fixable`]) — unconstrained bits and variables
//!    persistency would fix that survived compilation.
//! 3. **One-hot validation** ([`passes::one_hot_weak`]) — recovers
//!    one-hot cliques from the compiled `PenaltyBuilder` structure and
//!    verifies the weights actually enforce (at-most/exactly)-one.
//! 4. **Conditioning & precision** ([`passes::conditioning`]) —
//!    dynamic range vs. a QPU precision model, quantization erasure, and
//!    chain-strength feasibility against the coupler range.
//! 5. **Connectivity & degeneracy** ([`passes::connectivity`],
//!    [`passes::degenerate_symmetry`]) — disconnected components and
//!    exact swap symmetries of the energy function.
//!
//! Every diagnostic carries a stable kebab-case [`LintCode`]; the
//! catalogue with minimal triggering examples lives in `docs/LINTS.md`.
//!
//! ## Example
//!
//! ```
//! use qsmt_lint::{lint_qubo, LintConfig};
//! use qsmt_qubo::{PenaltyBuilder, QuboModel};
//!
//! // A sound exactly-one group: no error diagnostics.
//! let mut m = QuboModel::new(3);
//! PenaltyBuilder::new(&mut m).exactly_one(&[0, 1, 2], 2.0);
//! let report = lint_qubo(&m, &LintConfig::default());
//! assert!(!report.has_errors());
//!
//! // Rewarding two members more than the penalty can absorb is unsound —
//! // and the linter proves it statically.
//! let mut weak = QuboModel::new(3);
//! PenaltyBuilder::new(&mut weak)
//!     .exactly_one(&[0, 1, 2], 1.0)
//!     .bit_target(0, true, 5.0)
//!     .bit_target(1, true, 5.0);
//! let report = lint_qubo(&weak, &LintConfig::default());
//! assert!(report.codes().contains(&"penalty-gap"));
//! ```

#![warn(missing_docs)]

mod config;
mod diagnostic;
pub mod passes;
mod structure;

pub use config::{chain_strength, LintConfig, PrecisionModel};
pub use diagnostic::{Diagnostic, LintCode, LintReport, Severity};
pub use structure::{infer_groups, OneHotGroup};

use qsmt_qubo::QuboModel;

/// Lints a QUBO model with the given configuration.
pub fn lint_qubo(model: &QuboModel, cfg: &LintConfig) -> LintReport {
    let mut report = LintReport {
        diagnostics: passes::run_qubo_passes(model, cfg),
    };
    report.finish();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsmt_qubo::{PenaltyBuilder, QuboModel};

    fn default_lint(m: &QuboModel) -> LintReport {
        lint_qubo(m, &LintConfig::default())
    }

    #[test]
    fn clean_exactly_one_is_sound() {
        let mut m = QuboModel::new(4);
        PenaltyBuilder::new(&mut m).exactly_one(&[0, 1, 2, 3], 2.0);
        let report = default_lint(&m);
        assert!(
            !report.has_errors(),
            "unexpected errors: {}",
            report.render()
        );
    }

    #[test]
    fn weakened_penalty_trips_penalty_gap_and_agrees_with_ground_truth() {
        // exactly_one(strength 1) but two members carry a -5 objective
        // reward: the double-hot state is the true ground state, so the
        // formulation is unsound. The linter must say so statically.
        let mut m = QuboModel::new(3);
        PenaltyBuilder::new(&mut m)
            .exactly_one(&[0, 1, 2], 1.0)
            .bit_target(0, true, 5.0)
            .bit_target(1, true, 5.0);
        let report = default_lint(&m);
        assert!(report.has_errors());
        assert!(
            report.codes().contains(&"penalty-gap"),
            "{}",
            report.render()
        );
        // Ground truth: the ground state indeed violates one-hot.
        let (_, states) = m.brute_force_ground_states();
        assert!(states
            .iter()
            .all(|s| s.iter().map(|&b| u32::from(b)).sum::<u32>() > 1));
    }

    #[test]
    fn adequately_weighted_objective_passes() {
        // Same shape, but the penalty dominates the rewards: sound.
        let mut m = QuboModel::new(3);
        PenaltyBuilder::new(&mut m)
            .exactly_one(&[0, 1, 2], 10.0)
            .bit_target(0, true, 5.0)
            .bit_target(1, true, 5.0);
        let report = default_lint(&m);
        assert!(!report.has_errors(), "{}", report.render());
        let (_, states) = m.brute_force_ground_states();
        assert!(states
            .iter()
            .all(|s| s.iter().map(|&b| u32::from(b)).sum::<u32>() == 1));
    }

    #[test]
    fn external_pull_is_part_of_the_bound() {
        // The group itself is fine, but an external variable pulls two
        // members on at once with large negative couplings: switching all
        // three on beats any one-hot state. exactly_one A=1, pulls -6.
        let mut m = QuboModel::new(4);
        PenaltyBuilder::new(&mut m).exactly_one(&[0, 1, 2], 1.0);
        m.add_quadratic(0, 3, -6.0);
        m.add_quadratic(1, 3, -6.0);
        let report = default_lint(&m);
        assert!(
            report.codes().contains(&"penalty-gap"),
            "{}",
            report.render()
        );
        let (_, states) = m.brute_force_ground_states();
        assert!(states
            .iter()
            .all(|s| s[..3].iter().map(|&b| u32::from(b)).sum::<u32>() > 1));
    }

    #[test]
    fn one_sided_external_pull_does_not_false_positive() {
        // A strong pull on a single member just biases which one-hot wins;
        // the penalty still repairs any pair by dropping the other member.
        let mut m = QuboModel::new(4);
        PenaltyBuilder::new(&mut m).exactly_one(&[0, 1, 2], 1.0);
        m.add_quadratic(0, 3, -6.0);
        let report = default_lint(&m);
        assert!(!report.has_errors(), "{}", report.render());
        let (_, states) = m.brute_force_ground_states();
        assert!(states
            .iter()
            .all(|s| s[..3].iter().map(|&b| u32::from(b)).sum::<u32>() == 1));
    }

    #[test]
    fn dead_variable_detected() {
        let mut m = QuboModel::new(3);
        m.add_linear(0, -1.0);
        m.add_quadratic(0, 1, 0.5);
        // var 2 has no terms at all
        let report = default_lint(&m);
        assert!(report.codes().contains(&"dead-variable"));
        let dead = report
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::DeadVariable)
            .unwrap();
        assert_eq!(dead.vars, vec![2]);
    }

    #[test]
    fn presolve_fixable_detected_on_diagonal_model() {
        let mut m = QuboModel::new(2);
        m.add_linear(0, -1.0);
        m.add_linear(1, 2.0);
        let report = default_lint(&m);
        assert!(report.codes().contains(&"presolve-fixable"));
        assert!(!report.has_errors());
    }

    #[test]
    fn dynamic_range_and_precision_loss_detected() {
        let mut m = QuboModel::new(3);
        m.add_quadratic(0, 1, 1000.0);
        m.add_quadratic(1, 2, 0.001);
        let report = default_lint(&m);
        assert!(
            report.codes().contains(&"dynamic-range"),
            "{}",
            report.render()
        );
        assert!(report.codes().contains(&"precision-loss"));
    }

    #[test]
    fn chain_strength_warning_when_chains_dominate() {
        // Dense uniform couplings: UTC strength scales with sqrt(degree)
        // and overtakes max |coefficient|; the smallest coefficient sits
        // just above resolution unscaled, below it after chain scaling.
        let n = 40usize;
        let mut m = QuboModel::new(n);
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                m.add_quadratic(i, j, 1.0);
            }
        }
        m.add_linear(0, 0.006);
        let report = default_lint(&m);
        assert!(
            report.codes().contains(&"chain-strength"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn disconnected_components_detected() {
        let mut m = QuboModel::new(4);
        m.add_quadratic(0, 1, 1.0);
        m.add_quadratic(2, 3, -1.0);
        let report = default_lint(&m);
        assert!(report.codes().contains(&"disconnected-components"));
    }

    #[test]
    fn palindrome_style_mirror_pairs_are_symmetric() {
        // bits_equal mirror pairs: each pair is interchangeable.
        let mut m = QuboModel::new(4);
        PenaltyBuilder::new(&mut m)
            .bits_equal(0, 3, 1.0)
            .bits_equal(1, 2, 1.0);
        let report = default_lint(&m);
        assert!(
            report.codes().contains(&"degenerate-symmetry"),
            "{}",
            report.render()
        );
        let sym = report
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::DegenerateSymmetry)
            .unwrap();
        assert_eq!(sym.metric, Some(2.0));
    }

    #[test]
    fn empty_model_is_clean() {
        let report = default_lint(&QuboModel::new(0));
        assert!(report.diagnostics.is_empty());
        assert_eq!(report.summary(), "0 errors, 0 warnings, 0 info");
    }

    #[test]
    fn borderline_pair_weights_separate_sound_from_unsound() {
        // l = -3 each, pairwise w = +3.5: any pair scores -6 + 3.5 = -2.5,
        // worse than the best single (-3), and the triple scores +1.5 —
        // sound despite the strong rewards.
        let mut m = QuboModel::new(3);
        m.add_linear(0, -3.0);
        m.add_linear(1, -3.0);
        m.add_linear(2, -3.0);
        m.add_quadratic(0, 1, 3.5);
        m.add_quadratic(0, 2, 3.5);
        m.add_quadratic(1, 2, 3.5);
        let report = default_lint(&m);
        assert!(!report.has_errors(), "{}", report.render());
        // Weaken one pair weight below the repair threshold: the pair
        // (0,1) now beats every single and penalty-gap must fire.
        m.set_quadratic(0, 1, 2.5); // add-deltas: -3 + 2.5 = -0.5 both ways
        let report = default_lint(&m);
        assert!(
            report.codes().contains(&"penalty-gap"),
            "{}",
            report.render()
        );
        let (_, states) = m.brute_force_ground_states();
        assert!(states
            .iter()
            .all(|s| s.iter().map(|&b| u32::from(b)).sum::<u32>() > 1));
    }

    #[test]
    fn one_hot_weak_catches_zero_hot_escape() {
        // exactly_one(1.0) but the objective charges every member +3:
        // net linear is +2 everywhere, so the all-zero state beats every
        // one-hot state and the constraint cannot hold.
        let mut m = QuboModel::new(3);
        PenaltyBuilder::new(&mut m)
            .exactly_one(&[0, 1, 2], 1.0)
            .bit_target(0, false, 3.0)
            .bit_target(1, false, 3.0)
            .bit_target(2, false, 3.0);
        let report = default_lint(&m);
        assert!(
            report.codes().contains(&"one-hot-weak"),
            "{}",
            report.render()
        );
        let (_, states) = m.brute_force_ground_states();
        assert_eq!(states, vec![vec![0, 0, 0]]);
    }
}
