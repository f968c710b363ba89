//! §4.5 Substring indexOf: generate a string of length `t` with a given
//! substring pinned at a given index, everything else soft.

use crate::encode::{bit_index, char_to_bits, BITS_PER_CHAR};
use crate::error::ConstraintError;
use crate::ops::{BiasProfile, DEFAULT_STRENGTH};
use crate::problem::{DecodeScheme, EncodedProblem};

/// Multiplier of the strong constraints on the substring's window (the
/// paper's example: 2× the penalty strength `A`).
const STRONG_FACTOR: f64 = 2.0;

/// The substring-indexOf placement encoder (paper §4.5).
///
/// Builds a `7t × 7t` diagonal QUBO where the substring's window gets
/// *strong* constraints (`2A` per bit, per the paper's "for example 2× the
/// penalty strength A") and all other positions get *soft* constraints
/// (`0.1A`, per the paper's "for example 0.1× the penalty strength A") so
/// "other valid ascii characters can be generated at those positions".
///
/// The soft constraint is a [`BiasProfile`]; the default
/// [`BiasProfile::lowercase_block`] pulls free characters into the
/// lowercase `0x60..=0x7F` block, matching the paper's Table 1 sample
/// output `qphiqp` (free fill characters `q`/`p` around `hi` at index 2).
#[derive(Debug, Clone)]
pub struct IndexOfPlacement {
    substring: String,
    index: usize,
    total_len: usize,
    strength: f64,
    bias: BiasProfile,
}

impl IndexOfPlacement {
    /// Generates a `total_len`-character string with `substring` starting
    /// at `index`.
    pub fn new(substring: impl Into<String>, index: usize, total_len: usize) -> Self {
        Self {
            substring: substring.into(),
            index,
            total_len,
            strength: DEFAULT_STRENGTH,
            bias: BiasProfile::lowercase_block(),
        }
    }

    /// Overrides the penalty strength `A`.
    pub fn with_strength(mut self, a: f64) -> Self {
        assert!(a > 0.0, "strength must be positive");
        self.strength = a;
        self
    }

    /// Overrides the soft bias applied to free positions.
    pub fn with_bias(mut self, bias: BiasProfile) -> Self {
        self.bias = bias;
        self
    }

    /// Compiles to QUBO form.
    ///
    /// # Errors
    /// Fails when the window overflows, the substring is empty, or input
    /// is non-ASCII.
    pub fn encode(&self) -> Result<EncodedProblem, ConstraintError> {
        let m = self.substring.len();
        if m == 0 {
            return Err(ConstraintError::EmptyArgument { what: "substring" });
        }
        if self.index + m > self.total_len {
            return Err(ConstraintError::IndexOutOfRange {
                index: self.index,
                substring: m,
                total: self.total_len,
            });
        }
        let strong = self.strength * STRONG_FACTOR;
        let mut qubo = qsmt_qubo::QuboModel::new(self.total_len * BITS_PER_CHAR);
        for (j, c) in self.substring.chars().enumerate() {
            let bits = char_to_bits(c)?;
            for (i, &b) in bits.iter().enumerate() {
                qubo.add_linear(
                    bit_index(self.index + j, i),
                    if b == 1 { -strong } else { strong },
                );
            }
        }
        for pos in 0..self.total_len {
            let in_window = pos >= self.index && pos < self.index + m;
            if !in_window {
                self.bias.apply(&mut qubo, pos, self.strength);
            }
        }
        Ok(EncodedProblem {
            qubo,
            decode: DecodeScheme::AsciiString {
                len: self.total_len,
            },
            name: "substring-indexof",
            description: format!(
                "generate a {}-character string with {:?} at index {}",
                self.total_len, self.substring, self.index
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::test_support::exact_texts;

    #[test]
    fn window_is_pinned_exactly() {
        // "hi" at index 1 in length 3 → 21 vars, exactly solvable.
        let p = IndexOfPlacement::new("hi", 1, 3).encode().unwrap();
        let texts = exact_texts(&p);
        assert!(!texts.is_empty());
        for t in &texts {
            assert_eq!(&t[1..3], "hi", "window must hold in {t:?}");
        }
    }

    #[test]
    fn lowercase_bias_fills_free_positions_in_lowercase_block() {
        let p = IndexOfPlacement::new("hi", 1, 3).encode().unwrap();
        for t in exact_texts(&p) {
            let c0 = t.as_bytes()[0];
            assert!(
                (0x60..=0x7f).contains(&c0),
                "free char {c0:#x} must be in the biased block"
            );
        }
    }

    #[test]
    fn no_bias_leaves_free_positions_fully_degenerate() {
        let p = IndexOfPlacement::new("hi", 0, 3)
            .with_bias(BiasProfile::none())
            .encode()
            .unwrap();
        let texts = exact_texts(&p);
        // last slot unconstrained: all 128 ASCII fills are ground states
        assert_eq!(texts.len(), 128);
        for t in &texts {
            assert!(t.starts_with("hi"));
        }
    }

    #[test]
    fn window_at_start_and_end() {
        for (idx, n) in [(0usize, 3usize), (1, 3)] {
            let p = IndexOfPlacement::new("ab", idx, n).encode().unwrap();
            for t in exact_texts(&p) {
                assert_eq!(&t[idx..idx + 2], "ab");
            }
        }
    }

    #[test]
    fn strong_constraints_dominate_bias() {
        // Bias pulls toward 0x60+ but the window character 'A' (0x41) must
        // survive because its constraints are 2A vs 0.1A.
        let p = IndexOfPlacement::new("A", 0, 2).encode().unwrap();
        for t in exact_texts(&p) {
            assert!(t.starts_with('A'));
        }
    }

    #[test]
    fn errors() {
        assert!(matches!(
            IndexOfPlacement::new("abc", 4, 6).encode(),
            Err(ConstraintError::IndexOutOfRange { .. })
        ));
        assert!(IndexOfPlacement::new("", 0, 3).encode().is_err());
        assert!(IndexOfPlacement::new("é", 0, 3).encode().is_err());
    }

    #[test]
    fn full_width_window_reduces_to_scaled_equality() {
        let p = IndexOfPlacement::new("ok", 0, 2).encode().unwrap();
        assert_eq!(exact_texts(&p), vec!["ok".to_string()]);
    }
}
