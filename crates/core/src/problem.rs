//! Encoded problems: a QUBO plus the recipe for decoding its states.

use crate::encode::{bits_to_string, DecodeError, BITS_PER_CHAR};
use qsmt_qubo::QuboModel;

/// How a sampler state maps back to a domain-level answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeScheme {
    /// The leading `7·len` bit variables decode to an ASCII string (most
    /// encoders); a regex encoder's class selectors follow them.
    AsciiString {
        /// Number of characters in the generated string.
        len: usize,
    },
    /// One indicator variable per candidate start position (§4.4 string
    /// includes); the set variable is the chosen index, and no set
    /// indicator means no index. The encoder's absent indicator follows
    /// the `count` start indicators and is not decoded.
    StartPosition {
        /// Number of candidate positions (`n − m + 1`).
        count: usize,
    },
    /// The paper's §4.6 unary length encoding over `7·chars` bit slots;
    /// decodes to the count of fully-occupied 7-bit groups.
    LengthUnary {
        /// Number of character slots.
        chars: usize,
    },
    /// An [`AsciiString`](DecodeScheme::AsciiString) encoding whose
    /// QUBO was shrunk by fixing bit variables up front (absint domain
    /// tightening, see `docs/ABSINT.md`): the sampler only sees the
    /// free bits, and decoding re-inserts the fixed ones before reading
    /// off the string.
    AsciiStringReduced {
        /// Number of characters in the generated string.
        len: usize,
        /// `(original bit index, fixed value)` pairs, sorted and unique
        /// by bit index. The free bits, in ascending original order,
        /// correspond one-to-one to the reduced state.
        fixed: Vec<(u32, u8)>,
    },
}

impl DecodeScheme {
    /// Length of the leading block of variables the scheme decodes:
    /// `7·len` character bits (less the fixed ones when reduced),
    /// `count` start indicators, or `7·chars` length slots.
    fn block_len(&self) -> usize {
        match self {
            DecodeScheme::AsciiString { len } => len * BITS_PER_CHAR,
            DecodeScheme::StartPosition { count } => *count,
            DecodeScheme::LengthUnary { chars } => chars * BITS_PER_CHAR,
            DecodeScheme::AsciiStringReduced { len, fixed } => len * BITS_PER_CHAR - fixed.len(),
        }
    }
}

/// A decoded answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Solution {
    /// A generated string.
    Text(String),
    /// A chosen start index (`None` when no indicator was set).
    Index(Option<usize>),
    /// A decoded length.
    Length(usize),
}

impl Solution {
    /// The string payload, if this is a text solution.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Solution::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The index payload, if this is an index solution.
    pub fn as_index(&self) -> Option<usize> {
        match self {
            Solution::Index(i) => *i,
            _ => None,
        }
    }
}

impl std::fmt::Display for Solution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Solution::Text(s) => write!(f, "{s:?}"),
            Solution::Index(Some(i)) => write!(f, "index {i}"),
            Solution::Index(None) => write!(f, "no index"),
            Solution::Length(l) => write!(f, "length {l}"),
        }
    }
}

/// A constraint compiled to QUBO form, ready for any
/// [`qsmt_anneal::Sampler`].
#[derive(Debug, Clone)]
pub struct EncodedProblem {
    /// The QUBO model whose ground states solve the constraint.
    pub qubo: QuboModel,
    /// How to map sampler states back to answers.
    pub decode: DecodeScheme,
    /// Stable encoder name (e.g. `"string-equality"`).
    pub name: &'static str,
    /// Human-readable description of the encoded instance.
    pub description: String,
}

impl EncodedProblem {
    /// Decodes one sampler state into a domain answer.
    ///
    /// The state must cover the whole model. Every scheme reads only its
    /// leading block — the character bits or start indicators — so the
    /// ancillas an encoder appends after them (regex class selectors, the
    /// includes absent indicator) never reach the answer.
    ///
    /// # Errors
    /// Returns [`DecodeError`] when the state is malformed for the scheme.
    pub fn decode_state(&self, state: &[u8]) -> Result<Solution, DecodeError> {
        let block = self.decode.block_len();
        if state.len() != self.num_vars() || block > state.len() {
            return Err(DecodeError::BadLength { len: state.len() });
        }
        let state = &state[..block];
        match &self.decode {
            DecodeScheme::AsciiString { .. } => Ok(Solution::Text(bits_to_string(state)?)),
            DecodeScheme::StartPosition { .. } => {
                if let Some(index) = state.iter().position(|&b| b > 1) {
                    return Err(DecodeError::NonBinary { index });
                }
                // Multiple set indicators decode to the first; validation
                // downstream flags the one-hot violation.
                Ok(Solution::Index(state.iter().position(|&b| b == 1)))
            }
            DecodeScheme::LengthUnary { .. } => {
                if let Some(index) = state.iter().position(|&b| b > 1) {
                    return Err(DecodeError::NonBinary { index });
                }
                let full_groups = state
                    .chunks_exact(BITS_PER_CHAR)
                    .take_while(|g| g.iter().all(|&b| b == 1))
                    .count();
                Ok(Solution::Length(full_groups))
            }
            DecodeScheme::AsciiStringReduced { len, fixed } => {
                // Lift the reduced state back to the full 7·len bits:
                // fixed bits at their original indices, free bits in
                // ascending order from the sampler state.
                let mut bits = vec![u8::MAX; len * BITS_PER_CHAR];
                for &(i, b) in fixed {
                    bits[i as usize] = b;
                }
                let mut free = state.iter();
                for slot in &mut bits {
                    if *slot == u8::MAX {
                        *slot = *free.next().expect("free bit count checked above");
                    }
                }
                Ok(Solution::Text(bits_to_string(&bits)?))
            }
        }
    }

    /// Number of binary variables in the encoded QUBO.
    pub fn num_vars(&self) -> usize {
        self.qubo.num_vars()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::string_to_bits;

    fn problem(decode: DecodeScheme, vars: usize) -> EncodedProblem {
        EncodedProblem {
            qubo: QuboModel::new(vars),
            decode,
            name: "test",
            description: "test".into(),
        }
    }

    #[test]
    fn ascii_decode() {
        let p = problem(DecodeScheme::AsciiString { len: 2 }, 14);
        let state = string_to_bits("hi").unwrap();
        assert_eq!(p.decode_state(&state).unwrap(), Solution::Text("hi".into()));
    }

    #[test]
    fn ascii_decode_rejects_wrong_length() {
        let p = problem(DecodeScheme::AsciiString { len: 2 }, 14);
        assert!(p.decode_state(&[0; 7]).is_err());
    }

    #[test]
    fn start_position_decode() {
        // Three start indicators, then the absent indicator.
        let p = problem(DecodeScheme::StartPosition { count: 3 }, 4);
        assert_eq!(
            p.decode_state(&[0, 1, 0, 0]).unwrap(),
            Solution::Index(Some(1))
        );
        assert_eq!(
            p.decode_state(&[0, 0, 0, 1]).unwrap(),
            Solution::Index(None)
        );
        // multiple indicators: first wins at decode level
        assert_eq!(
            p.decode_state(&[0, 1, 1, 0]).unwrap(),
            Solution::Index(Some(1))
        );
        assert!(p.decode_state(&[0, 1, 0]).is_err(), "state too short");
    }

    #[test]
    fn length_unary_decode() {
        let p = problem(DecodeScheme::LengthUnary { chars: 3 }, 21);
        let mut state = vec![1u8; 14];
        state.extend(vec![0u8; 7]);
        assert_eq!(p.decode_state(&state).unwrap(), Solution::Length(2));
        // a partial group does not count
        let mut partial = vec![1u8; 6];
        partial.push(0);
        partial.extend(vec![0u8; 14]);
        assert_eq!(p.decode_state(&partial).unwrap(), Solution::Length(0));
    }

    #[test]
    fn reduced_ascii_decode_reinserts_fixed_bits() {
        // "hi" with position 0 fixed to 'h': bits 0..7 fixed, free
        // state carries only the 7 bits of 'i'.
        let full = string_to_bits("hi").unwrap();
        let fixed: Vec<(u32, u8)> = full[..7]
            .iter()
            .enumerate()
            .map(|(i, &b)| (i as u32, b))
            .collect();
        let p = problem(DecodeScheme::AsciiStringReduced { len: 2, fixed }, 7);
        assert_eq!(
            p.decode_state(&full[7..]).unwrap(),
            Solution::Text("hi".into())
        );
        assert!(p.decode_state(&full).is_err(), "full state is too long");
    }

    #[test]
    fn solution_accessors() {
        assert_eq!(Solution::Text("x".into()).as_text(), Some("x"));
        assert_eq!(Solution::Index(Some(4)).as_index(), Some(4));
        assert_eq!(Solution::Text("x".into()).as_index(), None);
        assert_eq!(format!("{}", Solution::Index(None)), "no index");
    }
}
