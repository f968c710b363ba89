//! The unified constraint AST: one variant per paper formulation.

use crate::error::ConstraintError;
use crate::ops::{
    affix::{CharAt, Prefix, Suffix},
    concat::Concat,
    equality::Equality,
    includes::Includes,
    index_of::IndexOfPlacement,
    length::{LengthUnary, LengthWithFill},
    palindrome::Palindrome,
    regex::RegexMatch,
    replace::Replace,
    reverse::Reverse,
    substring::SubstringMatch,
    BiasProfile, DEFAULT_STRENGTH,
};
use crate::problem::{EncodedProblem, Solution};
use qsmt_redex::{parse, Nfa};

/// A string constraint in one of the paper's twelve supported forms
/// (§4.1–§4.11; sequential combination §4.12 lives in
/// [`crate::Pipeline`]).
///
/// `Constraint` is the interchange type between the SMT-LIB front end, the
/// QUBO solver, and the classical baseline: all three consume the same
/// AST.
#[derive(Debug, Clone, PartialEq)]
pub enum Constraint {
    /// §4.1 — generate a string equal to `target`.
    Equality {
        /// The target string.
        target: String,
    },
    /// §4.2 — generate the concatenation of `parts` joined by
    /// `separator`.
    Concat {
        /// The strings to concatenate.
        parts: Vec<String>,
        /// Join separator (the paper's examples use `" "`).
        separator: String,
    },
    /// §4.3 — generate a `len`-character string containing `substring`.
    SubstringMatch {
        /// The required substring.
        substring: String,
        /// Total generated length.
        len: usize,
    },
    /// §4.4 — find where `needle` begins within `haystack`.
    Includes {
        /// The containing string.
        haystack: String,
        /// The substring to locate.
        needle: String,
    },
    /// §4.5 — generate a `len`-character string with `substring` at
    /// `index`.
    IndexOfPlacement {
        /// The pinned substring.
        substring: String,
        /// Its start index.
        index: usize,
        /// Total generated length.
        len: usize,
    },
    /// §4.6 — the paper's unary length encoding over `slots` slots.
    LengthUnary {
        /// Desired occupied length.
        desired: usize,
        /// Available slots.
        slots: usize,
    },
    /// Practical variant of §4.6 — generate a printable string of
    /// `desired` characters in a `slots` buffer.
    LengthFill {
        /// Desired string length.
        desired: usize,
        /// Buffer slots.
        slots: usize,
    },
    /// §4.7 — replace every `from` with `to` in `input`.
    ReplaceAll {
        /// Input string.
        input: String,
        /// Character to replace.
        from: char,
        /// Replacement character.
        to: char,
    },
    /// §4.8 — replace the first `from` with `to` in `input`.
    ReplaceFirst {
        /// Input string.
        input: String,
        /// Character to replace.
        from: char,
        /// Replacement character.
        to: char,
    },
    /// §4.9 — generate the reverse of `input`.
    Reverse {
        /// Input string.
        input: String,
    },
    /// §4.10 — generate a palindrome of `len` characters.
    Palindrome {
        /// Palindrome length.
        len: usize,
    },
    /// §4.11 — generate a `len`-character string matching `pattern`.
    Regex {
        /// The regex pattern.
        pattern: String,
        /// Generated length.
        len: usize,
    },
    /// Extension (SMT-LIB `str.prefixof`) — generate a `len`-character
    /// string starting with `prefix`.
    Prefix {
        /// The required prefix.
        prefix: String,
        /// Total generated length.
        len: usize,
    },
    /// Extension (SMT-LIB `str.suffixof`) — generate a `len`-character
    /// string ending with `suffix`.
    Suffix {
        /// The required suffix.
        suffix: String,
        /// Total generated length.
        len: usize,
    },
    /// Extension (SMT-LIB `str.at`) — generate a `len`-character string
    /// with `ch` at `index`.
    CharAt {
        /// The pinned character.
        ch: char,
        /// Its index.
        index: usize,
        /// Total generated length.
        len: usize,
    },
    /// Extension — the *simultaneous* conjunction of several generation
    /// constraints over one string variable: their QUBOs are merged into a
    /// single model (energies add), so the annealer searches for a string
    /// satisfying all parts at once. Contrast with the paper's §4.12
    /// *sequential* composition ([`crate::Pipeline`]), which threads
    /// transformation outputs. Every part must generate an ASCII string of
    /// the same length.
    All(
        /// The conjoined parts.
        Vec<Constraint>,
    ),
    /// Extension — a string constraint whose QUBO is shrunk by fixing
    /// the bits of statically-proven character positions before
    /// sampling (absint domain tightening, see `docs/ABSINT.md`). The
    /// pins must be redundant with `inner` — they are derived by a
    /// sound analysis of the same script — so fixing them preserves
    /// the ground-state set while the sampler only sees the free bits.
    Pinned {
        /// The constraint being tightened; must decode to
        /// [`crate::problem::DecodeScheme::AsciiString`].
        inner: Box<Constraint>,
        /// `(position, character)` pairs proven to hold.
        pins: Vec<(usize, char)>,
    },
}

impl Constraint {
    /// Compiles the constraint to QUBO form with explicit strength and
    /// bias settings.
    ///
    /// # Errors
    /// Propagates the underlying encoder's [`ConstraintError`].
    pub fn encode_with(
        &self,
        strength: f64,
        bias: BiasProfile,
    ) -> Result<EncodedProblem, ConstraintError> {
        match self {
            Constraint::Equality { target } => {
                Equality::new(target).with_strength(strength).encode()
            }
            Constraint::Concat { parts, separator } => Concat::new(parts.clone())
                .with_separator(separator.clone())
                .with_strength(strength)
                .encode(),
            Constraint::SubstringMatch { substring, len } => SubstringMatch::new(substring, *len)
                .with_strength(strength)
                .encode(),
            Constraint::Includes { haystack, needle } => Includes::new(haystack, needle)
                .with_strength(strength)
                .encode(),
            Constraint::IndexOfPlacement {
                substring,
                index,
                len,
            } => IndexOfPlacement::new(substring, *index, *len)
                .with_strength(strength)
                .with_bias(bias)
                .encode(),
            Constraint::LengthUnary { desired, slots } => LengthUnary::new(*desired, *slots)
                .with_strength(strength)
                .encode(),
            Constraint::LengthFill { desired, slots } => LengthWithFill::new(*desired, *slots)
                .with_strength(strength)
                .with_bias(bias)
                .encode(),
            Constraint::ReplaceAll { input, from, to } => Replace::all(input, *from, *to)
                .with_strength(strength)
                .encode(),
            Constraint::ReplaceFirst { input, from, to } => Replace::first(input, *from, *to)
                .with_strength(strength)
                .encode(),
            Constraint::Reverse { input } => Reverse::new(input).with_strength(strength).encode(),
            Constraint::Palindrome { len } => Palindrome::new(*len)
                .with_strength(strength)
                .with_bias(bias)
                .encode(),
            Constraint::Regex { pattern, len } => RegexMatch::new(pattern, *len)
                .with_strength(strength)
                .encode(),
            Constraint::Prefix { prefix, len } => Prefix::new(prefix, *len)
                .with_strength(strength)
                .with_bias(bias)
                .encode(),
            Constraint::Suffix { suffix, len } => Suffix::new(suffix, *len)
                .with_strength(strength)
                .with_bias(bias)
                .encode(),
            Constraint::CharAt { ch, index, len } => CharAt::new(*ch, *index, *len)
                .with_strength(strength)
                .with_bias(bias)
                .encode(),
            Constraint::All(parts) => {
                if parts.is_empty() {
                    return Err(ConstraintError::EmptyArgument {
                        what: "conjunction",
                    });
                }
                let encoded: Vec<EncodedProblem> = parts
                    .iter()
                    .map(|p| p.encode_with(strength, bias))
                    .collect::<Result<_, _>>()?;
                // All parts must generate one ASCII string of equal length.
                let len = match &encoded[0].decode {
                    crate::problem::DecodeScheme::AsciiString { len } => *len,
                    other => {
                        return Err(ConstraintError::IncompatibleConjunction {
                            reason: format!(
                                "part {:?} does not generate a string (decode {other:?})",
                                parts[0].describe()
                            ),
                        })
                    }
                };
                for (part, enc) in parts.iter().zip(&encoded) {
                    match &enc.decode {
                        crate::problem::DecodeScheme::AsciiString { len: l } if *l == len => {}
                        other => {
                            return Err(ConstraintError::IncompatibleConjunction {
                                reason: format!(
                                "part {:?} decodes as {other:?}, expected a {len}-character string",
                                part.describe()
                            ),
                            })
                        }
                    }
                }
                // The parts share the character bits; each part's ancillas
                // are renumbered after the previous parts' ancillas.
                let char_vars = len * crate::encode::BITS_PER_CHAR;
                let mut qubo = qsmt_qubo::QuboModel::new(char_vars);
                for enc in &encoded {
                    let first_ancilla = qubo.num_vars();
                    qubo.grow_to(first_ancilla + enc.qubo.num_vars() - char_vars);
                    qubo.merge_placed(&enc.qubo, |v| {
                        if (v as usize) < char_vars {
                            v
                        } else {
                            (v as usize - char_vars + first_ancilla) as qsmt_qubo::Var
                        }
                    });
                }
                Ok(EncodedProblem {
                    qubo,
                    decode: crate::problem::DecodeScheme::AsciiString { len },
                    name: "conjunction",
                    description: parts
                        .iter()
                        .map(Constraint::describe)
                        .collect::<Vec<_>>()
                        .join(" ∧ "),
                })
            }
            // Pins fix character bits only; the inner encoding's ancillas
            // stay free and follow the free character bits.
            Constraint::Pinned { inner, pins } => {
                let enc = inner.encode_with(strength, bias)?;
                let len = match &enc.decode {
                    crate::problem::DecodeScheme::AsciiString { len } => *len,
                    other => {
                        return Err(ConstraintError::IncompatibleConjunction {
                            reason: format!(
                            "pinned constraint {:?} does not generate a string (decode {other:?})",
                            inner.describe()
                        ),
                        })
                    }
                };
                // Each pin fixes the 7 bits of one character slot.
                let mut fixed: Vec<(u32, u8)> =
                    Vec::with_capacity(pins.len() * crate::encode::BITS_PER_CHAR);
                for &(pos, ch) in pins {
                    if pos >= len {
                        return Err(ConstraintError::IndexOutOfRange {
                            index: pos,
                            substring: 1,
                            total: len,
                        });
                    }
                    let bits = crate::encode::char_to_bits(ch)?;
                    for (b, &bit) in bits.iter().enumerate() {
                        fixed.push((crate::encode::bit_index(pos, b), bit));
                    }
                }
                fixed.sort_unstable_by_key(|&(i, _)| i);
                fixed.dedup();
                let reduced = qsmt_qubo::fix_variables(&enc.qubo, &fixed);
                let description = format!(
                    "{} with {} position(s) pinned statically",
                    enc.description,
                    pins.len()
                );
                Ok(EncodedProblem {
                    qubo: reduced.model,
                    decode: crate::problem::DecodeScheme::AsciiStringReduced { len, fixed },
                    name: enc.name,
                    description,
                })
            }
        }
    }

    /// Compiles with the paper defaults (`A = 1`) and per-encoder default
    /// biases: lowercase-block fill for the flexible generators
    /// ([`Constraint::IndexOfPlacement`], [`Constraint::LengthFill`]),
    /// printable bias for [`Constraint::Palindrome`] display parity, none
    /// elsewhere.
    ///
    /// # Errors
    /// Propagates the underlying encoder's [`ConstraintError`].
    pub fn encode(&self) -> Result<EncodedProblem, ConstraintError> {
        let bias = Self::default_bias(self);
        self.encode_with(DEFAULT_STRENGTH, bias)
    }

    /// The documented per-variant default bias profile.
    pub(crate) fn default_bias(c: &Constraint) -> BiasProfile {
        match c {
            Constraint::IndexOfPlacement { .. }
            | Constraint::LengthFill { .. }
            | Constraint::Prefix { .. }
            | Constraint::Suffix { .. }
            | Constraint::CharAt { .. } => BiasProfile::lowercase_block(),
            Constraint::Palindrome { .. } => BiasProfile::printable(),
            // A conjunction inherits one shared bias; the printable bias is
            // the safe symmetric choice (palindrome parts stay mirrored).
            Constraint::All(_) => BiasProfile::printable(),
            // Pinning does not change which encoder runs underneath.
            Constraint::Pinned { inner, .. } => Self::default_bias(inner),
            _ => BiasProfile::none(),
        }
    }

    /// Semantic validation: does the decoded solution actually satisfy the
    /// constraint? This is the "transform back to the original theory and
    /// check for consistency" step of the SMT architecture the paper
    /// describes in §1.
    pub fn validate(&self, solution: &Solution) -> bool {
        match (self, solution) {
            (Constraint::Equality { target }, Solution::Text(t)) => t == target,
            (Constraint::Concat { parts, separator }, Solution::Text(t)) => {
                *t == parts.join(separator)
            }
            (Constraint::SubstringMatch { substring, len }, Solution::Text(t)) => {
                t.len() == *len && t.contains(substring.as_str())
            }
            (Constraint::Includes { haystack, needle }, Solution::Index(idx)) => {
                *idx == haystack.find(needle.as_str())
            }
            (
                Constraint::IndexOfPlacement {
                    substring,
                    index,
                    len,
                },
                Solution::Text(t),
            ) => t.len() == *len && t.get(*index..*index + substring.len()) == Some(substring),
            (Constraint::LengthUnary { desired, .. }, Solution::Length(l)) => l == desired,
            (Constraint::LengthFill { desired, slots }, Solution::Text(t)) => {
                let trimmed = t.trim_end_matches('\0');
                t.len() == *slots && trimmed.len() == *desired && !trimmed.contains('\0')
            }
            (Constraint::ReplaceAll { input, from, to }, Solution::Text(t)) => {
                *t == input.replace(*from, &to.to_string())
            }
            (Constraint::ReplaceFirst { input, from, to }, Solution::Text(t)) => {
                *t == input.replacen(*from, &to.to_string(), 1)
            }
            (Constraint::Reverse { input }, Solution::Text(t)) => {
                *t == input.chars().rev().collect::<String>()
            }
            (Constraint::Palindrome { len }, Solution::Text(t)) => {
                t.len() == *len && t.chars().rev().collect::<String>() == *t
            }
            (Constraint::Regex { pattern, len }, Solution::Text(t)) => {
                t.len() == *len && parse(pattern).is_ok_and(|re| Nfa::compile(&re).matches(t))
            }
            (Constraint::Prefix { prefix, len }, Solution::Text(t)) => {
                t.len() == *len && t.starts_with(prefix.as_str())
            }
            (Constraint::Suffix { suffix, len }, Solution::Text(t)) => {
                t.len() == *len && t.ends_with(suffix.as_str())
            }
            (Constraint::CharAt { ch, index, len }, Solution::Text(t)) => {
                t.len() == *len && t.as_bytes().get(*index) == Some(&(*ch as u8))
            }
            (Constraint::All(parts), sol) => parts.iter().all(|p| p.validate(sol)),
            (Constraint::Pinned { inner, pins }, sol) => {
                inner.validate(sol)
                    && match sol {
                        Solution::Text(t) => pins
                            .iter()
                            .all(|&(i, ch)| t.as_bytes().get(i) == Some(&(ch as u8))),
                        _ => false,
                    }
            }
            _ => false,
        }
    }

    /// Short human-readable description.
    pub fn describe(&self) -> String {
        match self {
            Constraint::Equality { target } => format!("S = {target:?}"),
            Constraint::Concat { parts, separator } => {
                format!("concat {parts:?} with sep {separator:?}")
            }
            Constraint::SubstringMatch { substring, len } => {
                format!("|T| = {len} ∧ T contains {substring:?}")
            }
            Constraint::Includes { haystack, needle } => {
                format!("indexOf({haystack:?}, {needle:?})")
            }
            Constraint::IndexOfPlacement {
                substring,
                index,
                len,
            } => format!("|T| = {len} ∧ T[{index}..] starts with {substring:?}"),
            Constraint::LengthUnary { desired, slots } => {
                format!("unary length {desired} of {slots} slots")
            }
            Constraint::LengthFill { desired, slots } => {
                format!("printable string of length {desired} in {slots} slots")
            }
            Constraint::ReplaceAll { input, from, to } => {
                format!("replaceAll({input:?}, {from:?} → {to:?})")
            }
            Constraint::ReplaceFirst { input, from, to } => {
                format!("replace({input:?}, {from:?} → {to:?})")
            }
            Constraint::Reverse { input } => format!("reverse({input:?})"),
            Constraint::Palindrome { len } => format!("palindrome of length {len}"),
            Constraint::Regex { pattern, len } => format!("|S| = {len} ∧ S ∈ /{pattern}/"),
            Constraint::Prefix { prefix, len } => {
                format!("|S| = {len} ∧ S starts with {prefix:?}")
            }
            Constraint::Suffix { suffix, len } => {
                format!("|S| = {len} ∧ S ends with {suffix:?}")
            }
            Constraint::CharAt { ch, index, len } => {
                format!("|S| = {len} ∧ S[{index}] = {ch:?}")
            }
            Constraint::All(parts) => parts
                .iter()
                .map(Constraint::describe)
                .collect::<Vec<_>>()
                .join(" ∧ "),
            Constraint::Pinned { inner, pins } => {
                format!("{} with {} pin(s)", inner.describe(), pins.len())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_encodes() {
        let cases = vec![
            Constraint::Equality {
                target: "ab".into(),
            },
            Constraint::Concat {
                parts: vec!["a".into(), "b".into()],
                separator: String::new(),
            },
            Constraint::SubstringMatch {
                substring: "ab".into(),
                len: 3,
            },
            Constraint::Includes {
                haystack: "hello".into(),
                needle: "ell".into(),
            },
            Constraint::IndexOfPlacement {
                substring: "hi".into(),
                index: 1,
                len: 4,
            },
            Constraint::LengthUnary {
                desired: 2,
                slots: 3,
            },
            Constraint::LengthFill {
                desired: 2,
                slots: 3,
            },
            Constraint::ReplaceAll {
                input: "aba".into(),
                from: 'a',
                to: 'z',
            },
            Constraint::ReplaceFirst {
                input: "aba".into(),
                from: 'a',
                to: 'z',
            },
            Constraint::Reverse {
                input: "abc".into(),
            },
            Constraint::Palindrome { len: 3 },
            Constraint::Regex {
                pattern: "a[bc]+".into(),
                len: 3,
            },
        ];
        for c in cases {
            let p = c.encode().unwrap_or_else(|e| panic!("{c:?}: {e}"));
            assert!(p.num_vars() > 0, "{c:?} must produce variables");
        }
    }

    #[test]
    fn validation_accepts_correct_solutions() {
        let cases: Vec<(Constraint, Solution)> = vec![
            (
                Constraint::Equality {
                    target: "ab".into(),
                },
                Solution::Text("ab".into()),
            ),
            (
                Constraint::SubstringMatch {
                    substring: "at".into(),
                    len: 4,
                },
                Solution::Text("ccat".into()),
            ),
            (
                Constraint::Includes {
                    haystack: "abab".into(),
                    needle: "ab".into(),
                },
                Solution::Index(Some(0)),
            ),
            (
                Constraint::Palindrome { len: 6 },
                Solution::Text("OnFFnO".into()),
            ),
            (
                Constraint::Regex {
                    pattern: "a[bc]+".into(),
                    len: 5,
                },
                Solution::Text("abcbb".into()),
            ),
            (
                Constraint::ReplaceAll {
                    input: "hello world".into(),
                    from: 'l',
                    to: 'x',
                },
                Solution::Text("hexxo worxd".into()),
            ),
            (
                Constraint::Reverse {
                    input: "hello".into(),
                },
                Solution::Text("olleh".into()),
            ),
        ];
        for (c, s) in cases {
            assert!(c.validate(&s), "{c:?} should accept {s}");
        }
    }

    #[test]
    fn validation_rejects_wrong_solutions() {
        assert!(!Constraint::Equality {
            target: "ab".into()
        }
        .validate(&Solution::Text("ba".into())));
        assert!(!Constraint::Palindrome { len: 4 }.validate(&Solution::Text("abca".into())));
        assert!(!Constraint::Regex {
            pattern: "a[bc]+".into(),
            len: 5
        }
        .validate(&Solution::Text("a`bbb".into())));
        assert!(!Constraint::Includes {
            haystack: "abab".into(),
            needle: "ab".into()
        }
        .validate(&Solution::Index(Some(2))));
        // wrong solution *kind*
        assert!(!Constraint::Equality {
            target: "ab".into()
        }
        .validate(&Solution::Index(Some(0))));
    }

    #[test]
    fn includes_with_no_match_validates_none() {
        let c = Constraint::Includes {
            haystack: "xyz".into(),
            needle: "ab".into(),
        };
        assert!(c.validate(&Solution::Index(None)));
        assert!(!c.validate(&Solution::Index(Some(0))));
    }

    #[test]
    fn affix_variants_encode_and_validate() {
        let pre = Constraint::Prefix {
            prefix: "ab".into(),
            len: 3,
        };
        assert!(pre.validate(&Solution::Text("abz".into())));
        assert!(!pre.validate(&Solution::Text("zab".into())));
        let suf = Constraint::Suffix {
            suffix: "yz".into(),
            len: 3,
        };
        assert!(suf.validate(&Solution::Text("xyz".into())));
        assert!(!suf.validate(&Solution::Text("yzx".into())));
        let at = Constraint::CharAt {
            ch: 'q',
            index: 1,
            len: 3,
        };
        assert!(at.validate(&Solution::Text("aqa".into())));
        assert!(!at.validate(&Solution::Text("qaa".into())));
        for c in [pre, suf, at] {
            assert!(c.encode().is_ok());
        }
    }

    #[test]
    fn conjunction_merges_models_and_ground_states_satisfy_all_parts() {
        // palindrome(3) ∧ S[0] = 'a': ground strings are "a?a".
        let c = Constraint::All(vec![
            Constraint::Palindrome { len: 3 },
            Constraint::CharAt {
                ch: 'a',
                index: 0,
                len: 3,
            },
        ]);
        let p = c.encode().expect("encodes");
        assert_eq!(p.num_vars(), 21);
        let (_, states) = qsmt_anneal::ExactSolver::new().ground_states(&p.qubo);
        assert!(!states.is_empty());
        for st in states.iter().take(16) {
            let sol = p.decode_state(st).expect("decodes");
            let t = sol.as_text().expect("text");
            assert!(t.starts_with('a') && t.ends_with('a'), "{t:?}");
        }
    }

    #[test]
    fn pinned_constraint_shrinks_model_and_preserves_ground_states() {
        // CharAt pins S[0] = 'a' at the QUBO level; the absint pin for
        // the same position removes those 7 bits from the model.
        let inner = Constraint::CharAt {
            ch: 'a',
            index: 0,
            len: 3,
        };
        let full = inner.encode().expect("encodes");
        assert_eq!(full.num_vars(), 21);
        let pinned = Constraint::Pinned {
            inner: Box::new(inner.clone()),
            pins: vec![(0, 'a')],
        };
        let p = pinned.encode().expect("encodes");
        assert_eq!(p.num_vars(), 14, "7 bits fixed away");
        let (_, states) = qsmt_anneal::ExactSolver::new().ground_states(&p.qubo);
        assert!(!states.is_empty());
        for st in states.iter().take(16) {
            let sol = p.decode_state(st).expect("decodes");
            let t = sol.as_text().expect("text");
            assert_eq!(t.len(), 3);
            assert!(t.starts_with('a'), "{t:?}");
            assert!(inner.validate(&sol));
            assert!(pinned.validate(&sol));
        }
    }

    #[test]
    fn pinned_constraint_rejects_out_of_range_and_non_string_inner() {
        let out_of_range = Constraint::Pinned {
            inner: Box::new(Constraint::CharAt {
                ch: 'a',
                index: 0,
                len: 3,
            }),
            pins: vec![(3, 'x')],
        };
        assert!(out_of_range.encode().is_err());
        let non_string = Constraint::Pinned {
            inner: Box::new(Constraint::LengthUnary {
                desired: 2,
                slots: 3,
            }),
            pins: vec![(0, 'a')],
        };
        assert!(non_string.encode().is_err());
    }

    #[test]
    fn conjunction_validation_requires_every_part() {
        let c = Constraint::All(vec![
            Constraint::Prefix {
                prefix: "a".into(),
                len: 3,
            },
            Constraint::Suffix {
                suffix: "z".into(),
                len: 3,
            },
        ]);
        assert!(c.validate(&Solution::Text("abz".into())));
        assert!(!c.validate(&Solution::Text("abc".into())));
        assert!(!c.validate(&Solution::Text("zba".into())));
    }

    #[test]
    fn conjunction_rejects_mixed_lengths_and_non_text_parts() {
        let mixed = Constraint::All(vec![
            Constraint::Palindrome { len: 3 },
            Constraint::Palindrome { len: 4 },
        ]);
        assert!(matches!(
            mixed.encode(),
            Err(ConstraintError::IncompatibleConjunction { .. })
        ));
        let non_text = Constraint::All(vec![Constraint::Includes {
            haystack: "ab".into(),
            needle: "a".into(),
        }]);
        assert!(matches!(
            non_text.encode(),
            Err(ConstraintError::IncompatibleConjunction { .. })
        ));
        let empty = Constraint::All(vec![]);
        assert!(matches!(
            empty.encode(),
            Err(ConstraintError::EmptyArgument { .. })
        ));
    }

    #[test]
    fn describe_is_informative() {
        let c = Constraint::Regex {
            pattern: "a[bc]+".into(),
            len: 5,
        };
        assert!(c.describe().contains("a[bc]+"));
    }
}
