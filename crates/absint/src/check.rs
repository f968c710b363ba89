//! Independent certificate replay.
//!
//! [`check`] re-validates an unsat [`Certificate`] without trusting the
//! analyzer: it starts every variable at ⊤, walks the derivation steps
//! in order, and for each step (a) looks up the cited assertion, (b)
//! verifies the assertion actually has the shape the step's rule
//! claims, and (c) re-derives the narrowing itself with the plain
//! domain meets from [`crate::domain`]. The claimed before/after
//! summaries in the steps are never read. At the end the refuted
//! variable's domain must be empty.
//!
//! The checker shares the *domain primitives* and the regex library
//! with the analyzer (like a proof checker reusing arithmetic) but none
//! of its fixpoint machinery: there is no iteration, no worklist, no
//! normalization pass — just a linear fold over the certificate.

use crate::analyze::{Certificate, Rule};
use crate::domain::{CharSet, LenInterval, StrDomain, MAX_TRACKED_LEN};
use crate::ir::{AbsAssert, AbsProgram};
use qsmt_redex::positional_sets;

/// Why a certificate failed to replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// The analysis has no certificate (verdict was unknown).
    NoCertificate,
    /// A step cites an assertion index the program does not contain.
    UnknownAssertion {
        /// The cited index.
        assertion: usize,
    },
    /// A step's rule does not match the cited assertion's shape, or
    /// names a variable the assertion does not constrain.
    RuleMismatch {
        /// Position of the offending step in the derivation.
        step: usize,
        /// The rule the step claimed.
        rule: &'static str,
    },
    /// The derivation replayed cleanly but the refuted variable's
    /// domain is not empty — the certificate proves nothing.
    NotRefuted {
        /// The allegedly refuted variable.
        var: usize,
    },
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::NoCertificate => write!(f, "no certificate to check"),
            CheckError::UnknownAssertion { assertion } => {
                write!(f, "certificate cites unknown assertion {assertion}")
            }
            CheckError::RuleMismatch { step, rule } => {
                write!(
                    f,
                    "step {step}: rule {rule} does not match the cited assertion"
                )
            }
            CheckError::NotRefuted { var } => {
                write!(f, "derivation does not empty the domain of variable {var}")
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// Replays `cert` against `program`. See the module docs.
pub fn check(cert: &Certificate, program: &AbsProgram) -> Result<(), CheckError> {
    let mut domains: Vec<StrDomain> = vec![StrDomain::top(); program.string_vars.len()];
    let ascii: Vec<char> = (0u8..128).map(char::from).collect();

    for (pos, step) in cert.steps.iter().enumerate() {
        let assert =
            program
                .assert_by_index(step.assertion)
                .ok_or(CheckError::UnknownAssertion {
                    assertion: step.assertion,
                })?;
        let mismatch = || CheckError::RuleMismatch {
            step: pos,
            rule: step.rule.as_str(),
        };
        if step.var >= domains.len() {
            return Err(mismatch());
        }
        match (step.rule, assert) {
            (Rule::LenEq, AbsAssert::LenEq { var, n }) if *var == step.var => {
                domains[*var].narrow_len(LenInterval::exact(*n));
            }
            (Rule::ContainsMinLen, AbsAssert::Contains { var, lit }) if *var == step.var => {
                domains[*var].narrow_len(LenInterval::at_least(lit.chars().count()));
            }
            (Rule::PrefixLit, AbsAssert::PrefixLit { var, lit }) if *var == step.var => {
                for (i, ch) in lit.chars().enumerate() {
                    domains[*var].narrow_front(i, CharSet::singleton(ch));
                }
            }
            (Rule::SuffixLit, AbsAssert::SuffixLit { var, lit }) if *var == step.var => {
                for (j, ch) in lit.chars().rev().enumerate() {
                    domains[*var].narrow_back(j, CharSet::singleton(ch));
                }
            }
            (Rule::PinAt, AbsAssert::PinAt { var, index, ch }) if *var == step.var => {
                domains[*var].narrow_front(*index, CharSet::singleton(*ch));
            }
            (Rule::RegexLen, AbsAssert::InRegex { var, regex }) if *var == step.var => {
                let hi = regex.max_len().unwrap_or(usize::MAX);
                domains[*var].narrow_len(LenInterval::between(regex.min_len(), hi));
            }
            (Rule::RegexEmptyAtLen, AbsAssert::InRegex { var, regex }) if *var == step.var => {
                // Only a refutation if the length really is exact and
                // the regex really has no match of that length. The
                // analyzer never emits positional steps above the
                // tracked cap, so one in a certificate is bogus — and
                // executing it would make replay O(len · states).
                let Some(n) = domains[*var]
                    .len
                    .exact_value()
                    .filter(|&n| n <= MAX_TRACKED_LEN)
                else {
                    return Err(mismatch());
                };
                if positional_sets(regex, n, &ascii).is_some() {
                    return Err(mismatch());
                }
                domains[*var].conflict = true;
            }
            (Rule::RegexChars, AbsAssert::InRegex { var, regex }) if *var == step.var => {
                let Some(n) = domains[*var]
                    .len
                    .exact_value()
                    .filter(|&n| n <= MAX_TRACKED_LEN)
                else {
                    return Err(mismatch());
                };
                match positional_sets(regex, n, &ascii) {
                    Some(sets) => {
                        for (i, set) in sets.iter().enumerate() {
                            domains[*var].narrow_front(i, CharSet::from_chars(set.iter().copied()));
                        }
                    }
                    None => domains[*var].conflict = true,
                }
            }
            (Rule::GroundEq, AbsAssert::GroundEq { var, value }) if *var == step.var => {
                domains[*var].narrow_len(LenInterval::exact(value.chars().count()));
                for (i, ch) in value.chars().enumerate() {
                    domains[*var].narrow_front(i, CharSet::singleton(ch));
                }
            }
            (Rule::EqMeet, AbsAssert::VarEq { a, b }) if *a == step.var || *b == step.var => {
                let other = if *a == step.var { *b } else { *a };
                let snapshot = domains[other].clone();
                domains[step.var].meet_with(&snapshot);
            }
            (Rule::Mirror, AbsAssert::SelfReverse { var }) if *var == step.var => {
                let Some(n) = domains[*var]
                    .len
                    .exact_value()
                    .filter(|&n| n <= MAX_TRACKED_LEN)
                else {
                    return Err(mismatch());
                };
                for i in 0..n / 2 {
                    let m = domains[*var].at(i).meet(domains[*var].at(n - 1 - i));
                    domains[*var].narrow_front(i, m);
                    domains[*var].narrow_front(n - 1 - i, m);
                }
            }
            _ => return Err(mismatch()),
        }
    }

    // Fold back-anchored constraints where lengths are exact so
    // prefix/suffix overlap conflicts become visible, then demand ⊥.
    let dom = &mut domains[cert.var];
    dom.normalize();
    if dom.is_empty() {
        Ok(())
    } else {
        Err(CheckError::NotRefuted { var: cert.var })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze, DerivStep};

    fn refuted_program() -> AbsProgram {
        AbsProgram {
            string_vars: vec!["s".to_string()],
            asserts: vec![
                (
                    0,
                    AbsAssert::Contains {
                        var: 0,
                        lit: "toolong".to_string(),
                    },
                ),
                (1, AbsAssert::LenEq { var: 0, n: 3 }),
            ],
        }
    }

    #[test]
    fn valid_certificate_replays() {
        let a = analyze(refuted_program());
        assert!(a.verify_certificate().is_ok());
    }

    #[test]
    fn truncated_derivation_is_rejected() {
        let mut a = analyze(refuted_program());
        let cert = a.certificate.as_mut().expect("certificate");
        cert.steps.pop();
        assert!(matches!(
            check(cert, &a.program),
            Err(CheckError::NotRefuted { var: 0 })
        ));
    }

    #[test]
    fn wrong_rule_is_rejected() {
        let mut a = analyze(refuted_program());
        let cert = a.certificate.as_mut().expect("certificate");
        cert.steps[0].rule = Rule::GroundEq;
        assert!(matches!(
            check(cert, &a.program),
            Err(CheckError::RuleMismatch { .. })
        ));
    }

    #[test]
    fn dangling_assertion_index_is_rejected() {
        let mut a = analyze(refuted_program());
        let cert = a.certificate.as_mut().expect("certificate");
        cert.steps[0].assertion = 99;
        assert!(matches!(
            check(cert, &a.program),
            Err(CheckError::UnknownAssertion { assertion: 99 })
        ));
    }

    #[test]
    fn fabricated_summaries_are_ignored() {
        // The checker must re-derive, not trust the step text.
        let mut a = analyze(refuted_program());
        let cert = a.certificate.as_mut().expect("certificate");
        for s in &mut cert.steps {
            s.before = "len = 999".to_string();
            s.after = "⊥ (fabricated)".to_string();
        }
        assert!(check(cert, &a.program).is_ok());
    }

    #[test]
    fn positional_step_above_the_tracked_cap_is_rejected() {
        // A crafted certificate citing a positional regex step at a
        // huge exact length must be rejected, not replayed (replay
        // would be O(len · states)).
        let program = AbsProgram {
            string_vars: vec!["s".to_string()],
            asserts: vec![
                (0, AbsAssert::LenEq { var: 0, n: 1 << 30 }),
                (
                    1,
                    AbsAssert::InRegex {
                        var: 0,
                        regex: qsmt_redex::parse("a").unwrap(),
                    },
                ),
            ],
        };
        let step = |assertion, rule| DerivStep {
            assertion,
            rule,
            var: 0,
            before: String::new(),
            after: String::new(),
        };
        let cert = Certificate {
            var: 0,
            steps: vec![step(0, Rule::LenEq), step(1, Rule::RegexChars)],
        };
        assert!(matches!(
            check(&cert, &program),
            Err(CheckError::RuleMismatch { step: 1, .. })
        ));
    }

    #[test]
    fn certificate_for_satisfiable_program_is_rejected() {
        let program = AbsProgram {
            string_vars: vec!["s".to_string()],
            asserts: vec![(0, AbsAssert::LenEq { var: 0, n: 3 })],
        };
        let cert = Certificate {
            var: 0,
            steps: vec![DerivStep {
                assertion: 0,
                rule: Rule::LenEq,
                var: 0,
                before: String::new(),
                after: String::new(),
            }],
        };
        assert!(matches!(
            check(&cert, &program),
            Err(CheckError::NotRefuted { var: 0 })
        ));
    }
}
