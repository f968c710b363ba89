//! The fixpoint engine: repeatedly applies every lowered assertion's
//! transfer function until no domain changes (or some domain empties),
//! logging each narrowing as a [`DerivStep`] so a refutation can be
//! serialized as a replayable [`Certificate`].
//!
//! Termination: every transfer is a meet in a finite-height lattice
//! (length bounds move monotonically toward each other and are clamped
//! by the literals in the script; character sets only lose members), so
//! the loop reaches a fixpoint. A generous iteration cap is kept anyway
//! as a defensive backstop.

use crate::domain::{CharSet, LenInterval, StrDomain, MAX_TRACKED_LEN};
use crate::ir::{AbsAssert, AbsProgram};
use qsmt_redex::positional_sets;

/// Defensive cap on fixpoint rounds (the lattice height bounds real
/// runs far below this).
const MAX_ITERATIONS: usize = 64;

/// The narrowing rule a derivation step applied. Names are stable and
/// kebab-cased for JSON output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// `(= (str.len x) n)` meets the length interval with `[n, n]`.
    LenEq,
    /// `(str.contains x "lit")` raises the length floor to `|lit|`.
    ContainsMinLen,
    /// `(str.prefixof "lit" x)` pins the first `|lit|` positions.
    PrefixLit,
    /// `(str.suffixof "lit" x)` pins the last `|lit|` positions.
    SuffixLit,
    /// `(= (str.at x i) "c")` pins position `i`.
    PinAt,
    /// `(str.in_re x r)` meets the length interval with `[min(r), max(r)]`.
    RegexLen,
    /// `(str.in_re x r)` has no match at the (exact) asserted length.
    RegexEmptyAtLen,
    /// `(str.in_re x r)` meets each position with the regex's
    /// positional character sets at the exact asserted length.
    RegexChars,
    /// `(= x t)` for ground `t` fixes the length and every position.
    GroundEq,
    /// `(= x y)` meets one side's domain into the other.
    EqMeet,
    /// `(= x (str.rev x))` meets mirrored positions at exact length.
    Mirror,
}

impl Rule {
    /// Stable kebab-case rule name.
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::LenEq => "len-eq",
            Rule::ContainsMinLen => "contains-min-len",
            Rule::PrefixLit => "prefix-lit",
            Rule::SuffixLit => "suffix-lit",
            Rule::PinAt => "pin-at",
            Rule::RegexLen => "regex-len",
            Rule::RegexEmptyAtLen => "regex-empty-at-len",
            Rule::RegexChars => "regex-chars",
            Rule::GroundEq => "ground-eq",
            Rule::EqMeet => "eq-meet",
            Rule::Mirror => "mirror",
        }
    }
}

/// One logged narrowing: which assertion, under which rule, narrowed
/// which variable's domain, with human-readable before/after summaries.
/// The summaries are documentation — the replay checker re-derives the
/// narrowing from the assertion itself and never trusts them.
#[derive(Clone, Debug)]
pub struct DerivStep {
    /// Stable index of the justifying assertion.
    pub assertion: usize,
    /// The narrowing rule applied.
    pub rule: Rule,
    /// Index of the narrowed variable in [`AbsProgram::string_vars`].
    pub var: usize,
    /// Domain summary before the step.
    pub before: String,
    /// Domain summary after the step.
    pub after: String,
}

/// A checkable refutation: the ordered derivation steps that narrow
/// `var`'s domain (and its equality class) to empty. Replay with
/// [`crate::check()`] — the checker independently re-applies each step's
/// rule against the cited assertion and confirms final emptiness.
#[derive(Clone, Debug)]
pub struct Certificate {
    /// Index of the refuted variable.
    pub var: usize,
    /// The derivation, in application order.
    pub steps: Vec<DerivStep>,
}

/// The analyzer's overall verdict. Abstract interpretation
/// over-approximates, so it can prove unsatisfiability but never
/// satisfiability — the complement of the annealer, which can exhibit
/// models but never refute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Some variable's domain is provably empty; see the certificate.
    Unsat,
    /// No refutation found (the script may still be unsat).
    Unknown,
}

impl Verdict {
    /// Stable lowercase name for JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Unsat => "unsat",
            Verdict::Unknown => "unknown",
        }
    }
}

/// Facts the compiler can exploit to shrink the QUBO before presolve:
/// positions proven to hold a single character, and an exact length
/// when one was derived. Tightenings are *redundant* with the script's
/// own constraints (they were derived from them), so a consumer may
/// apply any subset without losing solutions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tightening {
    /// The variable's name.
    pub var: String,
    /// Exact derived length, when the interval is degenerate.
    pub exact_len: Option<usize>,
    /// Positions proven to hold exactly one character.
    pub pins: Vec<(usize, char)>,
}

/// Everything the pass produces: verdict (plus certificate on unsat),
/// final domains, compiler tightenings, and fixpoint accounting. Owns
/// the analyzed [`AbsProgram`] so certificates can be replayed without
/// re-lowering.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// The lowered program this analysis ran over.
    pub program: AbsProgram,
    /// Unsat or unknown.
    pub verdict: Verdict,
    /// The refutation derivation, present iff the verdict is unsat.
    pub certificate: Option<Certificate>,
    /// Final per-variable domains, indexed like
    /// [`AbsProgram::string_vars`].
    pub domains: Vec<StrDomain>,
    /// Compiler-facing tightenings (empty when the verdict is unsat —
    /// nothing will be compiled).
    pub tightenings: Vec<Tightening>,
    /// Fixpoint rounds executed.
    pub iterations: usize,
    /// Total narrowing steps applied across all rounds.
    pub domains_narrowed: usize,
}

impl Analysis {
    /// Replays the certificate through the independent checker. `Ok`
    /// for unsat analyses whose derivation is valid; an error if the
    /// verdict is unknown (nothing to check) or the derivation does not
    /// actually refute.
    pub fn verify_certificate(&self) -> Result<(), crate::check::CheckError> {
        let cert = self
            .certificate
            .as_ref()
            .ok_or(crate::check::CheckError::NoCertificate)?;
        crate::check::check(cert, &self.program)
    }

    /// The tightening recorded for `var`, if any.
    pub fn tightening_for(&self, var: &str) -> Option<&Tightening> {
        self.tightenings.iter().find(|t| t.var == var)
    }
}

/// Runs the abstract interpretation over a lowered program.
pub fn analyze(program: AbsProgram) -> Analysis {
    let nvars = program.string_vars.len();
    let mut domains: Vec<StrDomain> = vec![StrDomain::top(); nvars];
    let mut log: Vec<DerivStep> = Vec::new();
    let ascii: Vec<char> = (0u8..128).map(char::from).collect();

    // Per assertion, the exact length its regex marginals were last met
    // at: meeting the same marginals again narrows nothing.
    let mut regex_len: Vec<Option<usize>> = vec![None; program.asserts.len()];

    let mut iterations = 0;
    loop {
        iterations += 1;
        let mut changed = false;
        for ((index, assert), last_len) in program.asserts.iter().zip(&mut regex_len) {
            changed |= apply(*index, assert, &mut domains, &mut log, &ascii, last_len);
        }
        // Canonicalize: fold back-anchored constraints into absolute
        // positions wherever a length became exact. γ-preserving, so no
        // log entry (see StrDomain::normalize).
        for d in &mut domains {
            changed |= d.normalize();
        }
        let refuted = domains.iter().position(StrDomain::is_empty);
        if refuted.is_some() || !changed || iterations >= MAX_ITERATIONS {
            let verdict = if refuted.is_some() {
                Verdict::Unsat
            } else {
                Verdict::Unknown
            };
            let certificate = refuted.map(|var| Certificate {
                var,
                steps: trim_to_class(&log, &program, var),
            });
            let tightenings = if verdict == Verdict::Unsat {
                Vec::new()
            } else {
                collect_tightenings(&program, &domains)
            };
            return Analysis {
                program,
                verdict,
                certificate,
                domains,
                tightenings,
                iterations,
                domains_narrowed: log.len(),
            };
        }
    }
}

/// Applies one assertion's transfer function; logs and reports change.
/// `regex_len` is the exact length this assertion's regex marginals were
/// last met at (see [`analyze`]).
fn apply(
    index: usize,
    assert: &AbsAssert,
    domains: &mut [StrDomain],
    log: &mut Vec<DerivStep>,
    ascii: &[char],
    regex_len: &mut Option<usize>,
) -> bool {
    // Runs `f` against var's domain and logs one step under `rule` if
    // anything narrowed.
    fn narrow(
        domains: &mut [StrDomain],
        log: &mut Vec<DerivStep>,
        index: usize,
        rule: Rule,
        var: usize,
        f: impl FnOnce(&mut StrDomain) -> bool,
    ) -> bool {
        let before = domains[var].summary();
        if f(&mut domains[var]) {
            log.push(DerivStep {
                assertion: index,
                rule,
                var,
                before,
                after: domains[var].summary(),
            });
            true
        } else {
            false
        }
    }

    match assert {
        AbsAssert::LenEq { var, n } => narrow(domains, log, index, Rule::LenEq, *var, |d| {
            d.narrow_len(LenInterval::exact(*n))
        }),
        AbsAssert::Contains { var, lit } => {
            let min = lit.chars().count();
            narrow(domains, log, index, Rule::ContainsMinLen, *var, |d| {
                d.narrow_len(LenInterval::at_least(min))
            })
        }
        AbsAssert::PrefixLit { var, lit } => {
            narrow(domains, log, index, Rule::PrefixLit, *var, |d| {
                let mut c = false;
                for (i, ch) in lit.chars().enumerate() {
                    c |= d.narrow_front(i, CharSet::singleton(ch));
                }
                c
            })
        }
        AbsAssert::SuffixLit { var, lit } => {
            narrow(domains, log, index, Rule::SuffixLit, *var, |d| {
                let mut c = false;
                for (j, ch) in lit.chars().rev().enumerate() {
                    c |= d.narrow_back(j, CharSet::singleton(ch));
                }
                c
            })
        }
        AbsAssert::PinAt { var, index: i, ch } => {
            narrow(domains, log, index, Rule::PinAt, *var, |d| {
                d.narrow_front(*i, CharSet::singleton(*ch))
            })
        }
        AbsAssert::InRegex { var, regex } => {
            let mut changed = narrow(domains, log, index, Rule::RegexLen, *var, |d| {
                let hi = regex.max_len().unwrap_or(usize::MAX);
                d.narrow_len(LenInterval::between(regex.min_len(), hi))
            });
            // With an exact length the positional marginals refine (or
            // refute) every position at once. Skipped above the tracked
            // cap — the NFA acceptance table is O(len · states).
            let exact = domains[*var].len.exact_value();
            if let Some(n) = exact.filter(|&n| n <= MAX_TRACKED_LEN) {
                if domains[*var].is_empty() || *regex_len == Some(n) {
                    return changed;
                }
                *regex_len = Some(n);
                match positional_sets(regex, n, ascii) {
                    None => {
                        changed |= narrow(domains, log, index, Rule::RegexEmptyAtLen, *var, |d| {
                            !std::mem::replace(&mut d.conflict, true)
                        });
                    }
                    Some(sets) => {
                        changed |= narrow(domains, log, index, Rule::RegexChars, *var, |d| {
                            let mut c = false;
                            for (i, set) in sets.iter().enumerate() {
                                c |= d.narrow_front(i, CharSet::from_chars(set.iter().copied()));
                            }
                            c
                        });
                    }
                }
            }
            changed
        }
        AbsAssert::GroundEq { var, value } => {
            narrow(domains, log, index, Rule::GroundEq, *var, |d| {
                let mut c = d.narrow_len(LenInterval::exact(value.chars().count()));
                for (i, ch) in value.chars().enumerate() {
                    c |= d.narrow_front(i, CharSet::singleton(ch));
                }
                c
            })
        }
        AbsAssert::VarEq { a, b } => {
            let snapshot_b = domains[*b].clone();
            let ca = narrow(domains, log, index, Rule::EqMeet, *a, |d| {
                d.meet_with(&snapshot_b)
            });
            let snapshot_a = domains[*a].clone();
            let cb = narrow(domains, log, index, Rule::EqMeet, *b, |d| {
                d.meet_with(&snapshot_a)
            });
            ca || cb
        }
        AbsAssert::SelfReverse { var } => narrow(domains, log, index, Rule::Mirror, *var, |d| {
            // Capped: a huge exact length would make this loop O(n).
            let Some(n) = d.len.exact_value().filter(|&n| n <= MAX_TRACKED_LEN) else {
                return false;
            };
            let mut c = false;
            for i in 0..n / 2 {
                let m = d.at(i).meet(d.at(n - 1 - i));
                c |= d.narrow_front(i, m);
                c |= d.narrow_front(n - 1 - i, m);
            }
            c
        }),
        AbsAssert::Unsupported => false,
    }
}

/// Keeps only the steps relevant to the refuted variable's equality
/// class — the minimal sub-derivation a checker must replay. Steps on
/// unrelated variables cannot have contributed (information only flows
/// between domains through `eq-meet` steps, which stay in the class).
fn trim_to_class(log: &[DerivStep], program: &AbsProgram, refuted: usize) -> Vec<DerivStep> {
    let nvars = program.string_vars.len();
    let mut parent: Vec<usize> = (0..nvars).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    for (_, a) in &program.asserts {
        if let AbsAssert::VarEq { a, b } = a {
            let (ra, rb) = (find(&mut parent, *a), find(&mut parent, *b));
            parent[ra] = rb;
        }
    }
    let class = find(&mut parent, refuted);
    log.iter()
        .filter(|s| find(&mut parent, s.var) == class)
        .cloned()
        .collect()
}

/// Extracts the compiler-facing tightenings from the final domains.
fn collect_tightenings(program: &AbsProgram, domains: &[StrDomain]) -> Vec<Tightening> {
    program
        .string_vars
        .iter()
        .zip(domains)
        .filter_map(|(name, d)| {
            let exact_len = d.len.exact_value();
            let pins = d.pins();
            if exact_len.is_none() && pins.is_empty() {
                return None;
            }
            Some(Tightening {
                var: name.clone(),
                exact_len,
                pins,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prog(asserts: Vec<AbsAssert>) -> AbsProgram {
        AbsProgram {
            string_vars: vec!["s".to_string(), "t".to_string()],
            asserts: asserts.into_iter().enumerate().collect(),
        }
    }

    #[test]
    fn contains_longer_than_length_refutes() {
        let a = analyze(prog(vec![
            AbsAssert::Contains {
                var: 0,
                lit: "toolong".to_string(),
            },
            AbsAssert::LenEq { var: 0, n: 3 },
        ]));
        assert_eq!(a.verdict, Verdict::Unsat);
        let cert = a.certificate.as_ref().expect("certificate");
        assert_eq!(cert.var, 0);
        assert!(cert.steps.len() >= 2);
        a.verify_certificate().expect("replay ok");
    }

    #[test]
    fn regex_word_at_wrong_length_refutes() {
        let re = qsmt_redex::parse("abcd").unwrap();
        let a = analyze(prog(vec![
            AbsAssert::InRegex { var: 0, regex: re },
            AbsAssert::LenEq { var: 0, n: 2 },
        ]));
        assert_eq!(a.verdict, Verdict::Unsat);
        a.verify_certificate().expect("replay ok");
    }

    #[test]
    fn pins_and_length_tighten_without_refuting() {
        let a = analyze(prog(vec![
            AbsAssert::PinAt {
                var: 0,
                index: 0,
                ch: 'q',
            },
            AbsAssert::PinAt {
                var: 0,
                index: 2,
                ch: 'z',
            },
            AbsAssert::LenEq { var: 0, n: 4 },
        ]));
        assert_eq!(a.verdict, Verdict::Unknown);
        let t = a.tightening_for("s").expect("tightening");
        assert_eq!(t.exact_len, Some(4));
        assert_eq!(t.pins, vec![(0, 'q'), (2, 'z')]);
    }

    #[test]
    fn conflicting_pins_refute() {
        let a = analyze(prog(vec![
            AbsAssert::PinAt {
                var: 0,
                index: 1,
                ch: 'a',
            },
            AbsAssert::PinAt {
                var: 0,
                index: 1,
                ch: 'b',
            },
        ]));
        assert_eq!(a.verdict, Verdict::Unsat);
        a.verify_certificate().expect("replay ok");
    }

    #[test]
    fn equality_transfers_facts_between_vars() {
        // t = s, s has length 3, t must contain a 5-char substring.
        let a = analyze(prog(vec![
            AbsAssert::VarEq { a: 0, b: 1 },
            AbsAssert::LenEq { var: 0, n: 3 },
            AbsAssert::Contains {
                var: 1,
                lit: "abcde".to_string(),
            },
        ]));
        assert_eq!(a.verdict, Verdict::Unsat);
        a.verify_certificate().expect("replay ok");
    }

    #[test]
    fn palindrome_mirror_propagates_pins() {
        // len 5 palindrome with prefix "ab": mirror pins tail "ba".
        let a = analyze(prog(vec![
            AbsAssert::SelfReverse { var: 0 },
            AbsAssert::PrefixLit {
                var: 0,
                lit: "ab".to_string(),
            },
            AbsAssert::LenEq { var: 0, n: 5 },
        ]));
        assert_eq!(a.verdict, Verdict::Unknown);
        let t = a.tightening_for("s").expect("tightening");
        assert_eq!(t.pins, vec![(0, 'a'), (1, 'b'), (3, 'b'), (4, 'a')]);
    }

    #[test]
    fn regex_positional_sets_pin_literal_positions() {
        // (re.++ (re.range a f) re.allchar (str.to_re "x")) at len 3
        let re = qsmt_redex::parse("[a-f].x").unwrap();
        let a = analyze(prog(vec![
            AbsAssert::InRegex { var: 0, regex: re },
            AbsAssert::LenEq { var: 0, n: 3 },
        ]));
        assert_eq!(a.verdict, Verdict::Unknown);
        let t = a.tightening_for("s").expect("tightening");
        assert_eq!(t.pins, vec![(2, 'x')]);
    }

    #[test]
    fn unconstrained_script_reaches_fixpoint_fast() {
        let a = analyze(prog(vec![AbsAssert::Unsupported]));
        assert_eq!(a.verdict, Verdict::Unknown);
        assert!(a.iterations <= 2);
        assert_eq!(a.domains_narrowed, 0);
        assert!(a.tightenings.is_empty());
    }
}
