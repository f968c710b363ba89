//! Bridge between the SMT-LIB AST and the `qsmt-absint` analyzer.
//!
//! [`lower`] translates a parsed command stream into the analyzer's
//! [`AbsProgram`] IR: one [`AbsAssert`] per `(assert …)` command, with
//! the assert's ordinal as the assertion index that unsat certificates
//! cite. Anything outside the abstract fragment — including literals
//! with non-ASCII characters, which the 128-bit character domains
//! cannot represent — lowers to [`AbsAssert::Unsupported`], which
//! constrains nothing (dropping a conjunct only weakens the analysis,
//! so the verdict stays sound).
//!
//! [`AbsintRun`] packages the timed analysis for the pipeline:
//! [`Script::run`](crate::Script::run) with `absint` set runs it before
//! compilation, returns `unsat` outright when the replay checker
//! confirms the certificate, and otherwise applies the domain
//! tightenings to the compiled goals via [`apply_tightenings`] so
//! statically pinned positions never reach the sampler.

use crate::ast::{Command, RegLan, Sort, Term};
use crate::compile::{reglan_to_regex, Goal};
use qsmt_absint::{analyze, AbsAssert, AbsProgram, Analysis, Verdict, MAX_TRACKED_LEN};
use qsmt_core::Constraint;
use std::collections::HashMap;

/// Lowers a command stream into the analyzer's IR. Infallible by
/// design: unsupported or ill-formed shapes become
/// [`AbsAssert::Unsupported`] rather than errors, so the analysis can
/// run on scripts the compiler would reject (useful for `qsmt lint`).
pub fn lower(commands: &[Command]) -> AbsProgram {
    let mut program = AbsProgram::default();
    let mut index: HashMap<&str, usize> = HashMap::new();
    for cmd in commands {
        if let Command::DeclareConst(name, Sort::String) = cmd {
            index.insert(name.as_str(), program.string_vars.len());
            program.string_vars.push(name.clone());
        }
    }
    let mut ordinal = 0usize;
    for cmd in commands {
        if let Command::Assert(term) = cmd {
            program.asserts.push((ordinal, lower_assert(term, &index)));
            ordinal += 1;
        }
    }
    program
}

/// The character domains are 128-bit ASCII sets; a literal outside
/// that range cannot be represented, so assertions carrying one lower
/// to `Unsupported` instead of (unsoundly) an empty set.
fn ascii(lit: &str) -> bool {
    lit.chars().all(|c| (c as u32) < 128)
}

/// Same screen for regex literals: `positional_sets` analyzes the
/// language over the ASCII alphabet, so a non-ASCII literal or range
/// endpoint would (unsoundly) read as "matches nothing" at an exact
/// length. Such regexes lower to `Unsupported` instead. Walked on the
/// `RegLan` before conversion so a huge non-ASCII `re.range` is never
/// expanded.
fn reglan_ascii(r: &RegLan) -> bool {
    match r {
        RegLan::ToRe(s) => ascii(s),
        RegLan::Range(a, b) => (*a as u32) < 128 && (*b as u32) < 128,
        RegLan::AllChar => true,
        RegLan::Plus(inner) | RegLan::Star(inner) | RegLan::Opt(inner) => reglan_ascii(inner),
        RegLan::Union(parts) | RegLan::Concat(parts) => parts.iter().all(reglan_ascii),
    }
}

/// Screens an integer literal used as a length or position: values the
/// positional domains do not track (see
/// [`qsmt_absint::MAX_TRACKED_LEN`]) lower to `Unsupported` so an
/// untrusted script cannot request giant per-position allocations or
/// O(n) passes.
fn tracked_len(n: u64) -> Option<usize> {
    (n <= MAX_TRACKED_LEN as u64).then_some(n as usize)
}

fn lower_assert(term: &Term, index: &HashMap<&str, usize>) -> AbsAssert {
    let var = |name: &str| index.get(name).copied();
    match term {
        Term::Eq(a, b) => match (a.as_ref(), b.as_ref()) {
            (Term::StrLen(inner), Term::IntLit(n)) | (Term::IntLit(n), Term::StrLen(inner)) => {
                match inner.as_ref() {
                    Term::Var(name) => match (var(name), tracked_len(*n)) {
                        (Some(v), Some(n)) => AbsAssert::LenEq { var: v, n },
                        _ => AbsAssert::Unsupported,
                    },
                    _ => AbsAssert::Unsupported,
                }
            }
            (Term::StrAt(inner, idx), Term::StrLit(c))
            | (Term::StrLit(c), Term::StrAt(inner, idx)) => {
                let (Term::Var(name), Term::IntLit(n)) = (inner.as_ref(), idx.as_ref()) else {
                    return AbsAssert::Unsupported;
                };
                let mut chars = c.chars();
                match (var(name), chars.next(), chars.next(), tracked_len(*n)) {
                    // A pin at index i implies len ≥ i + 1, so the
                    // index must be strictly below the tracked cap.
                    (Some(v), Some(ch), None, Some(index))
                        if ascii(c) && index < MAX_TRACKED_LEN =>
                    {
                        AbsAssert::PinAt { var: v, index, ch }
                    }
                    _ => AbsAssert::Unsupported,
                }
            }
            (Term::Var(v1), Term::StrRev(inner)) | (Term::StrRev(inner), Term::Var(v1)) if matches!(inner.as_ref(), Term::Var(v2) if v2 == v1) => {
                match var(v1) {
                    Some(v) => AbsAssert::SelfReverse { var: v },
                    None => AbsAssert::Unsupported,
                }
            }
            (Term::Var(x), Term::Var(y)) => match (var(x), var(y)) {
                (Some(a), Some(b)) if a != b => AbsAssert::VarEq { a, b },
                _ => AbsAssert::Unsupported,
            },
            (Term::Var(name), other) | (other, Term::Var(name)) => {
                if let Some(value) = eval_ground(other) {
                    match var(name) {
                        Some(v) if ascii(&value) => AbsAssert::GroundEq { var: v, value },
                        _ => AbsAssert::Unsupported,
                    }
                } else {
                    AbsAssert::Unsupported
                }
            }
            _ => AbsAssert::Unsupported,
        },
        Term::StrPrefixOf(pre, t) => match (pre.as_ref(), t.as_ref()) {
            (Term::StrLit(p), Term::Var(name)) if ascii(p) => match var(name) {
                Some(v) => AbsAssert::PrefixLit {
                    var: v,
                    lit: p.clone(),
                },
                None => AbsAssert::Unsupported,
            },
            _ => AbsAssert::Unsupported,
        },
        Term::StrSuffixOf(suf, t) => match (suf.as_ref(), t.as_ref()) {
            (Term::StrLit(s), Term::Var(name)) if ascii(s) => match var(name) {
                Some(v) => AbsAssert::SuffixLit {
                    var: v,
                    lit: s.clone(),
                },
                None => AbsAssert::Unsupported,
            },
            _ => AbsAssert::Unsupported,
        },
        Term::StrContains(hay, sub) => match (hay.as_ref(), sub.as_ref()) {
            (Term::Var(name), Term::StrLit(s)) if ascii(s) => match var(name) {
                Some(v) => AbsAssert::Contains {
                    var: v,
                    lit: s.clone(),
                },
                None => AbsAssert::Unsupported,
            },
            _ => AbsAssert::Unsupported,
        },
        Term::StrInRe(t, r) => match t.as_ref() {
            Term::Var(name) => match var(name) {
                Some(v) if reglan_ascii(r) => AbsAssert::InRegex {
                    var: v,
                    regex: reglan_to_regex(r),
                },
                _ => AbsAssert::Unsupported,
            },
            _ => AbsAssert::Unsupported,
        },
        _ => AbsAssert::Unsupported,
    }
}

/// Evaluates a ground string term to its concrete value; `None` for
/// anything containing a variable or an unsupported operation.
fn eval_ground(term: &Term) -> Option<String> {
    match term {
        Term::StrLit(s) => Some(s.clone()),
        Term::StrRev(inner) => Some(eval_ground(inner)?.chars().rev().collect()),
        Term::StrConcat(parts) => {
            let mut out = String::new();
            for p in parts {
                out.push_str(&eval_ground(p)?);
            }
            Some(out)
        }
        Term::StrReplace(a, b, c) => {
            let (s, from, to) = (eval_ground(a)?, eval_ground(b)?, eval_ground(c)?);
            // Empty pattern: SMT-LIB defines (str.replace s "" t) =
            // t ++ s, which `replacen` happens to agree with (the first
            // empty match is at position 0).
            Some(s.replacen(&from, &to, 1))
        }
        Term::StrReplaceAll(a, b, c) => {
            let (s, from, to) = (eval_ground(a)?, eval_ground(b)?, eval_ground(c)?);
            // Empty pattern: SMT-LIB defines (str.replace_all s "" t) =
            // s, but Rust's `replace` interleaves t at every char
            // boundary — folding with it would manufacture a wrong
            // GroundEq fact (and a bogus certified refutation).
            if from.is_empty() {
                return Some(s);
            }
            Some(s.replace(&from, &to))
        }
        _ => None,
    }
}

/// One timed run of the abstract-interpretation pass over a script.
#[derive(Clone, Debug)]
pub struct AbsintRun {
    /// The full analysis (verdict, certificate, tightenings, domains).
    pub analysis: Analysis,
    /// QUBO bit variables eliminated by applying the tightenings; 0
    /// until [`apply_tightenings`] runs (and always 0 on unsat).
    pub vars_eliminated: u64,
    /// Wall-clock time of lowering + fixpoint, microseconds.
    pub time_us: u64,
}

impl AbsintRun {
    /// Lowers and analyzes a command stream.
    pub fn over(commands: &[Command]) -> AbsintRun {
        let start = std::time::Instant::now();
        let analysis = analyze(lower(commands));
        AbsintRun {
            analysis,
            vars_eliminated: 0,
            time_us: start.elapsed().as_micros() as u64,
        }
    }

    /// True when the script is statically refuted *and* the independent
    /// replay checker confirms the certificate. A certificate that
    /// fails replay (which would indicate an analyzer bug) is treated
    /// as no refutation at all: the script proceeds to the solver, so a
    /// checker regression can never flip a sat answer to unsat.
    pub fn is_refuted(&self) -> bool {
        self.analysis.verdict == Verdict::Unsat && self.analysis.verify_certificate().is_ok()
    }

    /// The report-facing summary of this run.
    pub fn to_stats(&self) -> qsmt_telemetry::AbsintStats {
        qsmt_telemetry::AbsintStats {
            verdict: self.analysis.verdict.as_str().to_string(),
            time_us: self.time_us,
            iterations: self.analysis.iterations as u64,
            domains_narrowed: self.analysis.domains_narrowed as u64,
            vars_eliminated: self.vars_eliminated,
            certificate_steps: self
                .analysis
                .certificate
                .as_ref()
                .map_or(0, |c| c.steps.len() as u64),
        }
    }
}

/// Wraps compiled string-constraint goals in
/// [`Constraint::Pinned`] for every position the analysis proved,
/// returning the rewritten goals and the number of QUBO bit variables
/// this eliminates (7 per pin).
///
/// Pipelines (ground definitions) and index queries are left alone —
/// their models are not per-position string QUBOs. When *every*
/// position of a goal is pinned, the last pin is dropped so the
/// sampler keeps at least one free variable; the pins are redundant
/// with the wrapped constraint, so any subset is sound.
pub fn apply_tightenings(goals: Vec<Goal>, analysis: &Analysis) -> (Vec<Goal>, u64) {
    const BITS_PER_CHAR: u64 = 7;
    let mut eliminated = 0u64;
    let goals = goals
        .into_iter()
        .map(|goal| match goal {
            Goal::StringConstraint { name, constraint } => {
                let pins = analysis.tightening_for(&name).map_or_else(Vec::new, |t| {
                    let mut pins = t.pins.clone();
                    if t.exact_len == Some(pins.len()) {
                        pins.pop();
                    }
                    pins
                });
                let constraint = if pins.is_empty() {
                    constraint
                } else {
                    eliminated += BITS_PER_CHAR * pins.len() as u64;
                    Constraint::Pinned {
                        inner: Box::new(constraint),
                        pins,
                    }
                };
                Goal::StringConstraint { name, constraint }
            }
            other => other,
        })
        .collect();
    (goals, eliminated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::Script;

    fn program(src: &str) -> AbsProgram {
        lower(Script::parse(src).expect("parses").commands())
    }

    #[test]
    fn lowers_supported_shapes() {
        let p = program(
            "(declare-const s String)\
             (declare-const t String)\
             (declare-const i Int)\
             (assert (= (str.len s) 4))\
             (assert (str.prefixof \"ab\" s))\
             (assert (str.suffixof \"z\" s))\
             (assert (str.contains s \"b\"))\
             (assert (= (str.at s 1) \"q\"))\
             (assert (= s (str.rev s)))\
             (assert (= s t))\
             (assert (str.in_re t (str.to_re \"abcd\")))\
             (assert (= t (str.rev \"dcba\")))\
             (assert (= i (str.indexof \"hay\" \"a\" 0)))",
        );
        assert_eq!(p.string_vars, vec!["s", "t"]);
        let shapes: Vec<&AbsAssert> = p.asserts.iter().map(|(_, a)| a).collect();
        assert!(matches!(shapes[0], AbsAssert::LenEq { var: 0, n: 4 }));
        assert!(matches!(shapes[1], AbsAssert::PrefixLit { var: 0, .. }));
        assert!(matches!(shapes[2], AbsAssert::SuffixLit { var: 0, .. }));
        assert!(matches!(shapes[3], AbsAssert::Contains { var: 0, .. }));
        assert!(matches!(
            shapes[4],
            AbsAssert::PinAt {
                var: 0,
                index: 1,
                ch: 'q'
            }
        ));
        assert!(matches!(shapes[5], AbsAssert::SelfReverse { var: 0 }));
        assert!(matches!(shapes[6], AbsAssert::VarEq { a: 0, b: 1 }));
        assert!(matches!(shapes[7], AbsAssert::InRegex { var: 1, .. }));
        assert!(
            matches!(shapes[8], AbsAssert::GroundEq { var: 1, value } if value == "abcd"),
            "ground evaluator should fold str.rev: {:?}",
            shapes[8]
        );
        assert!(matches!(shapes[9], AbsAssert::Unsupported));
        // Assertion indices are the assert ordinals.
        let indices: Vec<usize> = p.asserts.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn non_ascii_literals_lower_to_unsupported() {
        let p = program(
            "(declare-const s String)\
             (assert (str.contains s \"héllo\"))",
        );
        assert!(matches!(p.asserts[0].1, AbsAssert::Unsupported));
    }

    #[test]
    fn ground_replace_chain_evaluates() {
        let p = program(
            "(declare-const x String)\
             (assert (= x (str.replace_all (str.++ \"aba\" \"b\") \"b\" \"c\")))",
        );
        assert!(
            matches!(&p.asserts[0].1, AbsAssert::GroundEq { value, .. } if value == "acac"),
            "{:?}",
            p.asserts[0].1
        );
    }

    #[test]
    fn empty_pattern_replace_all_is_identity() {
        // SMT-LIB: (str.replace_all s "" t) = s. Rust's str::replace
        // would give "ZaZbZ" here.
        let p = program(
            "(declare-const x String)\
             (assert (= x (str.replace_all \"ab\" \"\" \"Z\")))",
        );
        assert!(
            matches!(&p.asserts[0].1, AbsAssert::GroundEq { value, .. } if value == "ab"),
            "{:?}",
            p.asserts[0].1
        );
        // The review's end-to-end scenario: x = "ab" with length 2 is
        // satisfiable and must not be served as a certified unsat.
        let script = Script::parse(
            "(declare-const x String)\
             (assert (= x (str.replace_all \"ab\" \"\" \"Z\")))\
             (assert (= (str.len x) 2))",
        )
        .unwrap();
        assert!(!AbsintRun::over(script.commands()).is_refuted());
    }

    #[test]
    fn empty_pattern_replace_prepends() {
        // SMT-LIB: (str.replace s "" t) = t ++ s.
        let p = program(
            "(declare-const x String)\
             (assert (= x (str.replace \"ab\" \"\" \"Z\")))",
        );
        assert!(
            matches!(&p.asserts[0].1, AbsAssert::GroundEq { value, .. } if value == "Zab"),
            "{:?}",
            p.asserts[0].1
        );
    }

    #[test]
    fn huge_length_and_index_literals_lower_to_unsupported() {
        // Untrusted scripts must not be able to request multi-GB
        // per-position allocations or O(n) passes.
        let p = program(
            "(declare-const s String)\
             (assert (= (str.at s 1000000000) \"a\"))\
             (assert (= (str.len s) 18446744073709551615))\
             (assert (= (str.at s 512) \"a\"))\
             (assert (= (str.len s) 512))",
        );
        assert!(matches!(p.asserts[0].1, AbsAssert::Unsupported));
        assert!(matches!(p.asserts[1].1, AbsAssert::Unsupported));
        // Index 512 implies len ≥ 513 — beyond the tracked positions.
        assert!(matches!(p.asserts[2].1, AbsAssert::Unsupported));
        // A length at the cap itself is still tracked.
        assert!(matches!(
            p.asserts[3].1,
            AbsAssert::LenEq { var: 0, n: 512 }
        ));
    }

    #[test]
    fn non_ascii_regex_literals_lower_to_unsupported() {
        // positional_sets works over the ASCII alphabet, so "é" would
        // read as "matches nothing" at an exact length and refute the
        // satisfiable script below.
        let p = program(
            "(declare-const s String)\
             (assert (str.in_re s (str.to_re \"é\")))\
             (assert (str.in_re s (re.++ (str.to_re \"a\") (re.* (str.to_re \"é\")))))",
        );
        assert!(matches!(p.asserts[0].1, AbsAssert::Unsupported));
        assert!(matches!(p.asserts[1].1, AbsAssert::Unsupported));
        let script = Script::parse(
            "(declare-const s String)\
             (assert (str.in_re s (str.to_re \"é\")))\
             (assert (= (str.len s) 1))",
        )
        .unwrap();
        assert!(!AbsintRun::over(script.commands()).is_refuted());
    }

    #[test]
    fn refuted_run_survives_replay() {
        let script = Script::parse(
            "(declare-const s String)\
             (assert (str.contains s \"toolong\"))\
             (assert (= (str.len s) 3))",
        )
        .unwrap();
        let run = AbsintRun::over(script.commands());
        assert!(run.is_refuted());
        let stats = run.to_stats();
        assert_eq!(stats.verdict, "unsat");
        assert!(stats.certificate_steps >= 2);
    }

    #[test]
    fn tightenings_wrap_goals_and_count_bits() {
        let script = Script::parse(
            "(declare-const s String)\
             (assert (= (str.at s 0) \"q\"))\
             (assert (= (str.at s 2) \"z\"))\
             (assert (= (str.len s) 4))",
        )
        .unwrap();
        let run = AbsintRun::over(script.commands());
        assert!(!run.is_refuted());
        let goals = script.compile().unwrap();
        let (goals, eliminated) = apply_tightenings(goals, &run.analysis);
        assert_eq!(eliminated, 14);
        let Goal::StringConstraint { constraint, .. } = &goals[0] else {
            panic!("string goal expected");
        };
        let Constraint::Pinned { pins, .. } = constraint else {
            panic!("expected a pinned wrapper, got {constraint:?}");
        };
        assert_eq!(pins, &vec![(0, 'q'), (2, 'z')]);
    }

    #[test]
    fn fully_pinned_goal_keeps_one_free_position() {
        // Ground-equal via prefix over the whole string: every position
        // pins, so one must be released for the sampler.
        let script = Script::parse(
            "(declare-const s String)\
             (assert (str.prefixof \"abc\" s))\
             (assert (= (str.len s) 3))",
        )
        .unwrap();
        let run = AbsintRun::over(script.commands());
        let (goals, eliminated) = apply_tightenings(script.compile().unwrap(), &run.analysis);
        let Goal::StringConstraint {
            constraint: Constraint::Pinned { pins, .. },
            ..
        } = &goals[0]
        else {
            panic!("expected a pinned wrapper");
        };
        assert_eq!(pins.len(), 2, "one pin dropped to keep a free position");
        assert_eq!(eliminated, 14);
    }
}
