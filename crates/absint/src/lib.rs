//! # qsmt-absint — script-level abstract interpretation
//!
//! A static-analysis tier that runs over lowered SMT-LIB string
//! scripts **before** any QUBO is built (see `docs/ABSINT.md`). An
//! annealer samples — it can exhibit a model but never prove there is
//! none — so this pass supplies the missing half: sound,
//! over-approximating reasoning that can
//!
//! 1. **refute** a script outright, with a serialized derivation
//!    ([`Certificate`]) that an independent replay checker
//!    ([`check()`]) re-validates step by step;
//! 2. **tighten** domains ([`Tightening`]) — positions proven to hold
//!    one character and exact derived lengths — which the compiler
//!    turns into fixed QUBO bits, shrinking models before presolve.
//!
//! The crate is AST-independent: the front end (`qsmt-smtlib`, which
//! depends on this crate) lowers assertions into the small
//! [`AbsAssert`] IR, and everything here works over that. Per-variable
//! abstract values combine a length interval, front-anchored and
//! back-anchored per-position character sets, and congruence transfer
//! across `(= x y)` equalities; all transfer functions are meets, so
//! the fixpoint ([`analyze()`]) terminates and every claim is a sound
//! over-approximation — `unsat` verdicts are proofs, `unknown` is the
//! honest everything-else.

#![warn(missing_docs)]

pub mod analyze;
pub mod check;
pub mod domain;
pub mod ir;

pub use analyze::{analyze, Analysis, Certificate, DerivStep, Rule, Tightening, Verdict};
pub use check::{check, CheckError};
pub use domain::{CharSet, LenInterval, StrDomain, MAX_TRACKED_LEN};
pub use ir::{AbsAssert, AbsProgram};

use qsmt_telemetry::Json;

/// A script-level diagnostic derived from the analysis, rendered by
/// `qsmt lint` alongside the model-level formulation lints. These are
/// informational — the lint gate's error budget is unaffected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbsDiagnostic {
    /// Stable kebab-case code (`absint-unsat`, `absint-pins`,
    /// `absint-exact-len`).
    pub code: &'static str,
    /// Human-readable message.
    pub message: String,
}

impl Analysis {
    /// Script-level diagnostics for lint output.
    pub fn diagnostics(&self) -> Vec<AbsDiagnostic> {
        let mut out = Vec::new();
        if let Some(cert) = &self.certificate {
            out.push(AbsDiagnostic {
                code: "absint-unsat",
                message: format!(
                    "domain of {} is provably empty ({}-step certificate)",
                    self.program.var_name(cert.var),
                    cert.steps.len()
                ),
            });
        }
        for t in &self.tightenings {
            if !t.pins.is_empty() {
                let pins: Vec<String> = t
                    .pins
                    .iter()
                    .map(|(i, c)| format!("[{i}]={:?}", c))
                    .collect();
                out.push(AbsDiagnostic {
                    code: "absint-pins",
                    message: format!(
                        "{}: {} of {} positions pinned ({})",
                        t.var,
                        t.pins.len(),
                        t.exact_len
                            .map_or_else(|| "?".to_string(), |n| n.to_string()),
                        pins.join(" ")
                    ),
                });
            }
            if let Some(n) = t.exact_len {
                out.push(AbsDiagnostic {
                    code: "absint-exact-len",
                    message: format!("{}: exact length {n} established", t.var),
                });
            }
        }
        out
    }

    /// The full analysis as a JSON document: verdict, fixpoint
    /// accounting, certificate (null when unknown), tightenings,
    /// per-variable domain summaries, and the feature vector.
    pub fn to_json(&self) -> Json {
        let certificate = match &self.certificate {
            None => Json::Null,
            Some(cert) => Json::obj([
                (
                    "var",
                    Json::Str(self.program.var_name(cert.var).to_string()),
                ),
                (
                    "steps",
                    Json::Arr(
                        cert.steps
                            .iter()
                            .map(|s| {
                                Json::obj([
                                    ("assertion", Json::Num(s.assertion as f64)),
                                    ("rule", Json::Str(s.rule.as_str().to_string())),
                                    ("var", Json::Str(self.program.var_name(s.var).to_string())),
                                    ("before", Json::Str(s.before.clone())),
                                    ("after", Json::Str(s.after.clone())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        };
        let tightenings = Json::Arr(
            self.tightenings
                .iter()
                .map(|t| {
                    Json::obj([
                        ("var", Json::Str(t.var.clone())),
                        (
                            "exact_len",
                            t.exact_len.map_or(Json::Null, |n| Json::Num(n as f64)),
                        ),
                        (
                            "pins",
                            Json::Arr(
                                t.pins
                                    .iter()
                                    .map(|(i, c)| {
                                        Json::Arr(vec![
                                            Json::Num(*i as f64),
                                            Json::Str(c.to_string()),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let domains = Json::Obj(
            self.program
                .string_vars
                .iter()
                .zip(&self.domains)
                .map(|(name, d)| (name.clone(), Json::Str(d.summary())))
                .collect(),
        );
        Json::obj([
            ("verdict", Json::Str(self.verdict.as_str().to_string())),
            ("iterations", Json::Num(self.iterations as f64)),
            ("domains_narrowed", Json::Num(self.domains_narrowed as f64)),
            ("certificate", certificate),
            ("tightenings", tightenings),
            ("domains", domains),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip_shape() {
        let program = AbsProgram {
            string_vars: vec!["s".to_string()],
            int_vars: 0,
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
        };
        let a = analyze(program);
        let j = a.to_json();
        assert_eq!(j.get("verdict").and_then(Json::as_str), Some("unsat"));
        let cert = j.get("certificate").expect("certificate key");
        let steps = cert.get("steps").and_then(Json::as_arr).expect("steps");
        assert!(!steps.is_empty());
        assert!(qsmt_telemetry::parse(&j.pretty()).is_ok());
    }

    #[test]
    fn diagnostics_for_tightened_script() {
        let program = AbsProgram {
            string_vars: vec!["s".to_string()],
            int_vars: 0,
            asserts: vec![
                (
                    0,
                    AbsAssert::PinAt {
                        var: 0,
                        index: 0,
                        ch: 'q',
                    },
                ),
                (1, AbsAssert::LenEq { var: 0, n: 4 }),
            ],
        };
        let a = analyze(program);
        let diags = a.diagnostics();
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["absint-pins", "absint-exact-len"]);
    }
}
