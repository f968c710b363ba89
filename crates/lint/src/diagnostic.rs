//! Diagnostic types shared by every lint pass.
//!
//! A [`Diagnostic`] is one finding: a stable machine-readable [`LintCode`],
//! a [`Severity`], a human-readable message, and the variables involved.
//! [`LintReport`] aggregates the findings of one linted model and renders
//! them as text or JSON. The code strings and the JSON layout are a public
//! interface — the corpus snapshot gate in CI and downstream tooling key
//! off them — so changes here are schema changes.

use qsmt_qubo::Var;
use qsmt_telemetry::{Json, LintStats};

/// How bad a finding is.
///
/// `Error` means the formulation is (or is very likely) unsound: some
/// assignment that violates the encoded constraint is energetically
/// preferable to every satisfying one, so no sampler — classical or
/// quantum — can be trusted to return a correct answer. `Warning` means
/// the encoding is sound in exact arithmetic but degraded on realistic
/// hardware (precision, conditioning). `Info` surfaces structure worth
/// knowing about (degeneracy, presolve opportunities) that is often
/// intentional.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Structural observation; usually benign or intentional.
    Info,
    /// Sound in exact arithmetic but fragile in practice.
    Warning,
    /// The encoding's ground states can violate the constraint.
    Error,
}

impl Severity {
    /// Stable lowercase name used in text and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Stable identifier for each lint pass finding.
///
/// The kebab-case string form (see [`LintCode::as_str`]) is the contract:
/// it appears in CLI output, JSON reports, the corpus snapshot, and
/// `docs/LINTS.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// A penalty term is too weak to dominate the objective pull on its
    /// variables: turning a constraint-violating bit on can pay for itself.
    PenaltyGap,
    /// An inferred one-hot/at-most-one group admits a multi-hot state at
    /// or below the best admissible state of the isolated group.
    OneHotWeak,
    /// A variable has zero linear weight and no quadratic neighbors: it is
    /// completely unconstrained and doubles the ground-state count.
    DeadVariable,
    /// Presolve (`persistent_assignments`) can already fix variables that
    /// survived compilation; sampling them wastes reads.
    PresolveFixable,
    /// Coefficient dynamic range exceeds what the QPU precision model can
    /// represent.
    DynamicRange,
    /// Nonzero coefficients quantize to zero at the modeled coupler
    /// resolution once the problem is scaled into hardware range.
    PrecisionLoss,
    /// The chain strength required for embedding compresses problem
    /// coefficients below coupler resolution.
    ChainStrength,
    /// The interaction graph splits into independent components that could
    /// be solved separately.
    DisconnectedComponents,
    /// Interchangeable variable pairs make the ground state trivially
    /// degenerate (an exact symmetry of the energy function).
    DegenerateSymmetry,
}

impl LintCode {
    /// Stable kebab-case string form.
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::PenaltyGap => "penalty-gap",
            LintCode::OneHotWeak => "one-hot-weak",
            LintCode::DeadVariable => "dead-variable",
            LintCode::PresolveFixable => "presolve-fixable",
            LintCode::DynamicRange => "dynamic-range",
            LintCode::PrecisionLoss => "precision-loss",
            LintCode::ChainStrength => "chain-strength",
            LintCode::DisconnectedComponents => "disconnected-components",
            LintCode::DegenerateSymmetry => "degenerate-symmetry",
        }
    }

    /// The severity this code is emitted with.
    pub fn severity(self) -> Severity {
        match self {
            LintCode::PenaltyGap | LintCode::OneHotWeak => Severity::Error,
            LintCode::DynamicRange | LintCode::PrecisionLoss | LintCode::ChainStrength => {
                Severity::Warning
            }
            LintCode::DeadVariable => Severity::Warning,
            LintCode::PresolveFixable
            | LintCode::DisconnectedComponents
            | LintCode::DegenerateSymmetry => Severity::Info,
        }
    }

    /// Every lint code, in documentation order.
    pub fn all() -> &'static [LintCode] {
        &[
            LintCode::PenaltyGap,
            LintCode::OneHotWeak,
            LintCode::DeadVariable,
            LintCode::PresolveFixable,
            LintCode::DynamicRange,
            LintCode::PrecisionLoss,
            LintCode::ChainStrength,
            LintCode::DisconnectedComponents,
            LintCode::DegenerateSymmetry,
        ]
    }
}

/// One finding produced by a lint pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable machine-readable identifier.
    pub code: LintCode,
    /// Severity (always `code.severity()`).
    pub severity: Severity,
    /// Human-readable explanation with concrete numbers.
    pub message: String,
    /// Variables involved, ascending, possibly truncated for display.
    pub vars: Vec<Var>,
    /// The key numeric fact behind the finding (a margin, a ratio, a
    /// count), when one exists. What it measures depends on `code`.
    pub metric: Option<f64>,
}

impl Diagnostic {
    /// Builds a diagnostic for `code` at its default severity.
    pub fn new(code: LintCode, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            message: message.into(),
            vars: Vec::new(),
            metric: None,
        }
    }

    /// Attaches the involved variables (sorted ascending).
    #[must_use]
    pub fn with_vars(mut self, mut vars: Vec<Var>) -> Self {
        vars.sort_unstable();
        vars.dedup();
        self.vars = vars;
        self
    }

    /// Attaches the headline metric.
    #[must_use]
    pub fn with_metric(mut self, metric: f64) -> Self {
        self.metric = Some(metric);
        self
    }

    /// Renders as `severity[code]: message`.
    pub fn render(&self) -> String {
        format!(
            "{}[{}]: {}",
            self.severity.as_str(),
            self.code.as_str(),
            self.message
        )
    }

    /// JSON form: `{code, severity, message, vars, metric}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("code", Json::Str(self.code.as_str().to_string())),
            ("severity", Json::Str(self.severity.as_str().to_string())),
            ("message", Json::Str(self.message.clone())),
            (
                "vars",
                Json::Arr(self.vars.iter().map(|v| Json::Num(f64::from(*v))).collect()),
            ),
            ("metric", self.metric.map_or(Json::Null, Json::Num)),
        ])
    }
}

/// The collected findings for one linted model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintReport {
    /// All findings, ordered most severe first, then by code and variables.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Sorts diagnostics into the canonical order: severity descending,
    /// then code, then variable indices, then message, then metric —
    /// a *total* order, so serialized output is identical regardless of
    /// the passes' discovery order. Passes push in discovery order; the
    /// driver calls this once at the end.
    pub fn finish(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.code.as_str().cmp(b.code.as_str()))
                .then_with(|| a.vars.cmp(&b.vars))
                .then_with(|| a.message.cmp(&b.message))
                .then_with(|| match (a.metric, b.metric) {
                    (Some(x), Some(y)) => x.total_cmp(&y),
                    (a, b) => a.is_some().cmp(&b.is_some()),
                })
        });
    }

    /// Appends a finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Number of `Error`-severity findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of `Warning`-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of `Info`-severity findings.
    pub fn infos(&self) -> usize {
        self.count(Severity::Info)
    }

    fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// True if any finding has `Error` severity.
    pub fn has_errors(&self) -> bool {
        self.errors() > 0
    }

    /// Sorted, de-duplicated list of the code strings present.
    pub fn codes(&self) -> Vec<&'static str> {
        let mut codes: Vec<&'static str> =
            self.diagnostics.iter().map(|d| d.code.as_str()).collect();
        codes.sort_unstable();
        codes.dedup();
        codes
    }

    /// One-line summary, e.g. `2 errors, 1 warning, 0 info`.
    pub fn summary(&self) -> String {
        let (e, w, i) = (self.errors(), self.warnings(), self.infos());
        format!(
            "{e} error{}, {w} warning{}, {i} info",
            if e == 1 { "" } else { "s" },
            if w == 1 { "" } else { "s" },
        )
    }

    /// Multi-line text rendering (one diagnostic per line plus summary).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        out.push_str(&self.summary());
        out.push('\n');
        out
    }

    /// JSON form: `{diagnostics: [...], errors, warnings, infos}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "diagnostics",
                Json::Arr(self.diagnostics.iter().map(Diagnostic::to_json).collect()),
            ),
            ("errors", Json::Num(self.errors() as f64)),
            ("warnings", Json::Num(self.warnings() as f64)),
            ("infos", Json::Num(self.infos() as f64)),
        ])
    }

    /// Condensed counters for the telemetry `SolveReport` (schema v2).
    pub fn to_stats(&self, time_us: u64) -> LintStats {
        LintStats {
            time_us,
            errors: self.errors(),
            warnings: self.warnings(),
            infos: self.infos(),
            codes: self.codes().iter().map(|c| (*c).to_string()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_error_highest() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn code_strings_are_unique_and_kebab() {
        let mut seen = std::collections::BTreeSet::new();
        for code in LintCode::all() {
            let s = code.as_str();
            assert!(seen.insert(s), "duplicate code string {s}");
            assert!(
                s.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "non-kebab code string {s}"
            );
        }
    }

    #[test]
    fn finish_is_a_total_order_regardless_of_discovery_order() {
        // Same findings pushed in two different discovery orders must
        // serialize byte-identically — JSON consumers diff reports.
        let findings = || {
            vec![
                Diagnostic::new(LintCode::PenaltyGap, "tight gap")
                    .with_vars(vec![0])
                    .with_metric(0.5),
                Diagnostic::new(LintCode::PenaltyGap, "wide gap")
                    .with_vars(vec![0])
                    .with_metric(2.0),
                Diagnostic::new(LintCode::PenaltyGap, "tight gap").with_vars(vec![1]),
                Diagnostic::new(LintCode::DynamicRange, "range"),
            ]
        };
        let mut forward = LintReport::default();
        for d in findings() {
            forward.push(d);
        }
        forward.finish();
        let mut reverse = LintReport::default();
        for d in findings().into_iter().rev() {
            reverse.push(d);
        }
        reverse.finish();
        assert_eq!(forward.to_json().pretty(), reverse.to_json().pretty());
    }

    #[test]
    fn report_sorts_and_counts() {
        let mut report = LintReport::default();
        report.push(Diagnostic::new(LintCode::PresolveFixable, "fixable"));
        report.push(Diagnostic::new(LintCode::PenaltyGap, "gap").with_vars(vec![3, 1]));
        report.push(Diagnostic::new(LintCode::DynamicRange, "range"));
        report.finish();
        assert_eq!(report.diagnostics[0].code, LintCode::PenaltyGap);
        assert_eq!(report.diagnostics[0].vars, vec![1, 3]);
        assert!(report.has_errors());
        assert_eq!(
            (report.errors(), report.warnings(), report.infos()),
            (1, 1, 1)
        );
        assert_eq!(
            report.codes(),
            vec!["dynamic-range", "penalty-gap", "presolve-fixable"]
        );
        assert!(report.summary().starts_with("1 error,"));
    }

    #[test]
    fn json_shape_is_stable() {
        let mut report = LintReport::default();
        report.push(
            Diagnostic::new(LintCode::DeadVariable, "dead")
                .with_vars(vec![2])
                .with_metric(1.0),
        );
        let json = report.to_json();
        let diag = &json.get("diagnostics").unwrap().as_arr().unwrap()[0];
        assert_eq!(diag.get("code").unwrap().as_str(), Some("dead-variable"));
        assert_eq!(diag.get("severity").unwrap().as_str(), Some("warning"));
        assert_eq!(diag.get("metric").unwrap().as_f64(), Some(1.0));
        assert_eq!(json.get("errors").unwrap().as_u64(), Some(0));
    }
}
