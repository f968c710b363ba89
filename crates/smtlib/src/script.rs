//! Script driver: parse → compile → solve → model.

use crate::absint::AbsintRun;
use crate::ast::{parse_command, Command};
use crate::compile::{compile, CompileError, Goal};
use crate::sexpr::{parse_sexprs, SExprError};
use qsmt_core::{ConstraintError, SolveOptions, StringSolver};
use qsmt_telemetry::{GoalKind, GoalReport, RunReport, SolveReport};

/// A parsed SMT-LIB script.
#[derive(Debug, Clone)]
pub struct Script {
    commands: Vec<Command>,
}

/// Script-level error.
#[derive(Debug)]
pub enum ScriptError {
    /// Syntax error (lexing or S-expressions).
    Syntax(SExprError),
    /// Command/term parsing or sort checking failed.
    Ast(crate::ast::AstError),
    /// Compilation to QUBO goals failed.
    Compile(CompileError),
    /// Encoding a goal failed for a reason other than unsatisfiability.
    Encode(ConstraintError),
}

impl std::fmt::Display for ScriptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScriptError::Syntax(e) => write!(f, "{e}"),
            ScriptError::Ast(e) => write!(f, "{e}"),
            ScriptError::Compile(e) => write!(f, "{e}"),
            ScriptError::Encode(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScriptError {}

/// check-sat verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatStatus {
    /// Every goal produced a validated model value.
    Sat,
    /// A goal is provably unsatisfiable (detected at encode time, e.g. a
    /// regex with no match of the asserted length).
    Unsat,
    /// The sampler failed to produce a validating assignment — the honest
    /// verdict for an incomplete, optimization-based decision procedure.
    Unknown,
}

impl std::fmt::Display for SatStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SatStatus::Sat => write!(f, "sat"),
            SatStatus::Unsat => write!(f, "unsat"),
            SatStatus::Unknown => write!(f, "unknown"),
        }
    }
}

/// A model value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelValue {
    /// A string assignment.
    Str(String),
    /// An integer assignment (`None` when the query had no answer, e.g.
    /// indexof over a haystack without the needle — SMT-LIB's −1).
    Int(Option<usize>),
}

impl std::fmt::Display for ModelValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelValue::Str(s) => write!(f, "{s:?}"),
            ModelValue::Int(Some(i)) => write!(f, "{i}"),
            ModelValue::Int(None) => write!(f, "(- 1)"),
        }
    }
}

/// The result of running a script.
#[derive(Debug, Clone)]
pub struct ScriptOutcome {
    /// The check-sat verdict.
    pub status: SatStatus,
    /// Variable assignments, in declaration order.
    pub model: Vec<(String, ModelValue)>,
}

/// Everything [`Script::run`] produced.
#[derive(Debug, Clone)]
pub struct ScriptRun {
    /// Verdict and model.
    pub outcome: ScriptOutcome,
    /// One report per goal solved, in declaration order.
    pub goals: Vec<GoalReport>,
    /// The abstract-interpretation run; `None` when the pass was off.
    pub absint: Option<AbsintRun>,
}

impl ScriptRun {
    /// Where the answers came from: `absint` when a confirmed static
    /// refutation decided the run without touching a sampler, otherwise
    /// the `solver`.
    pub fn served_from(&self) -> &'static str {
        if self.absint.as_ref().is_some_and(AbsintRun::is_refuted) {
            "absint"
        } else {
            "solver"
        }
    }

    /// The run report of this run (`RunReport::SCHEMA_VERSION`).
    pub fn into_report(
        self,
        source: String,
        sampler: &str,
        elapsed_us: u64,
        trace_id: Option<u64>,
    ) -> RunReport {
        RunReport {
            schema_version: RunReport::SCHEMA_VERSION,
            source,
            status: self.outcome.status.to_string(),
            sampler: sampler.to_string(),
            served_from: self.served_from().to_string(),
            elapsed_us,
            trace_id,
            absint: self.absint.as_ref().map(AbsintRun::to_stats),
            goals: self.goals,
        }
    }
}

impl Script {
    /// Parses SMT-LIB source.
    ///
    /// # Errors
    /// Fails on lexical, syntactic, or unsupported-command errors.
    pub fn parse(src: &str) -> Result<Self, ScriptError> {
        let sexprs = parse_sexprs(src).map_err(ScriptError::Syntax)?;
        let commands = sexprs
            .iter()
            .map(parse_command)
            .collect::<Result<Vec<_>, _>>()
            .map_err(ScriptError::Ast)?;
        Ok(Self { commands })
    }

    /// The parsed commands.
    pub fn commands(&self) -> &[Command] {
        &self.commands
    }

    /// Compiles the script to per-variable goals.
    ///
    /// # Errors
    /// Fails on sort errors or unsupported fragments.
    pub fn compile(&self) -> Result<Vec<Goal>, ScriptError> {
        compile(&self.commands).map_err(ScriptError::Compile)
    }

    /// Runs the abstract-interpretation pass over the script (see
    /// `docs/ABSINT.md`): lowering, fixpoint, certificate and
    /// tightenings. Purely static — no QUBO is built.
    pub fn absint(&self) -> crate::absint::AbsintRun {
        crate::absint::AbsintRun::over(&self.commands)
    }

    /// Runs the script against a solver: the verdict, the model, one
    /// [`GoalReport`] per goal with the per-stage telemetry of every
    /// solver invocation (`docs/OBSERVABILITY.md`), and the absint run.
    /// This is the entry point behind `qsmt solve` and the serve loop.
    ///
    /// With [`SolveOptions::absint`] the abstract-interpretation pass runs
    /// first: a statically refuted script (certificate confirmed by the
    /// replay checker) returns `unsat` without compiling anything;
    /// otherwise the derived domain tightenings are applied so pinned
    /// positions never reach the sampler.
    ///
    /// On an unsat verdict the goals reported so far are returned (the
    /// goal that proved unsat at encode time never ran a sampler, so it
    /// has no report).
    ///
    /// # Errors
    /// Propagates compilation errors and non-unsat encoding errors.
    pub fn run(
        &self,
        solver: &StringSolver,
        opts: &SolveOptions,
    ) -> Result<ScriptRun, ScriptError> {
        let mut absint = opts.absint.then(|| self.absint());
        let unsat = |goals, absint| ScriptRun {
            outcome: ScriptOutcome {
                status: SatStatus::Unsat,
                model: Vec::new(),
            },
            goals,
            absint,
        };
        if absint.as_ref().is_some_and(AbsintRun::is_refuted) {
            return Ok(unsat(Vec::new(), absint));
        }
        let mut goals = self.compile()?;
        if let Some(run) = &mut absint {
            let (tightened, eliminated) = crate::absint::apply_tightenings(goals, &run.analysis);
            goals = tightened;
            run.vars_eliminated = eliminated;
        }

        let mut model = Vec::with_capacity(goals.len());
        let mut reports = Vec::with_capacity(goals.len());
        let mut status = SatStatus::Sat;
        for goal in &goals {
            // Gate the label format behind an active trace so untraced
            // solves pay nothing here.
            let _goal_span =
                qsmt_trace::active().then(|| qsmt_trace::span_dyn(format!("goal {}", goal.name())));
            let solved = match goal {
                Goal::StringConstraint { constraint, .. } => {
                    solver.run(constraint, opts).map(|out| {
                        let text = out.solution.as_text().unwrap_or_default().to_string();
                        (
                            GoalKind::Constraint,
                            ModelValue::Str(text),
                            out.valid,
                            vec![out.report],
                        )
                    })
                }
                Goal::IndexQuery { constraint, .. } => solver.run(constraint, opts).map(|out| {
                    let value = ModelValue::Int(out.solution.as_index());
                    (GoalKind::IndexQuery, value, out.valid, vec![out.report])
                }),
                Goal::StringPipeline { pipeline, .. } => pipeline.run(solver, opts).map(|report| {
                    let valid = report.all_valid();
                    let solves = report.stages.into_iter().map(|s| s.outcome.report);
                    let value = ModelValue::Str(report.final_text);
                    (GoalKind::Pipeline, value, valid, solves.collect())
                }),
            };
            let (kind, value, valid, solves): (_, _, _, Vec<SolveReport>) = match solved {
                Ok(solved) => solved,
                Err(e) if is_unsat(&e) => return Ok(unsat(reports, absint)),
                Err(e) => return Err(ScriptError::Encode(e)),
            };
            if !valid {
                status = SatStatus::Unknown;
            }
            reports.push(GoalReport {
                name: goal.name().to_string(),
                kind,
                answer: match &value {
                    ModelValue::Str(text) => text.clone(),
                    ModelValue::Int(_) => value.to_string(),
                },
                valid,
                total_us: solves.iter().map(|s| s.total_us).sum(),
                solves,
            });
            model.push((goal.name().to_string(), value));
        }
        Ok(ScriptRun {
            outcome: ScriptOutcome { status, model },
            goals: reports,
            absint,
        })
    }
}

/// Per-goal result of a static lint pass over a script
/// ([`Script::lint`]).
#[derive(Debug, Clone)]
pub struct GoalLint {
    /// The goal's declared variable name.
    pub name: String,
    /// One lint report per solver invocation the goal would perform
    /// (pipelines produce one per stage). Empty when the goal proved
    /// unsatisfiable at encode time — there is no QUBO to lint.
    pub reports: Vec<qsmt_core::LintReport>,
    /// True when encoding proved the goal unsatisfiable.
    pub unsat: bool,
}

impl GoalLint {
    /// True when any stage of this goal carries an error-level diagnostic.
    pub fn has_errors(&self) -> bool {
        self.reports.iter().any(qsmt_core::LintReport::has_errors)
    }
}

impl Script {
    /// Statically lints every goal's compiled QUBO without sampling: the
    /// script-level entry point behind `qsmt lint`. Goals that prove
    /// unsatisfiable at encode time are reported with `unsat: true` and
    /// no lint reports (unsatisfiability is a property of the constraint,
    /// not a formulation defect).
    ///
    /// # Errors
    /// Propagates compilation errors and non-unsat encoding errors.
    pub fn lint(&self, solver: &StringSolver) -> Result<Vec<GoalLint>, ScriptError> {
        let goals = self.compile()?;
        let mut out = Vec::with_capacity(goals.len());
        for goal in &goals {
            let (name, linted) = match goal {
                Goal::StringConstraint { name, constraint }
                | Goal::IndexQuery { name, constraint } => {
                    (name, solver.lint(constraint).map(|r| vec![r]))
                }
                Goal::StringPipeline { name, pipeline } => (name, pipeline.lint(solver)),
            };
            match linted {
                Ok(reports) => out.push(GoalLint {
                    name: name.clone(),
                    reports,
                    unsat: false,
                }),
                Err(e) if is_unsat(&e) => out.push(GoalLint {
                    name: name.clone(),
                    reports: Vec::new(),
                    unsat: true,
                }),
                Err(e) => return Err(ScriptError::Encode(e)),
            }
        }
        Ok(out)
    }
}

/// Encoding errors that prove unsatisfiability of the asserted conjunction
/// (rather than a malformed script).
fn is_unsat(e: &ConstraintError) -> bool {
    matches!(
        e,
        ConstraintError::RegexUnsatisfiable { .. }
            | ConstraintError::SubstringTooLong { .. }
            | ConstraintError::IndexOutOfRange { .. }
            | ConstraintError::LengthOutOfRange { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solver() -> StringSolver {
        StringSolver::with_defaults().with_seed(5)
    }

    fn run(script: &Script, absint: bool) -> ScriptRun {
        let opts = SolveOptions {
            absint,
            ..SolveOptions::default()
        };
        script.run(&solver(), &opts).unwrap()
    }

    #[test]
    fn solves_equality_script() {
        let script = Script::parse(
            "(set-logic QF_S)\
             (declare-const x String)\
             (assert (= x \"hi\"))\
             (check-sat)(get-model)",
        )
        .unwrap();
        let out = run(&script, false).outcome;
        assert_eq!(out.status, SatStatus::Sat);
        assert_eq!(out.model, vec![("x".into(), ModelValue::Str("hi".into()))]);
    }

    #[test]
    fn solves_table1_row4_as_smtlib() {
        let script = Script::parse(
            "(declare-const x String)\
             (assert (= x (str.replace_all (str.++ \"hello\" \" \" \"world\") \"l\" \"x\")))",
        )
        .unwrap();
        let out = run(&script, false).outcome;
        assert_eq!(out.status, SatStatus::Sat);
        assert_eq!(
            out.model,
            vec![("x".into(), ModelValue::Str("hexxo worxd".into()))]
        );
    }

    #[test]
    fn solves_palindrome_script() {
        let script = Script::parse(
            "(declare-const p String)\
             (assert (= p (str.rev p)))\
             (assert (= (str.len p) 4))",
        )
        .unwrap();
        let out = run(&script, false).outcome;
        assert_eq!(out.status, SatStatus::Sat);
        let ModelValue::Str(p) = &out.model[0].1 else {
            panic!()
        };
        assert_eq!(p.chars().rev().collect::<String>(), *p);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn solves_regex_script() {
        let script = Script::parse(
            "(declare-const r String)\
             (assert (str.in_re r (re.++ (str.to_re \"a\") (re.+ (re.union (str.to_re \"b\") (str.to_re \"c\"))))))\
             (assert (= (str.len r) 4))",
        )
        .unwrap();
        let out = run(&script, false).outcome;
        assert_eq!(out.status, SatStatus::Sat);
        let ModelValue::Str(r) = &out.model[0].1 else {
            panic!()
        };
        assert!(r.starts_with('a'));
        assert!(r[1..].chars().all(|c| c == 'b' || c == 'c'));
    }

    #[test]
    fn indexof_script_reports_integer() {
        let script = Script::parse(
            "(declare-const i Int)\
             (assert (= i (str.indexof \"hello world\" \"world\" 0)))",
        )
        .unwrap();
        let out = run(&script, false).outcome;
        assert_eq!(out.status, SatStatus::Sat);
        assert_eq!(out.model, vec![("i".into(), ModelValue::Int(Some(6)))]);
    }

    #[test]
    fn run_labels_goal_kinds() {
        let script = Script::parse(
            "(declare-const x String)\
             (assert (= x (str.rev \"ab\")))\
             (declare-const i Int)\
             (assert (= i (str.indexof \"hello\" \"llo\" 0)))",
        )
        .unwrap();
        let ScriptRun { outcome, goals, .. } = run(&script, false);
        assert_eq!(outcome.status, SatStatus::Sat);
        assert_eq!(goals.len(), 2);
        assert_eq!(goals[0].kind, GoalKind::Pipeline);
        assert_eq!(goals[1].kind, GoalKind::IndexQuery);
        assert!(goals.iter().all(|g| g.valid));
        assert!(goals.iter().all(|g| !g.solves.is_empty()));
    }

    #[test]
    fn reported_unsat_returns_partial_goal_reports() {
        let script = Script::parse(
            "(declare-const r String)\
             (assert (str.in_re r (str.to_re \"abc\")))\
             (assert (= (str.len r) 2))",
        )
        .unwrap();
        let ScriptRun { outcome, goals, .. } = run(&script, false);
        assert_eq!(outcome.status, SatStatus::Unsat);
        assert!(goals.is_empty(), "the unsat goal never reached the sampler");
    }

    #[test]
    fn unsat_detected_for_impossible_regex_length() {
        let script = Script::parse(
            "(declare-const r String)\
             (assert (str.in_re r (str.to_re \"abc\")))\
             (assert (= (str.len r) 2))",
        )
        .unwrap();
        let out = run(&script, false).outcome;
        assert_eq!(out.status, SatStatus::Unsat);
    }

    #[test]
    fn lint_covers_every_goal_without_sampling() {
        let script = Script::parse(
            "(declare-const x String)\
             (assert (= x (str.rev \"ab\")))\
             (declare-const i Int)\
             (assert (= i (str.indexof \"hello\" \"llo\" 0)))",
        )
        .unwrap();
        let lints = script.lint(&solver()).unwrap();
        assert_eq!(lints.len(), 2);
        assert_eq!(lints[0].name, "x");
        assert_eq!(lints[1].name, "i");
        for goal in &lints {
            assert!(!goal.unsat);
            assert!(!goal.reports.is_empty());
            assert!(!goal.has_errors());
        }
    }

    #[test]
    fn lint_marks_encode_time_unsat_goals() {
        let script = Script::parse(
            "(declare-const r String)\
             (assert (str.in_re r (str.to_re \"abc\")))\
             (assert (= (str.len r) 2))",
        )
        .unwrap();
        let lints = script.lint(&solver()).unwrap();
        assert_eq!(lints.len(), 1);
        assert!(lints[0].unsat);
        assert!(lints[0].reports.is_empty());
    }

    #[test]
    fn absint_refutes_statically_without_compiling() {
        // Compilation alone would also catch this (contains longer than
        // the length), but the absint path decides before compile and
        // carries a checkable certificate.
        let script = Script::parse(
            "(declare-const s String)\
             (assert (str.contains s \"toolong\"))\
             (assert (= (str.len s) 3))",
        )
        .unwrap();
        let ScriptRun {
            outcome,
            goals,
            absint,
        } = run(&script, true);
        assert_eq!(outcome.status, SatStatus::Unsat);
        assert!(outcome.model.is_empty());
        assert!(goals.is_empty());
        let absint = absint.expect("absint ran");
        assert!(absint.is_refuted());
        assert!(absint.analysis.verify_certificate().is_ok());
    }

    #[test]
    fn absint_tightens_sat_scripts_and_keeps_answers_valid() {
        let script = Script::parse(
            "(declare-const s String)\
             (assert (= (str.at s 0) \"q\"))\
             (assert (= (str.at s 2) \"z\"))\
             (assert (= (str.len s) 4))",
        )
        .unwrap();
        let ScriptRun {
            outcome: out,
            absint,
            ..
        } = run(&script, true);
        assert_eq!(out.status, SatStatus::Sat);
        assert_eq!(absint.expect("absint ran").vars_eliminated, 14);
        let ModelValue::Str(s) = &out.model[0].1 else {
            panic!("string model expected");
        };
        assert_eq!(s.len(), 4);
        assert!(s.starts_with('q') && s.as_bytes()[2] == b'z', "{s:?}");
    }

    #[test]
    fn syntax_error_reported() {
        assert!(Script::parse("(assert (= x \"hi\")").is_err());
        assert!(Script::parse("(bogus-command)").is_err());
    }

    #[test]
    fn model_value_display() {
        assert_eq!(ModelValue::Int(None).to_string(), "(- 1)");
        assert_eq!(ModelValue::Int(Some(3)).to_string(), "3");
        assert_eq!(ModelValue::Str("a".into()).to_string(), "\"a\"");
        assert_eq!(SatStatus::Sat.to_string(), "sat");
    }
}
