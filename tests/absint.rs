//! Acceptance tests for the abstract-interpretation pass (docs/ABSINT.md):
//! statically-refutable benchmarks produce *checked* unsat certificates,
//! and statically-derived pins shrink the compiled QUBO before presolve.

use qsmt::smtlib::{apply_tightenings, Goal, ScriptError, ScriptRun};
use qsmt::{SatStatus, Script, SolveOptions, StringSolver};

fn read_bench(name: &str) -> Script {
    let path = format!("{}/benchmarks/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    Script::parse(&src).unwrap_or_else(|e| panic!("{name}: parse error: {e}"))
}

/// The default `qsmt solve` path: absint on, seed 41.
fn solve_with_absint(script: &Script) -> Result<ScriptRun, ScriptError> {
    let opts = SolveOptions {
        absint: true,
        ..SolveOptions::default()
    };
    script.run(&StringSolver::with_defaults().with_seed(41), &opts)
}

/// Total QUBO variable count across a compiled goal set.
fn num_vars(goals: &[Goal]) -> usize {
    goals
        .iter()
        .map(|g| match g {
            Goal::StringConstraint { constraint, .. } | Goal::IndexQuery { constraint, .. } => {
                constraint.encode().expect("encodes").qubo.num_vars()
            }
            Goal::StringPipeline { .. } => 0,
        })
        .sum()
}

#[test]
fn unsat_benchmarks_are_refuted_with_replayable_certificates() {
    for name in ["unsat_contains_length.smt2", "unsat_regex_length.smt2"] {
        let script = read_bench(name);
        let run = script.absint();
        assert!(run.is_refuted(), "{name}: absint must refute statically");
        // `is_refuted` already replays the certificate through the
        // independent checker; assert the replay explicitly too so a
        // future weakening of `is_refuted` cannot silently pass.
        run.analysis
            .verify_certificate()
            .unwrap_or_else(|e| panic!("{name}: certificate replay failed: {e}"));
        let cert = run.analysis.certificate.as_ref().expect("certificate");
        assert!(
            !cert.steps.is_empty(),
            "{name}: refutation must cite at least one derivation step"
        );

        // End to end: the solver entry point answers unsat without a
        // single compilation or sample.
        let ScriptRun {
            outcome, absint, ..
        } = solve_with_absint(&script).unwrap_or_else(|e| panic!("{name}: solve error: {e}"));
        assert_eq!(outcome.status, SatStatus::Unsat, "{name}");
        assert!(outcome.model.is_empty(), "{name}: unsat has no model");
        assert!(absint.expect("absint ran").is_refuted(), "{name}");
    }
}

#[test]
fn char_pins_compiles_to_strictly_fewer_qubo_vars_with_absint() {
    let script = read_bench("char_pins.smt2");

    // Absint off: a 4-char string costs 4·7 = 28 binary variables.
    let plain = script.compile().expect("compiles");
    assert_eq!(num_vars(&plain), 28, "baseline encoding size drifted");

    // Absint on: positions 0 and 2 are pinned by the script's
    // `str.at` equalities, so 2·7 = 14 variables are fixed statically
    // and the sampler sees a 14-variable model.
    let run = script.absint();
    assert_eq!(run.analysis.verdict.as_str(), "unknown");
    let (tightened, eliminated) =
        apply_tightenings(script.compile().expect("compiles"), &run.analysis);
    assert_eq!(eliminated, 14, "two pinned chars eliminate 14 bits");
    let shrunk = num_vars(&tightened);
    assert_eq!(shrunk, 14, "pinned model keeps only the free positions");
    assert!(shrunk < num_vars(&plain));

    // The shrunken model still produces a correct answer.
    let ScriptRun {
        outcome: out,
        absint,
        ..
    } = solve_with_absint(&script).expect("solves");
    assert_eq!(out.status, SatStatus::Sat);
    assert_eq!(absint.expect("absint ran").vars_eliminated, 14);
    let s = out.model[0].1.to_string();
    let s = s.trim_matches('"');
    assert_eq!(s.as_bytes()[0], b'q');
    assert_eq!(s.as_bytes()[2], b'z');
}

#[test]
fn sat_benchmarks_are_never_refuted() {
    // The interpreter proves unsat only; on every satisfiable benchmark
    // it must report "unknown" and leave the verdict to the sampler.
    let dir = format!("{}/benchmarks", env!("CARGO_MANIFEST_DIR"));
    for entry in std::fs::read_dir(&dir).expect("benchmarks dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_none_or(|x| x != "smt2") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("unsat_") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("read benchmark");
        let script = Script::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let run = script.absint();
        assert!(!run.is_refuted(), "{name}: sat benchmark wrongly refuted");
    }
}
