//! Runs every `.smt2` benchmark in `benchmarks/` through the full solver
//! stack and checks the verdicts — the repo's own SMT-LIB corpus, in the
//! spirit of the SMT-LIB benchmark library the paper's §2.1.1 describes.

use qsmt::smtlib::Goal;
use qsmt::{SatStatus, Script, SolveOptions, StringSolver};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("benchmarks")
}

fn solve_file(name: &str) -> (SatStatus, Vec<(String, String)>) {
    let path = corpus_dir().join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let script = Script::parse(&src).unwrap_or_else(|e| panic!("{name}: parse error: {e}"));
    let out = script
        .run(
            &StringSolver::with_defaults().with_seed(41),
            &SolveOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{name}: solve error: {e}"))
        .outcome;
    let model = out
        .model
        .into_iter()
        .map(|(k, v)| (k, v.to_string()))
        .collect();
    (out.status, model)
}

#[test]
fn corpus_has_expected_size() {
    let count = std::fs::read_dir(corpus_dir())
        .expect("benchmarks directory exists")
        .filter(|e| {
            e.as_ref()
                .is_ok_and(|e| e.path().extension().is_some_and(|x| x == "smt2"))
        })
        .count();
    assert!(
        count >= 12,
        "expected at least 12 corpus files, found {count}"
    );
}

#[test]
fn deterministic_rows_solve_exactly() {
    let (status, model) = solve_file("table1_row1_reverse_replace.smt2");
    assert_eq!(status, SatStatus::Sat);
    assert_eq!(model[0].1, "\"ollah\"");

    let (status, model) = solve_file("table1_row4_concat_replace.smt2");
    assert_eq!(status, SatStatus::Sat);
    assert_eq!(model[0].1, "\"hexxo worxd\"");

    let (status, model) = solve_file("nested_pipeline.smt2");
    assert_eq!(status, SatStatus::Sat);
    // "ab"+"cd" = "abcd", reversed = "dcba", first 'd' -> 'z' = "zcba"
    assert_eq!(model[0].1, "\"zcba\"");
}

#[test]
fn generated_rows_satisfy_their_constraints() {
    let (status, model) = solve_file("table1_row2_palindrome.smt2");
    assert_eq!(status, SatStatus::Sat);
    let p = model[0].1.trim_matches('"').to_string();
    assert_eq!(p.len(), 6);
    assert_eq!(p.chars().rev().collect::<String>(), p);

    let (status, model) = solve_file("table1_row3_regex.smt2");
    assert_eq!(status, SatStatus::Sat);
    let r = model[0].1.trim_matches('"').to_string();
    assert!(r.starts_with('a') && r[1..].chars().all(|c| c == 'b' || c == 'c'));

    let (status, model) = solve_file("table1_row5_substring.smt2");
    assert_eq!(status, SatStatus::Sat);
    let s = model[0].1.trim_matches('"').to_string();
    assert_eq!(s.len(), 6);
    assert!(s.contains("hi"));
}

#[test]
fn integer_and_extension_queries() {
    let (status, model) = solve_file("indexof_query.smt2");
    assert_eq!(status, SatStatus::Sat);
    assert_eq!(model[0].1, "6");

    let (status, model) = solve_file("conjunction_palindrome_prefix.smt2");
    assert_eq!(status, SatStatus::Sat);
    let s = model[0].1.trim_matches('"').to_string();
    assert!(s.starts_with("ab"));
    assert_eq!(s.chars().rev().collect::<String>(), s);

    let (status, model) = solve_file("char_pins.smt2");
    assert_eq!(status, SatStatus::Sat);
    let s = model[0].1.trim_matches('"').to_string();
    assert_eq!(s.as_bytes()[0], b'q');
    assert_eq!(s.as_bytes()[2], b'z');

    let (status, model) = solve_file("regex_range.smt2");
    assert_eq!(status, SatStatus::Sat);
    let s = model[0].1.trim_matches('"').to_string();
    assert!(('a'..='f').contains(&s.chars().next().unwrap()));
    assert!(s.ends_with('x'));
}

#[test]
fn affix_conjunction_and_bounded_repetition() {
    let (status, model) = solve_file("suffix_prefix_mix.smt2");
    assert_eq!(status, SatStatus::Sat);
    let s = model[0].1.trim_matches('"').to_string();
    assert!(
        s.starts_with("ab") && s.ends_with("yz") && s.len() == 6,
        "{s:?}"
    );

    let (status, model) = solve_file("bounded_repetition.smt2");
    assert_eq!(status, SatStatus::Sat);
    let s = model[0].1.trim_matches('"').to_string();
    assert_eq!(s, "aaab");
}

#[test]
fn unsat_benchmarks_report_unsat() {
    for name in ["unsat_regex_length.smt2", "unsat_contains_length.smt2"] {
        let (status, _) = solve_file(name);
        assert_eq!(status, SatStatus::Unsat, "{name}");
    }
}

/// Trajectory probes observe, never steer: over the whole corpus a
/// probed run and an unprobed run give identical verdicts and models,
/// and every goal's solves draw identical sample sets. Probes record
/// dynamics for every solve that anneals; a solve drawn exactly from its
/// components has no trajectory, probed or not.
#[test]
fn probes_never_change_verdicts_models_or_samples() {
    let solver = StringSolver::with_defaults().with_seed(41);
    let [plain, probed] = [false, true].map(|probes| SolveOptions {
        absint: true,
        probes,
    });
    let mut names: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("benchmarks directory exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "smt2"))
        .collect();
    names.sort();
    let mut annealed = 0;
    for path in names {
        let name = path.display();
        let src = std::fs::read_to_string(&path).expect("read benchmark");
        let script = Script::parse(&src).unwrap_or_else(|e| panic!("{name}: parse error: {e}"));
        let off = script.run(&solver, &plain).expect("solves");
        let on = script.run(&solver, &probed).expect("solves");
        assert_eq!(off.outcome.status, on.outcome.status, "{name}");
        assert_eq!(off.outcome.model, on.outcome.model, "{name}");
        let solves = |run: &qsmt::smtlib::ScriptRun| {
            run.goals
                .iter()
                .flat_map(|g| g.solves.iter())
                .map(|s| {
                    (
                        s.sampling.sampler == "component-exact",
                        s.dynamics.is_some(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert!(solves(&off).iter().all(|&(_, d)| !d), "{name}: probes off");
        for (exact, dynamics) in solves(&on) {
            assert_eq!(dynamics, !exact, "{name}: probes on");
            annealed += usize::from(!exact);
        }

        for goal in script.compile().expect("compiles") {
            let samples = |opts: &SolveOptions| match &goal {
                Goal::StringConstraint { constraint, .. } | Goal::IndexQuery { constraint, .. } => {
                    solver.run(constraint, opts).map(|out| vec![out.samples])
                }
                Goal::StringPipeline { pipeline, .. } => pipeline
                    .run(&solver, opts)
                    .map(|r| r.stages.into_iter().map(|s| s.outcome.samples).collect()),
            };
            match (samples(&plain), samples(&probed)) {
                (Ok(off), Ok(on)) => assert_eq!(off, on, "{name}: goal {}", goal.name()),
                (off, on) => assert_eq!(off.is_err(), on.is_err(), "{name}: goal {}", goal.name()),
            }
        }
    }
    assert!(annealed > 0, "no corpus solve annealed");
}
