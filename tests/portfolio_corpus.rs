//! Corpus gate for portfolio routing: every script in `benchmarks/` is
//! routed through [`qsmt::Portfolio::route`] of the default portfolio,
//! and the resulting plans — member kinds, read/sweep budgets, predicted
//! winner, and the routing feature vector — must match the checked-in
//! snapshot (`benchmarks/portfolio_expected.json`). The snapshot also
//! pins the routing threshold table ([`qsmt::Portfolio::table_json`])
//! under the `_router` key, so a silent routing-constant change cannot
//! land without a visible diff.
//!
//! On top of the snapshot, the corpus enforces hard invariants the
//! snapshot alone cannot: racing a portfolio never changes a script's
//! verdict relative to the single routed strategy, at least one corpus
//! script is won by exact enumeration, and at least one is won by an
//! annealer — keeping the corpus adversarial enough to exercise both
//! sides of the routing crossover.
//!
//! To regenerate the snapshot after an intentional routing change:
//!
//! ```text
//! QSMT_BLESS=1 cargo test --test portfolio_corpus
//! ```

use qsmt::telemetry::{parse, Json};
use qsmt::{Script, SolveOptions, StringSolver};
use std::collections::BTreeMap;

fn benchmarks_dir() -> String {
    format!("{}/benchmarks", env!("CARGO_MANIFEST_DIR"))
}

fn snapshot_path() -> String {
    format!("{}/portfolio_expected.json", benchmarks_dir())
}

fn corpus_files() -> Vec<String> {
    let mut files: Vec<String> = std::fs::read_dir(benchmarks_dir())
        .expect("benchmarks dir")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.ends_with(".smt2").then_some(name)
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "corpus must not be empty");
    files
}

#[test]
fn corpus_routing_matches_expected_snapshot() {
    let dir = benchmarks_dir();
    let solver = StringSolver::with_defaults().with_seed(7);
    let portfolio = qsmt::default_portfolio();

    // `_router` sorts before the benchmark filenames, so the threshold
    // table heads the snapshot where a reviewer sees it first.
    let mut actual = BTreeMap::new();
    actual.insert("_router".to_string(), portfolio.table_json());
    for name in corpus_files() {
        let src = std::fs::read_to_string(format!("{dir}/{name}")).expect("read benchmark");
        let script = Script::parse(&src).unwrap_or_else(|e| panic!("{name}: parse error: {e}"));
        let plans = script
            .portfolio_plans(&solver, &portfolio)
            .unwrap_or_else(|e| panic!("{name}: cannot route: {e}"));
        let goals: Vec<Json> = plans
            .into_iter()
            .map(|(goal, plan)| {
                Json::obj([
                    ("goal", Json::Str(goal)),
                    // Pipelines never race (stages feed each other) and a
                    // statically refuted script routes nothing: both are
                    // `null` plans.
                    ("plan", plan.map_or(Json::Null, |p| p.to_json())),
                ])
            })
            .collect();
        actual.insert(name, Json::Arr(goals));
    }
    let actual = Json::Obj(actual);

    if std::env::var("QSMT_BLESS").is_ok() {
        std::fs::write(snapshot_path(), actual.pretty()).expect("write snapshot");
        eprintln!("blessed {}", snapshot_path());
        return;
    }

    let expected_text = std::fs::read_to_string(snapshot_path()).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run `QSMT_BLESS=1 cargo test --test portfolio_corpus` \
             to generate it",
            snapshot_path()
        )
    });
    let expected = parse(&expected_text).expect("snapshot is valid JSON");
    if actual != expected {
        let actual_pretty = actual.pretty();
        let expected_pretty = expected.pretty();
        for (a, e) in actual_pretty.lines().zip(expected_pretty.lines()) {
            if a != e {
                eprintln!("- {e}\n+ {a}");
            }
        }
        panic!(
            "portfolio routing snapshot drifted; if the change is intentional run \
             `QSMT_BLESS=1 cargo test --test portfolio_corpus` and commit the result"
        );
    }
}

/// Racing a portfolio must never change a script's verdict: when no
/// member validates, the race falls back to the routed primary member's
/// answer, so the portfolio's sat/unsat status has to agree with the
/// plain single-strategy solve of the same script. Along the way the
/// corpus must exercise both sides of the routing crossover — at least
/// one script won by exact enumeration and at least one by an annealer.
/// Only goals exact decomposition leaves race, and in the corpus those
/// are the dense `str.indexof` one-hots, which the default portfolio's
/// classical member answers; the portfolio without it races them on
/// either side of the crossover.
#[test]
fn corpus_verdicts_are_portfolio_invariant_and_both_crossover_sides_win() {
    let dir = benchmarks_dir();
    let solver = StringSolver::with_defaults().with_seed(7);

    let mut winners: Vec<String> = Vec::new();
    for (name, portfolio) in corpus_files().into_iter().flat_map(|name| {
        [qsmt::default_portfolio(), qsmt::Portfolio::new()].map(|p| (name.clone(), p))
    }) {
        let src = std::fs::read_to_string(format!("{dir}/{name}")).expect("read benchmark");
        let script = Script::parse(&src).unwrap_or_else(|e| panic!("{name}: parse error: {e}"));
        let solo_opts = SolveOptions {
            absint: true,
            ..SolveOptions::default()
        };
        let raced_opts = SolveOptions {
            portfolio: Some(&portfolio),
            ..solo_opts
        };
        let raced = script
            .run(&solver, &raced_opts)
            .unwrap_or_else(|e| panic!("{name}: portfolio solve failed: {e}"));
        let solo = script
            .run(&solver, &solo_opts)
            .unwrap_or_else(|e| panic!("{name}: solo solve failed: {e}"));
        assert_eq!(
            raced.outcome.status.to_string(),
            solo.outcome.status.to_string(),
            "{name}: portfolio verdict diverged from the single routed strategy"
        );
        for report in &raced.goals {
            for solve in &report.solves {
                if let Some(p) = &solve.portfolio {
                    assert_eq!(
                        p.members.iter().filter(|m| m.outcome == "won").count(),
                        1,
                        "{name}: a race must settle on exactly one winner"
                    );
                    winners.push(p.winner.clone());
                }
            }
        }
    }

    assert!(
        winners.iter().any(|w| w == "exact"),
        "no corpus script was won by exact enumeration (winners: {winners:?})"
    );
    assert!(
        winners.iter().any(|w| w == "sa"),
        "no corpus script was won by an annealer (winners: {winners:?})"
    );
}
