//! Every minimal triggering example in `docs/LINTS.md` must actually
//! trigger its documented code — this test keeps the catalogue honest.

use qsmt_lint::{lint_qubo, LintConfig};
use qsmt_qubo::{PenaltyBuilder, QuboModel};

fn codes(m: &QuboModel) -> Vec<&'static str> {
    lint_qubo(m, &LintConfig::default()).codes()
}

#[test]
fn doc_examples_trigger_as_documented() {
    let mut m = QuboModel::new(3);
    PenaltyBuilder::new(&mut m)
        .exactly_one(&[0, 1, 2], 1.0)
        .bit_target(0, true, 5.0)
        .bit_target(1, true, 5.0);
    assert!(codes(&m).contains(&"penalty-gap"), "pg {:?}", codes(&m));

    let mut m = QuboModel::new(2);
    m.add_quadratic(0, 1, 2.0);
    m.add_linear(0, 0.5);
    m.add_linear(1, 0.5);
    assert!(codes(&m).contains(&"one-hot-weak"), "ohw {:?}", codes(&m));

    let mut m = QuboModel::new(3);
    m.add_linear(0, -1.0);
    m.add_linear(1, 1.0);
    assert!(codes(&m).contains(&"dead-variable"), "dv {:?}", codes(&m));

    let mut m = QuboModel::new(2);
    m.add_linear(0, -1.0);
    m.add_linear(1, 2.0);
    assert!(
        codes(&m).contains(&"presolve-fixable"),
        "pf {:?}",
        codes(&m)
    );

    let mut m = QuboModel::new(2);
    m.add_linear(0, 1000.0);
    m.add_linear(1, 0.5);
    let c = codes(&m);
    assert!(c.contains(&"dynamic-range"), "dr {c:?}");
    assert!(c.contains(&"precision-loss"), "pl {c:?}");

    let mut m = QuboModel::new(4);
    m.add_quadratic(0, 1, -1.0);
    m.add_quadratic(2, 3, -1.0);
    assert!(
        codes(&m).contains(&"disconnected-components"),
        "dc {:?}",
        codes(&m)
    );

    let mut m = QuboModel::new(3);
    m.add_linear(0, -1.0);
    m.add_linear(1, -1.0);
    m.add_quadratic(0, 2, 0.5);
    m.add_quadratic(1, 2, 0.5);
    assert!(
        codes(&m).contains(&"degenerate-symmetry"),
        "ds {:?}",
        codes(&m)
    );
}
