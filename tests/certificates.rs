//! Certificates for the exact encodings of character classes (§4.11)
//! and of `str.indexof` (§4.4): on every small case, the encoding's
//! exact ground set is checked against the operation's semantics, and
//! `qsmt-lint` must find no error in it. End-to-end, every generated
//! regex shape ends in a component draw whose reads all validate.

use qsmt::core::ops::regex::RegexMatch;
use qsmt::core::{EncodedProblem, COMPONENT_MAX_VARS};
use qsmt::smtlib::{apply_tightenings, Goal};
use qsmt::{
    Constraint, ExactSolver, LintConfig, SatStatus, Script, Solution, SolveOptions, StringSolver,
};

/// Error diagnostics `qsmt-lint` reports on the encoded model.
fn lint_errors(p: &EncodedProblem) -> usize {
    qsmt::lint::lint_qubo(&p.qubo, &LintConfig::default()).errors()
}

/// Every ground state of the encoded model, decoded.
fn ground_set(p: &EncodedProblem) -> Vec<Solution> {
    let (_, states) = ExactSolver::new().ground_states(&p.qubo);
    states
        .iter()
        .map(|s| p.decode_state(s).expect("ground state decodes"))
        .collect()
}

/// The characters of a one-character regex's exact ground set, sorted,
/// after checking the model's largest component and its lint.
fn class_ground_chars(pattern: &str) -> (Vec<char>, EncodedProblem) {
    let p = RegexMatch::new(pattern, 1).encode().expect("encodes");
    let largest = p.qubo.components().iter().map(Vec::len).max().unwrap_or(0);
    assert!(
        largest <= COMPONENT_MAX_VARS,
        "/{pattern}/: a {largest}-variable component"
    );
    assert_eq!(lint_errors(&p), 0, "/{pattern}/ lints with errors");
    let mut chars: Vec<char> = ground_set(&p)
        .iter()
        .map(|s| {
            let t = s.as_text().expect("text");
            assert_eq!(t.len(), 1, "/{pattern}/: {t:?}");
            t.chars().next().expect("one char")
        })
        .collect();
    chars.sort_unstable();
    chars.dedup();
    (chars, p)
}

/// The gap from the ground energy to the lowest state that `wrong`
/// accepts, by enumerating every state of the model.
fn gap_to(p: &EncodedProblem, wrong: impl Fn(&[u8]) -> bool) -> f64 {
    let n = p.num_vars();
    let (mut ground, mut lowest_wrong) = (f64::INFINITY, f64::INFINITY);
    let mut state = vec![0u8; n];
    for mask in 0u32..1 << n {
        for (i, bit) in state.iter_mut().enumerate() {
            *bit = (mask >> i & 1) as u8;
        }
        let e = p.qubo.energy(&state);
        ground = ground.min(e);
        if wrong(&state) {
            lowest_wrong = lowest_wrong.min(e);
        }
    }
    lowest_wrong - ground
}

/// Checks a class position's gap: `A` (= 1) where the encoding ties
/// bits or adds selectors, at least `A/|C|` where it keeps the paper's
/// superposition.
fn assert_class_gap(pattern: &str, p: &EncodedProblem, class: &[char]) {
    // The first character's 7 bits, MSB first, outside the class.
    let gap = gap_to(p, |s| {
        let code = s[..7].iter().fold(0u8, |acc, &b| acc << 1 | b);
        !class.contains(&(code as char))
    });
    if p.num_vars() > 7 || p.qubo.num_interactions() > 0 {
        assert!((gap - 1.0).abs() < 1e-9, "{pattern}: gap {gap}");
    } else {
        assert!(
            gap >= 1.0 / class.len() as f64 - 1e-9,
            "{pattern}: gap {gap}"
        );
    }
}

fn letters() -> impl Iterator<Item = char> {
    'a'..='z'
}

#[test]
fn every_letter_pair_grounds_exactly_to_its_two_members() {
    for x in letters() {
        for y in letters().filter(|&y| y > x) {
            let pattern = format!("[{x}{y}]");
            let (ground, p) = class_ground_chars(&pattern);
            assert_eq!(ground, vec![x, y], "{pattern}");
            assert_class_gap(&pattern, &p, &[x, y]);
        }
    }
}

#[test]
fn every_letter_range_grounds_inside_itself() {
    for width in 3u8..=6 {
        for lo in b'a'..=b'z' + 1 - width {
            let hi = lo + width - 1;
            let class: Vec<char> = (lo..=hi).map(char::from).collect();
            let pattern = format!("[{}-{}]", lo as char, hi as char);
            let (ground, p) = class_ground_chars(&pattern);
            assert!(!ground.is_empty(), "{pattern}");
            assert!(
                ground.iter().all(|c| class.contains(c)),
                "{pattern}: {ground:?}"
            );
            // A range whose superposition already grounds inside it keeps
            // the paper's 7 variables (sound, possibly incomplete); one
            // that needed selectors grounds to the whole range.
            if p.num_vars() > 7 {
                assert_eq!(ground, class, "{pattern}");
            }
            assert_class_gap(&pattern, &p, &class);
        }
    }
}

#[test]
fn allchar_grounds_to_one_printable_character() {
    let (ground, p) = class_ground_chars(".");
    assert_eq!(p.num_vars(), 7, "the paper's superposition is kept");
    assert_eq!(ground, vec!['`']);
    let printable: Vec<char> = (0x20u8..=0x7e).map(char::from).collect();
    assert_class_gap(".", &p, &printable);
}

#[test]
fn an_optional_literal_with_a_range_grounds_inside_their_union() {
    // `l?[lo-hi]*` at length 1 is the literal or one range letter: the
    // class the generator's third regex shape puts after its `re.allchar`.
    for width in 3u8..=6 {
        for lo in (b'a'..=b'z' + 1 - width).step_by(3) {
            let hi = lo + width - 1;
            for lit in letters().step_by(2) {
                let mut class: Vec<char> = (lo..=hi).map(char::from).collect();
                class.push(lit);
                class.sort_unstable();
                class.dedup();
                let pattern = format!("{lit}?[{}-{}]*", lo as char, hi as char);
                let (ground, p) = class_ground_chars(&pattern);
                assert!(!ground.is_empty(), "{pattern}");
                assert!(
                    ground.iter().all(|c| class.contains(c)),
                    "{pattern}: {ground:?}"
                );
                if p.num_vars() > 7 {
                    assert_eq!(ground, class, "{pattern}");
                }
            }
        }
    }
}

/// A small deterministic generator for the random letters below.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n
    }

    fn letter(&mut self) -> char {
        (b'a' + self.below(26) as u8) as char
    }

    /// A range of 3–6 letters, as the benchmark generator draws them.
    fn range(&mut self) -> (char, char) {
        let width = 3 + self.below(4) as u8;
        let lo = b'a' + self.below(26 - u64::from(width)) as u8;
        (lo as char, (lo + width - 1) as char)
    }
}

/// The single goal `qsmt solve` would run for `src`: compiled, then
/// tightened by the abstract interpreter.
fn tightened_goal(src: &str) -> Constraint {
    let script = Script::parse(src).expect("parses");
    let analysis = script.absint();
    let (goals, _) = apply_tightenings(script.compile().expect("compiles"), &analysis.analysis);
    match goals.as_slice() {
        [Goal::StringConstraint { constraint, .. }] => constraint.clone(),
        other => panic!("one string goal expected, got {other:?}"),
    }
}

#[test]
fn generated_regex_shapes_draw_only_valid_reads() {
    let mut rng = Lcg(7);
    for len in 3..=10 {
        for round in 0..4 {
            let (a, b) = rng.range();
            let (c, d) = rng.range();
            let shapes = [
                format!(
                    "(re.++ (str.to_re \"{}\") (re.+ (re.union (str.to_re \"{}\") (str.to_re \"{}\"))))",
                    rng.letter(),
                    rng.letter(),
                    rng.letter()
                ),
                format!("(re.++ (re.range \"{a}\" \"{b}\") (re.* (re.range \"{c}\" \"{d}\")))"),
                format!(
                    "(re.++ (str.to_re \"{}\") re.allchar (re.opt (str.to_re \"{}\")) \
                     (re.* (re.range \"{c}\" \"{d}\")))",
                    rng.letter(),
                    rng.letter()
                ),
            ];
            for re in shapes {
                let src = format!(
                    "(set-logic QF_S)\n(declare-const s String)\n(assert (str.in_re s {re}))\n\
                     (assert (= (str.len s) {len}))\n(check-sat)\n"
                );
                let goal = tightened_goal(&src);
                let out = StringSolver::with_defaults()
                    .with_seed(round)
                    .solve(&goal)
                    .expect("solves");
                assert_eq!(out.report.sampling.sampler, "component-exact", "{src}");
                for sample in out.samples.iter() {
                    let solution = out.problem.decode_state(&sample.state).expect("decodes");
                    assert!(goal.validate(&solution), "{src}: read {solution}");
                }
            }
        }
    }
}

/// Checks the includes encoding of one haystack/needle pair: one ground
/// state, decoding to `str::find` (no index ↔ −1), and a clean lint.
/// With `gap`, also the gap to the lowest state that decodes to another
/// index, by enumerating every state: `D = A/(2·(count+1))` when the
/// needle occurs twice or more, `A/2` when once, at least `A/2` when
/// it is absent (`A` = 1).
fn check_indexof(haystack: &str, needle: &str, gap: bool) {
    let c = Constraint::Includes {
        haystack: haystack.into(),
        needle: needle.into(),
    };
    let p = c.encode().expect("encodes");
    let answer = haystack.find(needle);
    assert_eq!(
        ground_set(&p),
        vec![Solution::Index(answer)],
        "{haystack:?}/{needle:?}"
    );
    assert_eq!(
        lint_errors(&p),
        0,
        "{haystack:?}/{needle:?} lints with errors"
    );
    if !gap {
        return;
    }
    let gap = gap_to(&p, |s| {
        p.decode_state(s).expect("decodes") != Solution::Index(answer)
    });
    let starts = (haystack.len() + 1).saturating_sub(needle.len());
    let occurrences = (0..starts)
        .filter(|&i| haystack[i..].starts_with(needle))
        .count();
    let expected = match occurrences {
        0 => 0.5,
        1 => 0.5,
        _ => 1.0 / (2.0 * (starts + 1) as f64),
    };
    if occurrences == 0 {
        assert!(gap >= expected - 1e-9, "{haystack:?}/{needle:?}: gap {gap}");
    } else {
        assert!(
            (gap - expected).abs() < 1e-9,
            "{haystack:?}/{needle:?}: gap {gap}"
        );
    }
}

/// Every string over {a, b} of length `min..=max`.
fn ab_words(min: usize, max: usize) -> Vec<String> {
    let mut all = Vec::new();
    let mut frontier = vec![String::new()];
    for len in 0..=max {
        if len >= min {
            all.extend(frontier.iter().cloned());
        }
        frontier = frontier
            .iter()
            .flat_map(|w| [format!("{w}a"), format!("{w}b")])
            .collect();
    }
    all
}

#[test]
fn indexof_grounds_to_the_first_occurrence_or_minus_one() {
    let needles = ab_words(0, 4);
    // Every haystack of up to 7 letters over {a, b}, then random ones of
    // 8–12 letters, against every needle of up to 4: present, absent
    // and longer than the haystack. The gap is enumerated up to 6.
    let mut rng = Lcg(11);
    let mut haystacks = ab_words(0, 7);
    for _ in 0..24 {
        let len = 8 + rng.below(5) as usize;
        haystacks.push(
            (0..len)
                .map(|_| ['a', 'b'][rng.below(2) as usize])
                .collect(),
        );
    }
    for haystack in &haystacks {
        for needle in &needles {
            check_indexof(haystack, needle, haystack.len() <= 6);
        }
    }
    // Random lowercase haystacks with a present, an absent-by-chance and
    // a too-long needle each.
    for _ in 0..64 {
        let len = rng.below(13) as usize;
        let haystack: String = (0..len).map(|_| rng.letter()).collect();
        let k = rng.below(5) as usize;
        let at = rng.below(len.saturating_sub(k) as u64 + 1) as usize;
        let present = haystack.get(at..at + k).unwrap_or_default().to_string();
        let random: String = (0..k).map(|_| rng.letter()).collect();
        let longer: String = (0..=len).map(|_| rng.letter()).collect();
        for needle in [present, random, longer] {
            check_indexof(&haystack, &needle, false);
        }
    }
}

#[test]
fn the_d_v_or_l_plus_family_decides_at_every_length_and_seed() {
    // `v` and `l` differ in three bits: the paper's superposition left
    // 8 characters per position, 2 of them valid.
    for len in 4..=8 {
        let script = Script::parse(&format!(
            "(set-logic QF_S)\n(declare-const s String)\n\
             (assert (str.in_re s (re.++ (str.to_re \"d\") \
             (re.+ (re.union (str.to_re \"v\") (str.to_re \"l\"))))))\n\
             (assert (= (str.len s) {len}))\n(check-sat)\n"
        ))
        .expect("parses");
        for seed in 0..20 {
            let run = script
                .run(
                    &StringSolver::with_defaults().with_seed(seed),
                    &SolveOptions::default(),
                )
                .expect("runs");
            assert_eq!(run.outcome.status, SatStatus::Sat, "len {len}, seed {seed}");
        }
    }
}

#[test]
fn a_class_with_selectors_conjoined_with_a_prefix_is_sat() {
    // Both parts share the character bits; the regex part's selectors
    // are renumbered after them, so the conjunction merges.
    let script = Script::parse(
        "(set-logic QF_S)\n(declare-const s String)\n\
         (assert (str.in_re s (re.++ (re.range \"c\" \"f\") (re.* (re.range \"n\" \"q\")))))\n\
         (assert (str.prefixof \"d\" s))\n(assert (= (str.len s) 4))\n(check-sat)\n",
    )
    .expect("parses");
    for absint in [true, false] {
        for seed in 0..4 {
            let opts = SolveOptions {
                absint,
                ..SolveOptions::default()
            };
            let run = script
                .run(&StringSolver::with_defaults().with_seed(seed), &opts)
                .expect("runs");
            assert_eq!(
                run.outcome.status,
                SatStatus::Sat,
                "absint {absint}, seed {seed}"
            );
        }
    }
}
