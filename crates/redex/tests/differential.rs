//! Differential tests for the regex kernel: every automaton-based answer
//! (`positional_sets`, `enumerate_matches`, `count_matches`,
//! `Nfa::matches`, `Dfa::matches`) against brute force over a reference
//! matcher that recurses over the `Regex` AST and shares no code with
//! the automata.
//!
//! Patterns are generated from a fixed seed: literals over {a, b, c},
//! classes, negated classes, `.`, alternation, concatenation, `*`, `+`,
//! `?` and `{m,n}`. Strings run over an alphabet that adds `~` (which
//! every negated class and `.` admit) and a control character (which
//! none does), at every length from 0 to 5.

use qsmt_redex::{count_matches, enumerate_matches, parse, positional_sets, Dfa, Nfa, Regex};
use std::collections::BTreeSet;

const SIGMA: &[char] = &['a', 'b', 'c', '~', '\u{1}'];
const MAX_LEN: usize = 5;

/// The end positions of every match of `re` that starts at `i` in `s`.
fn ends(re: &Regex, s: &[char], i: usize) -> BTreeSet<usize> {
    // One character at `i`, when it passes `ok`.
    let one = |ok: &dyn Fn(char) -> bool| -> BTreeSet<usize> {
        s.get(i)
            .filter(|&&c| ok(c))
            .map(|_| i + 1)
            .into_iter()
            .collect()
    };
    match re {
        Regex::Empty => BTreeSet::from([i]),
        Regex::Literal(l) => one(&|c| c == *l),
        Regex::Class(cs) => one(&|c| cs.members().contains(&c)),
        Regex::Dot => one(&|c| (' '..='~').contains(&c)),
        Regex::Concat(parts) => parts.iter().fold(BTreeSet::from([i]), |at, p| {
            at.iter().flat_map(|&j| ends(p, s, j)).collect()
        }),
        Regex::Alt(parts) => parts.iter().flat_map(|p| ends(p, s, i)).collect(),
        Regex::Opt(inner) => {
            let mut out = ends(inner, s, i);
            out.insert(i);
            out
        }
        Regex::Star(inner) => repeat(inner, s, BTreeSet::from([i])),
        Regex::Plus(inner) => repeat(inner, s, ends(inner, s, i)),
    }
}

/// Closes `reached` under further matches of `inner`.
fn repeat(inner: &Regex, s: &[char], mut reached: BTreeSet<usize>) -> BTreeSet<usize> {
    let mut todo: Vec<usize> = reached.iter().copied().collect();
    while let Some(j) = todo.pop() {
        for k in ends(inner, s, j) {
            if reached.insert(k) {
                todo.push(k);
            }
        }
    }
    reached
}

fn reference_matches(re: &Regex, s: &[char]) -> bool {
    ends(re, s, 0).contains(&s.len())
}

/// Every string of exactly `len` characters over `SIGMA`, in
/// lexicographic order of alphabet index.
fn strings(len: usize) -> Vec<Vec<char>> {
    let mut out = vec![Vec::new()];
    for _ in 0..len {
        out = out
            .into_iter()
            .flat_map(|s| {
                SIGMA.iter().map(move |&c| {
                    let mut t = s.clone();
                    t.push(c);
                    t
                })
            })
            .collect();
    }
    out
}

/// Checks every kernel answer for `pattern` against brute force.
fn check(pattern: &str) {
    let re = parse(pattern).unwrap_or_else(|e| panic!("/{pattern}/: {e}"));
    let nfa = Nfa::compile(&re);
    let dfa = Dfa::compile(&re, SIGMA);
    for len in 0..=MAX_LEN {
        let mut language: Vec<String> = Vec::new();
        for s in strings(len) {
            let text: String = s.iter().collect();
            let expected = reference_matches(&re, &s);
            assert_eq!(nfa.matches(&text), expected, "Nfa /{pattern}/ on {text:?}");
            assert_eq!(dfa.matches(&text), expected, "Dfa /{pattern}/ on {text:?}");
            if expected {
                language.push(text);
            }
        }
        assert_eq!(
            count_matches(&re, len, SIGMA),
            language.len() as u128,
            "count /{pattern}/ at {len}"
        );
        assert_eq!(
            enumerate_matches(&re, len, SIGMA, usize::MAX),
            language,
            "enumeration /{pattern}/ at {len}"
        );
        let cut = language.len() / 2;
        assert_eq!(
            enumerate_matches(&re, len, SIGMA, cut),
            language[..cut],
            "enumeration /{pattern}/ at {len} under limit {cut}"
        );
        let marginals = (!language.is_empty()).then(|| {
            (0..len)
                .map(|i| {
                    SIGMA
                        .iter()
                        .copied()
                        .filter(|&c| language.iter().any(|s| s.chars().nth(i) == Some(c)))
                        .collect::<Vec<char>>()
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(
            positional_sets(&re, len, SIGMA),
            marginals,
            "positional sets /{pattern}/ at {len}"
        );
    }
}

/// SplitMix64: a fixed, dependency-free pattern stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    fn pick(&mut self, from: &[&str]) -> String {
        from[self.below(from.len() as u64) as usize].to_string()
    }
}

fn gen_alt(rng: &mut Rng, depth: u32) -> String {
    let branches: Vec<String> = (0..1 + rng.below(2))
        .map(|_| gen_concat(rng, depth))
        .collect();
    branches.join("|")
}

fn gen_concat(rng: &mut Rng, depth: u32) -> String {
    (0..1 + rng.below(3))
        .map(|_| {
            let atom = match rng.below(if depth == 0 { 4 } else { 5 }) {
                0 => rng.pick(&["a", "b", "c"]),
                1 => rng.pick(&["[ab]", "[bc]", "[a-c]", "[c]", "[ca]"]),
                2 => rng.pick(&["[^a]", "[^bc]", "[^a-c]"]),
                3 => ".".to_string(),
                _ => format!("({})", gen_alt(rng, depth - 1)),
            };
            let suffix = match rng.below(8) {
                0 => "*".to_string(),
                1 => "+".to_string(),
                2 => "?".to_string(),
                3 => {
                    let m = rng.below(3);
                    format!("{{{m},{}}}", m + rng.below(3))
                }
                _ => String::new(),
            };
            atom + &suffix
        })
        .collect()
}

#[test]
fn reference_matcher_reads_the_syntax_as_documented() {
    let m =
        |p: &str, s: &str| reference_matches(&parse(p).unwrap(), &s.chars().collect::<Vec<_>>());
    assert!(m("a[bc]+", "abcb") && !m("a[bc]+", "a"));
    assert!(m("(ab|c)*", "") && m("(ab|c)*", "abcab") && !m("(ab|c)*", "ba"));
    assert!(m("[^a].", "~~") && !m("[^a].", "a~") && !m(".", "\u{1}"));
    assert!(m("b{1,2}", "bb") && !m("b{1,2}", "bbb"));
}

#[test]
fn generated_patterns_agree_with_the_reference_matcher() {
    let mut rng = Rng(27);
    for _ in 0..200 {
        check(&gen_alt(&mut rng, 2));
    }
}

#[test]
fn automata_above_64_states_agree_with_the_reference_matcher() {
    // Alternatives are built in order, so the short branches after a
    // long one own states above 64: their sets and closures span words.
    for pattern in [
        "c{70}|(ab|ba)[^a]?c*",
        "a{66}|b{66}|(~|a)+b?",
        "[a-c]{0,130}|.~",
        "(ab|c){1,40}~?",
    ] {
        let states = Nfa::compile(&parse(pattern).unwrap()).num_states();
        assert!(states > 64, "/{pattern}/ has {states} states");
        check(pattern);
    }
}
