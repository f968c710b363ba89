//! Bounded-length enumeration and positional analysis.
//!
//! These are the oracles behind the workspace's tests and the extended
//! regex encoder: [`enumerate_matches`] lists every string of an exact
//! length matching a regex (over a finite alphabet), and
//! [`positional_sets`] computes, per string position, the set of characters
//! that can appear there on *some* accepting path of that exact length.

use crate::nfa::{Classes, StateSet};
use crate::{Nfa, Regex};
use std::collections::HashMap;

/// Enumerates all strings of exactly `len` characters over `alphabet` that
/// match `re`, up to `limit` results (depth-first, lexicographic in
/// alphabet order). Used as a test oracle and by the classical baseline.
pub fn enumerate_matches(re: &Regex, len: usize, alphabet: &[char], limit: usize) -> Vec<String> {
    let nfa = Nfa::compile(re);
    let search = Search {
        nfa: &nfa,
        accept: nfa.acceptance_table(len),
        classes: nfa.classes(alphabet),
        alphabet,
        limit,
    };
    // One row of per-class successors for each position.
    let mut rows = vec![vec![StateSet::empty(nfa.num_states()); search.classes.len()]; len];
    let mut out = Vec::new();
    search.dfs(
        &nfa.start_set(),
        len,
        &mut rows,
        &mut String::with_capacity(len),
        &mut out,
    );
    out
}

/// The fixed inputs of [`enumerate_matches`]'s depth-first search.
struct Search<'a> {
    nfa: &'a Nfa,
    accept: Vec<StateSet>,
    classes: Classes<'a>,
    alphabet: &'a [char],
    limit: usize,
}

impl Search<'_> {
    fn dfs(
        &self,
        set: &StateSet,
        remaining: usize,
        rows: &mut [Vec<StateSet>],
        buf: &mut String,
        out: &mut Vec<String>,
    ) {
        if out.len() >= self.limit {
            return;
        }
        if remaining == 0 {
            if self.nfa.is_accepting(set) {
                out.push(buf.clone());
            }
            return;
        }
        // Prune: some live state must be able to finish in `remaining` chars.
        if !set.intersects(&self.accept[remaining]) {
            return;
        }
        let (next, deeper) = rows.split_first_mut().expect("one row per position");
        for (k, succ) in next.iter_mut().enumerate() {
            self.classes.step(set, k, succ);
        }
        for (&c, &k) in self.alphabet.iter().zip(&self.classes.of) {
            if !next[k].is_empty() {
                buf.push(c);
                self.dfs(&next[k], remaining - 1, deeper, buf, out);
                buf.pop();
            }
            if out.len() >= self.limit {
                return;
            }
        }
    }
}

/// For strings of exactly `len` characters over `alphabet`, computes the
/// per-position admissible character sets: `result[i]` contains `c` iff
/// some accepting path of length `len` has `c` at position `i`.
///
/// Returns `None` when the regex has no match of that length at all.
///
/// This is the *marginal* of the length-`len` language — the positional
/// view the paper's §4.11 encoder needs (a literal at a position shows up
/// as a singleton set; a character class as its member set). Each
/// position steps the live state set once per alphabet class, and lists
/// the admitted characters in alphabet order.
pub fn positional_sets(re: &Regex, len: usize, alphabet: &[char]) -> Option<Vec<Vec<char>>> {
    let nfa = Nfa::compile(re);
    let accept = nfa.acceptance_table(len);
    let classes = nfa.classes(alphabet);

    // `live`: states reachable after i characters along paths that can
    // still finish in len - i characters.
    let mut live = nfa.start_set();
    live.intersect_with(&accept[len]);
    if live.is_empty() {
        return None;
    }
    let mut next = StateSet::empty(nfa.num_states());
    let mut stepped = StateSet::empty(nfa.num_states());
    let mut admitted = vec![false; classes.len()];
    let mut sets: Vec<Vec<char>> = Vec::with_capacity(len);
    for i in 0..len {
        let finish = &accept[len - i - 1];
        next.clear();
        for (k, ok) in admitted.iter_mut().enumerate() {
            classes.step(&live, k, &mut stepped);
            stepped.intersect_with(finish);
            *ok = !stepped.is_empty();
            next.union_with(&stepped);
        }
        let allowed: Vec<char> = alphabet
            .iter()
            .zip(&classes.of)
            .filter_map(|(&c, &k)| admitted[k].then_some(c))
            .collect();
        if allowed.is_empty() {
            return None;
        }
        sets.push(allowed);
        std::mem::swap(&mut live, &mut next);
    }
    Some(sets)
}

/// Counts the strings of exactly `len` characters over `alphabet` that
/// match `re`, without enumerating them: dynamic programming over
/// on-the-fly determinized NFA state sets, memoized per `(set, remaining)`.
///
/// This is the search-space-size oracle the crossover bench (Bench S5)
/// reports: the classical blind solver must wade through `|Σ|^len`
/// candidates of which `count_matches` are accepting.
pub fn count_matches(re: &Regex, len: usize, alphabet: &[char]) -> u128 {
    let nfa = Nfa::compile(re);
    let classes = nfa.classes(alphabet);
    let mut sizes = vec![0u128; classes.len()];
    for &k in &classes.of {
        sizes[k] += 1;
    }
    // memo[r]: the count from each state set with r characters left.
    let mut memo: Vec<HashMap<StateSet, u128>> = vec![HashMap::new(); len + 1];

    fn go(
        classes: &Classes<'_>,
        sizes: &[u128],
        set: &StateSet,
        remaining: usize,
        memo: &mut [HashMap<StateSet, u128>],
    ) -> u128 {
        if remaining == 0 {
            return u128::from(classes.nfa().is_accepting(set));
        }
        if let Some(&v) = memo[remaining].get(set) {
            return v;
        }
        // Every character of a class leads to the same successor, so
        // each class is recursed into once, weighted by its size.
        let mut next = StateSet::empty(classes.nfa().num_states());
        let mut total = 0u128;
        for (k, &size) in sizes.iter().enumerate() {
            classes.step(set, k, &mut next);
            if !next.is_empty() {
                total += size * go(classes, sizes, &next, remaining - 1, memo);
            }
        }
        memo[remaining].insert(set.clone(), total);
        total
    }

    go(&classes, &sizes, &nfa.start_set(), len, &mut memo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lowercase_ascii, parse};

    #[test]
    fn enumerates_paper_regex_length_5() {
        let re = parse("a[bc]+").unwrap();
        let got = enumerate_matches(&re, 5, &lowercase_ascii(), 100);
        // a then 4 chars from {b, c}: 16 strings, all starting with 'a'.
        assert_eq!(got.len(), 16);
        assert!(got.contains(&"abcbb".to_string())); // the paper's output
        assert!(got
            .iter()
            .all(|s| s.starts_with('a') && s[1..].chars().all(|c| c == 'b' || c == 'c')));
    }

    #[test]
    fn enumeration_respects_limit() {
        let re = parse("[ab]+").unwrap();
        let got = enumerate_matches(&re, 10, &lowercase_ascii(), 7);
        assert_eq!(got.len(), 7);
    }

    #[test]
    fn impossible_length_enumerates_nothing() {
        let re = parse("abc").unwrap();
        assert!(enumerate_matches(&re, 2, &lowercase_ascii(), 10).is_empty());
        assert!(enumerate_matches(&re, 4, &lowercase_ascii(), 10).is_empty());
    }

    #[test]
    fn zero_length_enumeration() {
        let re = parse("a*").unwrap();
        assert_eq!(
            enumerate_matches(&re, 0, &lowercase_ascii(), 10),
            vec![String::new()]
        );
    }

    #[test]
    fn positional_sets_for_paper_regex() {
        let re = parse("a[bc]+").unwrap();
        let sets = positional_sets(&re, 3, &lowercase_ascii()).unwrap();
        assert_eq!(sets, vec![vec!['a'], vec!['b', 'c'], vec!['b', 'c']]);
    }

    #[test]
    fn positional_sets_with_alternation() {
        let re = parse("ab|cd").unwrap();
        let sets = positional_sets(&re, 2, &lowercase_ascii()).unwrap();
        assert_eq!(sets, vec![vec!['a', 'c'], vec!['b', 'd']]);
    }

    #[test]
    fn positional_sets_prune_dead_branches() {
        // Branch `x[yz]` can't fill length 3; only `p..` path survives.
        let re = parse("x[yz]|p[qr][st]").unwrap();
        let sets = positional_sets(&re, 3, &lowercase_ascii()).unwrap();
        assert_eq!(sets[0], vec!['p']);
        assert_eq!(sets[1], vec!['q', 'r']);
        assert_eq!(sets[2], vec!['s', 't']);
    }

    #[test]
    fn positional_sets_none_for_impossible_length() {
        let re = parse("ab").unwrap();
        assert!(positional_sets(&re, 3, &lowercase_ascii()).is_none());
        assert!(positional_sets(&re, 1, &lowercase_ascii()).is_none());
    }

    #[test]
    fn positional_sets_star_absorbs_length() {
        let re = parse("ab*").unwrap();
        let sets = positional_sets(&re, 4, &lowercase_ascii()).unwrap();
        assert_eq!(sets, vec![vec!['a'], vec!['b'], vec!['b'], vec!['b']]);
    }

    #[test]
    fn positional_marginals_can_overapproximate_language() {
        // (ab|ba): marginals are {a,b} × {a,b} but "aa" is not in the
        // language — positional encoding is a relaxation, which the tests
        // of the QUBO encoder must account for. Document the fact here.
        let re = parse("ab|ba").unwrap();
        let sets = positional_sets(&re, 2, &lowercase_ascii()).unwrap();
        assert_eq!(sets, vec![vec!['a', 'b'], vec!['a', 'b']]);
        let nfa = Nfa::compile(&re);
        assert!(!nfa.matches("aa"));
    }

    #[test]
    fn count_matches_agrees_with_enumeration() {
        for (pat, len) in [
            ("a[bc]+", 5usize),
            ("(a|b)c*d?", 3),
            ("x{1,3}y", 3),
            ("a*", 4),
        ] {
            let re = parse(pat).unwrap();
            let listed = enumerate_matches(&re, len, &lowercase_ascii(), 1_000_000).len() as u128;
            assert_eq!(
                count_matches(&re, len, &lowercase_ascii()),
                listed,
                "pattern {pat} length {len}"
            );
        }
    }

    #[test]
    fn count_matches_scales_without_enumeration() {
        // 26^10 ≈ 1.4e14 — enumeration is hopeless; counting is instant.
        let re = parse("[a-z]+").unwrap();
        assert_eq!(count_matches(&re, 10, &lowercase_ascii()), 26u128.pow(10));
        let half = parse("a[a-z]+").unwrap();
        assert_eq!(count_matches(&half, 10, &lowercase_ascii()), 26u128.pow(9));
    }

    #[test]
    fn count_matches_zero_for_impossible_lengths() {
        let re = parse("abc").unwrap();
        assert_eq!(count_matches(&re, 2, &lowercase_ascii()), 0);
        assert_eq!(count_matches(&re, 3, &lowercase_ascii()), 1);
    }

    #[test]
    fn every_enumerated_string_matches() {
        let re = parse("(a|b)c*d?").unwrap();
        let nfa = Nfa::compile(&re);
        for len in 0..=4 {
            for s in enumerate_matches(&re, len, &lowercase_ascii(), 1000) {
                assert!(nfa.matches(&s), "{s} must match");
                assert_eq!(s.chars().count(), len);
            }
        }
    }
}
