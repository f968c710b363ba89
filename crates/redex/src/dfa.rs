//! Deterministic finite automata: subset construction, Hopcroft
//! minimization, and product intersection.
//!
//! The paper's introduction motivates QUBO solving by the cost of
//! classical automata methods: "automata-based techniques can suffer from
//! the high computational cost of operations like automata intersection"
//! (§1). This module implements that classical machinery for real — the
//! crossover benches and the `automata_vs_qubo` example use it as the
//! faithful classical comparator for regex-conjunction constraints.
//!
//! DFAs here are complete over an explicit alphabet (a dead state absorbs
//! missing transitions) with dense transition tables.

use crate::nfa::StateSet;
use crate::{Nfa, Regex};
use std::collections::HashMap;

/// A complete DFA over an explicit alphabet.
///
/// State 0 is the start state. Transitions are a dense
/// `num_states × alphabet.len()` table.
#[derive(Debug, Clone)]
pub struct Dfa {
    alphabet: Vec<char>,
    /// `transitions[s * alphabet.len() + c]` = successor of state `s` on
    /// the `c`-th alphabet character.
    transitions: Vec<u32>,
    accepting: Vec<bool>,
}

impl Dfa {
    /// Determinizes an NFA over `alphabet` via subset construction.
    /// States are numbered in order of discovery, breadth first, each
    /// state's successors in alphabet order.
    pub fn from_nfa(nfa: &Nfa, alphabet: &[char]) -> Self {
        assert!(!alphabet.is_empty(), "alphabet must be nonempty");
        // Classes are numbered by first appearance in the alphabet, so
        // stepping them in order discovers successors in the order a
        // per-character loop would.
        let classes = nfa.classes(alphabet);
        let start = nfa.start_set();
        let mut index: HashMap<StateSet, u32> = HashMap::new();
        index.insert(start.clone(), 0);
        let mut order: Vec<StateSet> = vec![start];
        let mut transitions: Vec<u32> = Vec::new();
        let mut succ = vec![0u32; classes.len()];
        let mut next = StateSet::empty(nfa.num_states());
        let mut cursor = 0usize;
        while cursor < order.len() {
            for (k, id) in succ.iter_mut().enumerate() {
                classes.step(&order[cursor], k, &mut next);
                *id = match index.get(&next) {
                    Some(&id) => id,
                    None => {
                        let id = order.len() as u32;
                        index.insert(next.clone(), id);
                        order.push(next.clone());
                        id
                    }
                };
            }
            transitions.extend(classes.of.iter().map(|&k| succ[k]));
            cursor += 1;
        }
        let accepting = order.iter().map(|s| nfa.is_accepting(s)).collect();
        Self {
            alphabet: alphabet.to_vec(),
            transitions,
            accepting,
        }
    }

    /// Compiles a regex directly (Thompson NFA + subset construction).
    pub fn compile(re: &Regex, alphabet: &[char]) -> Self {
        Self::from_nfa(&Nfa::compile(re), alphabet)
    }

    /// Number of DFA states (including any dead state).
    pub fn num_states(&self) -> usize {
        self.accepting.len()
    }

    /// The alphabet this DFA is complete over.
    pub fn alphabet(&self) -> &[char] {
        &self.alphabet
    }

    #[inline]
    fn char_index(&self, c: char) -> Option<usize> {
        self.alphabet.iter().position(|&a| a == c)
    }

    /// Runs the DFA on an input (anchored match). Characters outside the
    /// alphabet reject.
    pub fn matches(&self, input: &str) -> bool {
        let k = self.alphabet.len();
        let mut state = 0u32;
        for c in input.chars() {
            let Some(ci) = self.char_index(c) else {
                return false;
            };
            state = self.transitions[state as usize * k + ci];
        }
        self.accepting[state as usize]
    }

    /// Product-construction intersection: accepts exactly the strings both
    /// DFAs accept. The state count can be up to `|A|·|B|` — the blow-up
    /// the paper's §1 refers to.
    ///
    /// # Panics
    /// Panics when the alphabets differ.
    pub fn intersect(&self, other: &Dfa) -> Dfa {
        assert_eq!(
            self.alphabet, other.alphabet,
            "intersection requires identical alphabets"
        );
        let k = self.alphabet.len();
        let mut index: HashMap<(u32, u32), u32> = HashMap::new();
        let mut order: Vec<(u32, u32)> = vec![(0, 0)];
        index.insert((0, 0), 0);
        let mut transitions = Vec::new();
        let mut cursor = 0usize;
        while cursor < order.len() {
            let (a, b) = order[cursor];
            for ci in 0..k {
                let na = self.transitions[a as usize * k + ci];
                let nb = other.transitions[b as usize * k + ci];
                let id = match index.get(&(na, nb)) {
                    Some(&id) => id,
                    None => {
                        let id = order.len() as u32;
                        index.insert((na, nb), id);
                        order.push((na, nb));
                        id
                    }
                };
                transitions.push(id);
            }
            cursor += 1;
        }
        let accepting = order
            .iter()
            .map(|&(a, b)| self.accepting[a as usize] && other.accepting[b as usize])
            .collect();
        Dfa {
            alphabet: self.alphabet.clone(),
            transitions,
            accepting,
        }
    }

    /// Hopcroft-style minimization (implemented as iterative partition
    /// refinement, Moore's algorithm — O(k·n²) worst case, ample for the
    /// sizes here). Unreachable states are already absent by construction.
    pub fn minimize(&self) -> Dfa {
        let n = self.num_states();
        let k = self.alphabet.len();
        // Initial partition: accepting vs non-accepting.
        let mut class: Vec<u32> = self.accepting.iter().map(|&a| u32::from(a)).collect();
        let mut num_classes = 2;
        loop {
            // Signature of a state: (class, classes of successors).
            let mut signature_index: HashMap<(u32, Vec<u32>), u32> = HashMap::new();
            let mut next_class = vec![0u32; n];
            for s in 0..n {
                let succ: Vec<u32> = (0..k)
                    .map(|ci| class[self.transitions[s * k + ci] as usize])
                    .collect();
                let key = (class[s], succ);
                let next_id = signature_index.len() as u32;
                let id = *signature_index.entry(key).or_insert(next_id);
                next_class[s] = id;
            }
            let new_count = signature_index.len();
            if new_count == num_classes {
                break;
            }
            num_classes = new_count;
            class = next_class;
        }
        // Rebuild with one state per class; make the start's class state 0.
        let start_class = class[0];
        let mut remap = vec![u32::MAX; num_classes];
        remap[start_class as usize] = 0;
        let mut next_id = 1u32;
        for &c in &class {
            if remap[c as usize] == u32::MAX {
                remap[c as usize] = next_id;
                next_id += 1;
            }
        }
        let mut transitions = vec![0u32; num_classes * k];
        let mut accepting = vec![false; num_classes];
        for s in 0..n {
            let ms = remap[class[s] as usize];
            accepting[ms as usize] = self.accepting[s];
            for ci in 0..k {
                transitions[ms as usize * k + ci] =
                    remap[class[self.transitions[s * k + ci] as usize] as usize];
            }
        }
        Dfa {
            alphabet: self.alphabet.clone(),
            transitions,
            accepting,
        }
    }

    /// Complement over the same alphabet: accepts exactly the strings
    /// (over the alphabet) this DFA rejects. Completeness of the
    /// transition table makes this a pure accept-flag flip.
    pub fn complement(&self) -> Dfa {
        Dfa {
            alphabet: self.alphabet.clone(),
            transitions: self.transitions.clone(),
            accepting: self.accepting.iter().map(|&a| !a).collect(),
        }
    }

    /// Difference `self \ other`: strings this DFA accepts and the other
    /// rejects.
    ///
    /// # Panics
    /// Panics when the alphabets differ.
    pub fn difference(&self, other: &Dfa) -> Dfa {
        self.intersect(&other.complement())
    }

    /// Language equivalence over the shared alphabet, decided via
    /// symmetric-difference emptiness.
    ///
    /// # Panics
    /// Panics when the alphabets differ.
    pub fn equivalent(&self, other: &Dfa) -> bool {
        self.difference(other).is_empty() && other.difference(self).is_empty()
    }

    /// Whether the DFA's language (restricted to the alphabet) is empty.
    pub fn is_empty(&self) -> bool {
        // BFS for any reachable accepting state.
        let k = self.alphabet.len();
        let mut seen = vec![false; self.num_states()];
        let mut stack = vec![0u32];
        seen[0] = true;
        while let Some(s) = stack.pop() {
            if self.accepting[s as usize] {
                return false;
            }
            for ci in 0..k {
                let t = self.transitions[s as usize * k + ci];
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    stack.push(t);
                }
            }
        }
        true
    }

    /// Counts accepted strings of exactly `len` characters by dynamic
    /// programming over the (deterministic) state graph — O(len · states ·
    /// |Σ|), typically far faster than the NFA-set DP in
    /// [`crate::count_matches`] once the DFA is built.
    pub fn count_matches(&self, len: usize) -> u128 {
        let k = self.alphabet.len();
        let n = self.num_states();
        // paths[s]: number of strings of the remaining length accepted
        // from state s.
        let mut paths: Vec<u128> = self.accepting.iter().map(|&a| u128::from(a)).collect();
        for _ in 0..len {
            let mut next = vec![0u128; n];
            for s in 0..n {
                for ci in 0..k {
                    next[s] += paths[self.transitions[s * k + ci] as usize];
                }
            }
            paths = next;
        }
        paths[0]
    }

    /// The lexicographically-first accepted string of exactly `len`
    /// characters, if any (the classical automata-based *solver* for
    /// fixed-length generation queries).
    pub fn first_match(&self, len: usize) -> Option<String> {
        let k = self.alphabet.len();
        // can_finish[j][s]: state s can reach acceptance in exactly j steps.
        let mut can = vec![vec![false; self.num_states()]; len + 1];
        for (s, &a) in self.accepting.iter().enumerate() {
            can[0][s] = a;
        }
        for j in 1..=len {
            for s in 0..self.num_states() {
                can[j][s] = (0..k).any(|ci| can[j - 1][self.transitions[s * k + ci] as usize]);
            }
        }
        if !can[len][0] {
            return None;
        }
        let mut out = String::with_capacity(len);
        let mut state = 0usize;
        for j in (1..=len).rev() {
            let ci = (0..k)
                .find(|&ci| can[j - 1][self.transitions[state * k + ci] as usize])
                .expect("reachability established above");
            out.push(self.alphabet[ci]);
            state = self.transitions[state * k + ci] as usize;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lowercase_ascii, parse};

    fn dfa(pattern: &str) -> Dfa {
        Dfa::compile(&parse(pattern).unwrap(), &lowercase_ascii())
    }

    #[test]
    fn dfa_agrees_with_nfa_on_sample_strings() {
        for pattern in ["a[bc]+", "(ab|ba)*", "a?b{2,3}c", "x|y|z"] {
            let re = parse(pattern).unwrap();
            let nfa = Nfa::compile(&re);
            let d = Dfa::from_nfa(&nfa, &lowercase_ascii());
            for s in [
                "", "a", "ab", "abc", "abcbb", "abba", "bb", "xbb", "abbc", "z",
            ] {
                assert_eq!(
                    d.matches(s),
                    nfa.matches(s),
                    "disagreement on {s:?} for /{pattern}/"
                );
            }
        }
    }

    #[test]
    fn states_are_numbered_in_breadth_first_discovery_order() {
        // 0 = start, 1 = after `a`, 2 = dead (first met on `b`),
        // 3 = after `a[bc]`; successors in alphabet order.
        let d = Dfa::compile(&parse("a[bc]+").unwrap(), &['a', 'b', 'c']);
        assert_eq!(d.transitions, vec![1, 2, 2, 2, 3, 3, 2, 2, 2, 2, 3, 3]);
        assert_eq!(d.accepting, vec![false, false, false, true]);
    }

    #[test]
    fn characters_outside_alphabet_reject() {
        let d = dfa("a+");
        assert!(!d.matches("A"));
        assert!(!d.matches("a!"));
    }

    #[test]
    fn intersection_is_conjunction_of_languages() {
        let a = dfa("a[a-z]+"); // starts with a, length ≥ 2
        let b = dfa("[a-z]+z"); // ends with z
        let both = a.intersect(&b);
        assert!(both.matches("az"));
        assert!(both.matches("aqqz"));
        assert!(!both.matches("bz"));
        assert!(!both.matches("ab"));
    }

    #[test]
    fn intersection_state_count_can_multiply() {
        // Divisibility-style languages blow up under intersection: the
        // §1 cost the paper cites.
        let a = dfa("(aa)*"); // even length (over 'a')
        let b = dfa("(aaa)*"); // length divisible by 3
        let both = a.intersect(&b).minimize();
        // a^n accepted iff 6 | n.
        assert!(both.matches(""));
        assert!(both.matches(&"a".repeat(6)));
        assert!(!both.matches(&"a".repeat(2)));
        assert!(!both.matches(&"a".repeat(3)));
        assert!(both.num_states() >= 6, "mod-6 counting needs ≥ 6 states");
    }

    #[test]
    fn minimization_preserves_language_and_shrinks() {
        let d = dfa("(ab|ab)+"); // redundant alternation
        let m = d.minimize();
        assert!(m.num_states() <= d.num_states());
        for s in ["", "ab", "abab", "aba", "ba"] {
            assert_eq!(d.matches(s), m.matches(s));
        }
    }

    #[test]
    fn emptiness_check() {
        let a = dfa("a+");
        let b = dfa("b+");
        assert!(!a.is_empty());
        assert!(a.intersect(&b).is_empty(), "a+ ∩ b+ = ∅");
    }

    #[test]
    fn complement_flips_membership() {
        let d = dfa("a[bc]+");
        let c = d.complement();
        for s in ["", "a", "ab", "abc", "zz", "abb"] {
            assert_ne!(d.matches(s), c.matches(s), "{s:?}");
        }
        // Double complement is the original language.
        assert!(d.equivalent(&c.complement()));
    }

    #[test]
    fn difference_removes_the_other_language() {
        let all = dfa("[ab]+");
        let only_a = dfa("a+");
        let has_b = all.difference(&only_a);
        assert!(has_b.matches("ab") && has_b.matches("b"));
        assert!(!has_b.matches("aa") && !has_b.matches(""));
    }

    #[test]
    fn equivalence_detects_same_language_different_syntax() {
        let a = dfa("(ab|ab)+");
        let b = dfa("ab(ab)*");
        assert!(a.equivalent(&b));
        assert!(!a.equivalent(&dfa("(ab)*")));
        // Minimization preserves equivalence.
        assert!(a.minimize().equivalent(&b));
    }

    #[test]
    fn desugared_bounded_repetition_is_equivalent_to_manual_expansion() {
        let a = dfa("a{2,4}");
        let b = dfa("aa|aaa|aaaa");
        assert!(a.equivalent(&b));
    }

    #[test]
    fn dfa_counting_agrees_with_nfa_counting() {
        use crate::count_matches as nfa_count;
        let alphabet = lowercase_ascii();
        for pattern in ["a[bc]+", "(ab|ba)*", "x{1,3}y", "[a-z]+"] {
            let re = parse(pattern).unwrap();
            let d = Dfa::compile(&re, &alphabet);
            for len in 0..=5 {
                assert_eq!(
                    d.count_matches(len),
                    nfa_count(&re, len, &alphabet),
                    "/{pattern}/ at {len}"
                );
            }
        }
    }

    #[test]
    fn first_match_is_lexicographically_first() {
        let d = dfa("a[bc]+");
        assert_eq!(d.first_match(3), Some("abb".to_string()));
        assert_eq!(d.first_match(1), None);
        let e = dfa("[cb]x");
        assert_eq!(e.first_match(2), Some("bx".to_string()));
    }

    #[test]
    fn first_match_on_intersection_solves_conjunctions_classically() {
        let both = dfa("a[a-z]+").intersect(&dfa("[a-z]+z"));
        let hit = both.first_match(4).expect("satisfiable");
        assert!(hit.starts_with('a') && hit.ends_with('z'));
        assert_eq!(hit, "aaaz");
    }
}
