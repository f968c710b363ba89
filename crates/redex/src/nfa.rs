//! Thompson NFA construction and bit-parallel subset simulation.
//!
//! A set of NFA states is a [`StateSet`]: one bit per state in
//! ⌈states/64⌉ words. [`Nfa::compile`] precomputes every state's
//! ε-closure, so one simulation step ORs the closures of the targets of
//! the consuming edges that fire. Callers that step over a fixed
//! alphabet split it once into [`Classes`] — characters that satisfy
//! the same edge predicates — and step once per class rather than once
//! per character.

use crate::{ClassSet, Regex};

/// A set of NFA states: bit `s % 64` of word `s / 64` holds state `s`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct StateSet(Vec<u64>);

impl StateSet {
    /// The empty set over `states` states.
    pub(crate) fn empty(states: usize) -> Self {
        Self(vec![0; states.div_ceil(64)])
    }

    pub(crate) fn contains(&self, s: usize) -> bool {
        self.0[s / 64] >> (s % 64) & 1 == 1
    }

    pub(crate) fn insert(&mut self, s: usize) {
        self.0[s / 64] |= 1 << (s % 64);
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    pub(crate) fn clear(&mut self) {
        self.0.fill(0);
    }

    pub(crate) fn union_with(&mut self, other: &StateSet) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
    }

    pub(crate) fn intersect_with(&mut self, other: &StateSet) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a &= b;
        }
    }

    pub(crate) fn intersects(&self, other: &StateSet) -> bool {
        self.0.iter().zip(&other.0).any(|(a, b)| a & b != 0)
    }

    /// The members, in increasing order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(word, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros() as usize)?;
                rest &= rest - 1;
                Some(word * 64 + bit)
            })
        })
    }
}

/// A character predicate on an NFA edge.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CharPred {
    Lit(char),
    Class(ClassSet),
    Dot,
}

impl CharPred {
    fn matches(&self, c: char) -> bool {
        match self {
            CharPred::Lit(l) => *l == c,
            CharPred::Class(cs) => cs.contains(c),
            CharPred::Dot => (' '..='~').contains(&c),
        }
    }
}

/// A consuming edge.
#[derive(Debug, Clone)]
struct Move {
    from: usize,
    pred: CharPred,
    to: usize,
}

/// A Thompson NFA with a single start and single accept state.
#[derive(Debug, Clone)]
pub struct Nfa {
    states: usize,
    start: usize,
    accept: usize,
    /// Consuming edges, grouped by source state: those leaving `s` are
    /// `moves[moves_from[s]..moves_from[s + 1]]`.
    moves: Vec<Move>,
    moves_from: Vec<usize>,
    /// The ε-closure of state `s` is
    /// `closure[closure_from[s]..closure_from[s + 1]]`: its nonzero
    /// words as `(word index, bits)` pairs. Keeping only nonzero words
    /// keeps the table linear in a long literal's length.
    closure: Vec<(usize, u64)>,
    closure_from: Vec<usize>,
}

/// Thompson construction's working state: ε-edges and consuming edges.
struct Builder {
    states: usize,
    eps: Vec<(usize, usize)>,
    moves: Vec<Move>,
}

impl Builder {
    fn new_state(&mut self) -> usize {
        self.states += 1;
        self.states - 1
    }

    fn eps(&mut self, from: usize, to: usize) {
        self.eps.push((from, to));
    }

    fn consume(&mut self, from: usize, pred: CharPred, to: usize) {
        self.moves.push(Move { from, pred, to });
    }

    fn build(&mut self, re: &Regex, from: usize, to: usize) {
        match re {
            Regex::Empty => self.eps(from, to),
            Regex::Literal(c) => self.consume(from, CharPred::Lit(*c), to),
            Regex::Class(cs) => self.consume(from, CharPred::Class(cs.clone()), to),
            Regex::Dot => self.consume(from, CharPred::Dot, to),
            Regex::Concat(parts) => {
                let mut cur = from;
                for (i, p) in parts.iter().enumerate() {
                    let next = if i + 1 == parts.len() {
                        to
                    } else {
                        self.new_state()
                    };
                    self.build(p, cur, next);
                    cur = next;
                }
                if parts.is_empty() {
                    self.eps(from, to);
                }
            }
            Regex::Alt(parts) => {
                for p in parts {
                    self.build(p, from, to);
                }
            }
            Regex::Plus(inner) => {
                // from -> s -inner-> t -> to, with t -> s loop
                let s = self.new_state();
                let t = self.new_state();
                self.eps(from, s);
                self.build(inner, s, t);
                self.eps(t, s);
                self.eps(t, to);
            }
            Regex::Star(inner) => {
                let s = self.new_state();
                let t = self.new_state();
                self.eps(from, s);
                self.eps(from, to);
                self.build(inner, s, t);
                self.eps(t, s);
                self.eps(t, to);
            }
            Regex::Opt(inner) => {
                self.eps(from, to);
                self.build(inner, from, to);
            }
        }
    }
}

/// Range starts of items sorted by source state: those from state `s`
/// are `start[s]..start[s + 1]`.
fn offsets(states: usize, sources: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut start = vec![0; states + 1];
    for s in sources {
        start[s + 1] += 1;
    }
    for s in 0..states {
        start[s + 1] += start[s];
    }
    start
}

impl Nfa {
    /// Compiles a regex into an NFA via Thompson's construction.
    pub fn compile(re: &Regex) -> Self {
        let mut b = Builder {
            states: 0,
            eps: Vec::new(),
            moves: Vec::new(),
        };
        let start = b.new_state();
        let accept = b.new_state();
        b.build(re, start, accept);

        b.eps.sort_unstable();
        let eps_from = offsets(b.states, b.eps.iter().map(|&(from, _)| from));
        b.moves.sort_by_key(|m| m.from);
        let moves_from = offsets(b.states, b.moves.iter().map(|m| m.from));

        // One depth-first search per state, marking the closure in a
        // scratch set and recording which of its words it touched.
        let mut closure = Vec::new();
        let mut closure_from = Vec::with_capacity(b.states + 1);
        let mut scratch = StateSet::empty(b.states);
        let mut touched = Vec::new();
        let mut todo = Vec::new();
        for s in 0..b.states {
            closure_from.push(closure.len());
            todo.push(s);
            while let Some(t) = todo.pop() {
                if scratch.contains(t) {
                    continue;
                }
                if scratch.0[t / 64] == 0 {
                    touched.push(t / 64);
                }
                scratch.insert(t);
                todo.extend(b.eps[eps_from[t]..eps_from[t + 1]].iter().map(|&(_, u)| u));
            }
            for word in touched.drain(..) {
                closure.push((word, std::mem::take(&mut scratch.0[word])));
            }
        }
        closure_from.push(closure.len());
        Nfa {
            states: b.states,
            start,
            accept,
            moves: b.moves,
            moves_from,
            closure,
            closure_from,
        }
    }

    /// Number of NFA states.
    pub fn num_states(&self) -> usize {
        self.states
    }

    /// The ε-closure of state `s`, as `(word index, bits)` pairs.
    fn closure_of(&self, s: usize) -> &[(usize, u64)] {
        &self.closure[self.closure_from[s]..self.closure_from[s + 1]]
    }

    /// Adds the ε-closure of state `s` to `set`.
    fn add_closure(&self, set: &mut StateSet, s: usize) {
        for &(word, bits) in self.closure_of(s) {
            set.0[word] |= bits;
        }
    }

    /// The start state set (ε-closed).
    pub(crate) fn start_set(&self) -> StateSet {
        let mut set = StateSet::empty(self.states);
        self.add_closure(&mut set, self.start);
        set
    }

    /// True when the set contains the accept state.
    pub(crate) fn is_accepting(&self, set: &StateSet) -> bool {
        set.contains(self.accept)
    }

    /// Whole-string match (anchored at both ends, as in the paper's
    /// generation semantics).
    pub fn matches(&self, input: &str) -> bool {
        let mut set = self.start_set();
        let mut next = StateSet::empty(self.states);
        for c in input.chars() {
            next.clear();
            for s in set.iter() {
                for m in &self.moves[self.moves_from[s]..self.moves_from[s + 1]] {
                    if m.pred.matches(c) {
                        self.add_closure(&mut next, m.to);
                    }
                }
            }
            if next.is_empty() {
                return false;
            }
            std::mem::swap(&mut set, &mut next);
        }
        self.is_accepting(&set)
    }

    /// For each state, can it reach the accept state consuming exactly `k`
    /// characters (of any kind)? Returns the sets `reach[k]` for
    /// `k ∈ 0..=max_len`. Used by positional analysis and enumeration to
    /// prune.
    pub(crate) fn acceptance_table(&self, max_len: usize) -> Vec<StateSet> {
        let n = self.states;
        // A row holds the states whose closure meets `ahead`: the accept
        // state for row 0, then the sources of the consuming edges into
        // the previous row.
        let mut ahead = StateSet::empty(n);
        ahead.insert(self.accept);
        let mut table: Vec<StateSet> = Vec::with_capacity(max_len + 1);
        loop {
            let mut reach = StateSet::empty(n);
            for s in 0..n {
                if self.closure_meets(s, &ahead) {
                    reach.insert(s);
                }
            }
            table.push(reach);
            if table.len() > max_len {
                return table;
            }
            let prev = table.last().expect("nonempty");
            ahead.clear();
            for m in &self.moves {
                if prev.contains(m.to) {
                    ahead.insert(m.from);
                }
            }
        }
    }

    /// True when the ε-closure of state `s` meets `set`.
    fn closure_meets(&self, s: usize, set: &StateSet) -> bool {
        self.closure_of(s)
            .iter()
            .any(|&(word, bits)| set.0[word] & bits != 0)
    }

    /// Splits `alphabet` into classes of characters that satisfy the
    /// same edge predicates, numbered in order of first appearance.
    pub(crate) fn classes(&self, alphabet: &[char]) -> Classes<'_> {
        // Partition refinement: split every class by each predicate in
        // turn, renumbering in alphabet order.
        let mut of = vec![0usize; alphabet.len()];
        let mut count = usize::from(!alphabet.is_empty());
        let mut split: Vec<[usize; 2]> = Vec::new();
        for m in &self.moves {
            if count == alphabet.len() {
                break;
            }
            split.clear();
            split.resize(count, [usize::MAX; 2]);
            count = 0;
            for (k, &c) in of.iter_mut().zip(alphabet) {
                let slot = &mut split[*k][usize::from(m.pred.matches(c))];
                if *slot == usize::MAX {
                    *slot = count;
                    count += 1;
                }
                *k = *slot;
            }
        }
        // Each class takes the edges its first member takes.
        let mut start = Vec::with_capacity(count + 1);
        let mut moves = Vec::new();
        for (&k, &c) in of.iter().zip(alphabet) {
            if k == start.len() {
                start.push(moves.len());
                moves.extend(
                    self.moves
                        .iter()
                        .filter(|m| m.pred.matches(c))
                        .map(|m| (m.from, m.to)),
                );
            }
        }
        start.push(moves.len());
        Classes {
            nfa: self,
            of,
            start,
            moves,
        }
    }
}

/// An alphabet split into classes of characters that lead every state
/// set to the same successor.
pub(crate) struct Classes<'a> {
    nfa: &'a Nfa,
    /// `of[i]`: the class of the alphabet's `i`-th character.
    pub(crate) of: Vec<usize>,
    /// `moves[start[k]..start[k + 1]]`: the `(from, to)` edges a
    /// character of class `k` takes.
    start: Vec<usize>,
    moves: Vec<(usize, usize)>,
}

impl<'a> Classes<'a> {
    /// The automaton the classes step.
    pub(crate) fn nfa(&self) -> &'a Nfa {
        self.nfa
    }

    /// Number of classes.
    pub(crate) fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// Writes to `out` the ε-closed set one character of class `k`
    /// leads `set` to.
    pub(crate) fn step(&self, set: &StateSet, k: usize, out: &mut StateSet) {
        out.clear();
        for &(from, to) in &self.moves[self.start[k]..self.start[k + 1]] {
            if set.contains(from) {
                self.nfa.add_closure(out, to);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn nfa(p: &str) -> Nfa {
        Nfa::compile(&parse(p).unwrap())
    }

    #[test]
    fn paper_example_semantics() {
        let n = nfa("a[tyz]+b");
        for good in ["atytyzb", "azb", "atyzb", "atb"] {
            assert!(n.matches(good), "{good} should match");
        }
        for bad in ["ab", "ab b", "atyz", "tyzb", "axb"] {
            assert!(!n.matches(bad), "{bad} should not match");
        }
    }

    #[test]
    fn anchored_matching() {
        let n = nfa("abc");
        assert!(n.matches("abc"));
        assert!(!n.matches("xabc"));
        assert!(!n.matches("abcx"));
    }

    #[test]
    fn star_and_opt() {
        let n = nfa("ab*c?");
        for good in ["a", "ab", "abbb", "ac", "abc", "abbc"] {
            assert!(n.matches(good), "{good}");
        }
        assert!(!n.matches("acc"));
        assert!(!n.matches(""));
    }

    #[test]
    fn alternation() {
        let n = nfa("cat|dog");
        assert!(n.matches("cat") && n.matches("dog"));
        assert!(!n.matches("cog"));
    }

    #[test]
    fn dot_matches_printables_only() {
        let n = nfa("a.c");
        assert!(n.matches("abc") && n.matches("a c"));
        assert!(!n.matches("a\nc"));
    }

    #[test]
    fn empty_regex_matches_only_empty() {
        let n = nfa("");
        assert!(n.matches(""));
        assert!(!n.matches("a"));
    }

    #[test]
    fn acceptance_table_counts_remaining_chars() {
        let n = nfa("ab");
        let table = n.acceptance_table(3);
        // start set can accept after exactly 2 chars
        let start = n.start_set();
        let can = |k: usize| start.intersects(&table[k]);
        assert!(!can(0));
        assert!(!can(1));
        assert!(can(2));
        assert!(!can(3));
    }

    #[test]
    fn acceptance_table_with_plus() {
        let n = nfa("a+");
        let table = n.acceptance_table(4);
        let start = n.start_set();
        let can = |k: usize| start.intersects(&table[k]);
        assert!(!can(0));
        assert!(can(1) && can(2) && can(4));
    }

    #[test]
    fn negated_class_in_nfa() {
        let n = nfa("[^a]b");
        assert!(n.matches("xb"));
        assert!(!n.matches("ab"));
    }

    #[test]
    fn a_long_literal_spans_several_words() {
        let lit: String = ('a'..='z').cycle().take(70).collect();
        let n = nfa(&lit);
        assert!(n.num_states() > 64);
        assert!(n.matches(&lit));
        assert!(!n.matches(&lit[..69]));
        assert!(!n.matches(&format!("{}b", &lit[..69])));
    }

    #[test]
    fn classes_group_characters_by_the_edges_they_take() {
        let n = nfa("a[bc]|b");
        let classes = n.classes(&['a', 'b', 'c', 'd', 'c']);
        // a, then b (both edges), then c (the class only), then d.
        assert_eq!(classes.of, vec![0, 1, 2, 3, 2]);
        assert_eq!(classes.len(), 4);
        let mut after_a = StateSet::empty(n.num_states());
        classes.step(&n.start_set(), 0, &mut after_a);
        let mut dead = StateSet::empty(n.num_states());
        classes.step(&n.start_set(), 3, &mut dead);
        assert!(!after_a.is_empty() && dead.is_empty());
    }
}
