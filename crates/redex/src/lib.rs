//! # qsmt-redex — from-scratch regular expression substrate
//!
//! The paper's regex-matching encoder (§4.11) needs a regex representation
//! (literals, character classes, `+`), and the classical baseline needs a
//! real matcher to verify and enumerate solutions. No external regex crate
//! is used; this crate implements the whole stack:
//!
//! * [`Regex`] — AST covering the paper's subset (literals, classes, plus)
//!   and the future-work extensions (`*`, `?`, `.`, alternation, groups,
//!   class ranges and negation);
//! * [`parse`] — a recursive-descent parser for the textual syntax;
//! * [`Nfa`] — Thompson construction with bit-parallel subset
//!   simulation;
//! * bounded-length **enumeration** and **positional analysis** used as
//!   the test oracle and by the QUBO encoder: for a fixed target length,
//!   which characters may appear at each position on some accepting path;
//! * [`Dfa`] — subset construction, minimization and product
//!   intersection, the classical automata comparator.
//!
//! **Bit-parallel simulation.** A set of NFA states is a bitset of
//! ⌈states/64⌉ `u64` words — one word for every regex the workload
//! generator writes. [`Nfa::compile`] precomputes each state's
//! ε-closure, so a step is a few word ORs. [`positional_sets`],
//! [`enumerate_matches`], [`count_matches`] and [`Dfa::from_nfa`] first
//! split their alphabet into classes of characters that satisfy the
//! same edge predicates and step once per class, not once per
//! character; nothing is allocated per (position, character). Outputs
//! keep the per-character semantics and order: positional sets list
//! characters in alphabet order, enumeration is depth-first in
//! alphabet order, and DFA states are numbered in discovery order.
//!
//! ```
//! use qsmt_redex::{parse, Nfa};
//!
//! let re = parse("a[bc]+").unwrap();
//! let nfa = Nfa::compile(&re);
//! assert!(nfa.matches("abcbb"));
//! assert!(!nfa.matches("a"));
//! ```

#![warn(missing_docs)]

mod ast;
mod dfa;
mod enumerate;
mod nfa;
mod parser;

pub use ast::{ClassSet, Regex};
pub use dfa::Dfa;
pub use enumerate::{count_matches, enumerate_matches, positional_sets};
pub use nfa::Nfa;
pub use parser::{parse, ParseError};

/// The default generation alphabet: printable ASCII (space through `~`).
pub fn printable_ascii() -> Vec<char> {
    (0x20u8..=0x7e).map(|b| b as char).collect()
}

/// The lowercase ASCII letters, a common restricted generation alphabet.
pub fn lowercase_ascii() -> Vec<char> {
    ('a'..='z').collect()
}
