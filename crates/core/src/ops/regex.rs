//! §4.11 Regex matching: generate a fixed-length string matching a
//! pattern.

use crate::encode::{bit_index, char_to_bits, BITS_PER_CHAR};
use crate::error::ConstraintError;
use crate::ops::DEFAULT_STRENGTH;
use crate::problem::{DecodeScheme, EncodedProblem};
use crate::COMPONENT_MAX_VARS;
use qsmt_qubo::{PenaltyBuilder, QuboModel, Var};
use qsmt_redex::{parse, positional_sets, printable_ascii, Regex};

/// The regex-matching encoder (paper §4.11).
///
/// The pattern is expanded into a per-position plan for the requested
/// length: a literal at a position uses the full-strength character
/// objective (±A per bit); a character class *superposes* all its members
/// with coefficients `q_{i,j} / |chars|` — "equal and shared preference"
/// in the paper's words. A `+` after a literal extends the literal; after
/// a class, the class (paper's expansion rule).
///
/// The paper supports literals, classes, and plus. This encoder also
/// accepts the future-work extensions (`*`, `?`, `.`, alternation,
/// groups): positions are planned from the NFA's exact per-position
/// character marginals ([`qsmt_redex::positional_sets`]), which coincide
/// with the paper's plan on its subset.
///
/// **Exact classes.** Superposing a class's members averages their bit
/// patterns, so a bit on which members disagree can get zero weight and
/// float free; the paper's ground set can then hold characters outside
/// the class (`[bd]` admits `` ` `` and `f`). Each position therefore
/// takes one of three encodings, decided from the superposition's ground
/// set `G` and the position's planned set `C`:
///
/// * **`G ⊆ C`: the paper's superposition, unchanged.** This covers
///   literals, classes whose members differ in one bit (Table 1's
///   `a[bc]+`), ranges whose per-bit majority lands inside the range
///   (`[r-t]` → `r`) and `re.allchar`, which fixes every bit to `` ` ``.
/// * **`|C| = 2`: tied bits, no ancilla.** Bits on which both members
///   agree get the literal's ±A terms. The first disagreeing bit `r` is
///   the reference, and every other disagreeing bit `x` is tied to it by
///   `A(x − r)²` when the two carry the same value within each member, or
///   `A(x + r − 1)²` when they carry opposite values. The ground set is
///   exactly the two members.
/// * **`|C| = k ≥ 3`: one-hot selectors.** Ancillas `y₁…y_k` (one per
///   member) get `P(Σy − 1)²`, agreeing bits get ±A, and each
///   disagreeing bit `b` is tied to the selectors of the members whose
///   bit `b` is 1 by `T·(x_b + Σ_{m∈S_b} y_m − 2·x_b·Σ_{m∈S_b} y_m)`, with
///   `T = A` and `P = A·(d + 1)` for `d` disagreeing bits. Under one hot
///   selector the tie is `T·(x_b ⊕ bit_b(m))`; two hot selectors cost `P`,
///   more than the `T·d` the ties can return, so the ground set is
///   exactly the class. Positions whose `k + d` exceeds
///   [`COMPONENT_MAX_VARS`] keep the
///   superposition.
///
/// Character bits come first (`7·len`), then every selector block in
/// position order; decoding reads only the character bits.
#[derive(Debug, Clone)]
pub struct RegexMatch {
    pattern: String,
    len: usize,
    strength: f64,
    alphabet: Vec<char>,
}

impl RegexMatch {
    /// Generates a `len`-character string matching `pattern`.
    pub fn new(pattern: impl Into<String>, len: usize) -> Self {
        Self {
            pattern: pattern.into(),
            len,
            strength: DEFAULT_STRENGTH,
            alphabet: printable_ascii(),
        }
    }

    /// Overrides the penalty strength `A`.
    pub fn with_strength(mut self, a: f64) -> Self {
        assert!(a > 0.0, "strength must be positive");
        self.strength = a;
        self
    }

    /// Restricts the alphabet used for positional planning. Characters
    /// the pattern names itself join it when no match of the requested
    /// length exists without them (see [`RegexMatch::plan`]).
    pub fn with_alphabet(mut self, alphabet: Vec<char>) -> Self {
        assert!(!alphabet.is_empty(), "alphabet must be nonempty");
        self.alphabet = alphabet;
        self
    }

    /// The parsed pattern.
    ///
    /// # Errors
    /// Returns the syntax error for malformed patterns.
    pub fn regex(&self) -> Result<Regex, ConstraintError> {
        Ok(parse(&self.pattern)?)
    }

    /// The per-position character plan for the requested length.
    ///
    /// Plans over the alphabet first. A match may need a character the
    /// pattern names outside it (a control character, say); the plan
    /// then adds the pattern's literal and class characters, so only a
    /// length the pattern cannot match at all is unsatisfiable.
    ///
    /// # Errors
    /// Fails on syntax errors or when no match of this length exists.
    pub fn plan(&self) -> Result<Vec<Vec<char>>, ConstraintError> {
        let re = self.regex()?;
        positional_sets(&re, self.len, &self.alphabet)
            .or_else(|| {
                let mut named = Vec::new();
                named_chars(&re, &mut named);
                let mut alphabet = self.alphabet.clone();
                for c in named {
                    if !alphabet.contains(&c) {
                        alphabet.push(c);
                    }
                }
                positional_sets(&re, self.len, &alphabet)
            })
            .ok_or_else(|| ConstraintError::RegexUnsatisfiable {
                pattern: self.pattern.clone(),
                len: self.len,
            })
    }

    /// Compiles to QUBO form.
    ///
    /// # Errors
    /// Fails on syntax errors, unsatisfiable lengths, or non-ASCII
    /// alphabet members.
    pub fn encode(&self) -> Result<EncodedProblem, ConstraintError> {
        let plan = self.plan()?;
        let a = self.strength;
        let mut qubo = QuboModel::new(self.len * BITS_PER_CHAR);
        for (pos, chars) in plan.iter().enumerate() {
            let members: Vec<[u8; BITS_PER_CHAR]> = chars
                .iter()
                .map(|&c| char_to_bits(c))
                .collect::<Result<_, _>>()?;
            encode_position(&mut qubo, pos, chars, &members, a);
        }
        Ok(EncodedProblem {
            qubo,
            decode: DecodeScheme::AsciiString { len: self.len },
            name: "regex-match",
            description: format!(
                "generate a {}-character string matching /{}/",
                self.len, self.pattern
            ),
        })
    }
}

/// Appends the characters `re` names: its literals and the members of
/// its classes. (`.` and negated classes range over printable ASCII.)
fn named_chars(re: &Regex, out: &mut Vec<char>) {
    match re {
        Regex::Literal(c) => out.push(*c),
        Regex::Class(class) if !class.is_negated() => out.extend(class.members()),
        Regex::Concat(parts) | Regex::Alt(parts) => {
            parts.iter().for_each(|p| named_chars(p, out));
        }
        Regex::Plus(inner) | Regex::Star(inner) | Regex::Opt(inner) => named_chars(inner, out),
        Regex::Empty | Regex::Dot | Regex::Class(_) => {}
    }
}

/// Writes one position's terms: the paper's superposition where its
/// ground set lies inside the class, tied bits for a two-member class,
/// one-hot selectors (appended after the model's variables) for a larger
/// one. See [`RegexMatch`] for the three cases.
fn encode_position(
    qubo: &mut QuboModel,
    pos: usize,
    chars: &[char],
    members: &[[u8; BITS_PER_CHAR]],
    a: f64,
) {
    // The superposition's per-bit weights, summed in the order the paper's
    // encoder adds them, so a kept position is byte-identical.
    let share = a / members.len() as f64;
    let mut weights = [0.0f64; BITS_PER_CHAR];
    for bits in members {
        for (w, &b) in weights.iter_mut().zip(bits) {
            *w += if b == 1 { -share } else { share };
        }
    }
    let disagreeing: Vec<usize> = (0..BITS_PER_CHAR)
        .filter(|&i| members.iter().any(|m| m[i] != members[0][i]))
        .collect();
    let d = disagreeing.len();
    let k = members.len();
    let oversized = k > 2 && k + d > COMPONENT_MAX_VARS;
    if oversized || superposition_ground_set_inside(&weights, share, chars) {
        for (i, &w) in weights.iter().enumerate() {
            qubo.add_linear(bit_index(pos, i), w);
        }
        return;
    }
    for i in (0..BITS_PER_CHAR).filter(|i| !disagreeing.contains(i)) {
        qubo.add_linear(bit_index(pos, i), if members[0][i] == 1 { -a } else { a });
    }
    if k == 2 {
        let r = disagreeing[0];
        for &x in &disagreeing[1..] {
            let (xi, ri) = (bit_index(pos, x), bit_index(pos, r));
            if members[0][x] == members[0][r] {
                PenaltyBuilder::new(qubo).bits_equal(xi, ri, a);
            } else {
                PenaltyBuilder::new(qubo).bits_differ(xi, ri, a);
            }
        }
        return;
    }
    let first = qubo.num_vars();
    qubo.grow_to(first + k);
    let selectors: Vec<Var> = (first..first + k).map(|v| v as Var).collect();
    PenaltyBuilder::new(qubo).exactly_one(&selectors, a * (d + 1) as f64);
    for &b in &disagreeing {
        let x = bit_index(pos, b);
        qubo.add_linear(x, a);
        for (m, &y) in members.iter().zip(&selectors) {
            if m[b] == 1 {
                qubo.add_linear(y, a);
                qubo.add_quadratic(x, y, -2.0 * a);
            }
        }
    }
}

/// True when every character the superposed weights admit lies in
/// `chars`. Each weight is an integer multiple of `share`; one below half
/// a share is a rounding residual of a balanced bit, which the ground set
/// leaves free (the exact solver's tolerance does too), and any other
/// weight fixes its bit by its sign.
fn superposition_ground_set_inside(
    weights: &[f64; BITS_PER_CHAR],
    share: f64,
    chars: &[char],
) -> bool {
    let bit = |i: usize| 1u8 << (BITS_PER_CHAR - 1 - i);
    let free: Vec<usize> = (0..BITS_PER_CHAR)
        .filter(|&i| weights[i].abs() < share / 2.0)
        .collect();
    let base = (0..BITS_PER_CHAR)
        .filter(|&i| weights[i] <= -share / 2.0)
        .fold(0u8, |acc, i| acc | bit(i));
    (0u32..1 << free.len()).all(|mask| {
        let code = free
            .iter()
            .enumerate()
            .filter(|&(f, _)| mask & 1 << f != 0)
            .fold(base, |acc, (_, &i)| acc | bit(i));
        chars.contains(&(code as char))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::test_support::exact_texts;
    use qsmt_redex::Nfa;

    #[test]
    fn literal_pattern_reduces_to_equality() {
        let p = RegexMatch::new("ab", 2).encode().unwrap();
        assert_eq!(exact_texts(&p), vec!["ab".to_string()]);
    }

    #[test]
    fn paper_plan_for_a_bc_plus() {
        let plan = RegexMatch::new("a[bc]+", 3).plan().unwrap();
        assert_eq!(plan, vec![vec!['a'], vec!['b', 'c'], vec!['b', 'c']]);
    }

    #[test]
    fn class_superposition_admits_members() {
        let p = RegexMatch::new("a[bc]", 2).encode().unwrap();
        let texts = exact_texts(&p);
        assert!(texts.contains(&"ab".to_string()));
        assert!(texts.contains(&"ac".to_string()));
    }

    #[test]
    fn class_superposition_exact_when_members_differ_in_one_bit() {
        // 'b' (1100010) and 'c' (1100011) differ only in the last bit, so
        // the superposed encoding's ground set is exactly {b, c}.
        let p = RegexMatch::new("a[bc]", 2).encode().unwrap();
        assert_eq!(exact_texts(&p).len(), 2);
    }

    #[test]
    fn two_member_class_ground_set_is_exact() {
        // 'b' (1100010) and 'd' (1100100) differ in two bits; averaging
        // would free both and admit '`' (1100000) and 'f' (1100110), so
        // the second disagreeing bit is tied to the first instead and
        // the ground set is exactly the class.
        let p = RegexMatch::new("a[bd]", 2).encode().unwrap();
        assert_eq!(p.num_vars(), 14, "a two-member class needs no ancilla");
        let mut texts = exact_texts(&p);
        texts.sort();
        assert_eq!(texts, vec!["ab".to_string(), "ad".to_string()]);
        let nfa = Nfa::compile(&parse("a[bd]").unwrap());
        let valid: Vec<&String> = texts.iter().filter(|t| nfa.matches(t)).collect();
        assert_eq!(valid.len(), 2);
    }

    #[test]
    fn larger_classes_get_one_hot_selectors() {
        // [c-f] superposes to 11001?? with both low bits free, which
        // admits 'g'; four selectors (one per member) after the 7
        // character bits make the ground set exactly {c, d, e, f}.
        let p = RegexMatch::new("[c-f]", 1).encode().unwrap();
        assert_eq!(p.num_vars(), 7 + 4);
        let mut texts = exact_texts(&p);
        texts.sort();
        assert_eq!(texts, vec!["c", "d", "e", "f"]);
    }

    #[test]
    fn sound_superpositions_keep_the_papers_terms() {
        // [r-t]'s per-bit majority is 'r', inside the range; '.' fixes
        // every bit to '`'. Both keep the paper's weights, no ancilla.
        for (pattern, ground) in [("[r-t]", "r"), (".", "`")] {
            let p = RegexMatch::new(pattern, 1).encode().unwrap();
            assert_eq!(p.num_vars(), 7, "{pattern}");
            assert_eq!(exact_texts(&p), vec![ground.to_string()], "{pattern}");
        }
    }

    #[test]
    fn plus_after_literal_extends_literal() {
        let plan = RegexMatch::new("ab+", 3).plan().unwrap();
        assert_eq!(plan, vec![vec!['a'], vec!['b'], vec!['b']]);
        let p = RegexMatch::new("ab+", 3).encode().unwrap();
        assert_eq!(exact_texts(&p), vec!["abb".to_string()]);
    }

    #[test]
    fn extension_alternation_plans_unions() {
        let plan = RegexMatch::new("ab|cd", 2).plan().unwrap();
        assert_eq!(plan, vec![vec!['a', 'c'], vec!['b', 'd']]);
    }

    #[test]
    fn extension_star_and_optional() {
        let plan = RegexMatch::new("ab*", 3).plan().unwrap();
        assert_eq!(plan, vec![vec!['a'], vec!['b'], vec!['b']]);
        let plan2 = RegexMatch::new("ax?b", 2).plan().unwrap();
        assert_eq!(plan2, vec![vec!['a'], vec!['b']]);
    }

    #[test]
    fn unsatisfiable_length_is_an_error() {
        assert!(matches!(
            RegexMatch::new("abc", 2).encode(),
            Err(ConstraintError::RegexUnsatisfiable { .. })
        ));
        assert!(matches!(
            RegexMatch::new("a[bc]+", 1).encode(),
            Err(ConstraintError::RegexUnsatisfiable { .. })
        ));
    }

    #[test]
    fn syntax_error_is_reported() {
        assert!(matches!(
            RegexMatch::new("a[", 2).encode(),
            Err(ConstraintError::RegexSyntax(_))
        ));
    }

    #[test]
    fn characters_the_pattern_names_outside_the_alphabet_are_planned() {
        // A tab is not printable, but "\t" is what the pattern asks for:
        // the length is satisfiable, so the plan must not be refuted.
        let p = RegexMatch::new("\t[ab]", 2).encode().unwrap();
        let mut texts = exact_texts(&p);
        texts.sort();
        assert_eq!(texts, vec!["\ta".to_string(), "\tb".to_string()]);
        assert!(matches!(
            RegexMatch::new("\t", 2).encode(),
            Err(ConstraintError::RegexUnsatisfiable { .. })
        ));
    }

    #[test]
    fn restricted_alphabet_narrows_plan() {
        let plan = RegexMatch::new("a.", 2)
            .with_alphabet(vec!['a', 'b'])
            .plan()
            .unwrap();
        assert_eq!(plan, vec![vec!['a'], vec!['a', 'b']]);
    }
}
