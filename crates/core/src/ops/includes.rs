//! §4.4 String includes: where in `T` does the substring `S` begin?

use crate::encode::char_to_bits;
use crate::error::ConstraintError;
use crate::ops::DEFAULT_STRENGTH;
use crate::problem::{DecodeScheme, EncodedProblem};
use qsmt_qubo::PenaltyBuilder;

/// The string-includes encoder (paper §4.4).
///
/// Binary variables are position indicators `x_i` for
/// `i = 0, 1, …, n − m` (`x_i = 1` ⇔ the substring starts at `i`).
/// Three terms build the QUBO:
///
/// * **match reward** (§4.4.2): `−A · Σ_i Σ_j δ(t_{i+j}, s_j) · x_i` — each
///   indicator's diagonal is rewarded per character it matches;
/// * **one-hot penalty** (§4.4.3, first term): `B · Σ_{i<j} x_i x_j`
///   discourages selecting more than one start;
/// * **first-match bias** (§4.4.3, second term): `C_i · δ(T[i:i+m], S) · x_i`
///   where `C_i` accumulates `+D` at every matching position, so later
///   full matches sit strictly above the first.
///
/// The paper leaves `B` and `D` open; the defaults here are
/// `B = 2·A·m` (no pair of rewards can out-pull one violation) and
/// `D = A/2` (keeps the first full match strictly below both later full
/// matches and the best `m−1`-character partial match). Both are
/// overridable, and the unit tests sweep them against the exact solver.
#[derive(Debug, Clone)]
pub struct Includes {
    haystack: String,
    needle: String,
    strength: f64,
    one_hot_b: Option<f64>,
    first_match_d: Option<f64>,
}

impl Includes {
    /// Asks where `needle` begins within `haystack`.
    pub fn new(haystack: impl Into<String>, needle: impl Into<String>) -> Self {
        Self {
            haystack: haystack.into(),
            needle: needle.into(),
            strength: DEFAULT_STRENGTH,
            one_hot_b: None,
            first_match_d: None,
        }
    }

    /// Overrides the reward strength `A`.
    pub fn with_strength(mut self, a: f64) -> Self {
        assert!(a > 0.0, "strength must be positive");
        self.strength = a;
        self
    }

    /// Overrides the one-hot penalty `B`.
    pub fn with_one_hot_penalty(mut self, b: f64) -> Self {
        self.one_hot_b = Some(b);
        self
    }

    /// Overrides the first-match increment `D`.
    pub fn with_first_match_increment(mut self, d: f64) -> Self {
        self.first_match_d = Some(d);
        self
    }

    /// The number of candidate start positions (`n − m + 1`).
    pub fn num_positions(&self) -> usize {
        self.haystack.len() - self.needle.len() + 1
    }

    /// Classical reference answer: the first index where the needle
    /// occurs, if any.
    pub fn expected_index(&self) -> Option<usize> {
        self.haystack.find(&self.needle)
    }

    /// Compiles to QUBO form.
    ///
    /// # Errors
    /// Fails for empty/oversized needles or non-ASCII input.
    pub fn encode(&self) -> Result<EncodedProblem, ConstraintError> {
        let n = self.haystack.len();
        let m = self.needle.len();
        if m == 0 {
            return Err(ConstraintError::EmptyArgument { what: "needle" });
        }
        if m > n {
            return Err(ConstraintError::SubstringTooLong {
                substring: m,
                total: n,
            });
        }
        for c in self.haystack.chars().chain(self.needle.chars()) {
            char_to_bits(c)?;
        }
        let a = self.strength;
        let b = self.one_hot_b.unwrap_or(2.0 * a * m as f64);
        let d = self.first_match_d.unwrap_or(a / 2.0);
        let t: Vec<char> = self.haystack.chars().collect();
        let s: Vec<char> = self.needle.chars().collect();
        let count = n - m + 1;
        let mut qubo = qsmt_qubo::QuboModel::new(count);

        // Match reward on the diagonal.
        for i in 0..count {
            let matches = (0..m).filter(|&j| t[i + j] == s[j]).count();
            if matches > 0 {
                qubo.add_linear(i as u32, -a * matches as f64);
            }
        }
        // One-hot penalty over all indicator pairs.
        let vars: Vec<u32> = (0..count as u32).collect();
        PenaltyBuilder::new(&mut qubo).at_most_one(&vars, b);
        // First-match bias: C_i accumulates D at every full match and is
        // charged only at matching positions.
        let mut c_i = 0.0f64;
        for i in 0..count {
            let full_match = (0..m).all(|j| t[i + j] == s[j]);
            if full_match {
                if i > 0 {
                    c_i += d;
                }
                if c_i != 0.0 {
                    qubo.add_linear(i as u32, c_i);
                }
            }
        }
        Ok(EncodedProblem {
            qubo,
            decode: DecodeScheme::StartPosition { count },
            name: "string-includes",
            description: format!(
                "find where {:?} begins within {:?}",
                self.needle, self.haystack
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::test_support::exact_solutions;
    use crate::problem::Solution;

    fn ground_index(p: &EncodedProblem) -> Vec<Option<usize>> {
        exact_solutions(p)
            .1
            .into_iter()
            .map(|s| match s {
                Solution::Index(i) => i,
                other => panic!("expected index, got {other}"),
            })
            .collect()
    }

    #[test]
    fn unique_match_is_found() {
        let p = Includes::new("hello", "ell").encode().unwrap();
        assert_eq!(ground_index(&p), vec![Some(1)]);
    }

    #[test]
    fn first_of_multiple_matches_wins() {
        let p = Includes::new("abcabcabc", "abc").encode().unwrap();
        assert_eq!(ground_index(&p), vec![Some(0)]);
    }

    #[test]
    fn overlapping_matches_prefer_first() {
        let p = Includes::new("aaaa", "aa").encode().unwrap();
        assert_eq!(ground_index(&p), vec![Some(0)]);
    }

    #[test]
    fn match_at_start_index_zero() {
        let p = Includes::new("cat in hat", "cat").encode().unwrap();
        assert_eq!(ground_index(&p), vec![Some(0)]);
    }

    #[test]
    fn match_at_end() {
        let p = Includes::new("the cat", "cat").encode().unwrap();
        assert_eq!(ground_index(&p), vec![Some(4)]);
    }

    #[test]
    fn one_hot_penalty_dominates_double_selection() {
        let p = Includes::new("abab", "ab").encode().unwrap();
        // selecting both full matches must cost more than the best single
        let both = p.qubo.energy(&[1, 0, 1]);
        let first = p.qubo.energy(&[1, 0, 0]);
        assert!(both > first);
    }

    #[test]
    fn no_match_still_picks_best_partial_or_nothing() {
        // "xyz" has no 'a'-'b': all rewards zero except partials; ground
        // state is the empty selection or a zero-reward... with no
        // matching characters the all-zero state is ground.
        let p = Includes::new("xyz", "ab").encode().unwrap();
        let grounds = ground_index(&p);
        // No position matches any character: every x_i=1 has energy 0 too?
        // No: reward is 0, so energy(x_i=1) = 0 = energy(all zero). All
        // degenerate states decode to None or Some(i); semantic validation
        // distinguishes. Just assert the ground energy is 0.
        let (e, _) = exact_solutions(&p);
        assert_eq!(e, 0.0);
        assert!(!grounds.is_empty());
    }

    #[test]
    fn absent_needle_sharing_a_character_has_no_valid_ground_state() {
        // Encoding gap B (ROADMAP items 5 and 8): when the needle is
        // absent but one of its characters occurs at a feasible offset,
        // that one-character partial match lies below the all-zero
        // "not found" state, so every ground state decodes to a wrong
        // index and validation rejects it. No sampler can decide such a
        // script from its ground states; item 5's raised indicator
        // diagonal is the change that flips this test.
        use crate::constraint::Constraint;
        for (haystack, needle, partial) in [("xhdxyrwi", "bi", 6), ("akwsvbeqa", "rwl", 1)] {
            let p = Includes::new(haystack, needle).encode().unwrap();
            let c = Constraint::Includes {
                haystack: haystack.into(),
                needle: needle.into(),
            };
            let (e, grounds) = exact_solutions(&p);
            assert_eq!(e, -1.0, "{haystack}/{needle}");
            assert_eq!(grounds, vec![Solution::Index(Some(partial))]);
            assert!(!c.validate(&grounds[0]), "{haystack}/{needle}");
            let zeros = vec![0u8; p.num_vars()];
            let none = p.decode_state(&zeros).unwrap();
            assert_eq!(none, Solution::Index(None));
            assert!(c.validate(&none), "{haystack}/{needle}");
            assert_eq!(p.qubo.energy(&zeros), 0.0);
        }
    }

    #[test]
    fn needle_equal_to_haystack() {
        let p = Includes::new("abc", "abc").encode().unwrap();
        assert_eq!(p.num_vars(), 1);
        assert_eq!(ground_index(&p), vec![Some(0)]);
    }

    #[test]
    fn default_parameters_beat_partial_matches() {
        // "abX" contains a 2/3 partial of "abc" at 0 and the full match at
        // 3. First-match bias must not promote the partial above the full.
        let p = Includes::new("abXabc", "abc").encode().unwrap();
        assert_eq!(ground_index(&p), vec![Some(3)]);
    }

    #[test]
    fn parameter_sweep_keeps_first_match_optimal() {
        for d in [0.1, 0.25, 0.5] {
            for b in [3.0, 6.0, 12.0] {
                let p = Includes::new("abab", "ab")
                    .with_first_match_increment(d)
                    .with_one_hot_penalty(b)
                    .encode()
                    .unwrap();
                assert_eq!(ground_index(&p), vec![Some(0)], "d={d}, b={b}");
            }
        }
    }

    #[test]
    fn expected_index_matches_std() {
        let i = Includes::new("hello world", "world");
        assert_eq!(i.expected_index(), Some(6));
        assert_eq!(i.num_positions(), 7);
    }

    #[test]
    fn errors() {
        assert!(Includes::new("abc", "").encode().is_err());
        assert!(Includes::new("ab", "abc").encode().is_err());
        assert!(Includes::new("héllo", "h").encode().is_err());
    }
}
