//! §4.4 String includes: where in `T` does the substring `S` begin?

use crate::encode::char_to_bits;
use crate::error::ConstraintError;
use crate::ops::DEFAULT_STRENGTH;
use crate::problem::{DecodeScheme, EncodedProblem};
use qsmt_qubo::PenaltyBuilder;

/// The string-includes encoder (paper §4.4), with an "absent" indicator.
///
/// Binary variables are the paper's position indicators `x_i` for
/// `i = 0, 1, …, n − m` (`x_i = 1` ⇔ the needle starts at `i`), followed
/// by one absent indicator `z` (`z = 1` ⇔ the needle does not occur,
/// SMT-LIB's −1). The terms:
///
/// * **scores** — the paper's match reward (§4.4.2), `−A` per matched
///   character, raised by `A·(m − ½)`: an indicator whose window matches
///   `j` of the `m` needle characters scores `−A·j + A·(m − ½)`, which is
///   below the absent indicator's 0 only for a full match (`−A/2`);
///   every partial match scores at least `A/2`;
/// * **first-match bias** (§4.4.3) — full match number `r` (counting
///   from 0) adds `r·D` with `D = A / (2·(count + 1))`, so later full
///   matches sit above the first and every full match stays below 0;
/// * **exactly one** — `P·(Σx + z − 1)²` with `P = A·max(m, 1)`.
///
/// Every score is at least `−A/2` and `P > A/2`, so every multi-hot
/// state lies above one of its one-hot subsets, and the unique ground
/// state decodes to `haystack.find(needle)`. `P ≥ A·(m − ½)` keeps every
/// indicator's net linear term negative, so presolve leaves the group
/// whole. A needle longer than the haystack has no start positions (the
/// absent indicator is the only variable); an empty needle matches
/// fully everywhere, so its answer is 0.
#[derive(Debug, Clone)]
pub struct Includes {
    haystack: String,
    needle: String,
    strength: f64,
}

impl Includes {
    /// Asks where `needle` begins within `haystack`.
    pub fn new(haystack: impl Into<String>, needle: impl Into<String>) -> Self {
        Self {
            haystack: haystack.into(),
            needle: needle.into(),
            strength: DEFAULT_STRENGTH,
        }
    }

    /// Overrides the reward strength `A`.
    pub fn with_strength(mut self, a: f64) -> Self {
        assert!(a > 0.0, "strength must be positive");
        self.strength = a;
        self
    }

    /// The number of candidate start positions (`n − m + 1`, or 0 when
    /// the needle is longer than the haystack).
    pub fn num_positions(&self) -> usize {
        (self.haystack.len() + 1).saturating_sub(self.needle.len())
    }

    /// Classical reference answer: the first index where the needle
    /// occurs, if any.
    pub fn expected_index(&self) -> Option<usize> {
        self.haystack.find(&self.needle)
    }

    /// Compiles to QUBO form.
    ///
    /// # Errors
    /// Fails on non-ASCII input.
    pub fn encode(&self) -> Result<EncodedProblem, ConstraintError> {
        for c in self.haystack.chars().chain(self.needle.chars()) {
            char_to_bits(c)?;
        }
        let a = self.strength;
        let t = self.haystack.as_bytes();
        let s = self.needle.as_bytes();
        let m = s.len();
        let count = self.num_positions();
        let p = a * m.max(1) as f64;
        let d = a / (2.0 * (count + 1) as f64);
        let mut qubo = qsmt_qubo::QuboModel::new(count + 1);
        let vars: Vec<u32> = (0..=count as u32).collect();
        PenaltyBuilder::new(&mut qubo).exactly_one(&vars, p);
        let mut full_matches = 0;
        for i in 0..count {
            let matches = (0..m).filter(|&j| t[i + j] == s[j]).count();
            let mut score = -a * matches as f64 + a * (m as f64 - 0.5);
            if matches == m {
                score += full_matches as f64 * d;
                full_matches += 1;
            }
            qubo.add_linear(i as u32, score);
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
        let both = p.qubo.energy(&[1, 0, 1, 0]);
        let first = p.qubo.energy(&[1, 0, 0, 0]);
        assert!(both > first);
    }

    #[test]
    fn no_match_still_picks_best_partial_or_nothing() {
        // "xyz" shares no character with "ab": every start indicator
        // scores A·(m − ½) above the absent indicator, whose one-hot
        // state is the ground at energy 0.
        let p = Includes::new("xyz", "ab").encode().unwrap();
        let grounds = ground_index(&p);
        let (e, _) = exact_solutions(&p);
        assert_eq!(e, 0.0);
        assert!(!grounds.is_empty());
    }

    #[test]
    fn absent_needle_sharing_a_character_decodes_to_minus_one() {
        // When the needle is absent but one of its characters occurs at
        // a feasible offset, the paper's reward alone put that partial
        // match below "not found". Scored against the absent indicator,
        // every partial match lies above it: the unique ground state is
        // the absent indicator alone, which decodes to −1 and validates.
        use crate::constraint::Constraint;
        for (haystack, needle, partial) in [("xhdxyrwi", "bi", 6), ("akwsvbeqa", "rwl", 1)] {
            let p = Includes::new(haystack, needle).encode().unwrap();
            let c = Constraint::Includes {
                haystack: haystack.into(),
                needle: needle.into(),
            };
            let (e, grounds) = exact_solutions(&p);
            assert_eq!(e, 0.0, "{haystack}/{needle}");
            assert_eq!(grounds, vec![Solution::Index(None)]);
            assert!(c.validate(&grounds[0]), "{haystack}/{needle}");
            let mut partial_state = vec![0u8; p.num_vars()];
            partial_state[partial] = 1;
            let wrong = p.decode_state(&partial_state).unwrap();
            assert_eq!(wrong, Solution::Index(Some(partial)));
            assert!(!c.validate(&wrong), "{haystack}/{needle}");
            // One of m characters matched: A·(m − ½) − A above the ground.
            assert_eq!(p.qubo.energy(&partial_state), needle.len() as f64 - 1.5);
        }
    }

    #[test]
    fn needle_equal_to_haystack() {
        let p = Includes::new("abc", "abc").encode().unwrap();
        assert_eq!(p.num_vars(), 2, "one start indicator and the absent one");
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
    fn strength_sweep_keeps_the_first_match_the_unique_ground_state() {
        for a in [0.25, 1.0, 4.0] {
            for (haystack, needle) in [("abab", "ab"), ("abXabc", "abc"), ("xhdxyrwi", "bi")] {
                let p = Includes::new(haystack, needle)
                    .with_strength(a)
                    .encode()
                    .unwrap();
                assert_eq!(
                    ground_index(&p),
                    vec![haystack.find(needle)],
                    "a={a}, {haystack}/{needle}"
                );
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
        assert!(Includes::new("héllo", "h").encode().is_err());
        assert!(Includes::new("hello", "é").encode().is_err());
    }

    #[test]
    fn empty_needle_is_found_at_zero() {
        let p = Includes::new("abc", "").encode().unwrap();
        assert_eq!(p.num_vars(), 5, "starts 0..=3 and the absent indicator");
        assert_eq!(ground_index(&p), vec![Some(0)]);
        let empty = Includes::new("", "").encode().unwrap();
        assert_eq!(ground_index(&empty), vec![Some(0)]);
    }

    #[test]
    fn needle_longer_than_haystack_is_absent() {
        let p = Includes::new("ab", "abc").encode().unwrap();
        assert_eq!(p.num_vars(), 1, "only the absent indicator");
        assert_eq!(ground_index(&p), vec![None]);
    }
}
