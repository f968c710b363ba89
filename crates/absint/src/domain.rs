//! Abstract domains for string variables.
//!
//! A [`StrDomain`] over-approximates the set of strings a variable can
//! denote with three cooperating components:
//!
//! * a **length interval** ([`LenInterval`], inclusive, `usize::MAX`
//!   meaning unbounded above);
//! * **front-anchored character sets** — `front[i]` constrains the
//!   character at absolute position `i` (so any entry implies
//!   `len > i`);
//! * **back-anchored character sets** — `back[j]` constrains the
//!   character at position `len - 1 - j` (so any entry implies
//!   `len > j`).
//!
//! Every operation is a *meet* (intersection), so domains only ever
//! shrink; the domains have finite height over a fixed script, which is
//! what guarantees the analyzer's fixpoint terminates.

/// Largest string length / position index the positional domains track.
///
/// Positional arrays (`front`/`back`) allocate one 16-byte [`CharSet`]
/// per tracked position, and several passes (pins, mirror, positional
/// regex analysis) iterate over an exact length. An untrusted script
/// asserting `(= (str.at s 1000000000) "a")` or a multi-gigabyte
/// `str.len` must not translate into an allocation or an O(n) loop, so
/// every entry point clamps here: narrowing *beyond* the cap is simply
/// dropped (a sound weakening — the analysis just knows less), and
/// length-directed passes bail out when the exact length exceeds it.
/// Front ends should screen literals above the cap to
/// [`Unsupported`](crate::AbsAssert::Unsupported).
pub const MAX_TRACKED_LEN: usize = 512;

/// A set of ASCII characters (code points 0–127) as a 128-bit mask.
///
/// The whole solver stack works over 7-bit ASCII (see
/// `qsmt-core`'s `BITS_PER_CHAR`), so 128 bits capture the full
/// concrete character universe exactly.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct CharSet(u128);

impl CharSet {
    /// All 128 ASCII characters.
    pub const FULL: CharSet = CharSet(u128::MAX);
    /// The empty set (⊥ for one position).
    pub const EMPTY: CharSet = CharSet(0);

    /// The set containing exactly `c`. Non-ASCII characters yield the
    /// empty set — callers must screen literals first (the lowering
    /// drops non-ASCII assertions as unsupported rather than let an
    /// out-of-universe literal manufacture a refutation).
    pub fn singleton(c: char) -> CharSet {
        let code = c as u32;
        if code < 128 {
            CharSet(1u128 << code)
        } else {
            CharSet::EMPTY
        }
    }

    /// The set of all characters in `chars` (non-ASCII ignored).
    pub fn from_chars<I: IntoIterator<Item = char>>(chars: I) -> CharSet {
        let mut mask = 0u128;
        for c in chars {
            let code = c as u32;
            if code < 128 {
                mask |= 1u128 << code;
            }
        }
        CharSet(mask)
    }

    /// Membership test.
    pub fn contains(self, c: char) -> bool {
        let code = c as u32;
        code < 128 && self.0 & (1u128 << code) != 0
    }

    /// Set intersection — the meet of the per-position lattice.
    #[must_use]
    pub fn meet(self, other: CharSet) -> CharSet {
        CharSet(self.0 & other.0)
    }

    /// True when no character is admissible.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True when every ASCII character is admissible (⊤).
    pub fn is_full(self) -> bool {
        self.0 == u128::MAX
    }

    /// Number of admissible characters.
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// The sole member, if the set is a singleton.
    pub fn only(self) -> Option<char> {
        if self.0.count_ones() == 1 {
            char::from_u32(self.0.trailing_zeros())
        } else {
            None
        }
    }
}

impl std::fmt::Debug for CharSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_full() {
            return write!(f, "⊤");
        }
        if self.is_empty() {
            return write!(f, "∅");
        }
        if self.len() <= 4 {
            let members: String = (0u32..128)
                .filter_map(char::from_u32)
                .filter(|&c| self.contains(c))
                .collect();
            write!(f, "{{{}}}", members.escape_debug())
        } else {
            write!(f, "{{…{} chars}}", self.len())
        }
    }
}

/// An inclusive interval of string lengths; `hi == usize::MAX` means
/// "no upper bound".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LenInterval {
    /// Smallest admissible length.
    pub lo: usize,
    /// Largest admissible length (inclusive).
    pub hi: usize,
}

impl LenInterval {
    /// The unconstrained interval `[0, ∞)`.
    pub const TOP: LenInterval = LenInterval {
        lo: 0,
        hi: usize::MAX,
    };

    /// The degenerate interval `[n, n]`.
    pub fn exact(n: usize) -> LenInterval {
        LenInterval { lo: n, hi: n }
    }

    /// The interval `[n, ∞)`.
    pub fn at_least(n: usize) -> LenInterval {
        LenInterval {
            lo: n,
            hi: usize::MAX,
        }
    }

    /// The interval `[lo, hi]`.
    pub fn between(lo: usize, hi: usize) -> LenInterval {
        LenInterval { lo, hi }
    }

    /// Interval intersection.
    #[must_use]
    pub fn meet(self, other: LenInterval) -> LenInterval {
        LenInterval {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// True when no length is admissible.
    pub fn is_empty(self) -> bool {
        self.lo > self.hi
    }

    /// The sole admissible length, if the interval is degenerate.
    pub fn exact_value(self) -> Option<usize> {
        (self.lo == self.hi).then_some(self.lo)
    }
}

/// The abstract value of one string variable.
#[derive(Clone, PartialEq, Debug)]
pub struct StrDomain {
    /// Admissible lengths.
    pub len: LenInterval,
    /// `front[i]` constrains the character at position `i` (implies
    /// `len ≥ i + 1`, enforced on insertion).
    pub front: Vec<CharSet>,
    /// `back[j]` constrains the character at position `len - 1 - j`
    /// (implies `len ≥ j + 1`, enforced on insertion).
    pub back: Vec<CharSet>,
    /// Set when some meet produced an empty character set — ⊥
    /// independent of the length interval.
    pub conflict: bool,
}

impl Default for StrDomain {
    fn default() -> Self {
        StrDomain::top()
    }
}

impl StrDomain {
    /// The unconstrained domain (γ = all ASCII strings).
    pub fn top() -> StrDomain {
        StrDomain {
            len: LenInterval::TOP,
            front: Vec::new(),
            back: Vec::new(),
            conflict: false,
        }
    }

    /// True when the domain denotes no string at all (⊥).
    pub fn is_empty(&self) -> bool {
        self.conflict || self.len.is_empty()
    }

    /// Meets the length interval; returns whether anything changed.
    pub fn narrow_len(&mut self, iv: LenInterval) -> bool {
        let next = self.len.meet(iv);
        if next == self.len {
            return false;
        }
        self.len = next;
        true
    }

    /// Meets the character set at absolute position `i` (raising the
    /// length floor to `i + 1`); returns whether anything changed.
    /// Positions at or beyond [`MAX_TRACKED_LEN`] are not tracked: the
    /// call is a no-op (sound — dropping a constraint only weakens).
    pub fn narrow_front(&mut self, i: usize, cs: CharSet) -> bool {
        if i >= MAX_TRACKED_LEN {
            return false;
        }
        let mut changed = self.narrow_len(LenInterval::at_least(i + 1));
        if self.front.len() <= i {
            self.front.resize(i + 1, CharSet::FULL);
        }
        let next = self.front[i].meet(cs);
        if next != self.front[i] {
            self.front[i] = next;
            changed = true;
        }
        if next.is_empty() && !self.conflict {
            self.conflict = true;
            changed = true;
        }
        changed
    }

    /// Meets the character set at position `len - 1 - j` (raising the
    /// length floor to `j + 1`); returns whether anything changed.
    /// Offsets at or beyond [`MAX_TRACKED_LEN`] are not tracked: the
    /// call is a no-op (sound — dropping a constraint only weakens).
    pub fn narrow_back(&mut self, j: usize, cs: CharSet) -> bool {
        if j >= MAX_TRACKED_LEN {
            return false;
        }
        let mut changed = self.narrow_len(LenInterval::at_least(j + 1));
        if self.back.len() <= j {
            self.back.resize(j + 1, CharSet::FULL);
        }
        let next = self.back[j].meet(cs);
        if next != self.back[j] {
            self.back[j] = next;
            changed = true;
        }
        if next.is_empty() && !self.conflict {
            self.conflict = true;
            changed = true;
        }
        changed
    }

    /// Meets this domain with another in place (used for `(= x y)`
    /// congruence transfer); returns whether anything changed.
    pub fn meet_with(&mut self, other: &StrDomain) -> bool {
        let mut changed = self.narrow_len(other.len);
        for (i, &cs) in other.front.iter().enumerate() {
            changed |= self.narrow_front(i, cs);
        }
        for (j, &cs) in other.back.iter().enumerate() {
            changed |= self.narrow_back(j, cs);
        }
        if other.conflict && !self.conflict {
            self.conflict = true;
            changed = true;
        }
        changed
    }

    /// When the length is exact, folds back-anchored constraints into
    /// the front array so positions become absolute. Semantics-
    /// preserving (γ is unchanged — the same positions are constrained
    /// either way), so this is canonicalization, not narrowing, and
    /// needs no certificate step. Returns whether the representation
    /// changed.
    pub fn normalize(&mut self) -> bool {
        let Some(n) = self.len.exact_value() else {
            return false;
        };
        let mut changed = false;
        for j in 0..self.back.len() {
            if j >= n {
                break; // implies len > n: narrow_back already raised lo
            }
            let cs = self.back[j];
            if !cs.is_full() {
                changed |= self.narrow_front(n - 1 - j, cs);
            }
        }
        changed
    }

    /// The materialized character set at absolute position `i`,
    /// combining front- and (when the length is exact) back-anchored
    /// constraints.
    pub fn at(&self, i: usize) -> CharSet {
        let mut cs = self.front.get(i).copied().unwrap_or(CharSet::FULL);
        if let Some(n) = self.len.exact_value() {
            if i < n {
                let j = n - 1 - i;
                cs = cs.meet(self.back.get(j).copied().unwrap_or(CharSet::FULL));
            }
        }
        cs
    }

    /// Positions pinned to a single character, available only when the
    /// length is exact (otherwise "position i" is not absolute for the
    /// back-anchored part). Sorted by position. Empty above
    /// [`MAX_TRACKED_LEN`] so an adversarial exact length cannot turn
    /// this into an O(n) scan.
    pub fn pins(&self) -> Vec<(usize, char)> {
        let Some(n) = self.len.exact_value().filter(|&n| n <= MAX_TRACKED_LEN) else {
            return Vec::new();
        };
        (0..n)
            .filter_map(|i| Some((i, self.at(i).only()?)))
            .collect()
    }

    /// A compact human-readable summary, used in diagnostics and
    /// certificates.
    pub fn summary(&self) -> String {
        if self.is_empty() {
            return "⊥".to_string();
        }
        let len = match (self.len.lo, self.len.hi) {
            (lo, usize::MAX) => format!("len ≥ {lo}"),
            (lo, hi) if lo == hi => format!("len = {lo}"),
            (lo, hi) => format!("len ∈ [{lo}, {hi}]"),
        };
        let pinned = self.pins().len();
        if pinned > 0 {
            format!("{len}, {pinned} pinned")
        } else {
            len
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charset_basics() {
        let a = CharSet::singleton('a');
        assert!(a.contains('a') && !a.contains('b'));
        assert_eq!(a.only(), Some('a'));
        assert_eq!(a.len(), 1);
        let ab = CharSet::from_chars(['a', 'b']);
        assert_eq!(ab.meet(a), a);
        assert!(ab.meet(CharSet::singleton('z')).is_empty());
        assert!(CharSet::FULL.contains('\n'));
        assert!(CharSet::singleton('é').is_empty());
    }

    #[test]
    fn len_interval_meets() {
        let iv = LenInterval::exact(3).meet(LenInterval::at_least(7));
        assert!(iv.is_empty());
        let iv = LenInterval::between(2, 5).meet(LenInterval::at_least(4));
        assert_eq!(iv, LenInterval::between(4, 5));
        assert_eq!(LenInterval::exact(4).exact_value(), Some(4));
    }

    #[test]
    fn front_narrowing_raises_length_floor() {
        let mut d = StrDomain::top();
        assert!(d.narrow_front(2, CharSet::singleton('z')));
        assert_eq!(d.len.lo, 3);
        assert!(!d.is_empty());
        // Conflicting pin at the same position empties the domain.
        assert!(d.narrow_front(2, CharSet::singleton('q')));
        assert!(d.is_empty());
    }

    #[test]
    fn back_constraints_fold_at_exact_length() {
        let mut d = StrDomain::top();
        // suffix "yz": z at offset 0, y at offset 1
        d.narrow_back(0, CharSet::singleton('z'));
        d.narrow_back(1, CharSet::singleton('y'));
        d.narrow_len(LenInterval::exact(4));
        d.normalize();
        assert_eq!(d.at(3).only(), Some('z'));
        assert_eq!(d.at(2).only(), Some('y'));
        assert_eq!(d.pins(), vec![(2, 'y'), (3, 'z')]);
    }

    #[test]
    fn prefix_suffix_overlap_conflict() {
        // prefix "ab", suffix "zz", length 3: position 1 must be both
        // 'b' (front) and 'z' (back offset 1) — empty.
        let mut d = StrDomain::top();
        d.narrow_front(0, CharSet::singleton('a'));
        d.narrow_front(1, CharSet::singleton('b'));
        d.narrow_back(0, CharSet::singleton('z'));
        d.narrow_back(1, CharSet::singleton('z'));
        d.narrow_len(LenInterval::exact(3));
        d.normalize();
        assert!(d.is_empty());
    }

    #[test]
    fn narrowing_beyond_the_cap_is_a_cheap_no_op() {
        let mut d = StrDomain::top();
        // Would allocate gigabytes of CharSets (and overflow `i + 1` at
        // usize::MAX) without the cap.
        assert!(!d.narrow_front(1_000_000_000, CharSet::singleton('a')));
        assert!(!d.narrow_back(usize::MAX, CharSet::singleton('a')));
        assert!(d.front.is_empty() && d.back.is_empty());
        assert!(!d.is_empty());
        // A huge exact length yields no pins instead of an O(n) scan.
        d.narrow_len(LenInterval::exact(usize::MAX - 1));
        assert!(d.pins().is_empty());
        assert!(!d.normalize());
    }

    #[test]
    fn meet_with_transfers_everything() {
        let mut a = StrDomain::top();
        a.narrow_len(LenInterval::exact(4));
        let mut b = StrDomain::top();
        b.narrow_front(0, CharSet::singleton('q'));
        assert!(a.meet_with(&b));
        assert_eq!(a.at(0).only(), Some('q'));
        assert!(!a.meet_with(&b), "idempotent");
    }
}
