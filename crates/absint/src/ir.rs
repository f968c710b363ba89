//! The analyzer's assertion IR.
//!
//! `qsmt-absint` deliberately does **not** depend on `qsmt-smtlib` (the
//! front end depends on *this* crate, so a direct AST dependency would
//! be a cycle). Instead the front end lowers each `(assert …)` into one
//! of the shapes below — exactly the facts the abstract domains can
//! consume — and tags everything else [`AbsAssert::Unsupported`], which
//! influences no domain (dropping a conjunct only ever *weakens* the
//! analysis, so unsupported shapes are sound to ignore).

use qsmt_redex::Regex;

/// One lowered assertion. The `usize` fields index string variables in
/// [`AbsProgram::string_vars`].
#[derive(Clone, Debug, PartialEq)]
pub enum AbsAssert {
    /// `(= (str.len x) n)`
    LenEq {
        /// Constrained variable.
        var: usize,
        /// Asserted length.
        n: usize,
    },
    /// `(str.contains x "lit")`
    Contains {
        /// Containing variable.
        var: usize,
        /// Required substring.
        lit: String,
    },
    /// `(str.prefixof "lit" x)`
    PrefixLit {
        /// Constrained variable.
        var: usize,
        /// Required prefix.
        lit: String,
    },
    /// `(str.suffixof "lit" x)`
    SuffixLit {
        /// Constrained variable.
        var: usize,
        /// Required suffix.
        lit: String,
    },
    /// `(= (str.at x i) "c")`
    PinAt {
        /// Constrained variable.
        var: usize,
        /// Zero-based position.
        index: usize,
        /// Required character.
        ch: char,
    },
    /// `(str.in_re x r)`
    InRegex {
        /// Constrained variable.
        var: usize,
        /// The language, in the workspace regex IR.
        regex: Regex,
    },
    /// `(= x t)` for a ground term `t` evaluating to `value`.
    GroundEq {
        /// Constrained variable.
        var: usize,
        /// The concrete value the term denotes.
        value: String,
    },
    /// `(= x y)` between two string variables.
    VarEq {
        /// Left variable.
        a: usize,
        /// Right variable.
        b: usize,
    },
    /// `(= x (str.rev x))` — x is a palindrome.
    SelfReverse {
        /// Constrained variable.
        var: usize,
    },
    /// Any assertion shape outside the abstract fragment, `str.indexof`
    /// definitions of Int variables included. Ignored by the domains.
    Unsupported,
}

impl AbsAssert {
    /// The string variables this assertion mentions (for certificate
    /// trimming and the constraint graph).
    pub fn vars(&self) -> Vec<usize> {
        match *self {
            AbsAssert::LenEq { var, .. }
            | AbsAssert::Contains { var, .. }
            | AbsAssert::PrefixLit { var, .. }
            | AbsAssert::SuffixLit { var, .. }
            | AbsAssert::PinAt { var, .. }
            | AbsAssert::InRegex { var, .. }
            | AbsAssert::GroundEq { var, .. }
            | AbsAssert::SelfReverse { var } => vec![var],
            AbsAssert::VarEq { a, b } => vec![a, b],
            AbsAssert::Unsupported => Vec::new(),
        }
    }
}

/// A lowered script: the string-variable namespace plus the assertion
/// list. Assertion indices (the `usize` in each pair) are stable
/// identifiers the certificate refers back to — the front end uses the
/// ordinal of the `(assert …)` command within the script.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AbsProgram {
    /// Declared string variables, in declaration order.
    pub string_vars: Vec<String>,
    /// `(assertion index, lowered shape)` pairs.
    pub asserts: Vec<(usize, AbsAssert)>,
}

impl AbsProgram {
    /// Resolves a variable index back to its name (for reports).
    pub fn var_name(&self, idx: usize) -> &str {
        self.string_vars
            .get(idx)
            .map_or("<unknown>", String::as_str)
    }

    /// Finds the lowered assertion with the given stable index.
    pub fn assert_by_index(&self, index: usize) -> Option<&AbsAssert> {
        self.asserts
            .iter()
            .find(|(i, _)| *i == index)
            .map(|(_, a)| a)
    }
}
