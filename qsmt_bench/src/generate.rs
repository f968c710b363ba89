//! Seeded input generation. Every script carries its known answer: sat
//! scripts a witness, unsat scripts the reason they are unsat. The
//! solver under test only ever sees the rendered `.smt2` text.
//!
//! Request `i` of a stream depends only on `(seed, stream, i)`, so a run
//! can stop after any number of requests and the same seed always
//! yields byte-identical inputs.

use std::fmt::Write as _;

/// SplitMix64: small, seedable, and independent of the `rand` shim the
/// program under test uses.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    #[cfg(test)]
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The generator for item `index` of `stream` under `seed`.
    pub fn for_item(seed: u64, stream: u64, index: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.0 ^= r.next_u64() ^ index.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A lowercase ASCII letter.
    pub fn letter(&mut self) -> char {
        (b'a' + self.below(26) as u8) as char
    }

    /// A lowercase letter in `lo..=hi`.
    pub fn letter_in(&mut self, lo: char, hi: char) -> char {
        (lo as u8 + self.below((hi as u8 - lo as u8 + 1) as usize) as u8) as char
    }

    pub fn word(&mut self, len: usize) -> String {
        (0..len).map(|_| self.letter()).collect()
    }

    /// A word of `lo..=hi` letters.
    pub fn word_in(&mut self, lo: usize, hi: usize) -> String {
        let len = self.range(lo, hi);
        self.word(len)
    }
}

/// The regular-expression fragment the generator emits.
#[derive(Clone, Debug, PartialEq)]
pub enum Re {
    Lit(String),
    Range(char, char),
    AllChar,
    Concat(Vec<Re>),
    Union(Vec<Re>),
    Plus(Box<Re>),
    Star(Box<Re>),
    Opt(Box<Re>),
}

/// A ground string term: a literal under rev/replace/replace_all/++.
#[derive(Clone, Debug, PartialEq)]
pub enum Ground {
    Lit(String),
    Rev(Box<Ground>),
    Replace(Box<Ground>, char, char),
    ReplaceAll(Box<Ground>, char, char),
    Concat(Box<Ground>, String),
}

/// One assertion over the script's single variable.
#[derive(Clone, Debug, PartialEq)]
pub enum Assert {
    Len(usize),
    SelfRev,
    InRe(Re),
    Contains(String),
    At(usize, char),
    Prefix(String),
    Suffix(String),
    Ground(Ground),
    /// `(= i (str.indexof hay needle 0))` over an Int variable.
    IndexOf {
        hay: String,
        needle: String,
    },
}

/// A model value, as the solver prints it.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Str(String),
    Int(i64),
}

/// What the generator knows about the answer.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// Satisfiable; the witness satisfies every assertion.
    Sat(Value),
    /// Unsatisfiable by construction, for the stated reason.
    Unsat(String),
}

/// One generated script plus its known answer.
#[derive(Clone, Debug, PartialEq)]
pub struct Case {
    pub template: &'static str,
    pub asserts: Vec<Assert>,
    pub expect: Expect,
    /// The solver seed the request carries (`--seed`, `?seed=`).
    pub solver_seed: u64,
}

impl Case {
    fn new(template: &'static str, asserts: Vec<Assert>, expect: Expect, rng: &mut Rng) -> Case {
        Case {
            template,
            asserts,
            expect,
            solver_seed: rng.next_u64() >> 33,
        }
    }

    /// The declared variable: `i` for index queries, `s` otherwise.
    pub fn var(&self) -> &'static str {
        if self.is_int() {
            "i"
        } else {
            "s"
        }
    }

    pub fn is_int(&self) -> bool {
        matches!(self.asserts.first(), Some(Assert::IndexOf { .. }))
    }

    /// The `.smt2` text the program under test receives.
    pub fn smt2(&self) -> String {
        let var = self.var();
        let sort = if self.is_int() { "Int" } else { "String" };
        let mut out = format!("(set-logic QF_S)\n(declare-const {var} {sort})\n");
        for a in &self.asserts {
            let term = match a {
                Assert::Len(n) => format!("(= (str.len {var}) {n})"),
                Assert::SelfRev => format!("(= {var} (str.rev {var}))"),
                Assert::InRe(re) => format!("(str.in_re {var} {})", render_re(re)),
                Assert::Contains(t) => format!("(str.contains {var} \"{t}\")"),
                Assert::At(i, c) => format!("(= (str.at {var} {i}) \"{c}\")"),
                Assert::Prefix(p) => format!("(str.prefixof \"{p}\" {var})"),
                Assert::Suffix(x) => format!("(str.suffixof \"{x}\" {var})"),
                Assert::Ground(g) => format!("(= {var} {})", render_ground(g)),
                Assert::IndexOf { hay, needle } => {
                    format!("(= {var} (str.indexof \"{hay}\" \"{needle}\" 0))")
                }
            };
            let _ = writeln!(out, "(assert {term})");
        }
        out.push_str("(check-sat)\n(get-model)\n");
        out
    }
}

fn render_re(re: &Re) -> String {
    let list = |op: &str, parts: &[Re]| {
        let inner: Vec<String> = parts.iter().map(render_re).collect();
        format!("({op} {})", inner.join(" "))
    };
    match re {
        Re::Lit(s) => format!("(str.to_re \"{s}\")"),
        Re::Range(a, b) => format!("(re.range \"{a}\" \"{b}\")"),
        Re::AllChar => "re.allchar".to_string(),
        Re::Concat(parts) => list("re.++", parts),
        Re::Union(parts) => list("re.union", parts),
        Re::Plus(r) => format!("(re.+ {})", render_re(r)),
        Re::Star(r) => format!("(re.* {})", render_re(r)),
        Re::Opt(r) => format!("(re.opt {})", render_re(r)),
    }
}

fn render_ground(g: &Ground) -> String {
    match g {
        Ground::Lit(s) => format!("\"{s}\""),
        Ground::Rev(g) => format!("(str.rev {})", render_ground(g)),
        Ground::Replace(g, a, b) => format!("(str.replace {} \"{a}\" \"{b}\")", render_ground(g)),
        Ground::ReplaceAll(g, a, b) => {
            format!("(str.replace_all {} \"{a}\" \"{b}\")", render_ground(g))
        }
        Ground::Concat(g, s) => format!("(str.++ {} \"{s}\")", render_ground(g)),
    }
}

/// Generation lengths run from 3 to 10 characters.
const MIN_LEN: usize = 3;
const MAX_LEN: usize = 10;

fn palindrome_word(rng: &mut Rng, n: usize) -> String {
    let half: Vec<char> = (0..n.div_ceil(2)).map(|_| rng.letter()).collect();
    let mut s: String = half.iter().collect();
    s.extend(half.iter().rev().skip(n % 2));
    s
}

fn palindrome(rng: &mut Rng) -> Case {
    let n = rng.range(MIN_LEN, MAX_LEN);
    let w = palindrome_word(rng, n);
    Case::new(
        "palindrome",
        vec![Assert::SelfRev, Assert::Len(n)],
        Expect::Sat(Value::Str(w)),
        rng,
    )
}

/// A narrow letter range `lo..=hi` (3 to 6 letters wide).
fn letter_range(rng: &mut Rng) -> (char, char) {
    let width = rng.range(3, 6) as u8;
    let lo = (b'a' + rng.below(26 - width as usize) as u8) as char;
    (lo, (lo as u8 + width - 1) as char)
}

fn regex(rng: &mut Rng) -> Case {
    let n = rng.range(MIN_LEN, MAX_LEN);
    let (re, w) = match rng.below(3) {
        // head char, then one-or-more of two letters (Table 1 row 3)
        0 => {
            let head = rng.letter();
            let (x, y) = (rng.letter(), rng.letter());
            let tail: String = (1..n)
                .map(|_| if rng.below(2) == 0 { x } else { y })
                .collect();
            let re = Re::Concat(vec![
                Re::Lit(head.to_string()),
                Re::Plus(Box::new(Re::Union(vec![
                    Re::Lit(x.to_string()),
                    Re::Lit(y.to_string()),
                ]))),
            ]);
            (re, format!("{head}{tail}"))
        }
        // one range, then zero-or-more of another
        1 => {
            let (a, b) = letter_range(rng);
            let (c, d) = letter_range(rng);
            let mut w = rng.letter_in(a, b).to_string();
            w.extend((1..n).map(|_| rng.letter_in(c, d)));
            let re = Re::Concat(vec![Re::Range(a, b), Re::Star(Box::new(Re::Range(c, d)))]);
            (re, w)
        }
        // literal, any character, optional literal, then a range run
        _ => {
            let lit = rng.letter().to_string();
            let opt = rng.letter().to_string();
            let (a, b) = letter_range(rng);
            let mut w = format!("{lit}{}", rng.letter());
            let take_opt = rng.below(2) == 0;
            if take_opt {
                w.push_str(&opt);
            }
            while w.len() < n {
                w.push(rng.letter_in(a, b));
            }
            let re = Re::Concat(vec![
                Re::Lit(lit),
                Re::AllChar,
                Re::Opt(Box::new(Re::Lit(opt))),
                Re::Star(Box::new(Re::Range(a, b))),
            ]);
            (re, w)
        }
    };
    let n = w.len();
    Case::new(
        "regex",
        vec![Assert::InRe(re), Assert::Len(n)],
        Expect::Sat(Value::Str(w)),
        rng,
    )
}

fn contains(rng: &mut Rng) -> Case {
    let n = rng.range(MIN_LEN, MAX_LEN);
    let k = rng.range(1, 3.min(n));
    let needle = rng.word(k);
    let at = rng.below(n - k + 1);
    let mut w = rng.word(n);
    w.replace_range(at..at + k, &needle);
    Case::new(
        "contains",
        vec![Assert::Contains(needle), Assert::Len(n)],
        Expect::Sat(Value::Str(w)),
        rng,
    )
}

fn at_pins(rng: &mut Rng) -> Case {
    let n = rng.range(MIN_LEN, MAX_LEN);
    let w = rng.word(n);
    let first = rng.below(n);
    let mut asserts = vec![Assert::At(first, w.as_bytes()[first] as char)];
    if rng.below(2) == 0 {
        let second = (first + 1 + rng.below(n - 1)) % n;
        asserts.push(Assert::At(second, w.as_bytes()[second] as char));
    }
    asserts.push(Assert::Len(n));
    Case::new("at_pins", asserts, Expect::Sat(Value::Str(w)), rng)
}

fn prefix_suffix(rng: &mut Rng) -> Case {
    let n = rng.range(MIN_LEN, MAX_LEN);
    let k = rng.range(1, 3.min(n - 1));
    let w = rng.word(n);
    let fact = if rng.below(2) == 0 {
        Assert::Prefix(w[..k].to_string())
    } else {
        Assert::Suffix(w[n - k..].to_string())
    };
    Case::new(
        "prefix_suffix",
        vec![fact, Assert::Len(n)],
        Expect::Sat(Value::Str(w)),
        rng,
    )
}

fn indexof(rng: &mut Rng) -> Case {
    let n = rng.range(MIN_LEN, MAX_LEN);
    let hay = rng.word(n);
    let k = rng.range(1, 3.min(n));
    let needle = if rng.below(4) == 0 {
        // one needle in four is random and usually absent (answer -1)
        rng.word(k)
    } else {
        let at = rng.below(n - k + 1);
        hay[at..at + k].to_string()
    };
    let answer = hay.find(&needle).map_or(-1, |i| i as i64);
    Case::new(
        "indexof",
        vec![Assert::IndexOf { hay, needle }],
        Expect::Sat(Value::Int(answer)),
        rng,
    )
}

/// Two generation facts on one variable, both read off one witness.
fn conjunction(rng: &mut Rng) -> Case {
    let n = rng.range(MIN_LEN + 1, MAX_LEN);
    let k = rng.range(1, 2);
    let (w, first, second) = match rng.below(3) {
        0 => {
            let w = palindrome_word(rng, n);
            let p = Assert::Prefix(w[..k].to_string());
            (w, Assert::SelfRev, p)
        }
        1 => {
            let w = rng.word(n);
            let (p, x) = (w[..k].to_string(), w[n - k..].to_string());
            (w, Assert::Prefix(p), Assert::Suffix(x))
        }
        _ => {
            let w = rng.word(n);
            let at = rng.below(n - k + 1);
            let pin = rng.below(n);
            let c = Assert::Contains(w[at..at + k].to_string());
            let p = Assert::At(pin, w.as_bytes()[pin] as char);
            (w, c, p)
        }
    };
    Case::new(
        "conjunction",
        vec![first, second, Assert::Len(n)],
        Expect::Sat(Value::Str(w)),
        rng,
    )
}

/// 1–3 of rev/replace/replace_all/++ over 3–7 character literals. An
/// append that would grow the string past [`MAX_LEN`] becomes a
/// reversal, so every stage's QUBO stays within the generation sizes.
fn transform(rng: &mut Rng) -> Case {
    let mut g = Ground::Lit(rng.word_in(3, 7));
    let mut current = crate::oracle::eval_ground(&g);
    for _ in 0..rng.range(1, 3) {
        // replace targets a character that occurs, three times in four
        let from = if rng.below(4) == 0 {
            rng.letter()
        } else {
            current.as_bytes()[rng.below(current.len())] as char
        };
        let to = rng.letter();
        let room = MAX_LEN - current.len();
        g = match rng.below(4) {
            1 => Ground::Replace(Box::new(g), from, to),
            2 => Ground::ReplaceAll(Box::new(g), from, to),
            3 if room >= 3 => Ground::Concat(Box::new(g), rng.word_in(3, room.min(7))),
            _ => Ground::Rev(Box::new(g)),
        };
        current = crate::oracle::eval_ground(&g);
    }
    Case::new(
        "transform",
        vec![Assert::Ground(g)],
        Expect::Sat(Value::Str(current)),
        rng,
    )
}

fn unsat_contains(rng: &mut Rng) -> Case {
    let n = rng.range(MIN_LEN, MAX_LEN - 1);
    let needle = rng.word_in(n + 1, MAX_LEN);
    let reason = format!(
        "str.contains needs {} characters but str.len is {n}",
        needle.len()
    );
    Case::new(
        "unsat_contains",
        vec![Assert::Contains(needle), Assert::Len(n)],
        Expect::Unsat(reason),
        rng,
    )
}

fn unsat_regex(rng: &mut Rng) -> Case {
    let k = rng.range(MIN_LEN, MAX_LEN);
    let mut n = rng.range(1, MAX_LEN);
    if n == k {
        n = k - 1;
    }
    let reason = format!("(str.to_re lit) matches only length {k} but str.len is {n}");
    Case::new(
        "unsat_regex",
        vec![Assert::InRe(Re::Lit(rng.word(k))), Assert::Len(n)],
        Expect::Unsat(reason),
        rng,
    )
}

type Template = fn(&mut Rng) -> Case;

/// Generation-class templates (sat by construction).
pub const GENERATION: &[Template] = &[
    palindrome,
    regex,
    contains,
    at_pins,
    prefix_suffix,
    indexof,
    conjunction,
];

/// Unsat-by-construction templates that absint refutes.
pub const UNSAT: &[Template] = &[unsat_contains, unsat_regex];

/// Every template, for tests.
#[cfg(test)]
pub const ALL: &[Template] = &[
    palindrome,
    regex,
    contains,
    at_pins,
    prefix_suffix,
    indexof,
    conjunction,
    transform,
    unsat_contains,
    unsat_regex,
];

fn pick(rng: &mut Rng, templates: &[Template]) -> Case {
    let t = templates[rng.below(templates.len())];
    t(rng)
}

/// The serve mix: 60% generation, 30% transformation, 10% unsat.
fn mixed(rng: &mut Rng) -> Case {
    match rng.below(10) {
        0..=5 => pick(rng, GENERATION),
        6..=8 => transform(rng),
        _ => pick(rng, UNSAT),
    }
}

/// Zipf(s = 1) over `0..n`, drawn by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut total = 0.0;
        let cdf = (1..=n)
            .map(|k| {
                total += 1.0 / k as f64;
                total
            })
            .collect();
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit() * self.cdf[self.cdf.len() - 1];
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Distinct scripts `serve_repeat` draws from.
pub const REPEAT_POOL: usize = 400;

/// The four workloads, in run order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CliGenerate,
    CliTransform,
    ServeUnique,
    ServeRepeat,
}

/// One request: a script and whether it races a portfolio.
#[derive(Clone, Debug)]
pub struct Request {
    pub case: Case,
    pub portfolio: bool,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CliGenerate,
        Workload::CliTransform,
        Workload::ServeUnique,
        Workload::ServeRepeat,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CliGenerate => "cli_generate",
            Workload::CliTransform => "cli_transform",
            Workload::ServeUnique => "serve_unique",
            Workload::ServeRepeat => "serve_repeat",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_serve(self) -> bool {
        matches!(self, Workload::ServeUnique | Workload::ServeRepeat)
    }

    fn stream(self) -> u64 {
        self as u64 + 1
    }

    /// The inputs of one workload under one seed.
    pub fn inputs(self, seed: u64) -> Inputs {
        Inputs {
            workload: self,
            seed,
            zipf: (self == Workload::ServeRepeat).then(|| Zipf::new(REPEAT_POOL)),
        }
    }
}

/// A workload's request stream under one seed.
pub struct Inputs {
    workload: Workload,
    seed: u64,
    zipf: Option<Zipf>,
}

const WARMUP_STREAM: u64 = 100;
const POOL_STREAM: u64 = 200;
const POOL_SEED: u64 = 0x5EED_0001;

impl Inputs {
    fn case(&self, rng: &mut Rng) -> Case {
        match self.workload {
            Workload::CliGenerate => pick(rng, GENERATION),
            Workload::CliTransform => transform(rng),
            Workload::ServeUnique | Workload::ServeRepeat => mixed(rng),
        }
    }

    /// Timed request `i`.
    pub fn request(&self, i: usize) -> Request {
        let mut rng = Rng::for_item(self.seed, self.workload.stream(), i as u64);
        match &self.zipf {
            Some(zipf) => {
                let slot = zipf.draw(&mut rng);
                Request {
                    case: self.pool_item(slot),
                    portfolio: false,
                }
            }
            None => Request {
                case: self.case(&mut rng),
                portfolio: self.workload == Workload::ServeUnique && i % 4 == 3,
            },
        }
    }

    /// Item `slot` of the `serve_repeat` pool. The pool is the same 400
    /// scripts under every seed, a service's hot set; the seed drives
    /// which of them each request repeats. A per-seed pool would let one
    /// `unknown` script drawn at Zipf rank 1 (15% of traffic) swing
    /// `decided_frac` by more than any bound worth gating on.
    pub fn pool_item(&self, slot: usize) -> Case {
        mixed(&mut Rng::for_item(POOL_SEED, POOL_STREAM, slot as u64))
    }

    /// Untimed warm-up request `i`, from a stream of its own.
    pub fn warmup(&self, i: usize) -> Request {
        let stream = WARMUP_STREAM + self.workload.stream();
        Request {
            case: self.case(&mut Rng::for_item(self.seed, stream, i as u64)),
            portfolio: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for w in Workload::ALL {
            let (a, b) = (w.inputs(7), w.inputs(7));
            for i in 0..200 {
                assert_eq!(a.request(i).case.smt2(), b.request(i).case.smt2());
                assert_eq!(a.request(i).case.solver_seed, b.request(i).case.solver_seed);
                assert_eq!(a.warmup(i).case.smt2(), b.warmup(i).case.smt2());
            }
            let other = w.inputs(8);
            assert!((0..50).any(|i| a.request(i).case.smt2() != other.request(i).case.smt2()));
        }
    }

    #[test]
    fn zipf_draws_are_deterministic_and_skewed() {
        let z = Zipf::new(REPEAT_POOL);
        let draws = |seed| -> Vec<usize> {
            (0..2000)
                .map(|i| z.draw(&mut Rng::for_item(seed, 9, i)))
                .collect()
        };
        assert_eq!(draws(3), draws(3));
        let d = draws(3);
        assert!(d.iter().all(|&k| k < REPEAT_POOL));
        let head = d.iter().filter(|&&k| k == 0).count();
        let tail = d.iter().filter(|&&k| k == 99).count();
        // P(0) = 1/H(400) ≈ 0.15, P(99) ≈ 0.0015
        assert!(head > 200 && head < 400, "{head}");
        assert!(tail < 15, "{tail}");
    }

    #[test]
    fn serve_mix_and_portfolio_cadence() {
        let inputs = Workload::ServeUnique.inputs(1);
        let reqs: Vec<Request> = (0..1000).map(|i| inputs.request(i)).collect();
        let unsat = reqs
            .iter()
            .filter(|r| matches!(r.case.expect, Expect::Unsat(_)))
            .count();
        let transform = reqs
            .iter()
            .filter(|r| r.case.template == "transform")
            .count();
        assert!((60..140).contains(&unsat), "{unsat}");
        assert!((240..360).contains(&transform), "{transform}");
        assert_eq!(reqs.iter().filter(|r| r.portfolio).count(), 250);
        let repeat = Workload::ServeRepeat.inputs(1);
        assert!((0..100).all(|i| !repeat.request(i).portfolio));
    }

    #[test]
    fn generation_lengths_stay_in_range() {
        let mut rng = Rng::new(5);
        for _ in 0..500 {
            for case in [pick(&mut rng, GENERATION), transform(&mut rng)] {
                if let Expect::Sat(Value::Str(w)) = &case.expect {
                    assert!((MIN_LEN..=MAX_LEN).contains(&w.len()), "{case:?}");
                }
            }
        }
    }
}
