//! The independent oracle: SMT-LIB string semantics for the generated
//! fragment, and parsers for the models the CLI prints and the serve
//! report embeds. A verdict counts only after it passes here.

use crate::generate::{Assert, Case, Expect, Ground, Re, Value};
use crate::json::Json;
use std::collections::BTreeSet;

/// SMT-LIB evaluation of a ground term. `str.replace` rewrites the first
/// occurrence, `str.replace_all` every non-overlapping one (an empty
/// pattern prepends, respectively leaves the string alone).
pub fn eval_ground(g: &Ground) -> String {
    fn replace_first(s: &str, from: &str, to: &str) -> String {
        if from.is_empty() {
            return format!("{to}{s}");
        }
        match s.find(from) {
            Some(i) => format!("{}{to}{}", &s[..i], &s[i + from.len()..]),
            None => s.to_string(),
        }
    }
    fn replace_all(s: &str, from: &str, to: &str) -> String {
        if from.is_empty() {
            return s.to_string();
        }
        let mut out = String::new();
        let mut rest = s;
        while let Some(i) = rest.find(from) {
            out.push_str(&rest[..i]);
            out.push_str(to);
            rest = &rest[i + from.len()..];
        }
        out.push_str(rest);
        out
    }
    match g {
        Ground::Lit(s) => s.clone(),
        Ground::Rev(inner) => eval_ground(inner).chars().rev().collect(),
        Ground::Replace(inner, a, b) => {
            replace_first(&eval_ground(inner), &a.to_string(), &b.to_string())
        }
        Ground::ReplaceAll(inner, a, b) => {
            replace_all(&eval_ground(inner), &a.to_string(), &b.to_string())
        }
        Ground::Concat(inner, s) => format!("{}{s}", eval_ground(inner)),
    }
}

/// Every position at which a match of `re` that starts at `start` can end.
fn ends(re: &Re, s: &[char], start: usize) -> BTreeSet<usize> {
    let one = |ok: bool| -> BTreeSet<usize> {
        if ok {
            BTreeSet::from([start + 1])
        } else {
            BTreeSet::new()
        }
    };
    match re {
        Re::Lit(lit) => {
            let lit: Vec<char> = lit.chars().collect();
            if s[start..].starts_with(&lit) {
                BTreeSet::from([start + lit.len()])
            } else {
                BTreeSet::new()
            }
        }
        Re::Range(a, b) => one(s.get(start).is_some_and(|c| (a..=b).contains(&c))),
        Re::AllChar => one(start < s.len()),
        Re::Concat(parts) => parts.iter().fold(BTreeSet::from([start]), |at, part| {
            at.iter().flat_map(|&p| ends(part, s, p)).collect()
        }),
        Re::Union(parts) => parts.iter().flat_map(|p| ends(p, s, start)).collect(),
        Re::Opt(inner) => {
            let mut out = ends(inner, s, start);
            out.insert(start);
            out
        }
        Re::Star(inner) => {
            let mut reached = BTreeSet::from([start]);
            let mut frontier = vec![start];
            while let Some(p) = frontier.pop() {
                for e in ends(inner, s, p) {
                    if reached.insert(e) {
                        frontier.push(e);
                    }
                }
            }
            reached
        }
        Re::Plus(inner) => ends(inner, s, start)
            .into_iter()
            .flat_map(|p| ends(&Re::Star(inner.clone()), s, p))
            .collect(),
    }
}

/// Whether `s` is in the language of `re` (SMT-LIB `str.in_re`).
pub fn matches(re: &Re, s: &str) -> bool {
    let chars: Vec<char> = s.chars().collect();
    ends(re, &chars, 0).contains(&chars.len())
}

/// Checks one model value against one assertion. `None` means it holds.
fn violation(a: &Assert, v: &Value) -> Option<String> {
    let s = match (a, v) {
        (Assert::IndexOf { hay, needle }, Value::Int(i)) => {
            let want = hay.find(needle.as_str()).map_or(-1, |p| p as i64);
            return (*i != want).then(|| format!("indexof is {want}, model says {i}"));
        }
        (Assert::IndexOf { .. }, Value::Str(_)) => return Some("string model for an Int".into()),
        (_, Value::Int(_)) => return Some("Int model for a String".into()),
        (_, Value::Str(s)) => s,
    };
    let len = s.chars().count();
    let ok = match a {
        Assert::Len(n) => len == *n,
        Assert::SelfRev => s.chars().rev().eq(s.chars()),
        Assert::InRe(re) => matches(re, s),
        Assert::Contains(t) => s.contains(t.as_str()),
        Assert::At(i, c) => s.chars().nth(*i) == Some(*c),
        Assert::Prefix(p) => s.starts_with(p.as_str()),
        Assert::Suffix(x) => s.ends_with(x.as_str()),
        Assert::Ground(g) => *s == eval_ground(g),
        Assert::IndexOf { .. } => unreachable!("handled above"),
    };
    (!ok).then(|| format!("{s:?} violates {a:?}"))
}

/// Checks a model against every assertion of the case.
pub fn check_model(case: &Case, v: &Value) -> Result<(), String> {
    case.asserts
        .iter()
        .find_map(|a| violation(a, v))
        .map_or(Ok(()), Err)
}

/// A solver's answer, as parsed from its output.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    Sat(Option<Value>),
    Unsat,
    Unknown,
}

/// How the oracle judged one answer.
#[derive(Clone, Debug, PartialEq)]
pub enum Judgement {
    /// `sat` with a checked model, or `unsat` on an unsat script.
    Decided,
    /// `unknown`: honest, but not an answer.
    Undecided,
    /// A wrong verdict; fails the run.
    Wrong(String),
}

pub fn judge(case: &Case, verdict: &Verdict) -> Judgement {
    match (verdict, &case.expect) {
        (Verdict::Unknown, _) => Judgement::Undecided,
        (Verdict::Unsat, Expect::Unsat(_)) => Judgement::Decided,
        (Verdict::Unsat, Expect::Sat(w)) => Judgement::Wrong(format!(
            "unsat on a sat-by-construction script (witness {w:?})"
        )),
        (Verdict::Sat(_), Expect::Unsat(reason)) => {
            Judgement::Wrong(format!("sat on an unsat-by-construction script: {reason}"))
        }
        (Verdict::Sat(None), Expect::Sat(_)) => Judgement::Wrong("sat without a model".into()),
        (Verdict::Sat(Some(v)), Expect::Sat(_)) => match check_model(case, v) {
            Ok(()) => Judgement::Decided,
            Err(e) => Judgement::Wrong(format!("model fails the oracle: {e}")),
        },
    }
}

/// Reads a Rust-debug-escaped string literal (`"a\"b\u{7f}"`) that
/// makes up all of `text`.
fn parse_debug_str(text: &str) -> Option<String> {
    let body = text.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return chars.as_str().is_empty().then_some(out),
            '\\' => {
                let e = chars.next()?;
                out.push(match e {
                    'n' => '\n',
                    'r' => '\r',
                    't' => '\t',
                    '0' => '\0',
                    '\\' | '"' | '\'' => e,
                    'u' => {
                        if chars.next()? != '{' {
                            return None;
                        }
                        let mut hex = String::new();
                        loop {
                            match chars.next()? {
                                '}' => break,
                                h => hex.push(h),
                            }
                        }
                        char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?
                    }
                    _ => return None,
                });
            }
            c => out.push(c),
        }
    }
    None
}

/// Parses a model value as printed after `() _ `: a debug string, an
/// integer, or `(- N)`.
fn parse_value(text: &str) -> Option<Value> {
    let text = text.trim();
    if text.starts_with('"') {
        return parse_debug_str(text).map(Value::Str);
    }
    if let Some(neg) = text.strip_prefix("(- ").and_then(|t| t.strip_suffix(')')) {
        return neg.trim().parse::<i64>().ok().map(|n| Value::Int(-n));
    }
    text.parse::<i64>().ok().map(Value::Int)
}

/// Parses `qsmt solve` stdout: the verdict line, then an optional
/// `(model (define-fun NAME () _ VALUE) …)` block.
pub fn parse_cli_output(stdout: &str, var: &str) -> Result<Verdict, String> {
    let mut lines = stdout.lines().filter(|l| !l.trim().is_empty());
    let status = lines.next().ok_or("empty output")?.trim();
    let prefix = format!("(define-fun {var} () _ ");
    let model = lines
        .filter_map(|l| l.trim().strip_prefix(prefix.as_str()))
        .find_map(|rest| parse_value(rest.strip_suffix(')')?));
    match status {
        "sat" => Ok(Verdict::Sat(model)),
        "unsat" => Ok(Verdict::Unsat),
        "unknown" => Ok(Verdict::Unknown),
        other => Err(format!("unexpected status line {other:?}")),
    }
}

/// Parses the run report a completed serve job embeds: `status` plus the
/// goal whose `name` is the variable. String answers are raw; index
/// answers use the model syntax (`6`, `(- 1)`).
pub fn parse_report(report: &Json, case: &Case) -> Result<Verdict, String> {
    let status = report
        .get("status")
        .and_then(Json::as_str)
        .ok_or("report lacks a status")?;
    let answer = report
        .get("goals")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .find(|g| g.get("name").and_then(Json::as_str) == Some(case.var()))
        .and_then(|g| g.get("answer").and_then(Json::as_str));
    let model = answer.and_then(|a| {
        if case.is_int() {
            parse_value(a)
        } else {
            Some(Value::Str(a.to_string()))
        }
    });
    match status {
        "sat" => Ok(Verdict::Sat(model)),
        "unsat" => Ok(Verdict::Unsat),
        "unknown" => Ok(Verdict::Unknown),
        other => Err(format!("unexpected report status {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{Rng, ALL};

    /// A model that must fail: one character longer than the witness
    /// (every string template asserts a length or an exact value), or
    /// an index one past the answer.
    fn mutate(v: &Value) -> Value {
        match v {
            Value::Str(s) => Value::Str(format!("{s}a")),
            Value::Int(i) => Value::Int(i + 1),
        }
    }

    #[test]
    fn witnesses_pass_and_mutated_models_fail_for_every_template() {
        let mut rng = Rng::new(11);
        for template in ALL {
            for _ in 0..300 {
                let case = template(&mut rng);
                match &case.expect {
                    Expect::Sat(w) => {
                        assert_eq!(check_model(&case, w), Ok(()), "{case:?}");
                        assert_eq!(
                            judge(&case, &Verdict::Sat(Some(w.clone()))),
                            Judgement::Decided
                        );
                        assert!(check_model(&case, &mutate(w)).is_err(), "{case:?}");
                        assert!(matches!(
                            judge(&case, &Verdict::Sat(Some(mutate(w)))),
                            Judgement::Wrong(_)
                        ));
                        assert!(matches!(judge(&case, &Verdict::Unsat), Judgement::Wrong(_)));
                    }
                    Expect::Unsat(_) => {
                        assert_eq!(judge(&case, &Verdict::Unsat), Judgement::Decided);
                        assert!(matches!(
                            judge(&case, &Verdict::Sat(None)),
                            Judgement::Wrong(_)
                        ));
                    }
                }
                assert_eq!(judge(&case, &Verdict::Unknown), Judgement::Undecided);
            }
        }
    }

    #[test]
    fn smtlib_replace_semantics() {
        let lit = |s: &str| Box::new(Ground::Lit(s.into()));
        assert_eq!(eval_ground(&Ground::Replace(lit("abab"), 'b', 'z')), "azab");
        assert_eq!(
            eval_ground(&Ground::ReplaceAll(lit("abab"), 'b', 'z')),
            "azaz"
        );
        assert_eq!(eval_ground(&Ground::Replace(lit("abc"), 'q', 'z')), "abc");
        assert_eq!(
            eval_ground(&Ground::Concat(
                Box::new(Ground::Rev(lit("ab"))),
                "cd".into()
            )),
            "bacd"
        );
    }

    #[test]
    fn regex_matcher_follows_smtlib() {
        let re = Re::Concat(vec![
            Re::Lit("a".into()),
            Re::Plus(Box::new(Re::Union(vec![
                Re::Lit("b".into()),
                Re::Lit("c".into()),
            ]))),
        ]);
        assert!(matches(&re, "abcb"));
        assert!(!matches(&re, "a"));
        assert!(!matches(&re, "abd"));
        let any = Re::Concat(vec![Re::AllChar, Re::Opt(Box::new(Re::Lit("x".into())))]);
        assert!(matches(&any, "\u{1}"));
        assert!(matches(&any, "`x"));
        assert!(!matches(&any, ""));
        assert!(matches(&Re::Star(Box::new(Re::Range('a', 'c'))), ""));
    }

    #[test]
    fn parses_cli_models_with_debug_escapes() {
        let out = "sat\n(model\n  (define-fun s () _ \"a\\\"b\\\\c\\u{7f}\\0\\t'\")\n)\n";
        assert_eq!(
            parse_cli_output(out, "s").unwrap(),
            Verdict::Sat(Some(Value::Str("a\"b\\c\u{7f}\0\t'".into())))
        );
        let neg = "sat\n(model\n  (define-fun i () _ (- 1))\n)\n";
        assert_eq!(
            parse_cli_output(neg, "i").unwrap(),
            Verdict::Sat(Some(Value::Int(-1)))
        );
        assert_eq!(
            parse_cli_output("sat\n(model\n  (define-fun i () _ 6)\n)\n", "i").unwrap(),
            Verdict::Sat(Some(Value::Int(6)))
        );
        assert_eq!(parse_cli_output("unsat\n", "s").unwrap(), Verdict::Unsat);
        assert!(parse_cli_output("error: boom\n", "s").is_err());
    }

    #[test]
    fn parses_serve_reports() {
        let mut rng = Rng::new(1);
        let case = ALL[0](&mut rng);
        let report = crate::json::parse(
            r#"{"status": "sat", "goals": [{"name": "s", "answer": "a\u0001b"}]}"#,
        )
        .unwrap();
        assert_eq!(
            parse_report(&report, &case).unwrap(),
            Verdict::Sat(Some(Value::Str("a\u{1}b".into())))
        );
        let unsat = crate::json::parse(r#"{"status": "unsat", "goals": []}"#).unwrap();
        assert_eq!(parse_report(&unsat, &case).unwrap(), Verdict::Unsat);
    }
}
