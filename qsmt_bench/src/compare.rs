//! `qsmt_bench compare A.json… -- B.json…`: medians and quartiles per
//! side for every (workload, metric), and a verdict per end-to-end
//! metric against its bound in `BENCHMARK.json`.

use crate::json::{self, Json};
use crate::metrics::{Catalogue, Def};
use crate::stats::quartiles;
use std::collections::BTreeMap;

#[derive(Debug, PartialEq)]
pub enum Verdict {
    WithinBound,
    Regressed,
    /// The run-to-run spread exceeds the bound, so the difference cannot
    /// be told from noise (choosing-metrics §6.5).
    Unresolved,
}

/// `(workload, metric)` → one value per results file.
type Series = BTreeMap<(String, String), Vec<f64>>;

fn load(paths: &[String], failed: &mut BTreeMap<String, f64>) -> Result<Series, String> {
    let mut out = Series::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or(format!("{path}: not a qsmt_bench results file"))?;
        for (wl, result) in workloads {
            *failed.entry(wl.clone()).or_default() +=
                result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            for (name, metric) in result
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap_or_default()
            {
                if let Some(v) = metric.get("value").and_then(Json::as_f64) {
                    out.entry((wl.clone(), name.clone())).or_default().push(v);
                }
            }
        }
    }
    Ok(out)
}

/// Judges B against A for one metric.
pub fn verdict(def: &Def, a: &[f64], b: &[f64]) -> Verdict {
    let bound = def.bound.unwrap_or(f64::INFINITY);
    let (aq1, am, aq3) = quartiles(a);
    let (bq1, bm, bq3) = quartiles(b);
    let spread = |q1: f64, m: f64, q3: f64| if m == 0.0 { 0.0 } else { (q3 - q1) / m.abs() };
    let worse = |x: f64, y: f64| if def.lower_is_better { x > y } else { x < y };
    if spread(aq1, am, aq3) > bound || spread(bq1, bm, bq3) > bound {
        // noise wider than the bound: only a clean separation counts
        let all_better = b.iter().all(|&y| a.iter().all(|&x| worse(x, y)));
        return if all_better {
            Verdict::WithinBound
        } else {
            Verdict::Unresolved
        };
    }
    let change = if am == 0.0 { 0.0 } else { (bm - am) / am.abs() };
    let worsening = if def.lower_is_better { change } else { -change };
    if worsening > bound {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    }
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: qsmt_bench compare A.json… -- B.json…")?;
    let (a_paths, b_paths) = (&args[..split], &args[split + 1..]);
    if a_paths.is_empty() || b_paths.is_empty() {
        return Err("compare needs at least one results file per side".into());
    }
    let catalogue = Catalogue::load()?;
    let (mut a_failed, mut b_failed) = (BTreeMap::new(), BTreeMap::new());
    let a = load(a_paths, &mut a_failed)?;
    let b = load(b_paths, &mut b_failed)?;
    println!(
        "{:<14} {:<36} {:>31} {:>31}  verdict",
        "workload", "metric", "A q1 / median / q3", "B q1 / median / q3"
    );
    let mut regressed = false;
    for (key, av) in &a {
        let Some(bv) = b.get(key) else { continue };
        let Some(def) = catalogue.def(&key.1) else {
            continue;
        };
        let (aq1, am, aq3) = quartiles(av);
        let (bq1, bm, bq3) = quartiles(bv);
        let label = if def.bound.is_some() {
            let v = verdict(def, av, bv);
            regressed |= v == Verdict::Regressed;
            format!("{v:?}")
        } else {
            "-".to_string()
        };
        println!(
            "{:<14} {:<36} {:>9.4} {:>10.4} {:>10.4} {:>9.4} {:>10.4} {:>10.4}  {label} ({})",
            key.0, key.1, aq1, am, aq3, bq1, bm, bq3, def.unit
        );
    }
    for (wl, &bf) in &b_failed {
        let af = a_failed.get(wl).copied().unwrap_or(0.0);
        if bf > af {
            println!("{wl}: failed requests rose from {af} to {bf}: Regressed");
            regressed = true;
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(lower: bool, bound: f64) -> Def {
        Def {
            name: "x".into(),
            unit: "ms".into(),
            lower_is_better: lower,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            verdict(&def(true, 0.1), &a, &[10.5, 10.4, 10.6]),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&def(true, 0.1), &a, &[12.0, 12.1, 11.9]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&def(false, 0.1), &a, &[8.0, 8.1, 7.9]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&def(false, 0.1), &a, &[12.0, 12.1, 11.9]),
            Verdict::WithinBound
        );
        let noisy = [5.0, 10.0, 15.0, 20.0];
        assert_eq!(
            verdict(&def(true, 0.1), &noisy, &[11.0, 12.0, 13.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&def(true, 0.1), &noisy, &[1.0, 2.0, 3.0]),
            Verdict::WithinBound
        );
    }
}
