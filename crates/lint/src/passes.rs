//! The lint passes. Each pass is a pure function from a model (plus
//! config) to zero or more [`Diagnostic`]s; [`run_qubo_passes`] runs
//! them all, and [`crate::lint_qubo`] wraps the result in a
//! [`crate::LintReport`].

use crate::config::LintConfig;
use crate::diagnostic::{Diagnostic, LintCode};
use crate::structure::{infer_groups, OneHotGroup};
use qsmt_qubo::{persistent_assignments, QuboModel, Var};
use std::collections::HashMap;

/// Formats a (possibly truncated) variable list for a message.
fn var_list(vars: &[Var], max: usize) -> String {
    let shown: Vec<String> = vars.iter().take(max).map(|v| format!("x{v}")).collect();
    if vars.len() > max {
        format!("{}, … ({} total)", shown.join(", "), vars.len())
    } else {
        shown.join(", ")
    }
}

/// Pass 1: penalty-gap analysis over inferred one-hot groups.
///
/// Soundness certificate: for a member `u` of a penalty group, given that
/// member `v` is already on, turning `u` on changes the energy by at least
///
/// ```text
/// Δ_lb(u | v) = l_u + w_uv + Σ_{j ∉ G, q_uj < 0} q_uj
/// ```
///
/// (the linear term, the intra-group penalty coupling, and the worst-case
/// pull of every negative external coupling). A pair violation `{u, v}`
/// can only be energetically favorable when it resists dropping *either*
/// member — i.e. when `Δ_lb(u|v) < 0` **and** `Δ_lb(v|u) < 0`. If one of
/// the two bounds stays nonnegative for every pair, any violating state
/// can be repaired by removing members without ever raising the energy
/// (intra-group couplings are positive, so removals only get cheaper),
/// and the exactly/at-most-one intent is enforced. When both bounds go
/// negative the penalty is too weak to dominate the objective's reachable
/// spread — the failure mode Bian et al. report for under-weighted SAT
/// penalties — and we flag it as an error. Returns the set of groups
/// flagged (so the one-hot pass can avoid double-reporting).
pub fn penalty_gap(
    model: &QuboModel,
    groups: &[OneHotGroup],
    cfg: &LintConfig,
) -> (Vec<Diagnostic>, Vec<bool>) {
    let mut diagnostics = Vec::new();
    let mut flagged = vec![false; groups.len()];
    for (g, group) in groups.iter().enumerate() {
        let in_group: std::collections::HashSet<Var> = group.vars.iter().copied().collect();
        // Worst-case negative external pull per member.
        let mut ext_min: HashMap<Var, f64> = group.vars.iter().map(|&v| (v, 0.0)).collect();
        for (i, j, q) in model.quadratic_iter() {
            if q < 0.0 {
                if in_group.contains(&i) && !in_group.contains(&j) {
                    *ext_min.get_mut(&i).expect("group member") += q;
                }
                if in_group.contains(&j) && !in_group.contains(&i) {
                    *ext_min.get_mut(&j).expect("group member") += q;
                }
            }
        }
        let delta = |u: Var, v: Var| model.linear(u) + model.quadratic(u, v) + ext_min[&u];
        // Worst pair = the one whose *better* repair direction is most
        // negative (both directions must fail for a true violation).
        let mut worst: Option<(Var, Var, f64)> = None;
        for (a, &u) in group.vars.iter().enumerate() {
            for &v in &group.vars[a + 1..] {
                let margin = delta(u, v).max(delta(v, u));
                if worst.is_none_or(|(_, _, w)| margin < w) {
                    worst = Some((u, v, margin));
                }
            }
        }
        if let Some((u, v, margin)) = worst {
            if margin < -cfg.tolerance {
                flagged[g] = true;
                diagnostics.push(
                    Diagnostic::new(
                        LintCode::PenaltyGap,
                        format!(
                            "penalty too weak on group {{{}}}: the pair x{u}, x{v} can both turn \
                             on and lower the energy by at least {:.4} over every one-hot state \
                             (add-deltas {:.4} and {:.4} with pair coupling {:.4}); raise the \
                             penalty strength",
                            var_list(&group.vars, cfg.max_listed_vars),
                            -margin,
                            delta(u, v),
                            delta(v, u),
                            model.quadratic(u, v),
                        ),
                    )
                    .with_vars(group.vars.clone())
                    .with_metric(margin),
                );
            }
        }
    }
    (diagnostics, flagged)
}

/// The lowest-energy multi-hot subset (≥ 2 members on) of a group's
/// *isolated* sub-model (intra-group linear and quadratic terms only), by
/// exact enumeration: the first strictly lowest mask in increasing order.
///
/// The group's weights are copied into a `k × k` table once, and each
/// mask's energy extends the energy of the mask without its lowest
/// member by that member's row, so a mask costs `O(k)`, not `O(k²)`
/// model lookups.
fn best_multi_hot(model: &QuboModel, members: &[Var]) -> Option<(u32, f64)> {
    let k = members.len();
    let linear: Vec<f64> = members.iter().map(|&v| model.linear(v)).collect();
    let mut pair = vec![0.0f64; k * k];
    for a in 0..k {
        for b in a + 1..k {
            let q = model.quadratic(members[a], members[b]);
            pair[a * k + b] = q;
            pair[b * k + a] = q;
        }
    }
    let mut energy = vec![0.0f64; 1 << k];
    let mut best: Option<(u32, f64)> = None;
    for mask in 1u32..(1 << k) {
        let low = mask.trailing_zeros() as usize;
        let rest = mask & (mask - 1);
        let row = &pair[low * k..(low + 1) * k];
        let mut e = energy[rest as usize] + linear[low];
        let mut others = rest;
        while others != 0 {
            e += row[others.trailing_zeros() as usize];
            others &= others - 1;
        }
        energy[mask as usize] = e;
        if rest != 0 && best.is_none_or(|(_, b)| e < b) {
            best = Some((mask, e));
        }
    }
    best
}

/// Pass 1b: one-hot group validation on the *isolated* group.
///
/// Two checks per inferred group, using only the group's own linear and
/// pairwise terms:
///
/// * **zero-hot escape** — a group whose uniform positive clique matches
///   the compiled shape of `exactly_one(A = w/2)` but where *every*
///   member's net linear term is positive cannot hold: the all-zero
///   state beats every one-hot state, so an exactly-one intent is
///   violated (and an at-most-one guard whose indicators can never
///   activate is equally suspect).
/// * **multi-hot search** — no multi-hot assignment (≥ 2 members on) may
///   beat the best admissible one (≤ 1 on). Exact subset enumeration up
///   to `cfg.max_exact_group` members, greedy counterexample search
///   beyond that (greedy can miss violations but never fabricates one).
///
/// Groups already flagged by [`penalty_gap`] are skipped.
pub fn one_hot_weak(
    model: &QuboModel,
    groups: &[OneHotGroup],
    already_flagged: &[bool],
    cfg: &LintConfig,
) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    for (g, group) in groups.iter().enumerate() {
        if already_flagged[g] {
            continue;
        }
        let members = &group.vars;
        // Zero-hot escape on uniform cliques.
        let uniform = group.max_pair_weight - group.min_pair_weight
            <= cfg.tolerance * group.max_pair_weight.abs().max(1.0);
        let min_linear = members
            .iter()
            .map(|&v| model.linear(v))
            .fold(f64::INFINITY, f64::min);
        if uniform && min_linear > cfg.tolerance {
            let strength = group.min_pair_weight / 2.0;
            diagnostics.push(
                Diagnostic::new(
                    LintCode::OneHotWeak,
                    format!(
                        "group {{{}}} (uniform penalty clique, strength ≈ {strength:.4}) cannot \
                         activate: every member's net linear term is positive (min {min_linear:.4}), \
                         so the all-zero state beats every one-hot state — an exactly-one intent \
                         is violated and an at-most-one guard is vacuous",
                        var_list(members, cfg.max_listed_vars),
                    ),
                )
                .with_vars(members.clone())
                .with_metric(min_linear),
            );
            continue;
        }
        let admissible = members
            .iter()
            .map(|&v| model.linear(v))
            .fold(0.0f64, f64::min);
        let violation = if members.len() <= cfg.max_exact_group {
            best_multi_hot(model, members)
        } else {
            greedy_multi_hot(model, members)
        };
        if let Some((mask, e)) = violation {
            if e < admissible - cfg.tolerance {
                let on: Vec<Var> = members
                    .iter()
                    .enumerate()
                    .filter(|(a, _)| mask & (1 << *a) != 0)
                    .map(|(_, &v)| v)
                    .collect();
                diagnostics.push(
                    Diagnostic::new(
                        LintCode::OneHotWeak,
                        format!(
                            "group {{{}}} admits a multi-hot state: turning on {{{}}} scores \
                             {:.4} vs {:.4} for the best ≤1-hot state of the isolated group",
                            var_list(members, cfg.max_listed_vars),
                            var_list(&on, cfg.max_listed_vars),
                            e,
                            admissible,
                        ),
                    )
                    .with_vars(members.clone())
                    .with_metric(e - admissible),
                );
            }
        }
    }
    diagnostics
}

/// Greedy counterexample search for groups too large to enumerate: grow a
/// set from the best pair by the most negative marginal, tracking the best
/// multi-hot energy seen.
fn greedy_multi_hot(model: &QuboModel, members: &[Var]) -> Option<(u32, f64)> {
    // Indices into `members`, bit-packed like the exact search (so the
    // caller decodes uniformly); members.len() > 32 falls back to the
    // lowest 32 (greedy is already heuristic).
    let k = members.len().min(32);
    // Best pair as the starting point.
    let mut start: Option<(usize, usize, f64)> = None;
    for a in 0..k {
        for b in a + 1..k {
            let e = model.linear(members[a])
                + model.linear(members[b])
                + model.quadratic(members[a], members[b]);
            if start.is_none_or(|(_, _, s)| e < s) {
                start = Some((a, b, e));
            }
        }
    }
    let (a0, b0, mut energy) = start?;
    let mut mask = (1u32 << a0) | (1u32 << b0);
    let mut best = Some((mask, energy));
    loop {
        let mut next: Option<(usize, f64)> = None;
        for c in 0..k {
            if mask & (1 << c) != 0 {
                continue;
            }
            let mut marginal = model.linear(members[c]);
            for a in 0..k {
                if mask & (1 << a) != 0 {
                    marginal += model.quadratic(members[c], members[a]);
                }
            }
            if next.is_none_or(|(_, m)| marginal < m) {
                next = Some((c, marginal));
            }
        }
        match next {
            Some((c, marginal)) if marginal < 0.0 => {
                mask |= 1 << c;
                energy += marginal;
                if best.is_none_or(|(_, b)| energy < b) {
                    best = Some((mask, energy));
                }
            }
            _ => break,
        }
    }
    best
}

/// Pass 2: dead (fully unconstrained) variables.
pub fn dead_variables(model: &QuboModel, cfg: &LintConfig) -> Vec<Diagnostic> {
    let mut degree = vec![0usize; model.num_vars()];
    for (i, j, _) in model.quadratic_iter() {
        degree[i as usize] += 1;
        degree[j as usize] += 1;
    }
    let dead: Vec<Var> = (0..model.num_vars() as Var)
        .filter(|&v| model.linear(v) == 0.0 && degree[v as usize] == 0)
        .collect();
    if dead.is_empty() {
        return Vec::new();
    }
    let n = dead.len();
    vec![Diagnostic::new(
        LintCode::DeadVariable,
        format!(
            "{n} variable{} with zero linear weight and no couplings ({}): every ground \
             state is 2^{n}-fold degenerate across {} — decoded solutions are \
             underdetermined unless post-selection handles these bits",
            if n == 1 { "" } else { "s" },
            var_list(&dead, cfg.max_listed_vars),
            if n == 1 { "this bit" } else { "these bits" },
        ),
    )
    .with_vars(dead)
    .with_metric(n as f64)]
}

/// Pass 2b: variables presolve would fix that survived compilation.
pub fn presolve_fixable(model: &QuboModel, cfg: &LintConfig) -> Vec<Diagnostic> {
    let forced = persistent_assignments(model);
    if forced.is_empty() {
        return Vec::new();
    }
    let vars: Vec<Var> = forced.iter().map(|&(v, _)| v).collect();
    let n = vars.len();
    vec![Diagnostic::new(
        LintCode::PresolveFixable,
        format!(
            "persistency fixes {n} of {} variable{} before sampling ({}); run presolve \
             (the solver pipeline does) or simplify the encoding",
            model.num_vars(),
            if n == 1 { "" } else { "s" },
            var_list(&vars, cfg.max_listed_vars),
        ),
    )
    .with_vars(vars)
    .with_metric(n as f64)]
}

/// Smallest nonzero absolute coefficient over linear + quadratic terms.
fn min_abs_nonzero(values: impl Iterator<Item = f64>) -> Option<f64> {
    values
        .map(f64::abs)
        .filter(|&a| a > 0.0)
        .fold(None, |acc, a| Some(acc.map_or(a, |m: f64| m.min(a))))
}

/// Pass 4: conditioning and hardware precision.
///
/// Models the standard programming flow: coefficients are rescaled so the
/// largest magnitude hits the device's programmable limit, then rounded to
/// the DAC's quantization step. Coefficients whose scaled magnitude falls
/// below half a step vanish entirely.
pub fn conditioning(model: &QuboModel, cfg: &LintConfig) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    let max_abs = model.max_abs_coefficient();
    let coeffs = || {
        model
            .linear_terms()
            .iter()
            .copied()
            .chain(model.quadratic_iter().map(|(_, _, q)| q))
    };
    let Some(min_abs) = min_abs_nonzero(coeffs()) else {
        return diagnostics;
    };
    let precision = &cfg.precision;
    let step = precision.quantization_step();
    let limit = precision.coupler_limit();
    let ratio = max_abs / min_abs;
    if ratio > precision.dynamic_range() {
        diagnostics.push(
            Diagnostic::new(
                LintCode::DynamicRange,
                format!(
                    "coefficient dynamic range {ratio:.1} exceeds the {} representable \
                     range {:.1} ({} bits over ±{:.1}); small terms will be distorted \
                     or erased when programmed",
                    precision.name,
                    precision.dynamic_range(),
                    precision.resolution_bits,
                    limit,
                ),
            )
            .with_metric(ratio),
        );
    }
    let scale = limit / max_abs;
    let erased = coeffs()
        .filter(|&c| c != 0.0 && c.abs() * scale < step / 2.0)
        .count();
    if erased > 0 {
        diagnostics.push(
            Diagnostic::new(
                LintCode::PrecisionLoss,
                format!(
                    "{erased} nonzero coefficient{} quantize to zero at {} resolution \
                     (|c| · {scale:.3} < step/2 = {:.5}) after scaling into hardware range",
                    if erased == 1 { "" } else { "s" },
                    precision.name,
                    step / 2.0,
                ),
            )
            .with_metric(erased as f64),
        );
    }
    // Chain-strength feasibility: embedding adds ferromagnetic chain
    // couplings of strength `s`; if `s` exceeds every problem coefficient,
    // rescaling the embedded model into range squeezes the problem terms.
    if model.num_interactions() > 0 {
        let s = crate::chain_strength(model);
        if s > max_abs {
            let embedded_scale = limit / s;
            if min_abs * embedded_scale < step / 2.0 && min_abs * scale >= step / 2.0 {
                diagnostics.push(
                    Diagnostic::new(
                        LintCode::ChainStrength,
                        format!(
                            "required chain strength {s:.3} dominates the largest problem \
                             coefficient {max_abs:.3}: after embedding, the smallest problem \
                             term {min_abs:.4} falls below {} coupler resolution",
                            precision.name,
                        ),
                    )
                    .with_metric(s / max_abs),
                );
            }
        }
    }
    diagnostics
}

/// Pass 5a: disconnected interaction-graph components.
pub fn connectivity(model: &QuboModel, cfg: &LintConfig) -> Vec<Diagnostic> {
    let mut sizes: Vec<usize> = model
        .components()
        .iter()
        .map(Vec::len)
        .filter(|&size| size >= 2)
        .collect();
    if sizes.len() < 2 {
        return Vec::new();
    }
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    let shown: Vec<String> = sizes
        .iter()
        .take(cfg.max_listed_vars)
        .map(ToString::to_string)
        .collect();
    vec![Diagnostic::new(
        LintCode::DisconnectedComponents,
        format!(
            "interaction graph splits into {} independent components (sizes {}{}); each \
             can be solved separately",
            sizes.len(),
            shown.join(", "),
            if sizes.len() > cfg.max_listed_vars {
                ", …"
            } else {
                ""
            },
        ),
    )
    .with_metric(sizes.len() as f64)]
}

/// Pass 5b: interchangeable variable pairs (exact energy symmetry).
///
/// Two variables are interchangeable when swapping them leaves every
/// energy unchanged: equal linear terms and identical neighbor weight
/// profiles (ignoring any direct coupling between the two). Each such
/// pair is a ground-state symmetry: every ground state maps to another
/// under the swap, so degeneracy is structural, not accidental.
pub fn degenerate_symmetry(model: &QuboModel, cfg: &LintConfig) -> Vec<Diagnostic> {
    let n = model.num_vars();
    // Sorted neighbor profile per variable, with f64 keyed by bits for
    // exact comparison/hashing.
    let mut neighbors: Vec<Vec<(Var, u64)>> = vec![Vec::new(); n];
    for (i, j, q) in model.quadratic_iter() {
        neighbors[i as usize].push((j, q.to_bits()));
        neighbors[j as usize].push((i, q.to_bits()));
    }
    for nb in &mut neighbors {
        nb.sort_unstable();
    }
    let profile_without = |v: usize, exclude: Var| -> Vec<(Var, u64)> {
        neighbors[v]
            .iter()
            .copied()
            .filter(|&(u, _)| u != exclude)
            .collect()
    };
    let mut pairs: Vec<(Var, Var)> = Vec::new();
    // Case 1: uncoupled pairs — identical full signature (linear term
    // bits + sorted neighbor profile).
    type Signature = (u64, Vec<(Var, u64)>);
    let mut buckets: HashMap<Signature, Vec<Var>> = HashMap::new();
    for (v, profile) in neighbors.iter().enumerate() {
        if profile.is_empty() {
            continue; // isolated vars are dead or trivially independent
        }
        buckets
            .entry((model.linear(v as Var).to_bits(), profile.clone()))
            .or_default()
            .push(v as Var);
    }
    for bucket in buckets.values() {
        for (a, &u) in bucket.iter().enumerate() {
            for &v in &bucket[a + 1..] {
                pairs.push((u, v));
            }
        }
    }
    // Case 2: coupled pairs — identical signature after removing each other.
    for (i, j, _) in model.quadratic_iter() {
        if model.linear(i).to_bits() == model.linear(j).to_bits()
            && profile_without(i as usize, j) == profile_without(j as usize, i)
        {
            pairs.push((i.min(j), i.max(j)));
        }
    }
    if pairs.is_empty() {
        return Vec::new();
    }
    pairs.sort_unstable();
    pairs.dedup();
    let shown: Vec<String> = pairs
        .iter()
        .take(cfg.max_listed_vars)
        .map(|&(u, v)| format!("(x{u},x{v})"))
        .collect();
    let involved: Vec<Var> = pairs.iter().flat_map(|&(u, v)| [u, v]).collect();
    vec![Diagnostic::new(
        LintCode::DegenerateSymmetry,
        format!(
            "{} interchangeable variable pair{} ({}{}): the energy function has exact swap \
             symmetries, so ground states come in equivalence classes (expected for \
             palindrome/equality encodings; otherwise consider symmetry breaking)",
            pairs.len(),
            if pairs.len() == 1 { "" } else { "s" },
            shown.join(", "),
            if pairs.len() > cfg.max_listed_vars {
                ", …"
            } else {
                ""
            },
        ),
    )
    .with_vars(involved)
    .with_metric(pairs.len() as f64)]
}

/// Runs every QUBO pass and returns the diagnostics in discovery order.
pub fn run_qubo_passes(model: &QuboModel, cfg: &LintConfig) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    let groups = infer_groups(model);
    let (gap, flagged) = penalty_gap(model, &groups, cfg);
    diagnostics.extend(gap);
    diagnostics.extend(one_hot_weak(model, &groups, &flagged, cfg));
    diagnostics.extend(dead_variables(model, cfg));
    diagnostics.extend(presolve_fixable(model, cfg));
    diagnostics.extend(conditioning(model, cfg));
    diagnostics.extend(connectivity(model, cfg));
    diagnostics.extend(degenerate_symmetry(model, cfg));
    diagnostics
}
