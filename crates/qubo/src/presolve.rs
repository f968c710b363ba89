//! Model preprocessing: variable fixing, reduction, and normalization.
//!
//! QUBO preprocessing (Lewis & Glover, the paper's reference [37]) shrinks
//! models before sampling. Two standard passes are provided:
//!
//! * **variable fixing** — substitute a known value for a variable and
//!   fold its terms into the remaining model;
//! * **persistency reduction** — variables whose linear term dominates
//!   the sum of their coupling magnitudes take a forced value in *every*
//!   ground state and can be fixed automatically;
//! * **normalization** — rescale coefficients into a target range, as
//!   required before programming physical hardware.

use crate::{QuboModel, Var};

/// The result of fixing variables: a smaller model plus the mapping back
/// to the original variable space.
#[derive(Debug, Clone)]
pub struct ReducedModel {
    /// The reduced model over the surviving variables.
    pub model: QuboModel,
    /// For each original variable: `Some(value)` if fixed, `None` if free.
    pub fixed: Vec<Option<u8>>,
    /// Original index of each surviving variable (reduced → original).
    pub kept: Vec<Var>,
}

impl ReducedModel {
    /// Lifts a reduced-space state back to the original variable space.
    ///
    /// # Panics
    /// Panics when the state length does not match the reduced model.
    pub fn lift(&self, reduced_state: &[u8]) -> Vec<u8> {
        assert_eq!(
            reduced_state.len(),
            self.kept.len(),
            "reduced state length mismatch"
        );
        let mut full: Vec<u8> = self.fixed.iter().map(|f| f.unwrap_or(0)).collect();
        for (r, &orig) in self.kept.iter().enumerate() {
            full[orig as usize] = reduced_state[r];
        }
        full
    }

    /// Number of variables eliminated.
    pub fn num_fixed(&self) -> usize {
        self.fixed.iter().filter(|f| f.is_some()).count()
    }
}

/// Fixes the given `(variable, value)` assignments, returning the reduced
/// model. Energies are preserved: for any completion of the free
/// variables, `reduced.energy(free) == original.energy(lifted)`.
///
/// # Panics
/// Panics on out-of-range variables, non-binary values, or duplicates.
pub fn fix_variables(model: &QuboModel, assignments: &[(Var, u8)]) -> ReducedModel {
    let n = model.num_vars();
    let mut fixed: Vec<Option<u8>> = vec![None; n];
    for &(v, val) in assignments {
        assert!((v as usize) < n, "variable {v} out of range");
        assert!(val <= 1, "assignment must be binary");
        assert!(fixed[v as usize].is_none(), "variable {v} fixed twice");
        fixed[v as usize] = Some(val);
    }
    let kept: Vec<Var> = (0..n as Var)
        .filter(|&v| fixed[v as usize].is_none())
        .collect();
    let mut new_index = vec![u32::MAX; n];
    for (r, &orig) in kept.iter().enumerate() {
        new_index[orig as usize] = r as u32;
    }
    let mut reduced = QuboModel::new(kept.len());
    reduced.add_offset(model.offset());
    for (i, &q) in model.linear_terms().iter().enumerate() {
        if q == 0.0 {
            continue;
        }
        match fixed[i] {
            Some(1) => reduced.add_offset(q),
            Some(_) => {}
            None => reduced.add_linear(new_index[i], q),
        }
    }
    for (i, j, q) in model.quadratic_iter() {
        match (fixed[i as usize], fixed[j as usize]) {
            (Some(1), Some(1)) => reduced.add_offset(q),
            (Some(_), Some(_)) => {}
            (Some(1), None) => reduced.add_linear(new_index[j as usize], q),
            (None, Some(1)) => reduced.add_linear(new_index[i as usize], q),
            (Some(_), None) | (None, Some(_)) => {}
            (None, None) => reduced.add_quadratic(new_index[i as usize], new_index[j as usize], q),
        }
    }
    ReducedModel {
        model: reduced,
        fixed,
        kept,
    }
}

/// Persistency pass: finds variables whose optimal value is forced
/// regardless of the rest of the model.
///
/// If `q_ii + Σ_j min(0, q_ij) > 0`, setting `x_i = 1` can never lower the
/// energy, so `x_i = 0` in every ground state; symmetrically, if
/// `q_ii + Σ_j max(0, q_ij) < 0`, then `x_i = 1`. Returns the forced
/// assignments (possibly empty).
pub fn persistent_assignments(model: &QuboModel) -> Vec<(Var, u8)> {
    let n = model.num_vars();
    let mut neg_sum = vec![0.0f64; n];
    let mut pos_sum = vec![0.0f64; n];
    for (i, j, q) in model.quadratic_iter() {
        if q < 0.0 {
            neg_sum[i as usize] += q;
            neg_sum[j as usize] += q;
        } else {
            pos_sum[i as usize] += q;
            pos_sum[j as usize] += q;
        }
    }
    let mut out = Vec::new();
    for v in 0..n {
        let lin = model.linear(v as Var);
        if lin + neg_sum[v] > 0.0 {
            out.push((v as Var, 0u8));
        } else if lin + pos_sum[v] < 0.0 {
            out.push((v as Var, 1u8));
        }
    }
    out
}

/// Applies the persistency pass repeatedly until a fixed point, returning
/// the fully reduced model.
pub fn presolve(model: &QuboModel) -> ReducedModel {
    let mut current = ReducedModel {
        model: model.clone(),
        fixed: vec![None; model.num_vars()],
        kept: (0..model.num_vars() as Var).collect(),
    };
    loop {
        let forced = persistent_assignments(&current.model);
        if forced.is_empty() {
            return current;
        }
        let next = fix_variables(&current.model, &forced);
        // Compose the mappings.
        let mut fixed = current.fixed.clone();
        for (r, &orig) in current.kept.iter().enumerate() {
            if let Some(v) = next.fixed[r] {
                fixed[orig as usize] = Some(v);
            }
        }
        let kept: Vec<Var> = next
            .kept
            .iter()
            .map(|&r| current.kept[r as usize])
            .collect();
        current = ReducedModel {
            model: next.model,
            fixed,
            kept,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QuboModel {
        // E = -2 x0 + x1 + 3 x0 x1 - x1 x2
        let mut m = QuboModel::new(3);
        m.add_linear(0, -2.0);
        m.add_linear(1, 1.0);
        m.add_quadratic(0, 1, 3.0);
        m.add_quadratic(1, 2, -1.0);
        m
    }

    #[test]
    fn fixing_preserves_energies() {
        let m = sample();
        let red = fix_variables(&m, &[(0, 1)]);
        assert_eq!(red.model.num_vars(), 2);
        for bits in 0u32..4 {
            let free: Vec<u8> = (0..2).map(|i| ((bits >> i) & 1) as u8).collect();
            let full = red.lift(&free);
            assert_eq!(full[0], 1);
            assert!((red.model.energy(&free) - m.energy(&full)).abs() < 1e-12);
        }
    }

    #[test]
    fn fixing_to_zero_drops_terms() {
        let m = sample();
        let red = fix_variables(&m, &[(1, 0)]);
        // With x1 = 0 the couplings disappear entirely.
        assert_eq!(red.model.num_interactions(), 0);
        assert_eq!(red.model.linear(0), -2.0);
    }

    #[test]
    fn lift_restores_original_indexing() {
        let m = sample();
        let red = fix_variables(&m, &[(1, 1)]);
        let full = red.lift(&[1, 0]); // x0 = 1, x2 = 0
        assert_eq!(full, vec![1, 1, 0]);
        assert_eq!(red.num_fixed(), 1);
    }

    #[test]
    fn persistency_finds_forced_variables() {
        // x0: lin 5, worst-case negative couplings 0 ⇒ forced 0.
        // x1: lin -5, positive couplings 0 ⇒ forced 1.
        let mut m = QuboModel::new(3);
        m.add_linear(0, 5.0);
        m.add_linear(1, -5.0);
        m.add_quadratic(0, 2, 1.0);
        m.add_quadratic(1, 2, -1.0);
        let forced = persistent_assignments(&m);
        assert!(forced.contains(&(0, 0)));
        assert!(forced.contains(&(1, 1)));
    }

    #[test]
    fn presolve_reaches_fixed_point_and_preserves_ground() {
        let m = sample();
        let red = presolve(&m);
        let (ground, states) = m.brute_force_ground_states();
        // Complete the reduced model exhaustively and compare.
        let k = red.model.num_vars();
        let mut best = f64::INFINITY;
        let mut best_state = Vec::new();
        for bits in 0u32..(1 << k) {
            let free: Vec<u8> = (0..k).map(|i| ((bits >> i) & 1) as u8).collect();
            let e = red.model.energy(&free);
            if e < best {
                best = e;
                best_state = red.lift(&free);
            }
        }
        assert!((best - ground).abs() < 1e-12);
        assert!(states.contains(&best_state));
    }

    #[test]
    fn presolve_fully_solves_diagonal_models() {
        // The paper's equality encodings are diagonal-only: presolve must
        // fix every variable.
        let mut m = QuboModel::new(4);
        for (i, v) in [(0u32, -1.0), (1, 1.0), (2, -1.0), (3, 1.0)] {
            m.add_linear(i, v);
        }
        let red = presolve(&m);
        assert_eq!(red.model.num_vars(), 0);
        assert_eq!(red.lift(&[]), vec![1, 0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "fixed twice")]
    fn duplicate_fix_panics() {
        fix_variables(&sample(), &[(0, 1), (0, 0)]);
    }
}
