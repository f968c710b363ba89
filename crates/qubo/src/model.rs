//! Sparse QUBO model representation and energy evaluation.

use crate::hash::FxBuildHasher;
use qsmt_telemetry::QuboShape;
use std::collections::HashMap;

/// A variable index into a [`QuboModel`].
pub type Var = u32;

/// Packs an ordered pair `(i, j)` with `i < j` into a single map key.
#[inline]
fn pack(i: Var, j: Var) -> u64 {
    debug_assert!(i < j);
    ((i as u64) << 32) | j as u64
}

#[inline]
fn unpack(key: u64) -> (Var, Var) {
    ((key >> 32) as Var, key as Var)
}

/// A sparse Quadratic Unconstrained Binary Optimization model.
///
/// Energy of a binary assignment `x`:
///
/// ```text
/// E(x) = Σ_i linear[i]·x_i + Σ_{i<j} quadratic[(i,j)]·x_i·x_j + offset
/// ```
///
/// Quadratic coefficients are stored upper-triangular: `add_quadratic(i, j, v)`
/// and `add_quadratic(j, i, v)` accumulate into the same entry. A coefficient
/// on the diagonal (`i == j`) folds into the linear term, because `x² = x`
/// for binary `x`.
#[derive(Debug, Clone, Default)]
pub struct QuboModel {
    num_vars: usize,
    linear: Vec<f64>,
    quadratic: HashMap<u64, f64, FxBuildHasher>,
    offset: f64,
}

impl QuboModel {
    /// Creates a model over `num_vars` binary variables with all-zero
    /// coefficients.
    pub fn new(num_vars: usize) -> Self {
        Self {
            num_vars,
            linear: vec![0.0; num_vars],
            quadratic: HashMap::default(),
            offset: 0.0,
        }
    }

    /// Number of variables in the model.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of nonzero quadratic interactions.
    #[inline]
    pub fn num_interactions(&self) -> usize {
        self.quadratic.len()
    }

    /// Constant energy offset.
    #[inline]
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Adds `v` to the constant offset.
    pub fn add_offset(&mut self, v: f64) {
        self.offset += v;
    }

    /// Grows the model to at least `n` variables (new variables get zero
    /// coefficients). Shrinking is not supported.
    pub fn grow_to(&mut self, n: usize) {
        if n > self.num_vars {
            self.linear.resize(n, 0.0);
            self.num_vars = n;
        }
        debug_assert!(self.check_invariants().is_ok());
    }

    /// Adds `v` to the linear (diagonal) coefficient of variable `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn add_linear(&mut self, i: Var, v: f64) {
        self.linear[i as usize] += v;
    }

    /// Overwrites the linear coefficient of variable `i`.
    #[inline]
    pub fn set_linear(&mut self, i: Var, v: f64) {
        self.linear[i as usize] = v;
    }

    /// The linear coefficient of variable `i`.
    #[inline]
    pub fn linear(&self, i: Var) -> f64 {
        self.linear[i as usize]
    }

    /// All linear coefficients, indexed by variable.
    #[inline]
    pub fn linear_terms(&self) -> &[f64] {
        &self.linear
    }

    /// Adds `v` to the quadratic coefficient of the pair `(i, j)`.
    ///
    /// Order-insensitive; `i == j` folds into the linear term (binary
    /// idempotence). Entries that cancel to exactly zero are removed.
    ///
    /// # Panics
    /// Panics if either index is out of range.
    pub fn add_quadratic(&mut self, i: Var, j: Var, v: f64) {
        assert!(
            (i as usize) < self.num_vars && (j as usize) < self.num_vars,
            "quadratic index out of range: ({i}, {j}) with {} vars",
            self.num_vars
        );
        if i == j {
            self.add_linear(i, v);
            return;
        }
        let key = if i < j { pack(i, j) } else { pack(j, i) };
        let entry = self.quadratic.entry(key).or_insert(0.0);
        *entry += v;
        if *entry == 0.0 {
            self.quadratic.remove(&key);
        }
    }

    /// Overwrites the quadratic coefficient of the pair `(i, j)`.
    ///
    /// This is the "conflicting entries overwrite" semantics the paper's
    /// substring-matching formulation (§4.3) relies on.
    pub fn set_quadratic(&mut self, i: Var, j: Var, v: f64) {
        assert!(
            (i as usize) < self.num_vars && (j as usize) < self.num_vars,
            "quadratic index out of range"
        );
        if i == j {
            self.set_linear(i, v);
            return;
        }
        let key = if i < j { pack(i, j) } else { pack(j, i) };
        if v == 0.0 {
            self.quadratic.remove(&key);
        } else {
            self.quadratic.insert(key, v);
        }
    }

    /// The quadratic coefficient of the pair `(i, j)` (0.0 when absent).
    pub fn quadratic(&self, i: Var, j: Var) -> f64 {
        if i == j {
            return 0.0;
        }
        let key = if i < j { pack(i, j) } else { pack(j, i) };
        self.quadratic.get(&key).copied().unwrap_or(0.0)
    }

    /// Iterates over the nonzero quadratic entries as `(i, j, coeff)` with
    /// `i < j`, in unspecified order.
    pub fn quadratic_iter(&self) -> impl Iterator<Item = (Var, Var, f64)> + '_ {
        self.quadratic.iter().map(|(&k, &v)| {
            let (i, j) = unpack(k);
            (i, j, v)
        })
    }

    /// Evaluates the energy of a binary assignment.
    ///
    /// # Panics
    /// Panics if `state.len() != num_vars()`.
    pub fn energy(&self, state: &[u8]) -> f64 {
        assert_eq!(
            state.len(),
            self.num_vars,
            "state length does not match variable count"
        );
        crate::debug_check_state(state);
        let mut e = self.offset;
        for (i, &q) in self.linear.iter().enumerate() {
            if state[i] == 1 {
                e += q;
            }
        }
        for (&key, &q) in &self.quadratic {
            let (i, j) = unpack(key);
            if state[i as usize] == 1 && state[j as usize] == 1 {
                e += q;
            }
        }
        e
    }

    /// Multiplies every coefficient (including the offset) by `factor`.
    pub fn scale(&mut self, factor: f64) {
        for q in &mut self.linear {
            *q *= factor;
        }
        for q in self.quadratic.values_mut() {
            *q *= factor;
        }
        // Scaling by zero (or a subnormal underflow) can produce exact
        // zeros, which the sparse map must not store: every consumer
        // (num_interactions, quadratic_iter, the linter's adjacency) relies
        // on stored entries being structurally nonzero.
        self.quadratic.retain(|_, q| *q != 0.0);
        self.offset *= factor;
    }

    /// Accumulates another model into this one.
    ///
    /// The other model's variables must be a subset of this one's index
    /// range; the models share the variable space (this is how penalty terms
    /// compose with objectives).
    ///
    /// # Panics
    /// Panics if `other` has more variables than `self`.
    pub fn merge(&mut self, other: &QuboModel) {
        assert!(
            other.num_vars <= self.num_vars,
            "cannot merge a larger model into a smaller one"
        );
        for (i, &q) in other.linear.iter().enumerate() {
            if q != 0.0 {
                self.add_linear(i as Var, q);
            }
        }
        for (i, j, q) in other.quadratic_iter() {
            self.add_quadratic(i, j, q);
        }
        self.offset += other.offset;
        debug_assert!(self.check_invariants().is_ok());
    }

    /// Verifies the model's structural invariants:
    ///
    /// * the linear vector covers exactly [`QuboModel::num_vars`] entries;
    /// * every quadratic key is canonical (`i < j`, both in range) — no
    ///   self-loops and no duplicate `(i, j)`/`(j, i)` storage;
    /// * every stored quadratic coefficient is structurally nonzero.
    ///
    /// All mutating methods preserve these ([`QuboModel::merge`] and
    /// [`QuboModel::grow_to`] additionally check them in debug builds);
    /// the method exists so tests and tools that deserialize or compose
    /// models can assert soundness cheaply.
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.linear.len() != self.num_vars {
            return Err(format!(
                "linear vector has {} entries for {} variables",
                self.linear.len(),
                self.num_vars
            ));
        }
        for (&key, &q) in &self.quadratic {
            let (i, j) = unpack(key);
            if i >= j {
                return Err(format!(
                    "non-canonical quadratic key ({i}, {j}): self-loops and \
                     reversed pairs must fold into canonical storage"
                ));
            }
            if j as usize >= self.num_vars {
                return Err(format!(
                    "quadratic key ({i}, {j}) exceeds {} variables",
                    self.num_vars
                ));
            }
            if q == 0.0 {
                return Err(format!("stored zero coefficient at ({i}, {j})"));
            }
        }
        Ok(())
    }

    /// Largest absolute coefficient (linear or quadratic); 0.0 for an empty
    /// model. Useful for normalization and annealing-schedule selection.
    pub fn max_abs_coefficient(&self) -> f64 {
        let lin = self.linear.iter().map(|q| q.abs()).fold(0.0f64, f64::max);
        let quad = self
            .quadratic
            .values()
            .map(|q| q.abs())
            .fold(0.0f64, f64::max);
        lin.max(quad)
    }

    /// Shape statistics of the model for telemetry reports: size,
    /// interaction density, offset, and coefficient magnitude.
    ///
    /// ```
    /// use qsmt_qubo::QuboModel;
    ///
    /// let mut m = QuboModel::new(3);
    /// m.add_quadratic(0, 1, 2.0);
    /// let shape = m.shape();
    /// assert_eq!(shape.num_vars, 3);
    /// assert_eq!(shape.num_interactions, 1);
    /// assert!((shape.density - 1.0 / 3.0).abs() < 1e-12);
    /// ```
    pub fn shape(&self) -> QuboShape {
        let pairs = self.num_vars * self.num_vars.saturating_sub(1) / 2;
        QuboShape {
            num_vars: self.num_vars,
            num_interactions: self.quadratic.len(),
            density: if pairs == 0 {
                0.0
            } else {
                self.quadratic.len() as f64 / pairs as f64
            },
            offset: self.offset,
            max_abs_coefficient: self.max_abs_coefficient(),
        }
    }

    /// Returns every ground state (minimum-energy assignment) by exhaustive
    /// enumeration, together with the ground energy.
    ///
    /// Exponential in `num_vars`; intended for tests and oracles on small
    /// models (≲ 24 variables). See `qsmt-anneal`'s `ExactSolver` for the
    /// Gray-code incremental version.
    ///
    /// # Panics
    /// Panics if the model has more than 30 variables.
    pub fn brute_force_ground_states(&self) -> (f64, Vec<Vec<u8>>) {
        assert!(
            self.num_vars <= 30,
            "brute force limited to 30 variables, model has {}",
            self.num_vars
        );
        let n = self.num_vars;
        let mut best = f64::INFINITY;
        let mut states: Vec<Vec<u8>> = Vec::new();
        let mut state = vec![0u8; n];
        for bits in 0u64..(1u64 << n) {
            for (i, s) in state.iter_mut().enumerate() {
                *s = ((bits >> i) & 1) as u8;
            }
            let e = self.energy(&state);
            if e < best - 1e-12 {
                best = e;
                states.clear();
                states.push(state.clone());
            } else if (e - best).abs() <= 1e-12 {
                states.push(state.clone());
            }
        }
        (best, states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_model_has_zero_energy_everywhere() {
        let m = QuboModel::new(3);
        assert_eq!(m.energy(&[0, 0, 0]), 0.0);
        assert_eq!(m.energy(&[1, 1, 1]), 0.0);
    }

    #[test]
    fn linear_terms_accumulate() {
        let mut m = QuboModel::new(2);
        m.add_linear(0, 1.5);
        m.add_linear(0, -0.5);
        assert_eq!(m.linear(0), 1.0);
        assert_eq!(m.energy(&[1, 0]), 1.0);
    }

    #[test]
    fn quadratic_is_order_insensitive() {
        let mut m = QuboModel::new(3);
        m.add_quadratic(2, 0, 4.0);
        assert_eq!(m.quadratic(0, 2), 4.0);
        assert_eq!(m.quadratic(2, 0), 4.0);
        m.add_quadratic(0, 2, -4.0);
        assert_eq!(m.quadratic(0, 2), 0.0);
        assert_eq!(m.num_interactions(), 0);
    }

    #[test]
    fn diagonal_quadratic_folds_into_linear() {
        let mut m = QuboModel::new(1);
        m.add_quadratic(0, 0, 3.0);
        assert_eq!(m.linear(0), 3.0);
        assert_eq!(m.num_interactions(), 0);
    }

    #[test]
    fn set_quadratic_overwrites() {
        let mut m = QuboModel::new(2);
        m.add_quadratic(0, 1, 5.0);
        m.set_quadratic(1, 0, -1.0);
        assert_eq!(m.quadratic(0, 1), -1.0);
    }

    #[test]
    fn energy_matches_hand_computation() {
        // E = -x0 + 2 x1 + 3 x0 x1 + 0.5
        let mut m = QuboModel::new(2);
        m.add_linear(0, -1.0);
        m.add_linear(1, 2.0);
        m.add_quadratic(0, 1, 3.0);
        m.add_offset(0.5);
        assert_eq!(m.energy(&[0, 0]), 0.5);
        assert_eq!(m.energy(&[1, 0]), -0.5);
        assert_eq!(m.energy(&[0, 1]), 2.5);
        assert_eq!(m.energy(&[1, 1]), 4.5);
    }

    #[test]
    fn merge_adds_coefficients_and_offsets() {
        let mut a = QuboModel::new(3);
        a.add_linear(0, 1.0);
        a.add_quadratic(0, 1, 1.0);
        let mut b = QuboModel::new(2);
        b.add_linear(0, 2.0);
        b.add_quadratic(0, 1, -1.0);
        b.add_offset(7.0);
        a.merge(&b);
        assert_eq!(a.linear(0), 3.0);
        assert_eq!(a.quadratic(0, 1), 0.0);
        assert_eq!(a.offset(), 7.0);
    }

    #[test]
    #[should_panic(expected = "cannot merge a larger model")]
    fn merge_larger_model_panics() {
        let mut a = QuboModel::new(1);
        let b = QuboModel::new(2);
        a.merge(&b);
    }

    #[test]
    fn scale_multiplies_everything() {
        let mut m = QuboModel::new(2);
        m.add_linear(0, 1.0);
        m.add_quadratic(0, 1, 2.0);
        m.add_offset(3.0);
        m.scale(-2.0);
        assert_eq!(m.linear(0), -2.0);
        assert_eq!(m.quadratic(0, 1), -4.0);
        assert_eq!(m.offset(), -6.0);
    }

    #[test]
    fn grow_preserves_existing_coefficients() {
        let mut m = QuboModel::new(1);
        m.add_linear(0, -1.0);
        m.grow_to(4);
        assert_eq!(m.num_vars(), 4);
        assert_eq!(m.linear(0), -1.0);
        assert_eq!(m.linear(3), 0.0);
    }

    #[test]
    fn brute_force_finds_all_degenerate_ground_states() {
        // E = x0 x1 (penalize both on); ground states: 00, 01, 10 at E=0
        let mut m = QuboModel::new(2);
        m.add_quadratic(0, 1, 1.0);
        let (e, states) = m.brute_force_ground_states();
        assert_eq!(e, 0.0);
        assert_eq!(states.len(), 3);
    }

    #[test]
    fn max_abs_coefficient_scans_linear_and_quadratic() {
        let mut m = QuboModel::new(2);
        m.add_linear(0, -3.0);
        m.add_quadratic(0, 1, 2.0);
        assert_eq!(m.max_abs_coefficient(), 3.0);
    }

    #[test]
    #[should_panic(expected = "state length")]
    fn energy_rejects_wrong_length() {
        QuboModel::new(2).energy(&[0]);
    }

    #[test]
    fn merge_canonicalizes_reversed_pairs_and_self_loops() {
        // The donor stores (1, 2); the receiver already holds the same
        // interaction added in the *other* order plus a self-loop folded
        // into its diagonal. Merging must keep one canonical entry, not
        // grow a duplicate (j, i) twin.
        let mut donor = QuboModel::new(3);
        donor.add_quadratic(2, 1, 4.0); // reversed order on purpose
        donor.add_quadratic(0, 0, 2.5); // self-loop → linear
        donor.add_offset(1.0);

        let mut m = QuboModel::new(3);
        m.add_quadratic(1, 2, -1.0);
        m.merge(&donor);

        assert_eq!(m.num_interactions(), 1, "one canonical (1,2) entry");
        assert_eq!(m.quadratic(1, 2), 3.0);
        assert_eq!(m.quadratic(2, 1), 3.0, "lookup is order-insensitive");
        assert_eq!(m.linear(0), 2.5, "self-loop folded into the diagonal");
        assert!(m.check_invariants().is_ok());

        // Energy is the sum of the parts on every state.
        let mut expected = QuboModel::new(3);
        expected.add_quadratic(1, 2, 3.0);
        expected.add_linear(0, 2.5);
        expected.add_offset(1.0);
        for s in 0..8u8 {
            let state = [s & 1, (s >> 1) & 1, (s >> 2) & 1];
            assert_eq!(m.energy(&state), expected.energy(&state));
        }
    }

    #[test]
    fn merge_cancellation_leaves_no_zero_entries() {
        let mut donor = QuboModel::new(2);
        donor.add_quadratic(0, 1, -2.0);
        let mut m = QuboModel::new(2);
        m.add_quadratic(0, 1, 2.0);
        m.merge(&donor);
        assert_eq!(m.num_interactions(), 0, "cancelled entry must vanish");
        assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn grow_to_preserves_invariants_and_existing_couplings() {
        let mut m = QuboModel::new(2);
        m.add_quadratic(0, 1, 1.5);
        m.grow_to(5);
        assert!(m.check_invariants().is_ok());
        assert_eq!(m.quadratic(0, 1), 1.5);
        // New variables are usable immediately.
        m.add_quadratic(1, 4, -0.5);
        assert!(m.check_invariants().is_ok());
        assert_eq!(m.num_interactions(), 2);
    }

    #[test]
    fn scale_by_zero_clears_sparse_interactions() {
        let mut m = QuboModel::new(2);
        m.add_quadratic(0, 1, 3.0);
        m.add_linear(0, 1.0);
        m.scale(0.0);
        assert_eq!(m.num_interactions(), 0, "zeros must not be stored");
        assert!(m.check_invariants().is_ok());
        assert_eq!(m.energy(&[1, 1]), 0.0);
    }
}
