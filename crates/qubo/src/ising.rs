//! Ising spin-glass model and lossless QUBO ↔ Ising conversions.
//!
//! Quantum annealers natively minimize an Ising Hamiltonian over spins
//! `s ∈ {−1, +1}^n`:
//!
//! ```text
//! H(s) = Σ_i h_i·s_i + Σ_{i<j} J_ij·s_i·s_j + offset
//! ```
//!
//! The paper notes (§2.3) that QUBO "cost function [is] equivalent to an
//! Ising model", which is what makes the formulations annealer-compatible.
//! The equivalence is the affine substitution `x_i = (s_i + 1)/2`.

use crate::hash::FxBuildHasher;
use crate::{QuboModel, Var};
use std::collections::HashMap;

/// An Ising model: local fields `h`, couplings `J`, and a constant offset.
#[derive(Debug, Clone, Default)]
pub struct IsingModel {
    /// Local field on each spin.
    h: Vec<f64>,
    /// Couplings keyed by packed `(i, j)` with `i < j`.
    j: HashMap<u64, f64, FxBuildHasher>,
    offset: f64,
}

#[inline]
fn pack(i: Var, j: Var) -> u64 {
    debug_assert!(i < j);
    ((i as u64) << 32) | j as u64
}

impl IsingModel {
    /// Creates an all-zero Ising model over `n` spins.
    pub fn new(n: usize) -> Self {
        Self {
            h: vec![0.0; n],
            j: HashMap::default(),
            offset: 0.0,
        }
    }

    /// Number of spins.
    pub fn num_spins(&self) -> usize {
        self.h.len()
    }

    /// Constant offset.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Local field on spin `i`.
    pub fn field(&self, i: Var) -> f64 {
        self.h[i as usize]
    }

    /// Adds `v` to the local field of spin `i`.
    pub fn add_field(&mut self, i: Var, v: f64) {
        self.h[i as usize] += v;
    }

    /// Coupling between spins `i` and `j` (0.0 when absent).
    pub fn coupling(&self, i: Var, j: Var) -> f64 {
        if i == j {
            return 0.0;
        }
        let key = if i < j { pack(i, j) } else { pack(j, i) };
        self.j.get(&key).copied().unwrap_or(0.0)
    }

    /// Adds `v` to the coupling between spins `i` and `j`.
    ///
    /// # Panics
    /// Panics if `i == j` (an Ising self-coupling is a constant, add it to
    /// the offset instead) or if an index is out of range.
    pub fn add_coupling(&mut self, i: Var, j: Var, v: f64) {
        assert!(
            i != j,
            "Ising self-coupling s_i*s_i is constant 1; use the offset"
        );
        assert!(
            (i as usize) < self.h.len() && (j as usize) < self.h.len(),
            "coupling index out of range"
        );
        let key = if i < j { pack(i, j) } else { pack(j, i) };
        let entry = self.j.entry(key).or_insert(0.0);
        *entry += v;
        if *entry == 0.0 {
            self.j.remove(&key);
        }
    }

    /// Adds `v` to the offset.
    pub fn add_offset(&mut self, v: f64) {
        self.offset += v;
    }

    /// Iterates over nonzero couplings as `(i, j, J_ij)` with `i < j`.
    pub fn coupling_iter(&self) -> impl Iterator<Item = (Var, Var, f64)> + '_ {
        self.j
            .iter()
            .map(|(&k, &v)| ((k >> 32) as Var, k as Var, v))
    }

    /// Number of nonzero couplings.
    pub fn num_couplings(&self) -> usize {
        self.j.len()
    }

    /// Energy of a spin assignment (`spins[i] ∈ {−1, +1}`).
    ///
    /// # Panics
    /// Panics if the length mismatches or any entry is not ±1.
    pub fn energy(&self, spins: &[i8]) -> f64 {
        assert_eq!(spins.len(), self.h.len(), "spin vector length mismatch");
        assert!(spins.iter().all(|&s| s == 1 || s == -1), "spins must be ±1");
        let mut e = self.offset;
        for (i, &h) in self.h.iter().enumerate() {
            e += h * spins[i] as f64;
        }
        for (i, j, v) in self.coupling_iter() {
            e += v * (spins[i as usize] as f64) * (spins[j as usize] as f64);
        }
        e
    }

    /// Converts a QUBO model into the equivalent Ising model via
    /// `x_i = (s_i + 1)/2`. Energies are preserved exactly:
    /// `qubo.energy(x) == ising.energy(2x−1)`.
    pub fn from_qubo(q: &QuboModel) -> Self {
        let n = q.num_vars();
        let mut m = Self::new(n);
        m.offset = q.offset();
        for i in 0..n {
            let qii = q.linear(i as Var);
            m.h[i] += qii / 2.0;
            m.offset += qii / 2.0;
        }
        for (i, j, qij) in q.quadratic_iter() {
            m.add_coupling(i, j, qij / 4.0);
            m.h[i as usize] += qij / 4.0;
            m.h[j as usize] += qij / 4.0;
            m.offset += qij / 4.0;
        }
        m
    }

    /// Converts this Ising model into the equivalent QUBO via
    /// `s_i = 2·x_i − 1`. Inverse of [`IsingModel::from_qubo`].
    pub fn to_qubo(&self) -> QuboModel {
        let n = self.h.len();
        let mut q = QuboModel::new(n);
        q.add_offset(self.offset);
        for (i, &h) in self.h.iter().enumerate() {
            q.add_linear(i as Var, 2.0 * h);
            q.add_offset(-h);
        }
        for (i, j, jij) in self.coupling_iter() {
            q.add_quadratic(i, j, 4.0 * jij);
            q.add_linear(i, -2.0 * jij);
            q.add_linear(j, -2.0 * jij);
            q.add_offset(jij);
        }
        q
    }

    /// Largest absolute field or coupling. Hardware simulators use this to
    /// rescale into the physical `h`/`J` range.
    pub fn max_abs_coefficient(&self) -> f64 {
        let h = self.h.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
        let j = self.j.values().map(|v| v.abs()).fold(0.0f64, f64::max);
        h.max(j)
    }
}

/// Converts a binary state (0/1) to spins (−1/+1).
pub fn state_to_spins(state: &[u8]) -> Vec<i8> {
    state.iter().map(|&x| if x == 1 { 1 } else { -1 }).collect()
}

/// Converts spins (−1/+1) to a binary state (0/1).
pub fn spins_to_state(spins: &[i8]) -> Vec<u8> {
    spins.iter().map(|&s| u8::from(s == 1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_qubo(n: usize, seed: u64) -> QuboModel {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut m = QuboModel::new(n);
        for i in 0..n as Var {
            m.add_linear(i, rng.gen_range(-3.0..3.0));
        }
        for i in 0..n as Var {
            for j in (i + 1)..n as Var {
                if rng.gen_bool(0.5) {
                    m.add_quadratic(i, j, rng.gen_range(-3.0..3.0));
                }
            }
        }
        m.add_offset(rng.gen_range(-2.0..2.0));
        m
    }

    #[test]
    fn qubo_to_ising_preserves_energy_on_all_states() {
        for seed in 0..10 {
            let q = random_qubo(6, seed);
            let ising = IsingModel::from_qubo(&q);
            for bits in 0u32..(1 << 6) {
                let state: Vec<u8> = (0..6).map(|i| ((bits >> i) & 1) as u8).collect();
                let spins = state_to_spins(&state);
                assert!(
                    (q.energy(&state) - ising.energy(&spins)).abs() < 1e-9,
                    "energy mismatch at seed {seed} bits {bits:06b}"
                );
            }
        }
    }

    #[test]
    fn ising_qubo_round_trip_is_identity_on_energies() {
        for seed in 10..20 {
            let q = random_qubo(5, seed);
            let round = IsingModel::from_qubo(&q).to_qubo();
            for bits in 0u32..(1 << 5) {
                let state: Vec<u8> = (0..5).map(|i| ((bits >> i) & 1) as u8).collect();
                assert!((q.energy(&state) - round.energy(&state)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn spin_state_conversions_are_inverse() {
        let state = vec![0u8, 1, 1, 0, 1];
        assert_eq!(spins_to_state(&state_to_spins(&state)), state);
    }

    #[test]
    #[should_panic(expected = "self-coupling")]
    fn self_coupling_panics() {
        IsingModel::new(2).add_coupling(1, 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "spins must be ±1")]
    fn energy_rejects_non_spin_values() {
        IsingModel::new(1).energy(&[0]);
    }

    #[test]
    fn couplings_cancel_to_absent() {
        let mut m = IsingModel::new(2);
        m.add_coupling(0, 1, 2.0);
        m.add_coupling(1, 0, -2.0);
        assert_eq!(m.num_couplings(), 0);
    }
}
