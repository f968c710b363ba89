//! Incremental local-field flip kernels — O(1) per-proposal energy deltas.
//!
//! Every Metropolis-style sampler proposes single-variable flips far more
//! often than it accepts them. Evaluating a proposal through
//! [`CompiledQubo::flip_delta`] walks the variable's CSR neighbor list on
//! *every* proposal — O(degree) work that is thrown away whenever the move
//! is rejected. The kernels in this module instead maintain the **local
//! field** of every variable,
//!
//! ```text
//! QUBO:  f_i = q_ii + Σ_j q_ij·x_j        ΔE_i = (1 − 2·x_i)·f_i
//! Ising: f_i = h_i  + Σ_j J_ij·s_j        ΔE_i = −2·s_i·f_i
//! ```
//!
//! so a proposal costs O(1) and the neighbor list is only touched when a
//! flip is *accepted* (an O(degree) cache update). Under the typical
//! acceptance rates of an annealing schedule this turns a sweep from
//! O(n·avg-degree) into O(n + accepted·avg-degree) — the incremental
//! bookkeeping that separates production sweep throughput from the naive
//! loop (cf. Oshiyama & Ohzeki, arXiv:2104.14096; Bian et al.,
//! arXiv:1811.02524).
//!
//! The kernels deliberately do **not** borrow their compiled model:
//! [`FlipKernel::flip`] takes the [`CompiledQubo`] as an argument. This
//! keeps the kernel a plain value — a sampler can keep a whole vector of
//! them over one shared model (SQA's Trotter slices) without lifetime
//! plumbing.

use crate::{CompiledIsing, CompiledQubo, Var};

/// Incremental single-flip state for a QUBO model: the current assignment,
/// its energy, and the local field of every variable, all maintained
/// exactly under accepted flips.
///
/// ```
/// use qsmt_qubo::{CompiledQubo, FlipKernel, QuboModel};
///
/// let mut m = QuboModel::new(2);
/// m.add_linear(0, -1.0);
/// m.add_quadratic(0, 1, 2.0);
/// let c = CompiledQubo::compile(&m);
/// let mut k = FlipKernel::new(&c, vec![0, 0]);
/// assert_eq!(k.delta(0), -1.0);          // O(1): no neighbor walk
/// k.flip(&c, 0);                          // accepted: O(degree) update
/// assert_eq!(k.energy(), -1.0);
/// assert_eq!(k.delta(1), 2.0);            // field of 1 now sees x0 = 1
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FlipKernel {
    state: Vec<u8>,
    fields: Vec<f64>,
    energy: f64,
}

impl FlipKernel {
    /// Builds the cache for `state`; O(n + m).
    ///
    /// # Panics
    /// Panics if the state length does not match the compiled model.
    pub fn new(compiled: &CompiledQubo, state: Vec<u8>) -> Self {
        assert_eq!(
            state.len(),
            compiled.num_vars(),
            "state length mismatch with compiled model"
        );
        let fields = (0..compiled.num_vars() as Var)
            .map(|i| {
                let mut f = compiled.linear(i);
                for &(j, q) in compiled.neighbors(i) {
                    if state[j as usize] == 1 {
                        f += q;
                    }
                }
                f
            })
            .collect();
        let energy = compiled.energy(&state);
        Self {
            state,
            fields,
            energy,
        }
    }

    /// Number of variables.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.state.len()
    }

    /// The current assignment.
    #[inline]
    pub fn state(&self) -> &[u8] {
        &self.state
    }

    /// Consumes the kernel, returning the assignment.
    #[inline]
    pub fn into_state(self) -> Vec<u8> {
        self.state
    }

    /// Current incremental energy (matches `compiled.energy(self.state())`
    /// up to float drift — see [`FlipKernel::drift_tolerance`]).
    #[inline]
    pub fn energy(&self) -> f64 {
        self.energy
    }

    /// Energy change from flipping variable `i`; O(1).
    #[inline]
    pub fn delta(&self, i: Var) -> f64 {
        (1.0 - 2.0 * self.state[i as usize] as f64) * self.fields[i as usize]
    }

    /// Applies the flip of variable `i`, updating state, energy, and the
    /// neighbor fields; O(degree). Returns the applied energy delta.
    #[inline]
    pub fn flip(&mut self, compiled: &CompiledQubo, i: Var) -> f64 {
        let d = self.delta(i);
        let was_set = self.state[i as usize] == 1;
        self.state[i as usize] ^= 1;
        self.energy += d;
        // x_i 0→1 adds q_ij to every neighbor field, 1→0 removes it.
        if was_set {
            for &(j, q) in compiled.neighbors(i) {
                self.fields[j as usize] -= q;
            }
        } else {
            for &(j, q) in compiled.neighbors(i) {
                self.fields[j as usize] += q;
            }
        }
        d
    }

    /// Absolute tolerance for incremental-energy drift checks, scaled to
    /// the model's energy magnitude: each accepted flip can introduce an
    /// ulp-level error relative to the largest flip delta, so a fixed
    /// `1e-6` misfires on large-penalty formulations. One part in 1e9 of
    /// the largest single-flip magnitude (floored at 1e-9 for tiny models)
    /// passes every legitimate anneal while still catching real
    /// bookkeeping bugs, which are order-of-coefficient sized.
    pub fn drift_tolerance(compiled: &CompiledQubo) -> f64 {
        1e-9 * compiled.max_flip_magnitude().max(1.0)
    }
}

/// Side-observer for trajectory probes: tracks the best (lowest) energy a
/// kernel has visited and when, without touching the kernel's hot path.
///
/// Samplers with probes enabled call [`KernelWatermark::observe`] after
/// each accepted flip; the disabled-probe path never constructs one, so
/// the production sweep loop stays byte-identical. The watermark is pure
/// observation — it never feeds back into proposals, acceptance, or RNG
/// streams.
///
/// ```
/// use qsmt_qubo::kernel::KernelWatermark;
///
/// let mut w = KernelWatermark::new(5.0);
/// w.observe(3.0);
/// w.observe(4.0); // not an improvement
/// assert_eq!(w.best(), 3.0);
/// assert_eq!(w.flips(), 2);
/// assert_eq!(w.best_at_flip(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelWatermark {
    best: f64,
    flips: u64,
    best_at_flip: u64,
}

impl KernelWatermark {
    /// Starts the watermark at the kernel's initial energy (flip 0).
    pub fn new(initial_energy: f64) -> Self {
        Self {
            best: initial_energy,
            flips: 0,
            best_at_flip: 0,
        }
    }

    /// Records the kernel energy after one accepted flip.
    #[inline]
    pub fn observe(&mut self, energy: f64) {
        self.flips += 1;
        if energy < self.best {
            self.best = energy;
            self.best_at_flip = self.flips;
        }
    }

    /// Lowest energy observed so far (including the initial energy).
    #[inline]
    pub fn best(&self) -> f64 {
        self.best
    }

    /// Accepted flips observed so far.
    #[inline]
    pub fn flips(&self) -> u64 {
        self.flips
    }

    /// The accepted-flip count at which the best energy was reached
    /// (0 when the initial state was never improved).
    #[inline]
    pub fn best_at_flip(&self) -> u64 {
        self.best_at_flip
    }
}

/// The Ising twin of [`FlipKernel`]: maintains `f_i = h_i + Σ_j J_ij·s_j`
/// over spin states `s ∈ {−1, +1}^n` so flip deltas are O(1).
#[derive(Debug, Clone, PartialEq)]
pub struct IsingFlipKernel {
    spins: Vec<i8>,
    fields: Vec<f64>,
    energy: f64,
}

impl IsingFlipKernel {
    /// Builds the cache for `spins`; O(n + m).
    ///
    /// # Panics
    /// Panics if the spin-vector length does not match the compiled model.
    pub fn new(compiled: &CompiledIsing, spins: Vec<i8>) -> Self {
        assert_eq!(
            spins.len(),
            compiled.num_spins(),
            "spin vector length mismatch with compiled model"
        );
        let fields = (0..compiled.num_spins() as Var)
            .map(|i| {
                let mut f = compiled.field(i);
                for &(j, v) in compiled.couplings(i) {
                    f += v * spins[j as usize] as f64;
                }
                f
            })
            .collect();
        let energy = compiled.energy(&spins);
        Self {
            spins,
            fields,
            energy,
        }
    }

    /// Number of spins.
    #[inline]
    pub fn num_spins(&self) -> usize {
        self.spins.len()
    }

    /// The current spin configuration.
    #[inline]
    pub fn spins(&self) -> &[i8] {
        &self.spins
    }

    /// Current incremental energy.
    #[inline]
    pub fn energy(&self) -> f64 {
        self.energy
    }

    /// Energy change from flipping spin `i` (s → −s); O(1).
    #[inline]
    pub fn delta(&self, i: Var) -> f64 {
        -2.0 * self.spins[i as usize] as f64 * self.fields[i as usize]
    }

    /// Applies the flip of spin `i`, updating spins, energy, and neighbor
    /// fields; O(degree). Returns the applied energy delta.
    #[inline]
    pub fn flip(&mut self, compiled: &CompiledIsing, i: Var) -> f64 {
        let d = self.delta(i);
        let s_new = -self.spins[i as usize];
        self.spins[i as usize] = s_new;
        self.energy += d;
        // s_i changed by 2·s_new, so every neighbor field moves by
        // J_ij·(s_new − s_old) = 2·J_ij·s_new.
        let shift = 2.0 * s_new as f64;
        for &(j, v) in compiled.couplings(i) {
            self.fields[j as usize] += v * shift;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IsingModel, QuboModel};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_model(n: usize, seed: u64) -> QuboModel {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut m = QuboModel::new(n);
        for i in 0..n as Var {
            m.add_linear(i, rng.gen_range(-2.0..2.0));
        }
        for i in 0..n as Var {
            for j in (i + 1)..n as Var {
                if rng.gen_bool(0.4) {
                    m.add_quadratic(i, j, rng.gen_range(-2.0..2.0));
                }
            }
        }
        m.add_offset(rng.gen_range(-1.0..1.0));
        m
    }

    #[test]
    fn delta_matches_naive_flip_delta() {
        let mut rng = SmallRng::seed_from_u64(3);
        for seed in 0..10 {
            let m = random_model(12, seed);
            let c = CompiledQubo::compile(&m);
            let state: Vec<u8> = (0..12).map(|_| rng.gen_range(0..=1u8)).collect();
            let k = FlipKernel::new(&c, state.clone());
            for i in 0..12 as Var {
                assert!((k.delta(i) - c.flip_delta(&state, i)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn fields_stay_exact_over_long_flip_sequences() {
        let mut rng = SmallRng::seed_from_u64(5);
        let m = random_model(10, 7);
        let c = CompiledQubo::compile(&m);
        let mut k = FlipKernel::new(&c, vec![0; 10]);
        for _ in 0..500 {
            let i = rng.gen_range(0..10) as Var;
            let naive = c.flip_delta(k.state(), i);
            let d = k.flip(&c, i);
            assert!((d - naive).abs() < 1e-9);
        }
        assert!((k.energy() - c.energy(k.state())).abs() < FlipKernel::drift_tolerance(&c));
        // Fields must equal a from-scratch rebuild exactly at the end.
        let rebuilt = FlipKernel::new(&c, k.state().to_vec());
        for i in 0..10 as Var {
            assert!((k.delta(i) - rebuilt.delta(i)).abs() < 1e-9);
        }
    }

    #[test]
    fn ising_kernel_matches_compiled_ising() {
        let mut rng = SmallRng::seed_from_u64(11);
        let m = IsingModel::from_qubo(&random_model(9, 2));
        let c = CompiledIsing::compile(&m);
        let spins: Vec<i8> = (0..9)
            .map(|_| if rng.gen_bool(0.5) { 1 } else { -1 })
            .collect();
        let mut k = IsingFlipKernel::new(&c, spins);
        for _ in 0..300 {
            let i = rng.gen_range(0..9) as Var;
            let naive = c.flip_delta(k.spins(), i);
            assert!((k.delta(i) - naive).abs() < 1e-9);
            if rng.gen_bool(0.5) {
                k.flip(&c, i);
            }
        }
        assert!((k.energy() - c.energy(k.spins())).abs() < 1e-6);
    }

    #[test]
    fn drift_tolerance_scales_with_coefficients() {
        let mut small = QuboModel::new(2);
        small.add_linear(0, 1.0);
        let mut big = QuboModel::new(2);
        big.add_linear(0, 1e12);
        let t_small = FlipKernel::drift_tolerance(&CompiledQubo::compile(&small));
        let t_big = FlipKernel::drift_tolerance(&CompiledQubo::compile(&big));
        assert!(t_small < 1e-8);
        assert!(t_big >= 1e3 * t_small);
    }

    #[test]
    #[should_panic(expected = "state length mismatch")]
    fn rejects_wrong_length_state() {
        let c = CompiledQubo::compile(&QuboModel::new(3));
        FlipKernel::new(&c, vec![0, 1]);
    }

    #[test]
    fn watermark_tracks_best_and_flip_index() {
        let mut w = KernelWatermark::new(10.0);
        assert_eq!(w.best(), 10.0);
        assert_eq!(w.best_at_flip(), 0);
        w.observe(12.0); // uphill move accepted at high temperature
        w.observe(4.0);
        w.observe(7.0);
        w.observe(4.0); // tie does not move the watermark
        assert_eq!(w.best(), 4.0);
        assert_eq!(w.flips(), 4);
        assert_eq!(w.best_at_flip(), 2);
    }

    #[test]
    fn watermark_follows_kernel_trajectory() {
        let m = random_model(8, 21);
        let c = CompiledQubo::compile(&m);
        let mut k = FlipKernel::new(&c, vec![0; 8]);
        let mut w = KernelWatermark::new(k.energy());
        let mut rng = SmallRng::seed_from_u64(9);
        let mut best = k.energy();
        for _ in 0..200 {
            let i = rng.gen_range(0..8) as Var;
            k.flip(&c, i);
            w.observe(k.energy());
            best = best.min(k.energy());
        }
        assert!((w.best() - best).abs() < 1e-9);
        assert_eq!(w.flips(), 200);
    }

    #[test]
    fn empty_model_kernel() {
        let c = CompiledQubo::compile(&QuboModel::new(0));
        let k = FlipKernel::new(&c, Vec::new());
        assert_eq!(k.energy(), 0.0);
        assert_eq!(k.num_vars(), 0);
    }
}
