//! Bit-sliced multi-replica flip kernel: 64 independent replicas per
//! machine word.
//!
//! The scalar [`FlipKernel`](crate::FlipKernel) advances one replica at a
//! time: every proposal costs a load + multiply, and every accepted flip
//! walks the variable's CSR neighbor list alone. Annealing workloads run
//! *batches* of independent replicas (simulated annealing's reads) over
//! the same compiled model, so the per-replica bookkeeping
//! can be amortized across the whole batch — the digital-annealer-style
//! parallel proposal evaluation of Oshiyama & Ohzeki (arXiv:2104.14096)
//! and the bit-parallel annealer encodings of Bian et al.
//! (arXiv:1811.02524).
//!
//! [`MultiReplicaKernel`] packs up to [`LANES`] replica states into one
//! `u64` per variable — bit `r` of `words[i]` is replica `r`'s value of
//! variable `i` — and keeps the per-replica local fields in one flat
//! structure-of-arrays block, `fields[i * LANES + r]`:
//!
//! ```text
//! words:   [ var 0: u64 ][ var 1: u64 ] …       bit r ↦ replica r
//! fields:  [ f(0,r=0) … f(0,r=63) | f(1,r=0) … f(1,r=63) | … ]
//! ```
//!
//! A proposal for variable `i` therefore evaluates ΔE for all replicas at
//! once from one contiguous 64-lane field block, the accept/reject
//! decisions come back as a single `u64` mask, and an accepted mask
//! touches the CSR neighbor list **once per word** instead of once per
//! accepted flip — the neighbor walk decodes each `(j, q)` pair one time
//! and fans the `±q` update out to every accepted lane's contiguous field
//! slot.
//!
//! Per-lane arithmetic is performed in exactly the order the scalar
//! kernel would (fields accumulate in CSR order, energies accumulate in
//! acceptance order), so lane `r` of a multi-replica run is **bit
//! identical** to a scalar [`FlipKernel`](crate::FlipKernel) run fed the
//! same decision stream — pinned by `tests/multi_kernel_proptests.rs`.
//! Acceptance itself stays the caller's job (the per-β tables live in
//! `qsmt-anneal`): the kernel exposes [`MultiReplicaKernel::deltas_into`]
//! and [`MultiReplicaKernel::apply_mask`], and the sampler crate supplies
//! the mask.

use crate::{CompiledQubo, Var};

/// Replicas per machine word: the bit width of the mask type.
pub const LANES: usize = 64;

/// Bit-sliced state, local fields, and energies for up to [`LANES`]
/// independent replicas of one compiled QUBO model.
///
/// ```
/// use qsmt_qubo::{CompiledQubo, MultiReplicaKernel, QuboModel};
///
/// let mut m = QuboModel::new(2);
/// m.add_linear(0, -1.0);
/// m.add_quadratic(0, 1, 2.0);
/// let c = CompiledQubo::compile(&m);
/// // Two replicas: one all-zeros, one with x0 = 1.
/// let mut k = MultiReplicaKernel::new(&c, &[vec![0, 0], vec![1, 0]]);
/// assert_eq!(k.delta(0, 0), -1.0); // replica 0 would gain by setting x0
/// assert_eq!(k.delta(0, 1), 1.0);  // replica 1 would lose by clearing it
/// k.apply_mask(&c, 0, 0b01);       // flip x0 in replica 0 only
/// assert_eq!(k.energy(0), -1.0);
/// assert_eq!(k.energy(1), -1.0);
/// assert_eq!(k.state(0), vec![1, 0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultiReplicaKernel {
    lanes: usize,
    /// Bit `r` of `words[i]` is replica `r`'s value of variable `i`.
    words: Vec<u64>,
    /// `fields[i * LANES + r]` is replica `r`'s local field of variable
    /// `i`; slots of unused lanes stay 0.0.
    fields: Vec<f64>,
    /// Incremental energy per replica, `energies[r]`.
    energies: Vec<f64>,
}

impl MultiReplicaKernel {
    /// Builds the bit-sliced caches for `states` (one per replica,
    /// `1..=LANES` of them); O(lanes · (n + m)).
    ///
    /// Field construction accumulates coefficients in the same (CSR)
    /// order as [`FlipKernel::new`](crate::FlipKernel::new), so the
    /// per-lane caches start bit-identical to their scalar twins.
    ///
    /// # Panics
    /// Panics when `states` is empty, holds more than [`LANES`] entries,
    /// or any state's length does not match the compiled model.
    pub fn new(compiled: &CompiledQubo, states: &[Vec<u8>]) -> Self {
        let lanes = states.len();
        assert!(
            (1..=LANES).contains(&lanes),
            "multi-replica kernel needs 1..=64 replica states, got {lanes}"
        );
        let n = compiled.num_vars();
        let mut words = vec![0u64; n];
        for (r, state) in states.iter().enumerate() {
            assert_eq!(
                state.len(),
                n,
                "replica {r} state length mismatch with compiled model"
            );
            crate::debug_check_state(state);
            for (i, &bit) in state.iter().enumerate() {
                words[i] |= u64::from(bit) << r;
            }
        }
        let mut fields = vec![0.0f64; n * LANES];
        for i in 0..n as Var {
            let base = i as usize * LANES;
            for (r, state) in states.iter().enumerate() {
                // Scalar-order accumulation: linear term first, then the
                // CSR neighbor list — identical float op order to
                // FlipKernel::new for every lane.
                let mut f = compiled.linear(i);
                for &(j, q) in compiled.neighbors(i) {
                    if state[j as usize] == 1 {
                        f += q;
                    }
                }
                fields[base + r] = f;
            }
        }
        let energies = states.iter().map(|s| compiled.energy(s)).collect();
        Self {
            lanes,
            words,
            fields,
            energies,
        }
    }

    /// Number of active replica lanes (1..=[`LANES`]).
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of variables.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.words.len()
    }

    /// Mask with one bit set per active lane (`lanes` low bits).
    #[inline]
    pub fn lane_mask(&self) -> u64 {
        if self.lanes == LANES {
            u64::MAX
        } else {
            (1u64 << self.lanes) - 1
        }
    }

    /// The packed word of variable `i` (bit `r` = replica `r`'s value).
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        self.words[i]
    }

    /// Replica `r`'s current incremental energy.
    #[inline]
    pub fn energy(&self, r: usize) -> f64 {
        self.energies[r]
    }

    /// Incremental energies of all active lanes, indexed by lane.
    #[inline]
    pub fn energies(&self) -> &[f64] {
        &self.energies
    }

    /// Extracts replica `r`'s assignment as a dense byte state.
    pub fn state(&self, r: usize) -> Vec<u8> {
        assert!(r < self.lanes, "lane {r} out of range ({})", self.lanes);
        self.words.iter().map(|&w| ((w >> r) & 1) as u8).collect()
    }

    /// Consumes the kernel, returning every lane's `(state, energy)` pair
    /// in lane order.
    pub fn into_reads(self) -> Vec<(Vec<u8>, f64)> {
        (0..self.lanes)
            .map(|r| (self.state(r), self.energies[r]))
            .collect()
    }

    /// Hints the hardware prefetcher at the first few neighbor field
    /// blocks of variable `i`, so their L2→L1 transfer overlaps whatever
    /// the caller does between the acceptance decision and
    /// [`MultiReplicaKernel::apply_mask_with_deltas`] (typically the
    /// residual RNG draws). Pure hint — no observable effect on results.
    #[inline]
    pub fn prefetch_apply(&self, compiled: &CompiledQubo, i: Var) {
        for &(j, _) in compiled.neighbors(i).iter().take(4) {
            simd::prefetch_block(&self.fields, j as usize * LANES);
        }
    }

    /// Energy change from flipping variable `i` in replica `r`; O(1).
    /// Bit-identical to the scalar kernel's `delta`.
    #[inline]
    pub fn delta(&self, i: Var, r: usize) -> f64 {
        let bit = (self.words[i as usize] >> r) & 1;
        (1.0 - 2.0 * bit as f64) * self.fields[i as usize * LANES + r]
    }

    /// Writes the flip delta of variable `i` for every lane into `out`
    /// (unused lanes get 0.0 — their field slots are never touched).
    ///
    /// One contiguous 64-slot field block and a branch-free sign from the
    /// packed word, so the loop auto-vectorizes.
    #[inline]
    pub fn deltas_into(&self, i: usize, out: &mut [f64; LANES]) {
        let word = self.words[i];
        let base = i * LANES;
        let fields = &self.fields[base..base + LANES];
        for r in 0..LANES {
            let sign = 1.0 - 2.0 * ((word >> r) & 1) as f64;
            out[r] = sign * fields[r];
        }
    }

    /// Applies the flip of variable `i` in every lane whose bit is set in
    /// `mask`, updating the packed word, per-lane energies, and per-lane
    /// neighbor fields. The CSR neighbor list is traversed **once** for
    /// the whole word; each `(j, q)` pair fans out to the accepted lanes'
    /// contiguous field slots.
    ///
    /// Returns the number of flips applied (`mask.count_ones()`).
    ///
    /// # Panics
    /// Debug-panics when `mask` has bits outside the active lanes.
    pub fn apply_mask(&mut self, compiled: &CompiledQubo, i: Var, mask: u64) -> u32 {
        let mut deltas = [0.0f64; LANES];
        self.deltas_into(i as usize, &mut deltas);
        self.apply_mask_with_deltas(compiled, i, mask, &deltas)
    }

    /// [`MultiReplicaKernel::apply_mask`] when the caller already holds
    /// this variable's deltas (the sweep loop computes them for the
    /// acceptance decision and reuses them here, like the scalar kernel
    /// reuses `delta(i)` inside `flip`).
    pub fn apply_mask_with_deltas(
        &mut self,
        compiled: &CompiledQubo,
        i: Var,
        mask: u64,
        deltas: &[f64; LANES],
    ) -> u32 {
        debug_assert_eq!(
            mask & !self.lane_mask(),
            0,
            "mask touches lanes beyond the active {}",
            self.lanes
        );
        if mask == 0 {
            return 0;
        }
        let new_word = self.words[i as usize] ^ mask;
        self.words[i as usize] = new_word;
        let count = mask.count_ones();
        // Charge the accepted lanes' energies (sparse: few bits set).
        let mut m = mask;
        while m != 0 {
            let r = m.trailing_zeros() as usize;
            m &= m - 1;
            self.energies[r] += deltas[r];
        }
        // One CSR traversal for the whole word. The per-neighbor fan-out
        // picks between two shapes on the accepted-lane count:
        //
        // * **dense** — a branch-free `fields[r] += dir[r] * q` over all
        //   64 contiguous slots, where `dir[r]` is ±1 for flipped lanes
        //   and 0.0 for the rest. Every lane does a mul+add, but the loop
        //   has no data-dependent indexing, so it runs at full SIMD width
        //   (a hand-held AVX-512 path keeps the eight direction vectors
        //   in registers across the whole neighbor walk). Adding
        //   `0.0 * q` to an untouched slot is exact; it can at most flip
        //   the sign of a zero, which compares equal everywhere
        //   downstream.
        // * **scatter** — walk just the set bits. Cheaper when only a
        //   handful of lanes flipped, where the dense loop's 64 ops
        //   would be mostly wasted.
        if count as usize >= simd::DENSE_MIN_LANES {
            let mut dir = [0.0f64; LANES];
            for (r, d) in dir.iter_mut().enumerate() {
                let flipped = ((mask >> r) & 1) as f64;
                let up = ((new_word >> r) & 1) as f64;
                *d = flipped * (2.0 * up - 1.0);
            }
            simd::fanout(&mut self.fields, compiled.neighbors(i), &dir);
        } else {
            let mut flipped = [(0usize, 0.0f64); LANES];
            let mut k = 0usize;
            let mut m = mask;
            while m != 0 {
                let r = m.trailing_zeros() as usize;
                m &= m - 1;
                let dir = if (new_word >> r) & 1 == 1 { 1.0 } else { -1.0 };
                flipped[k] = (r, dir);
                k += 1;
            }
            let neighbors = compiled.neighbors(i);
            for (idx, &(j, q)) in neighbors.iter().enumerate() {
                if let Some(&(jn, _)) = neighbors.get(idx + 2) {
                    simd::prefetch_block(&self.fields, jn as usize * LANES);
                }
                let base = j as usize * LANES;
                for &(r, dir) in &flipped[..k] {
                    self.fields[base + r] += dir * q;
                }
            }
        }
        count
    }
}

/// Dense per-neighbor fan-out of the 64-lane direction vector, with an
/// AVX-512 fast path. Both paths compute `fields[j·64+r] += dir[r] * q`
/// as a strict multiply **then** add (two roundings, never a fused
/// mul-add), so every lane stays bit-identical to the scalar kernel's
/// `field += dir * q` — FMA would round once and silently diverge the
/// replicas from their scalar twins.
mod simd {
    use super::LANES;
    use crate::Var;

    /// Flipped-lane count at which `apply_mask_with_deltas` switches from
    /// the scatter walk to the dense fan-out. Below this, updating only
    /// the set bits is cheaper than touching all 64 slots.
    pub const DENSE_MIN_LANES: usize = 8;

    /// Hints one 64-slot field block (eight cache lines) toward L1.
    /// Pure hint; a no-op on non-x86 targets.
    #[inline]
    pub fn prefetch_block(fields: &[f64], base: usize) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            // In-bounds by construction: `base` is a variable's first slot.
            let p = unsafe { fields.as_ptr().add(base).cast::<i8>() };
            for line in 0..(LANES / 8) {
                unsafe { _mm_prefetch::<_MM_HINT_T0>(p.add(line * 64)) };
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (fields, base);
        }
    }

    /// `fields[j·LANES + r] += dir[r] * q` for every neighbor `(j, q)`.
    pub fn fanout(fields: &mut [f64], neighbors: &[(Var, f64)], dir: &[f64; LANES]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: avx512f was just verified on the running CPU, and
            // every store stays inside `fields` (checked in the callee).
            unsafe { fanout_avx512(fields, neighbors, dir) };
            return;
        }
        fanout_portable(fields, neighbors, dir);
    }

    /// Autovectorized fallback: one contiguous 64-slot block per
    /// neighbor; LLVM emits mul+add at whatever SIMD width the target
    /// offers.
    fn fanout_portable(fields: &mut [f64], neighbors: &[(Var, f64)], dir: &[f64; LANES]) {
        for &(j, q) in neighbors {
            let base = j as usize * LANES;
            let block = &mut fields[base..base + LANES];
            for r in 0..LANES {
                block[r] += dir[r] * q;
            }
        }
    }

    /// Hand-held AVX-512 fan-out: the eight 8-wide direction vectors are
    /// hoisted into registers once and reused across the entire CSR
    /// walk, so each neighbor costs one broadcast plus eight
    /// load/mul/add/store quartets (`vmulpd` + `vaddpd`, deliberately
    /// not `vfmadd`, to preserve scalar rounding).
    ///
    /// # Safety
    /// Caller must ensure the CPU supports `avx512f`. In-bounds access is
    /// guaranteed here: every neighbor index `j` satisfies
    /// `(j+1)·LANES ≤ fields.len()` by kernel construction, and is
    /// debug-asserted.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn fanout_avx512(fields: &mut [f64], neighbors: &[(Var, f64)], dir: &[f64; LANES]) {
        use std::arch::x86_64::{
            _mm512_add_pd, _mm512_loadu_pd, _mm512_mul_pd, _mm512_set1_pd, _mm512_storeu_pd,
            _mm_prefetch, _MM_HINT_T0,
        };
        let d = dir.as_ptr();
        let d0 = _mm512_loadu_pd(d);
        let d1 = _mm512_loadu_pd(d.add(8));
        let d2 = _mm512_loadu_pd(d.add(16));
        let d3 = _mm512_loadu_pd(d.add(24));
        let d4 = _mm512_loadu_pd(d.add(32));
        let d5 = _mm512_loadu_pd(d.add(40));
        let d6 = _mm512_loadu_pd(d.add(48));
        let d7 = _mm512_loadu_pd(d.add(56));
        // The CSR walk's future addresses are known: pull each block's
        // eight lines toward L1 two neighbors ahead so the L2 latency
        // overlaps the current block's arithmetic instead of stalling it.
        const AHEAD: usize = 3;
        for (idx, &(j, q)) in neighbors.iter().enumerate() {
            if let Some(&(jn, _)) = neighbors.get(idx + AHEAD) {
                let pf = fields.as_ptr().add(jn as usize * LANES).cast::<i8>();
                for line in 0..8 {
                    _mm_prefetch::<_MM_HINT_T0>(pf.add(line * 64));
                }
            }
            let base = j as usize * LANES;
            debug_assert!(base + LANES <= fields.len());
            let qv = _mm512_set1_pd(q);
            let p = fields.as_mut_ptr().add(base);
            _mm512_storeu_pd(p, _mm512_add_pd(_mm512_loadu_pd(p), _mm512_mul_pd(d0, qv)));
            let p1 = p.add(8);
            _mm512_storeu_pd(
                p1,
                _mm512_add_pd(_mm512_loadu_pd(p1), _mm512_mul_pd(d1, qv)),
            );
            let p2 = p.add(16);
            _mm512_storeu_pd(
                p2,
                _mm512_add_pd(_mm512_loadu_pd(p2), _mm512_mul_pd(d2, qv)),
            );
            let p3 = p.add(24);
            _mm512_storeu_pd(
                p3,
                _mm512_add_pd(_mm512_loadu_pd(p3), _mm512_mul_pd(d3, qv)),
            );
            let p4 = p.add(32);
            _mm512_storeu_pd(
                p4,
                _mm512_add_pd(_mm512_loadu_pd(p4), _mm512_mul_pd(d4, qv)),
            );
            let p5 = p.add(40);
            _mm512_storeu_pd(
                p5,
                _mm512_add_pd(_mm512_loadu_pd(p5), _mm512_mul_pd(d5, qv)),
            );
            let p6 = p.add(48);
            _mm512_storeu_pd(
                p6,
                _mm512_add_pd(_mm512_loadu_pd(p6), _mm512_mul_pd(d6, qv)),
            );
            let p7 = p.add(56);
            _mm512_storeu_pd(
                p7,
                _mm512_add_pd(_mm512_loadu_pd(p7), _mm512_mul_pd(d7, qv)),
            );
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn dispatched_fanout_matches_portable_bit_for_bit() {
            // Whatever path `fanout` picks on this machine must produce
            // exactly the floats the portable mul+add loop produces — the
            // SIMD path is a speed dispatch, never a semantics change.
            let neighbors: Vec<(Var, f64)> = (0..7u32).map(|j| (j, 0.1 + f64::from(j))).collect();
            let mut dir = [0.0f64; LANES];
            for (r, d) in dir.iter_mut().enumerate() {
                *d = match r % 3 {
                    0 => 1.0,
                    1 => -1.0,
                    _ => 0.0,
                };
            }
            let mut a: Vec<f64> = (0..7 * LANES).map(|k| (k as f64).sin()).collect();
            let mut b = a.clone();
            fanout(&mut a, &neighbors, &dir);
            fanout_portable(&mut b, &neighbors, &dir);
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlipKernel, QuboModel};
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

    fn random_states(lanes: usize, n: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..lanes)
            .map(|_| (0..n).map(|_| rng.gen_range(0..=1u8)).collect())
            .collect()
    }

    #[test]
    fn construction_matches_scalar_kernels_exactly() {
        let m = random_model(12, 3);
        let c = CompiledQubo::compile(&m);
        let states = random_states(17, 12, 9);
        let multi = MultiReplicaKernel::new(&c, &states);
        assert_eq!(multi.lanes(), 17);
        for (r, state) in states.iter().enumerate() {
            let scalar = FlipKernel::new(&c, state.clone());
            assert_eq!(multi.state(r), *state);
            assert_eq!(multi.energy(r), scalar.energy(), "lane {r} energy");
            for i in 0..12 as Var {
                assert_eq!(multi.delta(i, r), scalar.delta(i), "lane {r} var {i}");
            }
        }
    }

    #[test]
    fn apply_mask_matches_scalar_flips_bit_for_bit() {
        let m = random_model(10, 7);
        let c = CompiledQubo::compile(&m);
        let states = random_states(5, 10, 1);
        let mut multi = MultiReplicaKernel::new(&c, &states);
        let mut scalars: Vec<FlipKernel> = states
            .iter()
            .map(|s| FlipKernel::new(&c, s.clone()))
            .collect();
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..400 {
            let i = rng.gen_range(0..10) as Var;
            let mask = rng.gen::<u64>() & multi.lane_mask();
            let applied = multi.apply_mask(&c, i, mask);
            assert_eq!(applied, mask.count_ones());
            for (r, scalar) in scalars.iter_mut().enumerate() {
                if (mask >> r) & 1 == 1 {
                    scalar.flip(&c, i);
                }
                // Exact equality: the whole point of the layout is that
                // float op order matches the scalar kernel per lane.
                assert_eq!(multi.energy(r), scalar.energy(), "lane {r}");
                for v in 0..10 as Var {
                    assert_eq!(multi.delta(v, r), scalar.delta(v), "lane {r} var {v}");
                }
            }
        }
        for (r, scalar) in scalars.iter().enumerate() {
            assert_eq!(multi.state(r), scalar.state());
        }
    }

    #[test]
    fn deltas_into_matches_per_lane_delta() {
        let m = random_model(8, 5);
        let c = CompiledQubo::compile(&m);
        let states = random_states(64, 8, 2);
        let k = MultiReplicaKernel::new(&c, &states);
        let mut out = [0.0f64; LANES];
        for i in 0..8usize {
            k.deltas_into(i, &mut out);
            for (r, &d) in out.iter().enumerate() {
                assert_eq!(d, k.delta(i as Var, r));
            }
        }
    }

    #[test]
    fn into_reads_preserves_lane_order() {
        let m = random_model(6, 21);
        let c = CompiledQubo::compile(&m);
        let states = random_states(3, 6, 8);
        let k = MultiReplicaKernel::new(&c, &states);
        let energies: Vec<f64> = (0..3).map(|r| k.energy(r)).collect();
        let reads = k.into_reads();
        assert_eq!(reads.len(), 3);
        for (r, (state, energy)) in reads.iter().enumerate() {
            assert_eq!(*state, states[r]);
            assert_eq!(*energy, energies[r]);
        }
    }

    #[test]
    fn full_64_lane_word_uses_every_bit() {
        let m = random_model(4, 2);
        let c = CompiledQubo::compile(&m);
        let states: Vec<Vec<u8>> = (0..64).map(|r| vec![(r % 2) as u8; 4]).collect();
        let k = MultiReplicaKernel::new(&c, &states);
        assert_eq!(k.lane_mask(), u64::MAX);
        assert_eq!(k.word(0), 0xAAAA_AAAA_AAAA_AAAA);
        assert_eq!(k.state(63), vec![1; 4]);
    }

    #[test]
    #[should_panic(expected = "1..=64 replica states")]
    fn rejects_empty_replica_set() {
        let c = CompiledQubo::compile(&QuboModel::new(2));
        MultiReplicaKernel::new(&c, &[]);
    }

    #[test]
    #[should_panic(expected = "state length mismatch")]
    fn rejects_wrong_length_state() {
        let c = CompiledQubo::compile(&QuboModel::new(3));
        MultiReplicaKernel::new(&c, &[vec![0, 1]]);
    }

    #[test]
    fn empty_model_kernel() {
        let c = CompiledQubo::compile(&QuboModel::new(0));
        let k = MultiReplicaKernel::new(&c, &[Vec::new(), Vec::new()]);
        assert_eq!(k.num_vars(), 0);
        assert_eq!(k.energy(0), 0.0);
        assert_eq!(k.state(1), Vec::<u8>::new());
    }
}
