//! Per-β Metropolis acceptance fast paths.
//!
//! The Metropolis criterion `ΔE ≤ 0 ∨ u < exp(−β·ΔE)` costs one RNG draw
//! and one `exp` per uphill proposal in the naive loop. For a fixed β both
//! can almost always be avoided:
//!
//! * **early accept** — `ΔE ≤ 0` needs neither (already the common case);
//! * **hard reject** — beyond `ΔE ≥ ln(2⁵³)/β` the acceptance probability
//!   is below the resolution of a 53-bit uniform draw, so the proposal is
//!   rejected without consulting the RNG at all;
//! * **threshold table** — in between, a precomputed grid of
//!   `exp(−β·k·step)` values brackets the true probability: if the uniform
//!   draw falls below the bucket's lower bound the move is accepted, above
//!   the upper bound it is rejected, and only draws that land *inside* the
//!   bracket (a few percent) pay for an exact `exp`.
//!
//! The bracketed decision is bit-exact with the textbook criterion for
//! every `u > 0`; the hard-reject cutoff deviates only where the true
//! acceptance probability is `< 2⁻⁵³` (≈ 1.1e−16) per proposal, far below
//! anything a finite anneal can observe. One table is built per β, once
//! per run, and shared read-only across parallel reads.

use rand::rngs::SmallRng;
use rand::Rng;

/// Exp-underflow hard-reject cutoff, in units of `β·ΔE`.
///
/// Beyond `ΔE = LN_ACCEPT_CUTOFF/β` the acceptance probability
/// `exp(−β·ΔE)` is `< 2⁻⁵³` — below the resolution of a 53-bit uniform
/// draw — so the proposal is rejected without consulting the RNG at all.
/// (`53·ln 2 ≈ 36.7`; a margin is added so the table's last bucket lower
/// bound stays comfortably above `f64` noise.)
///
/// Public so the scalar path, the batched [word path]
/// (AcceptanceTable::threshold_u64), and any external reimplementation
/// share one definition of "impossibly uphill" and cannot drift.
pub const LN_ACCEPT_CUTOFF: f64 = 40.0;

/// Number of table buckets. 512 gives a per-bucket probability ratio of
/// `exp(−40/512) ≈ 0.925`, i.e. < 8% of consulted proposals fall into the
/// bracket and pay for an exact `exp`, for a 4 KiB table per β.
const BUCKETS: usize = 512;

/// A precomputed Metropolis acceptance test for one inverse temperature.
#[derive(Debug, Clone)]
pub struct AcceptanceTable {
    beta: f64,
    /// `ΔE ≥ cutoff` ⇒ reject without a draw.
    cutoff: f64,
    inv_step: f64,
    /// `probs[k] = exp(−β·k·step)`, `k ∈ 0..=BUCKETS`.
    probs: Vec<f64>,
}

impl AcceptanceTable {
    /// Builds the table for inverse temperature `beta` (> 0, finite).
    pub fn new(beta: f64) -> Self {
        assert!(
            beta.is_finite() && beta > 0.0,
            "acceptance table needs a positive finite β"
        );
        let cutoff = LN_ACCEPT_CUTOFF / beta;
        let step = cutoff / BUCKETS as f64;
        let probs = (0..=BUCKETS)
            .map(|k| (-beta * k as f64 * step).exp())
            .collect();
        Self {
            beta,
            cutoff,
            inv_step: 1.0 / step,
            probs,
        }
    }

    /// Builds one table per β of a realized schedule.
    pub fn for_schedule(betas: &[f64]) -> Vec<Self> {
        betas.iter().map(|&b| Self::new(b)).collect()
    }

    /// The inverse temperature this table was built for.
    #[inline]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Metropolis-accepts `delta`, drawing from `rng` only when the
    /// decision actually requires randomness.
    #[inline]
    pub fn accept(&self, delta: f64, rng: &mut SmallRng) -> bool {
        if delta <= 0.0 {
            return true;
        }
        if delta >= self.cutoff {
            return false;
        }
        self.accept_with(delta, rng.gen::<f64>())
    }

    /// Batched Metropolis decision for up to 64 replica lanes of one
    /// variable: returns an acceptance mask with bit `r` set iff lane
    /// `r`'s `deltas[r]` is accepted at this table's β.
    ///
    /// The scalar fast paths are lifted to whole-word operations — the
    /// early-accept (`ΔE ≤ 0`) and hard-reject (`ΔE ≥ cutoff`, see
    /// [`LN_ACCEPT_CUTOFF`]) masks are built branch-free across all
    /// lanes, and only the residual lanes walk the bracket table. Each
    /// residual lane draws **exactly one** uniform from its own RNG, in
    /// lane order — the same draw [`AcceptanceTable::accept`] would make
    /// — so lane `r`'s decision and RNG stream are bit-identical to a
    /// scalar run of that replica (pinned by
    /// `batched_threshold_is_bit_exact_with_scalar_accept`).
    ///
    /// # Panics
    /// Panics when `deltas` and `rngs` disagree in length or exceed 64
    /// lanes.
    pub fn threshold_u64(&self, deltas: &[f64], rngs: &mut [SmallRng]) -> u64 {
        let lanes = deltas.len();
        assert!(lanes <= 64, "threshold_u64 takes at most 64 lanes");
        assert_eq!(lanes, rngs.len(), "one RNG stream per lane");
        let mut early = 0u64;
        let mut hard = 0u64;
        // Branch-free sweep: two compares per lane, no RNG, no table.
        // (LLVM vectorizes this into compare-to-mask ops; keep it simple.)
        for (r, &d) in deltas.iter().enumerate() {
            early |= u64::from(d <= 0.0) << r;
            hard |= u64::from(d >= self.cutoff) << r;
        }
        let mut accept = early;
        let mut pending = !(early | hard);
        if lanes < 64 {
            pending &= (1u64 << lanes) - 1;
        }
        // Residual lanes (strictly uphill, below cutoff): one uniform
        // draw each, bracketed exactly like the scalar path.
        while pending != 0 {
            let r = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            let u = rngs[r].gen::<f64>();
            accept |= u64::from(self.accept_with(deltas[r], u)) << r;
        }
        accept
    }

    /// The table-bracketed decision for an already-drawn uniform `u`;
    /// exposed separately so tests can verify it against the exact
    /// criterion. Requires `0 < delta < cutoff`.
    #[inline]
    pub fn accept_with(&self, delta: f64, u: f64) -> bool {
        debug_assert!(delta > 0.0 && delta < self.cutoff);
        let k = (delta * self.inv_step) as usize;
        // True probability lies in [probs[k+1], probs[k]].
        if u < self.probs[k + 1] {
            return true;
        }
        if u >= self.probs[k] {
            return false;
        }
        u < (-self.beta * delta).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn downhill_accepts_without_consuming_rng() {
        let t = AcceptanceTable::new(2.0);
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(1);
        assert!(t.accept(-0.5, &mut a));
        assert!(t.accept(0.0, &mut a));
        // Stream untouched: both rngs still agree.
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn far_uphill_rejects_without_consuming_rng() {
        let t = AcceptanceTable::new(2.0);
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(1);
        assert!(!t.accept(1e6, &mut a));
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn bracketed_decision_matches_exact_criterion() {
        let mut rng = SmallRng::seed_from_u64(42);
        for &beta in &[0.05, 1.0, 7.5, 120.0] {
            let t = AcceptanceTable::new(beta);
            for _ in 0..20_000 {
                let delta = rng.gen::<f64>() * t.cutoff * 0.999 + 1e-12;
                let u = rng.gen::<f64>();
                if u > 0.0 {
                    assert_eq!(
                        t.accept_with(delta, u),
                        u < (-beta * delta).exp(),
                        "β={beta} δ={delta} u={u}"
                    );
                }
            }
        }
    }

    #[test]
    fn acceptance_rate_tracks_boltzmann_weight() {
        // Statistical sanity: measured acceptance of a fixed uphill delta
        // approaches exp(−β·ΔE).
        let t = AcceptanceTable::new(1.0);
        let delta = 1.0;
        let mut rng = SmallRng::seed_from_u64(7);
        let accepted = (0..200_000).filter(|_| t.accept(delta, &mut rng)).count();
        let rate = accepted as f64 / 200_000.0;
        let expected = (-1.0f64).exp();
        assert!((rate - expected).abs() < 0.01, "rate {rate} vs {expected}");
    }

    #[test]
    fn bracket_resolves_most_uphill_draws_without_exp() {
        // An uphill proposal below the cutoff pays for an exact `exp` only
        // when its uniform draw lands inside its bucket's bracket
        // `[probs[k+1], probs[k])`; that must stay a small minority.
        for &beta in &[0.05, 1.0, 12.0] {
            let t = AcceptanceTable::new(beta);
            let mut rng = SmallRng::seed_from_u64(33);
            let mut inside = 0u32;
            let draws = 50_000u32;
            for _ in 0..draws {
                let delta = (rng.gen::<f64>() * t.cutoff).max(f64::MIN_POSITIVE);
                let u = rng.gen::<f64>();
                let k = (delta * t.inv_step) as usize;
                if u >= t.probs[k + 1] && u < t.probs[k] {
                    inside += 1;
                }
            }
            let fraction = f64::from(inside) / f64::from(draws);
            assert!(fraction < 0.1, "β={beta}: {fraction} of draws needed exp");
        }
    }

    #[test]
    fn batched_threshold_is_bit_exact_with_scalar_accept() {
        // For every lane: same decision AND same RNG stream position as
        // the scalar path — the multi-replica kernel leans on both.
        let mut delta_rng = SmallRng::seed_from_u64(5);
        for &beta in &[0.05, 1.0, 9.0, 150.0] {
            let t = AcceptanceTable::new(beta);
            for lanes in [1usize, 3, 17, 64] {
                let mut batched: Vec<SmallRng> = (0..lanes)
                    .map(|r| SmallRng::seed_from_u64(1000 + r as u64))
                    .collect();
                let mut scalar: Vec<SmallRng> = (0..lanes)
                    .map(|r| SmallRng::seed_from_u64(1000 + r as u64))
                    .collect();
                for _ in 0..500 {
                    let deltas: Vec<f64> = (0..lanes)
                        .map(|_| delta_rng.gen_range(-1.0..1.0) * t.cutoff * 1.5)
                        .collect();
                    let mask = t.threshold_u64(&deltas, &mut batched);
                    for (r, s_rng) in scalar.iter_mut().enumerate() {
                        let want = t.accept(deltas[r], s_rng);
                        assert_eq!(
                            (mask >> r) & 1 == 1,
                            want,
                            "β={beta} lanes={lanes} lane={r} δ={}",
                            deltas[r]
                        );
                    }
                }
                // Streams still aligned after thousands of decisions.
                for (b, s) in batched.iter_mut().zip(scalar.iter_mut()) {
                    assert_eq!(b.gen::<u64>(), s.gen::<u64>());
                }
                // No stray bits above the active lanes.
                if lanes < 64 {
                    let all_accept = vec![-1.0f64; lanes];
                    let mask = t.threshold_u64(&all_accept, &mut batched);
                    assert_eq!(mask, (1u64 << lanes) - 1);
                }
            }
        }
    }

    #[test]
    fn public_cutoff_constant_matches_table_cutoff() {
        for &beta in &[0.5, 2.0, 40.0] {
            let t = AcceptanceTable::new(beta);
            assert_eq!(t.cutoff, LN_ACCEPT_CUTOFF / beta);
            // At the documented cutoff the true probability is below a
            // 53-bit draw's resolution.
            assert!((-LN_ACCEPT_CUTOFF).exp() < (2.0f64).powi(-53));
        }
    }

    #[test]
    #[should_panic(expected = "positive finite β")]
    fn rejects_nonpositive_beta() {
        AcceptanceTable::new(0.0);
    }

    #[test]
    #[should_panic(expected = "positive finite β")]
    fn rejects_infinite_beta() {
        AcceptanceTable::new(f64::INFINITY);
    }
}
