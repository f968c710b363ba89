//! Word-level Metropolis sweeps for the bit-sliced
//! [`MultiReplicaKernel`].
//!
//! The kernel (in `qsmt-qubo`) owns the packed states, SoA local fields,
//! and energies; the acceptance decision lives here with the per-β
//! [`AcceptanceTable`]s. One sweep iterates the variables once and
//! advances **every** replica lane at each variable: the 64 flip deltas
//! come out of one contiguous field block, the acceptance mask is built
//! word-at-a-time ([`AcceptanceTable::threshold_u64`]), and the CSR
//! neighbor list is walked once per accepted word.
//!
//! [`sweep_word`] preserves per-lane RNG stream hygiene: lane `r` draws from
//! `rngs[r]` exactly when and only when a scalar run of that replica
//! would, and all float arithmetic happens in scalar order — so lane `r`
//! of a multi-replica sweep is bit-identical to a scalar
//! `FlipKernel`-based sweep of the same replica (pinned by this crate's
//! `tests/multi_replica.rs` and the kernel's proptests). See
//! `docs/PERFORMANCE.md` for the layout and when this path wins.

use crate::AcceptanceTable;
use qsmt_qubo::{CompiledQubo, MultiReplicaKernel, Var, LANES};
use rand::rngs::SmallRng;

/// One Metropolis sweep at a single inverse temperature, advancing every
/// lane of `kernel` — the simulated-annealing shape, where all replicas
/// share the β schedule. Returns the number of accepted flips across all
/// lanes.
///
/// # Panics
/// Panics when `rngs.len()` does not match the kernel's lane count.
pub fn sweep_word(
    kernel: &mut MultiReplicaKernel,
    compiled: &CompiledQubo,
    table: &AcceptanceTable,
    rngs: &mut [SmallRng],
) -> u64 {
    let lanes = kernel.lanes();
    assert_eq!(lanes, rngs.len(), "one RNG stream per replica lane");
    let n = kernel.num_vars();
    let mut deltas = [0.0f64; LANES];
    let mut accepted = 0u64;
    for i in 0..n {
        kernel.deltas_into(i, &mut deltas);
        // Start pulling the first neighbor blocks toward L1 now, so the
        // transfer overlaps the residual RNG draws inside the threshold.
        kernel.prefetch_apply(compiled, i as Var);
        let mask = table.threshold_u64(&deltas[..lanes], rngs);
        accepted += u64::from(kernel.apply_mask_with_deltas(compiled, i as Var, mask, &deltas));
    }
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsmt_qubo::{FlipKernel, QuboModel};
    use rand::{Rng, SeedableRng};

    fn model() -> (QuboModel, CompiledQubo) {
        let mut m = QuboModel::new(10);
        let mut rng = SmallRng::seed_from_u64(77);
        for i in 0..10u32 {
            m.add_linear(i, rng.gen_range(-1.5..1.5));
            for j in (i + 1)..10 {
                if rng.gen_bool(0.5) {
                    m.add_quadratic(i, j, rng.gen_range(-1.5..1.5));
                }
            }
        }
        let c = CompiledQubo::compile(&m);
        (m, c)
    }

    fn lane_setup(n: usize, lanes: usize) -> (Vec<Vec<u8>>, Vec<SmallRng>) {
        let mut rngs: Vec<SmallRng> = (0..lanes)
            .map(|r| SmallRng::seed_from_u64(900 + r as u64))
            .collect();
        let states = rngs
            .iter_mut()
            .map(|rng| (0..n).map(|_| rng.gen_range(0..=1u8)).collect())
            .collect();
        (states, rngs)
    }

    #[test]
    fn sweep_word_is_bit_identical_to_scalar_sweeps_per_lane() {
        let (_, c) = model();
        for lanes in [1usize, 7, 64] {
            let (states, mut rngs) = lane_setup(10, lanes);
            let mut kernel = MultiReplicaKernel::new(&c, &states);
            // Scalar twins: same states, same RNG streams.
            let (_, mut scalar_rngs) = lane_setup(10, lanes);
            let mut scalars: Vec<FlipKernel> = states
                .iter()
                .map(|s| FlipKernel::new(&c, s.clone()))
                .collect();
            let table = AcceptanceTable::new(1.3);
            let mut multi_accepted = 0u64;
            let mut scalar_accepted = 0u64;
            for _ in 0..40 {
                multi_accepted += sweep_word(&mut kernel, &c, &table, &mut rngs);
                for (scalar, rng) in scalars.iter_mut().zip(scalar_rngs.iter_mut()) {
                    for i in 0..10u32 {
                        if table.accept(scalar.delta(i), rng) {
                            scalar.flip(&c, i);
                            scalar_accepted += 1;
                        }
                    }
                }
            }
            assert_eq!(multi_accepted, scalar_accepted, "lanes={lanes}");
            for (r, scalar) in scalars.iter().enumerate() {
                assert_eq!(kernel.state(r), scalar.state(), "lanes={lanes} lane={r}");
                assert_eq!(kernel.energy(r), scalar.energy(), "lanes={lanes} lane={r}");
            }
        }
    }
}
