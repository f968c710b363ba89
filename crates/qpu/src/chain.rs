//! Chain-break resolution.
//!
//! An embedded chain only acts as one logical variable if all its physical
//! qubits agree. A ferromagnetic penalty locks them together; samples where
//! a chain disagrees internally are *broken* and are repaired by majority
//! vote before unembedding.

use rand::rngs::SmallRng;
use rand::Rng;

/// Resolves one physical sample to a logical state by majority vote over
/// each chain's qubits; exact ties are broken by a coin flip from `rng`.
///
/// `physical` holds the chain qubits in chain order (the layout of
/// [`crate::QpuSimulator::embed_model`]): the first `chain_lens[0]` values
/// are chain 0's, the next `chain_lens[1]` chain 1's, and so on.
///
/// Returns `(logical_state, num_broken_chains)`.
pub(crate) fn unembed_sample(
    physical: &[u8],
    chain_lens: impl IntoIterator<Item = usize>,
    rng: &mut SmallRng,
) -> (Vec<u8>, usize) {
    let mut rest = physical;
    let mut broken = 0usize;
    let logical = chain_lens
        .into_iter()
        .map(|len| {
            let (chain, tail) = rest.split_at(len);
            rest = tail;
            let ones = chain.iter().filter(|&&bit| bit == 1).count();
            if ones != 0 && ones != len {
                broken += 1;
            }
            match (2 * ones).cmp(&len) {
                std::cmp::Ordering::Greater => 1,
                std::cmp::Ordering::Less => 0,
                std::cmp::Ordering::Equal => rng.gen_range(0..=1u8),
            }
        })
        .collect();
    (logical, broken)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn majority_vote_repairs_broken_chain() {
        let (logical, broken) = unembed_sample(&[1, 1, 0, 0], [3, 1], &mut rng(0));
        assert_eq!(logical, vec![1, 0]);
        assert_eq!(broken, 1);
    }

    #[test]
    fn intact_chains_resolve_without_breaks() {
        let (logical, broken) = unembed_sample(&[1, 1, 0], [2, 1], &mut rng(0));
        assert_eq!(logical, vec![1, 0]);
        assert_eq!(broken, 0);
    }

    #[test]
    fn broken_chains_are_counted() {
        let (_, broken) = unembed_sample(&[1, 0, 1, 1, 0], [2, 2, 1], &mut rng(0));
        assert_eq!(broken, 1);
    }

    #[test]
    fn even_tie_is_resolved_to_some_value() {
        let (logical, broken) = unembed_sample(&[1, 0], [2], &mut rng(42));
        assert!(logical[0] <= 1);
        assert_eq!(broken, 1);
    }
}
