//! Chain strength heuristics and chain-break resolution.
//!
//! An embedded chain only acts as one logical variable if all its physical
//! qubits agree. A ferromagnetic penalty of configurable *chain strength*
//! locks them together; samples where a chain disagrees internally are
//! *broken* and must be repaired before unembedding.

use qsmt_qubo::QuboModel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How to pick the ferromagnetic chain coupling strength.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChainStrength {
    /// A fixed absolute strength.
    Fixed(f64),
    /// `prefactor × max |coefficient|` of the logical model. The classic
    /// safe default (prefactor ≈ 1.5–2): no single logical term can out-pull
    /// a chain.
    MaxCoefficient {
        /// Multiplier over the model's largest absolute coefficient.
        prefactor: f64,
    },
    /// Uniform torque compensation (D-Wave's default heuristic):
    /// `prefactor × rms(quadratic) × sqrt(average degree)`. Scales with the
    /// *typical* torque neighbors exert on a chain rather than the worst
    /// case, giving weaker chains that distort the spectrum less.
    UniformTorqueCompensation {
        /// Multiplier (D-Wave uses 1.414).
        prefactor: f64,
    },
}

impl Default for ChainStrength {
    fn default() -> Self {
        ChainStrength::UniformTorqueCompensation { prefactor: 1.414 }
    }
}

impl ChainStrength {
    /// Resolves the heuristic against a logical model. Always returns a
    /// strictly positive value (falls back to 1.0 on degenerate models).
    pub fn resolve(&self, model: &QuboModel) -> f64 {
        let s = match *self {
            ChainStrength::Fixed(v) => v,
            ChainStrength::MaxCoefficient { prefactor } => prefactor * model.max_abs_coefficient(),
            ChainStrength::UniformTorqueCompensation { prefactor } => {
                let (sum_sq, count) = model
                    .quadratic_iter()
                    .fold((0.0f64, 0usize), |(s, c), (_, _, q)| (s + q * q, c + 1));
                if count == 0 {
                    // No quadratic structure: fall back to the linear scale.
                    prefactor * model.max_abs_coefficient()
                } else {
                    let rms = (sum_sq / count as f64).sqrt();
                    let avg_degree = 2.0 * count as f64 / model.num_vars().max(1) as f64;
                    prefactor * rms * avg_degree.sqrt()
                }
            }
        };
        if s > 0.0 {
            s
        } else {
            1.0
        }
    }
}

/// How to repair a broken chain when unembedding a physical sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainBreakResolution {
    /// Take the majority value of the chain's qubits; exact ties are broken
    /// by a seeded coin flip.
    MajorityVote,
    /// Discard any read containing a broken chain.
    Discard,
}

/// Resolves one physical sample to a logical state.
///
/// Returns `(logical_state, num_broken_chains)`, or `None` if the policy is
/// [`ChainBreakResolution::Discard`] and any chain is broken.
pub fn unembed_sample(
    physical: &[u8],
    chains: &[Vec<u32>],
    policy: ChainBreakResolution,
    rng: &mut SmallRng,
) -> Option<(Vec<u8>, usize)> {
    let mut logical = Vec::with_capacity(chains.len());
    let mut broken = 0usize;
    for chain in chains {
        let ones = chain.iter().filter(|&&q| physical[q as usize] == 1).count();
        let len = chain.len();
        let is_broken = ones != 0 && ones != len;
        if is_broken {
            broken += 1;
            if policy == ChainBreakResolution::Discard {
                return None;
            }
        }
        let value = match (2 * ones).cmp(&len) {
            std::cmp::Ordering::Greater => 1,
            std::cmp::Ordering::Less => 0,
            std::cmp::Ordering::Equal => rng.gen_range(0..=1u8),
        };
        logical.push(value);
    }
    Some((logical, broken))
}

/// Counts broken chains in a physical sample without resolving it.
pub fn count_broken_chains(physical: &[u8], chains: &[Vec<u32>]) -> usize {
    chains
        .iter()
        .filter(|chain| {
            let ones = chain.iter().filter(|&&q| physical[q as usize] == 1).count();
            ones != 0 && ones != chain.len()
        })
        .count()
}

/// Seeded RNG for tie-breaking during unembedding.
pub(crate) fn tie_break_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsmt_qubo::QuboModel;

    fn model_with(linear: &[f64], quads: &[(u32, u32, f64)]) -> QuboModel {
        let mut m = QuboModel::new(linear.len());
        for (i, &v) in linear.iter().enumerate() {
            m.add_linear(i as u32, v);
        }
        for &(i, j, v) in quads {
            m.add_quadratic(i, j, v);
        }
        m
    }

    #[test]
    fn fixed_strength_passthrough() {
        let m = model_with(&[1.0], &[]);
        assert_eq!(ChainStrength::Fixed(3.5).resolve(&m), 3.5);
    }

    #[test]
    fn max_coefficient_scales() {
        let m = model_with(&[-4.0, 1.0], &[(0, 1, 2.0)]);
        let s = ChainStrength::MaxCoefficient { prefactor: 1.5 }.resolve(&m);
        assert!((s - 6.0).abs() < 1e-12);
    }

    #[test]
    fn utc_uses_rms_and_degree() {
        // two vars, one coupling of 2.0: rms = 2, avg degree = 1
        let m = model_with(&[0.0, 0.0], &[(0, 1, 2.0)]);
        let s = ChainStrength::UniformTorqueCompensation { prefactor: 1.0 }.resolve(&m);
        assert!((s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn utc_falls_back_without_quadratic_terms() {
        let m = model_with(&[-3.0], &[]);
        let s = ChainStrength::default().resolve(&m);
        assert!((s - 1.414 * 3.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_model_resolves_positive() {
        let m = QuboModel::new(2);
        assert_eq!(ChainStrength::default().resolve(&m), 1.0);
    }

    #[test]
    fn majority_vote_repairs_broken_chain() {
        let chains = vec![vec![0, 1, 2], vec![3]];
        let physical = vec![1, 1, 0, 0];
        let mut rng = tie_break_rng(0);
        let (logical, broken) = unembed_sample(
            &physical,
            &chains,
            ChainBreakResolution::MajorityVote,
            &mut rng,
        )
        .unwrap();
        assert_eq!(logical, vec![1, 0]);
        assert_eq!(broken, 1);
    }

    #[test]
    fn intact_chains_resolve_without_breaks() {
        let chains = vec![vec![0, 1], vec![2]];
        let physical = vec![1, 1, 0];
        let mut rng = tie_break_rng(0);
        let (logical, broken) = unembed_sample(
            &physical,
            &chains,
            ChainBreakResolution::MajorityVote,
            &mut rng,
        )
        .unwrap();
        assert_eq!(logical, vec![1, 0]);
        assert_eq!(broken, 0);
    }

    #[test]
    fn discard_drops_broken_reads() {
        let chains = vec![vec![0, 1]];
        let physical = vec![1, 0];
        let mut rng = tie_break_rng(0);
        assert!(
            unembed_sample(&physical, &chains, ChainBreakResolution::Discard, &mut rng).is_none()
        );
    }

    #[test]
    fn count_broken_chains_counts() {
        let chains = vec![vec![0, 1], vec![2, 3], vec![4]];
        let physical = vec![1, 0, 1, 1, 0];
        assert_eq!(count_broken_chains(&physical, &chains), 1);
    }

    #[test]
    fn even_tie_is_resolved_to_some_value() {
        let chains = vec![vec![0, 1]];
        let physical = vec![1, 0];
        let mut rng = tie_break_rng(42);
        let (logical, broken) = unembed_sample(
            &physical,
            &chains,
            ChainBreakResolution::MajorityVote,
            &mut rng,
        )
        .unwrap();
        assert!(logical[0] <= 1);
        assert_eq!(broken, 1);
    }
}
