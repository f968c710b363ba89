//! Integration pins for the bit-sliced multi-replica annealing path,
//! through the **public** API only: a hand-rolled scalar reference —
//! [`FlipKernel`] + [`AcceptanceTable::accept`] with per-read
//! `read_seed` streams, exactly the contract [`SimulatedAnnealer`]
//! documents — must reproduce the sampler's output bit for bit, even
//! though production sampling goes through the word-wide
//! [`MultiReplicaKernel`]. Plus a property test pinning the batched
//! [`AcceptanceTable::threshold_u64`] mask to 64 scalar `accept` calls,
//! including the post-call RNG stream positions.

use proptest::prelude::*;
use qsmt_anneal::{
    read_seed, AcceptanceTable, BetaSchedule, SampleSet, Sampler, SimulatedAnnealer, StopFlag,
    LN_ACCEPT_CUTOFF,
};
use qsmt_qubo::{CompiledQubo, FlipKernel, QuboModel, Var};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn dense_model(n: usize, seed: u64) -> QuboModel {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut m = QuboModel::new(n);
    for i in 0..n as Var {
        m.add_linear(i, rng.gen_range(-1.0..1.0));
    }
    for i in 0..n as Var {
        for j in (i + 1)..n as Var {
            if rng.gen_bool(0.4) {
                m.add_quadratic(i, j, rng.gen_range(-1.0..1.0));
            }
        }
    }
    m
}

/// The scalar reference for one read: the exact loop
/// [`SimulatedAnnealer`] documents as its per-read semantics — RNG from
/// `read_seed(seed, read)`, initial state drawn from that stream, one
/// `accept`/`flip` pass per β, cancellation polled at sweep boundaries.
fn scalar_read(
    compiled: &CompiledQubo,
    tables: &[AcceptanceTable],
    seed: u64,
    read: u64,
    stop: Option<&StopFlag>,
) -> (Vec<u8>, f64) {
    let n = compiled.num_vars();
    let mut rng = SmallRng::seed_from_u64(read_seed(seed, read));
    let state: Vec<u8> = (0..n).map(|_| rng.gen_range(0..=1u8)).collect();
    let mut kernel = FlipKernel::new(compiled, state);
    for table in tables {
        if stop.is_some_and(StopFlag::is_stopped) {
            break;
        }
        for i in 0..n as Var {
            if table.accept(kernel.delta(i), &mut rng) {
                kernel.flip(compiled, i);
            }
        }
    }
    let energy = kernel.energy();
    (kernel.into_state(), energy)
}

fn reference_set(model: &QuboModel, seed: u64, reads: u64, sweeps: usize) -> SampleSet {
    let compiled = CompiledQubo::compile(model);
    let betas = BetaSchedule::auto(&compiled, sweeps).realize();
    let tables = AcceptanceTable::for_schedule(&betas);
    SampleSet::from_reads(
        (0..reads)
            .map(|r| scalar_read(&compiled, &tables, seed, r, None))
            .collect(),
    )
}

/// The sampler's word-wide block path reproduces the scalar per-read
/// reference exactly through the public API, for batch sizes below,
/// at, and above one 64-lane word (97 reads crosses a block boundary:
/// a full word plus a 33-lane partial word).
#[test]
fn sampler_output_is_bit_identical_to_scalar_reference_reads() {
    let model = dense_model(14, 5);
    for (reads, sweeps) in [(1u64, 24usize), (7, 24), (64, 16), (97, 12)] {
        let sampler = SimulatedAnnealer::new()
            .with_seed(42)
            .with_num_reads(reads as usize)
            .with_sweeps(sweeps);
        let got = sampler.sample(&model);
        let want = reference_set(&model, 42, reads, sweeps);
        assert_eq!(got, want, "reads={reads} sweeps={sweeps}");
        assert_eq!(got.total_reads(), u32::try_from(reads).unwrap());
    }
}

/// A pre-tripped [`StopFlag`] winds every block down before its first
/// sweep, leaving exactly the per-read initial states — same as the
/// scalar reference under the same tripped flag. This pins cancellation
/// at sweep granularity through the word-wide path.
#[test]
fn tripped_stop_flag_yields_initial_states_matching_scalar_reference() {
    let model = dense_model(12, 9);
    let flag = StopFlag::new();
    flag.stop();
    let sampler = SimulatedAnnealer::new()
        .with_seed(7)
        .with_num_reads(70)
        .with_sweeps(32)
        .with_stop(flag.clone());
    let got = sampler.sample(&model);

    let compiled = CompiledQubo::compile(&model);
    let betas = BetaSchedule::auto(&compiled, 32).realize();
    let tables = AcceptanceTable::for_schedule(&betas);
    let want = SampleSet::from_reads(
        (0..70)
            .map(|r| scalar_read(&compiled, &tables, 7, r, Some(&flag)))
            .collect(),
    );
    assert_eq!(got, want);
}

/// The plain path partitions 130 reads into blocks 64 + 64 + 2; the
/// probed path runs read 0 alone and blocks 64 + 64 + 1 after it. Every
/// read keeps its own stream, so both partitions reproduce the scalar
/// reference.
#[test]
fn plain_and_probed_block_partitions_agree() {
    let model = dense_model(10, 3);
    let sampler = SimulatedAnnealer::new()
        .with_seed(11)
        .with_num_reads(130)
        .with_sweeps(8);
    let plain = sampler.sample(&model);
    let (probed, _, _) = sampler.run(&model, true);
    assert_eq!(plain, probed);
    assert_eq!(plain, reference_set(&model, 11, 130, 8));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The batched word mask equals 64 scalar `accept` decisions, and
    /// leaves every lane's RNG at the same stream position (checked by
    /// drawing one more value from each side). Deltas cover the early
    /// -accept region (≤ 0), the hard-reject region (≥ cutoff), both
    /// sides of the boundary, and the residual band that draws RNG.
    #[test]
    fn threshold_u64_matches_scalar_accept_and_rng_positions(
        beta in 0.05f64..8.0,
        deltas in proptest::collection::vec(-60.0f64..60.0, 1..=64),
        seed in 0u64..u64::MAX,
        boundary_lane in 0usize..64,
    ) {
        let mut deltas = deltas;
        // Force interesting boundary values into one lane.
        let lane = boundary_lane % deltas.len();
        let table = AcceptanceTable::new(beta);
        deltas[lane] = match boundary_lane % 4 {
            0 => 0.0,
            1 => -0.0,
            2 => LN_ACCEPT_CUTOFF / beta,
            _ => deltas[lane],
        };
        let lanes = deltas.len();
        let mut batched_rngs: Vec<SmallRng> = (0..lanes)
            .map(|r| SmallRng::seed_from_u64(read_seed(seed, r as u64)))
            .collect();
        let mut scalar_rngs: Vec<SmallRng> = (0..lanes)
            .map(|r| SmallRng::seed_from_u64(read_seed(seed, r as u64)))
            .collect();

        let mask = table.threshold_u64(&deltas, &mut batched_rngs);

        for (r, rng) in scalar_rngs.iter_mut().enumerate() {
            let want = table.accept(deltas[r], rng);
            prop_assert_eq!(
                mask & (1 << r) != 0,
                want,
                "lane {} delta {} beta {}",
                r, deltas[r], beta
            );
        }
        if lanes < 64 {
            prop_assert_eq!(mask >> lanes, 0u64, "bits above the lane count must stay clear");
        }
        for (r, (a, b)) in batched_rngs.iter_mut().zip(scalar_rngs.iter_mut()).enumerate() {
            prop_assert_eq!(
                a.gen::<u64>(),
                b.gen::<u64>(),
                "lane {} RNG stream position diverged",
                r
            );
        }
    }
}
