//! Single-flip Metropolis simulated annealing over bit-sliced read blocks.

use crate::probes::{SamplerDynamics, SweepProbes};
use crate::{
    read_seed, AcceptanceTable, BetaSchedule, SampleSet, Sampler, SamplerRun, SamplerRunStats,
};
use qsmt_qubo::{
    CompiledQubo, FlipKernel, KernelWatermark, MultiReplicaKernel, QuboModel, StopFlag, Var, LANES,
};
use qsmt_telemetry::dynamics::BetaAcceptance;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The simulated annealing sampler — the direct analog of the D-Wave
/// simulated annealer the paper ran its experiments on.
///
/// Each *read* is an independent anneal: start from a uniform random state,
/// then for each β in the schedule perform one full sweep over the variables
/// proposing single-bit flips accepted with the Metropolis criterion
/// `ΔE ≤ 0 ∨ u < exp(−β·ΔE)`. The hot path is O(1) per proposal: a
/// [`FlipKernel`] keeps every variable's local field current, so a proposal
/// reads one cached value and the CSR neighbor lists are only walked when a
/// flip is *accepted*; per-β [`AcceptanceTable`]s decide most uphill moves
/// without an `exp` (and the extreme ones without an RNG draw).
///
/// Reads run in blocks of up to 64 lanes on the bit-sliced kernel; results
/// are deterministic for a fixed seed regardless of how reads are
/// partitioned into blocks, because each read derives its own RNG stream
/// by hashing `(seed, read_index)` (see [`read_seed`]).
///
/// ```
/// use qsmt_anneal::{Sampler, SimulatedAnnealer};
/// use qsmt_qubo::QuboModel;
///
/// // min  -x0 + x1 - x0·x1  →  ground state [1, 0]
/// let mut m = QuboModel::new(2);
/// m.add_linear(0, -1.0);
/// m.add_linear(1, 1.0);
/// m.add_quadratic(0, 1, -0.5);
///
/// let sa = SimulatedAnnealer::new().with_seed(7).with_num_reads(16);
/// let (set, stats) = sa.sample_stats(&m);
/// assert_eq!(set.best().unwrap().state, vec![1, 0]);
/// assert!(stats.acceptance_rate().unwrap() > 0.0);
/// // `sample_stats` is a pure side observation of `sample`:
/// assert_eq!(set, sa.sample(&m));
/// ```
#[derive(Debug, Clone)]
pub struct SimulatedAnnealer {
    num_reads: usize,
    sweeps: usize,
    schedule: Option<BetaSchedule>,
    seed: u64,
    stop: Option<StopFlag>,
}

impl Default for SimulatedAnnealer {
    fn default() -> Self {
        Self {
            num_reads: 32,
            sweeps: 256,
            schedule: None,
            seed: 0,
            stop: None,
        }
    }
}

impl SimulatedAnnealer {
    /// Creates an annealer with defaults: 32 reads, 256 sweeps, auto
    /// geometric schedule, seed 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of independent reads (restarts).
    pub fn with_num_reads(mut self, n: usize) -> Self {
        self.num_reads = n;
        self
    }

    /// Sets the number of sweeps per read (only used with the auto
    /// schedule; an explicit schedule carries its own sweep count).
    pub fn with_sweeps(mut self, s: usize) -> Self {
        self.sweeps = s;
        self
    }

    /// Uses an explicit β schedule instead of the auto-derived one.
    pub fn with_schedule(mut self, schedule: BetaSchedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Sets the RNG seed. Identical seeds give identical sample sets.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches a cooperative [`StopFlag`]: every read polls it at sweep
    /// granularity and winds down early once it trips, returning the best
    /// states reached so far. An un-tripped flag costs one relaxed atomic
    /// load per sweep and never touches the RNG streams, so results stay
    /// bit-identical to an un-flagged run until the flag fires. This is
    /// the deadline hook the solve service uses to cancel jobs mid-anneal.
    pub fn with_stop(mut self, stop: StopFlag) -> Self {
        self.stop = Some(stop);
        self
    }

    /// Number of reads configured.
    pub fn num_reads(&self) -> usize {
        self.num_reads
    }

    /// Replica lanes the bit-sliced kernel advances per sweep: a full
    /// word ([`LANES`]) once there are that many reads, fewer for small
    /// batches, `None` when there are no reads at all. Surfaced through
    /// [`SamplerRunStats::replicas`].
    fn replicas_per_block(&self) -> Option<u64> {
        (self.num_reads > 0).then(|| self.num_reads.min(LANES) as u64)
    }

    /// One independent anneal on the scalar [`FlipKernel`], the
    /// reference twin of the bit-sliced block path: plain sampling goes
    /// through [`SimulatedAnnealer::read_block`], and the bit-identity
    /// tests compare its lanes against this loop. With `probes` it is the
    /// probe read, observed per sweep (best energy, per-β acceptance,
    /// sweep latency) with the same proposals, acceptance decisions and
    /// RNG draws. The returned `u64`
    /// counts accepted flips.
    fn one_read(
        compiled: &CompiledQubo,
        tables: &[AcceptanceTable],
        seed: u64,
        stop: Option<&StopFlag>,
        mut probes: Option<&mut SweepProbes>,
    ) -> (Vec<u8>, f64, u64) {
        let n = compiled.num_vars();
        let mut rng = SmallRng::seed_from_u64(seed);
        let state: Vec<u8> = (0..n).map(|_| rng.gen_range(0..=1u8)).collect();
        let mut kernel = FlipKernel::new(compiled, state);
        let mut accepted = 0u64;
        let mut watermark = KernelWatermark::new(kernel.energy());
        if let Some(p) = probes.as_deref_mut() {
            p.start(watermark.best());
        }
        for (sweep, table) in tables.iter().enumerate() {
            // Cooperative cancellation: a tripped deadline ends the anneal
            // at the next sweep boundary, keeping the state reached so far.
            if stop.is_some_and(StopFlag::is_stopped) {
                break;
            }
            match probes.as_deref_mut() {
                None => {
                    for i in 0..n {
                        if table.accept(kernel.delta(i as Var), &mut rng) {
                            kernel.flip(compiled, i as Var);
                            accepted += 1;
                        }
                    }
                }
                Some(p) => {
                    p.begin_sweep(watermark.best());
                    let mut accepted_this = 0u64;
                    for i in 0..n {
                        if table.accept(kernel.delta(i as Var), &mut rng) {
                            kernel.flip(compiled, i as Var);
                            watermark.observe(kernel.energy());
                            accepted_this += 1;
                        }
                    }
                    accepted += accepted_this;
                    p.beta_acceptance.push(BetaAcceptance {
                        beta: table.beta(),
                        proposals: n as u64,
                        accepted: accepted_this,
                    });
                    p.end_sweep(sweep, watermark.best(), n);
                }
            }
        }
        debug_assert!(
            (kernel.energy() - compiled.energy(kernel.state())).abs()
                < FlipKernel::drift_tolerance(compiled),
            "incremental energy drifted from recomputed energy"
        );
        let energy = kernel.energy();
        (kernel.into_state(), energy, accepted)
    }

    /// One block of up to [`LANES`] reads advanced in lockstep by the
    /// bit-sliced [`MultiReplicaKernel`]: the block's reads are the
    /// global read indices `first_read..first_read + lanes`, and lane
    /// `r` of the block is bit-identical to a scalar
    /// [`SimulatedAnnealer::one_read`] of read `first_read + r` — each
    /// lane keeps its own `read_seed`-derived RNG stream, draws its
    /// initial state from that stream, and every float op happens in
    /// scalar order. Returns the block's `(state, energy)` pairs in read
    /// order plus its accepted-flip count.
    fn read_block(
        compiled: &CompiledQubo,
        tables: &[AcceptanceTable],
        seed: u64,
        first_read: usize,
        lanes: usize,
        stop: Option<&StopFlag>,
    ) -> (Vec<(Vec<u8>, f64)>, u64) {
        let n = compiled.num_vars();
        let mut rngs: Vec<SmallRng> = (first_read..first_read + lanes)
            .map(|r| SmallRng::seed_from_u64(read_seed(seed, r as u64)))
            .collect();
        let states: Vec<Vec<u8>> = rngs
            .iter_mut()
            .map(|rng| (0..n).map(|_| rng.gen_range(0..=1u8)).collect())
            .collect();
        let mut kernel = MultiReplicaKernel::new(compiled, &states);
        let mut accepted = 0u64;
        for table in tables {
            // Cooperative cancellation at sweep granularity, exactly like
            // the scalar read: the whole block winds down together.
            if stop.is_some_and(StopFlag::is_stopped) {
                break;
            }
            accepted += crate::multi::sweep_word(&mut kernel, compiled, table, &mut rngs);
        }
        #[cfg(debug_assertions)]
        for r in 0..kernel.lanes() {
            debug_assert!(
                (kernel.energy(r) - compiled.energy(&kernel.state(r))).abs()
                    < FlipKernel::drift_tolerance(compiled),
                "incremental energy drifted from recomputed energy (lane {r})"
            );
        }
        (kernel.into_reads(), accepted)
    }

    /// Partitions `reads` (a range of global read indices) into blocks of
    /// at most [`LANES`] consecutive reads.
    fn blocks(reads: std::ops::Range<usize>) -> Vec<(usize, usize)> {
        reads
            .clone()
            .step_by(LANES)
            .map(|start| (start, LANES.min(reads.end - start)))
            .collect()
    }
}

impl Sampler for SimulatedAnnealer {
    /// Runs every read in blocks of up to [`LANES`] on the bit-sliced
    /// kernel; the partition never changes results because every read
    /// keeps its own RNG stream. A probed run takes read 0 out as the
    /// scalar probe read and blocks reads `1..`, and also records each
    /// read's wall-clock interval (reads of one block share the block's).
    fn run(&self, model: &QuboModel, probes: bool) -> SamplerRun {
        let started = Instant::now();
        let since_start = || started.elapsed().as_micros() as u64;
        let compiled = CompiledQubo::compile(model);
        let betas = match &self.schedule {
            Some(s) => s.realize(),
            None => BetaSchedule::auto(&compiled, self.sweeps).realize(),
        };
        // One acceptance table per β, built once and shared read-only by
        // every read.
        let tables = AcceptanceTable::for_schedule(&betas);
        let stop = self.stop.as_ref();
        let mut reads: Vec<(Vec<u8>, f64)> = Vec::with_capacity(self.num_reads);
        let mut accepted = 0u64;
        let mut dynamics = SamplerDynamics::default();
        if probes && self.num_reads > 0 {
            let mut probe = SweepProbes::new(tables.len());
            let t0 = since_start();
            let (state, energy, read_accepted) = Self::one_read(
                &compiled,
                &tables,
                read_seed(self.seed, 0),
                stop,
                Some(&mut probe),
            );
            dynamics = probe.finish();
            dynamics
                .read_spans
                .push((t0, since_start().saturating_sub(t0)));
            reads.push((state, energy));
            accepted += read_accepted;
        }
        for (start, lanes) in Self::blocks(usize::from(probes)..self.num_reads) {
            let t0 = probes.then(since_start);
            let (block, block_accepted) =
                Self::read_block(&compiled, &tables, self.seed, start, lanes, stop);
            if let Some(t0) = t0 {
                let interval = (t0, since_start().saturating_sub(t0));
                dynamics
                    .read_spans
                    .extend(std::iter::repeat_n(interval, lanes));
            }
            reads.extend(block);
            accepted += block_accepted;
        }
        let sweeps = betas.len() as u64;
        let stats = SamplerRunStats {
            sweeps: Some(sweeps),
            proposals: Some(sweeps * model.num_vars() as u64 * self.num_reads as u64),
            accepted: Some(accepted),
            elapsed_us: Some(since_start()),
            replicas: self.replicas_per_block(),
        };
        (SampleSet::from_reads(reads), stats, dynamics)
    }

    fn name(&self) -> &'static str {
        "simulated-annealing"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frustrated 6-variable model with a unique known ground state.
    fn gadget() -> (QuboModel, Vec<u8>) {
        let mut m = QuboModel::new(6);
        // chain of equalities x0=x1=...=x5 plus a field pinning x0=1
        m.add_linear(0, -2.0);
        for i in 0..5u32 {
            // bits_equal penalty expanded
            m.add_linear(i, 1.0);
            m.add_linear(i + 1, 1.0);
            m.add_quadratic(i, i + 1, -2.0);
        }
        (m, vec![1; 6])
    }

    #[test]
    fn finds_unique_ground_state() {
        let (m, gs) = gadget();
        let sa = SimulatedAnnealer::new().with_seed(42).with_num_reads(16);
        let set = sa.sample(&m);
        assert_eq!(set.best().unwrap().state, gs);
        let (exact_e, _) = m.brute_force_ground_states();
        assert!((set.lowest_energy().unwrap() - exact_e).abs() < 1e-9);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (m, _) = gadget();
        let a = SimulatedAnnealer::new().with_seed(9).sample(&m);
        let b = SimulatedAnnealer::new().with_seed(9).sample(&m);
        assert_eq!(a, b);
    }

    #[test]
    fn read_count_is_respected() {
        let (m, _) = gadget();
        let set = SimulatedAnnealer::new()
            .with_num_reads(10)
            .with_seed(1)
            .sample(&m);
        assert_eq!(set.total_reads(), 10);
    }

    #[test]
    fn zero_model_samples_arbitrary_states_at_zero_energy() {
        let m = QuboModel::new(8);
        let set = SimulatedAnnealer::new().with_seed(5).sample(&m);
        assert_eq!(set.lowest_energy().unwrap(), 0.0);
    }

    #[test]
    fn explicit_schedule_is_used() {
        let (m, gs) = gadget();
        let sa = SimulatedAnnealer::new()
            .with_seed(2)
            .with_num_reads(16)
            .with_schedule(BetaSchedule::Linear {
                beta_min: 0.05,
                beta_max: 12.0,
                sweeps: 300,
            });
        assert_eq!(sa.sample(&m).best().unwrap().state, gs);
    }

    #[test]
    fn sample_stats_matches_sample_and_counts_moves() {
        let (m, _) = gadget();
        let sa = SimulatedAnnealer::new().with_seed(7).with_num_reads(4);
        let (set, stats) = sa.sample_stats(&m);
        assert_eq!(set, sa.sample(&m), "observability must not change results");
        let sweeps = stats.sweeps.unwrap();
        assert!(sweeps > 0);
        let proposals = stats.proposals.unwrap();
        assert_eq!(proposals, sweeps * 6 * 4, "6 vars × 4 reads per sweep");
        let accepted = stats.accepted.unwrap();
        assert!(accepted <= proposals);
        assert!(accepted > 0, "a hot schedule accepts at least some moves");
        let rate = stats.acceptance_rate().unwrap();
        assert!(rate > 0.0 && rate <= 1.0);
    }

    #[test]
    fn probed_run_returns_identical_samples() {
        let (m, _) = gadget();
        let sa = SimulatedAnnealer::new().with_seed(13).with_num_reads(8);
        let plain = sa.sample(&m);
        let (probed, stats, dynamics) = sa.run(&m, true);
        assert_eq!(probed, plain, "probes must not change results");
        assert_eq!(stats.accepted, sa.sample_stats(&m).1.accepted);
        // The probe read produced a trace ending at the realized sweep
        // count and a bounded β-acceptance table covering every
        // probe-read proposal.
        let sweeps = stats.sweeps.unwrap();
        assert_eq!(dynamics.energy_trace.last().unwrap().sweep, sweeps);
        assert!(!dynamics.beta_acceptance.is_empty());
        assert!(dynamics.beta_acceptance.len() <= 256);
        assert_eq!(
            dynamics
                .beta_acceptance
                .iter()
                .map(|b| b.proposals)
                .sum::<u64>(),
            sweeps * 6
        );
        assert_eq!(dynamics.sweep_improvement.len() as u64, sweeps);
        assert!(!dynamics.proposal_latency_ns.is_empty());
        // Best-energy trace is non-increasing.
        assert!(dynamics
            .energy_trace
            .windows(2)
            .all(|w| w[1].best_energy <= w[0].best_energy));
    }

    #[test]
    fn disabled_probes_return_empty_dynamics() {
        let (m, _) = gadget();
        let sa = SimulatedAnnealer::new().with_seed(13).with_num_reads(4);
        let (set, _, dynamics) = sa.run(&m, false);
        assert_eq!(set, sa.sample(&m));
        assert!(dynamics.is_empty());
    }

    #[test]
    fn probed_runs_time_every_read() {
        let (m, _) = gadget();
        // 3 reads: the probe read plus one block of 2.
        let sa = SimulatedAnnealer::new().with_seed(13).with_num_reads(3);
        let (_, _, dynamics) = sa.run(&m, true);
        assert_eq!(dynamics.read_spans.len(), 3);
        // Reads in the same bit-sliced block share the block interval.
        assert_eq!(dynamics.read_spans[1], dynamics.read_spans[2]);
        // A plain run records nothing (pinned by is_empty above).
        let (_, _, off) = sa.run(&m, false);
        assert!(off.read_spans.is_empty());
    }

    #[test]
    fn big_m_penalty_coefficients_do_not_trip_drift_check() {
        // Big-M penalty encodings put 1e12-scale coefficients in the
        // model; the incremental-energy drift assert must scale its
        // tolerance with the flip magnitude instead of false-alarming
        // (this test runs under debug assertions in `cargo test`).
        let mut m = QuboModel::new(8);
        for i in 0..8u32 {
            m.add_linear(i, if i % 2 == 0 { 1e12 } else { -1e12 });
        }
        for i in 0..7u32 {
            m.add_quadratic(i, i + 1, 5e11);
        }
        let set = SimulatedAnnealer::new()
            .with_seed(11)
            .with_num_reads(8)
            .sample(&m);
        let (exact_e, _) = m.brute_force_ground_states();
        assert!((set.lowest_energy().unwrap() - exact_e).abs() < 1e-3 * exact_e.abs());
    }

    #[test]
    fn block_path_is_bit_identical_to_scalar_reads() {
        // The production block path must reproduce the scalar reference
        // read-for-read, bit-for-bit — states, energies, and accept
        // counts. 70 reads exercises a full 64-lane word plus a 6-lane
        // tail block.
        let (m, _) = gadget();
        let compiled = CompiledQubo::compile(&m);
        let betas = BetaSchedule::auto(&compiled, 48).realize();
        let tables = AcceptanceTable::for_schedule(&betas);
        let sa = SimulatedAnnealer::new()
            .with_seed(17)
            .with_num_reads(70)
            .with_sweeps(48);
        let mut reads = Vec::new();
        let mut accepted = 0u64;
        for (start, lanes) in SimulatedAnnealer::blocks(0..sa.num_reads()) {
            let (block, block_accepted) =
                SimulatedAnnealer::read_block(&compiled, &tables, 17, start, lanes, None);
            reads.extend(block);
            accepted += block_accepted;
        }
        assert_eq!(reads.len(), 70);
        let mut scalar_accepted = 0u64;
        for (r, (state, energy)) in reads.iter().enumerate() {
            let (s_state, s_energy, s_acc) = SimulatedAnnealer::one_read(
                &compiled,
                &tables,
                read_seed(17, r as u64),
                None,
                None,
            );
            assert_eq!(*state, s_state, "read {r}");
            assert_eq!(*energy, s_energy, "read {r} energy must be bit-identical");
            scalar_accepted += s_acc;
        }
        assert_eq!(accepted, scalar_accepted);
    }

    #[test]
    fn untripped_stop_flag_is_bit_identical() {
        let (m, _) = gadget();
        let plain = SimulatedAnnealer::new().with_seed(9).sample(&m);
        let flagged = SimulatedAnnealer::new()
            .with_seed(9)
            .with_stop(StopFlag::new())
            .sample(&m);
        assert_eq!(plain, flagged, "an un-tripped flag must not steer");
    }

    #[test]
    fn tripped_stop_flag_cancels_before_the_first_sweep() {
        let (m, _) = gadget();
        let stop = StopFlag::new();
        stop.stop();
        // Every read bails at the first sweep boundary: zero accepted
        // flips, and the returned states are the random initial states.
        let sa = SimulatedAnnealer::new()
            .with_seed(4)
            .with_num_reads(8)
            .with_sweeps(4096)
            .with_stop(stop);
        let (set, stats) = sa.sample_stats(&m);
        assert_eq!(set.total_reads(), 8, "cancelled reads still report");
        assert_eq!(stats.accepted, Some(0));
        let (probed, _, dynamics) = sa.run(&m, true);
        assert_eq!(probed, set, "probed cancellation matches plain");
        assert!(dynamics.beta_acceptance.is_empty());
    }

    #[test]
    fn mid_run_stop_keeps_best_state_so_far() {
        let (m, _) = gadget();
        let stop = StopFlag::new();
        let sa = SimulatedAnnealer::new()
            .with_seed(6)
            .with_num_reads(2)
            .with_sweeps(200_000)
            .with_stop(stop.clone());
        let trip = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            stop.stop();
        });
        let started = std::time::Instant::now();
        let set = sa.sample(&m);
        trip.join().unwrap();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(30),
            "cancellation must cut the 200k-sweep budget short"
        );
        assert_eq!(set.total_reads(), 2);
        assert!(set.lowest_energy().unwrap().is_finite());
    }

    #[test]
    fn offset_is_included_in_reported_energy() {
        let mut m = QuboModel::new(1);
        m.add_linear(0, -1.0);
        m.add_offset(10.0);
        let set = SimulatedAnnealer::new().with_seed(0).sample(&m);
        assert!((set.lowest_energy().unwrap() - 9.0).abs() < 1e-9);
    }
}
