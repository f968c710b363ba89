//! Cross-commit bit-identity gate for every [`Sampler`] implementation.
//!
//! Each case samples a fixed model with a fixed seed and small budgets,
//! then reduces the result to its exact shape: a digest of the
//! [`SampleSet`] (states, occurrences and energy bits, in order), the
//! run counters (`sweeps`, `proposals`, `accepted`, `replicas` — never
//! `elapsed_us`), and for the probed run its own set digest, counters
//! and timing-free dynamics. The shape must match the checked-in
//! snapshot (`benchmarks/sampler_expected.json`), so a refactor of a
//! read loop that shifts one RNG draw, one acceptance decision or one
//! probe observation fails here even when the samples still look
//! plausible.
//!
//! To regenerate the snapshot after an intentional sampling change:
//!
//! ```text
//! QSMT_BLESS=1 cargo test --test sampler_golden
//! ```

use qsmt::anneal::{Polished, ProbeConfig, SamplerDynamics, SamplerRunStats};
use qsmt::telemetry::{parse, Json};
use qsmt::{
    Constraint, ExactSolver, ParallelTempering, PopulationAnnealer, QuboModel, RandomSampler,
    SampleSet, Sampler, SimulatedAnnealer, SimulatedQuantumAnnealer, SteepestDescent, TabuSearch,
};
use std::collections::BTreeMap;

fn snapshot_path() -> String {
    format!(
        "{}/benchmarks/sampler_expected.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// 64-bit FNV-1a over a byte stream, rendered as 16 hex digits.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    fn u64(self, x: u64) -> Self {
        self.bytes(&x.to_le_bytes())
    }

    fn f64(self, x: f64) -> Self {
        self.u64(x.to_bits())
    }

    fn hex(self) -> Json {
        Json::Str(format!("{:016x}", self.0))
    }
}

fn set_digest(set: &SampleSet) -> Json {
    set.iter()
        .fold(Fnv::new(), |h, s| {
            h.u64(s.state.len() as u64)
                .bytes(&s.state)
                .u64(s.occurrences as u64)
                .f64(s.energy)
        })
        .hex()
}

fn opt(x: Option<u64>) -> Json {
    x.map_or(Json::Null, Json::from)
}

fn counters(stats: &SamplerRunStats) -> Json {
    Json::obj([
        ("sweeps", opt(stats.sweeps)),
        ("proposals", opt(stats.proposals)),
        ("accepted", opt(stats.accepted)),
        ("replicas", opt(stats.replicas)),
    ])
}

/// A sequence's length plus the digest of its elements; `null` when
/// the sampler recorded none.
fn seq<T>(items: &[T], feed: impl Fn(Fnv, &T) -> Fnv) -> Json {
    if items.is_empty() {
        return Json::Null;
    }
    Json::obj([
        ("len", Json::from(items.len())),
        ("digest", items.iter().fold(Fnv::new(), feed).hex()),
    ])
}

/// Every dynamics field that does not depend on the wall clock.
/// `proposal_latency_ns` and `read_spans` are timings; only their
/// lengths are deterministic, so only the lengths are pinned. `null`
/// for samplers without probes.
fn dynamics(d: &SamplerDynamics) -> Json {
    if d.is_empty() {
        return Json::Null;
    }
    Json::obj([
        (
            "energy_trace",
            seq(&d.energy_trace, |h, p| h.u64(p.sweep).f64(p.best_energy)),
        ),
        (
            "beta_acceptance",
            seq(&d.beta_acceptance, |h, b| {
                h.f64(b.beta).u64(b.proposals).u64(b.accepted)
            }),
        ),
        (
            "swap_acceptance",
            seq(&d.swap_acceptance, |h, s| {
                h.f64(s.hotter_beta)
                    .f64(s.colder_beta)
                    .u64(s.attempts)
                    .u64(s.accepted)
            }),
        ),
        (
            "ess_trace",
            seq(&d.ess_trace, |h, p| h.u64(p.step).f64(p.beta).f64(p.ess)),
        ),
        ("aspiration_hits", opt(d.aspiration_hits)),
        (
            "sweep_improvement",
            seq(&d.sweep_improvement, |h, &x| h.f64(x)),
        ),
        (
            "proposal_latency_samples",
            Json::from(d.proposal_latency_ns.len()),
        ),
        ("read_spans", Json::from(d.read_spans.len())),
    ])
}

fn summarize(sampler: &dyn Sampler, model: &QuboModel) -> Json {
    let (set, stats) = sampler.sample_stats(model);
    let (probed, probed_stats, probed_dynamics) = sampler.run(model, Some(&ProbeConfig::default()));
    Json::obj([
        ("sampler", Json::from(sampler.name())),
        ("reads", Json::from(set.total_reads())),
        ("set", set_digest(&set)),
        ("stats", counters(&stats)),
        (
            "probed",
            Json::obj([
                ("set", set_digest(&probed)),
                ("stats", counters(&probed_stats)),
                ("dynamics", dynamics(&probed_dynamics)),
            ]),
        ),
    ])
}

/// Two competing 4-cliques, mutually exclusive: the rugged 8-variable
/// model the tempering tests and the serve exercise pass use.
fn two_well() -> QuboModel {
    let mut m = QuboModel::new(8);
    for i in 0..4u32 {
        m.add_linear(i, -1.0);
        for j in (i + 1)..4 {
            m.add_quadratic(i, j, -0.5);
        }
    }
    for i in 4..8u32 {
        m.add_linear(i, -1.2);
        for j in (i + 1)..8 {
            m.add_quadratic(i, j, -0.5);
        }
    }
    for i in 0..4u32 {
        for j in 4..8u32 {
            m.add_quadratic(i, j, 2.0);
        }
    }
    m
}

/// The 14-variable QUBO of a length-2 palindrome (2 chars × 7 bits).
fn palindrome() -> QuboModel {
    Constraint::Palindrome { len: 2 }
        .encode()
        .expect("palindrome encodes")
        .qubo
}

/// Every sampler with small budgets, so the gate stays fast in a debug
/// build. 70 SA reads cover the probe read, a full 64-lane block and a
/// tail block.
fn cases(n: usize, seed: u64) -> Vec<(&'static str, Box<dyn Sampler>)> {
    let warm: Vec<u8> = (0..n).map(|i| (i % 3 == 0) as u8).collect();
    vec![
        (
            "sa",
            Box::new(
                SimulatedAnnealer::new()
                    .with_seed(seed)
                    .with_num_reads(70)
                    .with_sweeps(48),
            ),
        ),
        (
            "sa-reverse",
            Box::new(
                SimulatedAnnealer::new()
                    .with_seed(seed)
                    .with_num_reads(12)
                    .reverse_anneal_from(warm),
            ),
        ),
        (
            "sqa",
            Box::new(
                SimulatedQuantumAnnealer::new()
                    .with_seed(seed)
                    .with_num_reads(4)
                    .with_sweeps(32)
                    .with_trotter_slices(6),
            ),
        ),
        (
            "pt",
            Box::new(ParallelTempering::new().with_seed(seed).with_rounds(24)),
        ),
        (
            "population",
            Box::new(
                PopulationAnnealer::new()
                    .with_seed(seed)
                    .with_population(16)
                    .with_steps(24),
            ),
        ),
        (
            "tabu",
            Box::new(
                TabuSearch::new()
                    .with_seed(seed)
                    .with_num_reads(4)
                    .with_steps(150),
            ),
        ),
        (
            "descent",
            Box::new(SteepestDescent::new().with_seed(seed).with_num_reads(12)),
        ),
        ("exact", Box::new(ExactSolver::new().with_keep(16))),
        (
            "random",
            Box::new(RandomSampler::new().with_seed(seed).with_num_reads(12)),
        ),
        (
            "polished-random",
            Box::new(Polished::new(
                RandomSampler::new().with_seed(seed).with_num_reads(12),
            )),
        ),
    ]
}

#[test]
fn sampler_output_matches_expected_snapshot() {
    let mut actual = BTreeMap::new();
    for (model_name, model, seed) in [("two-well", two_well(), 7), ("palindrome", palindrome(), 3)]
    {
        for (case, sampler) in cases(model.num_vars(), seed) {
            actual.insert(
                format!("{model_name}/{case}"),
                summarize(sampler.as_ref(), &model),
            );
        }
    }
    let actual = Json::Obj(actual);

    if std::env::var("QSMT_BLESS").is_ok() {
        std::fs::write(snapshot_path(), actual.pretty()).expect("write snapshot");
        eprintln!("blessed {}", snapshot_path());
        return;
    }

    let expected_text = std::fs::read_to_string(snapshot_path()).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run `QSMT_BLESS=1 cargo test --test sampler_golden` \
             to generate it",
            snapshot_path()
        )
    });
    let expected = parse(&expected_text).expect("snapshot is valid JSON");
    if actual != expected {
        let actual_pretty = actual.pretty();
        let expected_pretty = expected.pretty();
        for (a, e) in actual_pretty.lines().zip(expected_pretty.lines()) {
            if a != e {
                eprintln!("- {e}\n+ {a}");
            }
        }
        panic!(
            "sampler output drifted from the snapshot; if the change is intentional run \
             `QSMT_BLESS=1 cargo test --test sampler_golden` and commit the result"
        );
    }
}
