//! The `qsmt bench` harness: machine-readable annealing-performance
//! baselines (see `docs/PERFORMANCE.md`).
//!
//! Four sections, serialized as one JSON document (`BENCH_annealing.json`
//! by convention):
//!
//! * **kernel** — an apples-to-apples Metropolis sweep microbench of the
//!   pre-kernel loop (naive [`CompiledQubo::flip_delta`] per proposal,
//!   `exp` + RNG per uphill move) against the [`FlipKernel`] +
//!   [`AcceptanceTable`] fast path, on the same model, schedule, and seed.
//!   The `speedup` field is the regression gate for the O(1)-delta
//!   optimization.
//! * **samplers** — every production sampler run through
//!   [`Sampler::sample_stats`] on a reference formulation: wall time,
//!   proposals/sec, flips/sec, sweeps/sec, best energy.
//! * **formulations** — Table-1-style string constraints small enough for
//!   [`ExactSolver`] ground truth: per-formulation success fraction and
//!   time-to-ground-state at 99% confidence under the default annealer.
//! * **probe_overhead** (schema v2) — the trajectory-probe cost gate:
//!   the dense-model SA workload timed through plain `sample_stats`,
//!   through [`Sampler::run`] without probes, and through `run` with
//!   probes. The un-probed `run` must stay within 2% of `sample_stats` —
//!   that bound is asserted by `qsmt bench --check-overhead` and
//!   enforced in CI.
//! * **replica_scaling** (schema v3) — the bit-sliced
//!   [`MultiReplicaKernel`] dimension: the dense Metropolis workload at
//!   1/8/64 replicas per word, reporting
//!   *effective* proposals/s and flips/s (scaled by the replica count,
//!   since one sweep advances every lane). The 64-replica row must reach
//!   [`MIN_REPLICA_SPEEDUP`]× the scalar row's effective flips/s —
//!   asserted by `qsmt bench --check-replicas` in the nightly CI job.
//! * **trace_overhead** (schema v4) — the always-on tracing cost gate:
//!   the dense kernel-sweep workload timed plain and with one *inert*
//!   [`qsmt_trace::span`] opened per sweep (no trace active, the serving
//!   default). The span-bearing arm must stay within
//!   [`MAX_TRACE_OVERHEAD`] (1%) of the plain arm — asserted by `qsmt
//!   bench --check-trace-overhead` and enforced in both CI bench jobs,
//!   so instrumenting the solver stays free for untraced solves.
//!
//! The document shape is versioned ([`SCHEMA_VERSION`]) and checked by
//! [`validate`]; the CLI re-reads and validates what it wrote, so a
//! malformed bench artifact fails the run (and CI) instead of silently
//! uploading garbage.

use crate::anneal::{
    metrics, AcceptanceTable, BetaSchedule, ExactSolver, Sampler, SimulatedAnnealer,
    SimulatedQuantumAnnealer, SteepestDescent,
};
use crate::core::Constraint;
use crate::qubo::{CompiledQubo, FlipKernel, MultiReplicaKernel, QuboModel, Var, LANES};
use crate::telemetry::Json;
use qsmt_anneal::{multi, read_seed, SamplerRunStats};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Version of the `BENCH_annealing.json` document shape. v2 added the
/// `probe_overhead` section (trajectory-probe cost gate); v3 adds the
/// `replica_scaling` section (bit-sliced multi-replica kernel throughput
/// at 1/8/64 replicas per word) and the per-sampler `replicas` field; v4
/// adds the `trace_overhead` section (inert-span cost gate for the
/// `qsmt-trace` instrumentation).
pub const SCHEMA_VERSION: u32 = 4;

/// Energy tolerance for "hit the ground state" accounting.
const TOL: f64 = 1e-9;

/// Maximum tolerated throughput cost of the un-probed [`Sampler::run`]
/// relative to plain `sample_stats`, as a fraction (0.02 = 2%).
pub const MAX_DISABLED_OVERHEAD: f64 = 0.02;

/// Maximum tolerated cost of an *inert* [`qsmt_trace::span`] per sweep on
/// the dense kernel workload, as a fraction (0.01 = 1%). With no trace
/// active on the thread, a span is one thread-local read — no clock, no
/// allocation — so the instrumented solver must cost untraced solves
/// nothing measurable. Asserted by `qsmt bench --check-trace-overhead`.
pub const MAX_TRACE_OVERHEAD: f64 = 0.01;

/// Minimum effective-flips/s multiplier the 64-replica bit-sliced kernel
/// must reach over the scalar kernel on the dense bench. Asserted by
/// `qsmt bench --check-replicas` (nightly CI).
///
/// The design target is 5× (an order of magnitude is the stretch goal),
/// but the *enforced* floor is deliberately lower: per-lane RNG stream
/// hygiene means the word-wide sweep performs exactly the same uniform
/// draws as 64 scalar sweeps, and those draws alone are ~20% of the
/// scalar arm's cost — an Amdahl ceiling of ≈5× that noisy single-core
/// CI hosts measure at 2.5–4.7×. The gate guards the property that the
/// kernel is genuinely word-parallel (not a regression detector for the
/// last few percent); `docs/PERFORMANCE.md` has the full breakdown.
pub const MIN_REPLICA_SPEEDUP: f64 = 2.5;

/// Harness configuration.
#[derive(Debug, Clone, Default)]
pub struct BenchOptions {
    /// Shrink every workload (CI smoke mode): fewer sweeps, reads, and
    /// replicas. Numbers stay machine-readable but are not stable enough
    /// to compare across machines.
    pub quick: bool,
    /// Base RNG seed for every timed run.
    pub seed: u64,
}

/// Runs the full harness and returns the bench document.
pub fn run(opts: &BenchOptions) -> Json {
    let reference = Constraint::Equality {
        target: "hello".into(),
    }
    .encode()
    .expect("reference constraint encodes")
    .qubo;
    Json::obj([
        ("schema_version", Json::from(SCHEMA_VERSION)),
        (
            "mode",
            Json::from(if opts.quick { "quick" } else { "full" }),
        ),
        ("seed", Json::from(opts.seed)),
        ("kernel", kernel_microbench(&reference, opts)),
        ("samplers", sampler_section(&reference, opts)),
        ("formulations", formulation_section(opts)),
        ("probe_overhead", probe_overhead_section(opts)),
        ("replica_scaling", replica_scaling_section(opts)),
        ("trace_overhead", trace_overhead_section(opts)),
    ])
}

/// The dense Metropolis workload on the scalar [`FlipKernel`] path,
/// seeded exactly like replica lane 0 of the production read path
/// (`read_seed(seed, 0)` stream, initial state drawn from it). Returns
/// `(seconds, accepted flips, final energy)`.
fn scalar_replica_sweeps(
    compiled: &CompiledQubo,
    betas: &[f64],
    passes: usize,
    seed: u64,
) -> (f64, u64, f64) {
    let n = compiled.num_vars();
    let mut rng = SmallRng::seed_from_u64(read_seed(seed, 0));
    let state: Vec<u8> = (0..n).map(|_| rng.gen_range(0..=1u8)).collect();
    let tables = AcceptanceTable::for_schedule(betas);
    let mut kernel = FlipKernel::new(compiled, state);
    let mut accepted = 0u64;
    let started = Instant::now();
    for _ in 0..passes {
        for table in &tables {
            for i in 0..n as Var {
                if table.accept(kernel.delta(i), &mut rng) {
                    kernel.flip(compiled, i);
                    accepted += 1;
                }
            }
        }
    }
    (started.elapsed().as_secs_f64(), accepted, kernel.energy())
}

/// The same workload on the bit-sliced [`MultiReplicaKernel`]: one sweep
/// advances `replicas` lanes, each with its own `read_seed(seed, lane)`
/// RNG stream (lane 0 is bit-identical to the scalar arm). Returns
/// `(seconds, accepted flips across all lanes, lane-0 final energy)`.
fn multi_replica_sweeps(
    compiled: &CompiledQubo,
    betas: &[f64],
    passes: usize,
    seed: u64,
    replicas: usize,
) -> (f64, u64, f64) {
    let n = compiled.num_vars();
    let mut rngs: Vec<SmallRng> = (0..replicas)
        .map(|r| SmallRng::seed_from_u64(read_seed(seed, r as u64)))
        .collect();
    let states: Vec<Vec<u8>> = rngs
        .iter_mut()
        .map(|rng| (0..n).map(|_| rng.gen_range(0..=1u8)).collect())
        .collect();
    let tables = AcceptanceTable::for_schedule(betas);
    let mut kernel = MultiReplicaKernel::new(compiled, &states);
    let mut accepted = 0u64;
    let started = Instant::now();
    for _ in 0..passes {
        for table in &tables {
            accepted += multi::sweep_word(&mut kernel, compiled, table, &mut rngs);
        }
    }
    (started.elapsed().as_secs_f64(), accepted, kernel.energy(0))
}

/// Benches the dense Metropolis workload at several replicas-per-word
/// counts. Throughputs are *effective*: proposals and flips are counted
/// across every lane a sweep advances, which is what the bit-slicing
/// buys — the per-word sweep cost is amortized over the whole batch.
fn replica_scaling_section(opts: &BenchOptions) -> Json {
    let n = if opts.quick { 128 } else { 192 };
    let passes = if opts.quick { 4 } else { 20 };
    let model = dense_penalty_model(n, opts.seed);
    let compiled = CompiledQubo::compile(&model);
    let betas = BetaSchedule::auto(&compiled, 256).realize();
    let ladder = [1, 8, LANES];
    // Warm-up both arms so no row pays first-touch costs in its timer.
    let _ = scalar_replica_sweeps(&compiled, &betas, 1, opts.seed);
    let _ = multi_replica_sweeps(&compiled, &betas, 1, opts.seed, LANES);
    let per_replica_proposals = (passes * betas.len() * n) as f64;
    let mut scalar_pps = f64::NAN;
    let mut scalar_fps = f64::NAN;
    let mut headline_speedup = Json::Null;
    let mut headline_flips_speedup = Json::Null;
    let rows: Vec<Json> = ladder
        .iter()
        .map(|&replicas| {
            let (secs, accepted, energy) = if replicas == 1 {
                scalar_replica_sweeps(&compiled, &betas, passes, opts.seed)
            } else {
                multi_replica_sweeps(&compiled, &betas, passes, opts.seed, replicas)
            };
            let effective_proposals = per_replica_proposals * replicas as f64;
            let pps = effective_proposals / secs.max(1e-12);
            let fps = accepted as f64 / secs.max(1e-12);
            if replicas == 1 {
                scalar_pps = pps;
                scalar_fps = fps;
            }
            let speedup = pps / scalar_pps.max(1e-12);
            let flips_speedup = fps / scalar_fps.max(1e-12);
            if replicas == LANES {
                headline_speedup = Json::from(speedup);
                headline_flips_speedup = Json::from(flips_speedup);
            }
            Json::obj([
                ("replicas", Json::from(replicas)),
                (
                    "path",
                    Json::from(if replicas == 1 {
                        "scalar-kernel"
                    } else {
                        "multi-replica-kernel"
                    }),
                ),
                ("ms", Json::from(secs * 1e3)),
                ("effective_proposals", Json::from(effective_proposals)),
                ("effective_proposals_per_sec", Json::from(pps)),
                ("accepted", Json::from(accepted)),
                ("effective_flips_per_sec", Json::from(fps)),
                ("speedup_vs_scalar", Json::from(speedup)),
                ("flips_speedup_vs_scalar", Json::from(flips_speedup)),
                // Energy anchors the loops against being optimized away.
                ("lane0_final_energy", Json::from(energy)),
            ])
        })
        .collect();
    Json::obj([
        ("model_vars", Json::from(n)),
        ("sweeps_per_pass", Json::from(betas.len())),
        ("passes", Json::from(passes)),
        ("max_replicas", Json::from(LANES as u64)),
        ("speedup", headline_speedup),
        ("flips_speedup", headline_flips_speedup),
        ("min_flips_speedup", Json::from(MIN_REPLICA_SPEEDUP)),
        ("rows", Json::Arr(rows)),
    ])
}

/// Times the dense-model SA workload along three paths — plain
/// `sample_stats`, `run(model, false)`, and `run` with probes — and
/// reports the overheads. The first two arms share one code path, so the
/// disabled overhead guards the provided-method shim; see the inline
/// comments for how the repetitions are aggregated into noise-robust
/// ratios.
fn probe_overhead_section(opts: &BenchOptions) -> Json {
    // Arms need a timing window well above scheduler noise (tens of ms),
    // or the 2% gate flakes: size the workload up, not the tolerance.
    let n = if opts.quick { 128 } else { 192 };
    let sweeps = if opts.quick { 384 } else { 512 };
    let reads = if opts.quick { 8 } else { 16 };
    let reps: u32 = if opts.quick { 9 } else { 11 };
    let model = dense_penalty_model(n, opts.seed);
    let sa = SimulatedAnnealer::new()
        .with_seed(opts.seed)
        .with_num_reads(reads)
        .with_sweeps(sweeps);
    // Warm-up: fault in code and model pages outside the timers.
    let _ = sa.sample_stats(&model);
    // Interleave the arms round-robin so machine-load drift hits all
    // three alike, then gate on the MEDIAN of per-repetition ratios: the
    // arms of one repetition run back to back (drift cancels inside the
    // ratio) and the median throws away repetitions where a load spike
    // from a noisy neighbor landed on one arm.
    let mut plain_times = Vec::with_capacity(reps as usize);
    let mut off_ratios = Vec::with_capacity(reps as usize);
    let mut on_ratios = Vec::with_capacity(reps as usize);
    for _ in 0..reps {
        let t = Instant::now();
        let _ = sa.sample_stats(&model);
        let plain_t = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let _ = sa.run(&model, false);
        let off_t = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let _ = sa.run(&model, true);
        let on_t = t.elapsed().as_secs_f64();
        plain_times.push(plain_t);
        off_ratios.push(off_t / plain_t.max(1e-12));
        on_ratios.push(on_t / plain_t.max(1e-12));
    }
    let median = |xs: &mut Vec<f64>| -> f64 {
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        xs[xs.len() / 2]
    };
    let plain_secs = median(&mut plain_times);
    let off_ratio = median(&mut off_ratios);
    let on_ratio = median(&mut on_ratios);
    Json::obj([
        ("model_vars", Json::from(n)),
        ("sweeps", Json::from(sweeps)),
        ("reads", Json::from(reads)),
        ("repetitions", Json::from(reps)),
        ("plain_ms", Json::from(plain_secs * 1e3)),
        (
            "probes_disabled_ms",
            Json::from(plain_secs * off_ratio * 1e3),
        ),
        ("probes_enabled_ms", Json::from(plain_secs * on_ratio * 1e3)),
        ("disabled_overhead", Json::from(off_ratio - 1.0)),
        ("enabled_overhead", Json::from(on_ratio - 1.0)),
        ("max_disabled_overhead", Json::from(MAX_DISABLED_OVERHEAD)),
    ])
}

/// The kernel-sweep workload with one [`qsmt_trace::span`] opened per
/// sweep. The bench process never enters a trace, so every span takes the
/// inert path — this arm measures exactly what solver instrumentation
/// costs an untraced solve. Kept as a literal copy of [`kernel_sweeps`]
/// plus the span (rather than a shared closure-parameterized loop) so
/// inlining decisions cannot differ between the arms being compared.
fn spanned_kernel_sweeps(
    compiled: &CompiledQubo,
    betas: &[f64],
    passes: usize,
    seed: u64,
) -> (f64, f64) {
    let n = compiled.num_vars();
    let mut rng = SmallRng::seed_from_u64(seed);
    let state: Vec<u8> = (0..n).map(|_| rng.gen_range(0..=1u8)).collect();
    let tables = AcceptanceTable::for_schedule(betas);
    let mut kernel = FlipKernel::new(compiled, state);
    let started = Instant::now();
    for _ in 0..passes {
        for table in &tables {
            let _span = qsmt_trace::span("bench-sweep");
            for i in 0..n as Var {
                if table.accept(kernel.delta(i), &mut rng) {
                    kernel.flip(compiled, i);
                }
            }
        }
    }
    (started.elapsed().as_secs_f64(), kernel.energy())
}

/// Times the dense kernel-sweep workload plain and with one inert span
/// per sweep, and reports the overhead fraction gated by
/// [`MAX_TRACE_OVERHEAD`]. Same noise discipline as
/// [`probe_overhead_section`]: the arms of one repetition run back to
/// back (machine-load drift cancels inside the ratio) and the gate reads
/// the median of per-repetition ratios.
fn trace_overhead_section(opts: &BenchOptions) -> Json {
    // A 1% gate needs a timing window well above scheduler noise: size
    // the workload into the multi-millisecond range per arm.
    let n = if opts.quick { 128 } else { 192 };
    let passes = if opts.quick { 24 } else { 48 };
    let reps: u32 = if opts.quick { 9 } else { 11 };
    let model = dense_penalty_model(n, opts.seed);
    let compiled = CompiledQubo::compile(&model);
    let betas = BetaSchedule::auto(&compiled, 256).realize();
    // Warm-up both arms so neither pays first-touch costs in its timer;
    // the spanned warm-up also faults in the trace thread-local.
    let _ = kernel_sweeps(&compiled, &betas, 1, opts.seed);
    let _ = spanned_kernel_sweeps(&compiled, &betas, 1, opts.seed);
    let mut plain_times = Vec::with_capacity(reps as usize);
    let mut ratios = Vec::with_capacity(reps as usize);
    for _ in 0..reps {
        let (plain_t, _) = kernel_sweeps(&compiled, &betas, passes, opts.seed);
        let (spanned_t, _) = spanned_kernel_sweeps(&compiled, &betas, passes, opts.seed);
        plain_times.push(plain_t);
        ratios.push(spanned_t / plain_t.max(1e-12));
    }
    let median = |xs: &mut Vec<f64>| -> f64 {
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        xs[xs.len() / 2]
    };
    let plain_secs = median(&mut plain_times);
    let ratio = median(&mut ratios);
    Json::obj([
        ("model_vars", Json::from(n)),
        ("sweeps", Json::from(passes * betas.len())),
        ("span_calls", Json::from(passes * betas.len())),
        ("repetitions", Json::from(reps)),
        ("plain_ms", Json::from(plain_secs * 1e3)),
        ("spans_ms", Json::from(plain_secs * ratio * 1e3)),
        ("disabled_overhead", Json::from(ratio - 1.0)),
        ("max_disabled_overhead", Json::from(MAX_TRACE_OVERHEAD)),
    ])
}

/// One timed pass of the pre-kernel Metropolis sweep loop: naive
/// per-proposal `flip_delta` (O(degree)) plus textbook `exp` + RNG
/// acceptance. This is deliberately the loop every sampler ran before the
/// flip kernels existed — the bench baseline must not quietly inherit the
/// optimization it measures.
fn naive_sweeps(compiled: &CompiledQubo, betas: &[f64], passes: usize, seed: u64) -> (f64, f64) {
    let n = compiled.num_vars();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut state: Vec<u8> = (0..n).map(|_| rng.gen_range(0..=1u8)).collect();
    let mut energy = compiled.energy(&state);
    let started = Instant::now();
    for _ in 0..passes {
        for &beta in betas {
            for i in 0..n as Var {
                let d = compiled.flip_delta(&state, i);
                if d <= 0.0 || rng.gen::<f64>() < (-beta * d).exp() {
                    state[i as usize] ^= 1;
                    energy += d;
                }
            }
        }
    }
    (started.elapsed().as_secs_f64(), energy)
}

/// The same workload on the [`FlipKernel`] + [`AcceptanceTable`] path.
fn kernel_sweeps(compiled: &CompiledQubo, betas: &[f64], passes: usize, seed: u64) -> (f64, f64) {
    let n = compiled.num_vars();
    let mut rng = SmallRng::seed_from_u64(seed);
    let state: Vec<u8> = (0..n).map(|_| rng.gen_range(0..=1u8)).collect();
    let tables = AcceptanceTable::for_schedule(betas);
    let mut kernel = FlipKernel::new(compiled, state);
    let started = Instant::now();
    for _ in 0..passes {
        for table in &tables {
            for i in 0..n as Var {
                if table.accept(kernel.delta(i), &mut rng) {
                    kernel.flip(compiled, i);
                }
            }
        }
    }
    (started.elapsed().as_secs_f64(), kernel.energy())
}

/// A coupling-heavy penalty model: the regime embedded hardware graphs,
/// one-hot gadgets, and chain penalties put the sampler in, where the
/// naive per-proposal neighbor walk is O(degree) and the kernel's O(1)
/// delta dominates. String-encoding QUBOs themselves are nearly diagonal,
/// so benching only those would hide the cost the kernel removes.
fn dense_penalty_model(n: usize, seed: u64) -> QuboModel {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut m = QuboModel::new(n);
    for i in 0..n as Var {
        m.add_linear(i, rng.gen_range(-1.0..1.0));
    }
    for i in 0..n as Var {
        for j in (i + 1)..n as Var {
            if rng.gen_bool(0.25) {
                m.add_quadratic(i, j, rng.gen_range(-1.0..1.0));
            }
        }
    }
    m
}

/// Benches one model on both sweep paths and returns the comparison row.
fn kernel_row(label: &'static str, model: &QuboModel, passes: usize, seed: u64) -> Json {
    let compiled = CompiledQubo::compile(model);
    let n = compiled.num_vars();
    let betas = BetaSchedule::auto(&compiled, 256).realize();
    // Warm-up pass so neither arm pays first-touch costs inside the timer.
    let _ = naive_sweeps(&compiled, &betas, 1, seed);
    let _ = kernel_sweeps(&compiled, &betas, 1, seed);
    let (naive_secs, naive_energy) = naive_sweeps(&compiled, &betas, passes, seed);
    let (kernel_secs, kernel_energy) = kernel_sweeps(&compiled, &betas, passes, seed);
    let proposals = (passes * betas.len() * n) as f64;
    // Final energies anchor the work so the loops cannot be optimized
    // away; they are not expected to be equal (the fast path intentionally
    // skips RNG draws, which diverges the walk, not the distribution).
    let naive_pps = proposals / naive_secs.max(1e-12);
    let kernel_pps = proposals / kernel_secs.max(1e-12);
    Json::obj([
        ("model", Json::from(label)),
        ("num_vars", Json::from(n)),
        ("sweeps", Json::from(passes * betas.len())),
        ("proposals", Json::from(proposals)),
        ("naive_ms", Json::from(naive_secs * 1e3)),
        ("kernel_ms", Json::from(kernel_secs * 1e3)),
        ("naive_proposals_per_sec", Json::from(naive_pps)),
        ("kernel_proposals_per_sec", Json::from(kernel_pps)),
        ("speedup", Json::from(kernel_pps / naive_pps.max(1e-12))),
        ("naive_final_energy", Json::from(naive_energy)),
        ("kernel_final_energy", Json::from(kernel_energy)),
    ])
}

fn kernel_microbench(reference: &QuboModel, opts: &BenchOptions) -> Json {
    let sparse_passes = if opts.quick { 20 } else { 200 };
    let dense_passes = if opts.quick { 2 } else { 10 };
    let dense_n = if opts.quick { 128 } else { 192 };
    let sparse = kernel_row(
        "string-equality \"hello\" (sparse)",
        reference,
        sparse_passes,
        opts.seed,
    );
    let dense = kernel_row(
        "dense-penalty d=0.25 (coupled)",
        &dense_penalty_model(dense_n, opts.seed),
        dense_passes,
        opts.seed,
    );
    // Headline numbers come from the coupled model — the regime the
    // kernel exists for; the sparse row documents the floor.
    let headline = |field: &str| {
        dense
            .get(field)
            .and_then(Json::as_f64)
            .map_or(Json::Null, Json::from)
    };
    Json::obj([
        ("naive_ms", headline("naive_ms")),
        ("kernel_ms", headline("kernel_ms")),
        (
            "naive_proposals_per_sec",
            headline("naive_proposals_per_sec"),
        ),
        (
            "kernel_proposals_per_sec",
            headline("kernel_proposals_per_sec"),
        ),
        ("speedup", headline("speedup")),
        ("models", Json::Arr(vec![sparse, dense])),
    ])
}

fn sampler_row(name: &'static str, sampler: &dyn Sampler, model: &QuboModel) -> Json {
    let started = Instant::now();
    let (set, stats) = sampler.sample_stats(model);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    // Prefer the sampler's own clock, consistent with the telemetry layer.
    let timed = SamplerRunStats {
        elapsed_us: stats.elapsed_us.or(Some((wall_ms * 1e3) as u64)),
        ..stats
    };
    let opt = |v: Option<f64>| v.map_or(Json::Null, Json::from);
    let sweeps_per_sec = match (timed.sweeps, timed.elapsed_us) {
        (Some(s), Some(us)) if us > 0 => Some(s as f64 * 1e6 / us as f64),
        _ => None,
    };
    Json::obj([
        ("sampler", Json::from(name)),
        ("wall_ms", Json::from(wall_ms)),
        ("proposals", timed.proposals.map_or(Json::Null, Json::from)),
        ("proposals_per_sec", opt(timed.proposals_per_sec())),
        ("flips_per_sec", opt(timed.flips_per_sec())),
        ("sweeps_per_sec", opt(sweeps_per_sec)),
        ("acceptance_rate", opt(timed.acceptance_rate())),
        ("replicas", timed.replicas.map_or(Json::Null, Json::from)),
        (
            "best_energy",
            set.lowest_energy().map_or(Json::Null, Json::from),
        ),
    ])
}

fn sampler_section(model: &QuboModel, opts: &BenchOptions) -> Json {
    let q = opts.quick;
    let seed = opts.seed;
    let samplers: Vec<(&'static str, Box<dyn Sampler>)> = vec![
        (
            "simulated-annealing",
            Box::new(
                SimulatedAnnealer::new()
                    .with_seed(seed)
                    .with_num_reads(if q { 8 } else { 32 })
                    .with_sweeps(if q { 128 } else { 384 }),
            ),
        ),
        (
            "simulated-quantum-annealing",
            Box::new(
                SimulatedQuantumAnnealer::new()
                    .with_seed(seed)
                    .with_num_reads(if q { 4 } else { 8 })
                    .with_sweeps(if q { 64 } else { 256 }),
            ),
        ),
        (
            "steepest-descent",
            Box::new(SteepestDescent::new().with_seed(seed).with_num_reads(if q {
                16
            } else {
                64
            })),
        ),
    ];
    Json::Arr(
        samplers
            .iter()
            .map(|(name, s)| sampler_row(name, s.as_ref(), model))
            .collect(),
    )
}

/// Table-1-style formulations kept under the exact-enumeration limit so
/// "ground state" means the real ground state, not best-seen.
fn formulation_cases() -> Vec<(&'static str, Constraint)> {
    vec![
        (
            "equality-hi",
            Constraint::Equality {
                target: "hi".into(),
            },
        ),
        (
            "substring-a-len2",
            Constraint::SubstringMatch {
                substring: "a".into(),
                len: 2,
            },
        ),
        (
            "includes-ll-in-hello",
            Constraint::Includes {
                haystack: "hello".into(),
                needle: "ll".into(),
            },
        ),
    ]
}

fn formulation_section(opts: &BenchOptions) -> Json {
    let rows = formulation_cases()
        .into_iter()
        .map(|(name, constraint)| {
            let encoded = constraint.encode().expect("bench constraint encodes");
            let (ground, _) = ExactSolver::new().ground_states(&encoded.qubo);
            let reads = if opts.quick { 16 } else { 64 };
            let sa = SimulatedAnnealer::new()
                .with_seed(opts.seed)
                .with_num_reads(reads);
            let started = Instant::now();
            let (set, stats) = sa.sample_stats(&encoded.qubo);
            let wall = started.elapsed();
            let success = metrics::ground_state_probability(&set, ground, TOL);
            let per_read = Duration::from_micros(
                stats.elapsed_us.unwrap_or(wall.as_micros() as u64) / reads.max(1) as u64,
            );
            let tts = metrics::time_to_solution(&set, ground, TOL, per_read, 0.99);
            Json::obj([
                ("name", Json::from(name)),
                ("encoding", Json::from(encoded.name)),
                ("num_vars", Json::from(encoded.qubo.num_vars())),
                ("ground_energy", Json::from(ground)),
                (
                    "best_energy",
                    set.lowest_energy().map_or(Json::Null, Json::from),
                ),
                ("success_fraction", Json::from(success)),
                (
                    "tts99_us",
                    tts.map_or(Json::Null, |d| Json::from(d.as_micros() as u64)),
                ),
                ("sample_ms", Json::from(wall.as_secs_f64() * 1e3)),
            ])
        })
        .collect();
    Json::Arr(rows)
}

/// Checks that a bench document has the versioned shape this module
/// writes. Returns the first violation found.
///
/// # Errors
/// Returns a human-readable description of the first schema violation.
pub fn validate(doc: &Json) -> Result<(), String> {
    match doc.get("schema_version").and_then(Json::as_u64) {
        Some(v) if v == SCHEMA_VERSION as u64 => {}
        Some(v) => return Err(format!("schema_version {v}, expected {SCHEMA_VERSION}")),
        None => return Err("missing schema_version".into()),
    }
    match doc.get("mode").and_then(Json::as_str) {
        Some("quick") | Some("full") => {}
        other => return Err(format!("mode must be quick|full, got {other:?}")),
    }
    let kernel = doc.get("kernel").ok_or("missing kernel section")?;
    for field in [
        "naive_proposals_per_sec",
        "kernel_proposals_per_sec",
        "speedup",
        "naive_ms",
        "kernel_ms",
    ] {
        let v = kernel
            .get(field)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("kernel.{field} missing or not a number"))?;
        if !v.is_finite() || v <= 0.0 {
            return Err(format!(
                "kernel.{field} must be positive and finite, got {v}"
            ));
        }
    }
    let samplers = doc
        .get("samplers")
        .and_then(Json::as_arr)
        .ok_or("missing samplers array")?;
    if samplers.is_empty() {
        return Err("samplers array is empty".into());
    }
    for (i, row) in samplers.iter().enumerate() {
        row.get("sampler")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("samplers[{i}].sampler missing"))?;
        let wall = row
            .get("wall_ms")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("samplers[{i}].wall_ms missing"))?;
        if !wall.is_finite() || wall < 0.0 {
            return Err(format!("samplers[{i}].wall_ms invalid: {wall}"));
        }
    }
    let formulations = doc
        .get("formulations")
        .and_then(Json::as_arr)
        .ok_or("missing formulations array")?;
    if formulations.is_empty() {
        return Err("formulations array is empty".into());
    }
    for (i, row) in formulations.iter().enumerate() {
        row.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("formulations[{i}].name missing"))?;
        row.get("ground_energy")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("formulations[{i}].ground_energy missing"))?;
        let s = row
            .get("success_fraction")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("formulations[{i}].success_fraction missing"))?;
        if !(0.0..=1.0).contains(&s) {
            return Err(format!(
                "formulations[{i}].success_fraction out of [0,1]: {s}"
            ));
        }
    }
    let probe = doc
        .get("probe_overhead")
        .ok_or("missing probe_overhead section")?;
    for field in ["plain_ms", "probes_disabled_ms", "probes_enabled_ms"] {
        let v = probe
            .get(field)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("probe_overhead.{field} missing or not a number"))?;
        if !v.is_finite() || v <= 0.0 {
            return Err(format!(
                "probe_overhead.{field} must be positive and finite, got {v}"
            ));
        }
    }
    for field in ["disabled_overhead", "enabled_overhead"] {
        let v = probe
            .get(field)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("probe_overhead.{field} missing or not a number"))?;
        if !v.is_finite() {
            return Err(format!("probe_overhead.{field} must be finite, got {v}"));
        }
    }
    let scaling = doc
        .get("replica_scaling")
        .ok_or("missing replica_scaling section")?;
    for field in ["speedup", "flips_speedup", "min_flips_speedup"] {
        let v = scaling
            .get(field)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("replica_scaling.{field} missing or not a number"))?;
        if !v.is_finite() || v <= 0.0 {
            return Err(format!(
                "replica_scaling.{field} must be positive and finite, got {v}"
            ));
        }
    }
    let rows = scaling
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("missing replica_scaling.rows array")?;
    if rows.is_empty() {
        return Err("replica_scaling.rows is empty".into());
    }
    match rows[0].get("replicas").and_then(Json::as_u64) {
        Some(1) => {}
        other => {
            return Err(format!(
                "replica_scaling.rows[0] must be the scalar baseline (replicas=1), got {other:?}"
            ))
        }
    }
    for (i, row) in rows.iter().enumerate() {
        let r = row
            .get("replicas")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("replica_scaling.rows[{i}].replicas missing"))?;
        if !(1..=64).contains(&r) {
            return Err(format!(
                "replica_scaling.rows[{i}].replicas out of 1..=64: {r}"
            ));
        }
        for field in [
            "ms",
            "effective_proposals_per_sec",
            "effective_flips_per_sec",
            "speedup_vs_scalar",
        ] {
            let v = row
                .get(field)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("replica_scaling.rows[{i}].{field} missing"))?;
            if !v.is_finite() || v <= 0.0 {
                return Err(format!(
                    "replica_scaling.rows[{i}].{field} must be positive and finite, got {v}"
                ));
            }
        }
    }
    let trace = doc
        .get("trace_overhead")
        .ok_or("missing trace_overhead section")?;
    for field in ["plain_ms", "spans_ms"] {
        let v = trace
            .get(field)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("trace_overhead.{field} missing or not a number"))?;
        if !v.is_finite() || v <= 0.0 {
            return Err(format!(
                "trace_overhead.{field} must be positive and finite, got {v}"
            ));
        }
    }
    let v = trace
        .get("disabled_overhead")
        .and_then(Json::as_f64)
        .ok_or("trace_overhead.disabled_overhead missing or not a number")?;
    if !v.is_finite() {
        return Err(format!(
            "trace_overhead.disabled_overhead must be finite, got {v}"
        ));
    }
    Ok(())
}

/// Reads the disabled-probe overhead fraction out of a bench document.
/// Used by `qsmt bench --check-overhead` and its CI gate.
pub fn disabled_overhead(doc: &Json) -> Option<f64> {
    doc.get("probe_overhead")?
        .get("disabled_overhead")
        .and_then(Json::as_f64)
}

/// Re-times just the probe-overhead section and returns the fresh
/// disabled-path overhead fraction. `--check-overhead` retries with this
/// before failing: a genuine probe regression fails every attempt, while
/// a load spike from a busy host passes on re-measurement.
pub fn remeasure_disabled_overhead(opts: &BenchOptions) -> Option<f64> {
    disabled_overhead(&Json::obj([(
        "probe_overhead",
        probe_overhead_section(opts),
    )]))
}

/// Reads the headline effective-flips/s speedup (largest replica count vs
/// the scalar row) out of a bench document. Used by `qsmt bench
/// --check-replicas` and its nightly CI gate.
pub fn replica_speedup(doc: &Json) -> Option<f64> {
    doc.get("replica_scaling")?
        .get("flips_speedup")
        .and_then(Json::as_f64)
}

/// Re-times just the replica-scaling section and returns the fresh
/// headline speedup. `--check-replicas` retries with this before
/// failing, for the same reason as [`remeasure_disabled_overhead`]: a
/// genuine kernel regression fails every attempt, a host load spike
/// passes on re-measurement.
pub fn remeasure_replica_speedup(opts: &BenchOptions) -> Option<f64> {
    replica_speedup(&Json::obj([(
        "replica_scaling",
        replica_scaling_section(opts),
    )]))
}

/// Reads the inert-span overhead fraction out of a bench document. Used
/// by `qsmt bench --check-trace-overhead` and its CI gate.
pub fn trace_overhead(doc: &Json) -> Option<f64> {
    doc.get("trace_overhead")?
        .get("disabled_overhead")
        .and_then(Json::as_f64)
}

/// Re-times just the trace-overhead section and returns the fresh
/// overhead fraction. `--check-trace-overhead` retries with this before
/// failing, with the same rationale as [`remeasure_disabled_overhead`].
pub fn remeasure_trace_overhead(opts: &BenchOptions) -> Option<f64> {
    trace_overhead(&Json::obj([(
        "trace_overhead",
        trace_overhead_section(opts),
    )]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::parse;

    #[test]
    fn quick_bench_produces_valid_schema() {
        let doc = run(&BenchOptions {
            quick: true,
            seed: 7,
        });
        validate(&doc).expect("self-produced document validates");
        // And it survives a serialize/parse round trip.
        let reparsed = parse(&doc.pretty()).expect("valid JSON");
        validate(&reparsed).expect("round-tripped document validates");
    }

    #[test]
    fn validate_rejects_missing_sections() {
        let bad = Json::obj([("schema_version", Json::from(SCHEMA_VERSION))]);
        assert!(validate(&bad).unwrap_err().contains("mode"));
        let wrong_version = Json::obj([("schema_version", Json::from(99u32))]);
        assert!(validate(&wrong_version)
            .unwrap_err()
            .contains("schema_version"));
    }

    #[test]
    fn replica_arms_share_lane_zero_bit_for_bit() {
        // The scalar row and every multi-replica row run replica 0 on the
        // same read_seed(seed, 0) stream, so lane 0's final energy is
        // bit-identical across arms — the rows measure the same walk, not
        // merely similar workloads.
        let model = dense_penalty_model(48, 11);
        let compiled = CompiledQubo::compile(&model);
        let betas = BetaSchedule::auto(&compiled, 32).realize();
        let (_, scalar_accepted, scalar_energy) = scalar_replica_sweeps(&compiled, &betas, 2, 11);
        for replicas in [1usize, 8, 64] {
            let (_, accepted, energy) = multi_replica_sweeps(&compiled, &betas, 2, 11, replicas);
            assert_eq!(energy, scalar_energy, "{replicas} replicas, lane 0");
            assert!(accepted >= scalar_accepted, "{replicas} replicas");
        }
        let (_, one_lane_accepted, _) = multi_replica_sweeps(&compiled, &betas, 2, 11, 1);
        assert_eq!(one_lane_accepted, scalar_accepted);
    }

    #[test]
    fn replica_speedup_reads_the_headline_field() {
        let doc = Json::obj([(
            "replica_scaling",
            Json::obj([("flips_speedup", Json::from(6.5))]),
        )]);
        assert_eq!(replica_speedup(&doc), Some(6.5));
        assert_eq!(replica_speedup(&Json::obj([])), None);
    }

    #[test]
    fn trace_overhead_reads_the_gate_field() {
        let doc = Json::obj([(
            "trace_overhead",
            Json::obj([("disabled_overhead", Json::from(0.004))]),
        )]);
        assert_eq!(trace_overhead(&doc), Some(0.004));
        assert_eq!(trace_overhead(&Json::obj([])), None);
    }

    #[test]
    fn spanned_sweeps_match_plain_sweeps_exactly() {
        // With no trace active the span arm must perform the identical
        // walk: same RNG stream, same accepts, same final energy.
        let m = dense_penalty_model(48, 5);
        let c = CompiledQubo::compile(&m);
        let betas = BetaSchedule::auto(&c, 32).realize();
        let (_, plain_energy) = kernel_sweeps(&c, &betas, 2, 5);
        let (_, spanned_energy) = spanned_kernel_sweeps(&c, &betas, 2, 5);
        assert_eq!(plain_energy, spanned_energy);
    }

    #[test]
    fn kernel_paths_measure_the_same_workload() {
        let m = Constraint::Equality {
            target: "hi".into(),
        }
        .encode()
        .unwrap()
        .qubo;
        let c = CompiledQubo::compile(&m);
        let betas = BetaSchedule::auto(&c, 32).realize();
        let (naive_secs, _) = naive_sweeps(&c, &betas, 2, 3);
        let (kernel_secs, _) = kernel_sweeps(&c, &betas, 2, 3);
        assert!(naive_secs > 0.0 && kernel_secs > 0.0);
    }
}
