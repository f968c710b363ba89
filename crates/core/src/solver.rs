//! The solver facade: constraint → QUBO → sampler → decoded, validated
//! answer with its run report, plus a rendering of the paper's Figure 1
//! pipeline.

use crate::cache::{CacheLookup, SolveCache};
use crate::constraint::Constraint;
use crate::error::ConstraintError;
use crate::portfolio::Portfolio;
use crate::problem::{EncodedProblem, Solution};
use qsmt_anneal::{
    metrics, ProbeConfig, SampleSet, Sampler, SamplerDynamics, SamplerRunStats, SimulatedAnnealer,
};
use qsmt_lint::{lint_qubo, LintConfig, LintReport};
use qsmt_qubo::{DenseQubo, ModelFingerprint, QuboModel, StopFlag};
use qsmt_telemetry::{
    CacheStats, CompileStats, DynamicsStats, HistogramSummary, PresolveStats, SamplerStats,
    SelectStats, SolveReport, StageTiming, StallVerdict,
};
use std::sync::Arc;
use std::time::Duration;

/// The quantum(-simulated) string SMT solver.
///
/// Implements the paper's Figure 1 pipeline: take a string operation and
/// its arguments, generate binary variables, encode objective and penalty
/// functions into a QUBO matrix, pass it to a (simulated) annealer, and
/// decode the output back to a string.
///
/// On top of the paper, the solver adds the *consistency check* that the
/// SMT architecture in the paper's §1 calls for: decoded candidates are
/// validated against the constraint's real semantics, and the reported
/// answer is the lowest-energy **valid** sample when one exists
/// (post-selection closes the known relaxations of the superposed-class
/// and degenerate-ground-state encodings).
///
/// ```
/// use qsmt_core::{Constraint, StringSolver};
///
/// let solver = StringSolver::with_defaults().with_seed(7);
/// let out = solver
///     .solve(&Constraint::Reverse { input: "hello".into() })
///     .unwrap();
/// assert_eq!(out.solution.as_text(), Some("olleh"));
/// assert!(out.valid);
/// ```
#[derive(Clone)]
pub struct StringSolver {
    /// The sampler passed to [`StringSolver::new`]; `None` runs the
    /// built-in annealer, built from `seed`, `reads` and `stop` per solve.
    custom: Option<Arc<dyn Sampler>>,
    seed: u64,
    reads: usize,
    deny_lint_errors: bool,
    stop: Option<StopFlag>,
    cache: Option<Arc<SolveCache>>,
}

impl StringSolver {
    /// Builds a solver around any sampler.
    pub fn new(sampler: Arc<dyn Sampler>) -> Self {
        Self {
            custom: Some(sampler),
            ..Self::with_defaults()
        }
    }

    /// Default configuration: simulated annealing with 64 reads — the
    /// paper's experimental setup.
    pub fn with_defaults() -> Self {
        Self {
            custom: None,
            seed: 0,
            reads: 64,
            deny_lint_errors: false,
            stop: None,
            cache: None,
        }
    }

    /// Seeds the built-in annealer and the portfolio member streams; a
    /// custom sampler passed via [`StringSolver::new`] keeps its own seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The base seed portfolio member streams are derived from.
    pub fn base_seed(&self) -> u64 {
        self.seed
    }

    pub(crate) fn outer_stop(&self) -> Option<&StopFlag> {
        self.stop.as_ref()
    }

    /// Sets the default sampler's read count. Deeply degenerate encodings
    /// (regex classes over many positions) need more reads for
    /// post-selection to find a valid sample; shallow ones are fine with
    /// fewer. Only affects the built-in annealer, not a custom sampler.
    pub fn with_reads(mut self, reads: usize) -> Self {
        assert!(reads > 0, "need at least one read");
        self.reads = reads;
        self
    }

    /// Enables (or disables) deny-on-error mode: every solve first runs
    /// the formulation linter over the compiled QUBO and refuses to
    /// sample when any error-level diagnostic fires, returning
    /// [`ConstraintError::LintRejected`] instead of a silently-unsound
    /// answer.
    pub fn with_deny_lint_errors(mut self, deny: bool) -> Self {
        self.deny_lint_errors = deny;
        self
    }

    /// Attaches a cooperative deadline: the default annealer polls the
    /// flag at sweep granularity and winds down as soon as it trips,
    /// returning the best assignment reached so far (post-selection then
    /// validates it like any other sample). This is how the solve service
    /// cancels jobs whose deadline expires mid-anneal. Only the built-in
    /// annealer polls it — a custom sampler passed to
    /// [`StringSolver::new`] must wire its own flag (e.g.
    /// `SimulatedAnnealer::with_stop`).
    pub fn with_stop(mut self, stop: StopFlag) -> Self {
        self.stop = Some(stop);
        self
    }

    /// Attaches a shared [`SolveCache`]. Subsequent solves first consult
    /// the cache: an exact fingerprint hit — eligible only when the
    /// cached entry's read budget covers this solver's — replays the
    /// cached sample set through the (deterministic) post-selection path,
    /// bit-identical to the solve that populated it, no sampling; a shape
    /// hit seeds a short reverse-annealing refinement from the cached
    /// ground state through the configured sampler
    /// ([`Sampler::warm_started`]); a miss solves normally and inserts
    /// the result. Cancelled (stop-flagged) solves are never inserted.
    /// See `docs/CACHING.md`.
    pub fn with_cache(mut self, cache: Arc<SolveCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// A completed solve may be cached; one cut short by the cooperative
    /// stop flag carries a truncated sample set and must not be.
    fn completed_without_cancel(&self) -> bool {
        self.stop.as_ref().is_none_or(|s| !s.is_stopped())
    }

    /// Caches a finished solve unless it was cancelled mid-anneal.
    fn cache_completed(&self, fp: ModelFingerprint, num_vars: usize, samples: &SampleSet) {
        if let Some(cache) = &self.cache {
            if self.completed_without_cancel() {
                cache.insert(fp, num_vars, self.seed, samples);
            }
        }
    }

    /// The sampler a solve runs: the custom one, or the built-in
    /// annealer with this solver's seed, reads and stop flag.
    fn sampler(&self) -> Arc<dyn Sampler> {
        if let Some(custom) = &self.custom {
            return Arc::clone(custom);
        }
        let mut sampler = SimulatedAnnealer::new()
            .with_num_reads(self.reads)
            .with_sweeps(384)
            .with_seed(self.seed);
        if let Some(stop) = &self.stop {
            sampler = sampler.with_stop(stop.clone());
        }
        Arc::new(sampler)
    }

    /// The sampler's reported name.
    pub fn sampler_name(&self) -> &'static str {
        self.sampler().name()
    }

    /// Encodes a constraint at the default penalty strength and the
    /// constraint's own default bias profile.
    ///
    /// # Errors
    /// Propagates encoding failures.
    pub fn encode(&self, constraint: &Constraint) -> Result<EncodedProblem, ConstraintError> {
        constraint.encode()
    }

    /// Runs the formulation linter ([`qsmt_lint`]) over the compiled QUBO
    /// without sampling: a static soundness analysis of the encoding
    /// itself (penalty gaps, dead variables, precision erosion, …).
    ///
    /// # Errors
    /// Propagates encoding failures — linting happens after compilation.
    pub fn lint(&self, constraint: &Constraint) -> Result<LintReport, ConstraintError> {
        let problem = self.encode(constraint)?;
        Ok(lint_qubo(&problem.qubo, &LintConfig::default()))
    }

    /// Deny gate: when deny-on-error mode is on, lint the compiled model
    /// and reject it if any error-level diagnostic fires.
    fn deny_gate(&self, qubo: &QuboModel) -> Result<(), ConstraintError> {
        if !self.deny_lint_errors {
            return Ok(());
        }
        let report = lint_qubo(qubo, &LintConfig::default());
        Self::reject_on_errors(&report)
    }

    fn reject_on_errors(report: &LintReport) -> Result<(), ConstraintError> {
        if report.has_errors() {
            let codes = report.codes().join(", ");
            return Err(ConstraintError::LintRejected {
                summary: format!("{} [{codes}]", report.summary()),
            });
        }
        Ok(())
    }

    /// Solves a constraint end to end: compile → lint (+ deny gate) →
    /// presolve, then either cache lookup → sample → select on this
    /// solver's sampler or, with [`SolveOptions::portfolio`], the routed
    /// first-wins race. The returned outcome always carries the full
    /// [`SolveReport`]: per-stage timings, QUBO shape, lint and presolve
    /// statistics and sampler counters (see `docs/OBSERVABILITY.md` for
    /// every field). Each stage is one `qsmt-trace` span, recorded when
    /// a trace is active; its report timing reuses the span's clock
    /// reads.
    ///
    /// Reporting is observational: the sampler's RNG stream is untouched,
    /// so the samples are bit-identical whether probes are on or off.
    ///
    /// ```
    /// use qsmt_core::{Constraint, SolveOptions, StringSolver};
    ///
    /// let solver = StringSolver::with_defaults().with_seed(7);
    /// let opts = SolveOptions { probes: true, ..SolveOptions::default() };
    /// let out = solver
    ///     .run(&Constraint::Reverse { input: "ab".into() }, &opts)
    ///     .unwrap();
    /// assert_eq!(out.solution.as_text(), Some("ba"));
    /// assert_eq!(out.report.qubo.num_vars, out.problem.num_vars());
    /// assert!(out.report.stages.iter().any(|s| s.label == "sample"));
    /// assert!(out.report.dynamics.is_some());
    /// ```
    ///
    /// # Errors
    /// Propagates encoding failures, and — in deny-on-error mode
    /// ([`StringSolver::with_deny_lint_errors`]) — lint rejections.
    /// Sampling itself is infallible.
    pub fn run(
        &self,
        constraint: &Constraint,
        opts: &SolveOptions,
    ) -> Result<SolveOutcome, ConstraintError> {
        let mut clock = StageClock::start();

        let (problem, compile_us) = clock.stage("compile", || self.encode(constraint));
        let problem = problem?;
        let qubo_shape = problem.qubo.shape();

        let (lint_report, lint_us) =
            clock.stage("lint", || lint_qubo(&problem.qubo, &LintConfig::default()));
        if self.deny_lint_errors {
            Self::reject_on_errors(&lint_report)?;
        }

        let (fixed, presolve_us) = clock.stage("presolve", || {
            qsmt_qubo::presolve(&problem.qubo).num_fixed()
        });
        let original = problem.qubo.num_vars();

        let solved = match opts.portfolio {
            Some(portfolio) => self.race_stage(&mut clock, constraint, &problem, portfolio),
            None => self.sample_stage(&mut clock, constraint, &problem, opts.probes),
        };

        let report = SolveReport {
            constraint: constraint.describe(),
            solution: solved.selection.solution.to_string(),
            energy: solved.selection.energy,
            valid: solved.selection.valid,
            total_us: clock.elapsed_us(),
            stages: clock.stages,
            compile: CompileStats {
                constraint: constraint.describe(),
                encoding: problem.name.to_string(),
                time_us: compile_us,
            },
            qubo: qubo_shape,
            lint: Some(lint_report.to_stats(lint_us)),
            presolve: PresolveStats {
                time_us: presolve_us,
                original_vars: original,
                fixed_vars: fixed,
                reduced_vars: original - fixed,
                reduction_ratio: if original == 0 {
                    0.0
                } else {
                    fixed as f64 / original as f64
                },
            },
            sampling: solved.sampling,
            select: SelectStats {
                time_us: solved.select_us,
                decoded_states: solved.selection.decoded,
                valid_rank: solved.selection.valid_rank,
            },
            dynamics: solved.dynamics,
            cache: solved.cache,
            portfolio: solved.portfolio,
        };
        Ok(SolveOutcome {
            problem,
            samples: solved.samples,
            solution: solved.selection.solution,
            energy: solved.selection.energy,
            valid: solved.selection.valid,
            report,
        })
    }

    /// [`StringSolver::run`] with default options: this solver's own
    /// sampler, probes off.
    ///
    /// # Errors
    /// As [`StringSolver::run`].
    pub fn solve(&self, constraint: &Constraint) -> Result<SolveOutcome, ConstraintError> {
        self.run(constraint, &SolveOptions::default())
    }

    /// The `sample` and `select` stages of a single-sampler solve.
    /// Consults the cache (when attached) before paying for sampling: an
    /// exact fingerprint hit replays the cached sample set, a shape hit
    /// warm-starts a short reverse anneal, a miss samples cold and
    /// inserts the completed result.
    fn sample_stage(
        &self,
        clock: &mut StageClock,
        constraint: &Constraint,
        problem: &EncodedProblem,
        probes: bool,
    ) -> Solved {
        let probe_config = probes.then(ProbeConfig::default);
        let sampler = self.sampler();
        let (sampled, sample_us) = clock.stage("sample", || {
            let lookup = self.cache.as_ref().map(|cache| {
                let fp = problem.qubo.fingerprint();
                let t = std::time::Instant::now();
                let allow_warm = sampler.supports_initial_state();
                let found = cache.lookup(fp, problem.num_vars(), self.reads as u64, allow_warm);
                (fp, found, t.elapsed().as_micros() as u64)
            });
            // Per-read intervals are measured relative to the sampler's
            // own start; captured just before sampling so they nest inside
            // the still-open sample span when spliced below.
            let trace_base_us = qsmt_trace::active().then(qsmt_trace::now_us);
            let (fp, cache_outcome, warm) = match lookup {
                Some((
                    _,
                    CacheLookup::Exact {
                        samples,
                        reads,
                        seed,
                    },
                    lookup_us,
                )) => {
                    let stats = CacheStats {
                        outcome: "exact-hit".to_string(),
                        lookup_us,
                        warm_sweeps: None,
                        source_reads: Some(reads),
                        source_seed: Some(seed),
                    };
                    return Sampled {
                        samples,
                        run_stats: SamplerRunStats::default(),
                        sampler_name: "cache",
                        cache: Some(stats),
                        insert_fp: None,
                        dynamics: SamplerDynamics::default(),
                    };
                }
                Some((fp, CacheLookup::Warm(state), lookup_us)) => {
                    // `supports_initial_state` gated the warm lookup, so
                    // the configured sampler provides the warm variant;
                    // fall back to a cold run if a custom sampler breaks
                    // that contract.
                    (
                        Some(fp),
                        Some(("warm-start", lookup_us)),
                        sampler.warm_started(state),
                    )
                }
                Some((fp, CacheLookup::Miss, lookup_us)) => {
                    (Some(fp), Some(("miss", lookup_us)), None)
                }
                None => (None, None, None),
            };
            // Trajectory probes observe, never steer: the sample set is
            // bit-identical to the un-probed path (pinned by tests).
            let (samples, run_stats, dynamics) = warm
                .as_deref()
                .unwrap_or(&*sampler)
                .run(&problem.qubo, probe_config.as_ref());
            if let Some(base_us) = trace_base_us {
                for (i, &(offset_us, dur_us)) in dynamics.read_spans.iter().enumerate() {
                    qsmt_trace::span_at(&format!("read {i}"), base_us + offset_us, dur_us);
                }
            }
            Sampled {
                samples,
                run_stats,
                sampler_name: sampler.name(),
                cache: cache_outcome.map(|(outcome, lookup_us)| CacheStats {
                    outcome: outcome.to_string(),
                    lookup_us,
                    warm_sweeps: (outcome == "warm-start")
                        .then_some(run_stats.sweeps)
                        .flatten(),
                    source_reads: None,
                    source_seed: None,
                }),
                insert_fp: fp,
                dynamics,
            }
        });
        let dynamics = Self::dynamics_stats(sampled.dynamics, sampled.run_stats.acceptance_rate());
        let (selection, select_us) =
            clock.stage("select", || select(constraint, problem, &sampled.samples));
        if let Some(fp) = sampled.insert_fp {
            self.cache_completed(fp, problem.num_vars(), &sampled.samples);
        }
        Solved {
            sampling: Self::sampler_stats(
                sampled.sampler_name,
                &sampled.samples,
                sampled.run_stats,
                sample_us,
            ),
            samples: sampled.samples,
            selection,
            select_us,
            dynamics,
            cache: sampled.cache,
            portfolio: None,
        }
    }

    /// Returns up to `limit` *distinct, valid* solutions ordered by
    /// energy — model enumeration for test-generation workloads, where
    /// one witness per branch is rarely enough.
    ///
    /// The degenerate ground states of the paper's generation encodings
    /// (palindromes, regexes, flexible fills) make this natural: one
    /// sampling pass usually surfaces many distinct witnesses.
    ///
    /// # Errors
    /// Propagates encoding failures.
    pub fn solve_many(
        &self,
        constraint: &Constraint,
        limit: usize,
    ) -> Result<Vec<Solution>, ConstraintError> {
        let problem = self.encode(constraint)?;
        self.deny_gate(&problem.qubo)?;
        let samples = self.sampler().sample(&problem.qubo);
        let mut out = Vec::new();
        for sample in samples.iter() {
            if out.len() >= limit {
                break;
            }
            let Ok(solution) = problem.decode_state(&sample.state) else {
                continue;
            };
            if constraint.validate(&solution) && !out.contains(&solution) {
                out.push(solution);
            }
        }
        Ok(out)
    }

    /// Condenses raw probe observations into the report's `dynamics`
    /// section (schema v4). Returns `None` when the sampler produced no
    /// observations, keeping the section additive over v3 reports.
    fn dynamics_stats(
        raw: SamplerDynamics,
        final_acceptance: Option<f64>,
    ) -> Option<DynamicsStats> {
        if raw.is_empty() {
            return None;
        }
        let time_to_target = DynamicsStats::time_to_target_curve(&raw.energy_trace);
        let last_improvement_fraction = DynamicsStats::last_improvement_fraction(&raw.energy_trace);
        let stall_verdict = StallVerdict::classify(last_improvement_fraction, final_acceptance);
        Some(DynamicsStats {
            energy_trace: raw.energy_trace,
            beta_acceptance: raw.beta_acceptance,
            swap_acceptance: raw.swap_acceptance,
            ess_trace: raw.ess_trace,
            aspiration_hits: raw.aspiration_hits,
            proposal_latency_ns: HistogramSummary::from_samples(&raw.proposal_latency_ns),
            sweep_improvement: HistogramSummary::from_samples(&raw.sweep_improvement),
            time_to_target,
            last_improvement_fraction,
            stall_verdict,
        })
    }

    /// Summarizes a sample set plus sampler counters into telemetry form.
    pub(crate) fn sampler_stats(
        name: &str,
        samples: &SampleSet,
        run: qsmt_anneal::SamplerRunStats,
        time_us: u64,
    ) -> SamplerStats {
        const TOL: f64 = 1e-9;
        let reads = samples.total_reads() as u64;
        let stats = samples.energy_stats();
        let (best, mean, std_dev, max) = match stats {
            Some(s) => (s.min, s.mean, s.std_dev, s.max),
            None => (f64::NAN, f64::NAN, f64::NAN, f64::NAN),
        };
        // Time-to-target: TTS(0.99) against the best energy *this run*
        // observed (the true ground energy is unknown in production).
        let tts99_us = if reads == 0 {
            None
        } else {
            let per_read = Duration::from_micros(time_us / reads.max(1));
            metrics::time_to_solution(samples, best, TOL, per_read, 0.99)
                .map(|d| d.as_micros() as u64)
        };
        // Prefer the sampler's own timing for throughput (it excludes
        // compile/aggregation overhead the stage clock includes); fall back
        // to the stage time when the sampler didn't time itself.
        let timed = qsmt_anneal::SamplerRunStats {
            elapsed_us: run.elapsed_us.or(Some(time_us)),
            ..run
        };
        SamplerStats {
            sampler: name.to_string(),
            time_us,
            reads,
            distinct_states: samples.len(),
            sweeps: run.sweeps,
            proposals: run.proposals,
            accepted: run.accepted,
            replicas: run.replicas,
            acceptance_rate: run.acceptance_rate(),
            proposals_per_sec: timed.proposals_per_sec(),
            flips_per_sec: timed.flips_per_sec(),
            best_energy: best,
            mean_energy: mean,
            std_dev_energy: std_dev,
            max_energy: max,
            success_fraction: samples.success_fraction(TOL),
            tts99_us,
        }
    }
}

impl std::fmt::Debug for StringSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StringSolver")
            .field("sampler", &self.sampler_name())
            .finish()
    }
}

/// The result of one end-to-end solve.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The encoded problem (QUBO + decode scheme).
    pub problem: EncodedProblem,
    /// The full aggregated sample set (the race winner's on a portfolio
    /// solve).
    pub samples: SampleSet,
    /// The reported answer (lowest-energy valid sample, or lowest-energy
    /// sample when nothing validated).
    pub solution: Solution,
    /// QUBO energy of the reported answer.
    pub energy: f64,
    /// Whether the reported answer passed semantic validation.
    pub valid: bool,
    /// The observability record of this solve (`docs/OBSERVABILITY.md`).
    pub report: SolveReport,
}

/// How a solve runs. Each field replaces what used to be a choice
/// between entry points; the default is the plainest solve — no absint
/// pass, the solver's own sampler, probes off.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveOptions<'p> {
    /// Run the script-level abstract-interpretation pass before compiling
    /// (`docs/ABSINT.md`). Read by the SMT-LIB script driver; a bare
    /// constraint has no script to analyze.
    pub absint: bool,
    /// Race this routed portfolio instead of sampling with the solver's
    /// own sampler (`docs/PORTFOLIO.md`).
    pub portfolio: Option<&'p Portfolio>,
    /// Trajectory probes on the sampler: the report's `dynamics` section
    /// and per-read trace spans. Samples are identical either way.
    pub probes: bool,
}

/// Post-selection result: the answer plus the counters the report's
/// `select` section carries.
pub(crate) struct Selection {
    pub(crate) solution: Solution,
    pub(crate) energy: f64,
    pub(crate) valid: bool,
    /// Distinct states decoded before the search stopped.
    pub(crate) decoded: usize,
    /// Energy-order rank of the chosen valid sample.
    pub(crate) valid_rank: Option<usize>,
}

/// Post-selection: lowest-energy sample whose decoding validates; falls
/// back to the overall best sample when none validates.
pub(crate) fn select(
    constraint: &Constraint,
    problem: &EncodedProblem,
    samples: &SampleSet,
) -> Selection {
    let mut best: Option<(Solution, f64)> = None;
    let mut decoded = 0usize;
    for (rank, sample) in samples.iter().enumerate() {
        let Ok(solution) = problem.decode_state(&sample.state) else {
            continue;
        };
        decoded += 1;
        if constraint.validate(&solution) {
            return Selection {
                solution,
                energy: sample.energy,
                valid: true,
                decoded,
                valid_rank: Some(rank),
            };
        }
        if best.is_none() {
            best = Some((solution, sample.energy));
        }
    }
    let (solution, energy) = best.unwrap_or((Solution::Text(String::new()), f64::NAN));
    Selection {
        solution,
        energy,
        valid: false,
        decoded,
        valid_rank: None,
    }
}

/// What the sample stage produced, before selection.
struct Sampled {
    samples: SampleSet,
    run_stats: SamplerRunStats,
    sampler_name: &'static str,
    cache: Option<CacheStats>,
    /// Fingerprint to insert the completed solve under (cache misses and
    /// warm starts).
    insert_fp: Option<ModelFingerprint>,
    dynamics: SamplerDynamics,
}

/// What the sampling stages of a solve (single sampler or portfolio race)
/// hand back to [`StringSolver::run`].
pub(crate) struct Solved {
    pub(crate) samples: SampleSet,
    pub(crate) selection: Selection,
    pub(crate) select_us: u64,
    pub(crate) sampling: SamplerStats,
    pub(crate) dynamics: Option<DynamicsStats>,
    pub(crate) cache: Option<CacheStats>,
    pub(crate) portfolio: Option<qsmt_telemetry::PortfolioStats>,
}

/// Times a solve's top-level stages. Each stage is measured once, by
/// [`qsmt_trace::timed`]: the trace span (when a trace is active) and
/// the [`StageTiming`] share its two clock reads, the timing offset to
/// the solve's start.
pub(crate) struct StageClock {
    origin_us: u64,
    stages: Vec<StageTiming>,
}

impl StageClock {
    /// A clock whose solve starts now.
    pub(crate) fn start() -> Self {
        Self {
            origin_us: qsmt_trace::now_us(),
            stages: Vec::new(),
        }
    }

    /// Runs `f` as stage `label`, returning its result and duration.
    pub(crate) fn stage<T>(&mut self, label: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let (out, start_us, dur_us) = qsmt_trace::timed(label, f);
        self.stages.push(StageTiming {
            label: label.to_string(),
            start_us: start_us - self.origin_us,
            dur_us,
        });
        (out, dur_us)
    }

    /// Microseconds since the solve started.
    pub(crate) fn elapsed_us(&self) -> u64 {
        qsmt_trace::now_us() - self.origin_us
    }
}

/// One stage of the Figure 1 pipeline trace.
#[derive(Debug, Clone)]
pub struct TraceStage {
    /// Stage name (matches a box in the paper's Figure 1).
    pub label: String,
    /// Stage payload.
    pub detail: String,
}

/// A full pipeline trace: input → binary variables → QUBO matrix →
/// annealer → decoded output.
#[derive(Debug, Clone)]
pub struct SolveTrace {
    /// The ordered stages.
    pub stages: Vec<TraceStage>,
}

impl SolveTrace {
    /// Renders a finished solve as the paper's Figure 1: the operation,
    /// its binary variables, the QUBO matrix, the annealer, and the
    /// decoded output.
    pub fn new(constraint: &Constraint, outcome: &SolveOutcome) -> Self {
        let problem = &outcome.problem;
        let dense = DenseQubo::from_model(&problem.qubo);
        let stage = |label: &str, detail: String| TraceStage {
            label: label.into(),
            detail,
        };
        let stages = vec![
            stage("operation + args", constraint.describe()),
            stage(
                "binary variables",
                format!("{} binary variables ({})", problem.num_vars(), problem.name),
            ),
            stage(
                "QUBO matrix",
                format!(
                    "{0}×{0} matrix, {1} off-diagonal interactions, diagonal: {2}\n{3}",
                    problem.num_vars(),
                    problem.qubo.num_interactions(),
                    if dense.is_diagonal() { "yes" } else { "no" },
                    dense.abbreviated(4, 4)
                ),
            ),
            stage(
                "annealer",
                format!("sampler: {}", outcome.report.sampling.sampler),
            ),
            stage(
                "decoded output",
                format!(
                    "{} (energy {:.3}, valid: {})",
                    outcome.solution, outcome.energy, outcome.valid
                ),
            ),
        ];
        SolveTrace { stages }
    }
}

impl std::fmt::Display for SolveTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, stage) in self.stages.iter().enumerate() {
            writeln!(f, "[{}] {}", i + 1, stage.label)?;
            for line in stage.detail.lines() {
                writeln!(f, "      {line}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsmt_anneal::{ExactSolver, SamplerRun};

    fn solver() -> StringSolver {
        StringSolver::with_defaults().with_seed(42)
    }

    #[test]
    fn solves_equality() {
        let out = solver()
            .solve(&Constraint::Equality {
                target: "hi".into(),
            })
            .unwrap();
        assert_eq!(out.solution.as_text(), Some("hi"));
        assert!(out.valid);
    }

    #[test]
    fn solves_reverse_and_replace() {
        let out = solver()
            .solve(&Constraint::Reverse {
                input: "abc".into(),
            })
            .unwrap();
        assert_eq!(out.solution.as_text(), Some("cba"));
        let out = solver()
            .solve(&Constraint::ReplaceAll {
                input: "aba".into(),
                from: 'a',
                to: 'z',
            })
            .unwrap();
        assert_eq!(out.solution.as_text(), Some("zbz"));
    }

    #[test]
    fn solves_palindrome_with_validation() {
        let out = solver().solve(&Constraint::Palindrome { len: 4 }).unwrap();
        assert!(out.valid, "post-selected palindrome must validate");
        let t = out.solution.as_text().unwrap();
        assert_eq!(t.chars().rev().collect::<String>(), t);
    }

    #[test]
    fn solves_regex_with_post_selection() {
        let out = solver()
            .solve(&Constraint::Regex {
                pattern: "a[bc]+".into(),
                len: 4,
            })
            .unwrap();
        assert!(out.valid, "post-selection must find an NFA-valid sample");
        let t = out.solution.as_text().unwrap();
        assert!(t.starts_with('a'));
        assert!(t[1..].chars().all(|c| c == 'b' || c == 'c'), "{t:?}");
    }

    #[test]
    fn solves_includes_index() {
        let out = solver()
            .solve(&Constraint::Includes {
                haystack: "hello world".into(),
                needle: "world".into(),
            })
            .unwrap();
        assert_eq!(out.solution.as_index(), Some(6));
        assert!(out.valid);
    }

    #[test]
    fn custom_sampler_is_used() {
        let s = StringSolver::new(Arc::new(ExactSolver::new()));
        assert_eq!(s.sampler_name(), "exact");
        let out = s
            .solve(&Constraint::Equality {
                target: "ab".into(),
            })
            .unwrap();
        assert_eq!(out.solution.as_text(), Some("ab"));
        assert!(out.valid);
    }

    #[test]
    fn custom_sampler_survives_seed_reads_and_stop() {
        let s = StringSolver::new(Arc::new(ExactSolver::new()))
            .with_seed(3)
            .with_reads(8)
            .with_stop(StopFlag::new());
        assert_eq!(s.sampler_name(), "exact");
        let out = s
            .solve(&Constraint::Equality {
                target: "ab".into(),
            })
            .unwrap();
        assert_eq!(out.report.sampling.sampler, "exact");
        assert_eq!(out.solution.as_text(), Some("ab"));
    }

    #[test]
    fn trace_contains_all_figure1_stages() {
        let c = Constraint::Equality {
            target: "ok".into(),
        };
        let trace = SolveTrace::new(&c, &solver().solve(&c).unwrap());
        assert_eq!(trace.stages.len(), 5);
        let labels: Vec<&str> = trace.stages.iter().map(|s| s.label.as_str()).collect();
        assert!(labels[0].contains("operation"));
        assert!(labels[2].contains("QUBO"));
        assert!(labels[4].contains("decoded"));
        let rendered = trace.to_string();
        assert!(rendered.contains("[1]"));
        assert!(rendered.contains("[5]"));
    }

    #[test]
    fn with_reads_controls_sampling_depth() {
        let out = StringSolver::with_defaults()
            .with_seed(2)
            .with_reads(8)
            .solve(&Constraint::Equality {
                target: "ab".into(),
            })
            .unwrap();
        assert_eq!(out.samples.total_reads(), 8);
        assert!(out.valid);
    }

    #[test]
    fn solve_many_returns_distinct_valid_witnesses() {
        let sols = solver()
            .solve_many(&Constraint::Palindrome { len: 3 }, 5)
            .unwrap();
        assert!(sols.len() > 1, "palindromes are degenerate: expect several");
        let mut seen = std::collections::HashSet::new();
        for s in &sols {
            let t = s.as_text().expect("text").to_string();
            assert_eq!(t.chars().rev().collect::<String>(), t);
            assert!(seen.insert(t), "witnesses must be distinct");
        }
    }

    #[test]
    fn solve_many_respects_limit_and_unique_answers() {
        let sols = solver()
            .solve_many(
                &Constraint::Equality {
                    target: "ab".into(),
                },
                5,
            )
            .unwrap();
        // Equality has exactly one satisfying string.
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].as_text(), Some("ab"));
        let limited = solver()
            .solve_many(&Constraint::Palindrome { len: 3 }, 2)
            .unwrap();
        assert!(limited.len() <= 2);
    }

    #[test]
    fn report_carries_dynamics_from_probed_sampler() {
        let opts = SolveOptions {
            probes: true,
            ..SolveOptions::default()
        };
        let c = Constraint::Reverse { input: "ab".into() };
        let report = solver().run(&c, &opts).unwrap().report;
        let d = report.dynamics.as_ref().expect("SA exposes dynamics");
        assert!(!d.energy_trace.is_empty());
        assert!(!d.beta_acceptance.is_empty());
        assert!(d.proposal_latency_ns.is_some());
        assert!(d.sweep_improvement.is_some());
        assert!(d.last_improvement_fraction >= 0.0 && d.last_improvement_fraction <= 1.0);
        // TTT curve covers the gap fractions in order and ends at the
        // sweep where the final best energy was reached.
        assert!(!d.time_to_target.is_empty());
        assert!(d
            .time_to_target
            .windows(2)
            .all(|w| w[0].gap_fraction < w[1].gap_fraction && w[0].sweep <= w[1].sweep));
        // Probes off: same samples, no trajectory.
        let plain = solver().solve(&c).unwrap();
        assert!(plain.report.dynamics.is_none());
        assert_eq!(plain.samples, solver().run(&c, &opts).unwrap().samples);
    }

    #[test]
    fn report_stages_are_ordered_and_timed() {
        let report = solver()
            .solve(&Constraint::Equality {
                target: "hi".into(),
            })
            .unwrap()
            .report;
        let labels: Vec<&str> = report.stages.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            vec!["compile", "lint", "presolve", "sample", "select"]
        );
        // Stage starts are monotone non-decreasing and fit in the total.
        for pair in report.stages.windows(2) {
            assert!(pair[0].start_us <= pair[1].start_us);
            assert!(pair[0].start_us + pair[0].dur_us <= pair[1].start_us);
        }
        let last = report.stages.last().unwrap();
        assert!(last.start_us + last.dur_us <= report.total_us);
    }

    #[test]
    fn report_carries_qubo_and_sampler_stats() {
        let out = solver().solve(&Constraint::Palindrome { len: 4 }).unwrap();
        let report = &out.report;
        assert_eq!(report.qubo.num_vars, out.problem.num_vars());
        assert!(report.qubo.max_abs_coefficient > 0.0);
        let s = &report.sampling;
        assert_eq!(s.sampler, "simulated-annealing");
        assert_eq!(s.reads, 64);
        assert!(s.best_energy <= s.mean_energy);
        assert!(s.mean_energy <= s.max_energy);
        assert!(s.acceptance_rate.is_some(), "SA exposes move counters");
        assert!(s.proposals_per_sec.is_some(), "SA times its own run");
        assert!(s.flips_per_sec.is_some());
        assert!(s.success_fraction > 0.0);
        assert!(s.tts99_us.is_some());
        assert_eq!(
            report.to_json().get("embedding"),
            Some(&qsmt_telemetry::Json::Null)
        );
        assert_eq!(report.select.valid_rank.is_some(), out.valid);
        assert!(report.select.decoded_states > 0);
    }

    #[test]
    fn lint_is_clean_on_sound_formulations() {
        let report = solver()
            .lint(&Constraint::Reverse {
                input: "abc".into(),
            })
            .unwrap();
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn deny_mode_passes_sound_encodings_and_reports_lint_stage() {
        let s = solver().with_deny_lint_errors(true);
        let out = s
            .solve(&Constraint::Equality {
                target: "hi".into(),
            })
            .unwrap();
        assert!(out.valid);
        let lint = out.report.lint.as_ref().expect("every solve lints");
        assert_eq!(lint.errors, 0);
    }

    #[test]
    fn deny_gate_rejects_error_reports() {
        // Build an unsound model directly (under-weighted exactly-one
        // clique overwhelmed by reward terms) and check the gate logic.
        let mut m = QuboModel::new(3);
        qsmt_qubo::PenaltyBuilder::new(&mut m)
            .exactly_one(&[0, 1, 2], 1.0)
            .bit_target(0, true, 5.0)
            .bit_target(1, true, 5.0);
        let report = qsmt_lint::lint_qubo(&m, &LintConfig::default());
        assert!(report.has_errors());
        let err = StringSolver::reject_on_errors(&report).unwrap_err();
        match err {
            ConstraintError::LintRejected { summary } => {
                assert!(summary.contains("penalty-gap"), "{summary}");
            }
            other => panic!("expected LintRejected, got {other:?}"),
        }
    }

    #[test]
    fn encode_error_propagates() {
        assert!(solver()
            .solve(&Constraint::Equality {
                target: "héllo".into()
            })
            .is_err());
    }

    #[test]
    fn stop_flag_survives_builder_reordering_and_cancels_promptly() {
        use std::time::{Duration, Instant};
        // `with_stop` before `with_reads`/`with_seed`: the built-in
        // annealer must still poll the flag.
        let stop = StopFlag::new();
        let s = StringSolver::with_defaults()
            .with_stop(stop.clone())
            .with_seed(9)
            .with_reads(4096);
        stop.stop();
        let started = Instant::now();
        // A tripped flag cancels before the first sweep: a read budget
        // this size would otherwise take far longer than the assertion
        // allows, and the call still returns a well-formed outcome.
        let out = s
            .solve(&Constraint::Equality {
                target: "hello".into(),
            })
            .unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "tripped stop flag did not cut the solve short: {:?}",
            started.elapsed()
        );
        let _ = out.valid;
    }

    #[test]
    fn untripped_stop_flag_keeps_solves_bit_identical() {
        let plain = solver().solve(&Constraint::Equality {
            target: "abc".into(),
        });
        let flagged = solver()
            .with_stop(StopFlag::new())
            .solve(&Constraint::Equality {
                target: "abc".into(),
            });
        let (plain, flagged) = (plain.unwrap(), flagged.unwrap());
        assert_eq!(plain.solution, flagged.solution);
        assert_eq!(plain.energy, flagged.energy);
    }

    /// Delegates to a real annealer but counts invocations, so a test
    /// can prove an exact cache hit never reaches the sampler and a warm
    /// start goes through the configured sampler — not a silently
    /// substituted built-in. The name is deliberately custom: warm-start
    /// eligibility is a trait capability, not a name match.
    struct CountingSampler {
        inner: SimulatedAnnealer,
        calls: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl CountingSampler {
        fn with_defaults() -> Self {
            Self {
                inner: SimulatedAnnealer::new().with_num_reads(64).with_sweeps(384),
                calls: Arc::new(std::sync::atomic::AtomicUsize::new(0)),
            }
        }
    }

    impl Sampler for CountingSampler {
        fn run(&self, model: &QuboModel, probes: Option<&ProbeConfig>) -> SamplerRun {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.inner.run(model, probes)
        }

        fn name(&self) -> &'static str {
            "counting-sa"
        }

        fn supports_initial_state(&self) -> bool {
            true
        }

        fn warm_started(&self, state: Vec<u8>) -> Option<Arc<dyn Sampler>> {
            // Keep the instrumentation: the warm variant shares this
            // sampler's call counter.
            Some(Arc::new(CountingSampler {
                inner: self.inner.clone().reverse_anneal_from(state),
                calls: Arc::clone(&self.calls),
            }))
        }
    }

    #[test]
    fn exact_cache_hit_replays_without_invoking_the_sampler() {
        let counting = Arc::new(CountingSampler::with_defaults());
        let calls = Arc::clone(&counting.calls);
        let cache = Arc::new(SolveCache::new(16));
        let s = StringSolver::new(counting).with_cache(cache);
        let c = Constraint::Reverse { input: "ab".into() };
        let cold = s.solve(&c).unwrap();
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 1);
        let hit = s.solve(&c).unwrap();
        assert_eq!(
            calls.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "exact hit must not sample again"
        );
        // The cached sample set replays through deterministic
        // post-selection, so the hit is bit-identical to the cold solve.
        assert_eq!(hit.solution, cold.solution);
        assert_eq!(hit.energy, cold.energy);
        assert_eq!(hit.samples, cold.samples);
    }

    #[test]
    fn warm_starts_go_through_the_configured_sampler() {
        let counting = Arc::new(CountingSampler::with_defaults());
        let calls = Arc::clone(&counting.calls);
        let cache = Arc::new(SolveCache::new(16));
        let s = StringSolver::new(counting).with_cache(cache);
        s.solve(&Constraint::Reverse { input: "ab".into() })
            .unwrap();
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 1);
        // Same shape, different coefficients: a warm start. The counter
        // advancing proves the custom sampler (via its warm variant) ran
        // the refinement — not a silently substituted built-in annealer.
        let warm = s
            .solve(&Constraint::Reverse { input: "cd".into() })
            .unwrap();
        assert_eq!(
            calls.load(std::sync::atomic::Ordering::SeqCst),
            2,
            "warm start must sample through the configured sampler"
        );
        assert!(warm.valid);
        assert_eq!(warm.solution.as_text(), Some("dc"));
    }

    #[test]
    fn larger_read_budgets_are_not_answered_from_cache() {
        let cache = Arc::new(SolveCache::new(16));
        let c = Constraint::Reverse { input: "ab".into() };
        // Populate the cache with a small-budget solve …
        StringSolver::with_defaults()
            .with_seed(11)
            .with_reads(8)
            .with_cache(Arc::clone(&cache))
            .solve(&c)
            .unwrap();
        // … then ask for more reads: the cached 8-read set must not be
        // replayed; the shape entry warm-starts a solve at full budget.
        let out = StringSolver::with_defaults()
            .with_seed(11)
            .with_reads(64)
            .with_cache(cache)
            .solve(&c)
            .unwrap();
        assert_eq!(
            out.samples.total_reads(),
            64,
            "requested read budget must be honored, not the cached one"
        );
        assert!(out.valid);
    }

    #[test]
    fn cancelled_solves_are_never_cached() {
        let cache = Arc::new(SolveCache::new(16));
        let stop = StopFlag::new();
        let s = StringSolver::with_defaults()
            .with_cache(cache.clone())
            .with_stop(stop.clone());
        stop.stop();
        // A tripped flag truncates the anneal; whatever partial sample
        // set comes back must not poison the cache.
        let _ = s
            .solve(&Constraint::Equality {
                target: "hi".into(),
            })
            .unwrap();
        assert!(cache.is_empty(), "cancelled solve leaked into the cache");
    }

    #[test]
    fn reported_cache_outcomes_cover_miss_exact_hit_and_warm_start() {
        let cache = Arc::new(SolveCache::new(16));
        let s = StringSolver::with_defaults()
            .with_seed(11)
            .with_cache(cache);

        // Cold solve: a miss that runs the full 384-sweep schedule.
        let c = Constraint::Reverse { input: "ab".into() };
        let cold_out = s.solve(&c).unwrap();
        let cold = &cold_out.report;
        let stats = cold.cache.as_ref().expect("cache attached");
        assert_eq!(stats.outcome, "miss");
        assert_eq!(stats.warm_sweeps, None);
        assert_eq!(stats.source_reads, None);
        let cold_sweeps = cold.sampling.sweeps.expect("SA reports sweeps");
        assert_eq!(cold_sweeps, 384);

        // Exact repeat: replayed from cache, sampler labelled as such.
        let hit_out = s.solve(&c).unwrap();
        let hit = &hit_out.report;
        let stats = hit.cache.as_ref().expect("cache attached");
        assert_eq!(stats.outcome, "exact-hit");
        assert_eq!(hit.sampling.sampler, "cache");
        // The report discloses which solve populated the entry.
        assert_eq!(stats.source_reads, Some(64));
        assert_eq!(stats.source_seed, Some(11));
        assert_eq!(hit_out.solution, cold_out.solution);
        assert_eq!(hit_out.samples, cold_out.samples);

        // Same shape, different coefficients: the cached ground state
        // seeds a short reverse anneal instead of a cold run.
        let near = Constraint::Reverse { input: "cd".into() };
        let warm_out = s.solve(&near).unwrap();
        let warm = &warm_out.report;
        let stats = warm.cache.as_ref().expect("cache attached");
        assert_eq!(stats.outcome, "warm-start");
        let warm_sweeps = stats.warm_sweeps.expect("warm starts report sweeps");
        assert!(
            warm_sweeps < cold_sweeps,
            "warm start ({warm_sweeps} sweeps) must beat the cold schedule ({cold_sweeps})"
        );
        assert!(warm_out.valid, "warm-started solve still post-selects");
        assert_eq!(warm_out.solution.as_text(), Some("dc"));
    }

    #[test]
    fn invalid_outcome_is_flagged_not_hidden() {
        // Unsatisfiable semantics: includes over a haystack without the
        // needle — decoded index will not match find() == None unless the
        // annealer lands on the all-zero state; either way valid reflects
        // the truth.
        let out = solver()
            .solve(&Constraint::Includes {
                haystack: "xyz".into(),
                needle: "ab".into(),
            })
            .unwrap();
        if out.valid {
            assert_eq!(out.solution.as_index(), None);
        }
    }
}
