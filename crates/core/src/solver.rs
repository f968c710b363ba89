//! The solver facade: constraint → QUBO → sampler → decoded, validated
//! answer with its run report, plus a rendering of the paper's Figure 1
//! pipeline.

use crate::constraint::Constraint;
use crate::error::ConstraintError;
use crate::problem::{EncodedProblem, Solution};
use qsmt_anneal::{
    metrics, read_seed, ExactSolver, SampleSet, Sampler, SamplerDynamics, SamplerRunStats,
    SimulatedAnnealer,
};
use qsmt_lint::{lint_qubo, LintConfig, LintReport};
use qsmt_qubo::{DenseQubo, QuboModel, ReducedModel, StopFlag, Var};
use qsmt_telemetry::{
    CompileStats, DynamicsStats, HistogramSummary, PresolveStats, SamplerStats, SelectStats,
    SolveReport, StageTiming, StallVerdict,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// Reads per solve of the built-in solver — the paper's experimental
/// setup.
pub const DEFAULT_READS: usize = 64;
/// Sweeps per read of the built-in annealer.
pub const DEFAULT_SWEEPS: usize = 384;
/// Largest interaction-graph component of a presolved model that the
/// built-in solver enumerates exactly instead of annealing. Enumerating
/// one dense component costs `2^n` steps: at 16 variables it is about 3×
/// cheaper than the default anneal, and the two cross between 17 and 18
/// (EXPERIMENTS.md, "Exact decomposition window").
pub const COMPONENT_MAX_VARS: usize = 16;
/// The `sampling.sampler` name of a solve answered from the exact ground
/// sets of its components.
const COMPONENT_SAMPLER: &str = "component-exact";

/// The quantum(-simulated) string SMT solver.
///
/// Implements the paper's Figure 1 pipeline: take a string operation and
/// its arguments, generate binary variables, encode objective and penalty
/// functions into a QUBO matrix, pass it to a (simulated) annealer, and
/// decode the output back to a string.
///
/// The built-in solver ([`StringSolver::with_defaults`]) first presolves
/// the QUBO and splits what is left into the connected components of its
/// interaction graph. When none has more than [`COMPONENT_MAX_VARS`]
/// variables, the reads are drawn from the exact ground sets of the
/// components, and a solve whose draw validates never anneals. Any other
/// solve anneals the full model as the paper does; a solver built around
/// an explicit sampler ([`StringSolver::new`]) always does.
///
/// On top of the paper, the solver adds the *consistency check* that the
/// SMT architecture in the paper's §1 calls for: decoded candidates are
/// validated against the constraint's real semantics, and the reported
/// answer is the lowest-energy **valid** sample when one exists
/// (post-selection closes the positional-marginal relaxation of the
/// regex encoding and picks among degenerate ground states).
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
    /// built-in solver: the exact component draw, then the built-in
    /// annealer, built from `seed`, `reads` and `stop` per solve.
    custom: Option<Arc<dyn Sampler>>,
    seed: u64,
    reads: usize,
    deny_lint_errors: bool,
    stop: Option<StopFlag>,
}

impl StringSolver {
    /// Builds a solver around any sampler.
    pub fn new(sampler: Arc<dyn Sampler>) -> Self {
        Self {
            custom: Some(sampler),
            ..Self::with_defaults()
        }
    }

    /// Default configuration: [`DEFAULT_READS`] reads, drawn from the
    /// exact component ground sets when every component of the presolved
    /// model fits [`COMPONENT_MAX_VARS`], otherwise by simulated annealing
    /// at [`DEFAULT_SWEEPS`] sweeps.
    pub fn with_defaults() -> Self {
        Self {
            custom: None,
            seed: 0,
            reads: DEFAULT_READS,
            deny_lint_errors: false,
            stop: None,
        }
    }

    /// Seeds the component draw and the built-in annealer; a custom
    /// sampler passed via [`StringSolver::new`] keeps its own seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the default sampler's read count. Deeply degenerate encodings
    /// (regex classes over many positions) need more reads for
    /// post-selection to find a valid sample; shallow ones are fine with
    /// fewer. Only affects the built-in solver (its component draw and its
    /// annealer), not a custom sampler.
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
    /// annealer polls it (the component draw takes about a microsecond per
    /// read and does not) — a custom sampler passed to
    /// [`StringSolver::new`] must wire its own flag (e.g.
    /// `SimulatedAnnealer::with_stop`).
    pub fn with_stop(mut self, stop: StopFlag) -> Self {
        self.stop = Some(stop);
        self
    }

    /// The sampler a solve runs: the custom one, or the built-in
    /// annealer with this solver's seed, reads and stop flag.
    fn sampler(&self) -> Arc<dyn Sampler> {
        if let Some(custom) = &self.custom {
            return Arc::clone(custom);
        }
        let mut sampler = SimulatedAnnealer::new()
            .with_num_reads(self.reads)
            .with_sweeps(DEFAULT_SWEEPS)
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
    /// presolve, then (built-in solver only) sample → select on the
    /// exact component draw. A solve that draw does not answer — an
    /// explicit sampler, a component above [`COMPONENT_MAX_VARS`], or no
    /// valid read — continues with sample → select on this solver's
    /// sampler; a failed draw stays in the report as a first
    /// `sample`/`select` pair. The returned outcome always carries
    /// the full [`SolveReport`]: per-stage timings, QUBO shape, lint and
    /// presolve statistics and sampler counters (see
    /// `docs/OBSERVABILITY.md` for every field). Each stage is one
    /// `qsmt-trace` span, recorded when a trace is active; its report
    /// timing reuses the span's clock reads.
    ///
    /// Reporting is observational: the sampler's RNG stream is untouched,
    /// so the samples are bit-identical whether probes are on or off.
    ///
    /// ```
    /// use qsmt_core::{Constraint, SolveOptions, StringSolver};
    ///
    /// let solver = StringSolver::with_defaults().with_seed(7);
    /// let opts = SolveOptions { probes: true, ..SolveOptions::default() };
    /// // One dense one-hot of 18 start indicators: too large to
    /// // enumerate per component, so the annealer samples it.
    /// let indexof = Constraint::Includes {
    ///     haystack: "zgkycoqrzdhbtiisfxrq".into(),
    ///     needle: "bti".into(),
    /// };
    /// let out = solver.run(&indexof, &opts).unwrap();
    /// assert_eq!(out.solution.as_index(), Some(11));
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

        let (reduced, presolve_us) = clock.stage("presolve", || qsmt_qubo::presolve(&problem.qubo));
        let fixed = reduced.num_fixed();
        let original = problem.qubo.num_vars();

        // The built-in solver first draws from the exact ground sets of the
        // presolved model's components; only a solve that draw leaves
        // without a valid answer (or that has a component too large to
        // enumerate) samples the full model.
        let decomposed = if self.custom.is_none() {
            self.component_stage(&mut clock, constraint, &problem, &reduced)
        } else {
            None
        };
        let solved = match decomposed {
            Some(solved) if solved.selection.valid => solved,
            _ => self.sample_stage(&mut clock, constraint, &problem, opts.probes),
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

    /// The `sample` and `select` stages of a solve decomposed into the
    /// interaction-graph components of its presolved model: each component
    /// is enumerated to its exact ground set, and the solve's reads are
    /// drawn from the product of those sets (see [`component_draw`]).
    /// Returns `None`, recording no stage, when a component has more than
    /// [`COMPONENT_MAX_VARS`] variables. No probe takes part: the report
    /// names the sampler `component-exact` and carries no move counters
    /// and no `dynamics` section.
    fn component_stage(
        &self,
        clock: &mut StageClock,
        constraint: &Constraint,
        problem: &EncodedProblem,
        reduced: &ReducedModel,
    ) -> Option<Solved> {
        let components = reduced.model.components();
        if components.iter().any(|c| c.len() > COMPONENT_MAX_VARS) {
            return None;
        }
        let (samples, sample_us) = clock.stage("sample", || {
            component_draw(&problem.qubo, reduced, &components, self.seed, self.reads)
        });
        let (selection, select_us) =
            clock.stage("select", || select(constraint, problem, &samples));
        Some(Solved {
            sampling: Self::sampler_stats(
                COMPONENT_SAMPLER,
                &samples,
                SamplerRunStats::default(),
                sample_us,
            ),
            samples,
            selection,
            select_us,
            dynamics: None,
        })
    }

    /// The `sample` and `select` stages of a single-sampler solve.
    fn sample_stage(
        &self,
        clock: &mut StageClock,
        constraint: &Constraint,
        problem: &EncodedProblem,
        probes: bool,
    ) -> Solved {
        let sampler = self.sampler();
        let ((samples, run_stats, dynamics), sample_us) = clock.stage("sample", || {
            // Per-read intervals are measured relative to the sampler's
            // own start; captured just before sampling so they nest inside
            // the still-open sample span when spliced below.
            let trace_base_us = qsmt_trace::active().then(qsmt_trace::now_us);
            // Trajectory probes observe, never steer: the sample set is
            // bit-identical to the un-probed path (pinned by tests).
            let (samples, run_stats, dynamics) = sampler.run(&problem.qubo, probes);
            if let Some(base_us) = trace_base_us {
                for (i, &(offset_us, dur_us)) in dynamics.read_spans.iter().enumerate() {
                    qsmt_trace::span_at(&format!("read {i}"), base_us + offset_us, dur_us);
                }
            }
            (samples, run_stats, dynamics)
        });
        let dynamics = Self::dynamics_stats(dynamics, run_stats.acceptance_rate());
        let (selection, select_us) =
            clock.stage("select", || select(constraint, problem, &samples));
        Solved {
            sampling: Self::sampler_stats(sampler.name(), &samples, run_stats, sample_us),
            samples,
            selection,
            select_us,
            dynamics,
        }
    }

    /// Returns up to `limit` *distinct, valid* solutions ordered by
    /// energy — model enumeration for test-generation workloads, where
    /// one witness per branch is rarely enough.
    ///
    /// A view of [`StringSolver::solve`]: the first `limit` distinct
    /// decodes of its samples that validate. The degenerate ground states
    /// of the paper's generation encodings (palindromes, regexes, flexible
    /// fills) make this natural: one solve's reads usually surface many
    /// distinct witnesses.
    ///
    /// # Errors
    /// As [`StringSolver::run`].
    pub fn solve_many(
        &self,
        constraint: &Constraint,
        limit: usize,
    ) -> Result<Vec<Solution>, ConstraintError> {
        let outcome = self.solve(constraint)?;
        let mut out = Vec::new();
        for sample in outcome.samples.iter() {
            if out.len() >= limit {
                break;
            }
            let Ok(solution) = outcome.problem.decode_state(&sample.state) else {
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
            proposal_latency_ns: HistogramSummary::from_samples(&raw.proposal_latency_ns),
            sweep_improvement: HistogramSummary::from_samples(&raw.sweep_improvement),
            time_to_target,
            last_improvement_fraction,
            stall_verdict,
        })
    }

    /// Summarizes a sample set plus sampler counters into telemetry form.
    fn sampler_stats(
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
    /// The full aggregated sample set.
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
/// pass, probes off.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveOptions {
    /// Run the script-level abstract-interpretation pass before compiling
    /// (`docs/ABSINT.md`). Read by the SMT-LIB script driver; a bare
    /// constraint has no script to analyze.
    pub absint: bool,
    /// Trajectory probes on the sampler: the report's `dynamics` section
    /// and per-read trace spans. Samples are identical either way.
    pub probes: bool,
}

/// Post-selection result: the answer plus the counters the report's
/// `select` section carries.
struct Selection {
    solution: Solution,
    energy: f64,
    valid: bool,
    /// Distinct states decoded before the search stopped.
    decoded: usize,
    /// Energy-order rank of the chosen valid sample.
    valid_rank: Option<usize>,
}

/// Draws `reads` states from the product of the exact ground sets of
/// `components` (variables of the presolved `reduced` model): read `r`
/// picks one ground state of each component, in component order,
/// uniformly from the stream `read_seed(seed, r)`, and lifts the pick to
/// the full model, whose energy it reports. One seed therefore fixes the
/// sample set. A fully fixed model has no components, and every read is
/// its one lifted state.
fn component_draw(
    full: &QuboModel,
    reduced: &ReducedModel,
    components: &[Vec<Var>],
    seed: u64,
    reads: usize,
) -> SampleSet {
    let model = &reduced.model;
    // Each component as a model of its own over local indices.
    let mut owner = vec![(0usize, 0 as Var); model.num_vars()];
    let mut parts: Vec<QuboModel> = components
        .iter()
        .enumerate()
        .map(|(c, vars)| {
            let mut part = QuboModel::new(vars.len());
            for (local, &v) in vars.iter().enumerate() {
                owner[v as usize] = (c, local as Var);
                part.add_linear(local as Var, model.linear(v));
            }
            part
        })
        .collect();
    for (i, j, q) in model.quadratic_iter() {
        let ((c, li), (_, lj)) = (owner[i as usize], owner[j as usize]);
        parts[c].add_quadratic(li, lj, q);
    }
    let exact = ExactSolver::new();
    let grounds: Vec<Vec<Vec<u8>>> = parts.iter().map(|p| exact.ground_states(p).1).collect();
    let mut state = vec![0u8; model.num_vars()];
    let draws = (0..reads as u64)
        .map(|r| {
            let mut rng = SmallRng::seed_from_u64(read_seed(seed, r));
            for (vars, ground) in components.iter().zip(&grounds) {
                let pick = &ground[rng.gen_range(0..ground.len())];
                for (&v, &bit) in vars.iter().zip(pick) {
                    state[v as usize] = bit;
                }
            }
            let lifted = reduced.lift(&state);
            let energy = full.energy(&lifted);
            (lifted, energy)
        })
        .collect();
    SampleSet::from_reads(draws)
}

/// Post-selection: lowest-energy sample whose decoding validates; falls
/// back to the overall best sample when none validates.
fn select(constraint: &Constraint, problem: &EncodedProblem, samples: &SampleSet) -> Selection {
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

/// What the sampling stages of a solve (the component draw or the
/// sampler) hand back to [`StringSolver::run`].
struct Solved {
    samples: SampleSet,
    selection: Selection,
    select_us: u64,
    sampling: SamplerStats,
    dynamics: Option<DynamicsStats>,
}

/// Times a solve's top-level stages. Each stage is measured once, by
/// [`qsmt_trace::timed`]: the trace span (when a trace is active) and
/// the [`StageTiming`] share its two clock reads, the timing offset to
/// the solve's start.
struct StageClock {
    origin_us: u64,
    stages: Vec<StageTiming>,
}

impl StageClock {
    /// A clock whose solve starts now.
    fn start() -> Self {
        Self {
            origin_us: qsmt_trace::now_us(),
            stages: Vec::new(),
        }
    }

    /// Runs `f` as stage `label`, returning its result and duration.
    fn stage<T>(&mut self, label: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let (out, start_us, dur_us) = qsmt_trace::timed(label, f);
        self.stages.push(StageTiming {
            label: label.to_string(),
            start_us: start_us - self.origin_us,
            dur_us,
        });
        (out, dur_us)
    }

    /// Microseconds since the solve started.
    fn elapsed_us(&self) -> u64 {
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

    fn solver() -> StringSolver {
        StringSolver::with_defaults().with_seed(42)
    }

    /// `str.indexof` over a 20-letter haystack: one dense one-hot of 18
    /// start indicators, above [`COMPONENT_MAX_VARS`], so the built-in
    /// solver anneals it. Every 3-letter needle gives the same shape.
    fn dense_includes(needle: &str) -> Constraint {
        Constraint::Includes {
            haystack: "zgkycoqrzdhbtiisfxrq".into(),
            needle: needle.into(),
        }
    }

    /// The built-in annealer's configuration as an explicit sampler.
    fn explicit_sa(seed: u64) -> StringSolver {
        StringSolver::new(Arc::new(
            SimulatedAnnealer::new()
                .with_num_reads(DEFAULT_READS)
                .with_sweeps(DEFAULT_SWEEPS)
                .with_seed(seed),
        ))
    }

    fn stage_labels(report: &SolveReport) -> Vec<&str> {
        report.stages.iter().map(|s| s.label.as_str()).collect()
    }

    #[test]
    fn separable_goals_draw_valid_ground_states_without_annealing() {
        // A palindrome couples only mirrored bit pairs: every component
        // has two variables, so the solve enumerates instead of annealing.
        let c = Constraint::Palindrome { len: 3 };
        let probed = SolveOptions {
            probes: true,
            ..SolveOptions::default()
        };
        let out = solver().run(&c, &probed).unwrap();
        let report = &out.report;
        assert_eq!(report.sampling.sampler, "component-exact");
        assert_eq!(report.sampling.reads, DEFAULT_READS as u64);
        assert_eq!(report.sampling.sweeps, None);
        assert_eq!(report.sampling.acceptance_rate, None);
        assert!(report.dynamics.is_none(), "nothing anneals, nothing probes");
        assert_eq!(
            stage_labels(report),
            ["compile", "lint", "presolve", "sample", "select"]
        );
        let (ground, _) = ExactSolver::new().ground_states(&out.problem.qubo);
        assert_eq!(out.samples.total_reads(), DEFAULT_READS as u32);
        for sample in out.samples.iter() {
            assert!((sample.energy - ground).abs() < 1e-9, "{}", sample.energy);
            let decoded = out.problem.decode_state(&sample.state).unwrap();
            assert!(c.validate(&decoded), "{decoded}");
        }
        assert!(out.samples.len() > 1, "reads draw across the ground set");
        // One seed fixes the draw; another seed draws differently.
        assert_eq!(out.samples, solver().solve(&c).unwrap().samples);
        assert_ne!(
            out.samples,
            solver().with_seed(43).solve(&c).unwrap().samples
        );
    }

    #[test]
    fn a_draw_without_a_valid_read_falls_through_to_the_annealer() {
        // A substring the §4.3 encoding places in the last window, where
        // a pinned character contradicts it: no ground state validates,
        // so the component draw holds no valid read.
        let c = Constraint::All(vec![
            Constraint::SubstringMatch {
                substring: "xl".into(),
                len: 7,
            },
            Constraint::CharAt {
                ch: 'b',
                index: 6,
                len: 7,
            },
        ]);
        let out = solver().solve(&c).unwrap();
        assert_eq!(
            stage_labels(&out.report),
            ["compile", "lint", "presolve", "sample", "select", "sample", "select"]
        );
        assert_eq!(out.report.sampling.sampler, "simulated-annealing");
        assert_eq!(out.samples, explicit_sa(42).solve(&c).unwrap().samples);
    }

    #[test]
    fn components_above_the_window_anneal_as_before() {
        let c = dense_includes("bti");
        let out = solver().solve(&c).unwrap();
        assert_eq!(
            stage_labels(&out.report),
            ["compile", "lint", "presolve", "sample", "select"]
        );
        assert_eq!(out.report.sampling.sampler, "simulated-annealing");
        assert!(out.report.presolve.reduced_vars > COMPONENT_MAX_VARS);
        assert_eq!(out.samples, explicit_sa(42).solve(&c).unwrap().samples);
        assert_eq!(out.solution.as_index(), Some(11));
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

    /// Every distinct decode of a solve's samples that validates, in
    /// sample order.
    fn distinct_valid(c: &Constraint, out: &SolveOutcome) -> Vec<Solution> {
        let mut seen: Vec<Solution> = Vec::new();
        let decoded = out
            .samples
            .iter()
            .filter_map(|s| out.problem.decode_state(&s.state).ok());
        for solution in decoded.filter(|s| c.validate(s)) {
            if !seen.contains(&solution) {
                seen.push(solution);
            }
        }
        seen
    }

    #[test]
    fn solve_many_reads_the_witnesses_of_one_solve() {
        // Separable generation goals end in the exact component draw, and
        // solve_many lists that solve's distinct valid decodes.
        for (c, limit) in [
            (Constraint::Palindrome { len: 3 }, 5),
            (
                Constraint::Regex {
                    pattern: "a[bc]+".into(),
                    len: 4,
                },
                4,
            ),
        ] {
            let out = solver().solve(&c).unwrap();
            assert_eq!(out.report.sampling.sampler, "component-exact");
            let mut expected = distinct_valid(&c, &out);
            assert!(expected.len() > limit, "{}", c.describe());
            expected.truncate(limit);
            assert_eq!(solver().solve_many(&c, limit).unwrap(), expected);
        }
    }

    #[test]
    fn solve_many_on_an_explicit_sampler_keeps_its_witnesses() {
        // An explicit sampler anneals the full compiled model, with no
        // presolve or draw in front of it, so its witnesses are pinned
        // exactly: a change to the solve path must not move them.
        let sa = StringSolver::new(Arc::new(
            SimulatedAnnealer::new()
                .with_num_reads(64)
                .with_sweeps(96)
                .with_seed(3),
        ));
        let texts = |c: &Constraint, limit| -> Vec<String> {
            sa.solve_many(c, limit)
                .unwrap()
                .iter()
                .map(|s| s.as_text().unwrap().to_string())
                .collect()
        };
        assert_eq!(
            texts(&Constraint::Palindrome { len: 3 }, 5),
            ["scs", ".-.", "lzl", "2s2", "~7~"]
        );
        let regex = Constraint::Regex {
            pattern: "a[bc]+".into(),
            len: 4,
        };
        assert_eq!(texts(&regex, 4), ["acbb", "accb", "acbc", "abcb"]);
    }

    #[test]
    fn report_carries_dynamics_from_probed_sampler() {
        let opts = SolveOptions {
            probes: true,
            ..SolveOptions::default()
        };
        let c = dense_includes("bti");
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
        let out = solver().solve(&dense_includes("bti")).unwrap();
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
        assert_eq!(report.to_json().get("embedding"), None);
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
        let tripped = StopFlag::new();
        tripped.stop();
        // A deadline that has already passed stops the flag the same way.
        for stop in [tripped, StopFlag::with_deadline(Instant::now())] {
            // `with_stop` before `with_reads`/`with_seed`: the built-in
            // annealer must still poll the flag.
            let s = StringSolver::with_defaults()
                .with_stop(stop)
                .with_seed(9)
                .with_reads(4096);
            let started = Instant::now();
            // A tripped flag cancels before the first sweep: a read budget
            // this size would otherwise take far longer than the assertion
            // allows, and the call still returns a well-formed outcome.
            let out = s.solve(&dense_includes("bti")).unwrap();
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "tripped stop flag did not cut the solve short: {:?}",
                started.elapsed()
            );
            let _ = out.valid;
        }
    }

    #[test]
    fn untripped_stop_flag_keeps_solves_bit_identical() {
        let plain = solver().solve(&dense_includes("bti")).unwrap();
        // A deadline that has not passed changes no draw either.
        let far = std::time::Instant::now() + Duration::from_secs(3600);
        for stop in [StopFlag::new(), StopFlag::with_deadline(far)] {
            let flagged = solver()
                .with_stop(stop)
                .solve(&dense_includes("bti"))
                .unwrap();
            assert_eq!(plain.solution, flagged.solution);
            assert_eq!(plain.energy, flagged.energy);
        }
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
