//! Structured per-stage statistics for one solve, aggregated into
//! [`SolveReport`] / [`GoalReport`] / [`RunReport`] and serialized to JSON
//! by `qsmt solve --report`.
//!
//! Every field emitted here is documented in `docs/OBSERVABILITY.md`;
//! field names are a stable interface — rename there too or not at all.

use crate::dynamics::DynamicsStats;
use crate::json::Json;

/// Shape statistics of a QUBO model (the "QUBO matrix" Figure 1 box).
#[derive(Debug, Clone, PartialEq)]
pub struct QuboShape {
    /// Number of binary variables (matrix dimension).
    pub num_vars: usize,
    /// Number of nonzero off-diagonal interactions.
    pub num_interactions: usize,
    /// `num_interactions / (n·(n−1)/2)` — fraction of possible pairwise
    /// couplings present. 0 for models with fewer than two variables.
    pub density: f64,
    /// Constant energy offset.
    pub offset: f64,
    /// Largest |coefficient| over linear and quadratic terms.
    pub max_abs_coefficient: f64,
}

impl QuboShape {
    /// Serializes as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("num_vars", Json::from(self.num_vars)),
            ("num_interactions", Json::from(self.num_interactions)),
            ("density", Json::from(self.density)),
            ("offset", Json::from(self.offset)),
            ("max_abs_coefficient", Json::from(self.max_abs_coefficient)),
        ])
    }
}

/// Statistics of the compile stage (constraint → encoded QUBO).
#[derive(Debug, Clone, PartialEq)]
pub struct CompileStats {
    /// Human description of the constraint that was encoded.
    pub constraint: String,
    /// Name of the encoding that produced the QUBO.
    pub encoding: String,
    /// Wall-clock time of encoding, microseconds.
    pub time_us: u64,
}

impl CompileStats {
    /// Serializes as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("constraint", Json::from(self.constraint.as_str())),
            ("encoding", Json::from(self.encoding.as_str())),
            ("time_us", Json::from(self.time_us)),
        ])
    }
}

/// Statistics of the presolve analysis (persistencies / variable fixing).
#[derive(Debug, Clone, PartialEq)]
pub struct PresolveStats {
    /// Wall-clock time of the presolve pass, microseconds.
    pub time_us: u64,
    /// Variables in the model before presolve.
    pub original_vars: usize,
    /// Variables fixed by persistency analysis.
    pub fixed_vars: usize,
    /// Variables remaining after fixing.
    pub reduced_vars: usize,
    /// `fixed_vars / original_vars` (0 for an empty model).
    pub reduction_ratio: f64,
}

impl PresolveStats {
    /// Serializes as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("time_us", Json::from(self.time_us)),
            ("original_vars", Json::from(self.original_vars)),
            ("fixed_vars", Json::from(self.fixed_vars)),
            ("reduced_vars", Json::from(self.reduced_vars)),
            ("reduction_ratio", Json::from(self.reduction_ratio)),
        ])
    }
}

/// Sampling-stage statistics: what the sampler did and what it found.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerStats {
    /// Sampler name, e.g. `"simulated-annealing"`, or `"component-exact"`
    /// for reads drawn from the exact ground sets of the presolved
    /// model's components.
    pub sampler: String,
    /// Wall-clock time of the sampling call, microseconds.
    pub time_us: u64,
    /// Total reads (restarts) taken.
    pub reads: u64,
    /// Distinct states observed across all reads.
    pub distinct_states: usize,
    /// Metropolis sweeps per read, when the sampler exposes it.
    pub sweeps: Option<u64>,
    /// Single-bit flips proposed, when the sampler counts them.
    pub proposals: Option<u64>,
    /// Proposals accepted, when the sampler counts them.
    pub accepted: Option<u64>,
    /// Replica lanes the sampler's bit-sliced kernel advances together
    /// per sweep (SA packs up to 64 reads into one word); `None` for
    /// single-configuration samplers (additive in schema v7).
    pub replicas: Option<u64>,
    /// `accepted / proposals`, when both counters exist.
    pub acceptance_rate: Option<f64>,
    /// Proposal throughput in moves/second, when the sampler timed its
    /// own run and counted proposals (additive in schema v3).
    pub proposals_per_sec: Option<f64>,
    /// Accepted-flip throughput in flips/second (additive in schema v3).
    pub flips_per_sec: Option<f64>,
    /// Lowest energy observed.
    pub best_energy: f64,
    /// Read-weighted mean energy.
    pub mean_energy: f64,
    /// Read-weighted standard deviation of energy.
    pub std_dev_energy: f64,
    /// Highest energy observed.
    pub max_energy: f64,
    /// Fraction of reads that hit the lowest observed energy (tol 1e-9).
    pub success_fraction: f64,
    /// Estimated time-to-target at 99% confidence, microseconds: expected
    /// wall-clock to observe the best-seen energy at least once with
    /// probability 0.99, extrapolated from this run's success fraction.
    /// `None` when the success fraction rounds to 0 or no reads were taken.
    pub tts99_us: Option<u64>,
}

impl SamplerStats {
    /// Serializes as a JSON object.
    pub fn to_json(&self) -> Json {
        let opt_u64 = |v: Option<u64>| v.map_or(Json::Null, Json::from);
        let opt_f64 = |v: Option<f64>| v.map_or(Json::Null, Json::from);
        Json::obj([
            ("sampler", Json::from(self.sampler.as_str())),
            ("time_us", Json::from(self.time_us)),
            ("reads", Json::from(self.reads)),
            ("distinct_states", Json::from(self.distinct_states)),
            ("sweeps", opt_u64(self.sweeps)),
            ("proposals", opt_u64(self.proposals)),
            ("accepted", opt_u64(self.accepted)),
            ("replicas", opt_u64(self.replicas)),
            ("acceptance_rate", opt_f64(self.acceptance_rate)),
            ("proposals_per_sec", opt_f64(self.proposals_per_sec)),
            ("flips_per_sec", opt_f64(self.flips_per_sec)),
            ("best_energy", Json::from(self.best_energy)),
            ("mean_energy", Json::from(self.mean_energy)),
            ("std_dev_energy", Json::from(self.std_dev_energy)),
            ("max_energy", Json::from(self.max_energy)),
            ("success_fraction", Json::from(self.success_fraction)),
            ("tts99_us", opt_u64(self.tts99_us)),
        ])
    }
}

/// Condensed formulation-linter counters (schema v2).
///
/// The full diagnostic list (messages, variables, metrics) lives in
/// `qsmt-lint`'s `LintReport`; the solve report carries only the
/// counters and the sorted set of distinct lint codes so dashboards can
/// alert on encoding regressions without parsing prose.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintStats {
    /// Wall-clock time of the lint pass, microseconds.
    pub time_us: u64,
    /// Error-severity findings (formulation likely unsound).
    pub errors: usize,
    /// Warning-severity findings (sound but fragile on hardware).
    pub warnings: usize,
    /// Info-severity findings (structural observations).
    pub infos: usize,
    /// Sorted, de-duplicated kebab-case lint codes present.
    pub codes: Vec<String>,
}

impl LintStats {
    /// Serializes as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("time_us", Json::from(self.time_us)),
            ("errors", Json::from(self.errors)),
            ("warnings", Json::from(self.warnings)),
            ("infos", Json::from(self.infos)),
            (
                "codes",
                Json::Arr(self.codes.iter().map(|c| Json::from(c.as_str())).collect()),
            ),
        ])
    }
}

/// Post-selection statistics: how the decoded answer was chosen.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStats {
    /// Wall-clock time of decode + validation, microseconds.
    pub time_us: u64,
    /// Distinct states decoded before the search stopped.
    pub decoded_states: usize,
    /// Energy-order rank (0 = lowest) of the chosen valid sample;
    /// `None` when no sample validated.
    pub valid_rank: Option<usize>,
}

impl SelectStats {
    /// Serializes as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("time_us", Json::from(self.time_us)),
            ("decoded_states", Json::from(self.decoded_states)),
            ("valid_rank", self.valid_rank.map_or(Json::Null, Json::from)),
        ])
    }
}

/// Script-level abstract-interpretation statistics (schema v6).
///
/// Present when the absint pass ran over the script before any goal was
/// compiled; `None` (JSON `null`) means the pass was disabled, which
/// keeps the section additive over v5 reports. The full analysis
/// (certificate steps, domain summaries) is available via `qsmt lint
/// --format json`; the run report carries its summary.
#[derive(Debug, Clone, PartialEq)]
pub struct AbsintStats {
    /// The verdict: `"unsat"` (refuted with a checkable certificate) or
    /// `"unknown"` (nothing refuted; tightenings may still apply).
    pub verdict: String,
    /// Wall-clock time of lowering + fixpoint, microseconds.
    pub time_us: u64,
    /// Fixpoint rounds until stabilization.
    pub iterations: u64,
    /// Domain-narrowing rule applications recorded during the fixpoint.
    pub domains_narrowed: u64,
    /// QUBO bit variables eliminated by applying tightenings (0 when
    /// the verdict is `"unsat"` — nothing is compiled).
    pub vars_eliminated: u64,
    /// Steps in the unsat certificate (0 when the verdict is
    /// `"unknown"`).
    pub certificate_steps: u64,
}

impl AbsintStats {
    /// Serializes as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("verdict", Json::from(self.verdict.as_str())),
            ("time_us", Json::from(self.time_us)),
            ("iterations", Json::from(self.iterations)),
            ("domains_narrowed", Json::from(self.domains_narrowed)),
            ("vars_eliminated", Json::from(self.vars_eliminated)),
            ("certificate_steps", Json::from(self.certificate_steps)),
        ])
    }
}

/// One top-level stage timing within a solve, in execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Stage name: `compile`, `lint`, `presolve`, `sample`, `select`
    /// (a component draw without a valid read is followed by a second
    /// `sample`/`select` pair from the annealer).
    pub label: String,
    /// Microseconds from solve start to stage start.
    pub start_us: u64,
    /// Stage duration, microseconds.
    pub dur_us: u64,
}

impl StageTiming {
    /// Serializes as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::from(self.label.as_str())),
            ("start_us", Json::from(self.start_us)),
            ("dur_us", Json::from(self.dur_us)),
        ])
    }
}

/// The full observability record of one constraint solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// Human description of the solved constraint.
    pub constraint: String,
    /// The reported answer, rendered as text.
    pub solution: String,
    /// QUBO energy of the reported answer.
    pub energy: f64,
    /// Whether the answer passed semantic validation.
    pub valid: bool,
    /// End-to-end solve time, microseconds.
    pub total_us: u64,
    /// Ordered top-level stage timings.
    pub stages: Vec<StageTiming>,
    /// Compile-stage statistics.
    pub compile: CompileStats,
    /// Shape of the encoded QUBO.
    pub qubo: QuboShape,
    /// Presolve statistics.
    pub presolve: PresolveStats,
    /// Formulation-linter counters; `None` when linting was disabled
    /// (additive in schema v2, serialized as `null` when absent).
    pub lint: Option<LintStats>,
    /// Sampling statistics.
    pub sampling: SamplerStats,
    /// Post-selection statistics.
    pub select: SelectStats,
    /// Solver-dynamics trajectory statistics; `None` when the sampler has
    /// no probes or nothing annealed (additive in schema v4, serialized
    /// as `null` when absent).
    pub dynamics: Option<DynamicsStats>,
}

impl SolveReport {
    /// Serializes as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("constraint", Json::from(self.constraint.as_str())),
            ("solution", Json::from(self.solution.as_str())),
            ("energy", Json::from(self.energy)),
            ("valid", Json::from(self.valid)),
            ("total_us", Json::from(self.total_us)),
            (
                "stages",
                Json::Arr(self.stages.iter().map(StageTiming::to_json).collect()),
            ),
            ("compile", self.compile.to_json()),
            ("qubo", self.qubo.to_json()),
            ("presolve", self.presolve.to_json()),
            (
                "lint",
                self.lint.as_ref().map_or(Json::Null, LintStats::to_json),
            ),
            ("sampling", self.sampling.to_json()),
            ("select", self.select.to_json()),
            (
                "dynamics",
                self.dynamics
                    .as_ref()
                    .map_or(Json::Null, DynamicsStats::to_json),
            ),
        ])
    }

    /// Multi-line human rendering — what `qsmt solve --stats` prints.
    pub fn render_stats(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "solve: {} → {:?} (energy {:.3}, valid: {})\n",
            self.constraint, self.solution, self.energy, self.valid
        ));
        for s in &self.stages {
            out.push_str(&format!(
                "  {:<8} {:>10.3} ms\n",
                s.label,
                s.dur_us as f64 / 1000.0
            ));
        }
        out.push_str(&format!(
            "  qubo: {} vars, {} interactions, density {:.3}\n",
            self.qubo.num_vars, self.qubo.num_interactions, self.qubo.density
        ));
        out.push_str(&format!(
            "  presolve: fixed {}/{} vars\n",
            self.presolve.fixed_vars, self.presolve.original_vars
        ));
        if let Some(l) = &self.lint {
            out.push_str(&format!(
                "  lint: {} errors, {} warnings, {} info{}{}\n",
                l.errors,
                l.warnings,
                l.infos,
                if l.codes.is_empty() { "" } else { " — " },
                l.codes.join(", ")
            ));
        }
        let s = &self.sampling;
        out.push_str(&format!(
            "  sampling: {} reads via {}{}, best {:.3}, mean {:.3} ± {:.3}, success {:.1}%\n",
            s.reads,
            s.sampler,
            s.replicas
                .map_or(String::new(), |r| format!(" ({r} replicas/word)")),
            s.best_energy,
            s.mean_energy,
            s.std_dev_energy,
            s.success_fraction * 100.0
        ));
        if let (Some(p), Some(a), Some(r)) = (s.proposals, s.accepted, s.acceptance_rate) {
            out.push_str(&format!("  moves: {a}/{p} accepted ({:.1}%)\n", r * 100.0));
        }
        if let Some(pps) = s.proposals_per_sec {
            out.push_str(&format!(
                "  throughput: {:.2} Mprop/s{}\n",
                pps / 1e6,
                s.flips_per_sec
                    .map_or(String::new(), |f| format!(", {:.2} Mflip/s", f / 1e6))
            ));
        }
        if let Some(d) = &self.dynamics {
            out.push_str(&format!(
                "  dynamics: {} (last improvement at {:.0}% of run)\n",
                d.stall_verdict.as_str(),
                d.last_improvement_fraction * 100.0
            ));
            if let Some(h) = &d.proposal_latency_ns {
                out.push_str(&format!(
                    "  proposal latency: p50 {:.0} ns, p90 {:.0} ns, p99 {:.0} ns ({} sweeps)\n",
                    h.p50, h.p90, h.p99, h.count
                ));
            }
            if let Some(h) = &d.sweep_improvement {
                out.push_str(&format!(
                    "  energy gain/sweep: p50 {:.4}, p90 {:.4}, p99 {:.4}\n",
                    h.p50, h.p90, h.p99
                ));
            }
        }
        out.push_str(&format!(
            "  total: {:.3} ms\n",
            self.total_us as f64 / 1000.0
        ));
        out
    }
}

/// The kind of goal a [`GoalReport`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoalKind {
    /// A single string constraint.
    Constraint,
    /// A sequential multi-step pipeline (§4.12).
    Pipeline,
    /// An integer index query (indexof / length).
    IndexQuery,
}

impl GoalKind {
    /// Stable string form used in JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            GoalKind::Constraint => "constraint",
            GoalKind::Pipeline => "pipeline",
            GoalKind::IndexQuery => "index-query",
        }
    }
}

/// Observability record for one script goal (declared variable).
#[derive(Debug, Clone, PartialEq)]
pub struct GoalReport {
    /// The declared variable this goal solves for.
    pub name: String,
    /// What kind of goal it was.
    pub kind: GoalKind,
    /// The model value assigned, rendered as text.
    pub answer: String,
    /// Whether every solve in this goal validated.
    pub valid: bool,
    /// Total goal time, microseconds.
    pub total_us: u64,
    /// One report per solver invocation (pipelines have several).
    pub solves: Vec<SolveReport>,
}

impl GoalReport {
    /// Serializes as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("kind", Json::from(self.kind.as_str())),
            ("answer", Json::from(self.answer.as_str())),
            ("valid", Json::from(self.valid)),
            ("total_us", Json::from(self.total_us)),
            (
                "solves",
                Json::Arr(self.solves.iter().map(SolveReport::to_json).collect()),
            ),
        ])
    }
}

/// The top-level run report written by `qsmt solve --report <path>`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Report schema version; bumped on breaking field changes.
    pub schema_version: u32,
    /// Where the problem came from (file path or `"<demo>"`).
    pub source: String,
    /// The check-sat verdict (`sat` / `unsat` / `unknown`).
    pub status: String,
    /// The solver's configured sampler; each solve's `sampling.sampler`
    /// names what actually ran for it.
    pub sampler: String,
    /// Where the answers came from: `"absint"` when the abstract
    /// interpreter refuted the script statically (nothing sampled),
    /// `"solver"` otherwise.
    pub served_from: String,
    /// End-to-end wall-clock for the run, microseconds.
    pub elapsed_us: u64,
    /// Script-level abstract-interpretation summary; `None` when the
    /// pass was disabled (additive in schema v6, serialized as `null`
    /// when absent).
    pub absint: Option<AbsintStats>,
    /// End-to-end trace identifier (additive in schema v8). Serialized
    /// as a 16-hex-digit **string** (`null` when absent) because JSON
    /// numbers here are `f64` and cannot round-trip 64-bit ids. The
    /// same id addresses `GET /jobs/<id>/trace` on a serve instance.
    pub trace_id: Option<u64>,
    /// Per-goal reports in declaration order.
    pub goals: Vec<GoalReport>,
}

impl RunReport {
    /// Current schema version. v2 added the additive `lint` field on
    /// `SolveReport` (and the `lint` stage label); v3 added the additive
    /// `proposals_per_sec` / `flips_per_sec` throughput fields on
    /// `sampling`; v4 added the additive `dynamics` section (trajectory
    /// probes: energy trace, per-β acceptance, stall verdict); v5 adds the additive `cache` section on `SolveReport`
    /// (lookup outcome and warm-start sweeps) and `served_from` on the
    /// run; v6 adds the additive `absint` section on the run (script
    /// abstract-interpretation verdict, fixpoint accounting, eliminated
    /// variables, certificate size, and routing features) and the
    /// `"absint"` value for `served_from`; v7 adds the additive
    /// `replicas` field on `sampling` (bit-sliced multi-replica kernel
    /// batch width, `null` for single-configuration samplers); v8 adds
    /// the additive `trace_id` field (16-hex-digit string, `null` when
    /// tracing was off) and the computed `span_us` per-stage rollup
    /// object consumed by the `qsmt history` run store; v9 adds the
    /// additive `portfolio` section on `SolveReport` (routed plan,
    /// per-member outcome/elapsed, winner) and the
    /// `"portfolio:<member>"` value for `served_from`; v10 removes the
    /// per-solve `spans` log — stage timings are `stages`, and the span
    /// tree is the trace (`qsmt-trace`); v11 removes the three `dynamics`
    /// keys only the retired parallel-tempering, population-annealing
    /// and tabu samplers filled (swap rates, effective sample sizes,
    /// aspiration hits); v12 removes the per-solve `cache` and
    /// `portfolio` sections with the retired solve cache and portfolio
    /// race (so `served_from` is only `"solver"` or `"absint"`), the
    /// always-null per-solve `embedding` key, and the `features` key of
    /// the `absint` section. Every version before v10 only added fields,
    /// so earlier readers kept working; a v10 reader must not expect
    /// `spans`, a v11 reader must not expect those three keys, and a v12
    /// reader must not expect the four removed keys.
    pub const SCHEMA_VERSION: u32 = 12;

    /// Serializes as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::from(self.schema_version)),
            ("source", Json::from(self.source.as_str())),
            ("status", Json::from(self.status.as_str())),
            ("sampler", Json::from(self.sampler.as_str())),
            ("served_from", Json::from(self.served_from.as_str())),
            ("elapsed_us", Json::from(self.elapsed_us)),
            (
                "absint",
                self.absint
                    .as_ref()
                    .map_or(Json::Null, AbsintStats::to_json),
            ),
            (
                "trace_id",
                self.trace_id
                    .map_or(Json::Null, |id| Json::from(format!("{id:016x}"))),
            ),
            ("span_us", self.span_us_rollup()),
            (
                "goals",
                Json::Arr(self.goals.iter().map(GoalReport::to_json).collect()),
            ),
        ])
    }

    /// Total microseconds per stage label, summed across every solve of
    /// every goal — the flat per-stage rollup (`span_us`, additive in
    /// schema v8) that the run-history store aggregates percentiles
    /// over without walking the nested goal/solve/stage tree.
    pub fn span_us_rollup(&self) -> Json {
        let mut rollup = std::collections::BTreeMap::new();
        for goal in &self.goals {
            for solve in &goal.solves {
                for stage in &solve.stages {
                    *rollup.entry(stage.label.clone()).or_insert(0u64) += stage.dur_us;
                }
            }
        }
        Json::Obj(
            rollup
                .into_iter()
                .map(|(label, us)| (label, Json::from(us)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample_report() -> SolveReport {
        SolveReport {
            constraint: "reverse(\"hello\")".into(),
            solution: "olleh".into(),
            energy: 0.0,
            valid: true,
            total_us: 1500,
            stages: vec![
                StageTiming {
                    label: "compile".into(),
                    start_us: 0,
                    dur_us: 100,
                },
                StageTiming {
                    label: "sample".into(),
                    start_us: 100,
                    dur_us: 1200,
                },
            ],
            compile: CompileStats {
                constraint: "reverse(\"hello\")".into(),
                encoding: "reverse".into(),
                time_us: 100,
            },
            qubo: QuboShape {
                num_vars: 40,
                num_interactions: 0,
                density: 0.0,
                offset: 200.0,
                max_abs_coefficient: 10.0,
            },
            presolve: PresolveStats {
                time_us: 5,
                original_vars: 40,
                fixed_vars: 40,
                reduced_vars: 0,
                reduction_ratio: 1.0,
            },
            lint: Some(LintStats {
                time_us: 3,
                errors: 0,
                warnings: 1,
                infos: 2,
                codes: vec!["dead-variable".into(), "presolve-fixable".into()],
            }),
            sampling: SamplerStats {
                sampler: "simulated-annealing".into(),
                time_us: 1200,
                reads: 64,
                distinct_states: 3,
                sweeps: Some(384),
                proposals: Some(1000),
                accepted: Some(400),
                replicas: Some(64),
                acceptance_rate: Some(0.4),
                proposals_per_sec: Some(2.5e6),
                flips_per_sec: Some(1.0e6),
                best_energy: 0.0,
                mean_energy: 0.5,
                std_dev_energy: 0.1,
                max_energy: 2.0,
                success_fraction: 0.9,
                tts99_us: Some(30),
            },
            select: SelectStats {
                time_us: 10,
                decoded_states: 1,
                valid_rank: Some(0),
            },
            dynamics: Some(sample_dynamics()),
        }
    }

    fn sample_dynamics() -> DynamicsStats {
        let energy_trace = vec![
            crate::dynamics::TracePoint {
                sweep: 0,
                best_energy: 8.0,
            },
            crate::dynamics::TracePoint {
                sweep: 100,
                best_energy: 0.0,
            },
            crate::dynamics::TracePoint {
                sweep: 384,
                best_energy: 0.0,
            },
        ];
        DynamicsStats {
            time_to_target: DynamicsStats::time_to_target_curve(&energy_trace),
            last_improvement_fraction: DynamicsStats::last_improvement_fraction(&energy_trace),
            stall_verdict: crate::dynamics::StallVerdict::Converged,
            energy_trace,
            beta_acceptance: vec![crate::dynamics::BetaAcceptance {
                beta: 0.1,
                proposals: 640,
                accepted: 320,
            }],
            proposal_latency_ns: crate::dynamics::HistogramSummary::from_samples(&[
                50.0, 60.0, 70.0,
            ]),
            sweep_improvement: crate::dynamics::HistogramSummary::from_samples(&[0.0, 0.5, 1.0]),
        }
    }

    #[test]
    fn solve_report_round_trips_through_json() {
        let r = sample_report();
        let doc = parse(&r.to_json().pretty()).expect("valid JSON");
        assert_eq!(
            doc.get("constraint").and_then(Json::as_str),
            Some("reverse(\"hello\")")
        );
        assert_eq!(doc.get("valid").and_then(Json::as_bool), Some(true));
        let stages = doc.get("stages").and_then(Json::as_arr).unwrap();
        assert_eq!(stages.len(), 2);
        let sampling = doc.get("sampling").unwrap();
        assert_eq!(sampling.get("reads").and_then(Json::as_u64), Some(64));
        assert_eq!(
            sampling.get("acceptance_rate").and_then(Json::as_f64),
            Some(0.4)
        );
        assert_eq!(doc.get("embedding"), None);
    }

    #[test]
    fn lint_stats_serialize_with_codes() {
        let r = sample_report();
        let doc = parse(&r.to_json().pretty()).unwrap();
        let lint = doc.get("lint").unwrap();
        assert_eq!(lint.get("errors").and_then(Json::as_u64), Some(0));
        assert_eq!(lint.get("warnings").and_then(Json::as_u64), Some(1));
        let codes = lint.get("codes").and_then(Json::as_arr).unwrap();
        assert_eq!(codes[0].as_str(), Some("dead-variable"));
        let text = r.render_stats();
        assert!(text.contains("lint: 0 errors, 1 warnings, 2 info"));
    }

    #[test]
    fn optional_fields_serialize_as_null() {
        let mut r = sample_report();
        r.sampling.proposals = None;
        r.select.valid_rank = None;
        r.lint = None;
        let j = r.to_json();
        assert_eq!(j.get("lint"), Some(&Json::Null));
        assert_eq!(
            j.get("sampling").unwrap().get("proposals"),
            Some(&Json::Null)
        );
        assert_eq!(
            j.get("select").unwrap().get("valid_rank"),
            Some(&Json::Null)
        );
    }

    #[test]
    fn schema_v12_solve_and_absint_keys_are_pinned() {
        // v12 dropped the per-solve `cache`, `portfolio` and `embedding`
        // keys and the absint section's `features`; nothing else moved.
        let Json::Obj(solve) = sample_report().to_json() else {
            panic!("a solve report serializes as an object");
        };
        let keys: Vec<&str> = solve.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "compile",
                "constraint",
                "dynamics",
                "energy",
                "lint",
                "presolve",
                "qubo",
                "sampling",
                "select",
                "solution",
                "stages",
                "total_us",
                "valid",
            ]
        );
        let absint = AbsintStats {
            verdict: "unknown".into(),
            time_us: 1,
            iterations: 1,
            domains_narrowed: 0,
            vars_eliminated: 0,
            certificate_steps: 0,
        };
        let Json::Obj(absint) = absint.to_json() else {
            panic!("the absint section serializes as an object");
        };
        assert!(!absint.contains_key("features"));
        assert_eq!(absint.len(), 6);
    }

    #[test]
    fn run_report_nests_goals_and_solves() {
        let run = RunReport {
            schema_version: RunReport::SCHEMA_VERSION,
            source: "x.smt2".into(),
            status: "sat".into(),
            sampler: "simulated-annealing".into(),
            served_from: "solver".into(),
            elapsed_us: 2000,
            absint: Some(AbsintStats {
                verdict: "unknown".into(),
                time_us: 40,
                iterations: 2,
                domains_narrowed: 3,
                vars_eliminated: 14,
                certificate_steps: 0,
            }),
            trace_id: Some(0x00ab_cdef_0123_4567),
            goals: vec![GoalReport {
                name: "x".into(),
                kind: GoalKind::Pipeline,
                answer: "olleh".into(),
                valid: true,
                total_us: 1500,
                solves: vec![sample_report()],
            }],
        };
        let doc = parse(&run.to_json().pretty()).unwrap();
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(u64::from(RunReport::SCHEMA_VERSION))
        );
        assert_eq!(
            doc.get("trace_id").and_then(Json::as_str),
            Some("00abcdef01234567")
        );
        // The flat rollup sums the nested stage timings by label.
        let span_us = doc.get("span_us").unwrap();
        assert_eq!(span_us.get("compile").and_then(Json::as_u64), Some(100));
        assert_eq!(span_us.get("sample").and_then(Json::as_u64), Some(1200));
        assert_eq!(
            doc.get("served_from").and_then(Json::as_str),
            Some("solver")
        );
        let goals = doc.get("goals").and_then(Json::as_arr).unwrap();
        assert_eq!(
            goals[0].get("kind").and_then(Json::as_str),
            Some("pipeline")
        );
        assert_eq!(
            goals[0].get("solves").and_then(Json::as_arr).unwrap().len(),
            1
        );
    }

    #[test]
    fn schema_v6_is_additive_over_v5() {
        // A v5-shaped run (no absint section) still serializes every key
        // with `absint` as null; a v6 run keeps every v5 key.
        let run = |absint: Option<AbsintStats>| RunReport {
            schema_version: RunReport::SCHEMA_VERSION,
            source: "x.smt2".into(),
            status: "unsat".into(),
            sampler: "simulated-annealing".into(),
            served_from: "absint".into(),
            elapsed_us: 120,
            absint,
            trace_id: None,
            goals: vec![],
        };
        let v5_doc = parse(&run(None).to_json().pretty()).unwrap();
        assert_eq!(v5_doc.get("absint"), Some(&Json::Null));
        let v6 = run(Some(AbsintStats {
            verdict: "unsat".into(),
            time_us: 55,
            iterations: 2,
            domains_narrowed: 4,
            vars_eliminated: 0,
            certificate_steps: 3,
        }));
        let v6_doc = parse(&v6.to_json().pretty()).unwrap();
        let (Json::Obj(v5_map), Json::Obj(v6_map)) = (&v5_doc, &v6_doc) else {
            panic!("reports serialize as objects");
        };
        for key in v5_map.keys() {
            assert!(v6_map.contains_key(key), "v6 dropped v5 key {key}");
        }
        let absint = v6_doc.get("absint").unwrap();
        assert_eq!(absint.get("verdict").and_then(Json::as_str), Some("unsat"));
        assert_eq!(
            absint.get("certificate_steps").and_then(Json::as_u64),
            Some(3)
        );
        assert_eq!(
            v6_doc.get("served_from").and_then(Json::as_str),
            Some("absint")
        );
    }

    #[test]
    fn schema_v7_is_additive_over_v6() {
        // A v6-shaped report (no replicas counter) still serializes every
        // key with `replicas` as null; a v7 report keeps every v6 key and
        // surfaces the batch width in the --stats sampling line.
        let mut v6 = sample_report();
        v6.sampling.replicas = None;
        let v6_doc = parse(&v6.to_json().pretty()).unwrap();
        assert_eq!(
            v6_doc.get("sampling").unwrap().get("replicas"),
            Some(&Json::Null)
        );
        let v7_doc = parse(&sample_report().to_json().pretty()).unwrap();
        let (Some(Json::Obj(v6_map)), Some(Json::Obj(v7_map))) =
            (v6_doc.get("sampling"), v7_doc.get("sampling"))
        else {
            panic!("sampling serializes as an object");
        };
        for key in v6_map.keys() {
            assert!(v7_map.contains_key(key), "v7 dropped v6 key {key}");
        }
        assert_eq!(
            v7_doc
                .get("sampling")
                .unwrap()
                .get("replicas")
                .and_then(Json::as_u64),
            Some(64)
        );
        let text = sample_report().render_stats();
        assert!(text.contains("(64 replicas/word)"), "{text}");
        assert!(!v6.render_stats().contains("replicas/word"));
    }

    #[test]
    fn schema_v8_is_additive_over_v7() {
        // A v7-shaped run (tracing off) still serializes every key with
        // `trace_id` as null and an empty `span_us` rollup; a v8 run
        // keeps every v7 key and adds the hex trace id.
        let run = |trace_id: Option<u64>, goals: Vec<GoalReport>| RunReport {
            schema_version: RunReport::SCHEMA_VERSION,
            source: "x.smt2".into(),
            status: "sat".into(),
            sampler: "simulated-annealing".into(),
            served_from: "solver".into(),
            elapsed_us: 2000,
            absint: None,
            trace_id,
            goals,
        };
        let goal = GoalReport {
            name: "x".into(),
            kind: GoalKind::Constraint,
            answer: "olleh".into(),
            valid: true,
            total_us: 1500,
            solves: vec![sample_report()],
        };
        let v7_doc = parse(&run(None, vec![]).to_json().pretty()).unwrap();
        assert_eq!(v7_doc.get("trace_id"), Some(&Json::Null));
        assert_eq!(v7_doc.get("span_us"), Some(&Json::Obj(Default::default())));
        let v8_doc = parse(&run(Some(0xdead_beef), vec![goal]).to_json().pretty()).unwrap();
        let (Json::Obj(v7_map), Json::Obj(v8_map)) = (&v7_doc, &v8_doc) else {
            panic!("reports serialize as objects");
        };
        for key in v7_map.keys() {
            assert!(v8_map.contains_key(key), "v8 dropped v7 key {key}");
        }
        assert_eq!(
            v8_doc.get("trace_id").and_then(Json::as_str),
            Some("00000000deadbeef")
        );
        let span_us = v8_doc.get("span_us").unwrap();
        assert_eq!(span_us.get("compile").and_then(Json::as_u64), Some(100));
        assert_eq!(span_us.get("sample").and_then(Json::as_u64), Some(1200));
    }

    #[test]
    fn throughput_fields_serialize_and_render() {
        let r = sample_report();
        let doc = parse(&r.to_json().pretty()).unwrap();
        let sampling = doc.get("sampling").unwrap();
        assert_eq!(
            sampling.get("proposals_per_sec").and_then(Json::as_f64),
            Some(2.5e6)
        );
        assert_eq!(
            sampling.get("flips_per_sec").and_then(Json::as_f64),
            Some(1.0e6)
        );
        assert!(r
            .render_stats()
            .contains("throughput: 2.50 Mprop/s, 1.00 Mflip/s"));
        let mut quiet = sample_report();
        quiet.sampling.proposals_per_sec = None;
        quiet.sampling.flips_per_sec = None;
        assert!(!quiet.render_stats().contains("throughput"));
    }

    #[test]
    fn schema_v4_is_additive_over_v3() {
        // A v3-shaped report (no dynamics) still serializes every v3 key
        // with `dynamics` as null; a v4 report keeps every v3 key.
        let mut v3 = sample_report();
        v3.dynamics = None;
        let v3_doc = parse(&v3.to_json().pretty()).unwrap();
        assert_eq!(v3_doc.get("dynamics"), Some(&Json::Null));
        let v4_doc = parse(&sample_report().to_json().pretty()).unwrap();
        let (Json::Obj(v3_map), Json::Obj(v4_map)) = (&v3_doc, &v4_doc) else {
            panic!("reports serialize as objects");
        };
        for key in v3_map.keys() {
            assert!(v4_map.contains_key(key), "v4 dropped v3 key {key}");
        }
        let dynamics = v4_doc.get("dynamics").unwrap();
        assert_eq!(
            dynamics.get("stall_verdict").and_then(Json::as_str),
            Some("converged")
        );
        let betas = dynamics
            .get("beta_acceptance")
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(betas[0].get("accepted").and_then(Json::as_u64), Some(320));
    }

    #[test]
    fn render_stats_includes_dynamics_histograms() {
        let text = sample_report().render_stats();
        assert!(text.contains("dynamics: converged"), "{text}");
        assert!(text.contains("proposal latency: p50 60 ns"), "{text}");
        assert!(text.contains("energy gain/sweep: p50 0.5000"), "{text}");
        let mut quiet = sample_report();
        quiet.dynamics = None;
        assert!(!quiet.render_stats().contains("dynamics:"));
    }

    #[test]
    fn render_stats_mentions_stages_and_counters() {
        let text = sample_report().render_stats();
        assert!(text.contains("compile"));
        assert!(text.contains("sampling: 64 reads"));
        assert!(text.contains("accepted (40.0%)"));
    }
}
