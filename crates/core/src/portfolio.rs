//! Portfolio solving: structure-aware routing and first-wins racing.
//!
//! The paper's pipeline hand-picks one strategy per constraint, but the
//! enumeration-vs-annealing crossover measured by `crates/bench` is
//! exactly the question SAT portfolios answer: race complementary
//! solvers and keep the first winner (the SATzilla/ppfolio insight; see
//! also Bian et al., arXiv:1811.02524, on matching annealer encodings to
//! instance structure). This module provides
//!
//! * [`RoutingFeatures`] — the structural facts a routing decision is
//!   made from: model size/density and one-hot structure from the
//!   compiled QUBO, the constraint's transformation/generation class,
//!   and (when solving a script) the absint feature vector's summary.
//! * [`Portfolio::route`] — a deterministic threshold table mapping
//!   features to a [`PortfolioPlan`]: which members to race
//!   ([`MemberKind`]) and each member's read/sweep budget. The thresholds
//!   are constants from the crossover bench; `docs/PORTFOLIO.md` records
//!   the measured crossover points.
//! * The first-wins race itself ([`StringSolver::run`] with
//!   [`SolveOptions::portfolio`](crate::SolveOptions::portfolio) set):
//!   every plan member runs on its own scoped thread with its own
//!   [`StopFlag`] and RNG stream (derived via `read_seed`, so the
//!   winner's sample set is bit-identical to running that member alone
//!   with the same seed), and the instant one member post-selects a
//!   semantically valid answer it trips every other member's flag.
//!
//! A race runs only for a goal that the built-in solver's exact component
//! draw leaves unanswered: a presolved component above
//! [`COMPONENT_MAX_VARS`](crate::COMPONENT_MAX_VARS) variables, or a draw
//! with no valid read. Routing then sees the full model.
//!
//! Cancellation is cooperative and loss-free: an untripped flag never
//! touches a sampler's RNG stream, so the winner's result carries no
//! trace of the race. When no member validates, the primary (first)
//! member's outcome is returned — the same verdict routing a single
//! strategy would have produced.

use crate::constraint::Constraint;
use crate::error::ConstraintError;
use crate::problem::{EncodedProblem, Solution};
use crate::solver::{
    select, Selection, Solved, StageClock, StringSolver, DEFAULT_READS, DEFAULT_SWEEPS,
};
use qsmt_anneal::{read_seed, ExactSolver, SampleSet, Sampler, SamplerRunStats, SimulatedAnnealer};
use qsmt_qubo::StopFlag;
use qsmt_telemetry::{Json, PortfolioMemberStats, PortfolioStats};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Classical-baseline escape hatch: `qsmt-core` cannot depend on
/// `qsmt-baseline` (the baseline depends on this crate), so callers that
/// want a classical member inject it as a closure over the constraint.
/// The hook returns the classical answer, or `None` when the baseline
/// found nothing within its budget.
pub type ClassicalHook = Arc<dyn Fn(&Constraint) -> Option<Solution> + Send + Sync>;

/// Salt folded into the base seed before deriving per-member streams, so
/// member seeds never collide with the per-read streams a solo sampler
/// derives from the same base seed.
const MEMBER_SEED_SALT: u64 = 0x706f_7274_666f_6c69;

/// Derives the RNG seed portfolio member `index` runs with, for a solve
/// whose solver seed is `base`. Pure and deterministic — a solo re-run
/// of the member with this seed reproduces its samples bit for bit.
pub fn member_seed(base: u64, index: usize) -> u64 {
    read_seed(base ^ MEMBER_SEED_SALT, index as u64)
}

/// The strategies a portfolio plan can race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberKind {
    /// Gray-code exact enumeration ([`ExactSolver`]); only planned when
    /// the model fits the enumerable window
    /// (≤ [`ExactSolver::DEFAULT_MAX_VARS`] variables).
    Exact,
    /// Simulated annealing.
    Sa,
    /// The classical baseline, injected via [`ClassicalHook`]; only
    /// planned for transformation-class constraints it computes
    /// directly.
    Classical,
}

impl MemberKind {
    /// Stable string form used in JSON, metrics labels, and
    /// `served_from: "portfolio:<member>"`.
    pub fn as_str(self) -> &'static str {
        match self {
            MemberKind::Exact => "exact",
            MemberKind::Sa => "sa",
            MemberKind::Classical => "classical",
        }
    }

    /// The underlying sampler's long name, for the report's sampling
    /// section (matches what a solo run of the member would report).
    pub fn sampler_name(self) -> &'static str {
        match self {
            MemberKind::Exact => "exact",
            MemberKind::Sa => "simulated-annealing",
            MemberKind::Classical => "classical",
        }
    }
}

/// One member of a portfolio plan: a strategy plus its budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanMember {
    /// The strategy to run.
    pub kind: MemberKind,
    /// Read budget (0 for exact/classical members, which do not sample).
    pub reads: usize,
    /// Sweep budget (0 for exact/classical members).
    pub sweeps: usize,
}

impl PlanMember {
    /// Serializes as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("member", Json::from(self.kind.as_str())),
            ("reads", Json::from(self.reads as u64)),
            ("sweeps", Json::from(self.sweeps as u64)),
        ])
    }

    /// Builds this member's sampler, seeded for determinism and wired to
    /// `stop` for cooperative cancellation. Returns `None` for the
    /// classical member (it runs through the [`ClassicalHook`], not the
    /// sampler trait). Passing `stop: None` reproduces a solo run of the
    /// member — the race winner's samples are bit-identical to it.
    pub fn sampler(&self, seed: u64, stop: Option<StopFlag>) -> Option<Arc<dyn Sampler>> {
        match self.kind {
            MemberKind::Exact => Some(Arc::new(ExactSolver::new())),
            MemberKind::Sa => {
                let mut s = SimulatedAnnealer::new()
                    .with_num_reads(self.reads)
                    .with_sweeps(self.sweeps)
                    .with_seed(seed);
                if let Some(stop) = stop {
                    s = s.with_stop(stop);
                }
                Some(Arc::new(s))
            }
            MemberKind::Classical => None,
        }
    }
}

/// Script-level facts the core solver cannot see on its own, lifted from
/// the absint [`FeatureVector`](https://docs.rs) by `qsmt-smtlib` (which
/// depends on both crates). All zero when solving a bare constraint.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScriptFacts {
    /// Declared string variables in the script.
    pub string_vars: usize,
    /// Total assertions.
    pub assertions: usize,
    /// `str.in_re` assertions (regex membership — the most degenerate
    /// generation encodings).
    pub regexes: usize,
    /// `str.contains` assertions.
    pub contains: usize,
    /// Positions proven by absint to hold exactly one character.
    pub pinned_positions: usize,
    /// Mean admissible-character count over materialized positions
    /// (128.0 = fully unconstrained, 0 when unknown).
    pub avg_position_width: f64,
}

/// The feature vector a routing decision is made from: compiled-model
/// structure (var count, density, one-hot groups from `qsmt-lint`), the
/// constraint's class, and optional script-level enrichment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoutingFeatures {
    /// QUBO variable count of the compiled model.
    pub num_vars: usize,
    /// Off-diagonal interaction density: interactions over possible
    /// pairs (0 for models with fewer than two variables).
    pub density: f64,
    /// One-hot cliques recovered from the compiled penalty structure.
    pub one_hot_groups: usize,
    /// Whether the constraint is transformation-class (equality, concat,
    /// replace, reverse, includes): the classical baseline computes
    /// these directly in linear time, so enumeration never pays off.
    pub transformation_only: bool,
    /// Script-level enrichment (all zero for bare constraints).
    pub script: ScriptFacts,
}

impl RoutingFeatures {
    /// Computes the model-level features from a compiled problem and its
    /// source constraint.
    pub fn from_problem(problem: &EncodedProblem, constraint: &Constraint) -> Self {
        let n = problem.qubo.num_vars();
        let pairs = n.saturating_sub(1) * n / 2;
        RoutingFeatures {
            num_vars: n,
            density: if pairs == 0 {
                0.0
            } else {
                problem.qubo.num_interactions() as f64 / pairs as f64
            },
            one_hot_groups: qsmt_lint::infer_groups(&problem.qubo).len(),
            transformation_only: is_transformation(constraint),
            script: ScriptFacts::default(),
        }
    }

    /// Merges script-level facts (absint feature summary) into the
    /// vector before routing.
    pub fn merge_script(&mut self, facts: &ScriptFacts) {
        self.script = *facts;
    }

    /// Serializes as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("num_vars", Json::from(self.num_vars as u64)),
            ("density", Json::from(self.density)),
            ("one_hot_groups", Json::from(self.one_hot_groups as u64)),
            ("transformation_only", Json::from(self.transformation_only)),
            ("string_vars", Json::from(self.script.string_vars as u64)),
            ("assertions", Json::from(self.script.assertions as u64)),
            ("regexes", Json::from(self.script.regexes as u64)),
            ("contains", Json::from(self.script.contains as u64)),
            (
                "pinned_positions",
                Json::from(self.script.pinned_positions as u64),
            ),
            (
                "avg_position_width",
                Json::from(self.script.avg_position_width),
            ),
        ])
    }
}

/// Transformation-class constraints have a direct classical answer (the
/// baseline computes them without search); everything else is a
/// generation constraint where enumeration or annealing must search.
fn is_transformation(c: &Constraint) -> bool {
    match c {
        Constraint::Equality { .. }
        | Constraint::Concat { .. }
        | Constraint::ReplaceAll { .. }
        | Constraint::ReplaceFirst { .. }
        | Constraint::Reverse { .. }
        | Constraint::Includes { .. } => true,
        Constraint::Pinned { inner, .. } => is_transformation(inner),
        Constraint::All(parts) => parts.iter().all(is_transformation),
        _ => false,
    }
}

/// A routed portfolio plan: the members to race, their budgets, the
/// predicted winner class, and the features the decision was made from.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioPlan {
    /// Members in priority order; `members[0]` is the primary — the
    /// strategy single-strategy routing would have picked, and the
    /// fallback answer when no member validates.
    pub members: Vec<PlanMember>,
    /// The member class routing predicts will win.
    pub predicted: MemberKind,
    /// The feature vector the plan was routed from.
    pub features: RoutingFeatures,
}

impl PortfolioPlan {
    /// Serializes as a JSON object (the shape snapshotted by
    /// `benchmarks/portfolio_expected.json`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "members",
                Json::Arr(self.members.iter().map(PlanMember::to_json).collect()),
            ),
            ("predicted_winner", Json::from(self.predicted.as_str())),
            ("features", self.features.to_json()),
        ])
    }
}

/// Read budget of annealer members when the encoding is degenerate
/// (regex membership or wide admissible-character positions):
/// post-selection needs more reads to surface a valid sample. Other
/// annealer members run the default [`DEFAULT_READS`] × [`DEFAULT_SWEEPS`].
const DEGENERATE_READS: usize = 128;
/// Mean admissible-character width above which an encoding counts as
/// degenerate.
const DEGENERATE_WIDTH: f64 = 32.0;
/// Read budget of the annealer backstop behind exact/classical primaries
/// (generous: the backstop only matters when the primary fails, and it is
/// cancelled the instant the primary wins).
const BACKSTOP_READS: usize = 256;
/// Sweep budget of the annealer backstop.
const BACKSTOP_SWEEPS: usize = 4096;

/// Portfolio configuration: the optional classical hook and the
/// script-level facts routing decisions are enriched with.
///
/// Routing is a deterministic threshold table over constants derived
/// from the crossover bench in `crates/bench` (see `docs/PORTFOLIO.md`
/// for the measured crossover data): exact enumeration races up to the
/// [`ExactSolver`]'s own variable limit, and a classical member is
/// planned exactly when a [`ClassicalHook`] is installed.
#[derive(Clone, Default)]
pub struct Portfolio {
    classical: Option<ClassicalHook>,
    facts: ScriptFacts,
}

impl std::fmt::Debug for Portfolio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Portfolio")
            .field("classical", &self.classical.is_some())
            .field("facts", &self.facts)
            .finish()
    }
}

impl Portfolio {
    /// A portfolio without a classical member.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs the classical baseline hook, which lets routing plan
    /// classical members.
    pub fn with_classical_hook(mut self, hook: ClassicalHook) -> Self {
        self.classical = Some(hook);
        self
    }

    /// Routes every race of this portfolio with script-level facts (the
    /// absint feature summary) merged into the model features.
    pub fn with_script_facts(mut self, facts: ScriptFacts) -> Self {
        self.facts = facts;
        self
    }

    /// Routes a feature vector to a plan. Pure: equal features always
    /// produce equal plans, which is what lets CI snapshot the routing
    /// corpus.
    pub fn route(&self, f: &RoutingFeatures) -> PortfolioPlan {
        let mut members = Vec::with_capacity(2);
        let predicted;
        if self.classical.is_some() && f.transformation_only {
            // Transformation constraints have a direct classical answer;
            // the annealer backstop covers encodings the baseline's
            // budget cannot finish.
            members.push(PlanMember {
                kind: MemberKind::Classical,
                reads: 0,
                sweeps: 0,
            });
            members.push(PlanMember {
                kind: MemberKind::Sa,
                reads: BACKSTOP_READS,
                sweeps: BACKSTOP_SWEEPS,
            });
            predicted = MemberKind::Classical;
        } else if f.num_vars <= ExactSolver::DEFAULT_MAX_VARS {
            // Below the crossover, exhaustive Gray-code enumeration beats
            // any sampler — and its answer is provably the ground state.
            members.push(PlanMember {
                kind: MemberKind::Exact,
                reads: 0,
                sweeps: 0,
            });
            members.push(PlanMember {
                kind: MemberKind::Sa,
                reads: BACKSTOP_READS,
                sweeps: BACKSTOP_SWEEPS,
            });
            predicted = MemberKind::Exact;
        } else {
            // Above the crossover: SA alone (SQA won none of the races it
            // was measured in, see docs/PORTFOLIO.md). Degenerate
            // encodings (regex membership, wide positions) get a deeper
            // read budget for post-selection.
            let degenerate = f.script.regexes > 0 || f.script.avg_position_width > DEGENERATE_WIDTH;
            let reads = if degenerate {
                DEGENERATE_READS
            } else {
                DEFAULT_READS
            };
            members.push(PlanMember {
                kind: MemberKind::Sa,
                reads,
                sweeps: DEFAULT_SWEEPS,
            });
            predicted = MemberKind::Sa;
        }
        PortfolioPlan {
            members,
            predicted,
            features: f.clone(),
        }
    }

    /// The full threshold table as JSON — snapshotted alongside the
    /// per-script plans so a threshold change shows up in CI review.
    pub fn table_json(&self) -> Json {
        Json::obj([
            (
                "exact_var_limit",
                Json::from(ExactSolver::DEFAULT_MAX_VARS as u64),
            ),
            ("base_reads", Json::from(DEFAULT_READS as u64)),
            ("degenerate_reads", Json::from(DEGENERATE_READS as u64)),
            ("anneal_sweeps", Json::from(DEFAULT_SWEEPS as u64)),
            ("backstop_reads", Json::from(BACKSTOP_READS as u64)),
            ("backstop_sweeps", Json::from(BACKSTOP_SWEEPS as u64)),
            ("degenerate_width", Json::from(DEGENERATE_WIDTH)),
            ("classical_enabled", Json::from(self.classical.is_some())),
        ])
    }
}

/// Everything one member produced during a race.
struct MemberRun {
    samples: SampleSet,
    selection: Selection,
    run_stats: SamplerRunStats,
    elapsed_us: u64,
    start_offset_us: u64,
    stopped: bool,
}

impl StringSolver {
    /// Computes the routing features for a constraint under this
    /// solver's encoder settings, optionally enriched with script facts.
    ///
    /// # Errors
    /// Propagates encoding failures.
    pub fn routing_features(
        &self,
        constraint: &Constraint,
        facts: Option<&ScriptFacts>,
    ) -> Result<RoutingFeatures, ConstraintError> {
        let problem = self.encode(constraint)?;
        let mut features = RoutingFeatures::from_problem(&problem, constraint);
        if let Some(facts) = facts {
            features.merge_script(facts);
        }
        Ok(features)
    }

    /// The `portfolio` stage of [`StringSolver::run`]: routes the
    /// compiled model and races the plan. Every plan member runs on its
    /// own scoped thread with its own stop flag and RNG stream, and the
    /// first member whose post-selected answer validates cancels the
    /// rest. See the module docs for the determinism and
    /// loss-free-cancellation guarantees.
    pub(crate) fn race_stage(
        &self,
        clock: &mut StageClock,
        constraint: &Constraint,
        problem: &EncodedProblem,
        portfolio: &Portfolio,
    ) -> Solved {
        let mut features = RoutingFeatures::from_problem(problem, constraint);
        features.merge_script(&portfolio.facts);
        let plan = portfolio.route(&features);
        let ((run, stats), _) = clock.stage("portfolio", || {
            self.race(constraint, problem, &plan, portfolio.classical.as_ref())
        });
        Solved {
            sampling: Self::sampler_stats(
                plan.members[stats.winner_index as usize]
                    .kind
                    .sampler_name(),
                &run.samples,
                run.run_stats,
                run.elapsed_us,
            ),
            samples: run.samples,
            selection: run.selection,
            select_us: 0,
            dynamics: None,
            cache: None,
            portfolio: Some(stats),
        }
    }

    /// Runs the first-wins race for an already-routed plan.
    fn race(
        &self,
        constraint: &Constraint,
        problem: &EncodedProblem,
        plan: &PortfolioPlan,
        classical: Option<&ClassicalHook>,
    ) -> (MemberRun, PortfolioStats) {
        // Each member's flag is a child of the outer cancellation (a
        // serve job deadline), so that reaches every member, while the
        // winner stops only its siblings.
        let outer = self.outer_stop();
        let flags: Vec<StopFlag> = plan
            .members
            .iter()
            .map(|_| outer.map_or_else(StopFlag::new, StopFlag::child))
            .collect();
        let winner: Mutex<Option<usize>> = Mutex::new(None);
        let base_seed = self.base_seed();
        let race_start = Instant::now();
        let trace_base = qsmt_trace::active().then(qsmt_trace::now_us);

        let runs: Vec<MemberRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = plan
                .members
                .iter()
                .enumerate()
                .map(|(i, member)| {
                    let flag = flags[i].clone();
                    let flags = &flags;
                    let winner = &winner;
                    scope.spawn(move || {
                        let start_offset_us = race_start.elapsed().as_micros() as u64;
                        let t = Instant::now();
                        let (samples, selection, run_stats) = match member.kind {
                            MemberKind::Classical => {
                                let solution = classical.and_then(|hook| hook(constraint));
                                let valid =
                                    solution.as_ref().is_some_and(|s| constraint.validate(s));
                                let selection = Selection {
                                    solution: solution
                                        .unwrap_or_else(|| Solution::Text(String::new())),
                                    energy: f64::NAN,
                                    valid,
                                    decoded: 0,
                                    valid_rank: None,
                                };
                                (SampleSet::default(), selection, SamplerRunStats::default())
                            }
                            _ => {
                                let sampler = member
                                    .sampler(member_seed(base_seed, i), Some(flag.clone()))
                                    .expect("non-classical members build samplers");
                                let (samples, run_stats) = sampler.sample_stats(&problem.qubo);
                                let selection = select(constraint, problem, &samples);
                                (samples, selection, run_stats)
                            }
                        };
                        if selection.valid {
                            let mut w = winner.lock().expect("winner lock");
                            if w.is_none() {
                                *w = Some(i);
                                for (j, f) in flags.iter().enumerate() {
                                    if j != i {
                                        f.stop();
                                    }
                                }
                            }
                        }
                        MemberRun {
                            samples,
                            selection,
                            run_stats,
                            elapsed_us: (t.elapsed().as_micros() as u64).max(1),
                            start_offset_us,
                            stopped: flag.is_stopped(),
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("portfolio member thread"))
                .collect()
        });
        let race_us = (race_start.elapsed().as_micros() as u64).max(1);

        // Winner attribution. When nothing validated, the primary member
        // stands in so the verdict matches single-strategy routing.
        let widx = winner.into_inner().expect("winner lock").unwrap_or(0);
        let winner_kind = plan.members[widx].kind;

        // Member spans, attributed retroactively so no trace context
        // crosses a thread boundary.
        if let Some(base) = trace_base {
            for (i, run) in runs.iter().enumerate() {
                qsmt_trace::span_at(
                    &format!("portfolio:{}", plan.members[i].kind.as_str()),
                    base + run.start_offset_us,
                    run.elapsed_us,
                );
            }
        }

        let members: Vec<PortfolioMemberStats> = runs
            .iter()
            .enumerate()
            .map(|(i, run)| PortfolioMemberStats {
                member: plan.members[i].kind.as_str().to_string(),
                reads: plan.members[i].reads as u64,
                sweeps: plan.members[i].sweeps as u64,
                outcome: if i == widx && run.selection.valid {
                    "won".to_string()
                } else if run.stopped && !run.selection.valid {
                    "cancelled".to_string()
                } else {
                    "lost".to_string()
                },
                elapsed_us: run.elapsed_us,
                stopped: run.stopped,
                valid: run.selection.valid,
            })
            .collect();
        let stats = PortfolioStats {
            plan: plan.to_json(),
            predicted: plan.predicted.as_str().to_string(),
            winner: winner_kind.as_str().to_string(),
            winner_index: widx as u64,
            members,
            time_us: race_us,
        };
        let run = runs
            .into_iter()
            .nth(widx)
            .expect("winner index is in the plan");
        (run, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SolveOptions, SolveOutcome};

    /// Races `c` through [`StringSolver::run`] and returns the outcome
    /// with its portfolio record.
    fn race(
        solver: &StringSolver,
        c: &Constraint,
        portfolio: &Portfolio,
    ) -> (SolveOutcome, PortfolioStats) {
        let opts = SolveOptions {
            portfolio: Some(portfolio),
            ..SolveOptions::default()
        };
        let out = solver.run(c, &opts).unwrap();
        let stats = out.report.portfolio.clone().expect("raced solves report");
        (out, stats)
    }

    /// `str.indexof` over `haystack`: one dense one-hot of
    /// `haystack.len() − 2` start indicators, so above
    /// [`COMPONENT_MAX_VARS`](crate::COMPONENT_MAX_VARS) it races instead
    /// of decomposing.
    fn indexof(haystack: &str, needle: &str) -> Constraint {
        Constraint::Includes {
            haystack: haystack.into(),
            needle: needle.into(),
        }
    }

    /// 18 start indicators and the absent one: within the exact member's
    /// 26-variable limit.
    const DENSE: &str = "zgkycoqrzdhbtiisfxrq";
    /// 30 start indicators and the absent one: beyond that limit, so SA
    /// runs alone.
    const WIDE: &str = "iumpzkcahhbqsrkxeimbpyrmrynmqhzl";

    fn features(num_vars: usize, transformation: bool) -> RoutingFeatures {
        RoutingFeatures {
            num_vars,
            density: 0.1,
            one_hot_groups: 2,
            transformation_only: transformation,
            script: ScriptFacts::default(),
        }
    }

    #[test]
    fn routing_is_deterministic_and_size_aware() {
        let portfolio = Portfolio::new();
        let small = portfolio.route(&features(20, false));
        assert_eq!(small.predicted, MemberKind::Exact);
        assert_eq!(small.members[0].kind, MemberKind::Exact);
        assert_eq!(small, portfolio.route(&features(20, false)));
        let big = portfolio.route(&features(200, false));
        assert_eq!(big.predicted, MemberKind::Sa);
        assert!(big
            .members
            .iter()
            .all(|m| m.kind != MemberKind::Exact && m.kind != MemberKind::Classical));
    }

    #[test]
    fn classical_members_require_opt_in() {
        let without = Portfolio::new().route(&features(10, true));
        assert!(without
            .members
            .iter()
            .all(|m| m.kind != MemberKind::Classical));
        let hook: ClassicalHook = Arc::new(|_: &Constraint| None);
        let with = Portfolio::new()
            .with_classical_hook(hook)
            .route(&features(10, true));
        assert_eq!(with.members[0].kind, MemberKind::Classical);
        assert_eq!(with.predicted, MemberKind::Classical);
    }

    #[test]
    fn degenerate_scripts_get_deeper_read_budgets() {
        let portfolio = Portfolio::new();
        let mut f = features(200, false);
        let shallow = portfolio.route(&f);
        f.script.regexes = 1;
        let deep = portfolio.route(&f);
        assert!(deep.members[0].reads > shallow.members[0].reads);
    }

    #[test]
    fn member_seeds_are_distinct_streams() {
        assert_ne!(member_seed(7, 0), member_seed(7, 1));
        assert_ne!(member_seed(7, 0), member_seed(8, 0));
        assert_eq!(member_seed(7, 1), member_seed(7, 1));
    }

    #[test]
    fn exact_wins_small_models_and_cancels_the_backstop() {
        let solver = StringSolver::with_defaults().with_seed(3);
        let portfolio = Portfolio::new();
        let c = indexof(DENSE, "bti");
        let (out, stats) = race(&solver, &c, &portfolio);
        assert!(out.valid);
        assert_eq!(stats.winner, MemberKind::Exact.as_str());
        assert_eq!(stats.members[0].outcome, "won");
        // The backstop annealer observed the winner's cancellation (or
        // finished losing); either way the race recorded it.
        assert_eq!(stats.members.len(), 2);
        assert_ne!(stats.members[1].outcome, "won");
    }

    #[test]
    fn winner_samples_are_bit_identical_to_a_solo_run() {
        let solver = StringSolver::with_defaults().with_seed(11);
        let portfolio = Portfolio::new();
        let c = indexof(WIDE, "pzk");
        let (out, stats) = race(&solver, &c, &portfolio);
        let widx = stats.winner_index as usize;
        let features = solver.routing_features(&c, None).unwrap();
        let plan = portfolio.route(&features);
        let member = plan.members[widx];
        let solo = member
            .sampler(member_seed(11, widx), None)
            .expect("winner is sampler-backed")
            .sample(&solver.encode(&c).unwrap().qubo);
        assert_eq!(out.samples, solo);
    }

    #[test]
    fn outer_stop_mid_race_stops_every_member() {
        let outer = StopFlag::new();
        let solver = StringSolver::with_defaults()
            .with_seed(2)
            .with_stop(outer.clone());
        // Both members outlast the few ms the race gets: the classical
        // hook sleeps past the trip and finds nothing, and the 256 × 4096
        // SA backstop on a 46-indicator one-hot samples for far longer
        // than 5 ms, so both are still running when the outer flag trips.
        let hook: ClassicalHook = Arc::new(|_: &Constraint| {
            std::thread::sleep(std::time::Duration::from_millis(50));
            None
        });
        let portfolio = Portfolio::new().with_classical_hook(hook);
        let c = indexof("jyfqgavgrsospmkqjgqyxuwxesgpttebfaadhcnkalubqucu", "nka");
        let trip = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            outer.stop();
        });
        let (_, stats) = race(&solver, &c, &portfolio);
        trip.join().unwrap();
        assert_eq!(stats.members.len(), 2);
        assert!(
            stats.members.iter().all(|m| m.stopped),
            "{:?}",
            stats.members
        );
    }

    #[test]
    fn classical_hook_wins_transformation_constraints() {
        let solver = StringSolver::with_defaults().with_seed(5);
        let hook: ClassicalHook = Arc::new(|c: &Constraint| match c {
            Constraint::Includes { haystack, needle } => {
                Some(Solution::Index(haystack.find(needle)))
            }
            _ => None,
        });
        let portfolio = Portfolio::new().with_classical_hook(hook);
        let c = indexof(DENSE, "bti");
        let (out, stats) = race(&solver, &c, &portfolio);
        assert_eq!(stats.winner, MemberKind::Classical.as_str());
        assert_eq!(out.solution.as_index(), Some(11));
        assert!(out.valid);
    }

    #[test]
    fn fallback_returns_the_primary_members_verdict() {
        // A substring the §4.3 encoding places in the last window, where
        // a pinned character contradicts it: no ground state validates,
        // so the component draw finds nothing valid and the solve races
        // (21 variables: exact against the SA backstop). Members may or
        // may not validate, but the outcome always comes from a plan
        // member and the verdict survives.
        let solver = StringSolver::with_defaults().with_seed(1);
        let portfolio = Portfolio::new();
        let c = Constraint::All(vec![
            Constraint::SubstringMatch {
                substring: "xl".into(),
                len: 3,
            },
            Constraint::CharAt {
                ch: 'b',
                index: 2,
                len: 3,
            },
        ]);
        let (out, stats) = race(&solver, &c, &portfolio);
        let widx = stats.winner_index as usize;
        assert!(widx < stats.members.len());
        if !out.valid {
            assert_eq!(widx, 0, "no winner must fall back to the primary");
        }
    }

    #[test]
    fn plan_json_is_stable_shape() {
        let plan = Portfolio::new().route(&features(20, false));
        let j = plan.to_json();
        assert_eq!(
            j.get("predicted_winner").and_then(Json::as_str),
            Some("exact")
        );
        let members = j.get("members").and_then(Json::as_arr).unwrap();
        assert_eq!(
            members[0].get("member").and_then(Json::as_str),
            Some("exact")
        );
        assert!(j.get("features").and_then(|f| f.get("num_vars")).is_some());
        let table = Portfolio::new().table_json();
        assert_eq!(
            table.get("exact_var_limit").and_then(Json::as_u64),
            Some(26)
        );
    }
}
