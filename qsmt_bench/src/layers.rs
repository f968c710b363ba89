//! The traced per-layer pass: spans recorded by the benchmark around
//! each layer's public leaf function, replayed in pipeline order on the
//! same scripts and solver seeds the end-to-end run sends.
//!
//! The replay follows the path the request takes through the program:
//! the CLI path is parse → absint → compile → (encode → sample →
//! select) per constraint; the serve path adds the reported solve's
//! lint, presolve and Chimera embedding probe. The CLI path skips
//! presolve; there it runs only to measure how much of each QUBO it
//! would fix, and is left out of the CLI coverage sum.

use crate::generate::{Assert, Case, Ground, Value};
use crate::json::Json;
use crate::oracle::Verdict;
use qsmt::anneal::{SampleSet, Sampler, SimulatedAnnealer};
use qsmt::core::{Constraint, EncodedProblem, Solution, Step};
use qsmt::smtlib::{apply_tightenings, Goal, Script};
use qsmt::StringSolver;
use std::hint::black_box;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub trace_id: u64,
    pub start_us: f64,
    pub dur_us: f64,
    pub parent: Option<usize>,
    /// Chrome-trace thread lane.
    pub lane: u32,
}

/// Records spans in memory; a disabled tracer runs the same closures
/// and records nothing, which is how tracing overhead is measured.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    trace_id: u64,
    lane: u32,
    enabled: bool,
}

impl Tracer {
    pub fn new(epoch: Instant, lane: u32, enabled: bool) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            trace_id: 0,
            lane,
            enabled,
        }
    }

    /// Spans recorded from now on belong to request `trace_id`.
    pub fn set_trace(&mut self, trace_id: u64) {
        self.trace_id = trace_id;
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_nanos() as f64 / 1000.0
    }

    /// Runs `f` inside a span named `name`, nested in the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            trace_id: self.trace_id,
            start_us: 0.0,
            dur_us: 0.0,
            parent: self.stack.last().copied(),
            lane: self.lane,
        });
        self.stack.push(idx);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.stack.pop();
        self.spans[idx].start_us = self.us(start);
        self.spans[idx].dur_us = end.duration_since(start).as_nanos() as f64 / 1000.0;
        out
    }

    /// Records an interval measured elsewhere as a child of the open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                trace_id: self.trace_id,
                start_us: self.us(start),
                dur_us: end.duration_since(start).as_nanos() as f64 / 1000.0,
                parent: self.stack.last().copied(),
                lane: self.lane,
            });
        }
    }
}

/// Self time of every span: its duration minus what its children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(|s| s.dur_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.dur_us;
        }
    }
    out
}

/// Chrome trace-event JSON (loadable in Perfetto): one complete (`X`)
/// event per span, with the request's trace id and the parent span.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = vec![("trace_id", Json::Str(format!("{:016x}", s.trace_id)))];
            if let Some(p) = s.parent {
                args.push(("parent", Json::Str(spans[p].name.to_string())));
            }
            Json::obj([
                ("name", Json::from(s.name)),
                ("ph", Json::from("X")),
                ("ts", Json::Num(s.start_us)),
                ("dur", Json::Num(s.dur_us)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(s.lane))),
                ("args", Json::obj(args)),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::from("ms")),
    ])
}

/// Which layers the replayed request passes through.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `qsmt solve`: no lint, no embedding probe.
    Cli,
    /// `qsmt serve`'s reported solve: lint and the embedding probe too.
    Serve,
}

/// The leaf operations the replay times, by span name.
pub const OPS: [&str; 9] = [
    "smtlib.parse",
    "smtlib.compile",
    "absint.analyze",
    "core.encode",
    "lint.lint",
    "qubo.presolve",
    "qpu.embed",
    "anneal.sample",
    "core.select",
];

/// Whether a span's self time counts toward CLI coverage: everything
/// under the request root that `qsmt solve` itself executes.
pub fn on_cli_path(name: &str) -> bool {
    !matches!(
        name,
        "request" | "qubo.presolve" | "lint.lint" | "qpu.embed"
    )
}

/// Counters accumulated at the layer boundaries of the replay.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub requests: u64,
    pub refuted: u64,
    pub vars_eliminated: u64,
    pub solves: u64,
    pub unknown_solves: u64,
    pub qubo_vars: u64,
    pub presolve_fixed: u64,
    pub sweeps: u64,
    pub proposals: u64,
    pub accepted: u64,
    pub sample_us: u64,
    pub reads: u64,
    pub valid_reads: u64,
    pub decoded: u64,
}

/// Replays one request through the layers and returns its verdict.
pub fn replay(
    t: &mut Tracer,
    case: &Case,
    path: Path,
    counts: &mut Counts,
) -> Result<Verdict, String> {
    let text = case.smt2();
    counts.requests += 1;
    t.span("request", |t| {
        let script = t
            .span("smtlib.parse", |_| Script::parse(&text))
            .map_err(|e| e.to_string())?;
        let run = t.span("absint.analyze", |_| script.absint());
        if run.is_refuted() {
            counts.refuted += 1;
            return Ok(Verdict::Unsat);
        }
        let (goals, eliminated) = t
            .span("smtlib.compile", |_| {
                script
                    .compile()
                    .map(|goals| apply_tightenings(goals, &run.analysis))
            })
            .map_err(|e| e.to_string())?;
        counts.vars_eliminated += eliminated;
        let mut stage = Stage {
            solver: StringSolver::with_defaults(),
            sampler: SimulatedAnnealer::new()
                .with_seed(case.solver_seed)
                .with_num_reads(64)
                .with_sweeps(384),
            seed: case.solver_seed,
            path,
            counts,
        };
        let mut all_valid = true;
        let mut model = None;
        for goal in &goals {
            let answer = match goal {
                Goal::StringConstraint { constraint, .. } | Goal::IndexQuery { constraint, .. } => {
                    stage.solve(t, constraint)?
                }
                Goal::StringPipeline { pipeline, .. } => {
                    let (mut current, steps) = pipeline_of(case)?;
                    if steps.len() != pipeline.num_stages() {
                        return Err("replayed pipeline disagrees with the compiled one".into());
                    }
                    // each stage's decoded text feeds the next, valid or
                    // not, as in Pipeline::run
                    let mut valid = true;
                    for step in &steps {
                        let (ok, s) = match stage.solve(t, &step.to_constraint(&current))? {
                            Answer::Unsat => return Ok(Verdict::Unsat),
                            Answer::Valid(s) => (true, s),
                            Answer::Invalid(s) => (false, s),
                        };
                        valid &= ok;
                        current = s.as_text().unwrap_or_default().to_string();
                    }
                    let s = Solution::Text(current);
                    if valid {
                        Answer::Valid(s)
                    } else {
                        Answer::Invalid(s)
                    }
                }
            };
            let solution = match answer {
                Answer::Unsat => return Ok(Verdict::Unsat),
                Answer::Valid(s) => s,
                Answer::Invalid(s) => {
                    all_valid = false;
                    s
                }
            };
            if goal.name() == case.var() {
                model = Some(match solution {
                    Solution::Text(t) => Value::Str(t),
                    Solution::Index(i) => Value::Int(i.map_or(-1, |i| i as i64)),
                    Solution::Length(n) => Value::Int(n as i64),
                });
            }
        }
        Ok(if all_valid {
            Verdict::Sat(model)
        } else {
            Verdict::Unknown
        })
    })
}

/// The §4.12 pipeline of a ground-term case: the innermost literal and
/// one step per wrapping operation, as the compiler lowers it.
fn pipeline_of(case: &Case) -> Result<(String, Vec<Step>), String> {
    fn walk(g: &Ground, steps: &mut Vec<Step>) -> String {
        match g {
            Ground::Lit(s) => s.clone(),
            Ground::Rev(inner) => {
                let start = walk(inner, steps);
                steps.push(Step::Reverse);
                start
            }
            Ground::Replace(inner, from, to) => {
                let start = walk(inner, steps);
                steps.push(Step::ReplaceFirst {
                    from: *from,
                    to: *to,
                });
                start
            }
            Ground::ReplaceAll(inner, from, to) => {
                let start = walk(inner, steps);
                steps.push(Step::ReplaceAll {
                    from: *from,
                    to: *to,
                });
                start
            }
            Ground::Concat(inner, suffix) => {
                let start = walk(inner, steps);
                steps.push(Step::Append {
                    suffix: suffix.clone(),
                    separator: String::new(),
                });
                start
            }
        }
    }
    let Some(Assert::Ground(g)) = case.asserts.first() else {
        return Err("pipeline goal from a non-ground case".into());
    };
    let mut steps = Vec::new();
    let start = walk(g, &mut steps);
    Ok((start, steps))
}

enum Answer {
    Unsat,
    Valid(Solution),
    Invalid(Solution),
}

struct Stage<'c> {
    solver: StringSolver,
    sampler: SimulatedAnnealer,
    seed: u64,
    path: Path,
    counts: &'c mut Counts,
}

impl Stage<'_> {
    /// One solver invocation: encode, [lint], presolve, [embed], sample,
    /// select.
    fn solve(&mut self, t: &mut Tracer, c: &Constraint) -> Result<Answer, String> {
        t.span("core.solve", |t| {
            let problem = match t.span("core.encode", |_| self.solver.encode(c)) {
                Ok(p) => p,
                // the encoder errors `Script` maps to unsat
                Err(
                    qsmt::ConstraintError::RegexUnsatisfiable { .. }
                    | qsmt::ConstraintError::SubstringTooLong { .. }
                    | qsmt::ConstraintError::IndexOutOfRange { .. }
                    | qsmt::ConstraintError::LengthOutOfRange { .. },
                ) => return Ok(Answer::Unsat),
                Err(e) => return Err(e.to_string()),
            };
            let qubo = &problem.qubo;
            self.counts.solves += 1;
            self.counts.qubo_vars += qubo.num_vars() as u64;
            if self.path == Path::Serve {
                t.span("lint.lint", |_| {
                    black_box(qsmt::lint::lint_qubo(qubo, &qsmt::LintConfig::default()));
                });
            }
            let fixed = t.span("qubo.presolve", |_| qsmt::qubo::presolve(qubo).num_fixed());
            self.counts.presolve_fixed += fixed as u64;
            if self.path == Path::Serve {
                t.span("qpu.embed", |_| black_box(probe_embedding(qubo, self.seed)));
            }
            let (samples, run) = t.span("anneal.sample", |_| self.sampler.sample_stats(qubo));
            self.counts.sweeps += run.sweeps.unwrap_or(0);
            self.counts.proposals += run.proposals.unwrap_or(0);
            self.counts.accepted += run.accepted.unwrap_or(0);
            self.counts.sample_us += run.elapsed_us.unwrap_or(0);
            let (solution, valid, decoded) =
                t.span("core.select", |_| select(c, &problem, &samples));
            self.counts.decoded += decoded as u64;
            let (reads, valid_reads) = valid_reads(c, &problem, &samples);
            self.counts.reads += reads;
            self.counts.valid_reads += valid_reads;
            Ok(if valid {
                Answer::Valid(solution)
            } else {
                self.counts.unknown_solves += 1;
                Answer::Invalid(solution)
            })
        })
    }
}

/// Post-selection in energy order: the first decodable state that
/// validates, else the first decodable one, else empty text (as the
/// solver does). Returns the pick, whether it validated, and the number
/// of states decoded.
fn select(
    c: &Constraint,
    problem: &EncodedProblem,
    samples: &SampleSet,
) -> (Solution, bool, usize) {
    let mut first = None;
    let mut decoded = 0;
    for sample in samples.iter() {
        let Ok(solution) = problem.decode_state(&sample.state) else {
            continue;
        };
        decoded += 1;
        if c.validate(&solution) {
            return (solution, true, decoded);
        }
        first.get_or_insert(solution);
    }
    let fallback = first.unwrap_or_else(|| Solution::Text(String::new()));
    (fallback, false, decoded)
}

/// `(reads, reads whose state decodes and validates)`, untimed.
fn valid_reads(c: &Constraint, problem: &EncodedProblem, samples: &SampleSet) -> (u64, u64) {
    let mut valid = 0;
    for sample in samples.iter() {
        if problem
            .decode_state(&sample.state)
            .is_ok_and(|s| c.validate(&s))
        {
            valid += u64::from(sample.occurrences);
        }
    }
    (u64::from(samples.total_reads()), valid)
}

/// The report's embedding probe: the smallest Chimera C(m, m, 4) with
/// enough qubits, grown until the router places the problem.
fn probe_embedding(model: &qsmt::QuboModel, seed: u64) -> bool {
    let n = model.num_vars();
    if n == 0 || n > 512 {
        return false;
    }
    let problem = qsmt::QpuSimulator::problem_graph(model);
    let mut m = 1usize;
    while 8 * m * m < n {
        m += 1;
    }
    (m..m + 4).any(|grid| {
        let topo = qsmt::Topology::chimera(grid, grid, 4);
        qsmt::qpu::embed(&problem, topo.graph(), seed, 2).is_ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, 1, true);
        t.span("request", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
            t.span("b", |_| ());
        });
        let selfs = self_times(&t.spans);
        let root = &t.spans[0];
        assert_eq!(root.name, "request");
        assert!(t.spans[1].dur_us >= 2000.0);
        assert!((selfs[0] + t.spans[1].dur_us + t.spans[2].dur_us - root.dur_us).abs() < 1e-6);
        assert_eq!(t.spans[1].parent, Some(0));
        let doc = chrome_trace(&t.spans).render();
        assert!(doc.contains("\"ph\": \"X\"") && doc.contains("\"traceEvents\""));
        let mut off = Tracer::new(epoch, 1, false);
        assert_eq!(off.span("x", |_| 5), 5);
        assert!(off.spans.is_empty());
    }
}
