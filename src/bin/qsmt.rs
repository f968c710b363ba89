//! `qsmt` — command-line quantum string SMT solver.
//!
//! ```text
//! qsmt solve <file.smt2> [--sampler NAME] [--seed N] [--reads N]
//!                        [--stats] [--report <path>] [--trace [out.json]]
//!                        [--lint] [--no-absint]
//! qsmt lint  <file.smt2> [--format text|json] [--no-absint]  # static analysis
//! qsmt dump  <file.smt2> [--goal K]        # print a goal's QUBO (qbsolv format)
//! qsmt demo                                 # solve the built-in Table 1 script
//! qsmt bench [--quick] [--out PATH] [--seed N] [--check-overhead]
//!            [--check-replicas] [--check-trace-overhead]  # annealing perf baseline
//! qsmt serve --metrics-addr ADDR [--seed N] [--workers N] [--queue-depth N]
//!            [--job-timeout MS] [--run-store PATH]  # solve service + metrics
//! qsmt submit ADDR <file.smt2> [--seed N] [--reads N] [--job-timeout MS]
//!             [--trace <out.json>]
//! qsmt watch ADDR [--format text|json]       # scrape a running endpoint
//! qsmt history <store.jsonl> [--recent N] [--baseline N] [--threshold PCT]
//! ```
//!
//! Samplers: `sa` (default), `sqa`, `descent`, `exact`.
//!
//! Observability (documented in `docs/OBSERVABILITY.md`): `--stats` prints
//! per-stage timings and sampler statistics for every solve, `--report
//! <path>` writes the full JSON run report (schema v12, with a `trace_id`
//! and per-stage `span_us` rollup), and `--trace` runs the solve under a
//! trace id and prints the run's span tree as indented text — or, as
//! `--trace <out.json>`, writes the same spans as Chrome trace-event
//! JSON, loadable in Perfetto.
//! `qsmt history` turns a `--run-store` JSONL file into per-stage latency
//! percentiles with regression verdicts (non-zero exit on drift).
//!
//! Static analysis (documented in `docs/LINTS.md`): `qsmt lint` compiles
//! every goal's QUBO and runs the formulation linter without sampling,
//! exiting nonzero when any error-level diagnostic fires; `--lint` on
//! `solve`/`demo` enables deny-on-error mode, refusing to sample an
//! encoding the linter can prove unsound.

use qsmt::anneal::{ExactSolver, Sampler, SimulatedQuantumAnnealer, SteepestDescent};
use qsmt::core::DEFAULT_READS;
use qsmt::smtlib::{Goal, SatStatus, ScriptRun};
use qsmt::telemetry::Json;
use qsmt::trace::TraceId;
use qsmt::{Script, SolveOptions, StringSolver};
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "\
qsmt — quantum-based SMT solving for string theory

USAGE:
  qsmt solve <file.smt2> [--sampler NAME] [--seed N] [--reads N]
                         [--stats] [--report <path>] [--trace [out.json]]
                         [--lint] [--no-absint]
  qsmt lint  <file.smt2> [--format text|json] [--no-absint]
  qsmt dump  <file.smt2> [--goal K]
  qsmt demo  [--sampler NAME] [--seed N] [--reads N]
             [--stats] [--report <path>] [--trace [out.json]] [--lint]
             [--no-absint]
  qsmt bench [--quick] [--out <path>] [--seed N] [--check-overhead]
             [--check-replicas] [--check-trace-overhead]
  qsmt serve --metrics-addr <host:port> [--seed N] [--workers N]
             [--queue-depth N] [--job-timeout MS] [--max-requests N]
             [--run-store <path>]
  qsmt submit <host:port> <file.smt2> [--seed N] [--reads N]
              [--job-timeout MS] [--trace <out.json>]
  qsmt watch <host:port> [--format text|json]
  qsmt history <store.jsonl> [--recent N] [--baseline N] [--threshold PCT]

SAMPLERS:
  {samplers}

OBSERVABILITY (see docs/OBSERVABILITY.md):
  --stats          print per-stage timings, sampler statistics, and
                   trajectory-dynamics summaries (stall verdict, latency
                   and improvement percentiles)
  --report <path>  write the full JSON run report to <path> (schema v12:
                   carries the run's trace_id and a per-stage span_us
                   latency rollup)
  --trace          run the solve under a trace id and print its span
                   tree — absint, every goal, every report stage, and
                   per-read sampler spans — as indented text;
                   `--trace <out.json>` instead writes the same spans as
                   Chrome trace-event JSON (open in Perfetto or
                   chrome://tracing)

SOLVE SERVICE (see docs/OBSERVABILITY.md):
  qsmt serve       concurrent solve service + live metrics: POST /solve
                   enqueues SMT-LIB scripts into a bounded queue drained
                   by --workers threads, answering 202 with a job id and
                   a per-job trace id; GET /jobs/<id> returns status and
                   the schema-v12 run report; GET /jobs/<id>/trace serves
                   the job's spans as Chrome trace-event JSON and
                   GET /traces indexes recent traces; a full queue
                   answers 429 with Retry-After; per-job deadlines cancel
                   mid-anneal; SIGINT or --max-requests drains
                   gracefully. --run-store <path> appends every finished
                   run report to a bounded JSONL history that `qsmt
                   history` analyzes. Also exposes /metrics (Prometheus
                   text format), /flight (JSON ring buffer), and /healthz
                   (queue depth + worker count) on --metrics-addr; port 0
                   picks a free port and prints it
  qsmt submit      blocking client: POST a script to a running service,
                   poll the job to a terminal state, print its final
                   status document (non-zero exit on reject/fail/timeout);
                   --trace <out.json> then fetches the finished job's
                   Chrome trace-event JSON and writes it to <out.json>
  qsmt watch       one-shot scrape of a running serve endpoint
                   (--format json fetches /flight instead of /metrics);
                   warns when the flight-recorder ring wrapped and
                   dropped events; connect/read timeouts make it a
                   usable health probe
  qsmt history     per-stage latency percentiles (p50/p90/p99) over a
                   --run-store JSONL file, comparing the newest --recent
                   N runs (default 5) against the --baseline N runs
                   before them (default 20); exits non-zero when any
                   stage's recent p50 drifted more than --threshold PCT
                   (default 25) above its baseline

BENCHMARKS (see docs/PERFORMANCE.md):
  qsmt bench       run the annealing benchmark harness and write a
                   schema-validated BENCH_annealing.json (kernel-vs-naive
                   sweep throughput, bit-sliced replica scaling,
                   per-sampler rates, time-to-ground per formulation)
  --quick          CI smoke mode: shrink every workload
  --out <path>     output path (default BENCH_annealing.json)
  --check-overhead fail unless the disabled trajectory-probe path stays
                   within 2% of plain sampling (retries on noisy hosts)
  --check-replicas fail unless bit-sliced 64-replica sweeps deliver at
                   least the gated effective-flips speedup over the
                   scalar kernel (retries on noisy hosts)
  --check-trace-overhead
                   fail unless an inert qsmt-trace span per sweep stays
                   within 1% of the plain sweep loop — keeps the solver's
                   tracing instrumentation free for untraced solves
                   (retries on noisy hosts)

STATIC ANALYSIS (see docs/LINTS.md):
  qsmt lint        run the formulation linter over every goal's compiled
                   QUBO without sampling; exits nonzero on error-level
                   diagnostics (--format json for machine-readable output)
  --lint           deny-on-error mode for solve/demo: refuse to sample an
                   encoding the linter can prove unsound

ABSTRACT INTERPRETATION (see docs/ABSINT.md):
  solve/demo/lint run a script-level abstract-interpretation pass by
  default: statically refuted scripts answer unsat immediately with a
  replay-checked certificate, proven character pins shrink the QUBO
  before presolve, and the report gains an `absint` section (schema v6)
  --no-absint      skip the pass (compile every goal as written)
";

/// The `--sampler` names, the default first. `parse_flags` accepts
/// exactly these, [`make_sampler`] builds each but the default, and the
/// usage text lists them.
const SAMPLERS: [&str; 4] = ["sa", "sqa", "descent", "exact"];

/// [`USAGE`] with its `{samplers}` line filled in from [`SAMPLERS`].
fn usage() -> String {
    let names = format!("{} (default) | {}", SAMPLERS[0], SAMPLERS[1..].join(" | "));
    USAGE.replace("{samplers}", &names)
}

const DEMO: &str = r#"
(set-logic QF_S)
(declare-const row1 String)
(assert (= row1 (str.replace_all (str.rev "hello") "e" "a")))
(declare-const row2 String)
(assert (= row2 (str.rev row2)))
(assert (= (str.len row2) 6))
(declare-const row3 String)
(assert (str.in_re row3 (re.++ (str.to_re "a")
                               (re.+ (re.union (str.to_re "b") (str.to_re "c"))))))
(assert (= (str.len row3) 5))
(declare-const row4 String)
(assert (= row4 (str.replace_all (str.++ "hello" " " "world") "l" "x")))
(declare-const row5 String)
(assert (str.contains row5 "hi"))
(assert (= (str.len row5) 6))
(check-sat)
(get-model)
"#;

struct Options {
    sampler: String,
    seed: u64,
    /// Whether `--seed` was given explicitly (submit only forwards it then).
    seed_set: bool,
    reads: usize,
    /// Whether `--reads` was given explicitly.
    reads_set: bool,
    goal: usize,
    stats: bool,
    report: Option<String>,
    trace: bool,
    /// Chrome trace-event output path (`--trace <out.json>`); None prints
    /// the trace as text instead.
    trace_out: Option<String>,
    lint: bool,
    format: String,
    quick: bool,
    out: Option<String>,
    metrics_addr: Option<String>,
    max_requests: Option<u64>,
    check_overhead: bool,
    check_replicas: bool,
    workers: usize,
    queue_depth: usize,
    job_timeout_ms: u64,
    /// Whether `--job-timeout` was given explicitly.
    job_timeout_set: bool,
    /// Script-level abstract interpretation before compiling
    /// (`--no-absint` opts out; see docs/ABSINT.md).
    absint: bool,
    /// Run-history JSONL path for `serve` (`--run-store`).
    run_store: Option<String>,
    check_trace_overhead: bool,
    /// `history` recent-window size (`--recent N`).
    recent: usize,
    /// `history` baseline-window size (`--baseline N`).
    baseline: usize,
    /// `history` allowed fractional p50 drift (`--threshold PCT` / 100).
    threshold: f64,
}

impl Default for Options {
    fn default() -> Self {
        let serve = qsmt::serve::ServeConfig::default();
        Self {
            sampler: SAMPLERS[0].into(),
            seed: 0,
            seed_set: false,
            reads: DEFAULT_READS,
            reads_set: false,
            goal: 0,
            stats: false,
            report: None,
            trace: false,
            trace_out: None,
            lint: false,
            format: "text".into(),
            quick: false,
            out: None,
            metrics_addr: None,
            max_requests: None,
            check_overhead: false,
            check_replicas: false,
            workers: serve.workers,
            queue_depth: serve.queue_depth,
            job_timeout_ms: serve.job_timeout.as_millis() as u64,
            job_timeout_set: false,
            absint: true,
            run_store: None,
            check_trace_overhead: false,
            recent: 5,
            baseline: 20,
            threshold: 0.25,
        }
    }
}

impl Options {
    /// True when any observability surface was requested, which turns
    /// on the sampler's trajectory probes.
    fn wants_telemetry(&self) -> bool {
        self.stats || self.trace || self.report.is_some()
    }
}

/// The flags `qsmt <cmd>` takes: the `--` words of its entry in
/// [`USAGE`], which runs from its `qsmt <cmd>` line to the next entry.
fn usage_flags(cmd: &str) -> Vec<&'static str> {
    let entries = USAGE
        .split("\n\n")
        .find(|block| block.starts_with("USAGE:"))
        .expect("USAGE has a USAGE: block");
    let mut entry = "";
    let mut flags = Vec::new();
    for line in entries.lines().skip(1) {
        let mut words = line.split_whitespace().peekable();
        if words.next_if_eq(&"qsmt").is_some() {
            entry = words.next().unwrap_or_default();
        }
        if entry == cmd {
            flags.extend(words.filter_map(|word| {
                let word = word.trim_start_matches('[');
                word.starts_with("--").then(|| word.trim_end_matches(']'))
            }));
        }
    }
    flags
}

/// Parses the flags of `qsmt <cmd>`. A flag the subcommand's usage entry
/// does not list is an error, not silently ignored.
fn parse_flags(cmd: &str, args: &[String]) -> Result<Options, String> {
    let takes = usage_flags(cmd);
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--sampler" => {
                opts.sampler = value("--sampler")?;
                if !SAMPLERS.contains(&opts.sampler.as_str()) {
                    return Err(format!("unknown sampler {:?}", opts.sampler));
                }
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?;
                opts.seed_set = true;
            }
            "--reads" => {
                opts.reads = value("--reads")?
                    .parse()
                    .map_err(|_| "--reads expects an integer".to_string())?;
                if opts.reads == 0 {
                    return Err("--reads expects at least 1".into());
                }
                opts.reads_set = true;
            }
            "--workers" => {
                opts.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers expects an integer".to_string())?;
                if opts.workers == 0 {
                    return Err("--workers expects at least 1".into());
                }
            }
            "--queue-depth" => {
                opts.queue_depth = value("--queue-depth")?
                    .parse()
                    .map_err(|_| "--queue-depth expects an integer".to_string())?;
                if opts.queue_depth == 0 {
                    return Err("--queue-depth expects at least 1".into());
                }
            }
            "--job-timeout" => {
                opts.job_timeout_ms = value("--job-timeout")?
                    .parse()
                    .map_err(|_| "--job-timeout expects milliseconds".to_string())?;
                if opts.job_timeout_ms == 0 {
                    return Err("--job-timeout expects at least 1 ms".into());
                }
                opts.job_timeout_set = true;
            }
            "--goal" => {
                opts.goal = value("--goal")?
                    .parse()
                    .map_err(|_| "--goal expects an index".to_string())?;
            }
            "--stats" => opts.stats = true,
            "--quick" => opts.quick = true,
            "--out" => opts.out = Some(value("--out")?),
            "--report" => opts.report = Some(value("--report")?),
            "--trace" => {
                opts.trace = true;
                // Optional value: `--trace out.json` writes Chrome
                // trace-event JSON there instead of printing the trace
                // as text. Peek so a following flag keeps its meaning.
                if it
                    .clone()
                    .next()
                    .is_some_and(|next| !next.starts_with("--"))
                {
                    opts.trace_out = it.next().cloned();
                }
            }
            "--lint" => opts.lint = true,
            "--metrics-addr" => opts.metrics_addr = Some(value("--metrics-addr")?),
            "--max-requests" => {
                let n: u64 = value("--max-requests")?
                    .parse()
                    .map_err(|_| "--max-requests expects an integer".to_string())?;
                if n == 0 {
                    return Err("--max-requests expects at least 1".into());
                }
                opts.max_requests = Some(n);
            }
            "--run-store" => opts.run_store = Some(value("--run-store")?),
            "--check-trace-overhead" => opts.check_trace_overhead = true,
            "--recent" => {
                opts.recent = value("--recent")?
                    .parse()
                    .map_err(|_| "--recent expects an integer".to_string())?;
                if opts.recent == 0 {
                    return Err("--recent expects at least 1".into());
                }
            }
            "--baseline" => {
                opts.baseline = value("--baseline")?
                    .parse()
                    .map_err(|_| "--baseline expects an integer".to_string())?;
                if opts.baseline == 0 {
                    return Err("--baseline expects at least 1".into());
                }
            }
            "--threshold" => {
                let pct: f64 = value("--threshold")?
                    .parse()
                    .map_err(|_| "--threshold expects a percentage".to_string())?;
                if !pct.is_finite() || pct <= 0.0 {
                    return Err("--threshold expects a positive percentage".into());
                }
                opts.threshold = pct / 100.0;
            }
            "--no-absint" => opts.absint = false,
            "--check-overhead" => opts.check_overhead = true,
            "--check-replicas" => opts.check_replicas = true,
            "--format" => {
                let fmt = value("--format")?;
                if fmt != "text" && fmt != "json" {
                    return Err(format!("--format expects text or json, got {fmt:?}"));
                }
                opts.format = fmt;
            }
            other => return Err(format!("unknown flag {other}")),
        }
        if !takes.contains(&flag.as_str()) {
            return Err(format!("flag {flag} does not apply to qsmt {cmd}"));
        }
    }
    Ok(opts)
}

/// The sampler behind a [`SAMPLERS`] name other than the default `sa`,
/// which is the solver's built-in annealer.
fn make_sampler(opts: &Options) -> Arc<dyn Sampler> {
    match opts.sampler.as_str() {
        "sqa" => Arc::new(
            SimulatedQuantumAnnealer::new()
                .with_seed(opts.seed)
                .with_num_reads(opts.reads),
        ),
        "descent" => Arc::new(
            SteepestDescent::new()
                .with_seed(opts.seed)
                .with_num_reads(opts.reads),
        ),
        "exact" => Arc::new(ExactSolver::new()),
        other => unreachable!("parse_flags admits only SAMPLERS, not {other:?}"),
    }
}

fn run_solve(source: &str, source_name: &str, opts: &Options) -> Result<(), String> {
    let script = Script::parse(source).map_err(|e| e.to_string())?;
    // The default `sa` sampler is the solver's built-in annealer.
    let solver = if opts.sampler == SAMPLERS[0] {
        StringSolver::with_defaults()
            .with_seed(opts.seed)
            .with_reads(opts.reads)
    } else {
        StringSolver::new(make_sampler(opts))
    }
    .with_deny_lint_errors(opts.lint);
    // Samplers with hard limits (the exact enumerator caps at 26
    // variables) signal misuse by panicking; surface that as a normal
    // CLI error instead of a crash.
    let surface_panic = |payload: Box<dyn std::any::Any + Send>| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
            .unwrap_or_else(|| "sampler rejected the problem".to_string());
        format!(
            "sampler {:?} cannot solve this problem: {msg}",
            opts.sampler
        )
    };
    // `--trace`: run the whole solve under a local trace so the same
    // span machinery the serve path uses records every report stage and
    // per-read sampler span; below it is written as Chrome trace-event
    // JSON (`--trace <out.json>`) or printed as text
    // (docs/OBSERVABILITY.md).
    let trace_scope = opts.trace.then(|| {
        let id = TraceId::derive(opts.seed);
        (id, qsmt::trace::enter(id, source_name))
    });
    let solve_opts = SolveOptions {
        absint: opts.absint,
        probes: opts.wants_telemetry(),
    };
    let started = Instant::now();
    // The panic message becomes the error line, so the default hook's
    // banner and backtrace would only repeat it.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        script.run(&solver, &solve_opts)
    }));
    std::panic::set_hook(hook);
    let run = run.map_err(surface_panic)?.map_err(|e| e.to_string())?;
    let elapsed_us = started.elapsed().as_micros() as u64;
    // Dropping the guard drains the thread's span buffer into the
    // process registry; only then is the trace complete.
    let trace_id = trace_scope.map(|(id, _guard)| id);
    let evicted = || "trace was evicted before export".to_string();
    if let (Some(id), Some(path)) = (trace_id, &opts.trace_out) {
        let doc = qsmt::trace::registry()
            .chrome_json(id)
            .ok_or_else(evicted)?;
        std::fs::write(path, doc.pretty())
            .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
        eprintln!("trace written to {path}");
    }
    let trace_text = match (trace_id, &opts.trace_out) {
        (Some(id), None) => Some((id, qsmt::trace::registry().text(id).ok_or_else(evicted)?)),
        _ => None,
    };
    let printed = print_run(
        &mut std::io::stdout().lock(),
        &run,
        opts.stats,
        trace_text.as_ref(),
    );
    if let Some(path) = &opts.report {
        let report = run.into_report(
            source_name.to_string(),
            solver.sampler_name(),
            elapsed_us,
            trace_id.map(TraceId::get),
        );
        std::fs::write(path, report.to_json().pretty())
            .map_err(|e| format!("cannot write report to {path}: {e}"))?;
        eprintln!("report written to {path}");
    }
    match printed {
        // A reader that stopped early (`qsmt solve f.smt2 | head -1`)
        // ends the output, not the run: the files above are written.
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(format!("cannot write to stdout: {e}"))
        }
        _ => Ok(()),
    }
}

/// Writes a solve's stdout through one handle: the verdict and, for
/// `sat`, the model, then `;`-prefixed stats lines (`--stats`) and the
/// span tree (bare `--trace`). The candidate an `unknown` rejected is
/// no model; `--stats` shows it as a comment.
fn print_run(
    out: &mut impl Write,
    run: &ScriptRun,
    stats: bool,
    trace: Option<&(TraceId, String)>,
) -> std::io::Result<()> {
    let outcome = &run.outcome;
    writeln!(out, "{}", outcome.status)?;
    let sat = outcome.status == SatStatus::Sat;
    if sat && !outcome.model.is_empty() {
        writeln!(out, "(model")?;
        for (name, value) in &outcome.model {
            writeln!(out, "  (define-fun {name} () _ {value})")?;
        }
        writeln!(out, ")")?;
    }

    if stats {
        if !sat {
            for (name, value) in &outcome.model {
                writeln!(
                    out,
                    "; rejected candidate: (define-fun {name} () _ {value})"
                )?;
            }
        }
        if let Some(absint) = &run.absint {
            let stats = absint.to_stats();
            writeln!(
                out,
                "; absint: verdict {}, {} iteration(s), {} narrowing(s), {} vars eliminated, {} certificate step(s), {:.3} ms",
                stats.verdict,
                stats.iterations,
                stats.domains_narrowed,
                stats.vars_eliminated,
                stats.certificate_steps,
                stats.time_us as f64 / 1000.0
            )?;
        }
        for goal in &run.goals {
            writeln!(
                out,
                "; goal {} ({}): {} solve(s), {:.3} ms",
                goal.name,
                goal.kind.as_str(),
                goal.solves.len(),
                goal.total_us as f64 / 1000.0
            )?;
            for solve in &goal.solves {
                for line in solve.render_stats().lines() {
                    writeln!(out, "; {line}")?;
                }
            }
        }
    }
    if let Some((id, text)) = trace {
        writeln!(out, "; trace {id}")?;
        for line in text.lines() {
            writeln!(out, "; {line}")?;
        }
    }
    out.flush()
}

/// `qsmt lint`: static formulation analysis of every goal's compiled
/// QUBO. Returns whether any error-level diagnostic fired (mapped to the
/// process exit code), so formulation defects gate CI without sampling.
fn run_lint(source: &str, source_name: &str, opts: &Options) -> Result<bool, String> {
    let script = Script::parse(source).map_err(|e| e.to_string())?;
    let solver = StringSolver::with_defaults();
    let goals = script.lint(&solver).map_err(|e| e.to_string())?;
    let any_errors = goals.iter().any(qsmt::smtlib::GoalLint::has_errors);
    // Script-level abstract interpretation rides along: informational
    // diagnostics (and the full analysis in JSON mode) that never count
    // toward the error budget — the lint gate stays a formulation gate.
    let absint = opts.absint.then(|| script.absint());

    if opts.format == "json" {
        let goal_values: Vec<Json> = goals
            .iter()
            .map(|g| {
                Json::obj([
                    ("name", Json::Str(g.name.clone())),
                    ("unsat", Json::Bool(g.unsat)),
                    ("has_errors", Json::Bool(g.has_errors())),
                    (
                        "reports",
                        Json::Arr(
                            g.reports
                                .iter()
                                .map(qsmt::core::LintReport::to_json)
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("source", Json::Str(source_name.to_string())),
            ("goals", Json::Arr(goal_values)),
            ("has_errors", Json::Bool(any_errors)),
            (
                "absint",
                absint
                    .as_ref()
                    .map_or(Json::Null, |run| run.analysis.to_json()),
            ),
        ]);
        println!("{}", doc.pretty());
    } else {
        if let Some(run) = &absint {
            println!(
                "script: absint verdict {} ({} iteration(s), {} narrowing(s))",
                run.analysis.verdict.as_str(),
                run.analysis.iterations,
                run.analysis.domains_narrowed
            );
            for d in run.analysis.diagnostics() {
                println!("  info[{}]: {}", d.code, d.message);
            }
        }
        for g in &goals {
            if g.unsat {
                println!("goal {}: unsat at encode time (nothing to lint)", g.name);
                continue;
            }
            for (i, report) in g.reports.iter().enumerate() {
                let stage = if g.reports.len() > 1 {
                    format!(" stage {i}")
                } else {
                    String::new()
                };
                println!("goal {}{stage}: {}", g.name, report.summary());
                for diagnostic in &report.diagnostics {
                    for line in diagnostic.render().lines() {
                        println!("  {line}");
                    }
                }
            }
        }
    }
    Ok(any_errors)
}

fn run_dump(source: &str, opts: &Options) -> Result<(), String> {
    let script = Script::parse(source).map_err(|e| e.to_string())?;
    let goals = script.compile().map_err(|e| e.to_string())?;
    let goal = goals.get(opts.goal).ok_or_else(|| {
        format!(
            "script has {} goals, --goal {} out of range",
            goals.len(),
            opts.goal
        )
    })?;
    let constraint = match goal {
        Goal::StringConstraint { constraint, .. } | Goal::IndexQuery { constraint, .. } => {
            constraint.clone()
        }
        Goal::StringPipeline { name, .. } => {
            return Err(format!(
                "goal {name} is a sequential pipeline; dump its stages individually"
            ))
        }
    };
    let encoded = constraint.encode().map_err(|e| e.to_string())?;
    eprintln!(
        "c goal {} ({}): {}",
        opts.goal,
        goal.name(),
        encoded.description
    );
    print!("{}", qsmt::qubo::to_qbsolv(&encoded.qubo));
    Ok(())
}

/// `qsmt bench`: run the annealing benchmark harness, write the JSON
/// document, then re-read and schema-validate it so a malformed artifact
/// fails the process (and therefore CI) instead of being uploaded.
fn run_bench(opts: &Options) -> Result<(), String> {
    let bench_opts = qsmt::bench::BenchOptions {
        quick: opts.quick,
        seed: opts.seed,
    };
    let path = opts.out.as_deref().unwrap_or("BENCH_annealing.json");
    // Snapshot the committed baseline (if any) before overwriting it, so
    // the delta print below compares against the previous artifact.
    let baseline = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| qsmt::telemetry::parse(&s).ok());
    eprintln!(
        "running annealing bench ({} mode)…",
        if opts.quick { "quick" } else { "full" }
    );
    let doc = qsmt::bench::run(&bench_opts);
    std::fs::write(path, doc.pretty()).map_err(|e| format!("cannot write {path}: {e}"))?;
    let written =
        std::fs::read_to_string(path).map_err(|e| format!("cannot re-read {path}: {e}"))?;
    let reparsed =
        qsmt::telemetry::parse(&written).map_err(|e| format!("{path} is not valid JSON: {e}"))?;
    qsmt::bench::validate(&reparsed)
        .map_err(|e| format!("{path} failed schema validation: {e}"))?;
    if let Some(kernel) = reparsed.get("kernel") {
        if let (Some(naive), Some(fast), Some(speedup)) = (
            kernel.get("naive_proposals_per_sec").and_then(Json::as_f64),
            kernel
                .get("kernel_proposals_per_sec")
                .and_then(Json::as_f64),
            kernel.get("speedup").and_then(Json::as_f64),
        ) {
            eprintln!(
                "kernel sweep: {:.2} Mprop/s naive → {:.2} Mprop/s kernel ({speedup:.2}×)",
                naive / 1e6,
                fast / 1e6
            );
            let prior = baseline.as_ref().and_then(|b| {
                b.get("kernel")?
                    .get("kernel_proposals_per_sec")
                    .and_then(Json::as_f64)
            });
            match prior {
                Some(prev) if prev > 0.0 => eprintln!(
                    "delta vs committed baseline: {:+.1}% kernel proposals/sec",
                    (fast / prev - 1.0) * 100.0
                ),
                _ => eprintln!("no committed baseline to compare against"),
            }
        }
    }
    if let Some(mut overhead) = qsmt::bench::disabled_overhead(&reparsed) {
        eprintln!(
            "probe overhead: {:+.2}% disabled path (gate {:.0}%)",
            overhead * 100.0,
            qsmt::bench::MAX_DISABLED_OVERHEAD * 100.0
        );
        if opts.check_overhead {
            // Retry before failing: a genuine probe regression fails every
            // attempt, while a load spike on a busy host passes on retry.
            let mut attempts = 1;
            while overhead > qsmt::bench::MAX_DISABLED_OVERHEAD && attempts < 3 {
                attempts += 1;
                match qsmt::bench::remeasure_disabled_overhead(&bench_opts) {
                    Some(again) => {
                        overhead = again;
                        eprintln!(
                            "probe overhead retry {attempts}: {:+.2}% disabled path",
                            overhead * 100.0
                        );
                    }
                    None => break,
                }
            }
            if overhead > qsmt::bench::MAX_DISABLED_OVERHEAD {
                return Err(format!(
                    "disabled-probe overhead {:.2}% exceeds the {:.0}% gate after {attempts} attempts",
                    overhead * 100.0,
                    qsmt::bench::MAX_DISABLED_OVERHEAD * 100.0
                ));
            }
        }
    } else if opts.check_overhead {
        return Err("bench document lacks probe_overhead.disabled_overhead".into());
    }
    if let Some(mut overhead) = qsmt::bench::trace_overhead(&reparsed) {
        eprintln!(
            "trace overhead: {:+.2}% inert-span path (gate {:.0}%)",
            overhead * 100.0,
            qsmt::bench::MAX_TRACE_OVERHEAD * 100.0
        );
        if opts.check_trace_overhead {
            // Same retry discipline as --check-overhead: a genuine span
            // regression fails every remeasure, a noisy host recovers.
            let mut attempts = 1;
            while overhead > qsmt::bench::MAX_TRACE_OVERHEAD && attempts < 3 {
                attempts += 1;
                match qsmt::bench::remeasure_trace_overhead(&bench_opts) {
                    Some(again) => {
                        overhead = again;
                        eprintln!(
                            "trace overhead retry {attempts}: {:+.2}% inert-span path",
                            overhead * 100.0
                        );
                    }
                    None => break,
                }
            }
            if overhead > qsmt::bench::MAX_TRACE_OVERHEAD {
                return Err(format!(
                    "inert-span trace overhead {:.2}% exceeds the {:.0}% gate after {attempts} attempts",
                    overhead * 100.0,
                    qsmt::bench::MAX_TRACE_OVERHEAD * 100.0
                ));
            }
        }
    } else if opts.check_trace_overhead {
        return Err("bench document lacks trace_overhead.disabled_overhead".into());
    }
    if let Some(mut speedup) = qsmt::bench::replica_speedup(&reparsed) {
        let max_replicas = reparsed
            .get("replica_scaling")
            .and_then(|s| s.get("max_replicas"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        eprintln!(
            "replica scaling: {speedup:.2}× effective flips/s at {max_replicas:.0} \
             replicas/word vs scalar (gate ≥{:.1}×)",
            qsmt::bench::MIN_REPLICA_SPEEDUP
        );
        if opts.check_replicas {
            // Same retry discipline as --check-overhead: a real regression
            // fails every remeasure, a noisy host recovers on retry.
            let mut attempts = 1;
            while speedup < qsmt::bench::MIN_REPLICA_SPEEDUP && attempts < 3 {
                attempts += 1;
                match qsmt::bench::remeasure_replica_speedup(&bench_opts) {
                    Some(again) => {
                        speedup = again;
                        eprintln!("replica scaling retry {attempts}: {speedup:.2}× flips/s");
                    }
                    None => break,
                }
            }
            if speedup < qsmt::bench::MIN_REPLICA_SPEEDUP {
                return Err(format!(
                    "replica-scaling flips speedup {speedup:.2}× is below the {:.1}× gate \
                     after {attempts} attempts",
                    qsmt::bench::MIN_REPLICA_SPEEDUP
                ));
            }
        }
    } else if opts.check_replicas {
        return Err("bench document lacks replica_scaling.flips_speedup".into());
    }
    eprintln!("bench report written to {path}");
    Ok(())
}

/// `qsmt history`: per-stage latency percentiles over a run-history
/// store (the JSONL file `qsmt serve --run-store` appends to), with
/// regression verdicts. Returns whether any stage regressed — mapped to
/// the process exit code so a drifted deployment fails its health check.
fn run_history(path: &str, opts: &Options) -> Result<bool, String> {
    let store = qsmt::trace::RunStore::new(path, qsmt::trace::store::DEFAULT_MAX_LINES);
    let runs = store
        .load()
        .map_err(|e| format!("cannot read run store {path}: {e}"))?;
    if runs.is_empty() {
        println!("run store {path}: no runs recorded");
        return Ok(false);
    }
    let report = qsmt::trace::analyze(
        &runs,
        &qsmt::trace::HistoryOptions {
            recent: opts.recent,
            baseline: opts.baseline,
            threshold: opts.threshold,
        },
    );
    println!(
        "run store {path}: {} run(s), {} stage(s)",
        report.runs,
        report.stages.len()
    );
    println!(
        "{:<16} {:>6} {:>12} {:>12} {:>12}",
        "stage", "runs", "p50_us", "p90_us", "p99_us"
    );
    for s in &report.stages {
        println!(
            "{:<16} {:>6} {:>12.1} {:>12.1} {:>12.1}",
            s.label, s.runs, s.p50, s.p90, s.p99
        );
    }
    for r in &report.regressions {
        println!(
            "REGRESSION {}: p50 {:.1} us -> {:.1} us ({:+.1}%, threshold {:.0}%, \
             newest {} run(s) vs {} baseline run(s))",
            r.label,
            r.baseline_p50,
            r.recent_p50,
            r.drift * 100.0,
            opts.threshold * 100.0,
            opts.recent,
            opts.baseline,
        );
    }
    if report.regressions.is_empty() {
        println!("no stage regressions");
    }
    Ok(report.has_regressions())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "solve" || cmd == "dump" || cmd == "lint" => {
            let Some((path, flags)) = rest.split_first() else {
                eprintln!("{}", usage());
                return ExitCode::FAILURE;
            };
            match (
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}")),
                parse_flags(cmd, flags),
            ) {
                (Ok(source), Ok(opts)) => match cmd.as_str() {
                    "solve" => run_solve(&source, path, &opts),
                    "lint" => match run_lint(&source, path, &opts) {
                        // Diagnostics are already printed; error-level
                        // findings gate the exit code.
                        Ok(false) => Ok(()),
                        Ok(true) => return ExitCode::FAILURE,
                        Err(e) => Err(e),
                    },
                    _ => run_dump(&source, &opts),
                },
                (Err(e), _) | (_, Err(e)) => Err(e),
            }
        }
        Some((cmd, rest)) if cmd == "demo" => {
            parse_flags(cmd, rest).and_then(|opts| run_solve(DEMO, "<demo>", &opts))
        }
        Some((cmd, rest)) if cmd == "bench" => {
            parse_flags(cmd, rest).and_then(|opts| run_bench(&opts))
        }
        Some((cmd, rest)) if cmd == "serve" => parse_flags(cmd, rest).and_then(|opts| {
            let addr = opts
                .metrics_addr
                .as_deref()
                .ok_or_else(|| "serve requires --metrics-addr <host:port>".to_string())?;
            qsmt::serve::serve(&qsmt::serve::ServeConfig {
                addr: addr.to_string(),
                seed: opts.seed,
                workers: opts.workers,
                queue_depth: opts.queue_depth,
                job_timeout: std::time::Duration::from_millis(opts.job_timeout_ms),
                max_requests: opts.max_requests,
                run_store: opts.run_store.clone(),
            })
        }),
        Some((cmd, rest)) if cmd == "submit" => {
            let Some((addr, rest)) = rest.split_first() else {
                eprintln!("{}", usage());
                return ExitCode::FAILURE;
            };
            let Some((path, flags)) = rest.split_first() else {
                eprintln!("{}", usage());
                return ExitCode::FAILURE;
            };
            match (
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}")),
                parse_flags(cmd, flags),
            ) {
                // Only `solve` and `demo` print a trace; a job's trace
                // is fetched into a file.
                (Ok(_), Ok(opts)) if opts.trace && opts.trace_out.is_none() => {
                    Err("submit --trace requires an output path".to_string())
                }
                (Ok(source), Ok(opts)) => {
                    let submit_opts = qsmt::serve::SubmitOptions {
                        seed: opts.seed_set.then_some(opts.seed),
                        reads: opts.reads_set.then_some(opts.reads as u64),
                        timeout_ms: opts.job_timeout_set.then_some(opts.job_timeout_ms),
                    };
                    qsmt::serve::submit(addr, &source, &submit_opts).and_then(|doc| {
                        println!("{}", doc.pretty());
                        // `--trace <out.json>`: fetch the finished job's
                        // spans as Chrome trace-event JSON (Perfetto).
                        if let Some(out) = &opts.trace_out {
                            let id = doc
                                .get("id")
                                .and_then(Json::as_str)
                                .ok_or_else(|| "status document lacks a job id".to_string())?;
                            let body = qsmt::serve::fetch(addr, &format!("/jobs/{id}/trace"))?;
                            std::fs::write(out, &body)
                                .map_err(|e| format!("cannot write trace to {out}: {e}"))?;
                            eprintln!("trace written to {out}");
                        }
                        Ok(())
                    })
                }
                (Err(e), _) | (_, Err(e)) => Err(e),
            }
        }
        Some((cmd, rest)) if cmd == "watch" => {
            let Some((addr, flags)) = rest.split_first() else {
                eprintln!("{}", usage());
                return ExitCode::FAILURE;
            };
            parse_flags(cmd, flags).and_then(|opts| {
                let path = if opts.format == "json" {
                    "/flight"
                } else {
                    "/metrics"
                };
                let body = qsmt::serve::fetch(addr, path)?;
                print!("{body}");
                // Flight-recorder wrap check: when the bounded event
                // ring has evicted history, say so — otherwise a
                // watcher reads a seemingly complete event log.
                let flight = if path == "/flight" {
                    body
                } else {
                    qsmt::serve::fetch(addr, "/flight")?
                };
                let dropped = qsmt::telemetry::parse(&flight)
                    .ok()
                    .and_then(|doc| doc.get("dropped_total").and_then(Json::as_u64));
                if let Some(dropped) = dropped.filter(|&d| d > 0) {
                    eprintln!(
                        "warning: flight recorder dropped {dropped} event(s) \
                         (ring wrapped; oldest history lost)"
                    );
                }
                Ok(())
            })
        }
        Some((cmd, rest)) if cmd == "history" => {
            let Some((path, flags)) = rest.split_first() else {
                eprintln!("{}", usage());
                return ExitCode::FAILURE;
            };
            match parse_flags(cmd, flags).and_then(|opts| run_history(path, &opts)) {
                // Stats are already printed; regressions gate the exit
                // code, mirroring `qsmt lint`.
                Ok(false) => Ok(()),
                Ok(true) => return ExitCode::FAILURE,
                Err(e) => Err(e),
            }
        }
        _ => {
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(cmd: &str, flags: &str) -> Result<Options, String> {
        let args: Vec<String> = flags.split_whitespace().map(String::from).collect();
        parse_flags(cmd, &args)
    }

    #[test]
    fn invocations_scripts_depend_on_still_parse() {
        // The benchmark harness, CI and the docs run these.
        for (cmd, flags) in [
            ("solve", "--seed 3"),
            ("serve", "--metrics-addr 127.0.0.1:0 --workers 2"),
            (
                "bench",
                "--quick --check-overhead --check-trace-overhead --out BENCH_annealing.json",
            ),
            ("history", "--recent 1 --baseline 1 --threshold 25"),
            ("demo", "--seed 3 --trace chrome_trace.json"),
            ("lint", ""),
        ] {
            assert!(parse(cmd, flags).is_ok(), "qsmt {cmd} {flags}");
        }
    }

    #[test]
    fn each_subcommand_takes_the_flags_its_usage_entry_lists() {
        assert_eq!(usage_flags("watch"), ["--format"]);
        assert_eq!(usage_flags("dump"), ["--goal"]);
        assert_eq!(
            usage_flags("history"),
            ["--recent", "--baseline", "--threshold"]
        );
        assert_eq!(usage_flags("solve"), usage_flags("demo"));
        assert!(usage_flags("serve").contains(&"--metrics-addr"));
        assert_eq!(
            parse("submit", "--seed 3 --goal 1").err().as_deref(),
            Some("flag --goal does not apply to qsmt submit")
        );
    }
}
