//! `qsmt_bench` — the end-to-end and per-layer benchmark of qsmt.
//!
//! End-to-end numbers go only through the two stable user interfaces:
//! the `qsmt solve` binary and the `qsmt serve` HTTP API. A separate
//! traced run times each layer's public leaf function on the same
//! inputs. See README.md for the workloads, metrics and bounds.
//!
//! ```text
//! qsmt_bench run [--workload NAME] [--seed N] [--seconds S]
//!                [--trace 0|1 | --traced] [--out results.json]
//! qsmt_bench dump --seed N DIR
//! qsmt_bench compare A.json… -- B.json…
//! ```

mod cli;
mod compare;
mod generate;
mod http;
mod json;
mod layers;
mod metrics;
mod oracle;
mod serve;
mod stats;

use generate::{Case, Expect, Request, Workload};
use json::Json;
use layers::{Counts, Path as LayerPath, Tracer};
use metrics::{Catalogue, E2e, Measured, ServeTrace, Traced};
use oracle::Judgement;
use serve::{Server, Stop};
use stats::{frac, percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage:
  qsmt_bench run [--workload NAME] [--seed N] [--seconds S]
                 [--trace 0|1 | --traced] [--out results.json]
  qsmt_bench dump --seed N DIR
  qsmt_bench compare A.json... -- B.json...
workloads: cli_generate cli_transform serve_unique serve_repeat";

/// Untimed warm-up requests before every timed phase.
const WARMUP: usize = 10;
/// `qsmt solve` runs on a bare `(check-sat)` script per run; their median
/// is the CLI's per-invocation start-up cost.
const CLI_SETUPS: usize = 50;
/// Server spawns per run; their median is the serve set-up time.
const SERVE_SETUPS: usize = 5;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("dump") => dump(&args[1..]).map(|()| true),
        Some("compare") => compare::main(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn flag_value<'a>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<&'a str, String> {
    it.next()
        .map(String::as_str)
        .ok_or(format!("{flag} needs a value"))
}

fn parse_num<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} expects a number, got {v:?}"))
}

struct RunOpts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String], catalogue: &Catalogue) -> Result<RunOpts, String> {
    let mut opts = RunOpts {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: catalogue.run_seconds,
        traced: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = flag_value(&mut it, flag)?;
                let w = Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?;
                opts.workloads = vec![w];
            }
            "--seed" => opts.seed = parse_num(flag_value(&mut it, flag)?, flag)?,
            "--seconds" => {
                opts.seconds = parse_num(flag_value(&mut it, flag)?, flag)?;
                if opts.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                opts.traced = match flag_value(&mut it, flag)? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                }
            }
            "--traced" => opts.traced = true,
            "--out" => opts.out = Some(PathBuf::from(flag_value(&mut it, flag)?)),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// What every workload runner needs.
struct Env {
    qsmt: PathBuf,
    work: PathBuf,
    epoch: Instant,
}

/// Builds `qsmt` from the repository this benchmark sits in, into
/// `$CARGO_TARGET_DIR` (the repository's `target/` when unset).
fn build_qsmt() -> Result<Env, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), PathBuf::from);
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "qsmt",
            "--bin",
            "qsmt",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building qsmt failed ({status})"));
    }
    let work = target.join("qsmt_bench");
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    Ok(Env {
        qsmt: target.join("release").join("qsmt"),
        work,
        epoch: Instant::now(),
    })
}

/// Verdict bookkeeping for one run.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    decided: usize,
    wrong: Vec<String>,
    /// template → [attempted, decided, unknown, wrong, failed]
    by_template: BTreeMap<&'static str, [usize; 5]>,
}

impl Tally {
    /// Counts one timed request; `Err` is a failed request.
    fn add(&mut self, index: usize, case: &Case, outcome: Result<&Judgement, &str>) {
        self.attempted += 1;
        let row = self.by_template.entry(case.template).or_default();
        row[0] += 1;
        match outcome {
            Ok(Judgement::Decided) => {
                self.decided += 1;
                row[1] += 1;
            }
            Ok(Judgement::Undecided) => row[2] += 1,
            Ok(Judgement::Wrong(why)) => {
                row[3] += 1;
                self.wrong.push(format!(
                    "request {index} ({}): {why}\n{}",
                    case.template,
                    case.smt2()
                ));
            }
            Err(e) => {
                row[4] += 1;
                self.failed += 1;
                if self.failed <= 3 {
                    eprintln!("request {index} ({}) failed: {e}", case.template);
                }
            }
        }
    }

    /// Warm-up requests are untimed, but a wrong verdict still fails.
    fn warmup(&mut self, index: usize, case: &Case, outcome: Result<&Judgement, &str>) {
        if let Ok(Judgement::Wrong(why)) = outcome {
            self.wrong.push(format!(
                "warm-up {index} ({}): {why}\n{}",
                case.template,
                case.smt2()
            ));
        }
    }
}

/// One workload's finished run.
struct Outcome {
    workload: Workload,
    tally: Tally,
    metrics: Vec<Measured>,
}

fn run(args: &[String]) -> Result<bool, String> {
    let catalogue = Catalogue::load()?;
    let opts = parse_run(args, &catalogue)?;
    let env = build_qsmt()?;
    let mut outcomes = Vec::new();
    for &w in &opts.workloads {
        eprintln!(
            "{}: {} run, seed {}, {} s",
            w.name(),
            if opts.traced { "traced" } else { "untraced" },
            opts.seed,
            opts.seconds
        );
        let outcome = if w.is_serve() {
            run_serve(&env, w, opts.seed, opts.seconds, opts.traced)?
        } else {
            run_cli(&env, w, opts.seed, opts.seconds, opts.traced)?
        };
        catalogue.check(&outcome.metrics, opts.traced)?;
        report(&catalogue, &outcome);
        outcomes.push(outcome);
    }
    if let Some(path) = &opts.out {
        write_results(path, &catalogue, &opts, &outcomes)?;
    }
    Ok(outcomes.iter().all(|o| o.tally.wrong.is_empty()))
}

/// Prints one line per metric, the per-template audit (stderr), any
/// wrong verdicts, and the one-line JSON result last.
fn report(catalogue: &Catalogue, o: &Outcome) {
    let unit = |name: &str| {
        catalogue
            .def(name)
            .map_or("", |d| d.unit.as_str())
            .to_string()
    };
    for m in &o.metrics {
        println!(
            "{:<14} {:<36} {:>16.6} {:<6} n={}",
            o.workload.name(),
            m.name,
            m.value,
            unit(&m.name),
            m.samples
        );
    }
    eprintln!(
        "{:<16} {:>9} {:>8} {:>8} {:>6} {:>7}",
        "template", "attempted", "decided", "unknown", "wrong", "failed"
    );
    for (t, r) in &o.tally.by_template {
        eprintln!(
            "{t:<16} {:>9} {:>8} {:>8} {:>6} {:>7}",
            r[0], r[1], r[2], r[3], r[4]
        );
    }
    for w in &o.tally.wrong {
        eprintln!("WRONG VERDICT {w}");
    }
    println!("{}", result_json(catalogue, o, false).render());
}

/// The result object of one workload run; `samples` adds each metric's
/// sample count (the results file carries them, the last stdout line
/// keeps to value and unit).
fn result_json(catalogue: &Catalogue, o: &Outcome, samples: bool) -> Json {
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            let unit = catalogue.def(&m.name).map_or("", |d| d.unit.as_str());
            let mut entry = vec![("value", Json::Num(m.value)), ("unit", Json::from(unit))];
            if samples {
                entry.push(("samples", Json::Num(m.samples as f64)));
            }
            (m.name.clone(), Json::obj(entry))
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(o.tally.wrong.is_empty())),
        ("attempted", Json::Num(o.tally.attempted as f64)),
        ("failed", Json::Num(o.tally.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn write_results(
    path: &Path,
    catalogue: &Catalogue,
    opts: &RunOpts,
    outcomes: &[Outcome],
) -> Result<(), String> {
    let workloads = outcomes
        .iter()
        .map(|o| {
            (
                o.workload.name().to_string(),
                result_json(catalogue, o, true),
            )
        })
        .collect();
    let doc = Json::obj([
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds as f64)),
        ("traced", Json::Bool(opts.traced)),
        ("workloads", Json::Obj(workloads)),
    ]);
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

fn write_trace(env: &Env, w: Workload, spans: &[layers::Span]) -> Result<(), String> {
    let path = env.work.join(format!("trace-{}.json", w.name()));
    std::fs::write(&path, layers::chrome_trace(spans).render())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("trace written to {}", path.display());
    Ok(())
}

// ---------------------------------------------------------------- CLI

/// Runs one script through `qsmt solve` and judges the answer.
fn cli_request(env: &Env, case: &Case) -> Result<(cli::Exec, Result<Judgement, String>), String> {
    let file = env.work.join("request.smt2");
    std::fs::write(&file, case.smt2()).map_err(|e| format!("write {}: {e}", file.display()))?;
    let exec = cli::solve(&env.qsmt, &file, Some(case.solver_seed))
        .map_err(|e| format!("run qsmt solve: {e}"))?;
    let judged = if exec.ok {
        oracle::parse_cli_output(&exec.stdout, case.var()).map(|v| oracle::judge(case, &v))
    } else {
        Err("qsmt solve exited non-zero".to_string())
    };
    Ok((exec, judged))
}

/// One `qsmt solve` of a bare `(check-sat)` script: the CLI's
/// per-invocation start-up cost, seconds.
fn cli_setup(env: &Env, bare: &Path) -> Result<f64, String> {
    let exec = cli::solve(&env.qsmt, bare, None).map_err(|e| format!("run qsmt solve: {e}"))?;
    if exec.ok && exec.stdout.trim() == "sat" {
        Ok(exec.latency_ms / 1000.0)
    } else {
        Err(format!("bare (check-sat) answered {:?}", exec.stdout))
    }
}

fn run_cli(
    env: &Env,
    w: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<Outcome, String> {
    let inputs = w.inputs(seed);
    let mut tally = Tally::default();
    let bare = env.work.join("bare.smt2");
    std::fs::write(&bare, "(check-sat)\n").map_err(|e| format!("write {}: {e}", bare.display()))?;
    for i in 0..WARMUP {
        let req = inputs.warmup(i);
        let (_, judged) = cli_request(env, &req.case)?;
        tally.warmup(i, &req.case, judged.as_ref().map_err(String::as_str));
    }
    let budget = Duration::from_secs(seconds);
    if traced {
        let setup_s = (0..CLI_SETUPS)
            .map(|_| cli_setup(env, &bare))
            .collect::<Result<Vec<_>, _>>()?;
        return cli_traced(env, w, &inputs, budget, &setup_s, tally);
    }
    let mut e2e = E2e::default();
    let mut max_rss_kib = 0;
    // The start-up probes are spread evenly over the timed phase, so they
    // see the same host conditions as the requests; their time is left
    // out of the throughput wall time.
    let mut probing = Duration::ZERO;
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < budget {
        let due = budget.mul_f64(e2e.setup_s.len() as f64 / CLI_SETUPS as f64);
        if e2e.setup_s.len() < CLI_SETUPS && start.elapsed() >= due {
            let t0 = Instant::now();
            e2e.setup_s.push(cli_setup(env, &bare)?);
            probing += t0.elapsed();
            continue;
        }
        let req = inputs.request(i);
        let (exec, judged) = cli_request(env, &req.case)?;
        if judged.is_ok() {
            e2e.latencies_ms.push(exec.latency_ms);
        }
        max_rss_kib = max_rss_kib.max(exec.max_rss_kib);
        tally.add(i, &req.case, judged.as_ref().map_err(String::as_str));
        i += 1;
    }
    e2e.wall_s = start.elapsed().saturating_sub(probing).as_secs_f64();
    while e2e.setup_s.len() < CLI_SETUPS {
        e2e.setup_s.push(cli_setup(env, &bare)?);
    }
    e2e.peak_rss_mb = max_rss_kib as f64 / 1024.0;
    e2e.rss_samples = i;
    e2e.attempted = tally.attempted;
    e2e.failed = tally.failed;
    e2e.decided = tally.decided;
    Ok(Outcome {
        workload: w,
        metrics: metrics::end_to_end(&e2e),
        tally,
    })
}

/// The traced CLI pass: each request runs through `qsmt solve`, then is
/// replayed in process with spans, then once more without, so coverage
/// and tracing overhead are taken over the same scripts.
fn cli_traced(
    env: &Env,
    w: Workload,
    inputs: &generate::Inputs,
    budget: Duration,
    setup_s: &[f64],
    mut tally: Tally,
) -> Result<Outcome, String> {
    let setup_ms = percentile(setup_s, 50.0) * 1000.0;
    let mut traced = Tracer::new(env.epoch, 1, true);
    let mut plain = Tracer::new(env.epoch, 1, false);
    let (mut counts, mut untraced_counts) = (Counts::default(), Counts::default());
    let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
    let mut cli_solver_ms = 0.0;
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < budget {
        let req = inputs.request(i);
        let (exec, judged) = cli_request(env, &req.case)?;
        tally.add(i, &req.case, judged.as_ref().map_err(String::as_str));
        if judged.is_ok() {
            cli_solver_ms += exec.latency_ms - setup_ms;
            traced.set_trace(i as u64);
            let t0 = Instant::now();
            replay_judged(
                &mut traced,
                &req,
                LayerPath::Cli,
                &mut counts,
                i,
                &mut tally,
            )?;
            traced_ms.push(t0.elapsed().as_secs_f64() * 1000.0);
            let t0 = Instant::now();
            layers::replay(&mut plain, &req.case, LayerPath::Cli, &mut untraced_counts)?;
            plain_ms.push(t0.elapsed().as_secs_f64() * 1000.0);
        }
        i += 1;
    }
    let selfs = layers::self_times(&traced.spans);
    let on_path_us: f64 = traced
        .spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| layers::on_cli_path(s.name))
        .map(|(_, us)| us)
        .sum();
    let metrics = metrics::per_layer(&Traced {
        spans: &traced.spans,
        counts: &counts,
        serve: None,
        coverage_frac: frac(on_path_us / 1000.0, cli_solver_ms),
        overhead_frac: frac(percentile(&traced_ms, 50.0), percentile(&plain_ms, 50.0)),
        trace_requests: traced_ms.len(),
    });
    write_trace(env, w, &traced.spans)?;
    Ok(Outcome {
        workload: w,
        tally,
        metrics,
    })
}

/// Replays one request in process; a wrong replayed verdict is a wrong
/// verdict of the library and fails the run like any other.
fn replay_judged(
    t: &mut Tracer,
    req: &Request,
    path: LayerPath,
    counts: &mut Counts,
    index: usize,
    tally: &mut Tally,
) -> Result<(), String> {
    let verdict = layers::replay(t, &req.case, path, counts)?;
    if let Judgement::Wrong(why) = oracle::judge(&req.case, &verdict) {
        tally.wrong.push(format!(
            "replay of request {index}: {why}\n{}",
            req.case.smt2()
        ));
    }
    Ok(())
}

// -------------------------------------------------------------- serve

/// Checks the drain summary against the jobs this run submitted.
fn check_drained(drained: &serve::Drained, accepted: usize) -> Result<(), String> {
    let terminal = drained.completed + drained.failed + drained.timed_out;
    if drained.accepted != accepted as u64 || terminal != drained.accepted {
        return Err(format!(
            "drain summary {drained:?} does not account for the {accepted} accepted jobs"
        ));
    }
    Ok(())
}

/// A freshly spawned server plus its set-up time, with the warm-up done.
fn warm_server(
    env: &Env,
    inputs: &generate::Inputs,
    tally: &mut Tally,
) -> Result<(Server, f64, usize), String> {
    let (server, setup) = Server::spawn(&env.qsmt)?;
    let (jobs, _, _) = serve::drive(
        server.addr,
        &|i| inputs.warmup(i),
        Stop::Count(WARMUP),
        env.epoch,
        false,
    );
    for j in &jobs {
        let case = inputs.warmup(j.index).case;
        tally.warmup(j.index, &case, job_outcome(j));
    }
    let accepted = jobs.iter().filter(|j| j.accepted).count();
    Ok((server, setup, accepted))
}

fn job_outcome(j: &serve::Job) -> Result<&Judgement, &str> {
    match (&j.judgement, &j.error) {
        (Some(judgement), None) => Ok(judgement),
        (_, Some(e)) => Err(e.as_str()),
        (None, None) => Err("job ended without a verdict"),
    }
}

/// Latencies of the jobs that completed, ms.
fn completed_latencies(jobs: &[serve::Job]) -> Vec<f64> {
    jobs.iter()
        .filter(|j| job_outcome(j).is_ok())
        .map(|j| j.latency_ms)
        .collect()
}

fn run_serve(
    env: &Env,
    w: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<Outcome, String> {
    let inputs = w.inputs(seed);
    let request = |i| inputs.request(i);
    let mut tally = Tally::default();
    let budget = Duration::from_secs(seconds);
    if traced {
        return serve_traced(env, w, &inputs, budget, tally);
    }
    let mut setup_s = Vec::new();
    for _ in 1..SERVE_SETUPS {
        let (server, setup) = Server::spawn(&env.qsmt)?;
        setup_s.push(setup);
        check_drained(&server.shutdown()?, 0)?;
    }
    let (server, setup, warm_accepted) = warm_server(env, &inputs, &mut tally)?;
    setup_s.push(setup);
    let deadline = Instant::now() + budget;
    let (jobs, wall_s, _) =
        serve::drive(server.addr, &request, Stop::At(deadline), env.epoch, false);
    let peak_rss_mb = server.peak_rss_mb()?;
    let accepted = warm_accepted + jobs.iter().filter(|j| j.accepted).count();
    check_drained(&server.shutdown()?, accepted)?;
    for j in &jobs {
        tally.add(j.index, &inputs.request(j.index).case, job_outcome(j));
    }
    let e2e = E2e {
        setup_s,
        latencies_ms: completed_latencies(&jobs),
        attempted: tally.attempted,
        failed: tally.failed,
        decided: tally.decided,
        wall_s,
        peak_rss_mb,
        rss_samples: 1,
    };
    Ok(Outcome {
        workload: w,
        metrics: metrics::end_to_end(&e2e),
        tally,
    })
}

/// The traced serve pass: the requests of the first third of the budget
/// run untraced on one server and again, traced and between two
/// `/metrics` scrapes, on a fresh one; the rest of the budget replays the
/// same scripts in process.
fn serve_traced(
    env: &Env,
    w: Workload,
    inputs: &generate::Inputs,
    budget: Duration,
    mut tally: Tally,
) -> Result<Outcome, String> {
    let start = Instant::now();
    let request = |i| inputs.request(i);
    let (server, _, warm) = warm_server(env, inputs, &mut tally)?;
    let until = Stop::At(Instant::now() + budget / 3);
    let (untraced, _, _) = serve::drive(server.addr, &request, until, env.epoch, false);
    check_drained(
        &server.shutdown()?,
        warm + untraced.iter().filter(|j| j.accepted).count(),
    )?;

    let (server, _, warm) = warm_server(env, inputs, &mut tally)?;
    let before = serve::scrape(server.addr)?;
    let n = untraced.len();
    let (jobs, _, mut spans) = serve::drive(server.addr, &request, Stop::Count(n), env.epoch, true);
    let after = serve::scrape(server.addr)?;
    check_drained(
        &server.shutdown()?,
        warm + jobs.iter().filter(|j| j.accepted).count(),
    )?;
    for j in untraced.iter().chain(&jobs) {
        tally.add(j.index, &inputs.request(j.index).case, job_outcome(j));
    }

    let mut t = Tracer::new(env.epoch, 1, true);
    let mut counts = Counts::default();
    for i in 0..n {
        if i > 0 && start.elapsed() >= budget {
            break;
        }
        t.set_trace(i as u64);
        replay_judged(
            &mut t,
            &inputs.request(i),
            LayerPath::Serve,
            &mut counts,
            i,
            &mut tally,
        )?;
    }
    let traced_ms = completed_latencies(&jobs);
    let http_ms: f64 = jobs
        .iter()
        .filter(|j| job_outcome(j).is_ok())
        .map(|j| j.submit_rtt_ms + j.poll_rtts_ms.iter().sum::<f64>())
        .sum();
    let serve_trace = ServeTrace {
        jobs,
        before,
        after,
    };
    let metrics = metrics::per_layer(&Traced {
        spans: &t.spans,
        counts: &counts,
        serve: Some(&serve_trace),
        coverage_frac: frac(http_ms, traced_ms.iter().sum()),
        overhead_frac: frac(
            percentile(&traced_ms, 50.0),
            percentile(&completed_latencies(&untraced), 50.0),
        ),
        trace_requests: n,
    });
    spans.extend(t.spans);
    write_trace(env, w, &spans)?;
    Ok(Outcome {
        workload: w,
        tally,
        metrics,
    })
}

// --------------------------------------------------------------- dump

/// Scripts per workload `dump` writes.
const DUMP_COUNT: usize = 100;

/// `dump --seed N DIR`: writes the first [`DUMP_COUNT`] timed requests of
/// every workload as `.smt2` files, each headed by its known answer.
fn dump(args: &[String]) -> Result<(), String> {
    let (mut seed, mut dir) = (1u64, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = parse_num(flag_value(&mut it, a)?, a)?,
            other if !other.starts_with("--") && dir.is_none() => dir = Some(PathBuf::from(other)),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let dir = dir.ok_or(USAGE)?;
    for w in Workload::ALL {
        let sub = dir.join(w.name());
        std::fs::create_dir_all(&sub).map_err(|e| format!("create {}: {e}", sub.display()))?;
        let inputs = w.inputs(seed);
        for i in 0..DUMP_COUNT {
            let req = inputs.request(i);
            let expect = match &req.case.expect {
                Expect::Sat(witness) => format!("sat, witness {witness:?}"),
                Expect::Unsat(reason) => format!("unsat: {reason}"),
            };
            let text = format!(
                "; template: {}\n; expect: {expect}\n; solver seed: {}\n; portfolio: {}\n{}",
                req.case.template,
                req.case.solver_seed,
                req.portfolio,
                req.case.smt2()
            );
            let path = sub.join(format!("{i:05}.smt2"));
            std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        }
    }
    eprintln!(
        "wrote {DUMP_COUNT} scripts per workload under {}",
        dir.display()
    );
    Ok(())
}
