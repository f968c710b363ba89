//! `qsmt serve` — the concurrent solve service and live metrics endpoint.
//!
//! Binds a plain-TCP HTTP/1.1 listener (no framework, no dependencies)
//! and exposes:
//!
//! * `POST /solve` — enqueue an SMT-LIB script into the bounded job
//!   queue; answers `202` with a job id *and the job's trace id*,
//!   `429` + `Retry-After` when the queue is full (backpressure), `503`
//!   while draining; `?portfolio=1` (or `--portfolio` as the service
//!   default) races a routed solver portfolio per goal (see
//!   `docs/PORTFOLIO.md`);
//! * `GET /jobs/<id>` — job status; completed jobs embed the full
//!   schema-v10 run report (including the per-solve `cache` and
//!   `portfolio` sections, the top-level `served_from` marker —
//!   `"portfolio:<member>"` for portfolio jobs — and the job's
//!   `trace_id`);
//! * `GET /jobs/<id>/trace` — the job's spans as a Chrome trace-event
//!   JSON document, loadable in Perfetto (see `docs/OBSERVABILITY.md`);
//! * `GET /jobs` — job-table summary;
//! * `GET /traces` — recent-first index of traces still held by the
//!   in-process [`qsmt_trace`] registry;
//! * `GET /metrics` — Prometheus text exposition (version 0.0.4) of the
//!   global [`qsmt_metrics::Registry`];
//! * `GET /flight` — JSON dump of the global flight-recorder ring buffer;
//! * `GET /healthz` — liveness probe with queue depth and worker count;
//! * `POST /shutdown` — request a graceful drain.
//!
//! Jobs are drained by a worker pool ([`ServeConfig::workers`]) running
//! the ordinary [`StringSolver`](qsmt_core::StringSolver) pipeline with
//! per-job seeds; each job carries a deadline that trips a cooperative
//! [`StopFlag`](qsmt_qubo::StopFlag) threaded into the annealing sweep
//! loops, so timeouts cancel mid-anneal. Workers share one
//! [`SolveCache`](qsmt_core::SolveCache) (`--cache-entries`,
//! `--no-cache`): repeat submissions replay the cached answer without
//! sampling, and same-shape near-misses warm-start a short reverse
//! anneal — see `docs/CACHING.md`. SIGINT/SIGTERM and the
//! `--max-requests` cap trigger a graceful drain: stop accepting,
//! finish every accepted job, flush metrics, print a drain summary.
//!
//! Before binding, [`serve`] *exercises* the full sampler family — all
//! six annealing samplers via their trajectory-probe path, plus a QPU
//! simulator submission — so a scrape sees live series for every
//! subsystem the moment the socket opens. The bound address is printed
//! as `metrics listening on http://<addr>` (port 0 is supported and
//! resolves to the kernel-assigned port), which is what `qsmt watch`,
//! `qsmt submit`, and the end-to-end tests parse.
//!
//! Metric names, the job lifecycle, and the scrape walkthrough are
//! catalogued in `docs/OBSERVABILITY.md`.

pub mod http;
mod service;

pub use service::{ServeConfig, Service};

use qsmt_anneal::{
    ParallelTempering, PopulationAnnealer, ProbeConfig, Sampler, SimulatedAnnealer,
    SimulatedQuantumAnnealer, SteepestDescent, TabuSearch,
};
use qsmt_metrics::{FlightRecorder, Registry};
use qsmt_qpu::{QpuSimulator, Topology};
use qsmt_qubo::QuboModel;
use qsmt_telemetry::Json;
use std::net::TcpListener;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// The workload every sampler runs during the exercise pass: the
/// two-well 8-variable model from the tempering tests — small enough to
/// finish instantly, rugged enough that acceptance/swap/ESS series are
/// non-trivial.
fn exercise_model() -> QuboModel {
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

/// Runs every probed sampler plus a QPU submission against the exercise
/// model, publishing the resulting dynamics into `registry` and marking
/// progress in `flight`. Idempotent in shape: re-running adds to
/// counters and re-sets gauges but never creates unbounded series.
pub fn exercise(registry: &Registry, flight: &FlightRecorder, seed: u64) {
    let model = exercise_model();
    // Traces and per-β series capped low enough that label cardinality
    // stays scrape-friendly.
    let config = ProbeConfig {
        max_trace_points: 32,
    };
    let samplers: Vec<Box<dyn Sampler>> = vec![
        Box::new(SimulatedAnnealer::new().with_seed(seed).with_num_reads(8)),
        Box::new(
            SimulatedQuantumAnnealer::new()
                .with_seed(seed)
                .with_num_reads(4)
                .with_sweeps(64),
        ),
        Box::new(ParallelTempering::new().with_seed(seed).with_rounds(32)),
        Box::new(PopulationAnnealer::new().with_seed(seed).with_steps(32)),
        Box::new(TabuSearch::new().with_seed(seed).with_num_reads(4)),
        Box::new(SteepestDescent::new().with_seed(seed).with_num_reads(8)),
    ];

    describe_metrics(registry);
    let mut shard = registry.shard();
    for sampler in &samplers {
        let name = sampler.name();
        let (set, stats, dynamics) = sampler.run(&model, Some(&config));
        let labels = [("sampler", name)];
        if let Some(p) = stats.proposals {
            shard.counter_add("qsmt_sampler_proposals_total", &labels, p as f64);
        }
        if let Some(a) = stats.accepted {
            shard.counter_add("qsmt_sampler_accepted_total", &labels, a as f64);
        }
        shard.counter_add(
            "qsmt_sampler_reads_total",
            &labels,
            set.total_reads() as f64,
        );
        if let Some(best) = set.lowest_energy() {
            shard.gauge_set("qsmt_sampler_best_energy", &labels, best);
            flight.record(&format!("exercise.{name}"), best);
        }
        for v in &dynamics.proposal_latency_ns {
            shard.histogram_observe("qsmt_proposal_latency_ns", &labels, *v);
        }
        for v in &dynamics.sweep_improvement {
            shard.histogram_observe("qsmt_sweep_improvement", &labels, *v);
        }
        for (i, b) in dynamics.beta_acceptance.iter().enumerate() {
            let rung = i.to_string();
            let rung_labels = [("sampler", name), ("rung", rung.as_str())];
            shard.gauge_set("qsmt_beta", &rung_labels, b.beta);
            shard.counter_add(
                "qsmt_beta_proposals_total",
                &rung_labels,
                b.proposals as f64,
            );
            shard.counter_add("qsmt_beta_accepted_total", &rung_labels, b.accepted as f64);
        }
        for (i, s) in dynamics.swap_acceptance.iter().enumerate() {
            let pair = i.to_string();
            let pair_labels = [("pair", pair.as_str())];
            shard.counter_add(
                "qsmt_pt_swap_attempts_total",
                &pair_labels,
                s.attempts as f64,
            );
            shard.counter_add(
                "qsmt_pt_swap_accepted_total",
                &pair_labels,
                s.accepted as f64,
            );
        }
        if let Some(last) = dynamics.ess_trace.last() {
            shard.gauge_set("qsmt_population_final_ess", &[], last.ess);
        }
        if let Some(min) = dynamics
            .ess_trace
            .iter()
            .map(|p| p.ess)
            .min_by(f64::total_cmp)
        {
            shard.gauge_set("qsmt_population_min_ess", &[], min);
        }
        if let Some(hits) = dynamics.aspiration_hits {
            shard.counter_add("qsmt_tabu_aspiration_hits_total", &[], hits as f64);
        }
        if let Some(paths) = dynamics.accept_paths {
            for (path, count) in [
                ("early_accept", paths.early_accept),
                ("hard_reject", paths.hard_reject),
                ("bracket_accept", paths.bracket_accept),
                ("bracket_reject", paths.bracket_reject),
                ("exact_exp", paths.exact_exp),
            ] {
                shard.counter_add(
                    "qsmt_accept_path_total",
                    &[("sampler", name), ("path", path)],
                    count as f64,
                );
            }
        }
    }
    drop(shard);

    // QPU pipeline: embed + anneal a chained model so chain-break series
    // exist (the 8-var two-well needs chains on a 2×2 Chimera).
    let qpu = QpuSimulator::new(Topology::chimera(2, 2, 4))
        .with_seed(seed)
        .with_num_reads(32);
    match qpu.sample_qubo(&model) {
        Ok(resp) => {
            let labels = [("topology", "chimera-2x2-4")];
            registry.counter_add(
                "qsmt_qpu_broken_chains_total",
                &labels,
                resp.broken_chains as f64,
            );
            registry.counter_add(
                "qsmt_qpu_chain_slots_total",
                &labels,
                resp.chain_slots as f64,
            );
            registry.gauge_set(
                "qsmt_qpu_chain_break_fraction",
                &labels,
                resp.chain_break_fraction,
            );
            registry.counter_add(
                "qsmt_qpu_discarded_reads_total",
                &labels,
                resp.discarded_reads as f64,
            );
            flight.record("exercise.qpu", resp.chain_break_fraction);
        }
        Err(e) => {
            flight.record_detail("exercise.qpu.embed_error", 1.0, &e.to_string());
        }
    }
}

/// Registers HELP text for every series the exercise pass emits.
fn describe_metrics(registry: &Registry) {
    for (name, help) in [
        (
            "qsmt_sampler_proposals_total",
            "Single-variable moves proposed, per sampler.",
        ),
        (
            "qsmt_sampler_accepted_total",
            "Proposed moves accepted, per sampler.",
        ),
        (
            "qsmt_sampler_reads_total",
            "Reads returned by the sampler's last exercise run.",
        ),
        (
            "qsmt_sampler_best_energy",
            "Lowest energy found on the last exercise run.",
        ),
        (
            "qsmt_proposal_latency_ns",
            "Per-proposal latency on the probe read, nanoseconds.",
        ),
        (
            "qsmt_sweep_improvement",
            "Best-energy improvement per probed sweep.",
        ),
        ("qsmt_beta", "Inverse temperature of each schedule rung."),
        (
            "qsmt_beta_proposals_total",
            "Proposals judged at each schedule rung.",
        ),
        (
            "qsmt_beta_accepted_total",
            "Accepted moves at each schedule rung.",
        ),
        (
            "qsmt_pt_swap_attempts_total",
            "Replica-exchange attempts per adjacent ladder pair.",
        ),
        (
            "qsmt_pt_swap_accepted_total",
            "Replica exchanges accepted per adjacent ladder pair.",
        ),
        (
            "qsmt_population_final_ess",
            "Effective sample size at the final resampling step.",
        ),
        (
            "qsmt_population_min_ess",
            "Lowest effective sample size over the anneal.",
        ),
        (
            "qsmt_tabu_aspiration_hits_total",
            "Tabu moves admitted by the aspiration criterion.",
        ),
        (
            "qsmt_accept_path_total",
            "Metropolis decisions per acceptance-table fast path.",
        ),
        (
            "qsmt_qpu_broken_chains_total",
            "Broken chains observed across QPU reads.",
        ),
        (
            "qsmt_qpu_chain_slots_total",
            "Chain observations (reads x chains) across QPU reads.",
        ),
        (
            "qsmt_qpu_chain_break_fraction",
            "Broken chains per chain slot on the last submission.",
        ),
        (
            "qsmt_qpu_discarded_reads_total",
            "QPU reads dropped by the discard chain-break policy.",
        ),
    ] {
        registry.describe(name, help);
    }
}

/// Runs the solve service: exercise the samplers, bind the address,
/// print the resolved endpoint, spawn the worker pool, then serve until
/// a drain is requested — by SIGINT/SIGTERM, `POST /shutdown`, or (when
/// [`ServeConfig::max_requests`] is set) after that many requests were
/// accepted, the hook the end-to-end tests use to terminate
/// deterministically. Draining finishes every accepted job before the
/// process exits and prints a one-line summary accounting for all of
/// them.
///
/// # Errors
/// Returns an error when the address cannot be parsed or bound.
pub fn serve(config: &ServeConfig) -> Result<(), String> {
    let registry = qsmt_metrics::global();
    let flight = qsmt_metrics::global_flight();
    exercise(registry, flight, config.seed);
    let svc = Arc::new(Service::new(config));
    service::install_shutdown_handler();
    let listener =
        TcpListener::bind(&config.addr).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    // Parsed by `qsmt watch`/`qsmt submit` users and the e2e tests;
    // keep stable.
    println!("metrics listening on http://{local}");
    eprintln!(
        "solve service ready: {} workers, queue depth {}, job timeout {} ms",
        config.workers.max(1),
        config.queue_depth.max(1),
        config.job_timeout.as_millis()
    );
    // Nonblocking accept so the loop can poll the shutdown flags
    // between connections.
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot configure listener: {e}"))?;
    let workers = svc.spawn_workers(config.workers);
    let mut served = 0u64;
    let mut connections: Vec<thread::JoinHandle<()>> = Vec::new();
    while !service::shutdown_signalled() && !svc.drain_requested() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Accepted sockets must block: handlers read bodies and
                // write full responses.
                let _ = stream.set_nonblocking(false);
                served += 1;
                let handler_svc = Arc::clone(&svc);
                connections.push(thread::spawn(move || {
                    service::handle_connection(stream, &handler_svc);
                }));
                if config.max_requests.is_some_and(|max| served >= max) {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => continue,
        }
        connections.retain(|conn| !conn.is_finished());
    }
    // Graceful drain: refuse new connections, let in-flight handlers
    // finish (so their submissions land in the queue), then drain the
    // pool — every accepted job reaches a terminal state.
    drop(listener);
    for conn in connections {
        let _ = conn.join();
    }
    svc.request_drain();
    for worker in workers {
        let _ = worker.join();
    }
    registry.gauge_set("qsmt_serve_queue_depth", &[], 0.0);
    flight.record("serve.drained", served as f64);
    // Best-effort: a supervisor that already closed our stdout must not
    // turn a clean drain into a broken-pipe panic.
    use std::io::Write as _;
    let _ = writeln!(std::io::stdout(), "{}", svc.drain_summary());
    Ok(())
}

/// One-shot scrape client (`qsmt watch`): GETs a path from a running
/// `qsmt serve` endpoint and returns the response body. Connect and
/// read both carry timeouts, so an unreachable endpoint fails fast with
/// a non-zero exit instead of hanging a health probe.
///
/// # Errors
/// Returns an error when the endpoint is unreachable, a timeout fires,
/// or the endpoint replies with a non-200 status.
pub fn fetch(addr: &str, path: &str) -> Result<String, String> {
    let (status, body) = http::http_request(addr, "GET", path, None)?;
    if status != 200 {
        return Err(format!(
            "{}{path} answered HTTP {status}",
            addr.trim_start_matches("http://")
        ));
    }
    Ok(body)
}

/// Options for the [`submit`] client (`qsmt submit`).
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Per-job RNG seed (`?seed=`); server picks one when absent.
    pub seed: Option<u64>,
    /// Sampler reads override (`?reads=`).
    pub reads: Option<u64>,
    /// Job deadline override in milliseconds (`?timeout_ms=`).
    pub timeout_ms: Option<u64>,
    /// Portfolio-mode override (`?portfolio=`); the service default
    /// applies when absent.
    pub portfolio: Option<bool>,
}

/// Blocking submit client (`qsmt submit`): POSTs an SMT-LIB script to a
/// running solve service, polls the job until it reaches a terminal
/// state, and returns the job's final status document. A 429 queue-full
/// answer is retried once after honoring the server's `Retry-After`
/// hint (header first, then the JSON body's `retry_after_secs`).
///
/// # Errors
/// Returns an error when the service is unreachable, refuses the job
/// (429 queue-full twice, or 503 draining), the job fails or times out,
/// or the service answers with malformed JSON.
pub fn submit(addr: &str, source: &str, opts: &SubmitOptions) -> Result<Json, String> {
    let mut path = String::from("/solve");
    let mut sep = '?';
    for (key, value) in [
        ("seed", opts.seed),
        ("reads", opts.reads),
        ("timeout_ms", opts.timeout_ms),
    ] {
        if let Some(v) = value {
            path.push(sep);
            path.push_str(&format!("{key}={v}"));
            sep = '&';
        }
    }
    if let Some(portfolio) = opts.portfolio {
        path.push(sep);
        path.push_str(if portfolio {
            "portfolio=1"
        } else {
            "portfolio=0"
        });
    }
    let (mut status, mut headers, mut body) =
        http::http_request_with_headers(addr, "POST", &path, Some(source))?;
    if status == 429 {
        // Backpressure is a hint, not a verdict: wait the advertised
        // interval (capped so a hostile hint cannot hang the client)
        // and retry exactly once before giving up.
        let hint = headers
            .iter()
            .find(|(name, _)| name == "retry-after")
            .and_then(|(_, value)| value.parse::<u64>().ok())
            .or_else(|| {
                qsmt_telemetry::parse(&body)
                    .ok()
                    .and_then(|doc| doc.get("retry_after_secs").and_then(Json::as_u64))
            })
            .unwrap_or(1);
        thread::sleep(Duration::from_secs(hint.clamp(1, 30)));
        (status, headers, body) =
            http::http_request_with_headers(addr, "POST", &path, Some(source))?;
    }
    let _ = headers;
    match status {
        202 => {}
        429 => return Err(format!("server overloaded, retry later (429): {body}")),
        503 => return Err(format!("server is draining (503): {body}")),
        other => return Err(format!("submission refused (HTTP {other}): {body}")),
    }
    let accepted = qsmt_telemetry::parse(&body).map_err(|e| format!("malformed 202 body: {e}"))?;
    let id = accepted
        .get("id")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("202 body lacks a job id: {body}"))?
        .to_string();

    // Poll until terminal. The server enforces the real deadline; the
    // client cap only guards against a vanished server.
    let poll_cap = Duration::from_millis(opts.timeout_ms.unwrap_or(0).max(60_000) * 2);
    let started = Instant::now();
    loop {
        thread::sleep(Duration::from_millis(50));
        let (status, body) = http::http_request(addr, "GET", &format!("/jobs/{id}"), None)?;
        if status != 200 {
            return Err(format!("job {id} lookup answered HTTP {status}: {body}"));
        }
        let doc = qsmt_telemetry::parse(&body).map_err(|e| format!("malformed status: {e}"))?;
        match doc.get("status").and_then(Json::as_str) {
            Some("completed") => return Ok(doc),
            Some("failed") => {
                let error = doc
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown error");
                return Err(format!("job {id} failed: {error}"));
            }
            Some("timed_out") => {
                let site = doc.get("where").and_then(Json::as_str).unwrap_or("unknown");
                return Err(format!("job {id} timed out ({site})"));
            }
            Some("queued" | "running") => {}
            other => return Err(format!("job {id} reported unknown status {other:?}")),
        }
        if started.elapsed() > poll_cap {
            return Err(format!("gave up polling job {id} after {poll_cap:?}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exercise_covers_every_subsystem() {
        let registry = Registry::new();
        let flight = FlightRecorder::new(64);
        exercise(&registry, &flight, 7);
        let text = registry.render_prometheus();
        for sampler in [
            "simulated-annealing",
            "simulated-quantum-annealing",
            "parallel-tempering",
            "population-annealing",
            "tabu-search",
            "steepest-descent",
        ] {
            assert!(
                text.contains(&format!("sampler=\"{sampler}\"")),
                "missing series for {sampler} in:\n{text}"
            );
        }
        for series in [
            "qsmt_pt_swap_attempts_total",
            "qsmt_population_final_ess",
            "qsmt_tabu_aspiration_hits_total",
            "qsmt_qpu_broken_chains_total",
            "qsmt_qpu_chain_slots_total",
            "qsmt_proposal_latency_ns_bucket",
            "qsmt_accept_path_total",
        ] {
            assert!(text.contains(series), "missing {series} in:\n{text}");
        }
        assert!(!flight.is_empty(), "exercise must mark the flight recorder");
    }

    #[test]
    fn exercise_is_deterministic_per_seed() {
        let a = Registry::new();
        let b = Registry::new();
        let f = FlightRecorder::new(8);
        exercise(&a, &f, 3);
        exercise(&b, &f, 3);
        // Latency histograms time real clocks, so compare a timing-free
        // series instead of the whole rendering.
        assert_eq!(
            a.counter_value(
                "qsmt_sampler_accepted_total",
                &[("sampler", "simulated-annealing")]
            ),
            b.counter_value(
                "qsmt_sampler_accepted_total",
                &[("sampler", "simulated-annealing")]
            ),
        );
    }

    #[test]
    fn serve_answers_and_honors_request_cap() {
        // Bind on an OS-assigned port in-process, scrape it, and let the
        // request cap terminate the loop.
        let registry = qsmt_metrics::global();
        let flight = qsmt_metrics::global_flight();
        exercise(registry, flight, 1);
        let svc = Arc::new(Service::new(&ServeConfig::default()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server_svc = Arc::clone(&svc);
        let server = thread::spawn(move || {
            for s in listener.incoming().take(3).flatten() {
                service::handle_connection(s, &server_svc);
            }
        });
        let metrics = fetch(&addr.to_string(), "/metrics").unwrap();
        assert!(metrics.contains("# TYPE qsmt_sampler_proposals_total counter"));
        let flight_body = fetch(&addr.to_string(), "/flight").unwrap();
        assert!(flight_body.contains("\"events\""));
        assert!(fetch(&addr.to_string(), "/nope").is_err());
        server.join().unwrap();
    }
}
