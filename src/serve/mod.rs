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
//! Every sampler, cache and portfolio series on `/metrics` comes from
//! real jobs: each job's run report adds its solves' proposals,
//! accepted moves and reads to `qsmt_sampler_*_total{sampler}` (exact
//! cache hits sample nothing and add nothing), their cache lookups to
//! `qsmt_cache_*`, and their races to `qsmt_portfolio_*`. The solver
//! crates write no metrics. The bound address is printed as
//! `metrics listening on http://<addr>` (port 0 is supported and
//! resolves to the kernel-assigned port), which is what `qsmt watch`,
//! `qsmt submit`, and the end-to-end tests parse.
//!
//! Metric names, the job lifecycle, and the scrape walkthrough are
//! catalogued in `docs/OBSERVABILITY.md`.

pub mod http;
mod service;

pub use service::{ServeConfig, Service};

use qsmt_telemetry::Json;
use std::net::TcpListener;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Runs the solve service: bind the address, print the resolved
/// endpoint, spawn the worker pool, then serve until
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
    // Nonblocking accept so the loop can check the drain triggers
    // between connections; an idle loop waits for the next connection
    // in `wait_for_connection`, at most 5 ms per check.
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
                wait_for_connection(&listener, Duration::from_millis(5));
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

/// Blocks until `listener` has a connection to accept or `timeout`
/// passes, whichever comes first. A signal that lands on this thread
/// ends the wait early (`poll` fails with `EINTR` even under
/// `SA_RESTART`), so the accept loop re-checks its drain triggers at
/// once.
#[cfg(unix)]
fn wait_for_connection(listener: &TcpListener, timeout: Duration) {
    use std::os::unix::io::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[cfg(any(target_os = "linux", target_os = "android"))]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type Nfds = std::ffi::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
    }
    const POLLIN: i16 = 0x1;
    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    // SAFETY: `fd` is one initialized `struct pollfd` that lives across
    // the call, `nfds` is 1, and `poll` is in every libc std links. Its
    // result needs no check: readiness, a timeout and an error alike
    // return to the accept loop, which retries `accept`.
    unsafe {
        poll(&mut fd, 1, timeout_ms);
    }
}

/// Platforms without `poll(2)` sleep out the timeout instead.
#[cfg(not(unix))]
fn wait_for_connection(_listener: &TcpListener, timeout: Duration) {
    thread::sleep(timeout);
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
    for delay in poll_delays().take_while(|_| started.elapsed() <= poll_cap) {
        thread::sleep(delay);
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
    }
    Err(format!("gave up polling job {id} after {poll_cap:?}"))
}

/// The delays between `qsmt submit`'s job polls: 1 ms, doubling up to
/// 50 ms. A job that finishes at once is seen within a few ms, and a
/// long solve is still polled only 20 times a second.
fn poll_delays() -> impl Iterator<Item = Duration> {
    std::iter::successors(Some(Duration::from_millis(1)), |delay| {
        Some((*delay * 2).min(Duration::from_millis(50)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_poll_delays_double_from_1_ms_up_to_50_ms() {
        let delays: Vec<u128> = poll_delays().take(9).map(|d| d.as_millis()).collect();
        assert_eq!(delays, [1, 2, 4, 8, 16, 32, 50, 50, 50]);
    }

    #[test]
    fn serve_answers_and_honors_request_cap() {
        // Bind on an OS-assigned port in-process, scrape it, and let the
        // request cap terminate the loop.
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
        assert!(metrics.contains("# TYPE qsmt_serve_queue_depth gauge"));
        let flight_body = fetch(&addr.to_string(), "/flight").unwrap();
        assert!(flight_body.contains("\"events\""));
        assert!(fetch(&addr.to_string(), "/nope").is_err());
        server.join().unwrap();
    }
}
