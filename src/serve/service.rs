//! The concurrent solve service behind `qsmt serve`.
//!
//! Architecture: a bounded job queue (`Mutex<VecDeque>` + `Condvar`)
//! drained by a fixed worker pool. Each worker runs the ordinary
//! [`Script`] → [`StringSolver`] pipeline with a per-job seed and a
//! per-job deadline; the deadline trips a [`StopFlag`] that the
//! annealing sweep loops poll, so cancellation lands mid-anneal without
//! poisoning RNG streams (an un-tripped flag is bit-identical to no
//! flag at all — pinned by sampler tests).
//!
//! Backpressure is explicit: when the queue is full, `POST /solve`
//! answers `429 Too Many Requests` with a `Retry-After` hint instead of
//! buffering unboundedly. Draining (SIGINT, `POST /shutdown`, or the
//! `--max-requests` cap) stops intake with `503`, finishes every
//! accepted job, flushes metrics, and prints a one-line summary that
//! accounts for every job the service ever accepted.

use super::http::{read_request, respond, respond_with, Request};
use qsmt_core::{SolveCache, SolveOptions, StringSolver};
use qsmt_metrics::{FlightRecorder, Registry};
use qsmt_qubo::StopFlag;
use qsmt_smtlib::Script;
use qsmt_telemetry::{Json, RunReport};
use qsmt_trace::{RunStore, TraceId};
use std::collections::{HashMap, VecDeque};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Hard ceiling on a single job's `reads` override, so one request
/// cannot monopolize a worker for hours.
const MAX_READS: usize = 1_000_000;
/// Hard ceiling on a per-job timeout override (one hour).
const MAX_TIMEOUT_MS: u64 = 3_600_000;
/// Most terminal jobs the job table keeps. Older ones are evicted in
/// finish order and answer 404 like unknown ids, so the table — and the
/// completed reports it holds — stays bounded however long the service
/// runs. Queued and running jobs are never evicted.
const MAX_TERMINAL_JOBS: usize = 1024;

/// Configuration for [`super::serve`] — everything the CLI flags carry.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Base RNG seed; job `n` defaults to `seed + n` unless the request
    /// overrides it with `?seed=`.
    pub seed: u64,
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Bounded queue capacity; a full queue answers 429.
    pub queue_depth: usize,
    /// Default per-job deadline (`?timeout_ms=` overrides per request).
    pub job_timeout: Duration,
    /// Stop after answering this many HTTP requests, then drain
    /// gracefully (the hook the end-to-end tests use).
    pub max_requests: Option<u64>,
    /// Solution cache capacity (entries per level); 0 disables
    /// caching entirely (`--no-cache`). See `docs/CACHING.md`.
    pub cache_entries: usize,
    /// Path of the bounded JSONL run-history store (`--run-store`);
    /// every completed job's report is appended for `qsmt history`.
    /// `None` disables the store.
    pub run_store: Option<String>,
    /// Default solve mode: when true, jobs race a routed portfolio
    /// (`--portfolio`); individual jobs override with `?portfolio=`.
    pub portfolio: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            seed: 0,
            workers: 4,
            queue_depth: 16,
            job_timeout: Duration::from_secs(30),
            max_requests: None,
            cache_entries: 256,
            run_store: None,
            portfolio: false,
        }
    }
}

/// One queued solve request.
struct Job {
    id: u64,
    trace_id: TraceId,
    source: String,
    seed: u64,
    reads: Option<usize>,
    portfolio: bool,
    timeout: Duration,
    submitted: Instant,
    deadline: Instant,
}

/// How a job ended. Every accepted job ends in exactly one of these.
enum Outcome {
    Completed {
        report: Json,
    },
    Failed {
        error: String,
    },
    TimedOut {
        site: &'static str,
        timeout: Duration,
    },
}

impl Outcome {
    fn label(&self) -> &'static str {
        match self {
            Outcome::Completed { .. } => "completed",
            Outcome::Failed { .. } => "failed",
            Outcome::TimedOut { .. } => "timed_out",
        }
    }
}

/// Lifecycle of a job as reported by `GET /jobs/<id>`.
enum JobStatus {
    Queued,
    Running,
    /// Terminal: the [`Outcome`]'s label and the job's status document,
    /// rendered once when the job finished.
    Finished {
        label: &'static str,
        doc: Arc<str>,
    },
}

impl JobStatus {
    fn label(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Finished { label, .. } => label,
        }
    }
}

/// The job table behind `GET /jobs` and `GET /jobs/<id>`.
#[derive(Default)]
struct JobTable {
    /// Latest status of every queued or running job and of the most
    /// recent [`MAX_TERMINAL_JOBS`] terminal ones.
    status: HashMap<u64, JobStatus>,
    /// Terminal job ids in finish order, oldest first.
    finished: VecDeque<u64>,
}

impl JobTable {
    /// Records a terminal status, evicting the oldest terminal job once
    /// more than [`MAX_TERMINAL_JOBS`] are kept.
    fn finish(&mut self, id: u64, status: JobStatus) {
        self.status.insert(id, status);
        self.finished.push_back(id);
        if self.finished.len() > MAX_TERMINAL_JOBS {
            let oldest = self.finished.pop_front().expect("over the cap");
            self.status.remove(&oldest);
        }
    }
}

/// Drain-summary tallies; the accepted count must equal the sum of the
/// three terminal counts once the service has drained.
#[derive(Default)]
struct Tally {
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    timed_out: AtomicU64,
}

/// What `POST /solve` decided to do with a submission.
enum SubmitOutcome {
    Accepted { id: u64, trace_id: TraceId },
    QueueFull { retry_after_secs: u64 },
    Draining,
    BadRequest { error: String },
}

/// Shared state of the solve service: the bounded queue, the job table,
/// and the drain flag. One instance per `qsmt serve` process, shared by
/// the accept loop, the connection handlers, and the worker pool.
pub struct Service {
    registry: &'static Registry,
    flight: &'static FlightRecorder,
    base_seed: u64,
    queue_depth: usize,
    workers: usize,
    job_timeout: Duration,
    queue: Mutex<VecDeque<Job>>,
    queue_ready: Condvar,
    /// Job statuses: every live job and the most recent terminal ones.
    jobs: Mutex<JobTable>,
    draining: AtomicBool,
    next_id: AtomicU64,
    tally: Tally,
    /// Bounded JSONL store completed reports are appended to
    /// (`--run-store`); read back by `qsmt history`.
    run_store: Option<RunStore>,
    /// Flight-ring drop count already published to the counter; the
    /// registry is increment-only, so `/metrics` scrapes publish the
    /// delta since this watermark.
    flight_dropped_published: AtomicU64,
    /// Shared solve cache, `None` when disabled. Every worker consults
    /// the same instance, so a result one worker computed answers exact
    /// repeats on any other worker without sampling.
    cache: Option<Arc<SolveCache>>,
    /// Whether jobs race a routed portfolio by default (`--portfolio`);
    /// `?portfolio=` overrides per job.
    portfolio_default: bool,
    /// The portfolio every portfolio-mode job races: default router plus
    /// the classical baseline member.
    portfolio: qsmt_core::Portfolio,
}

impl Service {
    /// Builds the service against the global registry and flight
    /// recorder and registers HELP text for its metric family.
    pub fn new(config: &ServeConfig) -> Self {
        let registry = qsmt_metrics::global();
        for (name, help) in [
            (
                "qsmt_serve_queue_depth",
                "Jobs waiting in the bounded solve queue.",
            ),
            (
                "qsmt_serve_jobs_accepted_total",
                "Solve jobs admitted to the queue.",
            ),
            (
                "qsmt_serve_jobs_rejected_total",
                "Solve jobs refused with 429 because the queue was full.",
            ),
            (
                "qsmt_serve_jobs_completed_total",
                "Solve jobs that ran to completion.",
            ),
            (
                "qsmt_serve_jobs_failed_total",
                "Solve jobs that errored or panicked.",
            ),
            (
                "qsmt_serve_jobs_timed_out_total",
                "Solve jobs cancelled by their deadline (queued or mid-anneal).",
            ),
            (
                "qsmt_serve_job_wait_us",
                "Time jobs spent queued before a worker picked them up, microseconds.",
            ),
            (
                "qsmt_serve_job_latency_us",
                "Submit-to-terminal-state latency per job, microseconds, by outcome.",
            ),
            (
                "qsmt_serve_http_requests_total",
                "HTTP requests answered, by route.",
            ),
            (
                "qsmt_flight_dropped_total",
                "Flight-recorder events evicted by ring wrap (history silently lost).",
            ),
            (
                "qsmt_sampler_proposals_total",
                "Single-variable moves proposed by jobs' solves, per sampler.",
            ),
            (
                "qsmt_sampler_accepted_total",
                "Proposed moves accepted in jobs' solves, per sampler.",
            ),
            (
                "qsmt_sampler_reads_total",
                "Reads taken by jobs' solves, per sampler.",
            ),
            (
                "qsmt_cache_hits_total",
                "Cache lookups that found a usable entry (exact or shape key)",
            ),
            (
                "qsmt_cache_exact_hits_total",
                "Cache lookups answered verbatim from a cached sample set",
            ),
            (
                "qsmt_cache_warm_starts_total",
                "Cache lookups that seeded a reverse anneal from a cached ground state",
            ),
            (
                "qsmt_cache_misses_total",
                "Cache lookups that found nothing usable",
            ),
            (
                "qsmt_cache_entries",
                "Exact-key result entries currently cached",
            ),
            (
                "qsmt_cache_lookup_us",
                "Cache lookup latency in microseconds",
            ),
            (
                "qsmt_portfolio_routing_decisions_total",
                "Portfolio routing decisions by predicted winner class",
            ),
            (
                "qsmt_portfolio_wins_total",
                "Portfolio races won, by member kind",
            ),
            (
                "qsmt_portfolio_cancelled_losers_total",
                "Portfolio members cancelled after another member won",
            ),
        ] {
            registry.describe(name, help);
        }
        registry.gauge_set("qsmt_serve_queue_depth", &[], 0.0);
        // Materialize the drop counter at 0 so `qsmt watch` sees the
        // series before the first wrap.
        registry.counter_add("qsmt_flight_dropped_total", &[], 0.0);
        Self {
            registry,
            flight: qsmt_metrics::global_flight(),
            base_seed: config.seed,
            queue_depth: config.queue_depth.max(1),
            workers: config.workers.max(1),
            job_timeout: config.job_timeout,
            queue: Mutex::new(VecDeque::new()),
            queue_ready: Condvar::new(),
            jobs: Mutex::new(JobTable::default()),
            draining: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            tally: Tally::default(),
            run_store: config
                .run_store
                .as_ref()
                .map(|path| RunStore::new(path, qsmt_trace::store::DEFAULT_MAX_LINES)),
            flight_dropped_published: AtomicU64::new(0),
            cache: (config.cache_entries > 0)
                .then(|| Arc::new(SolveCache::new(config.cache_entries))),
            portfolio_default: config.portfolio,
            portfolio: crate::default_portfolio(),
        }
    }

    /// Stops intake and wakes every idle worker so the pool can drain.
    pub fn request_drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            self.flight.record("serve.drain_requested", 0.0);
        }
        self.queue_ready.notify_all();
    }

    /// Whether a drain has been requested.
    pub fn drain_requested(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Spawns the worker pool; the returned handles join once the
    /// service drains.
    pub fn spawn_workers(self: &Arc<Self>, workers: usize) -> Vec<thread::JoinHandle<()>> {
        (0..workers.max(1))
            .map(|i| {
                let svc = Arc::clone(self);
                thread::Builder::new()
                    .name(format!("qsmt-worker-{i}"))
                    .spawn(move || svc.worker_loop())
                    .expect("spawn worker thread")
            })
            .collect()
    }

    /// One-line account of everything the service did, printed on
    /// drain. `accepted` always equals `completed + failed + timed_out`
    /// after the pool joins — no accepted job is ever lost.
    pub fn drain_summary(&self) -> String {
        format!(
            "drained: accepted={} completed={} failed={} timed_out={} rejected={}",
            self.tally.accepted.load(Ordering::SeqCst),
            self.tally.completed.load(Ordering::SeqCst),
            self.tally.failed.load(Ordering::SeqCst),
            self.tally.timed_out.load(Ordering::SeqCst),
            self.tally.rejected.load(Ordering::SeqCst),
        )
    }

    fn set_queue_gauge(&self, depth: usize) {
        self.registry
            .gauge_set("qsmt_serve_queue_depth", &[], depth as f64);
    }

    fn submit(&self, req: &Request) -> SubmitOutcome {
        if self.drain_requested() {
            return SubmitOutcome::Draining;
        }
        if req.body.trim().is_empty() {
            return SubmitOutcome::BadRequest {
                error: "empty body; POST an SMT-LIB script".into(),
            };
        }
        let parse_u64 = |key: &str| -> Result<Option<u64>, String> {
            match req.query_param(key) {
                None => Ok(None),
                Some(raw) => raw
                    .parse::<u64>()
                    .map(Some)
                    .map_err(|_| format!("query parameter {key}={raw:?} is not an integer")),
            }
        };
        let (seed, reads, timeout_ms) = match (
            parse_u64("seed"),
            parse_u64("reads"),
            parse_u64("timeout_ms"),
        ) {
            (Ok(s), Ok(r), Ok(t)) => (s, r, t),
            (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
                return SubmitOutcome::BadRequest { error: e }
            }
        };
        let portfolio = match req.query_param("portfolio") {
            None => self.portfolio_default,
            Some("1" | "true" | "on") => true,
            Some("0" | "false" | "off") => false,
            Some(raw) => {
                return SubmitOutcome::BadRequest {
                    error: format!("query parameter portfolio={raw:?} is not a boolean"),
                }
            }
        };
        let reads = reads.map(|r| (r as usize).clamp(1, MAX_READS));
        let timeout = Duration::from_millis(
            timeout_ms
                .unwrap_or(self.job_timeout.as_millis() as u64)
                .clamp(1, MAX_TIMEOUT_MS),
        );

        let mut queue = self.queue.lock().expect("queue lock");
        if queue.len() >= self.queue_depth {
            drop(queue);
            self.tally.rejected.fetch_add(1, Ordering::SeqCst);
            self.registry
                .counter_add("qsmt_serve_jobs_rejected_total", &[], 1.0);
            // Hint: roughly one queue slot should free up per job
            // timeout in the worst case; 1s is the floor so clients
            // back off at all.
            let retry_after_secs = self.job_timeout.as_secs().clamp(1, 30);
            return SubmitOutcome::QueueFull { retry_after_secs };
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst) + 1;
        let trace_id = self.trace_id(id);
        // Record the job before it becomes poppable: once it is queued a
        // fast worker may finish it at once, and a late `Queued` insert
        // would overwrite its terminal status.
        self.jobs
            .lock()
            .expect("jobs lock")
            .status
            .insert(id, JobStatus::Queued);
        let now = Instant::now();
        queue.push_back(Job {
            id,
            trace_id,
            source: req.body.clone(),
            seed: seed.unwrap_or_else(|| self.base_seed.wrapping_add(id)),
            reads,
            portfolio,
            timeout,
            submitted: now,
            deadline: now + timeout,
        });
        let depth = queue.len();
        drop(queue);
        self.tally.accepted.fetch_add(1, Ordering::SeqCst);
        self.registry
            .counter_add("qsmt_serve_jobs_accepted_total", &[], 1.0);
        self.set_queue_gauge(depth);
        self.queue_ready.notify_one();
        SubmitOutcome::Accepted { id, trace_id }
    }

    /// The trace id of job `id`: one trace per job, derived from the id
    /// (distinct across jobs) and mixed with the base seed so concurrent
    /// instances don't collide. A pure function, so nothing stores it.
    fn trace_id(&self, id: u64) -> TraceId {
        TraceId::derive(self.base_seed.rotate_left(32) ^ id)
    }

    /// One job's status document, or `None` for an unknown (or evicted)
    /// id. A terminal job's document was rendered when it finished;
    /// a queued or running one is rendered here, outside the lock.
    fn status_json(&self, id: u64) -> Option<Arc<str>> {
        let label = match self.jobs.lock().expect("jobs lock").status.get(&id)? {
            JobStatus::Finished { doc, .. } => return Some(Arc::clone(doc)),
            live => live.label(),
        };
        Some(self.render_status(id, label, Vec::new()).into())
    }

    /// Renders a status document: the job's id, status label and trace
    /// id, plus `detail` (a terminal outcome's fields).
    fn render_status(&self, id: u64, label: &str, detail: Vec<(&'static str, Json)>) -> String {
        let mut pairs = vec![
            ("id", Json::from(format!("job-{id}"))),
            ("status", Json::from(label)),
            ("trace_id", Json::from(self.trace_id(id).to_string())),
        ];
        pairs.extend(detail);
        Json::obj(pairs).pretty()
    }

    /// Renders the job-table summary for `GET /jobs`.
    fn jobs_json(&self) -> String {
        // Lock order is queue before jobs (`submit` records a job while
        // holding the queue), so read the depth first.
        let queue_depth = self.queue.lock().expect("queue lock").len();
        let jobs = self.jobs.lock().expect("jobs lock");
        let mut entries: Vec<(u64, &'static str)> =
            jobs.status.iter().map(|(id, s)| (*id, s.label())).collect();
        entries.sort_unstable();
        let list = entries
            .into_iter()
            .map(|(id, label)| {
                Json::obj([
                    ("id", Json::from(format!("job-{id}"))),
                    ("status", Json::from(label)),
                ])
            })
            .collect();
        Json::obj([
            ("jobs", Json::Arr(list)),
            ("queue_depth", Json::from(queue_depth)),
            ("draining", Json::from(self.drain_requested())),
        ])
        .pretty()
    }

    /// Worker thread body: pop jobs until the queue is empty *and* a
    /// drain was requested. Draining still finishes every queued job —
    /// accepted work is never dropped.
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock().expect("queue lock");
                loop {
                    if let Some(job) = queue.pop_front() {
                        self.set_queue_gauge(queue.len());
                        break Some(job);
                    }
                    if self.drain_requested() {
                        break None;
                    }
                    queue = self.queue_ready.wait(queue).expect("queue wait");
                }
            };
            match job {
                Some(job) => self.run_job(&job),
                None => return,
            }
        }
    }

    /// Runs one job to a terminal state: solve, fail, or time out.
    fn run_job(&self, job: &Job) {
        let wait_us = job.submitted.elapsed().as_micros() as u64;
        self.registry
            .histogram_observe("qsmt_serve_job_wait_us", &[], wait_us as f64);

        // A job whose deadline expired while it sat in the queue never
        // starts sampling.
        if Instant::now() >= job.deadline {
            self.finish(
                job,
                Outcome::TimedOut {
                    site: "queue",
                    timeout: job.timeout,
                },
            );
            return;
        }
        self.jobs
            .lock()
            .expect("jobs lock")
            .status
            .insert(job.id, JobStatus::Running);
        self.flight
            .record_detail("serve.job_start", job.id as f64, &format!("job-{}", job.id));

        // Deadline timer: trips the stop flag if the solve outlives its
        // budget; the worker signals `done` to retire it early.
        let stop = StopFlag::new();
        let done = Arc::new((Mutex::new(false), Condvar::new()));
        let timer = {
            let stop = stop.clone();
            let done = Arc::clone(&done);
            let deadline = job.deadline;
            thread::spawn(move || {
                let (finished, cv) = &*done;
                let mut finished = finished.lock().expect("deadline lock");
                while !*finished {
                    let now = Instant::now();
                    if now >= deadline {
                        stop.stop();
                        return;
                    }
                    let (guard, _timeout) = cv
                        .wait_timeout(finished, deadline - now)
                        .expect("deadline wait");
                    finished = guard;
                }
            })
        };

        // The trace guard lives inside the unwind boundary: its Drop
        // drains this worker's span buffer into the registry even when
        // the solver panics mid-stage.
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _trace = qsmt_trace::enter(job.trace_id, &format!("job-{}", job.id));
            self.solve_script(job, &stop)
        }));

        let (finished, cv) = &*done;
        *finished.lock().expect("deadline lock") = true;
        cv.notify_all();
        let _ = timer.join();

        let outcome = if stop.is_stopped() {
            // The deadline fired while sampling; whatever came back is a
            // partial anneal, so the job is timed out, not completed.
            Outcome::TimedOut {
                site: "sampling",
                timeout: job.timeout,
            }
        } else {
            match result {
                Ok(Ok(report)) => Outcome::Completed { report },
                Ok(Err(error)) => Outcome::Failed { error },
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
                        .unwrap_or_else(|| "solver panicked".to_string());
                    Outcome::Failed {
                        error: format!("solver panicked: {msg}"),
                    }
                }
            }
        };
        self.finish(job, outcome);
    }

    /// The actual solve: parse, then one [`Script::run`] with absint and
    /// probes on — racing the portfolio when the job asked for it — with
    /// the job's seed/reads, the cancellation flag, and the shared solve
    /// cache, producing a schema-v10 [`RunReport`] document carrying the
    /// job's trace id. Its solves are published first.
    fn solve_script(&self, job: &Job, stop: &StopFlag) -> Result<Json, String> {
        let script = Script::parse(&job.source).map_err(|e| e.to_string())?;
        let mut solver = StringSolver::with_defaults()
            .with_seed(job.seed)
            .with_stop(stop.clone());
        if let Some(reads) = job.reads {
            solver = solver.with_reads(reads);
        }
        if let Some(cache) = &self.cache {
            solver = solver.with_cache(Arc::clone(cache));
        }
        let opts = SolveOptions {
            absint: true,
            portfolio: job.portfolio.then_some(&self.portfolio),
            probes: true,
        };
        let started = Instant::now();
        let run = script.run(&solver, &opts).map_err(|e| e.to_string())?;
        let report = run.into_report(
            format!("<job-{}>", job.id),
            solver.sampler_name(),
            started.elapsed().as_micros() as u64,
            Some(job.trace_id.get()),
        );
        self.publish(&report);
        Ok(report.to_json())
    }

    /// Publishes a job's solves to the sampler, cache and portfolio
    /// series, one `goals[].solves[]` entry at a time. This is the only
    /// writer of those series, so `/metrics` counts exactly what the
    /// stored reports say ran. Exact cache hits (sampler `"cache"`)
    /// replay a stored sample set without sampling, so they add no
    /// sampler work.
    fn publish(&self, report: &RunReport) {
        let registry = self.registry;
        for solve in report.goals.iter().flat_map(|goal| &goal.solves) {
            let sampling = &solve.sampling;
            if sampling.sampler != "cache" {
                let labels = [("sampler", sampling.sampler.as_str())];
                if let Some(p) = sampling.proposals {
                    registry.counter_add("qsmt_sampler_proposals_total", &labels, p as f64);
                }
                if let Some(a) = sampling.accepted {
                    registry.counter_add("qsmt_sampler_accepted_total", &labels, a as f64);
                }
                registry.counter_add("qsmt_sampler_reads_total", &labels, sampling.reads as f64);
            }
            if let Some(cache) = &solve.cache {
                registry.histogram_observe("qsmt_cache_lookup_us", &[], cache.lookup_us as f64);
                let counters: &[&str] = match cache.outcome.as_str() {
                    "exact-hit" => &["qsmt_cache_hits_total", "qsmt_cache_exact_hits_total"],
                    "warm-start" => &["qsmt_cache_hits_total", "qsmt_cache_warm_starts_total"],
                    _ => &["qsmt_cache_misses_total"],
                };
                for name in counters {
                    registry.counter_add(name, &[], 1.0);
                }
            }
            if let Some(race) = &solve.portfolio {
                registry.counter_add(
                    "qsmt_portfolio_routing_decisions_total",
                    &[("predicted", race.predicted.as_str())],
                    1.0,
                );
                registry.counter_add(
                    "qsmt_portfolio_wins_total",
                    &[("member", race.winner.as_str())],
                    1.0,
                );
                let cancelled = race
                    .members
                    .iter()
                    .filter(|m| m.outcome == "cancelled")
                    .count();
                if cancelled > 0 {
                    registry.counter_add(
                        "qsmt_portfolio_cancelled_losers_total",
                        &[],
                        cancelled as f64,
                    );
                }
            }
        }
    }

    /// Records a terminal state: tallies, counters, latency, run store,
    /// and the job table, which keeps the status document rendered here
    /// so that polls only copy it.
    fn finish(&self, job: &Job, outcome: Outcome) {
        let label = outcome.label();
        let (tally, counter) = match outcome {
            Outcome::Completed { .. } => (&self.tally.completed, "qsmt_serve_jobs_completed_total"),
            Outcome::Failed { .. } => (&self.tally.failed, "qsmt_serve_jobs_failed_total"),
            Outcome::TimedOut { .. } => (&self.tally.timed_out, "qsmt_serve_jobs_timed_out_total"),
        };
        tally.fetch_add(1, Ordering::SeqCst);
        self.registry.counter_add(counter, &[], 1.0);
        self.registry.histogram_observe(
            "qsmt_serve_job_latency_us",
            &[("outcome", label)],
            job.submitted.elapsed().as_micros() as f64,
        );
        self.flight.record_detail(
            &format!("serve.job_{label}"),
            job.id as f64,
            &format!("job-{}", job.id),
        );
        let detail = match outcome {
            Outcome::Completed { report } => {
                // Completed reports feed the run-history store; a full
                // disk or bad path degrades to a flight event, never a
                // failed job.
                if let Some(store) = &self.run_store {
                    if let Err(e) = store.append(&report) {
                        self.flight.record_detail(
                            "serve.run_store_error",
                            job.id as f64,
                            &e.to_string(),
                        );
                    }
                }
                vec![("report", report)]
            }
            Outcome::Failed { error } => vec![("error", Json::from(error))],
            Outcome::TimedOut { site, timeout } => vec![
                ("where", Json::from(site)),
                ("timeout_ms", Json::from(timeout.as_millis() as u64)),
            ],
        };
        let doc = self.render_status(job.id, label, detail).into();
        self.jobs
            .lock()
            .expect("jobs lock")
            .finish(job.id, JobStatus::Finished { label, doc });
    }

    /// Publishes newly observed flight-ring drops as counter increments
    /// (the registry is increment-only, so scrapes publish the delta).
    fn publish_flight_dropped(&self) {
        let total = self.flight.dropped_total();
        let prev = self.flight_dropped_published.swap(total, Ordering::SeqCst);
        if total > prev {
            self.registry
                .counter_add("qsmt_flight_dropped_total", &[], (total - prev) as f64);
        }
    }
}

/// Serves one accepted connection: parse, route, respond, close.
pub fn handle_connection(mut stream: TcpStream, svc: &Service) {
    let Some(req) = read_request(&mut stream) else {
        respond(
            &mut stream,
            "400 Bad Request",
            "text/plain",
            "bad request\n",
        );
        return;
    };
    let route = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/metrics") => "metrics",
        ("GET", "/flight") => "flight",
        ("GET", "/healthz") => "healthz",
        ("GET", "/traces") => "traces",
        ("GET", "/jobs") => "jobs",
        // The trace route must outrank the generic job arm, which would
        // otherwise swallow `/jobs/<id>/trace`.
        ("GET", p) if p.starts_with("/jobs/") && p.ends_with("/trace") => "job_trace",
        ("GET", p) if p.starts_with("/jobs/") => "job",
        ("POST", "/solve") => "solve",
        ("POST", "/shutdown") => "shutdown",
        _ => "other",
    };
    svc.registry
        .counter_add("qsmt_serve_http_requests_total", &[("route", route)], 1.0);
    match route {
        "metrics" => {
            svc.publish_flight_dropped();
            // Read from the cache's own state at scrape time.
            if let Some(cache) = &svc.cache {
                svc.registry
                    .gauge_set("qsmt_cache_entries", &[], cache.len() as f64);
            }
            respond(
                &mut stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &svc.registry.render_prometheus(),
            );
        }
        "flight" => respond(
            &mut stream,
            "200 OK",
            "application/json",
            &svc.flight.to_json().pretty(),
        ),
        "healthz" => {
            // Readiness with capacity context: load balancers get the
            // live queue depth and worker count, not a bare 200.
            let body = Json::obj([
                ("status", Json::from("ok")),
                (
                    "queue_depth",
                    Json::from(svc.queue.lock().expect("queue lock").len()),
                ),
                ("workers", Json::from(svc.workers)),
                ("draining", Json::from(svc.drain_requested())),
            ])
            .pretty();
            respond(&mut stream, "200 OK", "application/json", &body);
        }
        "traces" => respond(
            &mut stream,
            "200 OK",
            "application/json",
            &qsmt_trace::registry().index_json().pretty(),
        ),
        "job_trace" => {
            let raw = req.path["/jobs/".len()..]
                .strip_suffix("/trace")
                .unwrap_or("")
                .trim_start_matches("job-");
            let doc = raw
                .parse::<u64>()
                .ok()
                .filter(|id| svc.jobs.lock().expect("jobs lock").status.contains_key(id))
                .and_then(|id| qsmt_trace::registry().chrome_json(svc.trace_id(id)));
            match doc {
                Some(doc) => respond(&mut stream, "200 OK", "application/json", &doc.pretty()),
                None => respond(
                    &mut stream,
                    "404 Not Found",
                    "application/json",
                    &format!("{{\"error\": \"no trace for job {raw:?} (unknown job or evicted trace)\"}}"),
                ),
            }
        }
        "jobs" => respond(&mut stream, "200 OK", "application/json", &svc.jobs_json()),
        "job" => {
            let raw = req.path["/jobs/".len()..].trim_start_matches("job-");
            match raw.parse::<u64>().ok().and_then(|id| svc.status_json(id)) {
                Some(body) => respond(&mut stream, "200 OK", "application/json", &body),
                None => respond(
                    &mut stream,
                    "404 Not Found",
                    "application/json",
                    &format!("{{\"error\": \"unknown job {raw:?}\"}}"),
                ),
            }
        }
        "solve" => match svc.submit(&req) {
            SubmitOutcome::Accepted { id, trace_id } => respond(
                &mut stream,
                "202 Accepted",
                "application/json",
                &Json::obj([
                    ("id", Json::from(format!("job-{id}"))),
                    ("status", Json::from("queued")),
                    ("trace_id", Json::from(trace_id.to_string())),
                ])
                .pretty(),
            ),
            SubmitOutcome::QueueFull { retry_after_secs } => respond_with(
                &mut stream,
                "429 Too Many Requests",
                "application/json",
                &[("Retry-After", &retry_after_secs.to_string())],
                &Json::obj([
                    ("error", Json::from("queue full")),
                    ("retry_after_secs", Json::from(retry_after_secs)),
                ])
                .pretty(),
            ),
            SubmitOutcome::Draining => respond(
                &mut stream,
                "503 Service Unavailable",
                "application/json",
                "{\"error\": \"draining\"}",
            ),
            SubmitOutcome::BadRequest { error } => respond(
                &mut stream,
                "400 Bad Request",
                "application/json",
                &Json::obj([("error", Json::from(error))]).pretty(),
            ),
        },
        "shutdown" => {
            svc.request_drain();
            respond(&mut stream, "200 OK", "text/plain", "draining\n");
        }
        _ => respond(&mut stream, "404 Not Found", "text/plain", "not found\n"),
    }
}

static SHUTDOWN_SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_shutdown_signal(_signum: i32) {
    SHUTDOWN_SIGNALLED.store(true, Ordering::SeqCst);
}

/// Installs SIGINT/SIGTERM handlers that flip the drain flag checked by
/// the accept loop (no libc crate: `std` already links the platform C
/// library, so the raw `signal(2)` symbol is available).
#[cfg(unix)]
pub fn install_shutdown_handler() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `on_shutdown_signal` is async-signal-safe — it only
    // stores to an atomic — and `signal` is in every libc std links.
    unsafe {
        signal(SIGINT, on_shutdown_signal);
        signal(SIGTERM, on_shutdown_signal);
    }
}

/// No-op on platforms without POSIX signals; `POST /shutdown` and
/// `--max-requests` still drain.
#[cfg(not(unix))]
pub fn install_shutdown_handler() {}

/// Whether SIGINT/SIGTERM arrived since the handler was installed.
pub fn shutdown_signalled() -> bool {
    SHUTDOWN_SIGNALLED.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(method: &str, path: &str, body: &str) -> Request {
        let (path, query) = match path.split_once('?') {
            Some((p, q)) => (
                p.to_string(),
                q.split('&')
                    .map(|kv| {
                        let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
                        (k.to_string(), v.to_string())
                    })
                    .collect(),
            ),
            None => (path.to_string(), Vec::new()),
        };
        Request {
            method: method.into(),
            path,
            query,
            body: body.into(),
        }
    }

    const TINY: &str = "(set-logic QF_S)\n(declare-const x String)\n(assert (= x (str.rev \"ab\")))\n(check-sat)\n(get-model)\n";

    #[test]
    fn submit_solve_and_report_round_trip() {
        let svc = Arc::new(Service::new(&ServeConfig {
            queue_depth: 4,
            ..ServeConfig::default()
        }));
        let SubmitOutcome::Accepted { id, trace_id } =
            svc.submit(&request("POST", "/solve?seed=7&reads=8", TINY))
        else {
            panic!("submission should be accepted");
        };
        // Drain synchronously: run the worker loop on this thread.
        svc.request_drain();
        svc.worker_loop();
        let body = svc.status_json(id).expect("job is known");
        let doc = qsmt_telemetry::parse(&body).expect("status is JSON");
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("completed"));
        let report = doc.get("report").expect("completed jobs embed a report");
        assert_eq!(
            report.get("schema_version").and_then(Json::as_u64),
            Some(u64::from(RunReport::SCHEMA_VERSION))
        );
        assert_eq!(report.get("status").and_then(Json::as_str), Some("sat"));
        // The trace id threads end to end: status body, embedded report,
        // and the registry's Chrome export all carry the submit-time id.
        let hex = trace_id.to_string();
        assert_eq!(
            doc.get("trace_id").and_then(Json::as_str),
            Some(hex.as_str())
        );
        assert_eq!(
            report.get("trace_id").and_then(Json::as_str),
            Some(hex.as_str())
        );
        let chrome = qsmt_trace::registry()
            .chrome_json(trace_id)
            .expect("job trace registered");
        let text = chrome.to_string();
        for stage in ["absint", "goal x", "compile", "sample", "read 0", "select"] {
            assert!(text.contains(&format!("\"{stage}\"")), "missing {stage}");
        }
        assert_eq!(
            svc.drain_summary(),
            "drained: accepted=1 completed=1 failed=0 timed_out=0 rejected=0"
        );
    }

    #[test]
    fn full_queue_rejects_with_retry_hint() {
        let svc = Service::new(&ServeConfig {
            queue_depth: 1,
            ..ServeConfig::default()
        });
        assert!(matches!(
            svc.submit(&request("POST", "/solve", TINY)),
            SubmitOutcome::Accepted { .. }
        ));
        let SubmitOutcome::QueueFull { retry_after_secs } =
            svc.submit(&request("POST", "/solve", TINY))
        else {
            panic!("second submission should hit the bounded queue");
        };
        assert!(retry_after_secs >= 1);
    }

    #[test]
    fn draining_service_refuses_new_work() {
        let svc = Service::new(&ServeConfig::default());
        svc.request_drain();
        assert!(matches!(
            svc.submit(&request("POST", "/solve", TINY)),
            SubmitOutcome::Draining
        ));
    }

    #[test]
    fn bad_query_parameters_are_rejected_not_ignored() {
        let svc = Service::new(&ServeConfig::default());
        assert!(matches!(
            svc.submit(&request("POST", "/solve?seed=banana", TINY)),
            SubmitOutcome::BadRequest { .. }
        ));
        assert!(matches!(
            svc.submit(&request("POST", "/solve", "")),
            SubmitOutcome::BadRequest { .. }
        ));
    }

    #[test]
    fn queued_job_past_deadline_times_out_without_sampling() {
        let svc = Arc::new(Service::new(&ServeConfig::default()));
        let SubmitOutcome::Accepted { id, .. } =
            svc.submit(&request("POST", "/solve?timeout_ms=1", TINY))
        else {
            panic!("submission should be accepted");
        };
        std::thread::sleep(Duration::from_millis(20));
        svc.request_drain();
        svc.worker_loop();
        let body = svc.status_json(id).expect("job is known");
        let doc = qsmt_telemetry::parse(&body).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("timed_out"));
        assert_eq!(doc.get("where").and_then(Json::as_str), Some("queue"));
    }

    #[test]
    fn terminal_jobs_beyond_the_cap_are_evicted_oldest_first() {
        let svc = Service::new(&ServeConfig::default());
        let SubmitOutcome::Accepted { id: queued, .. } =
            svc.submit(&request("POST", "/solve", TINY))
        else {
            panic!("submission should be accepted");
        };
        // Finish synthetic jobs straight through `finish`, no solving,
        // cycling through the three terminal states.
        let evicted = 5u64;
        let first = queued + 1;
        let last = queued + MAX_TERMINAL_JOBS as u64 + evicted;
        for id in first..=last {
            let now = Instant::now();
            let job = Job {
                id,
                trace_id: svc.trace_id(id),
                source: String::new(),
                seed: id,
                reads: None,
                portfolio: false,
                timeout: Duration::from_millis(1),
                submitted: now,
                deadline: now,
            };
            let outcome = match id % 3 {
                0 => Outcome::Completed { report: Json::Null },
                1 => Outcome::Failed {
                    error: "synthetic".into(),
                },
                _ => Outcome::TimedOut {
                    site: "queue",
                    timeout: job.timeout,
                },
            };
            svc.finish(&job, outcome);
        }
        for id in first..first + evicted {
            assert!(svc.status_json(id).is_none(), "job-{id} not evicted");
        }
        for id in first + evicted..=last {
            assert!(svc.status_json(id).is_some(), "job-{id} evicted early");
        }
        // The queued job outlives every eviction.
        let doc =
            qsmt_telemetry::parse(&svc.status_json(queued).expect("queued job kept")).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("queued"));
        let count = |r: u64| (first..=last).filter(|id| id % 3 == r).count();
        assert_eq!(
            svc.drain_summary(),
            format!(
                "drained: accepted=1 completed={} failed={} timed_out={} rejected=0",
                count(0),
                count(1),
                count(2)
            )
        );
    }

    #[test]
    fn a_job_is_recorded_before_a_worker_can_pop_it() {
        let svc = Arc::new(Service::new(&ServeConfig::default()));
        // Hold the job table so the submitter stops wherever it records
        // the job; the queue must not hold an unrecorded job meanwhile.
        let jobs = svc.jobs.lock().expect("jobs lock");
        let submitter = {
            let svc = Arc::clone(&svc);
            thread::spawn(move || {
                matches!(
                    svc.submit(&request("POST", "/solve", TINY)),
                    SubmitOutcome::Accepted { .. }
                )
            })
        };
        let watch = Instant::now();
        while watch.elapsed() < Duration::from_millis(50) {
            if let Ok(queue) = svc.queue.try_lock() {
                assert!(queue.is_empty(), "job poppable before it was recorded");
            }
            thread::yield_now();
        }
        drop(jobs);
        assert!(submitter.join().expect("submitter thread"));
        assert_eq!(svc.queue.lock().expect("queue lock").len(), 1);
    }
}
