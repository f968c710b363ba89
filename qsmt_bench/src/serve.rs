//! Drives `qsmt serve` over HTTP: server lifecycle, closed-loop clients
//! and `/metrics` scrapes.

use crate::generate::Request;
use crate::http;
use crate::json::{self, Json};
use crate::layers::Tracer;
use crate::oracle::{self, Judgement};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client threads, one open connection each: the container's `nproc`.
pub const CLIENTS: usize = 2;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Delay before each status poll. `qsmt submit` waits 50 ms, which would
/// hide every solver change under its quantum.
const POLL_DELAY: Duration = Duration::from_millis(2);
/// The per-job limit a request carries (`?timeout_ms=`).
pub const JOB_TIMEOUT_MS: u64 = 10_000;
/// Client-side give-up points for one job. With two clients and two
/// workers a job never waits for a worker (queue waits measure ~0.2 ms),
/// so one still `queued` after [`QUEUED_CAP`] has lost its status (see
/// README.md, "Audit of the current solver"); a `running` one is cut by
/// its deadline well before [`RUNNING_CAP`].
const QUEUED_CAP: Duration = Duration::from_secs(2);
const RUNNING_CAP: Duration = Duration::from_millis(JOB_TIMEOUT_MS + 2_000);

/// A running `qsmt serve`; killed and reaped on drop unless shut down.
pub struct Server {
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

/// The `drained:` line the server prints on shutdown.
#[derive(Debug, Default, PartialEq)]
pub struct Drained {
    pub accepted: u64,
    pub completed: u64,
    pub failed: u64,
    pub timed_out: u64,
    pub rejected: u64,
}

impl Drained {
    pub fn parse(line: &str) -> Option<Drained> {
        let mut d = Drained::default();
        for field in line.strip_prefix("drained:")?.split_whitespace() {
            let (k, v) = field.split_once('=')?;
            let v: u64 = v.parse().ok()?;
            match k {
                "accepted" => d.accepted = v,
                "completed" => d.completed = v,
                "failed" => d.failed = v,
                "timed_out" => d.timed_out = v,
                "rejected" => d.rejected = v,
                _ => {}
            }
        }
        Some(d)
    }
}

impl Server {
    /// Spawns `qsmt serve --workers 2` on a free port and returns it with
    /// its set-up time: spawn to the first `200` from `/healthz`. The rest
    /// of the config, `--seed` included, is the default: the start-up
    /// sampler pass is seeded by it (9–49 ms across seeds), and every job
    /// carries its own `?seed=`.
    pub fn spawn(qsmt: &Path) -> Result<(Server, f64), String> {
        let start = Instant::now();
        let mut child = Command::new(qsmt)
            .args(["serve", "--metrics-addr", "127.0.0.1:0", "--workers"])
            .arg(WORKERS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", qsmt.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut server = Server {
            child: Some(child),
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        server
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("read serve banner: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("metrics listening on http://")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected serve banner {line:?}"))?;
        loop {
            match http::request(server.addr, "GET", "/healthz", "") {
                Ok(r) if r.status == 200 => break,
                _ if start.elapsed() > Duration::from_secs(30) => {
                    return Err("serve never answered /healthz".into())
                }
                _ => std::thread::sleep(Duration::from_micros(200)),
            }
        }
        Ok((server, start.elapsed().as_secs_f64()))
    }

    /// The server's peak resident set (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self.child.as_ref().expect("server is running").id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".into())
    }

    /// `POST /shutdown`, then waits for the drain summary and the exit.
    pub fn shutdown(mut self) -> Result<Drained, String> {
        let r = http::request(self.addr, "POST", "/shutdown", "")?;
        if r.status != 200 {
            return Err(format!("/shutdown answered {}", r.status));
        }
        let mut drained = None;
        let mut line = String::new();
        while self
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("read serve output: {e}"))?
            > 0
        {
            drained = drained.or_else(|| Drained::parse(line.trim()));
            line.clear();
        }
        let status = self
            .child
            .take()
            .expect("server is running")
            .wait()
            .map_err(|e| format!("wait for serve: {e}"))?;
        if !status.success() {
            return Err(format!("serve exited with {status}"));
        }
        drained.ok_or_else(|| "serve printed no drained: line".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One timed job, as the client saw it.
#[derive(Clone, Debug)]
pub struct Job {
    pub index: usize,
    pub portfolio: bool,
    pub latency_ms: f64,
    /// The server answered `202` (the job counts in its drain summary).
    pub accepted: bool,
    /// `None` when the job failed (HTTP error, 429, failed, timed out).
    pub judgement: Option<Judgement>,
    pub error: Option<String>,
    pub submit_rtt_ms: f64,
    pub poll_rtts_ms: Vec<f64>,
    /// The report's `elapsed_us`, in ms.
    pub server_elapsed_ms: Option<f64>,
    pub status_doc_bytes: usize,
}

/// Sends one job and polls it to a terminal state.
fn run_job(addr: SocketAddr, index: usize, req: &Request, t: &mut Tracer) -> Job {
    let mut job = Job {
        index,
        portfolio: req.portfolio,
        latency_ms: 0.0,
        accepted: false,
        judgement: None,
        error: None,
        submit_rtt_ms: 0.0,
        poll_rtts_ms: Vec::new(),
        server_elapsed_ms: None,
        status_doc_bytes: 0,
    };
    let mut path = format!(
        "/solve?seed={}&timeout_ms={JOB_TIMEOUT_MS}",
        req.case.solver_seed
    );
    if req.portfolio {
        path.push_str("&portfolio=1");
    }
    let body = req.case.smt2();
    t.set_trace(index as u64);
    let start = Instant::now();
    let result = t.span("serve.request", |t| -> Result<(), String> {
        let sent = Instant::now();
        let r = http::request(addr, "POST", &path, &body)?;
        let got = Instant::now();
        t.record("serve.submit", sent, got);
        job.submit_rtt_ms = ms(got - sent);
        if r.status != 202 {
            return Err(format!("POST /solve answered {}", r.status));
        }
        job.accepted = true;
        let id = json::parse(&r.body)?
            .get("id")
            .and_then(Json::as_str)
            .ok_or("202 without a job id")?
            .to_string();
        loop {
            std::thread::sleep(POLL_DELAY);
            let sent = Instant::now();
            let r = http::request(addr, "GET", &format!("/jobs/{id}"), "")?;
            let got = Instant::now();
            t.record("serve.poll", sent, got);
            job.poll_rtts_ms.push(ms(got - sent));
            if r.status != 200 {
                return Err(format!("GET /jobs/{id} answered {}", r.status));
            }
            let doc = json::parse(&r.body)?;
            match doc.get("status").and_then(Json::as_str) {
                Some("completed") => {
                    job.status_doc_bytes = r.body.len();
                    let report = doc.get("report").ok_or("completed job without a report")?;
                    job.server_elapsed_ms = report
                        .get("elapsed_us")
                        .and_then(Json::as_f64)
                        .map(|us| us / 1000.0);
                    let verdict = oracle::parse_report(report, &req.case)?;
                    job.judgement = Some(oracle::judge(&req.case, &verdict));
                    return Ok(());
                }
                Some("queued") if start.elapsed() < QUEUED_CAP => {}
                Some("running") if start.elapsed() < RUNNING_CAP => {}
                Some(state @ ("queued" | "running")) => {
                    return Err(format!(
                        "job {id} still {state} after {:?}",
                        start.elapsed()
                    ))
                }
                other => return Err(format!("job {id} ended {other:?}")),
            }
        }
    });
    job.latency_ms = ms(start.elapsed());
    if let Err(e) = result {
        job.error = Some(e);
    }
    job
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// When a closed-loop drive stops issuing requests.
#[derive(Clone, Copy)]
pub enum Stop {
    /// After exactly this many requests.
    Count(usize),
    /// Once this instant has passed.
    At(Instant),
}

/// Closed loop: [`CLIENTS`] threads, each sending its next request only
/// after the previous one finished, with zero think time. Requests are
/// taken in index order from `request`. Returns the jobs in index order,
/// the wall time, and the client spans when `traced`.
pub fn drive(
    addr: SocketAddr,
    request: &(dyn Fn(usize) -> Request + Sync),
    stop: Stop,
    epoch: Instant,
    traced: bool,
) -> (Vec<Job>, f64, Vec<crate::layers::Span>) {
    let next = AtomicUsize::new(0);
    let jobs = Mutex::new(Vec::new());
    let spans = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (next, jobs, spans) = (&next, &jobs, &spans);
            scope.spawn(move || {
                let mut t = Tracer::new(epoch, 10 + client as u32, traced);
                let mut mine = Vec::new();
                loop {
                    if let Stop::At(deadline) = stop {
                        if Instant::now() >= deadline {
                            break;
                        }
                    }
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if matches!(stop, Stop::Count(n) if i >= n) {
                        break;
                    }
                    mine.push(run_job(addr, i, &request(i), &mut t));
                }
                jobs.lock().expect("no client panicked").extend(mine);
                spans.lock().expect("no client panicked").extend(t.spans);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut jobs = jobs.into_inner().expect("no client panicked");
    jobs.sort_by_key(|j| j.index);
    (jobs, wall, spans.into_inner().expect("no client panicked"))
}

/// Scrapes `/metrics` into per-name totals (label sets summed).
pub fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let r = http::request(addr, "GET", "/metrics", "")?;
    if r.status != 200 {
        return Err(format!("/metrics answered {}", r.status));
    }
    Ok(parse_metrics(&r.body))
}

pub fn parse_metrics(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let name = series.split('{').next().unwrap_or(series);
        if let Ok(v) = value.parse::<f64>() {
            *out.entry(name.to_string()).or_insert(0.0) += v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_drain_summary_and_metrics() {
        let d = Drained::parse("drained: accepted=12 completed=11 failed=1 timed_out=0 rejected=2")
            .unwrap();
        assert_eq!(
            (d.accepted, d.completed, d.failed, d.rejected),
            (12, 11, 1, 2)
        );
        assert!(Drained::parse("metrics listening on http://x").is_none());
        let m = parse_metrics(
            "# TYPE a counter\na 3\nb{x=\"1\"} 2\nb{x=\"2\"} 5\nh_sum 1.5\nbad line x\n",
        );
        assert_eq!(m["a"], 3.0);
        assert_eq!(m["b"], 7.0);
        assert_eq!(m["h_sum"], 1.5);
        assert!(!m.contains_key("bad"));
    }
}
