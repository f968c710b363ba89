//! End-to-end tests for the concurrent solve service: parallel clients
//! against a bounded queue, deterministic backpressure, mid-anneal
//! deadline cancellation, and graceful drain accounting. Each test
//! starts the real `qsmt serve` binary on an ephemeral port; a
//! kill-on-drop guard makes sure no child outlives a failing test.

use qsmt::telemetry::Json;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Lines, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A tiny script every sampler solves in milliseconds.
const SCRIPT: &str = "(set-logic QF_S)\n(declare-const x String)\n(assert (= x (str.rev \"ab\")))\n(check-sat)\n(get-model)\n";

/// `str.indexof` over a 20-letter haystack: one dense one-hot of 18
/// start indicators, too large to enumerate per component, so the solve
/// anneals.
const ANNEALED: &str = "(set-logic QF_S)\n(declare-const x Int)\n(assert (= x (str.indexof \"zgkycoqrzdhbtiisfxrq\" \"bti\" 0)))\n(check-sat)\n(get-model)\n";

struct ServerGuard {
    child: Child,
    lines: Lines<BufReader<ChildStdout>>,
    addr: String,
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl ServerGuard {
    /// Waits for the child to exit and returns the parsed drain-summary
    /// counters (`accepted`, `completed`, `failed`, `timed_out`,
    /// `rejected`).
    fn wait_for_drain(&mut self) -> HashMap<String, u64> {
        let summary = loop {
            let line = self
                .lines
                .next()
                .expect("server prints a drain summary before exiting")
                .expect("stdout is utf8");
            if let Some(rest) = line.strip_prefix("drained: ") {
                break rest.to_string();
            }
        };
        let exit = self.child.wait().expect("server exits after drain");
        assert!(exit.success(), "drained server exit status: {exit:?}");
        summary
            .split_whitespace()
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (k.to_string(), v.parse().expect("summary counts parse")))
            .collect()
    }
}

fn spawn_server(extra: &[&str]) -> ServerGuard {
    let mut args = vec!["serve", "--metrics-addr", "127.0.0.1:0", "--seed", "7"];
    args.extend_from_slice(extra);
    let mut child = Command::new(env!("CARGO_BIN_EXE_qsmt"))
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("qsmt serve starts");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server prints its address before exiting")
            .expect("stdout is utf8");
        if let Some(rest) = line.strip_prefix("metrics listening on http://") {
            break rest.trim().to_string();
        }
    };
    ServerGuard { child, lines, addr }
}

/// Minimal HTTP/1.1 client returning (status code, headers, body).
fn request(addr: &str, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to qsmt serve");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("request written");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("response read to EOF");
    let (head, payload) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    let (status_line, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    let code = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("unparseable status line: {status_line}"));
    (code, headers.to_string(), payload.to_string())
}

/// Extracts a string field (`"key": "value"`) from a JSON body. Takes
/// the *last* occurrence: objects serialize with sorted keys, so in a
/// job-status document the top-level `status` ("completed") prints
/// after the embedded report's `status` ("sat").
fn json_str(body: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\": \"");
    let start = body.rfind(&marker)? + marker.len();
    let end = body[start..].find('"')? + start;
    Some(body[start..end].to_string())
}

/// Extracts an unsigned numeric field (`"key": 123`) from a JSON body,
/// last occurrence, mirroring [`json_str`].
fn json_u64(body: &str, key: &str) -> Option<u64> {
    let marker = format!("\"{key}\": ");
    let start = body.rfind(&marker)? + marker.len();
    let end = body[start..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(body.len(), |i| i + start);
    body[start..end].parse().ok()
}

/// Polls a job until it reaches a terminal state; returns (label, body).
fn await_terminal(addr: &str, id: &str, cap: Duration) -> (String, String) {
    let started = Instant::now();
    loop {
        let (code, _, body) = request(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(code, 200, "job {id} lookup failed: {body}");
        let status = json_str(&body, "status").expect("status field");
        match status.as_str() {
            "completed" | "failed" | "timed_out" => return (status, body),
            "queued" | "running" => {}
            other => panic!("job {id} reported unknown status {other:?}"),
        }
        assert!(
            started.elapsed() < cap,
            "job {id} did not reach a terminal state within {cap:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Reads one counter sample (no labels) from a /metrics exposition.
fn metric_value(metrics: &str, name: &str) -> Option<f64> {
    metrics
        .lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

#[test]
fn parallel_clients_land_in_exactly_one_terminal_state() {
    let mut server = spawn_server(&["--workers", "4", "--queue-depth", "4"]);
    let addr = server.addr.clone();

    // 16 concurrent submissions against a 4-deep queue: each one is
    // either admitted (202) or explicitly rejected (429) — never hung,
    // never dropped.
    let clients: Vec<_> = (0..16)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                request(&addr, "POST", &format!("/solve?reads=256&seed={i}"), SCRIPT)
            })
        })
        .collect();
    let mut accepted_ids = Vec::new();
    let mut rejected = 0u64;
    for client in clients {
        let (code, headers, body) = client.join().expect("client thread");
        match code {
            202 => {
                let id = json_str(&body, "id").expect("202 body carries a job id");
                assert_eq!(json_str(&body, "status").as_deref(), Some("queued"));
                accepted_ids.push(id);
            }
            429 => {
                assert!(
                    headers.to_lowercase().contains("retry-after:"),
                    "429 without Retry-After: {headers}"
                );
                rejected += 1;
            }
            other => panic!("unexpected submit status {other}: {body}"),
        }
    }
    assert!(!accepted_ids.is_empty(), "no job was admitted at all");

    // Every admitted job reaches exactly one terminal state; with a
    // 60s default deadline and tiny scripts they all complete, and each
    // completed job embeds a schema-v8 run report.
    let mut completed = 0u64;
    let mut timed_out = 0u64;
    for id in &accepted_ids {
        let (status, body) = await_terminal(&addr, id, Duration::from_secs(120));
        match status.as_str() {
            "completed" => {
                completed += 1;
                assert!(
                    body.contains("\"schema_version\": 12"),
                    "report is not schema v12: {body}"
                );
                assert_eq!(
                    json_str(&body, "sampler").as_deref(),
                    Some("simulated-annealing")
                );
            }
            "timed_out" => timed_out += 1,
            other => panic!("job {id} ended as {other:?}: {body}"),
        }
    }
    assert_eq!(completed + timed_out, accepted_ids.len() as u64);

    // The metrics surface agrees with what the clients observed.
    let (code, _, metrics) = request(&addr, "GET", "/metrics", "");
    assert_eq!(code, 200);
    assert_eq!(
        metric_value(&metrics, "qsmt_serve_jobs_accepted_total"),
        Some(accepted_ids.len() as f64)
    );
    assert_eq!(
        metric_value(&metrics, "qsmt_serve_jobs_completed_total").unwrap_or(0.0),
        completed as f64
    );
    if rejected > 0 {
        assert_eq!(
            metric_value(&metrics, "qsmt_serve_jobs_rejected_total"),
            Some(rejected as f64)
        );
    }
    assert!(
        metric_value(&metrics, "qsmt_serve_queue_depth").is_some(),
        "queue depth gauge missing from:\n{metrics}"
    );
    assert!(metrics.contains("# HELP qsmt_serve_job_latency_us"));

    // Graceful drain via the admin endpoint: the summary accounts for
    // every job the service ever accepted.
    let (code, _, _) = request(&addr, "POST", "/shutdown", "");
    assert_eq!(code, 200);
    let summary = server.wait_for_drain();
    assert_eq!(summary["accepted"], accepted_ids.len() as u64);
    assert_eq!(summary["rejected"], rejected);
    assert_eq!(
        summary["accepted"],
        summary["completed"] + summary["failed"] + summary["timed_out"],
        "drain lost a job: {summary:?}"
    );
    assert_eq!(summary["completed"], completed);
}

#[test]
fn deadline_cancels_mid_anneal_and_full_queue_rejects() {
    let mut server = spawn_server(&["--workers", "1", "--queue-depth", "1"]);
    let addr = server.addr.clone();

    // Job A: a sweep budget that would take far longer than its 2s
    // deadline (200k reads × 384 sweeps). The deadline must cancel it
    // mid-anneal via the stop flag, not let it run to completion.
    let submitted = Instant::now();
    let (code, _, body) = request(
        &addr,
        "POST",
        "/solve?reads=200000&timeout_ms=2000",
        ANNEALED,
    );
    assert_eq!(code, 202, "job A refused: {body}");
    let job_a = json_str(&body, "id").expect("job id");

    // Give the single worker a moment to pick A up, then fill the
    // 1-deep queue with B.
    std::thread::sleep(Duration::from_millis(300));
    let (code, _, body) = request(
        &addr,
        "POST",
        "/solve?reads=200000&timeout_ms=2000",
        ANNEALED,
    );
    assert_eq!(code, 202, "job B refused: {body}");
    let job_b = json_str(&body, "id").expect("job id");

    // The queue is now full: C must be rejected with backpressure.
    let (code, headers, body) = request(&addr, "POST", "/solve", ANNEALED);
    assert_eq!(code, 429, "expected queue-full rejection, got: {body}");
    let retry_after = headers
        .lines()
        .find_map(|h| {
            h.to_lowercase()
                .strip_prefix("retry-after:")
                .map(str::trim)
                .map(String::from)
        })
        .expect("429 carries Retry-After");
    assert!(retry_after.parse::<u64>().expect("Retry-After is seconds") >= 1);

    // A is cancelled mid-anneal: terminal well before its sweep budget
    // could finish, and marked as a sampling-site timeout.
    let (status, body) = await_terminal(&addr, &job_a, Duration::from_secs(60));
    assert_eq!(status, "timed_out", "job A: {body}");
    assert_eq!(json_str(&body, "where").as_deref(), Some("sampling"));
    assert!(
        submitted.elapsed() < Duration::from_secs(45),
        "cancellation took {:?}; the deadline did not cut the anneal short",
        submitted.elapsed()
    );

    // B times out too (its deadline expired while queued or sampling).
    let (status, _) = await_terminal(&addr, &job_b, Duration::from_secs(60));
    assert_eq!(status, "timed_out");

    let (code, _, metrics) = request(&addr, "GET", "/metrics", "");
    assert_eq!(code, 200);
    assert_eq!(
        metric_value(&metrics, "qsmt_serve_jobs_timed_out_total"),
        Some(2.0)
    );

    let (code, _, _) = request(&addr, "POST", "/shutdown", "");
    assert_eq!(code, 200);
    let summary = server.wait_for_drain();
    assert_eq!(summary["accepted"], 2);
    assert_eq!(summary["timed_out"], 2);
    assert_eq!(summary["rejected"], 1);
}

#[cfg(unix)]
#[test]
fn sigint_drains_without_losing_accepted_jobs() {
    let mut server = spawn_server(&["--workers", "2", "--queue-depth", "8"]);
    let addr = server.addr.clone();

    let mut ids = Vec::new();
    for i in 0..4 {
        let (code, _, body) = request(&addr, "POST", &format!("/solve?reads=128&seed={i}"), SCRIPT);
        assert_eq!(code, 202, "submission {i} refused: {body}");
        ids.push(json_str(&body, "id").expect("job id"));
    }

    // SIGINT while jobs may still be queued or running: the server must
    // finish all of them before exiting.
    let pid = server.child.id().to_string();
    let killed = Command::new("kill")
        .args(["-INT", &pid])
        .status()
        .expect("kill runs");
    assert!(killed.success());

    let summary = server.wait_for_drain();
    assert_eq!(summary["accepted"], 4);
    assert_eq!(
        summary["accepted"],
        summary["completed"] + summary["failed"] + summary["timed_out"],
        "SIGINT drain lost a job: {summary:?}"
    );
    assert_eq!(
        summary["failed"], 0,
        "jobs failed during drain: {summary:?}"
    );
}

#[test]
fn statically_refuted_jobs_are_served_from_absint() {
    let mut server = spawn_server(&["--workers", "1"]);
    let addr = server.addr.clone();

    // `x` must both contain a 7-char literal and have length 3: the
    // abstract interpreter refutes this before compilation, so the job
    // completes as unsat without ever touching a sampler.
    let unsat_script = "(set-logic QF_S)\n(declare-const x String)\n\
                        (assert (str.contains x \"toolong\"))\n\
                        (assert (= (str.len x) 3))\n(check-sat)\n(get-model)\n";
    let (code, _, body) = request(&addr, "POST", "/solve?reads=64&seed=7", unsat_script);
    assert_eq!(code, 202, "submission refused: {body}");
    let id = json_str(&body, "id").expect("job id");
    let (status, body) = await_terminal(&addr, &id, Duration::from_secs(120));
    assert_eq!(status, "completed", "absint job: {body}");
    assert_eq!(
        json_str(&body, "served_from").as_deref(),
        Some("absint"),
        "static refutation must be attributed to the interpreter: {body}"
    );
    assert!(
        body.contains("\"verdict\": \"unsat\""),
        "absint section missing its verdict: {body}"
    );
    assert!(
        json_u64(&body, "certificate_steps").unwrap_or(0) >= 1,
        "refutation must carry a checkable certificate: {body}"
    );
    assert!(
        body.contains("\"goals\": []"),
        "refuted scripts must not report solved goals: {body}"
    );

    let (code, _, _) = request(&addr, "POST", "/shutdown", "");
    assert_eq!(code, 200);
    let summary = server.wait_for_drain();
    assert_eq!(summary["accepted"], 1);
    assert_eq!(summary["completed"], 1);
}

/// Microsecond-fast jobs finish while their submission is still being
/// recorded. The job table must still end with every accepted job in a
/// terminal state: a worker's `completed` is never overwritten by the
/// submitter's late `queued`. Concurrent clients keep both workers busy
/// popping while submissions land.
#[test]
fn fast_jobs_never_read_queued_after_they_finish() {
    const CLIENTS: usize = 8;
    const JOBS: usize = CLIENTS * 64;
    let mut server = spawn_server(&["--workers", "2", "--queue-depth", "1024"]);
    let addr = server.addr.clone();
    let unsat_script = "(set-logic QF_S)\n(declare-const x String)\n\
                        (assert (str.contains x \"toolong\"))\n\
                        (assert (= (str.len x) 3))\n(check-sat)\n";
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                for i in 0..JOBS / CLIENTS {
                    let (code, _, body) = request(&addr, "POST", "/solve", unsat_script);
                    assert_eq!(code, 202, "submission {i} refused: {body}");
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }

    // Wait until nothing is queued or running any more; a job whose
    // status was overwritten would read `queued` forever.
    let started = Instant::now();
    let table = loop {
        let (code, _, body) = request(&addr, "GET", "/jobs", "");
        assert_eq!(code, 200);
        if json_u64(&body, "queue_depth") == Some(0) && !body.contains("\"status\": \"running\"") {
            break body;
        }
        assert!(
            started.elapsed() < Duration::from_secs(120),
            "jobs did not drain: {body}"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    let listed = table.matches("\"id\": \"job-").count();
    let completed = table.matches("\"status\": \"completed\"").count();
    assert_eq!(listed, JOBS, "GET /jobs lists every accepted job");
    assert_eq!(
        completed, JOBS,
        "a finished job reads non-terminal: {table}"
    );

    let (code, _, _) = request(&addr, "POST", "/shutdown", "");
    assert_eq!(code, 200);
    let summary = server.wait_for_drain();
    assert_eq!(summary["accepted"], listed as u64);
    assert_eq!(summary["completed"], completed as u64);
}

#[test]
fn trace_rides_the_job_from_submission_to_run_store() {
    let store_path = {
        let mut p = std::env::temp_dir();
        p.push(format!("qsmt-e2e-run-store-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    };
    let store_arg = store_path.to_str().expect("utf8 temp path").to_string();
    let mut server = spawn_server(&["--workers", "1", "--run-store", &store_arg]);
    let addr = server.addr.clone();

    // The 202 already names the job's trace id.
    let (code, _, body) = request(&addr, "POST", "/solve?reads=64&seed=7", ANNEALED);
    assert_eq!(code, 202, "submission refused: {body}");
    let id = json_str(&body, "id").expect("job id");
    let trace_id = json_str(&body, "trace_id").expect("202 body carries a trace id");
    assert_eq!(trace_id.len(), 16, "trace id is 16 hex digits: {trace_id}");
    assert!(trace_id.bytes().all(|b| b.is_ascii_hexdigit()));

    // The terminal status document and the embedded schema-v8 report
    // carry the same id (json_str reads the LAST occurrence — the
    // top-level field — so also check the embedded report's copy).
    let (status, body) = await_terminal(&addr, &id, Duration::from_secs(120));
    assert_eq!(status, "completed", "traced job: {body}");
    assert!(body.contains("\"schema_version\": 12"), "not v12: {body}");
    assert_eq!(
        json_str(&body, "trace_id").as_deref(),
        Some(trace_id.as_str())
    );
    assert!(
        body.contains(&format!("\"trace_id\": \"{trace_id}\"")),
        "report lost the trace id: {body}"
    );
    assert!(
        body.contains("\"span_us\""),
        "schema-v8 report lacks the span_us rollup: {body}"
    );

    // GET /jobs/<id>/trace answers Chrome trace-event JSON for the same
    // trace id, with nested spans for every report stage and the
    // per-read sampler spans.
    let (code, _, trace_body) = request(&addr, "GET", &format!("/jobs/{id}/trace"), "");
    assert_eq!(code, 200, "trace lookup failed: {trace_body}");
    assert_eq!(
        json_str(&trace_body, "trace_id").as_deref(),
        Some(trace_id.as_str()),
        "trace document disagrees with the 202 body"
    );
    assert!(trace_body.contains("\"traceEvents\""));
    assert!(trace_body.contains("\"ph\": \"X\""));
    for span in [
        "absint", "goal x", "compile", "presolve", "sample", "read 0", "select",
    ] {
        assert!(
            trace_body.contains(&format!("\"{span}\"")),
            "trace lacks the {span} span: {trace_body}"
        );
    }

    // The recent-traces index lists it; the liveness probe reports the
    // worker pool.
    let (code, _, index) = request(&addr, "GET", "/traces", "");
    assert_eq!(code, 200);
    assert!(index.contains(&trace_id), "index lost the trace: {index}");
    let (code, _, health) = request(&addr, "GET", "/healthz", "");
    assert_eq!(code, 200);
    assert_eq!(json_u64(&health, "workers"), Some(1), "healthz: {health}");
    assert!(
        json_u64(&health, "queue_depth").is_some(),
        "healthz: {health}"
    );

    // And an unknown job's trace is a clean 404.
    let (code, _, missing) = request(&addr, "GET", "/jobs/999/trace", "");
    assert_eq!(code, 404, "body: {missing}");

    let (code, _, _) = request(&addr, "POST", "/shutdown", "");
    assert_eq!(code, 200);
    let summary = server.wait_for_drain();
    assert_eq!(summary["completed"], 1);

    // The finished report landed in the run-history store, trace id and
    // span_us rollup included — the line `qsmt history` will analyze.
    let stored = std::fs::read_to_string(&store_path).expect("run store written");
    let lines: Vec<&str> = stored.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(lines.len(), 1, "store: {stored}");
    assert!(
        lines[0].contains(&trace_id),
        "store lost the trace id: {stored}"
    );
    assert!(
        lines[0].contains("span_us"),
        "store lost the rollup: {stored}"
    );
    let _ = std::fs::remove_file(&store_path);
}

#[test]
fn unknown_job_lookup_is_a_404_not_a_hang() {
    let mut server = spawn_server(&[
        "--workers",
        "1",
        "--queue-depth",
        "1",
        "--max-requests",
        "1",
    ]);
    let addr = server.addr.clone();
    let (code, _, body) = request(&addr, "GET", "/jobs/999", "");
    assert_eq!(code, 404, "body: {body}");
    assert!(body.contains("unknown job"));
    // --max-requests doubles as the drain trigger here.
    let summary = server.wait_for_drain();
    assert_eq!(summary["accepted"], 0);
}

/// An idle server accepts each connection the moment it arrives: the
/// accept loop waits on the listener's readiness, not on a fixed sleep,
/// so back-to-back probes do not queue behind a poll interval.
#[test]
fn idle_server_answers_back_to_back_probes_at_once() {
    let mut server = spawn_server(&["--workers", "1"]);
    let addr = server.addr.clone();
    let mut round_trips: Vec<Duration> = (0..40)
        .map(|_| {
            let started = Instant::now();
            let (code, _, body) = request(&addr, "GET", "/healthz", "");
            assert_eq!(code, 200, "healthz: {body}");
            started.elapsed()
        })
        .collect();
    round_trips.sort_unstable();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_micros(2500),
        "median /healthz round trip {median:?}, all: {round_trips:?}"
    );

    let (code, _, _) = request(&addr, "POST", "/shutdown", "");
    assert_eq!(code, 200);
    let summary = server.wait_for_drain();
    assert_eq!(summary["accepted"], 0);
}

#[test]
fn submit_cli_prints_the_completed_job_document() {
    let mut server = spawn_server(&["--workers", "1"]);
    let script_path =
        std::env::temp_dir().join(format!("qsmt-e2e-submit-{}.smt2", std::process::id()));
    std::fs::write(&script_path, SCRIPT).expect("script written");
    let out = Command::new(env!("CARGO_BIN_EXE_qsmt"))
        .args([
            "submit",
            &server.addr,
            script_path.to_str().expect("utf8 temp path"),
            "--seed",
            "3",
        ])
        .output()
        .expect("qsmt submit runs");
    let _ = std::fs::remove_file(&script_path);
    let stdout = String::from_utf8(out.stdout).expect("stdout is utf8");
    assert!(
        out.status.success(),
        "qsmt submit exit {:?}, stderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    // The status document json_str reads last is the top-level one.
    assert_eq!(json_str(&stdout, "status").as_deref(), Some("completed"));
    assert_eq!(json_str(&stdout, "id").as_deref(), Some("job-1"));
    assert!(
        stdout.contains("\"schema_version\": 12"),
        "no embedded report: {stdout}"
    );
    assert_eq!(json_str(&stdout, "answer").as_deref(), Some("ba"));

    let (code, _, _) = request(&server.addr, "POST", "/shutdown", "");
    assert_eq!(code, 200);
    let summary = server.wait_for_drain();
    assert_eq!(summary["accepted"], 1);
    assert_eq!(summary["completed"], 1);
}

#[test]
fn portfolio_query_key_is_ignored_like_any_unknown_key() {
    // Load generators written for the retired portfolio race still send
    // `?portfolio=`; the key is now as unknown as any other, so every
    // value is accepted and the job runs the default path. A
    // one-character variable in two 8-member classes: one 20-variable
    // component above the exact decomposition window, so it anneals.
    let script = "(set-logic QF_S)\n(declare-const x String)\n\
        (assert (str.in_re x (re.range \"a\" \"h\")))\n\
        (assert (str.in_re x (re.+ (re.range \"a\" \"h\"))))\n\
        (assert (= (str.len x) 1))\n(check-sat)\n(get-model)\n";
    let mut server = spawn_server(&["--workers", "1", "--queue-depth", "4"]);
    let addr = server.addr.clone();

    let mut runs = Vec::new();
    for query in ["seed=5", "seed=5&portfolio=1", "seed=5&portfolio=banana"] {
        let (code, _, body) = request(&addr, "POST", &format!("/solve?{query}"), script);
        assert_eq!(code, 202, "{query} refused: {body}");
        let id = json_str(&body, "id").expect("job id");
        let (status, body) = await_terminal(&addr, &id, Duration::from_secs(120));
        assert_eq!(status, "completed", "{query}: {body}");
        let doc = qsmt::telemetry::parse(&body).expect("status document is JSON");
        let report = doc.get("report").expect("completed jobs embed a report");
        let verdict = report
            .get("status")
            .and_then(Json::as_str)
            .map(str::to_string);
        let goals = report.get("goals").and_then(Json::as_arr).expect("goals");
        let answers: Vec<_> = goals.iter().map(|g| g.get("answer").cloned()).collect();
        let samplers: Vec<_> = goals
            .iter()
            .filter_map(|g| g.get("solves").and_then(Json::as_arr))
            .flatten()
            .map(|s| s.get("sampling").and_then(|x| x.get("sampler")).cloned())
            .collect();
        runs.push((query, verdict, answers, samplers));
    }
    let (_, verdict, answers, samplers) = &runs[0];
    assert_eq!(verdict.as_deref(), Some("sat"));
    assert_eq!(
        samplers,
        &[Some(Json::from("simulated-annealing"))],
        "the job anneals"
    );
    for (query, v, a, s) in &runs[1..] {
        assert_eq!((v, a, s), (verdict, answers, samplers), "{query}");
    }

    let (code, _, _) = request(&addr, "POST", "/shutdown", "");
    assert_eq!(code, 200);
    let summary = server.wait_for_drain();
    assert_eq!(summary["completed"], 3);
}
