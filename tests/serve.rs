//! End-to-end scrape tests for the live-metrics endpoint: each starts the
//! real `qsmt serve` binary on an ephemeral port, submits seeded jobs,
//! scrapes `/metrics` and `/flight` over plain TCP, and validates the
//! Prometheus text-format output documented in docs/OBSERVABILITY.md.
//!
//! The tests learn that their jobs are done from the run store
//! (`--run-store`), not by polling, so every server answers a known
//! number of requests and the `--max-requests` cap makes it exit on its
//! own. A server whose clients poll runs uncapped and is drained with
//! `POST /shutdown`: no test leaks a child.

use qsmt::telemetry::Json;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `str.indexof` over a 20-letter haystack: one dense one-hot of 18
/// start indicators, too large to enumerate per component, so simulated
/// annealing solves it, in milliseconds.
const INDEXOF: &str = "(set-logic QF_S)\n(declare-const x Int)\n(assert (= x (str.indexof \"zgkycoqrzdhbtiisfxrq\" \"bti\" 0)))\n(check-sat)\n(get-model)\n";

/// Jobs with seeds: the dense `str.indexof`, which anneals, twice under
/// different seeds and once with another needle of the same length; a
/// reverse that presolve fixes, so its reads are drawn per component; and
/// a script absint refutes before any goal is compiled.
fn seeded_jobs() -> Vec<(String, String)> {
    vec![
        ("/solve?seed=1".into(), INDEXOF.into()),
        ("/solve?seed=2".into(), INDEXOF.into()),
        (
            "/solve?seed=3".into(),
            INDEXOF.replace("\"bti\"", "\"sfx\""),
        ),
        (
            "/solve?seed=6".into(),
            "(set-logic QF_S)\n(declare-const x String)\n\
             (assert (= x (str.rev \"ab\")))\n(check-sat)\n(get-model)\n"
                .into(),
        ),
        (
            "/solve?seed=4".into(),
            "(set-logic QF_S)\n(declare-const x String)\n\
             (assert (str.contains x \"toolong\"))\n\
             (assert (= (str.len x) 3))\n(check-sat)\n"
                .into(),
        ),
    ]
}

/// A one-character variable in two 8-member classes, `[a-h]` and
/// `[a-h]+`. Each class encodes with one-hot selectors (its superposition
/// would admit `` ` ``), and the two selector groups share the
/// character's bits: one 20-variable component, above the exact
/// decomposition window, so the job anneals its full 23-variable model.
const CLASS_REGEX: &str = "(set-logic QF_S)\n(declare-const x String)\n\
    (assert (str.in_re x (re.range \"a\" \"h\")))\n\
    (assert (str.in_re x (re.+ (re.range \"a\" \"h\"))))\n\
    (assert (= (str.len x) 1))\n(check-sat)\n(get-model)\n";

/// The per-job sampler counters `qsmt serve` publishes.
const SAMPLER_SERIES: [(&str, &str); 3] = [
    ("qsmt_sampler_proposals_total", "proposals"),
    ("qsmt_sampler_accepted_total", "accepted"),
    ("qsmt_sampler_reads_total", "reads"),
];

/// A `qsmt serve` child that writes completed reports to its own run
/// store and is killed if a test fails before it exits.
struct Server {
    child: Child,
    addr: String,
    store: PathBuf,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.store);
    }
}

/// Starts `qsmt serve` on `bind`. With `max_requests` it exits on its
/// own after that many requests; without, it runs until `POST /shutdown`.
fn spawn_server(bind: &str, tag: &str, max_requests: Option<usize>) -> Server {
    let store = std::env::temp_dir().join(format!(
        "qsmt-serve-metrics-{}-{tag}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&store);
    let cap = max_requests.map(|max| max.to_string());
    let mut child = Command::new(env!("CARGO_BIN_EXE_qsmt"))
        .args([
            "serve",
            "--metrics-addr",
            bind,
            "--seed",
            "7",
            // One worker runs the jobs in submission order, so every
            // process does the same work in the same sequence.
            "--workers",
            "1",
            "--run-store",
            store.to_str().expect("utf8 temp path"),
        ])
        .args(cap.iter().flat_map(|max| ["--max-requests", max.as_str()]))
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("qsmt serve starts");
    // The server prints its bound address once it is listening; port 0
    // means the OS picked one, so the line is the only way to find it.
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
    Server { child, addr, store }
}

/// Minimal HTTP/1.1 exchange returning (status line, headers, body).
fn request(addr: &str, method: &str, path: &str, body: &str) -> (String, String, String) {
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
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    let (status, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    (status.to_string(), headers.to_string(), body.to_string())
}

/// Submits every job and waits until the run store holds all of their
/// reports; returns the reports. A report is stored after the job's
/// counters are published, so a scrape taken now counts every job.
fn run_jobs(server: &Server, jobs: &[(String, String)]) -> Vec<Json> {
    for (path, script) in jobs {
        let (status, _, body) = request(&server.addr, "POST", path, script);
        assert!(status.contains("202"), "{path} refused: {status} {body}");
    }
    let started = Instant::now();
    loop {
        let reports = stored_reports(&server.store);
        if reports.len() == jobs.len() {
            return reports;
        }
        assert!(
            started.elapsed() < Duration::from_secs(120),
            "{} of {} jobs stored",
            reports.len(),
            jobs.len()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The complete lines of a run store, parsed.
fn stored_reports(store: &Path) -> Vec<Json> {
    let text = std::fs::read_to_string(store).unwrap_or_default();
    let complete = &text[..text.rfind('\n').map_or(0, |i| i + 1)];
    complete
        .lines()
        .map(|line| qsmt::telemetry::parse(line).expect("stored report is JSON"))
        .collect()
}

/// Every solve of every report (`goals[].solves[]`).
fn solves(reports: &[Json]) -> impl Iterator<Item = &Json> {
    reports
        .iter()
        .filter_map(|r| r.get("goals").and_then(Json::as_arr))
        .flatten()
        .filter_map(|goal| goal.get("solves").and_then(Json::as_arr))
        .flatten()
}

/// Per-sampler sums of one `sampling` field over every solve of every
/// report.
fn sampling_sums(reports: &[Json], field: &str) -> BTreeMap<String, f64> {
    let mut sums = BTreeMap::new();
    for sampling in solves(reports).filter_map(|solve| solve.get("sampling")) {
        let sampler = sampling
            .get("sampler")
            .and_then(Json::as_str)
            .expect("sampling names its sampler");
        if let Some(value) = sampling.get(field).and_then(Json::as_u64) {
            *sums.entry(sampler.to_string()).or_insert(0.0) += value as f64;
        }
    }
    sums
}

/// Every `name{sampler="…"} value` sample of one metric, by sampler.
fn by_sampler(metrics: &str, name: &str) -> BTreeMap<String, f64> {
    let prefix = format!("{name}{{sampler=\"");
    metrics
        .lines()
        .filter_map(|line| line.strip_prefix(&prefix))
        .map(|rest| {
            let (sampler, value) = rest.split_once("\"} ").expect("one sampler label");
            (sampler.to_string(), value.parse().expect("numeric sample"))
        })
        .collect()
}

#[test]
fn serve_exposes_prometheus_metrics_for_every_subsystem() {
    let mut jobs = seeded_jobs();
    // A job that still asks for the retired portfolio race: the key is
    // ignored and the job anneals like any other.
    jobs.push(("/solve?portfolio=1&seed=5".into(), CLASS_REGEX.into()));
    // Every job, then one scrape of /metrics and one of /flight.
    let mut server = spawn_server("127.0.0.1:0", "subsystems", Some(jobs.len() + 2));
    let reports = run_jobs(&server, &jobs);

    let (status, headers, body) = request(&server.addr, "GET", "/metrics", "");
    assert!(status.contains("200"), "status: {status}");
    assert!(
        headers.contains("text/plain; version=0.0.4"),
        "Prometheus exposition content type, got: {headers}"
    );

    // The per-job sampler series exist, with HELP before TYPE, and count
    // exactly what the jobs' reports say ran.
    for (name, field) in SAMPLER_SERIES {
        assert!(body.contains(&format!("# HELP {name} ")), "{name} HELP");
        assert!(
            body.contains(&format!("# TYPE {name} counter")),
            "{name} TYPE"
        );
        assert_eq!(
            by_sampler(&body, name),
            sampling_sums(&reports, field),
            "{name} disagrees with the job reports:\n{body}"
        );
    }
    assert_eq!(
        by_sampler(&body, "qsmt_sampler_reads_total")
            .keys()
            .map(String::as_str)
            .collect::<Vec<_>>(),
        ["component-exact", "simulated-annealing"],
        "{body}"
    );
    assert!(
        body.contains(&format!("qsmt_serve_jobs_completed_total {}", jobs.len())),
        "every job completed:\n{body}"
    );

    // The solve cache and the portfolio race are gone: no series, HELP
    // or TYPE line names them, and no report carries their sections,
    // the always-null `embedding` key or the absint `features`.
    for gone in ["qsmt_cache_", "qsmt_portfolio_"] {
        assert!(!body.contains(gone), "{gone} is back:\n{body}");
    }
    for report in &reports {
        assert_eq!(
            report.get("schema_version").and_then(Json::as_u64),
            Some(12)
        );
        let served_from = report.get("served_from").and_then(Json::as_str);
        assert!(
            matches!(served_from, Some("solver" | "absint")),
            "served_from {served_from:?}"
        );
        let absint = report.get("absint").expect("absint section");
        assert_eq!(absint.get("features"), None, "{absint:?}");
    }
    for solve in solves(&reports) {
        for key in ["cache", "portfolio", "embedding"] {
            assert_eq!(solve.get(key), None, "{key} in {solve:?}");
        }
    }

    // Only real jobs feed the catalogue: no synthetic start-up series.
    for gone in ["qsmt_qpu_", "qsmt_beta", "qsmt_sampler_best_energy"] {
        assert!(!body.contains(gone), "{gone} is back:\n{body}");
    }
    // Histogram buckets render with +Inf.
    assert!(body.contains("qsmt_serve_job_latency_us_bucket{"));
    assert!(body.contains("le=\"+Inf\""));

    // Every exposition line is either a comment or `name{labels} value`
    // with a parseable finite value.
    for line in body
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let value = line
            .rsplit(' ')
            .next()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or_else(|| panic!("unparseable sample line: {line}"));
        assert!(value.is_finite(), "non-finite sample: {line}");
    }

    // Last allowed request: the flight recorder dump.
    let (status, headers, body) = request(&server.addr, "GET", "/flight", "");
    assert!(status.contains("200"), "status: {status}");
    assert!(headers.contains("application/json"), "headers: {headers}");
    assert!(body.contains("\"events\""), "flight dump body:\n{body}");

    // The request cap makes the server exit cleanly on its own.
    let exit = server
        .child
        .wait()
        .expect("server exits after max-requests");
    assert!(exit.success(), "server exit status: {exit:?}");
}

#[test]
fn serve_is_deterministic_per_seed_across_processes() {
    let jobs = seeded_jobs();
    // Sampler counters come from seeded jobs, so two servers given the
    // same jobs expose identical counter samples (histograms time wall
    // clocks, so only _total series are compared).
    let totals = |tag: &str| -> Vec<String> {
        let mut server = spawn_server("127.0.0.1:0", tag, Some(jobs.len() + 1));
        run_jobs(&server, &jobs);
        let (_, _, body) = request(&server.addr, "GET", "/metrics", "");
        let exit = server
            .child
            .wait()
            .expect("server exits after max-requests");
        assert!(exit.success(), "server exit status: {exit:?}");
        body.lines()
            .filter(|l| !l.starts_with('#') && l.contains("_total"))
            .filter(|l| !l.contains("latency"))
            .map(str::to_string)
            .collect()
    };
    let a = totals("a");
    assert_eq!(a, totals("b"));
    for (name, _) in SAMPLER_SERIES {
        assert!(
            a.iter()
                .any(|l| l.starts_with(&format!("{name}{{sampler=\"simulated-annealing\"}}"))),
            "{name} missing from {a:#?}"
        );
    }
}

/// Runs one `qsmt` client command and returns its stdout, failing the
/// test on a nonzero exit.
fn client(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_qsmt"))
        .args(args)
        .output()
        .expect("qsmt runs");
    assert!(
        out.status.success(),
        "qsmt {args:?} exit {:?}, stderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is utf8")
}

#[test]
fn serve_watch_and_submit_accept_host_names() {
    // A statically linked glibc still resolves names through NSS at run
    // time, so the server and both clients are driven by name.
    let mut server = spawn_server("localhost:0", "by-name", Some(2));
    // `watch` scrapes /metrics, then /flight: the server's two requests.
    let metrics = client(&["watch", &server.addr]);
    assert!(
        metrics.contains("qsmt_serve_http_requests_total{route=\"metrics\"} 1"),
        "scrape by a name-bound server:\n{metrics}"
    );
    let exit = server
        .child
        .wait()
        .expect("server exits after max-requests");
    assert!(exit.success(), "server exit status: {exit:?}");

    // A server bound to the IPv4 loopback only, reached by name. On a
    // host that lists `::1 localhost` first, the clients must fall
    // through to 127.0.0.1.
    let mut server = spawn_server("127.0.0.1:0", "by-ip", None);
    let port = server.addr.rsplit(':').next().expect("address has a port");
    let by_name = format!("localhost:{port}");
    let metrics = client(&["watch", &by_name]);
    assert!(
        metrics.contains("qsmt_serve_http_requests_total{route=\"metrics\"} 1"),
        "scrape by name:\n{metrics}"
    );
    let script = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/benchmarks/table1_row1_reverse_replace.smt2"
    );
    let doc = client(&["submit", &by_name, script]);
    assert!(
        doc.contains("\"status\": \"completed\""),
        "submit by name:\n{doc}"
    );
    let (status, _, _) = request(&server.addr, "POST", "/shutdown", "");
    assert!(status.contains("200"), "status: {status}");
    let exit = server.child.wait().expect("server exits after a drain");
    assert!(exit.success(), "server exit status: {exit:?}");
}
