//! Integration tests for the `qsmt` CLI binary: the interface a
//! downstream user scripts against.

use std::process::Command;

fn qsmt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_qsmt"))
}

fn corpus(name: &str) -> String {
    format!("{}/benchmarks/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn solve_deterministic_corpus_file() {
    let out = qsmt()
        .args(["solve", &corpus("table1_row1_reverse_replace.smt2")])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.starts_with("sat"), "got: {stdout}");
    assert!(stdout.contains("\"ollah\""));
}

#[test]
fn solve_with_alternate_samplers() {
    for sampler in ["sqa", "descent"] {
        let out = qsmt()
            .args([
                "solve",
                &corpus("table1_row1_reverse_replace.smt2"),
                "--sampler",
                sampler,
                "--reads",
                "16",
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "sampler {sampler} failed");
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        assert!(
            stdout.contains("\"ollah\""),
            "sampler {sampler} wrong answer: {stdout}"
        );
    }
}

/// Runs `qsmt <args>` and returns its exit code and stderr.
fn exit_and_stderr(args: &[&str]) -> (Option<i32>, String) {
    let out = qsmt().args(args).output().expect("binary runs");
    (
        out.status.code(),
        String::from_utf8(out.stderr).expect("utf8"),
    )
}

#[test]
fn unknown_sampler_names_fail_on_every_subcommand() {
    let f = corpus("table1_row2_palindrome.smt2");
    for (args, name) in [
        (vec!["solve", &f, "--sampler", "pt"], "pt"),
        (vec!["demo", "--sampler", "pt"], "pt"),
        (vec!["lint", &f, "--sampler", "bogus"], "bogus"),
    ] {
        let (code, stderr) = exit_and_stderr(&args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown sampler \"{name}\"")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn flags_a_subcommand_does_not_take_are_rejected() {
    let f = corpus("table1_row2_palindrome.smt2");
    // The flag is rejected before any of these reads a store, connects
    // or binds a port.
    for (args, flag, cmd) in [
        (
            vec![
                "history",
                "/nonexistent/store.jsonl",
                "--sampler",
                "exact",
                "--lint",
            ],
            "--sampler",
            "history",
        ),
        (
            vec!["lint", &f, "--reads", "5", "--seed", "3"],
            "--reads",
            "lint",
        ),
        (vec!["serve", "--sampler", "sqa"], "--sampler", "serve"),
        (
            vec!["submit", "127.0.0.1:9", &f, "--sampler", "descent"],
            "--sampler",
            "submit",
        ),
        (vec!["dump", &f, "--seed", "3"], "--seed", "dump"),
    ] {
        let (code, stderr) = exit_and_stderr(&args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            format!("error: flag {flag} does not apply to qsmt {cmd}"),
            "{args:?}"
        );
    }
    // Flags that no subcommand takes any more fail the same way, naming
    // the flag, before any of these solves, binds a port or connects.
    for (args, flag) in [
        (vec!["solve", &f, "--portfolio"], "--portfolio"),
        (vec!["demo", "--portfolio"], "--portfolio"),
        (
            vec![
                "serve",
                "--metrics-addr",
                "127.0.0.1:0",
                "--cache-entries",
                "0",
            ],
            "--cache-entries",
        ),
        (
            vec!["serve", "--metrics-addr", "127.0.0.1:0", "--portfolio"],
            "--portfolio",
        ),
        (
            vec!["submit", "127.0.0.1:9", &f, "--portfolio"],
            "--portfolio",
        ),
    ] {
        let (code, stderr) = exit_and_stderr(&args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            format!("error: unknown flag {flag}"),
            "{args:?}"
        );
    }
    // The flags each of these lists still work.
    let trace = std::env::temp_dir().join(format!("qsmt-cli-flags-{}.json", std::process::id()));
    for args in [
        vec![
            "history",
            "/nonexistent/store.jsonl",
            "--recent",
            "1",
            "--baseline",
            "1",
            "--threshold",
            "25",
        ],
        vec!["lint", &f],
        vec!["solve", &f, "--seed", "3"],
        vec![
            "demo",
            "--seed",
            "3",
            "--trace",
            trace.to_str().expect("utf8 path"),
        ],
    ] {
        let (code, stderr) = exit_and_stderr(&args);
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn default_sampler_runs_the_requested_reads_at_the_default_sweeps() {
    use qsmt::telemetry::Json;
    // The default sampler. The dense `str.indexof` goal anneals; the
    // pipeline's ground steps are drawn exactly from their components, at
    // the same requested read count.
    let mut annealed = 0;
    for file in ["indexof_dense.smt2", "nested_pipeline.smt2"] {
        let report_path = std::env::temp_dir().join(format!(
            "qsmt-cli-default-budget-{}-{file}.json",
            std::process::id()
        ));
        let out = qsmt()
            .args(["solve", &corpus(file), "--seed", "3", "--reads", "16"])
            .args(["--report", report_path.to_str().expect("utf8 path")])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{file}: stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let report_text = std::fs::read_to_string(&report_path).expect("report written");
        let report = qsmt::telemetry::parse(&report_text).expect("report is valid JSON");
        let samplings: Vec<&Json> = report
            .get("goals")
            .and_then(Json::as_arr)
            .expect("goals array")
            .iter()
            .flat_map(|goal| goal.get("solves").and_then(Json::as_arr).expect("solves"))
            .map(|solve| solve.get("sampling").expect("sampling section"))
            .collect();
        assert!(!samplings.is_empty(), "{file}: no solves in {report_text}");
        for sampling in samplings {
            assert_eq!(
                sampling.get("reads").and_then(Json::as_u64),
                Some(16),
                "{file}"
            );
            let sweeps = sampling.get("sweeps");
            match sampling.get("sampler").and_then(Json::as_str) {
                Some("simulated-annealing") => {
                    annealed += 1;
                    assert_eq!(
                        sweeps.and_then(Json::as_u64),
                        Some(qsmt::core::DEFAULT_SWEEPS as u64),
                        "{file}"
                    );
                }
                sampler => {
                    assert_eq!(sampler, Some("component-exact"), "{file}");
                    assert_eq!(sweeps, Some(&Json::Null), "{file}");
                }
            }
        }
        let _ = std::fs::remove_file(&report_path);
    }
    assert!(annealed > 0, "no solve annealed");
}

#[test]
fn solve_rejects_zero_reads() {
    let out = qsmt()
        .args([
            "solve",
            &corpus("table1_row1_reverse_replace.smt2"),
            "--reads",
            "0",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stderr.contains("--reads expects at least 1"),
        "stderr: {stderr}"
    );
}

#[test]
fn serve_rejects_a_zero_request_cap() {
    use std::io::Read;
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    // A server that accepted the cap would wait for requests that never
    // come, so the child runs under a deadline and is killed past it.
    let mut child = qsmt()
        .args([
            "serve",
            "--metrics-addr",
            "127.0.0.1:0",
            "--max-requests",
            "0",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let deadline = Instant::now() + Duration::from_secs(20);
    let status = loop {
        if let Some(status) = child.try_wait().expect("child status") {
            break Some(status);
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let status = status.expect("serve --max-requests 0 kept running instead of exiting");
    assert_eq!(status.code(), Some(1));
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("utf8");
    assert!(
        stderr.contains("--max-requests expects at least 1"),
        "stderr: {stderr}"
    );
}

#[test]
fn exact_sampler_solves_small_goals_and_rejects_large_ones_gracefully() {
    // 7 indicator variables: well inside the exact enumerator's limit.
    let out = qsmt()
        .args(["solve", &corpus("indexof_query.smt2"), "--sampler", "exact"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("6"), "indexof answer: {stdout}");

    // 35 string bits: beyond the limit — a clean one-line error, not a
    // panic banner or a backtrace.
    let out = qsmt()
        .args([
            "solve",
            &corpus("table1_row1_reverse_replace.smt2"),
            "--sampler",
            "exact",
        ])
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(
        stderr.starts_with("error: sampler \"exact\" cannot solve this problem"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked at"), "stderr: {stderr}");
}

#[test]
fn unsat_corpus_file_reports_unsat() {
    let out = qsmt()
        .args(["solve", &corpus("unsat_regex_length.smt2")])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert_eq!(stdout.trim(), "unsat");
}

#[test]
fn dump_emits_qbsolv_format_that_round_trips() {
    let out = qsmt()
        .args(["dump", &corpus("table1_row2_palindrome.smt2")])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("p qubo 0 42"), "header missing: {stdout}");
    let model = qsmt::qubo::from_qbsolv(&stdout).expect("dump output parses back");
    assert_eq!(model.num_vars(), 42);
    assert!(model.num_interactions() > 0, "palindrome has couplings");
}

#[test]
fn demo_solves_all_rows() {
    let out = qsmt()
        .args(["demo", "--seed", "3"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.starts_with("sat"));
    assert!(stdout.contains("row1"));
    assert!(stdout.contains("\"hexxo worxd\""));
}

#[test]
fn solve_trace_writes_chrome_json_sharing_the_report_trace_id() {
    use qsmt::telemetry::Json;
    let dir = std::env::temp_dir();
    let trace_path = dir.join(format!("qsmt-cli-trace-{}.json", std::process::id()));
    let report_path = dir.join(format!("qsmt-cli-report-{}.json", std::process::id()));
    let out = qsmt()
        .args([
            "solve",
            &corpus("indexof_dense.smt2"),
            "--seed",
            "3",
            "--trace",
            trace_path.to_str().expect("utf8 path"),
            "--report",
            report_path.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The trace file is Chrome trace-event JSON: a traceEvents array of
    // complete ("X") events carrying nesting depth, one per report stage
    // plus one per sampler read.
    let trace_text = std::fs::read_to_string(&trace_path).expect("trace written");
    let doc = qsmt::telemetry::parse(&trace_text).expect("trace is valid JSON");
    let trace_id = doc
        .get("trace_id")
        .and_then(Json::as_str)
        .expect("trace document names its trace id")
        .to_string();
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    for span in ["compile", "lint", "presolve", "sample", "select", "read 0"] {
        assert!(names.contains(&span), "missing {span} span in {names:?}");
    }
    assert!(
        events.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("args")
                    .and_then(|a| a.get("depth"))
                    .and_then(Json::as_u64)
                    .is_some_and(|d| d >= 1)
        }),
        "no nested complete event in {trace_text}"
    );

    // The schema-v8 report names the same trace and carries the
    // per-stage span_us rollup `qsmt history` consumes.
    let report_text = std::fs::read_to_string(&report_path).expect("report written");
    let report = qsmt::telemetry::parse(&report_text).expect("report is valid JSON");
    assert_eq!(
        report.get("schema_version").and_then(Json::as_u64),
        Some(12)
    );
    assert_eq!(
        report.get("trace_id").and_then(Json::as_str),
        Some(trace_id.as_str()),
        "report and trace disagree on the trace id"
    );
    assert!(
        matches!(report.get("span_us"), Some(Json::Obj(map)) if !map.is_empty()),
        "report lacks a populated span_us rollup: {report_text}"
    );
    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(&report_path);
}

#[test]
fn solve_into_a_closed_pipe_exits_cleanly_and_still_writes_the_report() {
    use qsmt::telemetry::Json;
    use std::process::Stdio;
    let report_path =
        std::env::temp_dir().join(format!("qsmt-cli-closed-pipe-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&report_path);
    let mut child = qsmt()
        .args([
            "solve",
            &corpus("table1_row2_palindrome.smt2"),
            "--stats",
            "--report",
            report_path.to_str().expect("utf8 path"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // Close the reading end before the solve prints its first line, as
    // `qsmt solve f.smt2 | head -1` does once head has its line.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "exit {:?}, stderr: {stderr}",
        out.status
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    let report_text = std::fs::read_to_string(&report_path).expect("report written");
    let report = qsmt::telemetry::parse(&report_text).expect("report is valid JSON");
    assert_eq!(report.get("status").and_then(Json::as_str), Some("sat"));
    let _ = std::fs::remove_file(&report_path);
}

#[test]
fn history_flags_injected_regression_and_exits_nonzero() {
    let path = std::env::temp_dir().join(format!("qsmt-cli-history-{}.jsonl", std::process::id()));
    // 20 steady runs, then 5 whose sample-stage p50 drifted +160%: far
    // past the default 25% gate, flagged on exactly that stage.
    let steady = "{\"schema_version\": 8, \"span_us\": {\"compile\": 100, \"sample\": 1000}}\n";
    let drifted = "{\"schema_version\": 8, \"span_us\": {\"compile\": 100, \"sample\": 2600}}\n";
    let mut lines = steady.repeat(20);
    lines.push_str(&drifted.repeat(5));
    std::fs::write(&path, &lines).expect("store written");

    let out = qsmt()
        .args(["history", path.to_str().expect("utf8 path")])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "drifted history must exit non-zero");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("REGRESSION sample"), "stdout: {stdout}");
    assert!(
        !stdout.contains("REGRESSION compile"),
        "steady stage wrongly flagged: {stdout}"
    );
    assert!(
        stdout.contains("p50_us"),
        "percentile table missing: {stdout}"
    );

    // A threshold looser than the drift downgrades it to a clean exit.
    let out = qsmt()
        .args([
            "history",
            path.to_str().expect("utf8 path"),
            "--threshold",
            "200",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "loose threshold should pass");
    let _ = std::fs::remove_file(&path);

    // A missing store is an empty history, not an error.
    let out = qsmt()
        .args(["history", "/nonexistent/store.jsonl"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("no runs recorded"), "stdout: {stdout}");
}

#[test]
fn bad_usage_fails_with_usage_text() {
    let out = qsmt().output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("USAGE"));
    assert!(stderr.contains("sa (default) | sqa | descent | exact"));

    let out = qsmt()
        .args(["solve", "/nonexistent/file.smt2"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());

    let out = qsmt()
        .args(["demo", "--sampler", "bogus"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("unknown sampler"));
}

#[test]
fn watch_unreachable_target_exits_nonzero_fast() {
    // `qsmt watch` doubles as a health probe: an unreachable scrape
    // target must produce a prompt non-zero exit with the address in
    // the error, not a hang (a hung probe reads as healthy to most
    // supervisors). Port 1 is essentially never listening.
    let started = std::time::Instant::now();
    let out = qsmt()
        .args(["watch", "127.0.0.1:1"])
        .output()
        .expect("binary runs");
    assert!(
        !out.status.success(),
        "watch against a dead endpoint must exit non-zero"
    );
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("error:"), "stderr: {stderr}");
    assert!(stderr.contains("127.0.0.1:1"), "stderr: {stderr}");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(30),
        "watch took {:?}; connect timeout is not bounding the probe",
        started.elapsed()
    );
}

#[test]
fn serve_and_submit_reject_bad_flag_values() {
    for args in [
        ["serve", "--metrics-addr", "127.0.0.1:0", "--workers", "0"],
        [
            "serve",
            "--metrics-addr",
            "127.0.0.1:0",
            "--queue-depth",
            "0",
        ],
        [
            "serve",
            "--metrics-addr",
            "127.0.0.1:0",
            "--job-timeout",
            "0",
        ],
    ] {
        let out = qsmt().args(args).output().expect("binary runs");
        assert!(!out.status.success(), "{args:?} should be rejected");
    }

    // submit without enough positional arguments prints usage.
    let out = qsmt().args(["submit"]).output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("USAGE"), "stderr: {stderr}");
}

#[test]
fn submit_trace_without_a_path_is_rejected_before_connecting() {
    // Port 9 (discard) is essentially never listening: reaching the
    // network would fail with a connection error instead.
    let out = qsmt()
        .args([
            "submit",
            "127.0.0.1:9",
            &corpus("table1_row1_reverse_replace.smt2"),
            "--trace",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert_eq!(
        stderr.trim_end(),
        "error: submit --trace requires an output path",
        "stderr: {stderr}"
    );
}

/// Writes `src` to a temporary `.smt2` file named after `tag` and
/// returns its path.
fn temp_script(tag: &str, src: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("qsmt-cli-{tag}-{}.smt2", std::process::id()));
    std::fs::write(&path, src).expect("script written");
    path
}

/// Solves `src` with absint on and off; both runs must print `sat` and
/// the model `i = expected`.
fn assert_index_model(tag: &str, src: &str, expected: &str) {
    let path = temp_script(tag, src);
    let file = path.to_str().expect("utf8 path");
    for extra in [&[][..], &["--no-absint"][..]] {
        let mut args = vec!["solve", file];
        args.extend_from_slice(extra);
        let out = qsmt().args(&args).output().expect("binary runs");
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert!(out.status.success(), "{args:?}: {stderr}");
        assert_eq!(
            stdout,
            format!("sat\n(model\n  (define-fun i () _ {expected})\n)\n"),
            "{args:?}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn indexof_of_a_needle_longer_than_the_haystack_is_minus_one() {
    // SMT-LIB: a needle that cannot fit does not occur, so the answer
    // is −1 and the script is sat (not a too-long-substring unsat).
    assert_index_model(
        "indexof-long-needle",
        "(declare-const i Int)\n(assert (= i (str.indexof \"ab\" \"abc\" 0)))\n\
         (check-sat)\n(get-model)\n",
        "(- 1)",
    );
}

#[test]
fn indexof_of_the_empty_needle_is_zero() {
    // SMT-LIB: the empty string occurs at every index, first at 0.
    assert_index_model(
        "indexof-empty-needle",
        "(declare-const i Int)\n(assert (= i (str.indexof \"abc\" \"\" 0)))\n\
         (check-sat)\n(get-model)\n",
        "0",
    );
}

#[test]
fn a_regex_that_needs_a_non_printable_character_is_sat() {
    // The planning alphabet is printable ASCII, but the pattern names a
    // tab: the script has the model "\t", so it is not unsat.
    let path = temp_script(
        "regex-tab",
        "(declare-const x String)\n(assert (str.in_re x (str.to_re \"\t\")))\n\
         (assert (= (str.len x) 1))\n(check-sat)\n(get-model)\n",
    );
    let file = path.to_str().expect("utf8 path");
    for extra in [&[][..], &["--no-absint"][..]] {
        let mut args = vec!["solve", file];
        args.extend_from_slice(extra);
        let out = qsmt().args(&args).output().expect("binary runs");
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        assert!(out.status.success(), "{args:?}");
        assert_eq!(
            stdout, "sat\n(model\n  (define-fun x () _ \"\\t\")\n)\n",
            "{args:?}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn an_unknown_verdict_prints_no_model() {
    // Encoding gap C (tests/conjunction.rs): the only candidate,
    // "xxxxxxb", violates the `str.contains`, so the script answers
    // `unknown`. That candidate is no model; `--stats` shows it as a
    // comment.
    let path = temp_script(
        "unknown-no-model",
        "(set-logic QF_S)\n(declare-const s String)\n\
         (assert (str.contains s \"xl\"))\n(assert (= (str.at s 6) \"b\"))\n\
         (assert (= (str.len s) 7))\n(check-sat)\n(get-model)\n",
    );
    let file = path.to_str().expect("utf8 path");
    let out = qsmt().args(["solve", file]).output().expect("binary runs");
    assert!(out.status.success());
    assert_eq!(String::from_utf8(out.stdout).expect("utf8"), "unknown\n");

    let out = qsmt()
        .args(["solve", file, "--stats"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let mut lines = stdout.lines();
    assert_eq!(lines.next(), Some("unknown"));
    assert_eq!(
        lines.next(),
        Some("; rejected candidate: (define-fun s () _ \"xxxxxxb\")")
    );
    assert!(
        lines.all(|l| l.starts_with(';')),
        "only comments follow the verdict: {stdout}"
    );
    let _ = std::fs::remove_file(&path);
}
