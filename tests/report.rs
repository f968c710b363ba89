//! Integration tests for the observability surface: `qsmt solve --report`
//! must emit a JSON run report whose schema downstream tooling can rely
//! on. The report is parsed back with `qsmt::telemetry::parse` and
//! checked field by field against docs/OBSERVABILITY.md.

use qsmt::telemetry::{parse, Json};
use qsmt::trace::TraceId;
use qsmt::{Script, SolveOptions, StringSolver};
use std::process::Command;

fn qsmt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_qsmt"))
}

fn corpus(name: &str) -> String {
    format!("{}/benchmarks/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn report_for(bench: &str, extra: &[&str]) -> Json {
    let dir = std::env::temp_dir().join(format!("qsmt-report-{bench}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("report.json");
    let path_str = path.to_str().expect("utf8 path");
    let mut args = vec![
        "solve",
        &*corpus(bench).leak(),
        "--seed",
        "7",
        "--report",
        path_str,
    ];
    args.extend_from_slice(extra);
    let out = qsmt().args(&args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("report file written");
    std::fs::remove_dir_all(&dir).ok();
    parse(&text).expect("report is valid JSON")
}

#[test]
fn table1_palindrome_report_has_documented_schema() {
    let doc = report_for("table1_row2_palindrome.smt2", &[]);

    // Top level.
    assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(12));
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("sat"));
    // No trace entered on the plain CLI path (schema v8): the id is
    // null but the per-stage span_us rollup is always populated.
    assert_eq!(doc.get("trace_id"), Some(&Json::Null));
    assert!(
        matches!(doc.get("span_us"), Some(Json::Obj(map)) if map.contains_key("sample")),
        "span_us rollup missing the sample stage"
    );
    // A sat run is served by the solver.
    assert_eq!(
        doc.get("served_from").and_then(Json::as_str),
        Some("solver")
    );
    // Abstract-interpretation section (schema v6): the palindrome script
    // is not statically refutable, so the verdict is "unknown" — but the
    // stage ran and its stats are populated.
    let absint = doc.get("absint").expect("absint section");
    assert_ne!(absint, &Json::Null, "absint runs by default");
    assert_eq!(
        absint.get("verdict").and_then(Json::as_str),
        Some("unknown")
    );
    assert!(absint.get("iterations").and_then(Json::as_u64).unwrap() >= 1);
    // Schema v12 dropped the routing feature vector.
    assert_eq!(absint.get("features"), None);
    assert_eq!(
        doc.get("sampler").and_then(Json::as_str),
        Some("simulated-annealing")
    );
    assert!(doc.get("elapsed_us").and_then(Json::as_u64).unwrap() > 0);
    assert!(doc
        .get("source")
        .and_then(Json::as_str)
        .unwrap()
        .ends_with("table1_row2_palindrome.smt2"));

    // One goal, one solve.
    let goals = doc.get("goals").and_then(Json::as_arr).expect("goals");
    assert_eq!(goals.len(), 1);
    let goal = &goals[0];
    assert_eq!(goal.get("name").and_then(Json::as_str), Some("p"));
    assert_eq!(goal.get("valid").and_then(Json::as_bool), Some(true));
    let solves = goal.get("solves").and_then(Json::as_arr).expect("solves");
    assert_eq!(solves.len(), 1);
    let solve = &solves[0];

    // Stage set and monotonic, in-bounds timings.
    let stages = solve.get("stages").and_then(Json::as_arr).expect("stages");
    let labels: Vec<&str> = stages
        .iter()
        .map(|s| s.get("label").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(
        labels,
        vec!["compile", "lint", "presolve", "sample", "select"]
    );
    let total_us = solve.get("total_us").and_then(Json::as_u64).unwrap();
    let mut prev_end = 0u64;
    for stage in stages {
        let start = stage.get("start_us").and_then(Json::as_u64).unwrap();
        let dur = stage.get("dur_us").and_then(Json::as_u64).unwrap();
        assert!(start >= prev_end, "stages must not overlap");
        prev_end = start + dur;
    }
    assert!(prev_end <= total_us, "stages fit inside the solve");

    // QUBO shape: the §4.10 palindrome over 6 chars uses 7·6 = 42 vars.
    let qubo = solve.get("qubo").expect("qubo");
    assert_eq!(qubo.get("num_vars").and_then(Json::as_u64), Some(42));
    assert!(qubo.get("num_interactions").and_then(Json::as_u64).unwrap() > 0);
    assert!(qubo.get("density").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(
        qubo.get("max_abs_coefficient")
            .and_then(Json::as_f64)
            .unwrap()
            > 0.0
    );

    // Lint stats (schema v2): the palindrome formulation is clean of
    // errors and the stage timing is recorded.
    let lint = solve.get("lint").expect("lint");
    assert_ne!(lint, &Json::Null, "reported solves always lint");
    assert_eq!(lint.get("errors").and_then(Json::as_u64), Some(0));
    let codes = lint.get("codes").and_then(Json::as_arr).expect("codes");
    assert!(codes.iter().all(|c| c.as_str().is_some()));

    // No solve path projects onto hardware, races or consults a cache:
    // schema v12 dropped the three keys that said so.
    for key in ["embedding", "cache", "portfolio"] {
        assert_eq!(solve.get(key), None, "{key}");
    }

    // The palindrome's 21 mirrored bit pairs decompose, so its reads are
    // drawn from exact ground sets; the dense `str.indexof` one-hot (19
    // variables) anneals. Sections every solve carries are checked on
    // both, SA's move counters and dynamics on the annealed one.
    let dense = report_for("indexof_dense.smt2", &[]);
    let dense_goals = dense.get("goals").and_then(Json::as_arr).expect("goals");
    let dense_solve = &dense_goals[0]
        .get("solves")
        .and_then(Json::as_arr)
        .expect("solves")[0];
    let mut annealed = 0;
    for solve in [solve, dense_solve] {
        // Sampler statistics: populated energies and SA move counters.
        let sampling = solve.get("sampling").expect("sampling");
        assert_eq!(sampling.get("reads").and_then(Json::as_u64), Some(64));
        let best = sampling.get("best_energy").and_then(Json::as_f64).unwrap();
        let mean = sampling.get("mean_energy").and_then(Json::as_f64).unwrap();
        let max = sampling.get("max_energy").and_then(Json::as_f64).unwrap();
        assert!(best.is_finite() && mean.is_finite() && max.is_finite());
        assert!(best <= mean && mean <= max);
        assert!(
            sampling
                .get("std_dev_energy")
                .and_then(Json::as_f64)
                .unwrap()
                >= 0.0
        );
        assert!(
            sampling
                .get("success_fraction")
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
        assert!(sampling.get("tts99_us").and_then(Json::as_u64).is_some());
        let dynamics = solve.get("dynamics").expect("dynamics");
        if sampling.get("sampler").and_then(Json::as_str) != Some("simulated-annealing") {
            // Exact per-component draws: no sweeps, moves or lanes, and
            // no trajectory to probe.
            assert_eq!(
                sampling.get("sampler").and_then(Json::as_str),
                Some("component-exact")
            );
            for key in ["sweeps", "proposals", "acceptance_rate", "replicas"] {
                assert_eq!(sampling.get(key), Some(&Json::Null), "{key}");
            }
            assert_eq!(dynamics, &Json::Null, "nothing annealed");
        } else {
            annealed += 1;
            assert_eq!(sampling.get("sweeps").and_then(Json::as_u64), Some(384));
            // Schema v7: SA bit-slices its 64 reads into one word-wide batch.
            assert_eq!(sampling.get("replicas").and_then(Json::as_u64), Some(64));
            let rate = sampling
                .get("acceptance_rate")
                .and_then(Json::as_f64)
                .expect("SA reports acceptance");
            assert!(rate > 0.0 && rate < 1.0);

            // Throughput counters (schema v3): SA times its own run, so both
            // rates are present and positive.
            let pps = sampling
                .get("proposals_per_sec")
                .and_then(Json::as_f64)
                .expect("SA reports proposal throughput");
            assert!(pps > 0.0 && pps.is_finite());
            let fps = sampling
                .get("flips_per_sec")
                .and_then(Json::as_f64)
                .expect("SA reports flip throughput");
            assert!(fps > 0.0 && fps <= pps, "accepted flips are a subset");

            // Dynamics section (schema v4): trajectory probes ran under the
            // default SA sampler, so the section is populated.
            assert_ne!(dynamics, &Json::Null, "SA emits trajectory dynamics");
            let trace = dynamics
                .get("energy_trace")
                .and_then(Json::as_arr)
                .expect("energy trace");
            assert!(!trace.is_empty());
            let energies: Vec<f64> = trace
                .iter()
                .map(|p| p.get("best_energy").and_then(Json::as_f64).unwrap())
                .collect();
            assert!(
                energies.windows(2).all(|w| w[1] <= w[0] + 1e-9),
                "best-so-far trace is non-increasing"
            );
            let betas = dynamics
                .get("beta_acceptance")
                .and_then(Json::as_arr)
                .expect("per-beta acceptance");
            assert!(!betas.is_empty());
            for entry in betas {
                let proposals = entry.get("proposals").and_then(Json::as_u64).unwrap();
                let accepted = entry.get("accepted").and_then(Json::as_u64).unwrap();
                assert!(accepted <= proposals);
            }
            let ttt = dynamics
                .get("time_to_target")
                .and_then(Json::as_arr)
                .expect("time-to-target curve");
            assert!(!ttt.is_empty());
            let verdict = dynamics
                .get("stall_verdict")
                .and_then(Json::as_str)
                .expect("stall verdict");
            assert!(["improving", "converged", "stalled"].contains(&verdict));
            assert!(dynamics
                .get("proposal_latency_ns")
                .and_then(|h| h.get("p50"))
                .and_then(Json::as_f64)
                .is_some());
            // Schema v11: the section has exactly these seven keys; the three
            // that only the retired tempering, population and tabu samplers
            // filled are gone.
            let Json::Obj(keys) = dynamics else {
                panic!("dynamics is an object: {dynamics:?}");
            };
            assert_eq!(
                keys.keys().map(String::as_str).collect::<Vec<_>>(),
                [
                    "beta_acceptance",
                    "energy_trace",
                    "last_improvement_fraction",
                    "proposal_latency_ns",
                    "stall_verdict",
                    "sweep_improvement",
                    "time_to_target",
                ]
            );
        }

        // Select stage found a valid answer.
        let select = solve.get("select").expect("select");
        assert!(select.get("valid_rank").and_then(Json::as_u64).is_some());

        // The reported energy matches the best sampled energy
        // (post-selection picked a valid sample; for the palindrome that
        // is the ground state).
        assert_eq!(solve.get("valid").and_then(Json::as_bool), Some(true));

        // Schema v10: the stage timings are the solve's one timing record
        // and cover the sample stage; the span log is gone (the span tree
        // is the trace).
        assert_eq!(solve.get("spans"), None);
        let stages = solve.get("stages").and_then(Json::as_arr).expect("stages");
        assert!(stages
            .iter()
            .any(|s| s.get("label").and_then(Json::as_str) == Some("sample")));
    }
    assert_eq!(annealed, 1, "the dense one-hot anneals");
}

/// `(name, ts, dur)` of the span events of a Chrome trace document, in
/// document (span close) order.
fn chrome_spans(doc: &Json) -> Vec<(String, u64, u64)> {
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let num = |e: &Json, k: &str| e.get(k).and_then(Json::as_u64).unwrap();
    events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .map(|e| {
            let name = e.get("name").and_then(Json::as_str).unwrap();
            (name.to_string(), num(e, "ts"), num(e, "dur"))
        })
        .collect()
}

#[test]
fn stage_timings_are_the_trace_spans() {
    // Each stage is measured once: a solve's StageTiming and its trace
    // span share their clock reads, so durations are equal and each
    // solve's span starts sit one constant offset (the solve's start on
    // the trace clock) from its stage starts.
    let src = std::fs::read_to_string(corpus("nested_pipeline.smt2")).unwrap();
    let solver = StringSolver::with_defaults().with_seed(7);
    let id = TraceId::derive(0x57a6e);
    let run = {
        let _trace = qsmt::trace::enter(id, "stage-timings");
        let script = Script::parse(&src).unwrap();
        script.run(&solver, &SolveOptions::default()).unwrap()
    };
    let doc = qsmt::trace::registry().chrome_json(id).unwrap();
    // Sequential stages close in execution order.
    let stage_names = ["compile", "lint", "presolve", "sample", "select"];
    let mut spans = chrome_spans(&doc)
        .into_iter()
        .filter(|(name, ..)| stage_names.contains(&name.as_str()));
    let solves: Vec<_> = run.goals.iter().flat_map(|g| &g.solves).collect();
    assert!(solves.len() > 1, "the pipeline runs one solve per step");
    for solve in solves {
        let mut offset = None;
        for stage in &solve.stages {
            let (name, ts, dur) = spans.next().expect("a span per stage");
            assert_eq!((name.as_str(), dur), (stage.label.as_str(), stage.dur_us));
            let this = ts - stage.start_us;
            assert_eq!(*offset.get_or_insert(this), this, "{name} start drifted");
        }
    }
    assert_eq!(spans.next(), None, "a stage span without a StageTiming");
}

#[test]
fn absint_time_is_the_trace_span() {
    // The absint pass is timed once: its one trace span and the report's
    // absint.time_us share their clock reads.
    let src = std::fs::read_to_string(corpus("char_pins.smt2")).unwrap();
    let solver = StringSolver::with_defaults().with_seed(7);
    let opts = SolveOptions {
        absint: true,
        ..SolveOptions::default()
    };
    let id = TraceId::derive(0xab51);
    let run = {
        let _trace = qsmt::trace::enter(id, "absint-timing");
        Script::parse(&src).unwrap().run(&solver, &opts).unwrap()
    };
    let stats = run.absint.as_ref().expect("absint ran").to_stats();
    assert_eq!(stats.vars_eliminated, 14, "char_pins is tightened");
    let doc = qsmt::trace::registry().chrome_json(id).unwrap();
    let absint: Vec<u64> = chrome_spans(&doc)
        .into_iter()
        .filter(|(name, ..)| name == "absint")
        .map(|(_, _, dur)| dur)
        .collect();
    assert_eq!(absint, [stats.time_us]);
}

#[test]
fn pipeline_report_has_one_solve_per_stage() {
    let doc = report_for("table1_row1_reverse_replace.smt2", &[]);
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("sat"));
    let goals = doc.get("goals").and_then(Json::as_arr).unwrap();
    assert_eq!(goals.len(), 1);
    assert_eq!(
        goals[0].get("kind").and_then(Json::as_str),
        Some("pipeline")
    );
    let solves = goals[0].get("solves").and_then(Json::as_arr).unwrap();
    assert_eq!(solves.len(), 2, "reverse then replace_all");
    // Goal total aggregates the per-step solve totals.
    let goal_total = goals[0].get("total_us").and_then(Json::as_u64).unwrap();
    let sum: u64 = solves
        .iter()
        .map(|s| s.get("total_us").and_then(Json::as_u64).unwrap())
        .sum();
    assert_eq!(goal_total, sum);
}

#[test]
fn stats_flag_prints_stage_timings_without_breaking_model_output() {
    let out = qsmt()
        .args([
            "solve",
            &corpus("indexof_dense.smt2"),
            "--seed",
            "7",
            "--stats",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("sat"), "model output comes first");
    for needle in [
        "compile",
        "sample",
        "select",
        "sampling: 64 reads",
        "accepted",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?} in: {stdout}");
    }
    // Stats lines are SMT-LIB comments so the output stays parseable.
    assert!(stdout
        .lines()
        .filter(|l| l.contains("ms"))
        .all(|l| l.starts_with(';')));
}

#[test]
fn trace_flag_prints_span_log() {
    // `--trace` prints the span tree `--trace <out.json>` writes as
    // Chrome trace-event JSON, and both runs' reports name the trace.
    let dir = std::env::temp_dir().join(format!("qsmt-trace-text-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let bench = corpus("indexof_dense.smt2");
    let run = |extra: &[&str], report: &str| {
        let mut args = vec![
            "solve", &bench, "--seed", "7", "--report", report, "--trace",
        ];
        args.extend_from_slice(extra);
        let out = qsmt().args(&args).output().expect("binary runs");
        assert!(out.status.success(), "{out:?}");
        let report = parse(&std::fs::read_to_string(report).unwrap()).unwrap();
        (String::from_utf8(out.stdout).unwrap(), report)
    };
    let (stdout, text_report) = run(&[], &file("text.json"));
    let (_, chrome_report) = run(&[&file("trace.json")], &file("chrome.json"));
    let chrome = parse(&std::fs::read_to_string(file("trace.json")).unwrap()).unwrap();

    // "; trace <id>", then "; [ start ms] <indent><name> (<dur> ms)".
    let (header, tree) = stdout
        .split_once("; trace ")
        .unwrap()
        .1
        .split_once('\n')
        .unwrap();
    let mut text_names: Vec<&str> = tree
        .lines()
        .map(|line| {
            let body = line.split_once("] ").expect("timestamp").1.trim_start();
            &body[..body.rfind(" (").expect("duration")]
        })
        .collect();
    let spans = chrome_spans(&chrome);
    let mut chrome_names: Vec<&str> = spans.iter().map(|s| s.0.as_str()).collect();
    text_names.sort_unstable();
    chrome_names.sort_unstable();
    assert_eq!(
        text_names, chrome_names,
        "the two views list different spans"
    );
    for name in [
        bench.as_str(),
        "absint",
        "goal i",
        "compile",
        "lint",
        "presolve",
        "sample",
        "read 0",
        "select",
    ] {
        assert!(
            text_names.contains(&name),
            "missing {name} in {text_names:?}"
        );
    }

    // Same seed, same trace: the text header, the Chrome document and
    // both reports carry one id.
    let trace_id = chrome.get("trace_id").and_then(Json::as_str).unwrap();
    assert_eq!(header, trace_id);
    for report in [&text_report, &chrome_report] {
        assert_eq!(
            report.get("trace_id").and_then(Json::as_str),
            Some(trace_id)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unsat_report_has_status_and_no_goals() {
    let doc = report_for("unsat_regex_length.smt2", &[]);
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("unsat"));
    let goals = doc.get("goals").and_then(Json::as_arr).unwrap();
    assert!(
        goals.is_empty(),
        "statically-refuted scripts never reach the sampler"
    );
    // Schema v6: the refutation is attributed to the abstract
    // interpreter, with a non-empty checked certificate.
    assert_eq!(
        doc.get("served_from").and_then(Json::as_str),
        Some("absint")
    );
    let absint = doc.get("absint").expect("absint section");
    assert_eq!(absint.get("verdict").and_then(Json::as_str), Some("unsat"));
    assert!(
        absint
            .get("certificate_steps")
            .and_then(Json::as_u64)
            .unwrap()
            >= 1
    );
}

#[test]
fn no_absint_flag_disables_the_stage_and_keeps_schema_additive() {
    let doc = report_for("table1_row2_palindrome.smt2", &["--no-absint"]);
    assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(12));
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("sat"));
    // The key stays present (additive schema) but is null when opted out.
    assert_eq!(doc.get("absint"), Some(&Json::Null));
}
