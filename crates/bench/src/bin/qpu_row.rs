//! The QPU row: prints `BENCH_qpu.json` to stdout.
//!
//! Every model `qsmt solve` (seed 0) submits for the sat
//! `benchmarks/*.smt2` scripts is minor-embedded onto Chimera
//! C(16,16,4) and the Pegasus-like P(16) and sampled by the simulated QPU
//! at its defaults. Absint tightenings are applied first, as `qsmt solve`
//! applies them; each pipeline stage is its own model; and each row holds
//! the whole encoded model, not its interaction-graph components. A row
//! records the model's variables, the physical qubits and longest chain
//! of its embedding, the chain-break fraction over all reads, and whether
//! any read decodes to an answer `Constraint::validate` accepts. The file
//! holds no timings, so a rerun reproduces it byte for byte; CI diffs it
//! against the committed copy.
//!
//! Exits 1 when a model does not embed (its row is missing from the
//! output).
//!
//! Run with: `cargo run --release -p qsmt-bench --bin qpu_row > BENCH_qpu.json`

use qsmt_core::{Constraint, SolveOptions, StringSolver};
use qsmt_qpu::{QpuSimulator, Topology};
use qsmt_smtlib::{apply_tightenings, Goal, Script};
use qsmt_telemetry::Json;
use std::path::Path;
use std::process::ExitCode;

/// One model `qsmt solve` submits: its script, goal and pipeline stage.
struct Model {
    script: String,
    goal: String,
    stage: usize,
    constraint: Constraint,
}

fn main() -> ExitCode {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("benchmarks/ is readable")
        .map(|entry| entry.expect("benchmarks/ entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "smt2"))
        .collect();
    paths.sort();

    let mut models = Vec::new();
    let mut unsat = Vec::new();
    for path in &paths {
        let script_name = path
            .file_name()
            .expect("a file")
            .to_string_lossy()
            .into_owned();
        let src = std::fs::read_to_string(path).expect("benchmark is readable");
        let script = Script::parse(&src).expect("benchmark parses");
        let absint = script.absint();
        if absint.is_refuted() {
            unsat.push(Json::from(script_name));
            continue;
        }
        let compiled = script.compile().expect("benchmark compiles");
        let (goals, _) = apply_tightenings(compiled, &absint.analysis);
        for goal in goals {
            let name = goal.name().to_string();
            let stages = match goal {
                Goal::StringConstraint { constraint, .. } | Goal::IndexQuery { constraint, .. } => {
                    vec![constraint]
                }
                // Each stage's input is the previous stage's answer, as
                // `qsmt solve` computes it.
                Goal::StringPipeline { pipeline, .. } => pipeline
                    .run(&StringSolver::with_defaults(), &SolveOptions::default())
                    .expect("pipeline solves")
                    .stages
                    .into_iter()
                    .map(|s| s.constraint)
                    .collect(),
            };
            models.extend(
                stages
                    .into_iter()
                    .enumerate()
                    .map(|(stage, constraint)| Model {
                        script: script_name.clone(),
                        goal: name.clone(),
                        stage,
                        constraint,
                    }),
            );
        }
    }

    let topologies = [Topology::chimera(16, 16, 4), Topology::pegasus_like(16)];
    let mut rows = Vec::new();
    let mut undecided = Vec::new();
    let mut failed = 0usize;
    for model in &models {
        let problem = model.constraint.encode().expect("benchmark goal encodes");
        for topology in &topologies {
            let label = format!(
                "{} {} stage {} on {}",
                model.script,
                model.goal,
                model.stage,
                topology.name()
            );
            let response = match QpuSimulator::new(topology.clone()).sample_qubo(&problem.qubo) {
                Ok(response) => response,
                Err(e) => {
                    eprintln!("{label}: {e}");
                    failed += 1;
                    continue;
                }
            };
            let decides = response.samples.iter().any(|sample| {
                problem
                    .decode_state(&sample.state)
                    .is_ok_and(|answer| model.constraint.validate(&answer))
            });
            if !decides {
                undecided.push(Json::from(label));
            }
            let break_fraction = (response.chain_break_fraction * 1e4).round() / 1e4;
            rows.push(Json::obj([
                ("script", Json::from(model.script.as_str())),
                ("goal", Json::from(model.goal.as_str())),
                ("stage", Json::from(model.stage)),
                ("constraint", Json::from(model.constraint.describe())),
                ("topology", Json::from(topology.name())),
                ("variables", Json::from(problem.num_vars())),
                (
                    "physical_qubits",
                    Json::from(response.embedding.num_physical_qubits()),
                ),
                (
                    "longest_chain",
                    Json::from(response.embedding.max_chain_length()),
                ),
                ("chain_break_fraction", Json::from(break_fraction)),
                ("decides", Json::from(decides)),
            ]));
        }
    }

    let header = [
        (
            "what",
            Json::from(
                "QPU row: every model qsmt solve (seed 0) submits for the sat benchmarks/*.smt2 \
                 scripts, minor-embedded onto each topology and sampled by the simulated QPU \
                 at its defaults. Absint tightenings are applied first, each pipeline stage is \
                 its own model, and each row holds the whole encoded model, not its \
                 interaction-graph components.",
            ),
        ),
        (
            "command",
            Json::from("cargo run --release -p qsmt-bench --bin qpu_row > BENCH_qpu.json"),
        ),
        (
            "simulator",
            Json::from(
                "QpuSimulator::new(topology) defaults: 64 reads of 256 sweeps, seed 0; chain \
                 strength qsmt_lint::chain_strength (uniform torque compensation, prefactor \
                 1.414); majority-vote chain-break resolution",
            ),
        ),
        (
            "topologies",
            Json::Arr(
                topologies
                    .iter()
                    .map(|t| {
                        Json::obj([
                            ("name", Json::from(t.name())),
                            ("qubits", Json::from(t.num_qubits())),
                            ("couplers", Json::from(t.num_couplers())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "fields",
            Json::from(
                "decides: some read decodes to an answer the goal's Constraint::validate \
                 accepts; chain_break_fraction: broken chains per read and chain, rounded to \
                 4 places; variables: the logical model's",
            ),
        ),
        ("unsat_scripts_skipped", Json::Arr(unsat)),
        ("models", Json::from(models.len())),
        ("undecided", Json::Arr(undecided)),
    ];

    let mut out = String::from("{\n");
    for (key, value) in header {
        out.push_str(&format!("  \"{key}\": {value},\n"));
    }
    out.push_str("  \"rows\": [\n");
    let lines: Vec<String> = rows.iter().map(|row| format!("    {row}")).collect();
    out.push_str(&lines.join(",\n"));
    out.push_str("\n  ]\n}\n");
    print!("{out}");

    if failed > 0 {
        eprintln!("{failed} model/topology pair(s) did not embed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
