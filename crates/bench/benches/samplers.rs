//! Bench S2 — sampler shoot-out on the string-constraint QUBOs: simulated
//! annealing vs simulated quantum annealing vs steepest descent, plus the
//! geometric-vs-linear β-schedule ablation (DESIGN.md choice #5).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qsmt_anneal::{
    BetaSchedule, Sampler, SimulatedAnnealer, SimulatedQuantumAnnealer, SteepestDescent,
};
use qsmt_core::Constraint;
use std::hint::black_box;

fn workloads() -> Vec<(&'static str, qsmt_core::EncodedProblem)> {
    vec![
        (
            "palindrome3",
            Constraint::Palindrome { len: 3 }.encode().expect("encodes"),
        ),
        (
            "includes",
            Constraint::Includes {
                haystack: "abcabcabc".into(),
                needle: "abc".into(),
            }
            .encode()
            .expect("encodes"),
        ),
        (
            "regex4",
            Constraint::Regex {
                pattern: "a[bc]+".into(),
                len: 4,
            }
            .encode()
            .expect("encodes"),
        ),
    ]
}

fn bench_samplers(c: &mut Criterion) {
    let mut g = c.benchmark_group("samplers");
    g.sample_size(10);
    let samplers: Vec<Box<dyn Sampler>> = vec![
        Box::new(SimulatedAnnealer::new().with_seed(1).with_num_reads(16)),
        Box::new(
            SimulatedQuantumAnnealer::new()
                .with_seed(1)
                .with_num_reads(8)
                .with_trotter_slices(8),
        ),
        Box::new(SteepestDescent::new().with_seed(1).with_num_reads(16)),
    ];
    for (wname, problem) in workloads() {
        for sampler in &samplers {
            g.bench_with_input(BenchmarkId::new(sampler.name(), wname), &problem, |b, p| {
                b.iter(|| black_box(sampler.sample(&p.qubo)));
            });
        }
    }
    g.finish();
}

fn bench_schedules(c: &mut Criterion) {
    let mut g = c.benchmark_group("beta-schedule");
    g.sample_size(10);
    let problem = Constraint::Palindrome { len: 4 }.encode().expect("encodes");
    for (name, schedule) in [
        (
            "geometric",
            BetaSchedule::Geometric {
                beta_min: 0.1,
                beta_max: 10.0,
                sweeps: 256,
            },
        ),
        (
            "linear",
            BetaSchedule::Linear {
                beta_min: 0.1,
                beta_max: 10.0,
                sweeps: 256,
            },
        ),
    ] {
        let sa = SimulatedAnnealer::new()
            .with_seed(2)
            .with_num_reads(16)
            .with_schedule(schedule);
        g.bench_function(name, |b| b.iter(|| black_box(sa.sample(&problem.qubo))));
    }
    g.finish();
}

criterion_group!(benches, bench_samplers, bench_schedules);
criterion_main!(benches);
