//! Bench S5 — the quantum-vs-classical crossover the paper's introduction
//! predicts: annealer wall time vs classical search as the string search
//! space grows. The pruned classical solver stays competitive on small
//! instances; the blind generate-and-test arm blows up combinatorially,
//! while annealer time grows only polynomially with variable count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qsmt_anneal::SimulatedAnnealer;
use qsmt_baseline::ClassicalSolver;
use qsmt_bench::crossover_case;
use qsmt_core::{Constraint, StringSolver, DEFAULT_READS, DEFAULT_SWEEPS};
use std::hint::black_box;
use std::sync::Arc;

/// The annealer arm at the default budget. The built-in solver would
/// answer these decomposable models by exact enumeration instead.
fn annealer(seed: u64) -> StringSolver {
    StringSolver::new(Arc::new(
        SimulatedAnnealer::new()
            .with_num_reads(DEFAULT_READS)
            .with_sweeps(DEFAULT_SWEEPS)
            .with_seed(seed),
    ))
}

fn bench_substring_crossover(c: &mut Criterion) {
    let mut g = c.benchmark_group("crossover-substring");
    g.sample_size(10);
    for len in [3usize, 4, 5] {
        let constraint = crossover_case(len);

        let quantum = annealer(4);
        g.bench_with_input(BenchmarkId::new("annealer", len), &constraint, |b, c| {
            b.iter(|| black_box(quantum.solve(c).expect("encodes")));
        });

        let pruned = ClassicalSolver::new();
        g.bench_with_input(
            BenchmarkId::new("classical-pruned", len),
            &constraint,
            |b, c| b.iter(|| black_box(pruned.solve(c))),
        );

        // The blind arm is the exponential one; a node-budget cap keeps
        // the criterion run bounded while preserving the growth shape
        // (crossover_report runs the uncapped version).
        let blind = ClassicalSolver::new()
            .without_pruning()
            .with_node_budget(2_000_000)
            .with_alphabet(('a'..='z').collect());
        g.bench_with_input(
            BenchmarkId::new("classical-blind", len),
            &constraint,
            |b, c| b.iter(|| black_box(blind.solve(c))),
        );
    }
    g.finish();
}

fn bench_regex_crossover(c: &mut Criterion) {
    let mut g = c.benchmark_group("crossover-regex");
    g.sample_size(10);
    for len in [4usize, 6, 8] {
        let constraint = Constraint::Regex {
            pattern: "z[yz]+".into(),
            len,
        };
        let quantum = annealer(5);
        g.bench_with_input(BenchmarkId::new("annealer", len), &constraint, |b, c| {
            b.iter(|| black_box(quantum.solve(c).expect("encodes")));
        });
        let blind = ClassicalSolver::new()
            .without_pruning()
            .with_node_budget(2_000_000);
        g.bench_with_input(
            BenchmarkId::new("classical-blind", len),
            &constraint,
            |b, c| b.iter(|| black_box(blind.solve(c))),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_substring_crossover, bench_regex_crossover);
criterion_main!(benches);
