//! The cost of the hardware path: direct annealing vs solving through
//! Chimera / Pegasus-style minor embedding, and the embedding search
//! itself. `qpu_row` (`BENCH_qpu.json`) records what embeds and decides.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qsmt_anneal::{Sampler, SimulatedAnnealer};
use qsmt_core::Constraint;
use qsmt_qpu::{embed, QpuSimulator, Topology};
use std::hint::black_box;

fn problem() -> qsmt_core::EncodedProblem {
    Constraint::Palindrome { len: 3 }.encode().expect("encodes")
}

fn bench_direct_vs_embedded(c: &mut Criterion) {
    let mut g = c.benchmark_group("qpu-path");
    g.sample_size(10);
    let p = problem();

    let sa = SimulatedAnnealer::new().with_seed(1).with_num_reads(32);
    g.bench_function("direct", |b| b.iter(|| black_box(sa.sample(&p.qubo))));

    for (name, topo) in [
        ("chimera", Topology::chimera(4, 4, 4)),
        ("pegasus-like", Topology::pegasus_like(4)),
    ] {
        let qpu = QpuSimulator::new(topo).with_seed(1).with_num_reads(32);
        g.bench_function(BenchmarkId::new("embedded", name), |b| {
            b.iter(|| black_box(qpu.sample_qubo(&p.qubo).expect("embeds")));
        });
    }
    g.finish();
}

fn bench_embedding_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("minor-embedding");
    g.sample_size(10);
    let p = problem();
    let graph = QpuSimulator::problem_graph(&p.qubo);
    for (name, topo) in [
        ("chimera", Topology::chimera(4, 4, 4)),
        ("pegasus-like", Topology::pegasus_like(4)),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(embed(&graph, topo.graph(), 1, 8).expect("embeds")));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_direct_vs_embedded, bench_embedding_search);
criterion_main!(benches);
