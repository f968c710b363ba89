//! The regex kernel: `positional_sets` on the two regex shapes
//! qsmt_bench's `cli_generate` workload generates, over the two
//! alphabets the solver plans with — printable ASCII (the §4.11
//! encoder's `RegexMatch::plan`) and all 128 ASCII characters (the
//! abstract interpreter's `regex-chars` rule, once per fixpoint round
//! that knows the exact length).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qsmt_redex::{parse, positional_sets, printable_ascii};
use std::hint::black_box;

fn bench_positional_sets(c: &mut Criterion) {
    let ascii: Vec<char> = (0u8..128).map(char::from).collect();
    let alphabets = [("printable", printable_ascii()), ("ascii128", ascii)];
    let cases = [
        ("u.r?[n-q]*", 8usize),
        ("u.r?[n-q]*", 9),
        ("u.r?[n-q]*", 10),
        ("a(y|c)+", 10),
    ];
    let mut g = c.benchmark_group("regex-positional-sets");
    g.sample_size(2_000);
    for (pattern, len) in cases {
        let re = parse(pattern).expect("generator pattern parses");
        for (name, alphabet) in &alphabets {
            g.bench_with_input(
                BenchmarkId::new(format!("{pattern}/{name}"), len),
                &re,
                |b, re| b.iter(|| black_box(positional_sets(re, len, alphabet))),
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_positional_sets);
criterion_main!(benches);
