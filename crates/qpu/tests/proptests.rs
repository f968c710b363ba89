//! Property-based tests for the QPU substrate: random problem graphs
//! embed validly, and the embedded-model construction preserves logical
//! energies on intact chains.

use proptest::prelude::*;
use qsmt_qpu::{embed, QpuSimulator, Topology};
use qsmt_qubo::QuboModel;

/// Random logical models over ≤ 6 variables with bounded degree, so they
/// always embed in a small Chimera.
fn arb_model() -> impl Strategy<Value = QuboModel> {
    let linear = proptest::collection::vec(-2.0f64..2.0, 2..=6);
    let quads = proptest::collection::vec((0usize..6, 0usize..6, -2.0f64..2.0), 0..=8);
    (linear, quads).prop_map(|(lin, quads)| {
        let n = lin.len();
        let mut m = QuboModel::new(n);
        for (i, v) in lin.into_iter().enumerate() {
            m.add_linear(i as u32, v);
        }
        for (a, b, v) in quads {
            let (a, b) = (a % n, b % n);
            if a != b {
                m.add_quadratic(a as u32, b as u32, v);
            }
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_problems_embed_validly_in_chimera(m in arb_model(), seed in 0u64..100) {
        let topo = Topology::chimera(3, 3, 4);
        let problem = QpuSimulator::problem_graph(&m);
        let e = embed(&problem, topo.graph(), seed, 16).expect("small graphs embed");
        prop_assert!(e.verify(&problem, topo.graph()));
    }

    #[test]
    fn intact_chain_states_reproduce_logical_energies(m in arb_model(), seed in 0u64..100) {
        let topo = Topology::chimera(3, 3, 4);
        let qpu = QpuSimulator::new(topo.clone()).with_seed(seed);
        let problem = QpuSimulator::problem_graph(&m);
        let emb = embed(&problem, topo.graph(), seed, 16).expect("embeds");
        let phys = qpu.embed_model(&m, &emb, 3.0);
        let n = m.num_vars();
        for bits in 0u32..(1 << n) {
            let logical: Vec<u8> = (0..n).map(|i| ((bits >> i) & 1) as u8).collect();
            // embed_model's layout: each chain's qubits in chain order.
            let physical: Vec<u8> = emb
                .chains()
                .iter()
                .zip(&logical)
                .flat_map(|(chain, &bit)| vec![bit; chain.len()])
                .collect();
            prop_assert_eq!(physical.len(), phys.num_vars());
            prop_assert!((phys.energy(&physical) - m.energy(&logical)).abs() < 1e-9);
        }
    }

    #[test]
    fn qpu_never_beats_exact_ground(m in arb_model(), seed in 0u64..50) {
        let (ground, _) = m.brute_force_ground_states();
        let qpu = QpuSimulator::new(Topology::chimera(3, 3, 4))
            .with_seed(seed)
            .with_num_reads(8);
        let resp = qpu.sample_qubo(&m).expect("embeds");
        if let Some(best) = resp.samples.lowest_energy() {
            prop_assert!(best >= ground - 1e-9);
        }
    }
}
