//! Integration: Bayesian network → CNF encoding → compiled circuit →
//! queries, validated against variable elimination end to end.

use three_roles::bayesnet::compiled::{map_value_sdd, sdp_sdd};
use three_roles::bayesnet::models::{abc, medical, random_network};
use three_roles::bayesnet::{CompiledBn, EncodingStyle};

#[test]
fn random_networks_circuit_equals_ve() {
    for seed in [1u64, 5, 9] {
        let bn = random_network(seed, 8, 2, 0.3);
        let compiled = CompiledBn::new(bn.clone(), EncodingStyle::LocalStructure);
        for ev in [vec![], vec![(2usize, 1usize)], vec![(0, 1), (5, 0)]] {
            let p_ve = bn.pr_evidence(&ev);
            let p_c = compiled.pr_evidence(&ev);
            assert!((p_ve - p_c).abs() < 1e-9, "seed {seed} ev {ev:?}");
            if p_ve > 1e-12 {
                let posts = compiled.posteriors(&ev).unwrap();
                #[allow(clippy::needless_range_loop)] // v indexes parallel per-variable tables
                #[allow(clippy::needless_range_loop)]
                // v indexes parallel per-variable tables
                for v in 0..bn.num_vars() {
                    let ve = bn.posterior(v, &ev);
                    for val in 0..2 {
                        assert!(
                            (posts[v][val] - ve[val]).abs() < 1e-9,
                            "seed {seed} ev {ev:?} var {v}"
                        );
                    }
                }
                let (_, mpe_c) = compiled.mpe(&ev).unwrap();
                let (_, mpe_ve) = bn.mpe(&ev);
                assert!((mpe_c - mpe_ve).abs() < 1e-9);
            }
        }
    }
}

#[test]
fn both_encoding_styles_agree() {
    let bn = medical();
    let base = CompiledBn::new(bn.clone(), EncodingStyle::Baseline);
    let local = CompiledBn::new(bn, EncodingStyle::LocalStructure);
    for ev in [
        vec![],
        vec![(2usize, 1usize), (3usize, 1usize)],
        vec![(4, 0)],
    ] {
        assert!((base.pr_evidence(&ev) - local.pr_evidence(&ev)).abs() < 1e-12);
    }
}

#[test]
fn upper_class_queries_end_to_end() {
    let bn = abc();
    // MAP over {A} given C=1, against constrained elimination.
    let (_, ve) = bn.map(&[0], &vec![(2, 1)]);
    let circuit = map_value_sdd(&bn, &[0], &vec![(2, 1)]);
    assert!((ve - circuit).abs() < 1e-9);
    // SDP for the decision Pr(A=1|·) ≥ 0.5 observing B.
    let ve = bn.sdp(0, 1, 0.5, &[1], &vec![]);
    let circuit = sdp_sdd(&bn, 0, 1, 0.5, &[1], &vec![]);
    assert!((ve - circuit).abs() < 1e-9);
}

#[test]
fn deterministic_networks_stay_exact() {
    // High determinism exercises the 0/1 shortcuts end to end.
    let bn = random_network(77, 10, 3, 0.8);
    let compiled = CompiledBn::new(bn.clone(), EncodingStyle::LocalStructure);
    let ev = vec![];
    let posts = compiled.posteriors(&ev).unwrap();
    #[allow(clippy::needless_range_loop)] // v indexes parallel per-variable tables
    for v in 0..bn.num_vars() {
        let ve = bn.posterior(v, &ev);
        assert!((posts[v][1] - ve[1]).abs() < 1e-9, "var {v}");
    }
}
