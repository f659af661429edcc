//! Randomized property tests for the evaluation kernels: on random CNFs
//! with random (sometimes zero) weights, random evidence, random batch
//! sizes, and random thread counts, every kernel variant must stay
//! bit-identical to the scalar queries.
//!
//! Zero weights matter: they drive node values — and therefore derivative
//! flows — to exact `0.0`, exercising the marginal kernels' zero-skip path,
//! which is where an execution-order difference would first show up.
//!
//! Gated behind the `proptest` feature (default on): `cargo test -p trl-nnf
//! --no-default-features` skips the randomized sweeps. Instances come from
//! the workspace's deterministic generator — on failure, rerun with the
//! seed printed in the assertion message.
#![cfg(feature = "proptest")]

use trl_compiler::DecisionDnnfCompiler;
use trl_core::{PartialAssignment, SplitMix64, Var};
use trl_nnf::{
    smooth, EvalTape, LaneBackend, LitWeights, SumProductAnswer, SumProductLane, SweepPool, LANES,
};

const CASES: u64 = 60;

/// Random weights; roughly one literal in six weighs exactly zero.
fn random_weights(rng: &mut SplitMix64, n: usize) -> LitWeights {
    let mut w = LitWeights::unit(n);
    for v in 0..n as u32 {
        for lit in [Var(v).positive(), Var(v).negative()] {
            let x = if rng.below(6) == 0 {
                0.0
            } else {
                3.0 * rng.uniform()
            };
            w.set(lit, x);
        }
    }
    w
}

fn random_evidence(rng: &mut SplitMix64, n: usize) -> PartialAssignment {
    let mut pa = PartialAssignment::new(n);
    for v in 0..n as u32 {
        match rng.below(3) {
            0 => pa.assign(Var(v).positive()),
            1 => pa.assign(Var(v).negative()),
            _ => {}
        }
    }
    pa
}

fn marginal_lanes<'a>(weights: &[&'a LitWeights]) -> Vec<SumProductLane<'a>> {
    weights
        .iter()
        .map(|w| SumProductLane::Marginals(w))
        .collect()
}

fn marginals_of(answers: Vec<SumProductAnswer>) -> Vec<(f64, Vec<(f64, f64)>)> {
    answers
        .into_iter()
        .map(|a| match a {
            SumProductAnswer::Marginals { wmc, marginals } => (wmc, marginals),
            other => panic!("{other:?} for a marginals lane"),
        })
        .collect()
}

#[test]
fn kernels_bit_match_scalar_on_random_instances() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let n = 3 + rng.below(8);
        let m = 1 + rng.below(3 * n + 1);
        let k = 2 + rng.below(3);
        let cnf = trl_prop::gen::random_cnf(&mut rng, n, m, k);
        let circuit = DecisionDnnfCompiler::default().compile(&cnf);
        let smoothed = smooth(&circuit);
        let tape = EvalTape::new(&smoothed);

        let batch = 1 + rng.below(3 * LANES);
        let threads = 2 + rng.below(3);
        let weights: Vec<LitWeights> = (0..batch).map(|_| random_weights(&mut rng, n)).collect();
        let refs: Vec<&LitWeights> = weights.iter().collect();

        // WMC, all variants.
        let expect: Vec<u64> = weights
            .iter()
            .map(|w| smoothed.wmc_presmoothed(w).to_bits())
            .collect();
        let scalar: Vec<u64> = weights.iter().map(|w| tape.wmc(w).to_bits()).collect();
        let batched: Vec<u64> = tape.wmc_batch(&refs).iter().map(|x| x.to_bits()).collect();
        let layered: Vec<u64> = tape
            .wmc_batch_layered(&refs, threads)
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(scalar, expect, "seed {seed}: tape wmc");
        assert_eq!(batched, expect, "seed {seed}: wmc_batch");
        assert_eq!(layered, expect, "seed {seed}: wmc_batch_layered({threads})");

        // Marginals, all variants, all literals bit-for-bit.
        let expect: Vec<(u64, Vec<(u64, u64)>)> = weights
            .iter()
            .map(|w| {
                let (wmc, marg) = smoothed.wmc_marginals_presmoothed(w);
                (
                    wmc.to_bits(),
                    marg.iter()
                        .map(|(p, q)| (p.to_bits(), q.to_bits()))
                        .collect(),
                )
            })
            .collect();
        for (name, got) in [
            (
                "marginals",
                weights
                    .iter()
                    .map(|w| tape.marginals(w))
                    .collect::<Vec<_>>(),
            ),
            ("marginals_batch", tape.marginals_batch(&refs)),
            (
                "sum_product_batch_layered",
                marginals_of(tape.sum_product_batch_layered(&marginal_lanes(&refs), threads)),
            ),
        ] {
            let got: Vec<(u64, Vec<(u64, u64)>)> = got
                .iter()
                .map(|(wmc, marg)| {
                    (
                        wmc.to_bits(),
                        marg.iter()
                            .map(|(p, q)| (p.to_bits(), q.to_bits()))
                            .collect(),
                    )
                })
                .collect();
            assert_eq!(got, expect, "seed {seed}: {name}");
        }

        // Counting, plain and under random evidence.
        assert_eq!(
            tape.model_count(),
            smoothed.model_count_presmoothed(),
            "seed {seed}"
        );
        let evidence: Vec<PartialAssignment> =
            (0..batch).map(|_| random_evidence(&mut rng, n)).collect();
        let erefs: Vec<&PartialAssignment> = evidence.iter().collect();
        let expect: Vec<u128> = evidence
            .iter()
            .map(|pa| smoothed.model_count_under_presmoothed(pa))
            .collect();
        let scalar: Vec<u128> = evidence
            .iter()
            .map(|pa| tape.model_count_under(pa))
            .collect();
        assert_eq!(scalar, expect, "seed {seed}: model_count_under");
        let lanes: Vec<SumProductLane> = erefs
            .iter()
            .map(|pa| SumProductLane::CountUnder(pa))
            .collect();
        assert_eq!(
            tape.sum_product_batch(&lanes),
            expect
                .iter()
                .map(|&n| SumProductAnswer::Count(n))
                .collect::<Vec<_>>(),
            "seed {seed}: sum_product_batch counts under evidence"
        );

        // Evidence counting agrees with brute-force model filtering.
        let models = smoothed.enumerate_models();
        for (pa, &count) in evidence.iter().zip(&expect) {
            let brute = models
                .iter()
                .filter(|m| {
                    (0..n).all(|v| {
                        pa.value(Var(v as u32))
                            .is_none_or(|want| m.value(Var(v as u32)) == want)
                    })
                })
                .count() as u128;
            assert_eq!(count, brute, "seed {seed}: evidence count vs enumeration");
        }
    }
}

/// Every supported lane backend × every schedule (sequential lanes, the
/// global layered entry point, and a private pool with real worker
/// threads) must answer bit-identically to the scalar queries — the full
/// SIMD == scalar-lane == reference matrix, on random instances with
/// random batch shapes and random participant counts.
#[test]
fn backend_and_schedule_matrix_bit_matches_scalar() {
    let pool = SweepPool::new(3);
    for seed in 0..CASES / 2 {
        let mut rng = SplitMix64::new(0xface_0000 ^ seed);
        let n = 3 + rng.below(8);
        let m = 1 + rng.below(3 * n + 1);
        let cnf = trl_prop::gen::random_cnf(&mut rng, n, m, 3);
        let circuit = DecisionDnnfCompiler::default().compile(&cnf);
        let smoothed = smooth(&circuit);

        let batch = 1 + rng.below(2 * LANES);
        let participants = 2 + rng.below(2);
        let weights: Vec<LitWeights> = (0..batch).map(|_| random_weights(&mut rng, n)).collect();
        let refs: Vec<&LitWeights> = weights.iter().collect();
        let expect_wmc: Vec<u64> = weights
            .iter()
            .map(|w| smoothed.wmc_presmoothed(w).to_bits())
            .collect();
        let expect_marg: Vec<(u64, Vec<(u64, u64)>)> = weights
            .iter()
            .map(|w| {
                let (wmc, marg) = smoothed.wmc_marginals_presmoothed(w);
                (
                    wmc.to_bits(),
                    marg.iter()
                        .map(|(p, q)| (p.to_bits(), q.to_bits()))
                        .collect(),
                )
            })
            .collect();
        let pa = random_evidence(&mut rng, n);
        let expect_under = smoothed.model_count_under_presmoothed(&pa);

        for backend in LaneBackend::all_supported() {
            let mut tape = EvalTape::new(&smoothed);
            tape.set_lane_backend(backend);
            assert_eq!(tape.lane_backend(), backend, "seed {seed}");
            let name = backend.name();

            for (schedule, got) in [
                ("wmc_batch", tape.wmc_batch(&refs)),
                (
                    "wmc_batch_layered",
                    tape.wmc_batch_layered(&refs, participants),
                ),
                (
                    "wmc_batch_pooled",
                    tape.wmc_batch_pooled(&refs, &pool, participants),
                ),
            ] {
                let got: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, expect_wmc, "seed {seed}: {name} {schedule}");
            }
            for (schedule, got) in [
                ("marginals_batch", tape.marginals_batch(&refs)),
                (
                    "sum_product_batch_pooled",
                    marginals_of(tape.sum_product_batch_pooled(
                        &marginal_lanes(&refs),
                        &pool,
                        participants,
                    )),
                ),
            ] {
                let got: Vec<(u64, Vec<(u64, u64)>)> = got
                    .iter()
                    .map(|(wmc, marg)| {
                        (
                            wmc.to_bits(),
                            marg.iter()
                                .map(|(p, q)| (p.to_bits(), q.to_bits()))
                                .collect(),
                        )
                    })
                    .collect();
                assert_eq!(got, expect_marg, "seed {seed}: {name} {schedule}");
            }
            assert_eq!(
                tape.sum_product_batch(&[SumProductLane::CountUnder(&pa)]),
                vec![SumProductAnswer::Count(expect_under)],
                "seed {seed}: {name} count under evidence"
            );
        }
    }
}

/// The max-product kernel against the scalar MPE oracle on random
/// instances: random weights with exact zeros, `-0.0`, −∞ and repeated
/// values (so or-gate inputs tie), random batch sizes, every supported
/// backend.
/// Value bits and the full maximizing assignment must match.
#[test]
fn max_weight_kernel_bit_matches_scalar_on_random_instances() {
    type MpeBits = Option<(u64, Vec<bool>)>;
    let bits = |a: &Option<(f64, trl_core::Assignment)>| -> MpeBits {
        a.as_ref()
            .map(|(value, a)| (value.to_bits(), a.values().to_vec()))
    };
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0x3a9e_0000 ^ seed);
        let n = 3 + rng.below(8);
        let m = 1 + rng.below(3 * n + 1);
        let k = 2 + rng.below(3);
        let cnf = trl_prop::gen::random_cnf(&mut rng, n, m, k);
        let circuit = DecisionDnnfCompiler::default().compile(&cnf);
        let smoothed = smooth(&circuit);

        let batch = 1 + rng.below(2 * LANES);
        let weights: Vec<LitWeights> = (0..batch)
            .map(|_| {
                let mut w = random_weights(&mut rng, n);
                for v in 0..n as u32 {
                    for lit in [Var(v).positive(), Var(v).negative()] {
                        match rng.below(12) {
                            0 => w.set(lit, -0.0),
                            1 => w.set(lit, 0.5),
                            2 => w.set(lit, f64::NEG_INFINITY),
                            _ => {}
                        }
                    }
                }
                w
            })
            .collect();
        let refs: Vec<&LitWeights> = weights.iter().collect();
        let expect: Vec<MpeBits> = weights
            .iter()
            .map(|w| bits(&smoothed.max_weight_presmoothed(w)))
            .collect();
        for backend in LaneBackend::all_supported() {
            let mut tape = EvalTape::new(&smoothed);
            tape.set_lane_backend(backend);
            let got: Vec<MpeBits> = tape.max_weight_batch(&refs).iter().map(bits).collect();
            assert_eq!(
                got,
                expect,
                "seed {seed}: {} max_weight_batch",
                backend.name()
            );
        }
    }
}

/// Random mixed sum-product lane groups against the scalar oracles: every
/// lane draws its kind (WMC, marginals, count, count under evidence), so
/// only some lanes of a group ask for marginals; weights draw exact `0.0`,
/// `-0.0` and `+∞`; batch sizes and participant counts are random. Every
/// supported backend, sequential and on a private pool; every lane must
/// match its own oracle bit for bit (counts: equal integers).
#[test]
fn mixed_sum_product_lanes_bit_match_scalar_on_random_instances() {
    let pool = SweepPool::new(3);
    let bits = |a: &SumProductAnswer| -> Vec<u128> {
        match a {
            SumProductAnswer::Wmc(x) => vec![0, x.to_bits().into()],
            SumProductAnswer::Count(n) => vec![1, *n],
            SumProductAnswer::Marginals { wmc, marginals } => [2, wmc.to_bits().into()]
                .into_iter()
                .chain(
                    marginals
                        .iter()
                        .flat_map(|(p, q)| [p.to_bits().into(), q.to_bits().into()]),
                )
                .collect(),
        }
    };
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0x5a3d_0000 ^ seed);
        let n = 3 + rng.below(8);
        let m = 1 + rng.below(3 * n + 1);
        let cnf = trl_prop::gen::random_cnf(&mut rng, n, m, 3);
        let circuit = DecisionDnnfCompiler::default().compile(&cnf);
        let smoothed = smooth(&circuit);

        let batch = 1 + rng.below(2 * LANES);
        let participants = 2 + rng.below(2);
        let weights: Vec<LitWeights> = (0..batch)
            .map(|_| {
                let mut w = random_weights(&mut rng, n);
                for v in 0..n as u32 {
                    for lit in [Var(v).positive(), Var(v).negative()] {
                        match rng.below(16) {
                            0 => w.set(lit, -0.0),
                            1 => w.set(lit, f64::INFINITY),
                            _ => {}
                        }
                    }
                }
                w
            })
            .collect();
        let evidence: Vec<PartialAssignment> =
            (0..batch).map(|_| random_evidence(&mut rng, n)).collect();
        let lanes: Vec<SumProductLane> = (0..batch)
            .map(|k| match rng.below(4) {
                0 => SumProductLane::Wmc(&weights[k]),
                1 => SumProductLane::Marginals(&weights[k]),
                2 => SumProductLane::CountUnder(&evidence[k]),
                _ => SumProductLane::Count,
            })
            .collect();
        let expect: Vec<Vec<u128>> = lanes
            .iter()
            .map(|lane| {
                bits(&match *lane {
                    SumProductLane::Wmc(w) => SumProductAnswer::Wmc(smoothed.wmc_presmoothed(w)),
                    SumProductLane::Marginals(w) => {
                        let (wmc, marginals) = smoothed.wmc_marginals_presmoothed(w);
                        SumProductAnswer::Marginals { wmc, marginals }
                    }
                    SumProductLane::Count => {
                        SumProductAnswer::Count(smoothed.model_count_presmoothed())
                    }
                    SumProductLane::CountUnder(pa) => {
                        SumProductAnswer::Count(smoothed.model_count_under_presmoothed(pa))
                    }
                })
            })
            .collect();
        for backend in LaneBackend::all_supported() {
            let mut tape = EvalTape::new(&smoothed);
            tape.set_lane_backend(backend);
            let name = backend.name();
            for (schedule, got) in [
                ("sum_product_batch", tape.sum_product_batch(&lanes)),
                (
                    "sum_product_batch_pooled",
                    tape.sum_product_batch_pooled(&lanes, &pool, participants),
                ),
            ] {
                let got: Vec<Vec<u128>> = got.iter().map(bits).collect();
                assert_eq!(got, expect, "seed {seed}: {name} {schedule}");
            }
        }
    }
}
