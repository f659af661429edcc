//! Bit-identity of the evaluation kernels against the scalar queries,
//! across the crosscheck corpus.
//!
//! Every kernel variant — tape scalar, lane-batched, layer-parallel — must
//! return answers **bit-identical** (`f64::to_bits`, exact `u128` equality)
//! to the corresponding `queries.rs` entry point on the same smoothed
//! circuit: WMC, model count, model count under evidence, marginals and
//! MPE — the sum-product kinds also when they share one lane group.
//! The corpus is the same 50 deterministic instances the compiler's
//! crosscheck suite sweeps, so any divergence pins to a seed.

use trl_compiler::DecisionDnnfCompiler;
use trl_core::{PartialAssignment, SplitMix64, Var};
use trl_nnf::{
    smooth, Circuit, EvalTape, LaneBackend, LitWeights, SumProductAnswer, SumProductLane, LANES,
};

/// Per-variable weights skewed away from 1 so products differ per lane and
/// rounding is actually exercised.
fn skewed_weights(n: usize, seed: u64) -> LitWeights {
    let mut rng = SplitMix64::new(seed);
    let mut w = LitWeights::unit(n);
    for v in 0..n as u32 {
        let p = 0.05 + 0.9 * rng.uniform();
        w.set(Var(v).positive(), p);
        w.set(Var(v).negative(), 1.0 - p);
    }
    w
}

/// Deterministic evidence: a couple of assigned variables per instance.
fn evidence(n: usize, i: usize) -> PartialAssignment {
    let mut pa = PartialAssignment::new(n);
    pa.assign(Var(0).literal(i.is_multiple_of(2)));
    if n > 2 {
        pa.assign(Var((1 + i % (n - 1)) as u32).literal(!i.is_multiple_of(3)));
    }
    pa
}

fn corpus() -> Vec<(usize, Circuit)> {
    let mut rng = SplitMix64::new(0x5eed_c0de);
    let compiler = DecisionDnnfCompiler::default();
    (0..50)
        .map(|i| {
            let n = 4 + (i % 10);
            let m = 2 + ((i * 7) % (3 * n + 4));
            let cnf = trl_prop::gen::random_cnf(&mut rng, n, m, 4);
            (n, compiler.compile(&cnf))
        })
        .collect()
}

#[test]
fn wmc_kernels_bit_match_scalar_queries() {
    for (i, (n, circuit)) in corpus().into_iter().enumerate() {
        let smoothed = smooth(&circuit);
        let tape = EvalTape::new(&smoothed);
        // An awkward batch size: crosses one lane-group boundary.
        let weights: Vec<LitWeights> = (0..LANES + 3)
            .map(|k| skewed_weights(n, (i * 1000 + k) as u64))
            .collect();
        let refs: Vec<&LitWeights> = weights.iter().collect();

        let expect: Vec<u64> = weights
            .iter()
            .map(|w| smoothed.wmc_presmoothed(w).to_bits())
            .collect();
        let tape_scalar: Vec<u64> = weights.iter().map(|w| tape.wmc(w).to_bits()).collect();
        let batched: Vec<u64> = tape.wmc_batch(&refs).iter().map(|x| x.to_bits()).collect();
        let layered: Vec<u64> = tape
            .wmc_batch_layered(&refs, 3)
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(tape_scalar, expect, "instance {i}: tape scalar diverged");
        assert_eq!(batched, expect, "instance {i}: lane-batched diverged");
        assert_eq!(layered, expect, "instance {i}: layer-parallel diverged");
    }
}

#[test]
fn counting_kernels_match_scalar_queries() {
    for (i, (n, circuit)) in corpus().into_iter().enumerate() {
        let smoothed = smooth(&circuit);
        let tape = EvalTape::new(&smoothed);
        assert_eq!(
            tape.model_count(),
            smoothed.model_count_presmoothed(),
            "instance {i}"
        );
        let pa = evidence(n, i);
        let empty = PartialAssignment::new(n);
        assert_eq!(
            tape.model_count_under(&pa),
            smoothed.model_count_under_presmoothed(&pa),
            "instance {i}"
        );
        assert_eq!(
            tape.sum_product_batch(&[
                SumProductLane::CountUnder(&empty),
                SumProductLane::CountUnder(&pa),
                SumProductLane::Count,
                SumProductLane::CountUnder(&pa),
            ]),
            vec![
                SumProductAnswer::Count(smoothed.model_count_presmoothed()),
                SumProductAnswer::Count(smoothed.model_count_under_presmoothed(&pa)),
                SumProductAnswer::Count(smoothed.model_count_presmoothed()),
                SumProductAnswer::Count(smoothed.model_count_under_presmoothed(&pa)),
            ],
            "instance {i}"
        );
    }
}

#[test]
fn marginal_kernels_bit_match_scalar_queries() {
    let as_bits = |(wmc, marg): &(f64, Vec<(f64, f64)>)| -> (u64, Vec<(u64, u64)>) {
        (
            wmc.to_bits(),
            marg.iter()
                .map(|(p, q)| (p.to_bits(), q.to_bits()))
                .collect(),
        )
    };
    for (i, (n, circuit)) in corpus().into_iter().enumerate() {
        let smoothed = smooth(&circuit);
        let tape = EvalTape::new(&smoothed);
        let weights: Vec<LitWeights> = (0..LANES + 1)
            .map(|k| skewed_weights(n, (7 * i + k + 1) as u64))
            .collect();
        let refs: Vec<&LitWeights> = weights.iter().collect();

        let expect: Vec<_> = weights
            .iter()
            .map(|w| as_bits(&smoothed.wmc_marginals_presmoothed(w)))
            .collect();
        let tape_scalar: Vec<_> = weights
            .iter()
            .map(|w| as_bits(&tape.marginals(w)))
            .collect();
        let batched: Vec<_> = tape.marginals_batch(&refs).iter().map(as_bits).collect();
        let lanes: Vec<SumProductLane> =
            refs.iter().map(|w| SumProductLane::Marginals(w)).collect();
        let layered: Vec<_> = tape
            .sum_product_batch_layered(&lanes, 3)
            .iter()
            .map(|a| match a {
                SumProductAnswer::Marginals { wmc, marginals } => {
                    as_bits(&(*wmc, marginals.clone()))
                }
                other => panic!("instance {i}: {other:?} for a marginals lane"),
            })
            .collect();
        assert_eq!(tape_scalar, expect, "instance {i}: tape scalar diverged");
        assert_eq!(batched, expect, "instance {i}: lane-batched diverged");
        assert_eq!(layered, expect, "instance {i}: layer-parallel diverged");
    }
}

/// Every supported lane backend (the scalar fallback, plus whichever of
/// AVX2/AVX-512/NEON this host detects) answers WMC and marginals
/// bit-identically across the whole corpus — the forced-fallback path is
/// exercised on SIMD hosts because [`LaneBackend::Scalar`] is always in
/// the supported set.
#[test]
fn every_lane_backend_bit_matches_scalar_across_corpus() {
    let backends = LaneBackend::all_supported();
    assert!(backends.contains(&LaneBackend::Scalar));
    for (i, (n, circuit)) in corpus().into_iter().enumerate() {
        let smoothed = smooth(&circuit);
        let weights: Vec<LitWeights> = (0..LANES + 2)
            .map(|k| skewed_weights(n, (i * 31 + k) as u64))
            .collect();
        let refs: Vec<&LitWeights> = weights.iter().collect();
        let expect_wmc: Vec<u64> = weights
            .iter()
            .map(|w| smoothed.wmc_presmoothed(w).to_bits())
            .collect();
        let expect_marg: Vec<Vec<(u64, u64)>> = weights
            .iter()
            .map(|w| {
                smoothed
                    .wmc_marginals_presmoothed(w)
                    .1
                    .iter()
                    .map(|(p, q)| (p.to_bits(), q.to_bits()))
                    .collect()
            })
            .collect();
        for &backend in &backends {
            let mut tape = EvalTape::new(&smoothed);
            tape.set_lane_backend(backend);
            let got: Vec<u64> = tape.wmc_batch(&refs).iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, expect_wmc, "instance {i}: {} wmc", backend.name());
            let got: Vec<Vec<(u64, u64)>> = tape
                .marginals_batch(&refs)
                .iter()
                .map(|(_, marg)| {
                    marg.iter()
                        .map(|(p, q)| (p.to_bits(), q.to_bits()))
                        .collect()
                })
                .collect();
            assert_eq!(
                got,
                expect_marg,
                "instance {i}: {} marginals",
                backend.name()
            );
        }
    }
}

#[test]
fn tape_layers_are_topological_and_root_is_last() {
    for (i, (_, circuit)) in corpus().into_iter().enumerate() {
        let smoothed = smooth(&circuit);
        let tape = EvalTape::new(&smoothed);
        assert!(!tape.is_empty(), "instance {i}");
        assert!(
            tape.len() <= smoothed.node_count(),
            "instance {i}: tape holds only reachable nodes"
        );
        assert!(tape.num_layers() >= 1, "instance {i}");
        assert_eq!(tape.num_vars(), smoothed.num_vars(), "instance {i}");
    }
}

/// An MPE answer as comparable bits: the value's bit pattern and the full
/// maximizing assignment.
type MpeBits = Option<(u64, Vec<bool>)>;

fn mpe_bits(answer: &Option<(f64, trl_core::Assignment)>) -> MpeBits {
    answer
        .as_ref()
        .map(|(value, a)| (value.to_bits(), a.values().to_vec()))
}

/// Weight tables that stress the max-product kernel's edge cases, one
/// family per `k % 6`: skewed (no ties), unit (every or-gate's inputs tie
/// exactly), a pinned literal weighing `0.0`, one weighing `-0.0`, both
/// polarities of a variable at the same value (ties inside the smoothing
/// gadgets), and a literal weighing −∞ beside one weighing `0.0` (an
/// and-gate over both is −∞, where the plain product would be NaN).
fn mpe_weights(n: usize, seed: u64, k: usize) -> LitWeights {
    let mut w = skewed_weights(n, seed);
    let v = Var((k % n) as u32);
    match k % 6 {
        0 => {}
        1 => w = LitWeights::unit(n),
        2 => w.set(v.positive(), 0.0),
        3 => w.set(v.negative(), -0.0),
        4 => {
            w.set(v.positive(), 0.25);
            w.set(v.negative(), 0.25);
        }
        _ => {
            w.set(v.positive(), f64::NEG_INFINITY);
            w.set(Var(((k + 1) % n) as u32).negative(), 0.0);
        }
    }
    w
}

/// The lane-batched max-product kernel answers MPE bit-identically to the
/// scalar oracle — value bits and the whole assignment — on every
/// supported backend, for lane groups of 1, 3, 8 and 13 queries, across
/// the crosscheck corpus plus an unsatisfiable circuit.
#[test]
fn max_weight_kernel_bit_matches_scalar_oracle_on_every_backend() {
    let mut circuits = corpus();
    let unsat = trl_prop::Cnf::parse_dimacs("p cnf 3 3\n1 2 0\n-1 0\n-2 0\n").unwrap();
    circuits.push((3, DecisionDnnfCompiler::default().compile(&unsat)));
    let mut saw_unsat = false;
    for (i, (n, circuit)) in circuits.into_iter().enumerate() {
        let smoothed = smooth(&circuit);
        let weights: Vec<LitWeights> = (0..13)
            .map(|k| mpe_weights(n, (i * 97 + k) as u64, k))
            .collect();
        let expect: Vec<MpeBits> = weights
            .iter()
            .map(|w| mpe_bits(&smoothed.max_weight_presmoothed(w)))
            .collect();
        saw_unsat |= expect.iter().any(Option::is_none);
        for backend in LaneBackend::all_supported() {
            let mut tape = EvalTape::new(&smoothed);
            tape.set_lane_backend(backend);
            for group in [1, 3, 8, 13] {
                let refs: Vec<&LitWeights> = weights[..group].iter().collect();
                let got: Vec<MpeBits> = tape.max_weight_batch(&refs).iter().map(mpe_bits).collect();
                assert_eq!(
                    got,
                    expect[..group],
                    "instance {i}: {} group of {group}",
                    backend.name()
                );
            }
        }
    }
    assert!(saw_unsat, "the corpus includes an unsatisfiable circuit");
}

/// The weight families of the mixed-group test, one per `k % 4`: skewed
/// (no zeros), a literal weighing `0.0`, one weighing `-0.0`, and one
/// weighing `+∞` (its products with zero-valued nodes are NaN, which must
/// come out as the same bits too).
fn edge_weights(n: usize, seed: u64, k: usize) -> LitWeights {
    let mut w = skewed_weights(n, seed);
    let v = Var((k % n) as u32);
    match k % 4 {
        0 => {}
        1 => w.set(v.positive(), 0.0),
        2 => w.set(v.negative(), -0.0),
        _ => w.set(v.positive(), f64::INFINITY),
    }
    w
}

/// A sum-product answer as comparable bits: a kind tag, then every `f64`
/// as its bit pattern, or the exact count.
fn sum_product_bits(answer: &SumProductAnswer) -> Vec<u128> {
    match answer {
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
}

/// Lane groups mixing all four sum-product kinds, where only some lanes
/// ask for marginals, answer every lane bit for bit as its own scalar
/// oracle does — on every supported backend, sequentially and
/// layer-parallel, for groups of 1, 3, 8 and 13 lanes (the last crossing
/// a group boundary), across the corpus plus an unsatisfiable circuit.
#[test]
fn mixed_sum_product_groups_bit_match_scalar_oracles_on_every_backend() {
    let mut circuits = corpus();
    let unsat = trl_prop::Cnf::parse_dimacs("p cnf 3 3\n1 2 0\n-1 0\n-2 0\n").unwrap();
    circuits.push((3, DecisionDnnfCompiler::default().compile(&unsat)));
    for (i, (n, circuit)) in circuits.into_iter().enumerate() {
        let smoothed = smooth(&circuit);
        let weights: Vec<LitWeights> = (0..13)
            .map(|k| edge_weights(n, (i * 53 + k) as u64, k))
            .collect();
        let evidence: Vec<PartialAssignment> = (0..13).map(|k| evidence(n, i + k)).collect();
        // Kinds rotate with a period (5) prime to the weight families (4),
        // so every kind meets every weight family.
        let lanes: Vec<SumProductLane> = (0..13)
            .map(|k| match k % 5 {
                0 | 3 => SumProductLane::Wmc(&weights[k]),
                1 => SumProductLane::Marginals(&weights[k]),
                2 => SumProductLane::CountUnder(&evidence[k]),
                _ => SumProductLane::Count,
            })
            .collect();
        let expect: Vec<Vec<u128>> = lanes
            .iter()
            .map(|lane| {
                sum_product_bits(&match *lane {
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
            for group in [1, 3, 8, 13] {
                let name = backend.name();
                for (schedule, got) in [
                    ("lanes", tape.sum_product_batch(&lanes[..group])),
                    (
                        "layered",
                        tape.sum_product_batch_layered(&lanes[..group], 3),
                    ),
                ] {
                    let got: Vec<Vec<u128>> = got.iter().map(sum_product_bits).collect();
                    assert_eq!(
                        got,
                        expect[..group],
                        "instance {i}: {name} {schedule} group of {group}"
                    );
                }
            }
        }
    }
}

/// Every answer of one mixed sum-product batch and one MPE batch over
/// `tape`, as comparable bits.
fn sweep_bits(tape: &EvalTape, n: usize, seed: u64) -> (Vec<Vec<u128>>, Vec<MpeBits>) {
    let weights: Vec<LitWeights> = (0..11)
        .map(|k| edge_weights(n, seed + k as u64, k))
        .collect();
    let evidence: Vec<PartialAssignment> =
        (0..11).map(|k| evidence(n, seed as usize + k)).collect();
    let lanes: Vec<SumProductLane> = (0..11)
        .map(|k| match k % 4 {
            0 => SumProductLane::Wmc(&weights[k]),
            1 => SumProductLane::Marginals(&weights[k]),
            2 => SumProductLane::CountUnder(&evidence[k]),
            _ => SumProductLane::Count,
        })
        .collect();
    let mpe: Vec<LitWeights> = (0..11)
        .map(|k| mpe_weights(n, seed + k as u64, k))
        .collect();
    let mpe: Vec<&LitWeights> = mpe.iter().collect();
    let sum_product = tape
        .sum_product_batch(&lanes)
        .iter()
        .chain(&tape.sum_product_batch_layered(&lanes, 3))
        .map(sum_product_bits)
        .collect();
    (
        sum_product,
        tape.max_weight_batch(&mpe).iter().map(mpe_bits).collect(),
    )
}

/// Each thread keeps one plane buffer from sweep to sweep and never
/// clears it. Sweeping a large tape, then a small one, then the large one
/// again on one thread must answer — sum-product lanes with marginals,
/// and MPE lanes — bit for bit as sweeps on fresh threads, whose buffers
/// start empty, on every backend.
#[test]
fn reused_plane_buffers_answer_like_fresh_ones_on_every_backend() {
    let mut rng = SplitMix64::new(0x91a2e);
    let compiler = DecisionDnnfCompiler::default();
    let (large_n, small_n) = (28, 6);
    let large = smooth(&compiler.compile(&trl_prop::gen::random_cnf(&mut rng, large_n, 40, 6)));
    let small = smooth(&compiler.compile(&trl_prop::gen::random_cnf(&mut rng, small_n, 8, 3)));
    for backend in LaneBackend::all_supported() {
        let mut large_tape = EvalTape::new(&large);
        let mut small_tape = EvalTape::new(&small);
        large_tape.set_lane_backend(backend);
        small_tape.set_lane_backend(backend);
        assert!(
            large_tape.len() > 8 * small_tape.len(),
            "tapes too alike: {} vs {}",
            large_tape.len(),
            small_tape.len()
        );
        // Different inputs per step, so a slot read before it is written
        // would see another sweep's value.
        let steps = [
            (&large_tape, large_n, 1),
            (&small_tape, small_n, 2),
            (&large_tape, large_n, 3),
        ];
        let fresh: Vec<_> = steps
            .iter()
            .map(|&(tape, n, seed)| {
                std::thread::scope(|s| s.spawn(|| sweep_bits(tape, n, seed)).join().unwrap())
            })
            .collect();
        let reused: Vec<_> = steps
            .iter()
            .map(|&(tape, n, seed)| sweep_bits(tape, n, seed))
            .collect();
        assert_eq!(reused, fresh, "{}", backend.name());
    }
}
