//! Golden structural identity of the CNF → served-tape pipeline.
//!
//! Compiling, smoothing and linearizing are pure functions of their input,
//! and every answer the engine serves — and every registry charge, hence
//! every hit ratio — follows from the exact node arenas they produce. This
//! test pins those arenas node for node: digests of the compiled circuit
//! (plus the compiler's search counters), of the smoothed circuit, and of
//! the evaluation tape's slot/CSR/arena-order layout, folded over two
//! corpora and compared against hard-coded values. A change that speeds
//! the pipeline up must reproduce them exactly; a change that is meant to
//! alter circuits must update them deliberately.
//!
//! Corpora:
//! * the compiler crosscheck corpus (50 seeded random CNFs plus three edge
//!   cases) under all twelve `CacheMode` × `SignatureMode` × `Heuristic`
//!   configurations;
//! * 200 seeded random 3-CNFs with 30 variables and 100 clauses (the shape
//!   of a `kb-churn` library formula) under the default configuration.

use std::hash::Hasher;

use three_roles::compiler::{
    CacheMode, CompileStats, DecisionDnnfCompiler, Heuristic, SignatureMode,
};
use three_roles::core::{FxHasher, Lit, SplitMix64, Var};
use three_roles::nnf::{smooth, Circuit, EvalTape, NnfNode};
use three_roles::prop::{gen::random_cnf, Cnf};

/// Digests of one corpus: compiled circuits with their search counters,
/// smoothed circuits, and tape layouts.
#[derive(Debug, PartialEq, Eq)]
struct Digests {
    compiled: u64,
    smoothed: u64,
    tape: u64,
}

const CROSSCHECK: Digests = Digests {
    compiled: 0xaed8_edb4_561f_2f59,
    smoothed: 0x906b_20dc_0d54_f666,
    tape: 0x8164_1fe2_aef0_3df2,
};

const RANDOM_3CNF: Digests = Digests {
    compiled: 0x3672_771c_70de_c30d,
    smoothed: 0x4f9d_a25e_f140_5ad2,
    tape: 0x7d89_d96f_7c3a_ba2d,
};

fn circuit_digest(c: &Circuit) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(c.num_vars());
    h.write_usize(c.node_count());
    h.write_u32(c.root().0);
    for id in c.ids() {
        match c.node(id) {
            NnfNode::True => h.write_u8(0),
            NnfNode::False => h.write_u8(1),
            NnfNode::Lit(l) => {
                h.write_u8(2);
                h.write_u32(l.code());
            }
            NnfNode::And(xs) | NnfNode::Or(xs) => {
                h.write_u8(if matches!(c.node(id), NnfNode::And(_)) {
                    3
                } else {
                    4
                });
                h.write_usize(xs.len());
                for x in xs {
                    h.write_u32(x.0);
                }
            }
        }
    }
    h.finish()
}

fn stats_digest(h: &mut FxHasher, s: &CompileStats) {
    for x in [
        s.decisions,
        s.conflicts,
        s.propagations,
        s.cache_hits,
        s.cache_misses,
    ] {
        h.write_u64(x);
    }
}

/// Folds one compilation into the corpus hashers, and checks that the
/// smoothing of a loaded copy of the circuit (which cannot vouch for its
/// own normalization) agrees with the smoothing of the compiler's output.
fn fold(cnf: &Cnf, compiler: DecisionDnnfCompiler, hs: &mut [FxHasher; 3], label: &str) {
    let (circuit, stats) = compiler.compile_with_stats(cnf);
    hs[0].write_u64(circuit_digest(&circuit));
    stats_digest(&mut hs[0], &stats);
    let smoothed = smooth(&circuit);
    let smoothed_digest = circuit_digest(&smoothed);
    hs[1].write_u64(smoothed_digest);
    hs[2].write_u64(EvalTape::new(&smoothed).layout_digest());

    let nodes: Vec<NnfNode> = circuit.ids().map(|id| circuit.node(id).clone()).collect();
    let loaded = Circuit::from_parts(circuit.num_vars(), nodes, circuit.root()).unwrap();
    assert_eq!(
        circuit_digest(&smooth(&loaded)),
        smoothed_digest,
        "{label}: loaded and compiled circuits smooth differently"
    );
}

fn finish(hs: [FxHasher; 3]) -> Digests {
    Digests {
        compiled: hs[0].finish(),
        smoothed: hs[1].finish(),
        tape: hs[2].finish(),
    }
}

fn crosscheck_corpus() -> Vec<Cnf> {
    let mut rng = SplitMix64::new(0x5eed_c0de);
    let mut corpus: Vec<Cnf> = (0..50)
        .map(|i| {
            let n = 4 + (i % 10);
            let m = 2 + ((i * 7) % (3 * n + 4));
            random_cnf(&mut rng, n, m, 4)
        })
        .collect();
    corpus.push(Cnf::new(3));
    corpus.push(Cnf::parse_dimacs("p cnf 2 2\n1 0\n-1 0\n").unwrap());
    corpus.push(Cnf::parse_dimacs("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n").unwrap());
    corpus
}

/// A random 3-CNF: three distinct variables per clause, random signs.
fn random_3cnf(rng: &mut SplitMix64, n: usize, m: usize) -> Cnf {
    let mut cnf = Cnf::new(n);
    for _ in 0..m {
        let mut lits: Vec<Lit> = Vec::with_capacity(3);
        while lits.len() < 3 {
            let v = Var(rng.below(n) as u32);
            if lits.iter().all(|l| l.var() != v) {
                lits.push(v.literal(rng.coin()));
            }
        }
        cnf.add_clause(lits);
    }
    cnf
}

#[test]
fn crosscheck_corpus_is_node_identical_under_every_configuration() {
    let mut hs: [FxHasher; 3] = Default::default();
    for (i, cnf) in crosscheck_corpus().iter().enumerate() {
        for cache in [CacheMode::Components, CacheMode::None] {
            for signature in [SignatureMode::Packed, SignatureMode::Exact] {
                for heuristic in [
                    Heuristic::Vsads,
                    Heuristic::MaxOccurrence,
                    Heuristic::FirstUnassigned,
                ] {
                    let compiler = DecisionDnnfCompiler::new(cache)
                        .with_signature(signature)
                        .with_heuristic(heuristic);
                    let label = format!("crosscheck #{i} {cache:?}/{signature:?}/{heuristic:?}");
                    fold(cnf, compiler, &mut hs, &label);
                }
            }
        }
    }
    assert_eq!(finish(hs), CROSSCHECK);
}

#[test]
fn random_3cnfs_are_node_identical() {
    let mut rng = SplitMix64::new(0x3c4f_1de7);
    let mut hs: [FxHasher; 3] = Default::default();
    for i in 0..200 {
        let cnf = random_3cnf(&mut rng, 30, 100);
        fold(
            &cnf,
            DecisionDnnfCompiler::default(),
            &mut hs,
            &format!("3-CNF #{i}"),
        );
    }
    assert_eq!(finish(hs), RANDOM_3CNF);
}
