//! A served circuit is its compiled arena plus one evaluation tape.
//!
//! Through the engine, every circuit query — MPE included — must answer
//! bit for bit what the scalar oracle answers on the smoothed circuit,
//! whether a batch holds one kind or mixes kinds. The tape the engine
//! serves from must be exactly the tape of the smoothed circuit, and a
//! warmed circuit must retain nothing besides the raw arena and that tape.

use std::iter::once;

use three_roles::core::{Lit, SplitMix64, Var};
use three_roles::engine::{Engine, PreparedCircuit, Query, QueryAnswer};
use three_roles::nnf::{smooth, Circuit, EvalTape, LitWeights};
use three_roles::prop::Cnf;

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

/// Random weights with exact zeros and repeated values, so that MPE
/// or-gates see both zero inputs and exact ties.
fn weights(rng: &mut SplitMix64, n: usize) -> LitWeights {
    let mut w = LitWeights::unit(n);
    for v in 0..n as u32 {
        for lit in [Var(v).positive(), Var(v).negative()] {
            let x = match rng.below(6) {
                0 => 0.0,
                1 => 0.5,
                _ => rng.uniform(),
            };
            w.set(lit, x);
        }
    }
    w
}

/// An answer as comparable bits: a kind tag, then every `f64` as its bit
/// pattern and every count or truth value as an integer.
fn bits(answer: &QueryAnswer) -> Vec<u64> {
    match answer {
        QueryAnswer::Sat(b) => vec![0, *b as u64],
        QueryAnswer::ModelCount(n) => vec![1, *n as u64, (*n >> 64) as u64],
        QueryAnswer::Wmc(x) => vec![2, x.to_bits()],
        QueryAnswer::Marginals { wmc, marginals } => once(3)
            .chain(once(wmc.to_bits()))
            .chain(
                marginals
                    .iter()
                    .flat_map(|(p, q)| [p.to_bits(), q.to_bits()]),
            )
            .collect(),
        QueryAnswer::MaxWeight(None) => vec![4],
        QueryAnswer::MaxWeight(Some((value, a))) => once(5)
            .chain(once(value.to_bits()))
            .chain(a.values().iter().map(|&b| b as u64))
            .collect(),
        other => panic!("not a circuit answer: {other:?}"),
    }
}

/// The scalar oracle's answer on the smoothed circuit.
fn oracle(raw: &Circuit, smoothed: &Circuit, query: &Query) -> QueryAnswer {
    match query {
        Query::Sat => QueryAnswer::Sat(raw.sat_dnnf()),
        Query::ModelCount => QueryAnswer::ModelCount(smoothed.model_count_presmoothed()),
        Query::Wmc(w) => QueryAnswer::Wmc(smoothed.wmc_presmoothed(w)),
        Query::Marginals(w) => {
            let (wmc, marginals) = smoothed.wmc_marginals_presmoothed(w);
            QueryAnswer::Marginals { wmc, marginals }
        }
        Query::MaxWeight(w) => QueryAnswer::MaxWeight(smoothed.max_weight_presmoothed(w)),
        other => panic!("not a circuit query: {other:?}"),
    }
}

#[test]
fn engine_answers_mpe_and_mixed_batches_bit_for_bit() {
    let engine = Engine::new(1 << 24, Some(2));
    let mut rng = SplitMix64::new(0x5e7e_d3c4);
    let mut cnfs: Vec<Cnf> = (0..200).map(|_| random_3cnf(&mut rng, 30, 100)).collect();
    cnfs.push(Cnf::parse_dimacs("p cnf 3 3\n1 2 0\n-1 0\n-2 0\n").unwrap());
    let mut saw_unsat = false;
    for (i, cnf) in cnfs.iter().enumerate() {
        let n = cnf.num_vars();
        let (_, prepared) = engine.compile(cnf);
        let smoothed = smooth(prepared.raw());

        // MPE only: a batch that crosses a lane-group boundary.
        let mpe: Vec<Query> = (0..11)
            .map(|_| Query::MaxWeight(weights(&mut rng, n)))
            .collect();
        // Mixed: every circuit query kind, interleaved.
        let mut mixed = vec![Query::Sat, Query::ModelCount];
        for _ in 0..3 {
            mixed.push(Query::MaxWeight(weights(&mut rng, n)));
            mixed.push(Query::Wmc(weights(&mut rng, n)));
            mixed.push(Query::Marginals(weights(&mut rng, n)));
        }
        for batch in [mpe, mixed] {
            let expect: Vec<Vec<u64>> = batch
                .iter()
                .map(|q| bits(&oracle(prepared.raw(), &smoothed, q)))
                .collect();
            saw_unsat |= expect.iter().any(|b| b == &[4]);
            let got: Vec<Vec<u64>> = engine
                .run_batch(&prepared, batch)
                .expect("valid batch")
                .iter()
                .map(|o| bits(&o.answer))
                .collect();
            assert_eq!(got, expect, "CNF #{i}");
        }
    }
    assert!(saw_unsat, "an unsatisfiable circuit answers MPE with None");
}

#[test]
fn served_tape_is_the_smoothed_circuits_tape_and_all_that_is_retained() {
    let mut rng = SplitMix64::new(0x7a9e_0001);
    for i in 0..200 {
        let cnf = random_3cnf(&mut rng, 30, 100);
        let c = three_roles::compiler::DecisionDnnfCompiler::default().compile(&cnf);
        let expect = EvalTape::new(&smooth(&c));
        let prepared = PreparedCircuit::new(c);
        assert_eq!(
            prepared.tape().layout_digest(),
            expect.layout_digest(),
            "CNF #{i}"
        );

        let warmed = PreparedCircuit::new(prepared.raw().clone());
        warmed.warm();
        assert_eq!(
            warmed.retained_nodes(),
            warmed.raw().node_count() + warmed.tape().len(),
            "CNF #{i}"
        );
    }
}
