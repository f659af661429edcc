//! Marginals on the SIMD lanes.
//!
//! A marginals query is WMC plus one backward derivative pass over the
//! circuit's tape, run on the same `[f64; 8]` lanes as the forward sweep:
//! per node, a lane mask `d != 0` selects which lanes accumulate a
//! child's derivative. Skipped lanes must keep their bits exactly, so the
//! weights here include `0.0`, `-0.0` (a derivative that is zero either
//! way), `+∞` (whose products with zero are NaN) and `1e-300` (products
//! that underflow to subnormals and zero).
//!
//! Batches are shaped like the frames of a mixed serving stream — SAT,
//! WMC, counts under evidence and marginals — in groups of 1, 3, 8 and
//! 13, so marginals share lane groups with other kinds and fill only some
//! lanes. Each batch runs through `Engine::run_batch` and through tapes
//! built here with every supported lane backend forced, and every
//! marginal is compared bit for bit with `Circuit::wmc_marginals` on the
//! raw circuit.

use std::iter::once;

use three_roles::core::{Lit, PartialAssignment, SplitMix64, Var};
use three_roles::engine::{Engine, Query, QueryAnswer};
use three_roles::nnf::{
    smooth, Circuit, EvalTape, LaneBackend, LitWeights, SumProductAnswer, SumProductLane,
};
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

/// Seeded 20- and 30-variable 3-CNFs, then one unsatisfiable CNF.
fn corpus() -> Vec<Cnf> {
    let mut rng = SplitMix64::new(0x3a59_1a4e);
    let mut cnfs: Vec<Cnf> = [20, 30, 20, 30, 20, 30, 20, 30]
        .into_iter()
        .map(|n| random_3cnf(&mut rng, n, 3 * n))
        .collect();
    cnfs.push(Cnf::parse_dimacs("p cnf 4 4\n1 2 0\n-1 0\n-2 3 0\n-3 0\n").unwrap());
    cnfs
}

/// Literal weights of one of four families: uniform in `[0, 1)`; with
/// `0.0` and `-0.0` mixed in; with `1e-300` mixed in; and with zeros
/// plus one `+∞` literal, whose products with zero are NaN.
fn weights(rng: &mut SplitMix64, n: usize) -> LitWeights {
    let family = rng.below(4);
    let mut w = LitWeights::unit(n);
    for v in 0..n as u32 {
        for lit in [Var(v).positive(), Var(v).negative()] {
            let x = match (family, rng.below(8)) {
                (1 | 3, 0) => 0.0,
                (1 | 3, 1) => -0.0,
                (2, 0 | 1) => 1e-300,
                _ => rng.uniform(),
            };
            w.set(lit, x);
        }
    }
    if family == 3 {
        w.set(Var(rng.below(n) as u32).literal(rng.coin()), f64::INFINITY);
    }
    w
}

/// Evidence fixing up to three variables.
fn evidence(rng: &mut SplitMix64, n: usize) -> PartialAssignment {
    let mut pa = PartialAssignment::new(n);
    for _ in 0..rng.below(4) {
        pa.assign(Var(rng.below(n) as u32).literal(rng.coin()));
    }
    pa
}

/// A frame of `group` queries rotating through marginals, WMC, SAT and a
/// count under evidence: a lone query is a marginals query, and in every
/// larger frame marginals fill some lanes but not all.
fn frame(rng: &mut SplitMix64, n: usize, group: usize) -> Vec<Query> {
    (0..group)
        .map(|k| match k % 4 {
            0 => Query::Marginals(weights(rng, n)),
            1 => Query::Wmc(weights(rng, n)),
            2 => Query::Sat,
            _ => Query::ModelCountUnder(evidence(rng, n)),
        })
        .collect()
}

/// The scalar oracle on the raw circuit.
fn oracle(raw: &Circuit, query: &Query) -> QueryAnswer {
    match query {
        Query::Sat => QueryAnswer::Sat(raw.sat_dnnf()),
        Query::Wmc(w) => QueryAnswer::Wmc(raw.wmc(w)),
        Query::ModelCountUnder(pa) => QueryAnswer::ModelCount(raw.model_count_under(pa)),
        Query::Marginals(w) => {
            let (wmc, marginals) = raw.wmc_marginals(w);
            QueryAnswer::Marginals { wmc, marginals }
        }
        other => panic!("not a frame query: {other:?}"),
    }
}

/// An answer as comparable text: every `f64` as its bit pattern.
fn bits(answer: &QueryAnswer) -> String {
    let f = |x: &f64| format!("{:016x}", x.to_bits());
    match answer {
        QueryAnswer::Wmc(x) => format!("wmc {}", f(x)),
        QueryAnswer::Marginals { wmc, marginals } => once(format!("marginals {}", f(wmc)))
            .chain(marginals.iter().map(|(p, q)| format!("{} {}", f(p), f(q))))
            .collect::<Vec<_>>()
            .join(" "),
        other => format!("{other:?}"),
    }
}

/// The frame's non-SAT queries as sum-product lanes, answered on `tape`
/// and mapped back to engine answers, SAT from the raw circuit.
fn tape_answers(tape: &EvalTape, raw: &Circuit, batch: &[Query]) -> Vec<QueryAnswer> {
    let lanes: Vec<SumProductLane> = batch
        .iter()
        .filter_map(|q| match q {
            Query::Sat => None,
            Query::Wmc(w) => Some(SumProductLane::Wmc(w)),
            Query::Marginals(w) => Some(SumProductLane::Marginals(w)),
            Query::ModelCountUnder(pa) => Some(SumProductLane::CountUnder(pa)),
            other => panic!("not a frame query: {other:?}"),
        })
        .collect();
    let mut answers = tape.sum_product_batch(&lanes).into_iter();
    batch
        .iter()
        .map(|q| match q {
            Query::Sat => QueryAnswer::Sat(raw.sat_dnnf()),
            _ => match answers.next().expect("one answer per lane") {
                SumProductAnswer::Wmc(x) => QueryAnswer::Wmc(x),
                SumProductAnswer::Count(n) => QueryAnswer::ModelCount(n),
                SumProductAnswer::Marginals { wmc, marginals } => {
                    QueryAnswer::Marginals { wmc, marginals }
                }
            },
        })
        .collect()
}

#[test]
fn marginals_lanes_bit_match_the_raw_circuit_through_the_engine_and_every_backend() {
    let engine = Engine::new(1 << 24, Some(2));
    let backends = LaneBackend::all_supported();
    let mut rng = SplitMix64::new(0x0de5_1a4e);
    let (mut saw_unsat, mut marginals_checked) = (false, 0);
    for (i, cnf) in corpus().iter().enumerate() {
        let n = cnf.num_vars();
        let (_, circuit) = engine.compile(cnf);
        let raw = circuit.raw();
        saw_unsat |= !raw.sat_dnnf();
        let tapes: Vec<EvalTape> = backends
            .iter()
            .map(|&backend| {
                let mut tape = EvalTape::new(&smooth(raw));
                tape.set_lane_backend(backend);
                tape
            })
            .collect();
        for group in [1, 3, 8, 13] {
            let batch = frame(&mut rng, n, group);
            let expect: Vec<String> = batch.iter().map(|q| bits(&oracle(raw, q))).collect();
            marginals_checked += batch
                .iter()
                .filter(|q| matches!(q, Query::Marginals(_)))
                .count();
            let served: Vec<String> = engine
                .run_batch(&circuit, batch.clone())
                .expect("valid batch")
                .iter()
                .map(|o| bits(&o.answer))
                .collect();
            assert_eq!(served, expect, "instance {i}: run_batch, group of {group}");
            for (backend, tape) in backends.iter().zip(&tapes) {
                let got: Vec<String> = tape_answers(tape, raw, &batch).iter().map(bits).collect();
                assert_eq!(
                    got,
                    expect,
                    "instance {i}: {} tape, group of {group}",
                    backend.name()
                );
            }
        }
    }
    assert!(saw_unsat, "the corpus includes an unsatisfiable circuit");
    assert_eq!(marginals_checked, 9 * (1 + 1 + 2 + 4));
}
