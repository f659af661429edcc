//! Counts, WMC and marginals share one sum-product sweep.
//!
//! On a smooth d-DNNF a model count is WMC under 0/1 literal weights, so
//! the engine answers every sum-product query of a batch — WMC, marginals,
//! model counts with or without evidence, in any mix — in the lanes of one
//! `f64` tape sweep, and SAT from a per-circuit constant. Through the
//! executor (`Engine::run_batch`), every answer must equal its scalar
//! oracle: WMC and marginals bit for bit, counts as the exact `u128` tape
//! pass.
//!
//! Count lanes are exact in `f64` only while the universe has at most 53
//! variables; past that they take the `u128` lane sweep. The boundary test
//! pins both sides with a clause over all `n` variables, whose
//! `2^n − 1` models `f64` can hold at `n = 53` but not at `n = 54`. The
//! sweeps a batch runs are read from its trace and from the
//! `kernel.u128_sweeps` counter, which is process-global, so the tests in
//! this file take one lock and never run side by side.

use std::iter::once;
use std::sync::{Arc, Mutex, MutexGuard};

use three_roles::core::{Lit, PartialAssignment, SplitMix64, Var};
use three_roles::engine::{Engine, ParallelPolicy, PreparedCircuit, Query, QueryAnswer};
use three_roles::nnf::{smooth, Circuit, EvalTape, LitWeights};
use three_roles::obs::{collect_trace, force_tracing, with_current_trace, TraceContext};
use three_roles::prop::Cnf;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
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

/// Random weights with exact `0.0`, `-0.0` and repeated values.
fn weights(rng: &mut SplitMix64, n: usize) -> LitWeights {
    let mut w = LitWeights::unit(n);
    for v in 0..n as u32 {
        for lit in [Var(v).positive(), Var(v).negative()] {
            let x = match rng.below(8) {
                0 => 0.0,
                1 => -0.0,
                2 => 0.5,
                _ => rng.uniform(),
            };
            w.set(lit, x);
        }
    }
    w
}

/// Evidence fixing each variable with probability 1/4.
fn evidence(rng: &mut SplitMix64, n: usize) -> PartialAssignment {
    let mut pa = PartialAssignment::new(n);
    for v in 0..n as u32 {
        if rng.below(4) == 0 {
            pa.assign(Var(v).literal(rng.coin()));
        }
    }
    pa
}

/// `group` sum-product queries of random kinds, with SAT in front and
/// behind.
fn mixed_batch(rng: &mut SplitMix64, n: usize, group: usize) -> Vec<Query> {
    let sum_product = (0..group).map(|_| match rng.below(4) {
        0 => Query::Wmc(weights(rng, n)),
        1 => Query::Marginals(weights(rng, n)),
        2 => Query::ModelCountUnder(evidence(rng, n)),
        _ => Query::ModelCount,
    });
    once(Query::Sat)
        .chain(sum_product.collect::<Vec<_>>())
        .chain(once(Query::Sat))
        .collect()
}

/// The scalar oracle: the tape's one-query passes for WMC and counts
/// (exact `u128`), the arena pass for marginals, the arena walk for SAT.
fn oracle(raw: &Circuit, smoothed: &Circuit, tape: &EvalTape, query: &Query) -> QueryAnswer {
    match query {
        Query::Sat => QueryAnswer::Sat(raw.sat_dnnf()),
        Query::ModelCount => QueryAnswer::ModelCount(tape.model_count()),
        Query::ModelCountUnder(pa) => QueryAnswer::ModelCount(tape.model_count_under(pa)),
        Query::Wmc(w) => QueryAnswer::Wmc(tape.wmc(w)),
        Query::Marginals(w) => {
            let (wmc, marginals) = smoothed.wmc_marginals_presmoothed(w);
            QueryAnswer::Marginals { wmc, marginals }
        }
        other => panic!("not a sum-product query: {other:?}"),
    }
}

/// An answer as comparable text: every `f64` as its bit pattern, counts
/// and truth values as they are.
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

fn u128_sweeps() -> u64 {
    three_roles::obs::snapshot()
        .counter("kernel.u128_sweeps")
        .unwrap_or(0)
}

/// The names of the spans a blocking batch records under a forced trace.
fn traced_spans(engine: &Engine, circuit: &Arc<PreparedCircuit>, batch: Vec<Query>) -> Vec<String> {
    let _forced = force_tracing();
    let ctx = TraceContext::generate(true);
    with_current_trace(Some(ctx), || engine.run_batch(circuit, batch)).expect("valid batch");
    collect_trace(ctx.trace_id)
        .into_iter()
        .map(|span| span.name)
        .collect()
}

#[test]
fn mixed_sum_product_batches_match_the_scalar_oracles() {
    let _serial = serial();
    let engine = Engine::new(1 << 24, Some(2));
    let mut rng = SplitMix64::new(0x5ab0_1a4e);
    let mut cnfs: Vec<Cnf> = (0..24).map(|_| random_3cnf(&mut rng, 30, 100)).collect();
    cnfs.push(Cnf::parse_dimacs("p cnf 3 3\n1 2 0\n-1 0\n-2 0\n").unwrap());
    let sweeps_before = u128_sweeps();
    let mut saw_unsat = false;
    for (i, cnf) in cnfs.iter().enumerate() {
        let n = cnf.num_vars();
        let (_, circuit) = engine.compile(cnf);
        let smoothed = smooth(circuit.raw());
        let tape = EvalTape::new(&smoothed);
        saw_unsat |= !circuit.raw().sat_dnnf();
        for group in [1, 3, 8, 13] {
            let batch = mixed_batch(&mut rng, n, group);
            let expect: Vec<String> = batch
                .iter()
                .map(|q| bits(&oracle(circuit.raw(), &smoothed, &tape, q)))
                .collect();
            let got: Vec<String> = engine
                .run_batch(&circuit, batch)
                .expect("valid batch")
                .iter()
                .map(|o| bits(&o.answer))
                .collect();
            assert_eq!(got, expect, "instance {i}: group of {group}");
        }
    }
    assert!(saw_unsat, "the corpus includes an unsatisfiable circuit");
    assert_eq!(
        u128_sweeps(),
        sweeps_before,
        "30-variable counts stay in the f64 lanes"
    );

    // One sum-product sweep answers the whole mixed group, on the SIMD
    // lanes; no scalar tape pass and no u128 sweep is on the serving path.
    let (_, circuit) = engine.compile(&cnfs[0]);
    let batch = mixed_batch(&mut rng, 30, 13);
    let spans = traced_spans(&engine, &circuit, batch);
    let sweeps: Vec<&String> = spans
        .iter()
        .filter(|name| name.starts_with("kernel.sweep."))
        .collect();
    assert_eq!(sweeps.len(), 1, "one sweep per batch: {spans:?}");
    assert!(
        !["kernel.sweep.single", "kernel.sweep.count"].contains(&sweeps[0].as_str()),
        "{spans:?}"
    );
}

#[test]
fn counts_past_53_variables_take_the_u128_lanes() {
    let _serial = serial();
    let engine = Engine::new(1 << 24, Some(2));
    for n in [53usize, 54] {
        // One clause over all n variables: every assignment but the
        // all-false one is a model.
        let mut cnf = Cnf::new(n);
        cnf.add_clause((0..n as u32).map(|v| Var(v).positive()).collect::<Vec<_>>());
        let (_, circuit) = engine.compile(&cnf);
        let mut first_false = PartialAssignment::new(n);
        first_false.assign(Var(0).negative());
        let batch = vec![
            Query::ModelCount,
            Query::Wmc(LitWeights::unit(n)),
            Query::ModelCountUnder(first_false),
            Query::Sat,
        ];
        let all = (1u128 << n) - 1;
        let under = (1u128 << (n - 1)) - 1;
        let expect = [
            QueryAnswer::ModelCount(all),
            QueryAnswer::Wmc(all as f64),
            QueryAnswer::ModelCount(under),
            QueryAnswer::Sat(true),
        ];
        for policy in [
            ParallelPolicy::LaneOnly,
            ParallelPolicy::Layered { min_nodes: 1 },
        ] {
            engine.executor().set_parallel_policy(policy);
            let before = u128_sweeps();
            let outcomes = engine.run_batch(&circuit, batch.clone()).unwrap();
            let got: Vec<QueryAnswer> = outcomes.into_iter().map(|o| o.answer).collect();
            assert_eq!(got, expect, "n = {n}, {}", policy.describe());
            let sweeps = u128_sweeps() - before;
            if n <= 53 {
                assert_eq!(sweeps, 0, "n = {n}: the counts fit the f64 lanes");
            } else {
                assert_eq!(sweeps, 1, "n = {n}: one u128 sweep per batch");
            }
        }
        let spans = traced_spans(&engine, &circuit, batch);
        assert_eq!(
            spans.iter().any(|s| s == "kernel.sweep.count"),
            n > 53,
            "n = {n}: {spans:?}"
        );
    }
}
