//! The executor's one entry point answers like the artifact itself.
//!
//! A batch ([`Engine::run_batch`], [`Engine::run_artifact_batch`]) is
//! planned into grouped jobs and answered on the caller's thread. On every
//! artifact kind each answer must equal, bit for bit, what the artifact
//! answers for that query alone ([`Artifact::answer`]), and a run must
//! advance `engine.batches` by one per batch, `engine.requests` by one per
//! query, and every per-kind `engine.requests.*` counter by the number of
//! queries of that kind.
//!
//! The counters are process-global, so the tests in this file take one
//! lock and never run side by side.

use std::iter::once;
use std::sync::{Arc, Mutex, MutexGuard};

use three_roles::core::{Assignment, Lit, PartialAssignment, SplitMix64, Var};
use three_roles::engine::{
    Artifact, Engine, ParallelPolicy, PreparedCircuit, Query, QueryAnswer, QueryOutcome,
    QUERY_KINDS,
};
use three_roles::nnf::LitWeights;
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

/// Random weights with exact zeros and repeated values.
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

/// Evidence fixing each variable with probability 1/3.
fn evidence(rng: &mut SplitMix64, n: usize) -> PartialAssignment {
    let mut pa = PartialAssignment::new(n);
    for v in 0..n as u32 {
        if rng.below(3) == 0 {
            pa.assign(Var(v).literal(rng.coin()));
        }
    }
    pa
}

/// A mixed batch of all six circuit query kinds, interleaved, with more
/// queries of each counting kind than one lane group holds.
fn mixed_batch(rng: &mut SplitMix64, n: usize) -> Vec<Query> {
    let mut batch = vec![Query::Sat, Query::ModelCount];
    for i in 0..11 {
        batch.push(Query::Wmc(weights(rng, n)));
        batch.push(Query::MaxWeight(weights(rng, n)));
        batch.push(Query::ModelCountUnder(evidence(rng, n)));
        batch.push(Query::Marginals(weights(rng, n)));
        if i % 4 == 0 {
            batch.push(Query::Sat);
            batch.push(Query::ModelCount);
        }
    }
    batch
}

/// An answer as comparable text: every `f64` as its bit pattern, every
/// other field through `Debug` (integers, booleans, assignments, cubes).
fn bits(answer: &QueryAnswer) -> String {
    let f = |x: &f64| format!("{:016x}", x.to_bits());
    match answer {
        QueryAnswer::Wmc(x) => format!("wmc {}", f(x)),
        QueryAnswer::LogLikelihood(x) => format!("ll {}", f(x)),
        QueryAnswer::Probability(x) => format!("p {}", f(x)),
        QueryAnswer::Marginals { wmc, marginals } => once(format!("marginals {}", f(wmc)))
            .chain(marginals.iter().map(|(p, q)| format!("{} {}", f(p), f(q))))
            .collect::<Vec<_>>()
            .join(" "),
        QueryAnswer::MaxWeight(Some((x, a))) => format!("mpe {} {a:?}", f(x)),
        other => format!("{other:?}"),
    }
}

/// The global counters a run must advance.
fn counters() -> Vec<(String, u64)> {
    let dump = three_roles::obs::snapshot();
    [
        "engine.batches",
        "engine.requests",
        "engine.layered_dispatches",
    ]
    .into_iter()
    .map(str::to_string)
    .chain(QUERY_KINDS.iter().map(|k| format!("engine.requests.{k}")))
    .map(|name| {
        let value = dump.counter(&name).unwrap_or(0);
        (name, value)
    })
    .collect()
}

/// Answers `batches` through the engine and checks every answer against
/// the artifact's own and every counter delta; returns the layered
/// dispatches the run made.
fn batches_answer_like_the_artifact(engine: &Engine, batches: &[(Artifact, Vec<Query>)]) -> u64 {
    let before = counters();
    let outcomes: Vec<Vec<QueryOutcome>> = batches
        .iter()
        .map(|(artifact, batch)| {
            engine
                .run_artifact_batch(artifact, batch.clone())
                .expect("valid batch")
        })
        .collect();
    let moved: Vec<(String, u64)> = counters()
        .into_iter()
        .zip(before)
        .map(|((name, after), (_, before))| (name, after - before))
        .collect();

    let mut per_kind = [0u64; QUERY_KINDS.len()];
    for ((artifact, batch), outcomes) in batches.iter().zip(&outcomes) {
        assert_eq!(outcomes.len(), batch.len());
        for (query, outcome) in batch.iter().zip(outcomes) {
            assert_eq!(
                bits(&outcome.answer),
                bits(&artifact.answer(query)),
                "kind {}",
                query.kind()
            );
            per_kind[query.kind_index()] += 1;
        }
    }
    let queries: u64 = per_kind.iter().sum();
    assert_eq!(moved[0].1, batches.len() as u64, "engine.batches");
    assert_eq!(moved[1].1, queries, "engine.requests");
    for (kind, expect) in per_kind.iter().enumerate() {
        assert_eq!(moved[3 + kind].1, *expect, "{}", moved[3 + kind].0);
    }
    moved[2].1
}

#[test]
fn circuit_batches_answer_like_the_artifact_itself() {
    let _serial = serial();
    let engine = Engine::new(1 << 24, Some(2));
    let mut rng = SplitMix64::new(0xe8ec_0a7e);
    let mut cnfs: Vec<Cnf> = (0..24).map(|_| random_3cnf(&mut rng, 24, 80)).collect();
    cnfs.push(Cnf::parse_dimacs("p cnf 3 3\n1 2 0\n-1 0\n-2 0\n").unwrap());
    let mut batches = Vec::new();
    for cnf in &cnfs {
        let (_, circuit) = engine.compile(cnf);
        let artifact = Artifact::Circuit(circuit);
        batches.push((artifact.clone(), mixed_batch(&mut rng, cnf.num_vars())));
        batches.push((artifact, vec![Query::Sat]));
    }
    assert_eq!(batches_answer_like_the_artifact(&engine, &batches), 0);

    // The layered sweep (forced on these small circuits) keeps both the
    // answers and the accounting.
    engine
        .executor()
        .set_parallel_policy(ParallelPolicy::Layered { min_nodes: 1 });
    assert_eq!(
        batches_answer_like_the_artifact(&engine, &batches),
        batches.len() as u64
    );

    // `Engine::run_batch` is the same path for a circuit.
    let circuit: Arc<PreparedCircuit> = engine.compile(&cnfs[0]).1;
    let batch = batches[0].1.clone();
    let via_circuit = engine.run_batch(&circuit, batch.clone()).unwrap();
    let via_artifact = engine
        .run_artifact_batch(&Artifact::Circuit(circuit), batch)
        .unwrap();
    let strings = |os: &[QueryOutcome]| os.iter().map(|o| bits(&o.answer)).collect::<Vec<_>>();
    assert_eq!(strings(&via_circuit), strings(&via_artifact));
}

#[test]
fn role_artifact_batches_answer_like_the_artifact_itself() {
    let _serial = serial();
    let engine = Engine::new(1 << 24, Some(2));
    let cnf = Cnf::parse_dimacs("p cnf 4 3\n1 2 0\n-2 3 0\n-1 4 0\n").unwrap();
    let data = vec![
        (Assignment::from_values(&[true, false, true, true]), 4.0),
        (Assignment::from_values(&[false, true, true, false]), 2.0),
        (Assignment::from_values(&[true, true, true, true]), 1.0),
    ];
    let (_, psdd) = engine.learn_psdd(&cnf, &data, 0.1).unwrap();
    let (_, space) = engine
        .compile_space(4, &[(0, 1), (1, 3), (0, 2), (2, 3), (1, 2)], 0, 3)
        .unwrap();
    let (_, classifier) = engine.compile_classifier(&cnf);

    let mut e = PartialAssignment::new(4);
    e.assign(Var(2).positive());
    let mut w = LitWeights::unit(5);
    w.set(Var(1).positive(), 3.0);
    let x = Assignment::from_values(&[true, false, true, true]);
    let batches = vec![
        (
            Artifact::Psdd(psdd),
            vec![
                Query::PsddLogLikelihood(data.clone()),
                Query::PsddMarginal(e.clone()),
                Query::PsddMarginal(PartialAssignment::new(4)),
            ],
        ),
        (
            Artifact::Space(space),
            vec![
                Query::SpaceCount(PartialAssignment::new(5)),
                Query::SpaceTop(w),
            ],
        ),
        (
            Artifact::Classifier(classifier),
            vec![
                Query::SufficientReason(x.clone()),
                Query::DecisionRobustness(x),
                Query::ClassifierBias(vec![Var(0)]),
            ],
        ),
    ];
    assert_eq!(batches_answer_like_the_artifact(&engine, &batches), 0);
}
