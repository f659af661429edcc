//! Integration: the full serving lifecycle through the umbrella façade —
//! compile a CNF, persist the circuit to disk (binary and `.nnf` text),
//! reload it, register it, and answer batched queries; every path must
//! agree with direct queries on the in-memory circuit, and corrupted
//! artifacts must fail with typed errors, never panics.

use std::sync::Arc;

use three_roles::compiler::DecisionDnnfCompiler;
use three_roles::core::Var;
use three_roles::engine::{
    fingerprint, load_binary, load_nnf, save_binary, save_nnf, Artifact, EngineError, Executor,
    PreparedCircuit, Query, QueryAnswer, Registry, Validation,
};
use three_roles::nnf::LitWeights;
use three_roles::prop::Cnf;

fn pigeonhole_ish() -> Cnf {
    Cnf::parse_dimacs(
        "c three pigeons, two holes, relaxed\n\
         p cnf 6 7\n1 2 0\n3 4 0\n5 6 0\n-1 -3 0\n-2 -4 0\n-2 -6 0\n-3 -5 0\n",
    )
    .unwrap()
}

fn skewed_weights(n: usize) -> LitWeights {
    let mut w = LitWeights::unit(n);
    for v in 0..n as u32 {
        let p = 0.1 + 0.13 * f64::from(v);
        w.set(Var(v).positive(), p);
        w.set(Var(v).negative(), 1.0 - p);
    }
    w
}

#[test]
fn save_load_query_lifecycle_matches_in_memory() {
    let dir = std::env::temp_dir().join("trl_engine_facade_test");
    std::fs::create_dir_all(&dir).unwrap();
    let cnf = pigeonhole_ish();
    let circuit = DecisionDnnfCompiler::default().compile(&cnf);
    let w = skewed_weights(cnf.num_vars());
    let expected_count = circuit.model_count();
    let expected_wmc = circuit.wmc(&w);

    let bin = dir.join("facade.trlc");
    let txt = dir.join("facade.nnf");
    save_binary(&circuit, &bin).unwrap();
    save_nnf(&circuit, &txt).unwrap();

    for loaded in [
        load_binary(&bin, Validation::Full).unwrap(),
        load_nnf(&txt, Validation::Full).unwrap(),
    ] {
        let prepared = Arc::new(PreparedCircuit::new(loaded));
        let executor = Executor::new(2);
        let outcomes = executor
            .run(
                &Artifact::Circuit(prepared),
                vec![Query::ModelCount, Query::Wmc(w.clone()), Query::Sat],
            )
            .unwrap();
        assert_eq!(outcomes[0].answer.model_count(), Some(expected_count));
        assert_eq!(outcomes[1].answer.wmc(), Some(expected_wmc));
        assert_eq!(outcomes[2].answer, QueryAnswer::Sat(expected_count > 0));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn registry_serves_loaded_artifacts_without_recompiling() {
    let cnf = pigeonhole_ish();
    let mut registry = Registry::new(1 << 20);
    let key = fingerprint(&cnf);

    // Simulate warm start: an artifact restored from disk is inserted under
    // the formula's fingerprint; the later lookup must hit, not compile.
    let circuit = DecisionDnnfCompiler::default().compile(&cnf);
    let mut bytes = Vec::new();
    three_roles::engine::write_binary(&circuit, &mut bytes).unwrap();
    let restored =
        three_roles::engine::read_binary(&mut bytes.as_slice(), Validation::Full).unwrap();
    registry.insert(
        key,
        Artifact::Circuit(Arc::new(PreparedCircuit::new(restored))),
    );

    let served = registry.get(key).expect("restored artifact is resident");
    let served = served.as_circuit().expect("a circuit");
    assert_eq!(registry.stats().misses, 0);
    assert_eq!(registry.stats().hits, 1);
    assert_eq!(
        served.raw().model_count(),
        circuit.model_count(),
        "restored artifact answers like the fresh compilation"
    );
}

#[test]
fn corrupted_artifacts_fail_with_typed_errors() {
    let circuit = DecisionDnnfCompiler::default().compile(&pigeonhole_ish());
    let mut bytes = Vec::new();
    three_roles::engine::write_binary(&circuit, &mut bytes).unwrap();

    // Flip one payload byte: checksum must catch it.
    let mut flipped = bytes.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0xff;
    assert!(matches!(
        three_roles::engine::read_binary(&mut flipped.as_slice(), Validation::Full),
        Err(EngineError::ChecksumMismatch { .. })
    ));

    // Truncate mid-payload: format error, not a panic.
    let cut = &bytes[..bytes.len() - 3];
    assert!(matches!(
        three_roles::engine::read_binary(&mut &cut[..], Validation::Full),
        Err(EngineError::Format(_))
    ));

    // A non-deterministic .nnf document is rejected under Full validation.
    let tautology_or = "nnf 3 2 2\nL 1\nL 2\nO 0 2 0 1\n";
    assert!(matches!(
        three_roles::engine::read_nnf(tautology_or, Validation::Full),
        Err(EngineError::Property(_))
    ));
}
