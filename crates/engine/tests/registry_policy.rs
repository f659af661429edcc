//! The registry's eviction policy as the metrics surface shows it.
//!
//! Metrics are process-wide, so this file holds one test: it runs in a
//! process of its own and can assert exact counter values.

use trl_core::SplitMix64;
use trl_engine::{Engine, PreparedCircuit, RegistryStats};
use trl_prop::gen::random_cnf;
use trl_prop::Cnf;

fn counter(engine: &Engine, name: &str) -> Option<u64> {
    engine.stats().metrics.counter(name)
}

fn nodes(cnf: &Cnf) -> usize {
    let compiled = trl_compiler::DecisionDnnfCompiler::default().compile(cnf);
    PreparedCircuit::new(compiled).retained_nodes()
}

#[test]
fn promotions_and_readmissions_show_in_the_metrics() {
    let mut rng = SplitMix64::new(11);
    let [a, b, c]: [Cnf; 3] = std::array::from_fn(|_| random_cnf(&mut rng, 10, 20, 3));
    let (na, nb, nc) = (nodes(&a), nodes(&b), nodes(&c));
    // Room for `a` and the larger of `b` and `c`, so `c`'s insert evicts.
    let budget = na + nb.max(nc);
    assert!(
        10 * nb.min(nc) >= budget,
        "b and c must each fill small's share"
    );

    let engine = Engine::new(budget, Some(1));
    let promotions = "engine.registry.promotions";
    let readmissions = "engine.registry.readmissions";
    assert_eq!(counter(&engine, promotions), Some(0), "registered at new");
    assert_eq!(counter(&engine, readmissions), Some(0), "registered at new");

    engine.compile(&a);
    engine.compile(&a); // a hit: `a` is used while in small
    engine.compile(&b);
    // Over budget: `a` moves to main, unused `b` is evicted into the ghost.
    engine.compile(&c);
    assert_eq!(counter(&engine, promotions), Some(1));
    assert_eq!(counter(&engine, readmissions), Some(0));
    // `b` returns: the ghost admits it straight to main, and unused `c`
    // makes room.
    engine.compile(&b);
    assert_eq!(counter(&engine, promotions), Some(1));
    assert_eq!(counter(&engine, readmissions), Some(1));
    engine.compile(&a);
    engine.compile(&b);
    let stats = engine.stats();
    assert_eq!(
        stats.registry,
        RegistryStats {
            hits: 3,
            misses: 4,
            evictions: 2
        }
    );
    assert_eq!(stats.artifacts, 2);
    assert_eq!(stats.retained_nodes, na + nb);
}
