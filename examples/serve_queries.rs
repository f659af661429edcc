//! Compile once, serve many: the `trl-engine` lifecycle end to end.
//!
//! A small CNF is compiled to a Decision-DNNF, persisted to disk in both
//! artifact formats, reloaded with full d-DNNF re-validation, registered in
//! the artifact registry, and then queried in batches through the
//! executor — model count, WMC, marginals, and MPE, each with its service
//! latency.
//!
//! Run with `cargo run --release --example serve_queries`.

use std::sync::Arc;

use three_roles::compiler::DecisionDnnfCompiler;
use three_roles::core::Var;
use three_roles::engine::{
    fingerprint, load_binary, load_nnf, save_binary, save_nnf, Artifact, Executor, PreparedCircuit,
    Query, QueryAnswer, Registry, Validation,
};
use three_roles::nnf::LitWeights;
use three_roles::prop::Cnf;

fn main() {
    // An over-constrained scheduling toy: three tasks, two slots.
    let cnf = Cnf::parse_dimacs(
        "c tasks 1..3 in slots A (odd vars) / B (even vars)\n\
         p cnf 6 7\n1 2 0\n3 4 0\n5 6 0\n-1 -3 0\n-2 -4 0\n-2 -6 0\n-3 -5 0\n",
    )
    .unwrap();

    // Compile once...
    let circuit = DecisionDnnfCompiler::default().compile(&cnf);
    println!(
        "compiled: {} vars -> {} nodes / {} edges, {} models",
        cnf.num_vars(),
        circuit.node_count(),
        circuit.edge_count(),
        circuit.model_count()
    );

    // ...persist in both formats and reload with full re-validation.
    let dir = std::env::temp_dir().join("three_roles_serve_queries");
    std::fs::create_dir_all(&dir).unwrap();
    let bin = dir.join("schedule.trlc");
    let txt = dir.join("schedule.nnf");
    save_binary(&circuit, &bin).unwrap();
    save_nnf(&circuit, &txt).unwrap();
    let from_bin = load_binary(&bin, Validation::Full).unwrap();
    let from_txt = load_nnf(&txt, Validation::Full).unwrap();
    assert_eq!(from_bin.model_count(), circuit.model_count());
    assert_eq!(from_txt.model_count(), circuit.model_count());
    println!(
        "persisted + reloaded: binary {} bytes, text {} bytes, counts agree",
        std::fs::metadata(&bin).unwrap().len(),
        std::fs::metadata(&txt).unwrap().len()
    );

    // A registry keeps prepared artifacts hot under a node budget.
    let mut registry = Registry::new(1 << 16);
    let key = fingerprint(&cnf);
    registry.insert(
        key,
        Artifact::Circuit(Arc::new(PreparedCircuit::new(from_bin))),
    );
    let prepared = registry.get(key).expect("just inserted"); // hit: no recompilation
    println!(
        "registry: {} artifact(s), {} retained nodes, stats {:?}",
        registry.len(),
        registry.retained_nodes(),
        registry.stats()
    );

    // Weights: task 1 prefers slot A, slot B is expensive for task 3.
    let mut w = LitWeights::unit(cnf.num_vars());
    w.set(Var(0).positive(), 0.9);
    w.set(Var(0).negative(), 0.1);
    w.set(Var(5).positive(), 0.2);
    w.set(Var(5).negative(), 0.8);

    // One batch, four query kinds, answered on this thread.
    let executor = Executor::new(1);
    let batch = vec![
        Query::ModelCount,
        Query::Wmc(w.clone()),
        Query::Marginals(w.clone()),
        Query::MaxWeight(w),
    ];
    let kinds: Vec<&str> = batch.iter().map(Query::kind).collect();
    let outcomes = executor.run(&prepared, batch).expect("valid batch");
    for (kind, outcome) in kinds.iter().zip(&outcomes) {
        let shown = match &outcome.answer {
            QueryAnswer::ModelCount(n) => format!("{n}"),
            QueryAnswer::Wmc(x) => format!("{x:.4}"),
            QueryAnswer::Marginals { wmc, marginals } => {
                format!("wmc {wmc:.4}, P(x1)={:.4}", marginals[0].0 / wmc)
            }
            QueryAnswer::MaxWeight(Some((x, a))) => {
                let slots: Vec<String> = (0..a.len())
                    .filter(|&v| a.value(Var(v as u32)))
                    .map(|v| format!("x{}", v + 1))
                    .collect();
                format!("{x:.4} at {{{}}}", slots.join(", "))
            }
            other => format!("{other:?}"),
        };
        println!(
            "  {kind:<12} {shown}   ({:.1} us)",
            outcome.latency.as_secs_f64() * 1e6
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}
