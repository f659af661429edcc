//! Compile once, serve over the network: the `trl-server` lifecycle end to
//! end, in one process.
//!
//! A server is bound to an ephemeral port over a shared [`Engine`], a
//! client compiles a CNF server-side (getting back a registry key), and
//! every query kind is answered over TCP. Each networked answer is
//! asserted bit-identical to the in-process executor's answer for the same
//! query — the wire carries IEEE-754 bit patterns and exact counts, never
//! re-derived approximations. Overload and graceful shutdown round out the
//! serving contract.
//!
//! Run with `cargo run --release --example net_roundtrip`.

use std::sync::Arc;

use three_roles::compiler::DecisionDnnfCompiler;
use three_roles::core::{PartialAssignment, Var};
use three_roles::engine::{Artifact, Engine, Executor, PreparedCircuit, Query};
use three_roles::nnf::LitWeights;
use three_roles::prop::Cnf;
use three_roles::server::{Client, ClientError, Server, ServerConfig, WireError};

fn main() {
    // The same over-constrained scheduling toy as `serve_queries`.
    let cnf = Cnf::parse_dimacs(
        "c tasks 1..3 in slots A (odd vars) / B (even vars)\n\
         p cnf 6 7\n1 2 0\n3 4 0\n5 6 0\n-1 -3 0\n-2 -4 0\n-2 -6 0\n-3 -5 0\n",
    )
    .unwrap();

    // Weights: task 1 prefers slot A, slot B is expensive for task 3.
    let mut w = LitWeights::unit(cnf.num_vars());
    w.set(Var(0).positive(), 0.9);
    w.set(Var(0).negative(), 0.1);
    w.set(Var(5).positive(), 0.2);
    w.set(Var(5).negative(), 0.8);
    let mut evidence = PartialAssignment::new(cnf.num_vars());
    evidence.assign(Var(0).positive());
    let queries = vec![
        Query::Sat,
        Query::ModelCount,
        Query::ModelCountUnder(evidence),
        Query::Wmc(w.clone()),
        Query::Marginals(w.clone()),
        Query::MaxWeight(w),
    ];

    // Ground truth: the in-process executor on the same circuit.
    let prepared = Arc::new(PreparedCircuit::new(
        DecisionDnnfCompiler::default().compile(&cnf),
    ));
    let expected = Executor::new(1)
        .run(&Artifact::Circuit(prepared), queries.clone())
        .expect("valid batch");

    // Bind a server on an ephemeral port over a fresh engine (2 workers).
    let engine = Arc::new(Engine::new(1 << 20, Some(2)));
    let handle = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
    println!("serving on {}", handle.addr());

    // Compile server-side: the key names the artifact in the registry, so
    // every later query (from any connection) skips compilation.
    let mut client = Client::connect(handle.addr()).unwrap();
    let compiled = client.compile(&cnf).unwrap();
    println!(
        "compiled over the wire: key {:#018x}, {} nodes / {} edges",
        compiled.key, compiled.nodes, compiled.edges
    );

    // Every query kind round-trips bit-identical to the in-process answer.
    for (query, want) in queries.iter().zip(&expected) {
        let got = client.query(compiled.key, query.clone()).unwrap();
        assert_eq!(got, want.answer, "{} diverged over the wire", query.kind());
        println!("  {:<12} {:?}", query.kind(), got);
    }

    // Batches amortize framing and ride the executor's lane-batched path.
    let batched = client.batch(compiled.key, queries.clone()).unwrap();
    assert!(batched
        .iter()
        .zip(&expected)
        .all(|(got, want)| got == &want.answer));
    println!("batch of {} answers: all bit-identical", batched.len());

    // Typed errors, not dead sockets: an unknown key is a wire error and
    // the connection keeps serving.
    match client.query(0xbad_c0de, Query::Sat) {
        Err(ClientError::Server(WireError::UnknownKey(k))) => {
            println!("unknown key {k:#x} rejected (typed), connection still live");
        }
        other => panic!("expected UnknownKey, got {other:?}"),
    }

    // Engine counters over the wire: hits, misses, retained nodes, queue.
    let stats = client.stats().unwrap();
    println!(
        "stats: {} artifact(s), {} hits / {} misses, {} retained nodes",
        stats.artifacts, stats.registry.hits, stats.registry.misses, stats.retained_nodes
    );

    // Graceful shutdown: in-flight requests drain, threads join, and the
    // final counters come back to the caller.
    let counters = handle.shutdown();
    println!(
        "shut down after {} requests over {} connections ({} overload rejections)",
        counters.served, counters.connections, counters.overloaded
    );
}
