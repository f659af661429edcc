//! Reactor and pipelining counters under 64 pipelined connections.
//!
//! Every connection puts six pipelined query frames in flight before
//! any response is read, so the reactors serve all 64 at once. Every
//! answer must equal the in-process executor's, and the process-global
//! metrics a Prometheus scrape exposes must account for the load:
//!
//! - `server.reactor.wakeups` (`trl_server_reactor_wakeups`) grows;
//! - `server.requests.pipeline` (`trl_server_requests_pipeline`) counts at
//!   least the 384 frames sent;
//! - the `server.pipeline.batch_size` histogram
//!   (`trl_server_pipeline_batch_size_count`) counts exactly the
//!   pipelined frames.
//!
//! The metrics are process-wide, so this file holds a single test and the
//! assertions read deltas across the load.

use std::sync::Arc;

use trl_compiler::DecisionDnnfCompiler;
use trl_core::{PartialAssignment, SplitMix64, Var};
use trl_engine::{Artifact, Engine, Executor, PreparedCircuit, Query, QueryAnswer};
use trl_nnf::LitWeights;
use trl_prop::Cnf;
use trl_server::{Client, Server, ServerConfig};

const CONNECTIONS: usize = 64;
const FRAMES_PER_CONNECTION: usize = 6;

/// Wakeups, pipelined frames, and batch-size histogram count.
fn counters() -> (u64, u64, u64) {
    let dump = trl_obs::snapshot();
    let counter = |name| dump.counter(name).unwrap_or(0);
    (
        counter("server.reactor.wakeups"),
        counter("server.requests.pipeline"),
        dump.histogram("server.pipeline.batch_size")
            .map_or(0, |h| h.count),
    )
}

/// One frame holding a query of every circuit kind, drawn from `rng`.
fn frame(rng: &mut SplitMix64, n: usize) -> Vec<Query> {
    let mut w = LitWeights::unit(n);
    for v in 0..n as u32 {
        let p = rng.uniform();
        w.set(Var(v).positive(), p);
        w.set(Var(v).negative(), 1.0 - p);
    }
    let mut pa = PartialAssignment::new(n);
    pa.assign(Var(rng.below(n) as u32).literal(rng.coin()));
    vec![
        Query::Sat,
        Query::ModelCount,
        Query::ModelCountUnder(pa),
        Query::Wmc(w.clone()),
        Query::Marginals(w.clone()),
        Query::MaxWeight(w),
    ]
}

#[test]
fn pipelined_load_is_counted_by_the_reactor_and_pipeline_metrics() {
    let cnf =
        Cnf::parse_dimacs("p cnf 6 7\n1 2 0\n-1 3 0\n-2 -4 0\n4 5 0\n-5 6 0\n2 -6 0\n1 -3 5 0\n")
            .unwrap();
    let n = cnf.num_vars();
    let mut rng = SplitMix64::new(0x5eed_0004);
    let frames: Vec<Vec<Query>> = (0..CONNECTIONS * FRAMES_PER_CONNECTION)
        .map(|_| frame(&mut rng, n))
        .collect();
    let direct = Artifact::Circuit(Arc::new(PreparedCircuit::new(
        DecisionDnnfCompiler::default().compile(&cnf),
    )));
    let executor = Executor::new(1);
    let expected: Vec<Vec<QueryAnswer>> = frames
        .iter()
        .map(|f| {
            executor
                .run(&direct, f.clone())
                .unwrap()
                .into_iter()
                .map(|o| o.answer)
                .collect()
        })
        .collect();

    let config = ServerConfig {
        max_connections: 256,
        queue_capacity: 8192,
        ..ServerConfig::default()
    };
    let engine = Arc::new(Engine::new(1 << 22, Some(2)));
    let handle = Server::bind("127.0.0.1:0", engine, config).unwrap();
    let key = Client::connect(handle.addr())
        .unwrap()
        .compile(&cnf)
        .unwrap()
        .key;

    let (wakeups_before, pipelined_before, batches_before) = counters();
    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| Client::connect(handle.addr()).unwrap())
        .collect();
    for (c, client) in clients.iter_mut().enumerate() {
        for f in 0..FRAMES_PER_CONNECTION {
            let id = c * FRAMES_PER_CONNECTION + f;
            client
                .pipeline_send(id as u64, key, frames[id].clone())
                .unwrap();
        }
    }
    let mut answered = vec![false; frames.len()];
    for (c, client) in clients.iter_mut().enumerate() {
        for _ in 0..FRAMES_PER_CONNECTION {
            let (id, result) = client.pipeline_recv().unwrap();
            let id = id as usize;
            assert_eq!(
                id / FRAMES_PER_CONNECTION,
                c,
                "frame {id} on connection {c}"
            );
            assert!(!answered[id], "frame {id} answered twice");
            answered[id] = true;
            assert_eq!(result.unwrap(), expected[id], "frame {id}");
        }
    }
    let (wakeups_after, pipelined_after, batches_after) = counters();
    handle.shutdown();

    assert!(
        wakeups_after > wakeups_before,
        "reactor wakeups not monotone ({wakeups_before} -> {wakeups_after})"
    );
    let pipelined = pipelined_after - pipelined_before;
    assert!(
        pipelined >= (CONNECTIONS * FRAMES_PER_CONNECTION) as u64,
        "expected >= {} pipelined frames, counted {pipelined}",
        CONNECTIONS * FRAMES_PER_CONNECTION
    );
    assert_eq!(
        batches_after - batches_before,
        pipelined,
        "batch-size histogram count differs from the pipelined frames"
    );
}
