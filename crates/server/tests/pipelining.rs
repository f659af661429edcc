//! Pipelined serving: many version-3 frames in flight on one connection,
//! responses matched by id as they complete (possibly out of order),
//! per-frame typed failures that never sink the connection, and answers
//! bit-identical to direct in-process execution.

use std::sync::Arc;
use std::time::Duration;

use trl_compiler::DecisionDnnfCompiler;
use trl_core::{PartialAssignment, Var};
use trl_engine::{Artifact, Engine, Executor, PreparedCircuit, Query, QueryAnswer};
use trl_nnf::LitWeights;
use trl_prop::Cnf;
use trl_server::{Client, ClientError, Server, ServerConfig, WireError};

fn acceptance_cnf() -> Cnf {
    Cnf::parse_dimacs("p cnf 6 7\n1 2 0\n-1 3 0\n-2 -4 0\n4 5 0\n-5 6 0\n2 -6 0\n1 -3 5 0\n")
        .unwrap()
}

fn weights(n_vars: usize, salt: u32) -> LitWeights {
    let mut w = LitWeights::unit(n_vars);
    for v in 0..n_vars as u32 {
        w.set(Var(v).positive(), 0.25 + 0.05 * ((salt + v) % 10) as f64);
        w.set(Var(v).negative(), 0.75 - 0.05 * ((salt + v) % 10) as f64);
    }
    w
}

/// One frame's worth of mixed-kind queries.
fn frame_queries(n_vars: usize, salt: u32) -> Vec<Query> {
    let mut pa = PartialAssignment::new(n_vars);
    pa.assign(Var(salt % n_vars as u32).literal(salt.is_multiple_of(2)));
    vec![
        Query::Sat,
        Query::ModelCount,
        Query::ModelCountUnder(pa),
        Query::Wmc(weights(n_vars, salt)),
        Query::Marginals(weights(n_vars, salt)),
        Query::MaxWeight(weights(n_vars, salt)),
    ]
}

/// 64 pipelined frames at depth 16 on one connection: every frame's
/// answers must be bit-identical to the direct in-process executor run,
/// regardless of the order responses came back in.
#[test]
fn pipelined_answers_are_bit_identical_to_in_process() {
    let cnf = acceptance_cnf();
    let direct = Artifact::Circuit(Arc::new(PreparedCircuit::new(
        DecisionDnnfCompiler::default().compile(&cnf),
    )));
    let direct_executor = Executor::new(2);

    let engine = Arc::new(Engine::new(1 << 22, Some(2)));
    let handle = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).unwrap();

    let frames: Vec<Vec<Query>> = (0..64).map(|i| frame_queries(cnf.num_vars(), i)).collect();
    let expected: Vec<Vec<QueryAnswer>> = frames
        .iter()
        .map(|qs| {
            direct_executor
                .run(&direct, qs.clone())
                .unwrap()
                .into_iter()
                .map(|o| o.answer)
                .collect()
        })
        .collect();

    let mut client = Client::connect(handle.addr()).unwrap();
    let key = client.compile(&cnf).unwrap().key;
    let results = client.pipelined(key, frames, 16).unwrap();

    assert_eq!(results.len(), expected.len());
    for (i, (got, want)) in results.into_iter().zip(expected).enumerate() {
        assert_eq!(got.expect("frame should succeed"), want, "frame {i}");
    }

    handle.shutdown();
}

/// Raw send/recv: fire all frames before reading anything, then match
/// whatever order the responses arrive in purely by id. Every id must
/// arrive exactly once and carry that frame's answers.
#[test]
fn out_of_order_responses_are_matched_by_id() {
    let cnf = acceptance_cnf();
    let engine = Arc::new(Engine::new(1 << 22, Some(2)));
    let handle = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).unwrap();

    let mut client = Client::connect(handle.addr()).unwrap();
    let key = client.compile(&cnf).unwrap().key;

    // Distinct, non-contiguous ids so positional matching would fail.
    let ids: Vec<u64> = (0..32u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9) | 1)
        .collect();
    let mut want = std::collections::HashMap::new();
    for (i, &id) in ids.iter().enumerate() {
        // Frame size varies 1..=6 queries so completion times differ and
        // the executor is free to finish small frames first.
        let queries: Vec<Query> = frame_queries(cnf.num_vars(), i as u32)
            .into_iter()
            .take(1 + i % 6)
            .collect();
        client.pipeline_send(id, key, queries.clone()).unwrap();
        want.insert(id, queries.len());
    }

    let mut arrival = Vec::new();
    for _ in 0..ids.len() {
        let (id, result) = client.pipeline_recv().unwrap();
        let expected_len = want
            .remove(&id)
            .unwrap_or_else(|| panic!("unknown or duplicate id {id:#x}"));
        assert_eq!(result.expect("frame should succeed").len(), expected_len);
        arrival.push(id);
    }
    assert!(want.is_empty(), "some frames never answered: {want:?}");
    // The server is free to answer in any order; all we pin down is the
    // id contract above. Record the arrival permutation for debugging.
    assert_eq!(arrival.len(), ids.len());

    handle.shutdown();
}

/// A zero-length pipelined batch is a legal no-op: it answers `Ok([])`
/// without touching the executor, and the connection keeps working.
#[test]
fn zero_length_pipelined_batch_answers_empty() {
    let cnf = acceptance_cnf();
    let engine = Arc::new(Engine::new(1 << 22, Some(2)));
    let handle = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).unwrap();

    let mut client = Client::connect(handle.addr()).unwrap();
    let key = client.compile(&cnf).unwrap().key;

    client.pipeline_send(5, key, Vec::new()).unwrap();
    let (id, result) = client.pipeline_recv().unwrap();
    assert_eq!(id, 5);
    assert_eq!(result.unwrap(), Vec::new());

    // Connection still serves real work afterwards.
    client.pipeline_send(6, key, vec![Query::Sat]).unwrap();
    let (id, result) = client.pipeline_recv().unwrap();
    assert_eq!(id, 6);
    assert_eq!(result.unwrap(), vec![QueryAnswer::Sat(true)]);

    handle.shutdown();
}

/// Per-frame failures are isolated: an unknown registry key and an
/// invalid query each fail their own frame with a typed error while the
/// surrounding frames on the same connection succeed.
#[test]
fn per_frame_errors_do_not_sink_the_connection() {
    let cnf = acceptance_cnf();
    let engine = Arc::new(Engine::new(1 << 22, Some(2)));
    let handle = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).unwrap();

    let mut client = Client::connect(handle.addr()).unwrap();
    let key = client.compile(&cnf).unwrap().key;

    client.pipeline_send(1, key, vec![Query::Sat]).unwrap();
    // Unknown key: typed failure for this frame only.
    client
        .pipeline_send(2, key ^ 0xffff_ffff, vec![Query::Sat])
        .unwrap();
    // Wrong-universe weights: rejected by pre-validation, not executed.
    client
        .pipeline_send(3, key, vec![Query::Wmc(LitWeights::unit(2))])
        .unwrap();
    client
        .pipeline_send(4, key, vec![Query::ModelCount])
        .unwrap();

    let mut ok = 0;
    let mut failed = 0;
    for _ in 0..4 {
        let (id, result) = client.pipeline_recv().unwrap();
        match id {
            1 | 4 => {
                result.expect("healthy frame should succeed");
                ok += 1;
            }
            2 | 3 => {
                result.expect_err("bad frame should fail typed");
                failed += 1;
            }
            other => panic!("unexpected id {other}"),
        }
    }
    assert_eq!((ok, failed), (2, 2));

    handle.shutdown();
}

/// Overload on a pipelined connection surfaces as a typed
/// `WireError::Overloaded` on the frames that did not fit, the connection
/// survives, and later frames succeed once the queue drains.
#[test]
fn overload_is_typed_and_survivable_under_pipelining() {
    let cnf = acceptance_cnf();
    let engine = Arc::new(Engine::new(1 << 22, Some(1)));
    // Admission is all-or-nothing per frame: one 6-query frame fits, two
    // do not, so deep pipelining must shed load.
    let config = ServerConfig {
        queue_capacity: 8,
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", engine, config).unwrap();

    let mut client = Client::connect(handle.addr()).unwrap();
    let key = client.compile(&cnf).unwrap().key;

    // Far more in-flight queries than the queue admits; some frames must
    // be rejected with the typed overload error carrying the capacity.
    let frames: Vec<Vec<Query>> = (0..64).map(|i| frame_queries(cnf.num_vars(), i)).collect();
    let results = client.pipelined(key, frames, 64).unwrap();

    let mut ok = 0;
    let mut overloaded = 0;
    for result in results {
        match result {
            Ok(answers) => {
                assert_eq!(answers.len(), 6);
                ok += 1;
            }
            Err(WireError::Overloaded { capacity, .. }) => {
                assert_eq!(capacity, 8);
                overloaded += 1;
            }
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    assert!(ok >= 1, "at least one frame should be admitted");
    assert!(
        overloaded >= 1,
        "queue_capacity=2 under 64-deep pipelining should shed load"
    );

    // The connection is still healthy: a lone frame now succeeds.
    std::thread::sleep(Duration::from_millis(50));
    client.pipeline_send(999, key, vec![Query::Sat]).unwrap();
    let (id, result) = client.pipeline_recv().unwrap();
    assert_eq!(id, 999);
    assert_eq!(result.unwrap(), vec![QueryAnswer::Sat(true)]);

    handle.shutdown();
}

/// Retries `op` while the server answers with typed backpressure; any
/// other failure panics.
fn retry_overloaded<T>(mut op: impl FnMut() -> Result<T, ClientError>) -> T {
    loop {
        match op() {
            Ok(value) => return value,
            Err(ClientError::Server(WireError::Overloaded { .. })) => std::thread::yield_now(),
            Err(other) => panic!("non-backpressure failure under overload: {other}"),
        }
    }
}

/// Eight connections at once against a two-slot queue: a pipelined frame
/// wider than the whole queue is a typed rejection on every connection,
/// and every connection still answers afterwards. Compiles and queries
/// may be shed too while the others contend; retrying them on the typed
/// error is the backpressure contract.
#[test]
fn overweight_frames_are_typed_on_every_concurrent_connection() {
    let cnf = acceptance_cnf();
    let engine = Arc::new(Engine::new(1 << 22, Some(1)));
    let config = ServerConfig {
        queue_capacity: 2,
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", engine, config).unwrap();
    let addr = handle.addr();

    let connections: Vec<_> = (0..8)
        .map(|_| {
            let cnf = cnf.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let key = retry_overloaded(|| client.compile(&cnf)).key;
                client
                    .pipeline_send(0, key, vec![Query::ModelCount; 3])
                    .unwrap();
                let (id, result) = client.pipeline_recv().unwrap();
                assert_eq!(id, 0);
                assert!(
                    matches!(result, Err(WireError::Overloaded { capacity: 2, .. })),
                    "expected a typed overload, got {result:?}"
                );
                let answer = retry_overloaded(|| client.query(key, Query::Sat));
                assert_eq!(answer, QueryAnswer::Sat(true));
            })
        })
        .collect();
    for connection in connections {
        connection.join().expect("connection thread");
    }

    handle.shutdown();
}

/// Pipelined frames interleaved with classic ordered requests on the same
/// connection: ordered responses keep strict submission order while
/// pipelined ids float freely around them.
#[test]
fn ordered_and_pipelined_traffic_interleave_on_one_connection() {
    let cnf = acceptance_cnf();
    let engine = Arc::new(Engine::new(1 << 22, Some(2)));
    let handle = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).unwrap();

    let mut client = Client::connect(handle.addr()).unwrap();
    let key = client.compile(&cnf).unwrap().key;

    // Fire a pipelined frame, then a classic query (strict call), then
    // collect the pipelined response. The classic call must not swallow
    // the pipelined frame's response even if it completes first —
    // `query` reads exactly one frame, and the server answers ordered
    // requests in order relative to each other.
    client
        .pipeline_send(11, key, vec![Query::ModelCount])
        .unwrap();
    let (id, result) = client.pipeline_recv().unwrap();
    assert_eq!(id, 11);
    let pipelined_count = match result.unwrap().pop().unwrap() {
        QueryAnswer::ModelCount(n) => n,
        other => panic!("expected a model count, got {other:?}"),
    };

    let direct = client.query(key, Query::ModelCount).unwrap();
    assert_eq!(direct, QueryAnswer::ModelCount(pipelined_count));

    handle.shutdown();
}
