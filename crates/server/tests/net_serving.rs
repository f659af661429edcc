//! End-to-end serving: concurrent clients over real sockets must get
//! answers bit-identical to direct in-process executor calls, overload
//! must surface as typed backpressure, and shutdown must drain cleanly.

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

fn query_stream(n_vars: usize, rounds: usize) -> Vec<Query> {
    let mut queries = Vec::new();
    for i in 0..rounds {
        let mut w = LitWeights::unit(n_vars);
        for v in 0..n_vars as u32 {
            w.set(
                Var(v).positive(),
                0.25 + 0.05 * ((i as u32 + v) % 10) as f64,
            );
            w.set(
                Var(v).negative(),
                0.75 - 0.05 * ((i as u32 + v) % 10) as f64,
            );
        }
        let mut pa = PartialAssignment::new(n_vars);
        pa.assign(Var((i % n_vars) as u32).literal(i % 2 == 0));
        queries.push(Query::Sat);
        queries.push(Query::ModelCount);
        queries.push(Query::ModelCountUnder(pa));
        queries.push(Query::Wmc(w.clone()));
        queries.push(Query::Marginals(w.clone()));
        queries.push(Query::MaxWeight(w));
    }
    queries
}

/// 8 concurrent client connections hammer the server with every query
/// kind; every networked answer must be bit-identical to the direct
/// in-process executor answer, and shutdown must join cleanly.
#[test]
fn eight_concurrent_clients_get_bit_identical_answers() {
    let cnf = acceptance_cnf();
    let direct = Artifact::Circuit(Arc::new(PreparedCircuit::new(
        DecisionDnnfCompiler::default().compile(&cnf),
    )));
    let direct_executor = Executor::new(2);

    let engine = Arc::new(Engine::new(1 << 22, Some(4)));
    let handle = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
    let addr = handle.addr();

    let queries = query_stream(cnf.num_vars(), 6);
    let expected: Vec<QueryAnswer> = direct_executor
        .run(&direct, queries.clone())
        .unwrap()
        .into_iter()
        .map(|o| o.answer)
        .collect();

    let mut observer = Client::connect(addr).expect("observer connect");
    let before = observer.stats().expect("stats before");
    assert!(before.requests_served.iter().all(|(_, c)| *c == 0));

    let mut clients = Vec::new();
    for worker in 0..8 {
        let cnf = cnf.clone();
        let queries = queries.clone();
        let expected = expected.clone();
        clients.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let compiled = client.compile(&cnf).expect("compile");
            // Half the clients go query-by-query, alternating plain and
            // traced frames; half send one batch.
            if worker % 2 == 0 {
                for (i, (q, want)) in queries.iter().zip(&expected).enumerate() {
                    let got = if i % 2 == 0 {
                        client.query(compiled.key, q.clone()).expect("query")
                    } else {
                        client.trace(compiled.key, q.clone()).expect("trace").1
                    };
                    assert_eq!(&got, want, "worker {worker} kind {}", q.kind());
                }
            } else {
                let got = client.batch(compiled.key, queries.clone()).expect("batch");
                assert_eq!(got, expected, "worker {worker} batch");
            }
        }));
    }
    for c in clients {
        c.join().expect("client thread");
    }

    // Metric monotonicity under concurrency. `requests_served` is scoped
    // to this server's engine, so the counts are exact: 8 clients × 6
    // rounds × one query of each kind. The metric dump is process-global
    // (other tests in this binary may run concurrently), so it is only
    // asserted to have grown by at least this server's contribution.
    let after = observer.stats().expect("stats after");
    assert!(after.uptime_ms >= before.uptime_ms, "uptime went backwards");
    // Every query kind gets a row — the role-2/3 kinds this workload never
    // touched report zero rather than being absent.
    assert_eq!(after.requests_served.len(), trl_engine::QUERY_KINDS.len());
    let circuit_kinds = [
        "sat",
        "model_count",
        "model_count_under",
        "wmc",
        "marginals",
        "max_weight",
    ];
    for (kind, count) in &after.requests_served {
        if circuit_kinds.contains(&kind.as_str()) {
            assert_eq!(*count, 48, "kind {kind}: 8 clients x 6 rounds");
        } else {
            assert_eq!(*count, 0, "kind {kind}: never queried");
        }
    }
    let total: u64 = after.requests_served.iter().map(|(_, c)| c).sum();
    assert_eq!(total, 288);
    assert!(after.connections_accepted >= 9, "8 clients + observer");
    let metric_delta = |name: &str| {
        after.metrics.counter(name).unwrap_or(0) - before.metrics.counter(name).unwrap_or(0)
    };
    assert!(metric_delta("engine.requests") >= 288);
    // Server counters are per wire frame: the 4 query-by-query clients
    // send 18 plain and 18 traced query frames each, the 4 batching
    // clients one plain frame, and every client compiles once.
    assert!(metric_delta("server.requests.pipeline") >= 76);
    assert!(metric_delta("server.requests.trace") >= 72);
    assert!(metric_delta("server.requests.compile") >= 8);
    for kind in circuit_kinds {
        assert!(metric_delta(&format!("engine.requests.{kind}")) >= 48);
        let hist = format!("engine.latency.{kind}_us");
        let count =
            |s: &trl_engine::StatsSnapshot| s.metrics.histogram(&hist).map_or(0, |h| h.count);
        assert!(count(&after) - count(&before) >= 48, "{hist} undercounts");
    }
    // The untouched kinds still expose (zero-valued) metric rows.
    for kind in trl_engine::QUERY_KINDS {
        assert!(
            after
                .metrics
                .counter(&format!("engine.requests.{kind}"))
                .is_some(),
            "no counter row for {kind}"
        );
        assert!(
            after
                .metrics
                .histogram(&format!("engine.latency.{kind}_us"))
                .is_some(),
            "no histogram row for {kind}"
        );
    }

    let counters = handle.shutdown();
    assert!(counters.connections >= 8);
    assert_eq!(counters.overloaded, 0);
}

/// A full submission queue rejects with typed Overloaded; the connection
/// stays usable and later requests succeed.
#[test]
fn overload_is_typed_and_survivable() {
    let cnf = acceptance_cnf();
    let engine = Arc::new(Engine::new(1 << 22, Some(1)));
    let config = ServerConfig {
        queue_capacity: 2,
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", engine, config).unwrap();

    let mut client = Client::connect(handle.addr()).unwrap();
    let compiled = client.compile(&cnf).unwrap();

    // A batch wider than the whole queue can never be admitted: typed
    // rejection carrying the capacity, not a hang or a dropped socket.
    let too_wide = vec![Query::ModelCount; 3];
    match client.batch(compiled.key, too_wide) {
        Err(ClientError::Server(WireError::Overloaded { capacity, .. })) => {
            assert_eq!(capacity, 2);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }

    // The same connection still serves.
    let answer = client.query(compiled.key, Query::ModelCount).unwrap();
    assert!(answer.model_count().is_some());
    handle.shutdown();
}

/// Unknown registry keys are a typed error, not a dead connection.
#[test]
fn unknown_key_is_typed() {
    let engine = Arc::new(Engine::new(1 << 22, Some(1)));
    let handle = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    match client.query(0xdead_beef, Query::Sat) {
        Err(ClientError::Server(WireError::UnknownKey(k))) => assert_eq!(k, 0xdead_beef),
        other => panic!("expected UnknownKey, got {other:?}"),
    }
    client.ping().unwrap();
    handle.shutdown();
}

/// Invalid queries (weights not covering the universe) are typed errors.
#[test]
fn invalid_query_is_typed() {
    let cnf = acceptance_cnf();
    let engine = Arc::new(Engine::new(1 << 22, Some(1)));
    let handle = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let compiled = client.compile(&cnf).unwrap();
    match client.query(compiled.key, Query::Wmc(LitWeights::unit(2))) {
        Err(ClientError::Server(WireError::Invalid(_))) => {}
        other => panic!("expected Invalid, got {other:?}"),
    }
    handle.shutdown();
}

/// A client that disconnects mid-frame (or sends garbage) must not take
/// the server down; later connections serve normally.
#[test]
fn garbage_and_mid_frame_disconnects_do_not_kill_the_server() {
    use std::io::Write;
    let cnf = acceptance_cnf();
    let engine = Arc::new(Engine::new(1 << 22, Some(1)));
    let handle = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).unwrap();

    // Garbage bytes.
    {
        let mut s = std::net::TcpStream::connect(handle.addr()).unwrap();
        s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    }
    // A legitimate frame prefix, cut mid-payload.
    {
        let mut bytes = Vec::new();
        trl_server::write_request(&mut bytes, &trl_server::Request::Compile(cnf.clone())).unwrap();
        let mut s = std::net::TcpStream::connect(handle.addr()).unwrap();
        s.write_all(&bytes[..bytes.len() / 2]).unwrap();
        // Dropping the stream closes it mid-frame.
    }
    std::thread::sleep(Duration::from_millis(100));

    let mut client = Client::connect(handle.addr()).unwrap();
    let compiled = client.compile(&cnf).unwrap();
    let direct = DecisionDnnfCompiler::default().compile(&cnf);
    assert_eq!(
        client.query(compiled.key, Query::ModelCount).unwrap(),
        QueryAnswer::ModelCount(direct.model_count())
    );
    handle.shutdown();
}

/// Graceful shutdown: a request in flight when shutdown triggers still
/// gets its complete response, and every server thread joins.
#[test]
fn shutdown_drains_in_flight_requests() {
    let cnf = acceptance_cnf();
    let engine = Arc::new(Engine::new(1 << 22, Some(2)));
    let handle = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
    let addr = handle.addr();

    let mut client = Client::connect(addr).unwrap();
    let compiled = client.compile(&cnf).unwrap();
    let key = compiled.key;

    // Several clients keep a stream of batches in flight while the wire
    // shutdown lands; each outstanding request must complete.
    let queries = query_stream(cnf.num_vars(), 2);
    let mut busy = Vec::new();
    for _ in 0..4 {
        let queries = queries.clone();
        let mut c = Client::connect(addr).unwrap();
        busy.push(std::thread::spawn(move || {
            let mut completed = 0usize;
            for _ in 0..50 {
                match c.batch(key, queries.clone()) {
                    Ok(answers) => {
                        assert_eq!(answers.len(), queries.len());
                        completed += 1;
                    }
                    // After the drain the server closes the stream; any
                    // protocol error past that point is the clean end of
                    // the connection, never a half-written frame (which
                    // would decode as Malformed/Checksum and also land
                    // here — the assert below separates them).
                    Err(ClientError::Protocol(e)) => {
                        assert!(
                            matches!(
                                e,
                                trl_server::ProtocolError::Disconnected
                                    | trl_server::ProtocolError::Io(_)
                            ),
                            "unclean stream end: {e:?}"
                        );
                        break;
                    }
                    Err(ClientError::Server(WireError::ShuttingDown)) => break,
                    Err(other) => panic!("unexpected failure: {other:?}"),
                }
            }
            completed
        }));
    }

    std::thread::sleep(Duration::from_millis(50));
    let mut shutter = Client::connect(addr).unwrap();
    shutter.shutdown_server().unwrap();

    // shutdown-by-wire: the handle's wait() must observe it and join.
    let counters = handle.wait();
    for b in busy {
        let completed = b.join().expect("busy client");
        assert!(completed > 0, "client never completed a batch");
    }
    assert!(counters.served > 0);

    // The port is released: a fresh bind to the same address succeeds.
    let rebind = std::net::TcpListener::bind(addr);
    assert!(rebind.is_ok(), "port still held after shutdown");
}

/// A traced query (a `Trace` frame) returns an answer bit-identical
/// to the untraced path plus a span tree covering the full request
/// lifecycle — reactor drain, queue wait, executor batch, kernel sweep,
/// response write under a single `server.request` root — with every
/// parent link resolving inside the tree.
#[test]
fn traced_query_returns_identical_answer_and_span_tree() {
    let cnf = acceptance_cnf();
    let engine = Arc::new(Engine::new(1 << 22, Some(2)));
    let handle = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let summary = client.compile(&cnf).unwrap();

    let mut w = LitWeights::unit(6);
    for v in 0..6u32 {
        w.set(Var(v).positive(), 0.2 + 0.1 * v as f64);
        w.set(Var(v).negative(), 0.8 - 0.1 * v as f64);
    }
    let untraced = client.query(summary.key, Query::Wmc(w.clone())).unwrap();
    let (trace_id, answer, spans) = client.trace(summary.key, Query::Wmc(w)).unwrap();
    assert_ne!(trace_id, 0, "the client generates a fresh trace id");
    match (&answer, &untraced) {
        (QueryAnswer::Wmc(a), QueryAnswer::Wmc(b)) => {
            assert_eq!(a.to_bits(), b.to_bits(), "traced answer must not drift");
        }
        other => panic!("expected two WMC answers, got {other:?}"),
    }

    // One root covering the request, at least five spans total.
    assert!(spans.len() >= 5, "thin trace: {spans:?}");
    let roots: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "server.request")
        .collect();
    assert_eq!(roots.len(), 1, "exactly one request root: {spans:?}");
    let root = roots[0];
    assert_ne!(root.parent_id, 0, "root parents onto the client's span");

    // Every other span's parent resolves inside the collected tree.
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
    for s in &spans {
        if s.span_id != root.span_id {
            assert!(ids.contains(&s.parent_id), "orphan span {s:?}");
        }
        assert!(
            s.start_us >= root.start_us,
            "span starts before the root: {s:?}"
        );
        assert!(
            s.start_us + s.dur_us <= root.start_us + root.dur_us + 1_000,
            "span ends far past the root: {s:?}"
        );
    }

    // The lifecycle stations all report in.
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    for expected in [
        "reactor.drain",
        "engine.queue_wait",
        "executor.batch",
        "server.write",
    ] {
        assert!(names.contains(&expected), "missing {expected}: {names:?}");
    }
    assert!(
        names.iter().any(|n| n.starts_with("kernel.sweep")),
        "no kernel sweep span: {names:?}"
    );

    // Tracing an unknown key is typed, exactly like querying one.
    let err = client.trace(summary.key ^ 1, Query::Sat).unwrap_err();
    assert!(
        matches!(err, ClientError::Server(WireError::UnknownKey { .. })),
        "{err:?}"
    );
    drop(client);
    handle.shutdown();
}

/// `queue_depth` in a stats snapshot is the server's backlog: queries
/// admitted and not yet answered. Query frames and a stats frame sent in
/// one write land in one reactor drain, which stages the queries and
/// answers them only after the stats frame; a stats frame on its own sees
/// nothing in flight.
#[test]
fn stats_report_the_admitted_backlog() {
    use std::io::Write;
    use trl_server::protocol::{read_response, write_request, Request, Response};

    let engine = Arc::new(Engine::new(1 << 22, Some(1)));
    let handle = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
    let key = Client::connect(handle.addr())
        .unwrap()
        .compile(&acceptance_cnf())
        .unwrap()
        .key;
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut depths = Vec::new();
    for query_frames in [0, 1, 3] {
        let mut bytes = Vec::new();
        for id in 0..query_frames {
            let queries = vec![Query::ModelCount];
            write_request(&mut bytes, &Request::PipelinedBatch { id, key, queries }).unwrap();
        }
        write_request(&mut bytes, &Request::Stats).unwrap();
        stream.write_all(&bytes).unwrap();
        for _ in 0..=query_frames {
            let limit = trl_server::protocol::DEFAULT_MAX_FRAME_LEN;
            match read_response(&mut stream, limit).unwrap() {
                Response::PipelinedBatch {
                    result: Ok(answers),
                    ..
                } => assert!(answers[0].model_count().unwrap() > 0),
                Response::Stats(s) => depths.push(s.queue_depth),
                other => panic!("unexpected response {other:?}"),
            }
        }
    }
    assert_eq!(depths, [0, 1, 3]);
    handle.shutdown();
}

/// Stats over the wire reflect engine activity.
#[test]
fn stats_snapshot_over_the_wire() {
    let cnf = acceptance_cnf();
    let engine = Arc::new(Engine::new(1 << 22, Some(3)));
    let handle = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let before = client.stats().unwrap();
    assert_eq!(before.artifacts, 0);
    assert_eq!(before.workers, 3);

    let compiled = client.compile(&cnf).unwrap();
    client.compile(&cnf).unwrap(); // hit
    client.query(compiled.key, Query::ModelCount).unwrap();

    let after = client.stats().unwrap();
    assert_eq!(after.artifacts, 1);
    assert_eq!(after.registry.misses, 1);
    assert!(after.registry.hits >= 2, "compile hit + key lookup");
    assert!(after.retained_nodes > 0);

    // Uptime, per-kind counts, connections and the metric dump travel too.
    assert!(after.uptime_ms >= before.uptime_ms);
    let served = |s: &trl_engine::StatsSnapshot, kind: &str| {
        s.requests_served
            .iter()
            .find(|(k, _)| k == kind)
            .map_or(0, |(_, c)| *c)
    };
    assert_eq!(served(&after, "model_count"), 1);
    assert_eq!(served(&after, "wmc"), 0);
    assert!(after.connections_accepted >= 1);
    assert!(after.connections_active >= 1, "this client is connected");
    assert!(
        !after.metrics.metrics.is_empty(),
        "metric dump travels with stats"
    );
    handle.shutdown();
}
