//! The network server answers query frames on its reactor threads and
//! runs builds on the engine's worker pool.
//!
//! - Both query frame kinds (`PipelinedBatch`, `Trace`), sent pipelined
//!   or one at a time, answer bit for bit as
//!   [`Engine::run_artifact_batch`] does, on all four artifact kinds.
//! - A query on a resident artifact is answered while a build is still in
//!   flight, even when the engine's only worker is busy, and even when
//!   the query frames follow the build on its own connection.
//! - A shutdown that lands while a build is in flight still delivers that
//!   build's answer.
//! - Builds spawn no threads: 200 compiles over the wire leave the
//!   process's thread count unchanged.
//!
//! A build is held in flight deterministically by parking the engine's
//! only worker on a channel ([`trl_engine::Executor::execute`]): builds
//! queue behind it until the test lets it go.
//!
//! Some checks read process-wide state (thread count, metrics), so the
//! tests in this file take one lock and never run side by side.

use std::net::TcpStream;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use three_roles::core::{Assignment, PartialAssignment, SplitMix64, Var};
use three_roles::engine::{Engine, Query, QueryAnswer};
use three_roles::nnf::LitWeights;
use three_roles::obs::TraceContext;
use three_roles::prop::Cnf;
use three_roles::server::{
    read_response, write_request, Client, Request, Response, Server, ServerConfig,
    DEFAULT_MAX_FRAME_LEN,
};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A random CNF over `n` variables with clauses of one to four literals.
fn random_cnf(seed: u64, n: usize, m: usize) -> Cnf {
    three_roles::prop::gen::random_cnf(&mut SplitMix64::new(seed), n, m, 4)
}

fn weights(n: usize, seed: u64) -> LitWeights {
    let mut rng = SplitMix64::new(seed);
    let mut w = LitWeights::unit(n);
    for v in 0..n as u32 {
        let p = 0.05 + 0.9 * rng.uniform();
        w.set(Var(v).positive(), p);
        w.set(Var(v).negative(), 1.0 - p);
    }
    w
}

fn evidence(n: usize, var: u32, value: bool) -> PartialAssignment {
    let mut pa = PartialAssignment::new(n);
    pa.assign(Var(var).literal(value));
    pa
}

/// Answers compared through their `Debug` text, which prints every `f64`
/// in a form that round-trips exactly (and tells `-0.0` from `0.0`).
fn bits(answers: &[QueryAnswer]) -> String {
    format!("{answers:?}")
}

/// Parks the engine's only worker until the returned sender is dropped
/// or sent to; returns once the worker has picked the blocker up.
fn park_worker(engine: &Engine) -> Sender<()> {
    let (release, parked) = channel::<()>();
    let (started, wait_started) = channel::<()>();
    engine.executor().execute(move || {
        let _ = started.send(());
        let _ = parked.recv();
    });
    wait_started
        .recv_timeout(Duration::from_secs(60))
        .expect("the worker picks up the blocker");
    release
}

/// Polls the process-wide `server.requests.compile` counter until it
/// passes `before`: the reactor has read and dispatched the compile.
fn wait_for_compile_dispatch(before: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while compiles_dispatched() <= before {
        assert!(Instant::now() < deadline, "the compile frame never arrived");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn compiles_dispatched() -> u64 {
    three_roles::obs::snapshot()
        .counter("server.requests.compile")
        .unwrap_or(0)
}

/// Sends a compile frame without waiting for its answer.
fn send_compile(addr: std::net::SocketAddr, cnf: &Cnf) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_request(&mut stream, &Request::Compile(cnf.clone())).expect("send compile");
    stream
}

#[test]
fn every_query_frame_kind_answers_like_the_engine_on_every_artifact_kind() {
    let _serial = serial();
    let engine = Arc::new(Engine::new(1 << 22, Some(1)));
    let handle = Server::bind("127.0.0.1:0", Arc::clone(&engine), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let cnf = random_cnf(7, 12, 18);
    let circuit = client.compile(&cnf).unwrap().key;
    let role_cnf = Cnf::parse_dimacs("p cnf 4 3\n1 2 0\n-2 3 0\n-1 4 0\n").unwrap();
    let data = vec![
        (Assignment::from_values(&[true, false, true, true]), 4.0),
        (Assignment::from_values(&[false, true, true, false]), 2.0),
        (Assignment::from_values(&[true, true, true, true]), 1.0),
    ];
    let psdd = client.learn_psdd(&role_cnf, &data, 1.0).unwrap().key;
    let edges = [(0, 1), (1, 3), (0, 2), (2, 3), (1, 2)];
    let space = client.compile_space(4, &edges, 0, 3).unwrap().key;
    let classifier = client.compile_classifier(&role_cnf).unwrap().key;

    let n = cnf.num_vars();
    let x = Assignment::from_values(&[true, false, true, true]);
    let cases: Vec<(u64, Vec<Query>)> = vec![
        (
            circuit,
            vec![
                Query::Sat,
                Query::ModelCount,
                Query::ModelCountUnder(evidence(n, 3, false)),
                Query::Wmc(weights(n, 1)),
                Query::Marginals(weights(n, 2)),
                Query::MaxWeight(weights(n, 3)),
                Query::Wmc(weights(n, 4)),
            ],
        ),
        (
            psdd,
            vec![
                Query::PsddLogLikelihood(data.clone()),
                Query::PsddMarginal(evidence(4, 2, true)),
            ],
        ),
        (
            space,
            vec![
                Query::SpaceCount(evidence(5, 4, false)),
                Query::SpaceTop(weights(5, 5)),
            ],
        ),
        (
            classifier,
            vec![
                Query::SufficientReason(x.clone()),
                Query::DecisionRobustness(x),
                Query::ClassifierBias(vec![Var(0), Var(2)]),
            ],
        ),
    ];
    for (key, queries) in cases {
        let artifact = engine.get(key).expect("resident");
        let expect: Vec<QueryAnswer> = engine
            .run_artifact_batch(&artifact, queries.clone())
            .unwrap()
            .into_iter()
            .map(|o| o.answer)
            .collect();
        let kind = artifact.kind().name();

        assert_eq!(
            bits(&client.batch(key, queries.clone()).unwrap()),
            bits(&expect),
            "{kind}: batch"
        );
        for (q, e) in queries.iter().zip(&expect) {
            let single = client.query(key, q.clone()).unwrap();
            assert_eq!(
                bits(&[single]),
                bits(std::slice::from_ref(e)),
                "{kind}: query {q:?}"
            );
            let (_, traced, spans) = client.trace(key, q.clone()).unwrap();
            assert_eq!(
                bits(&[traced]),
                bits(std::slice::from_ref(e)),
                "{kind}: trace {q:?}"
            );
            assert!(
                spans.iter().any(|s| s.name == "executor.batch"),
                "{kind}: no executor span in {spans:?}"
            );
        }
        // Frames of one to three queries, all in flight at once, so frames
        // for one key coalesce into shared batches on the server.
        let frames: Vec<Vec<Query>> = (0..12)
            .map(|i| {
                (0..1 + i % 3)
                    .map(|j| queries[(i + j) % queries.len()].clone())
                    .collect()
            })
            .collect();
        let answers = client.pipelined(key, frames.clone(), 12).unwrap();
        for (frame, got) in frames.into_iter().zip(answers) {
            let want: Vec<QueryAnswer> = engine
                .run_artifact_batch(&artifact, frame)
                .unwrap()
                .into_iter()
                .map(|o| o.answer)
                .collect();
            assert_eq!(bits(&got.unwrap()), bits(&want), "{kind}: pipelined");
        }
    }
    drop(client);
    handle.shutdown();
}

#[test]
fn queries_are_answered_while_a_build_is_in_flight() {
    let _serial = serial();
    let engine = Arc::new(Engine::new(1 << 22, Some(1)));
    let handle = Server::bind("127.0.0.1:0", Arc::clone(&engine), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let resident = random_cnf(11, 10, 14);
    let key = client.compile(&resident).unwrap().key;
    let count = engine
        .get(key)
        .and_then(|a| a.as_circuit().map(|c| c.raw().model_count()))
        .expect("resident circuit");

    let release = park_worker(&engine);
    let before = compiles_dispatched();
    let mut builder = send_compile(handle.addr(), &random_cnf(12, 14, 20));
    wait_for_compile_dispatch(before);

    // The only worker is parked and the build waits behind it; queries on
    // the resident artifact are still answered, on every frame kind.
    assert_eq!(
        client.query(key, Query::ModelCount).unwrap(),
        QueryAnswer::ModelCount(count)
    );
    client.pipeline_send(1, key, vec![Query::Sat]).unwrap();
    assert_eq!(
        client.pipeline_recv().unwrap().1.unwrap(),
        vec![QueryAnswer::Sat(count > 0)]
    );

    // On one connection: a build, then a traced and a plain query frame.
    // Query frames are answered by id, so both answers overtake the build
    // still queued behind the parked worker.
    let mut same = send_compile(handle.addr(), &random_cnf(14, 12, 18));
    same.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let ctx = TraceContext::generate(true);
    let queries = vec![Query::ModelCount, Query::Sat];
    let traced = Request::Trace {
        id: 7,
        ctx,
        key,
        queries: queries.clone(),
    };
    write_request(&mut same, &traced).unwrap();
    write_request(
        &mut same,
        &Request::PipelinedBatch {
            id: 8,
            key,
            queries,
        },
    )
    .unwrap();
    let want = vec![QueryAnswer::ModelCount(count), QueryAnswer::Sat(count > 0)];
    let mut answered = Vec::new();
    for _ in 0..2 {
        match read_response(&mut same, DEFAULT_MAX_FRAME_LEN).unwrap() {
            Response::Traced { id, result, spans } => {
                assert_eq!(result.unwrap(), want, "traced answers");
                assert!(!spans.is_empty(), "the traced frame returns its spans");
                answered.push(id);
            }
            Response::PipelinedBatch { id, result } => {
                assert_eq!(result.unwrap(), want, "pipelined answers");
                answered.push(id);
            }
            other => panic!("expected a query answer before the build's, got {other:?}"),
        }
    }
    answered.sort_unstable();
    assert_eq!(answered, [7, 8]);

    drop(release);
    for stream in [&mut builder, &mut same] {
        match read_response(stream, DEFAULT_MAX_FRAME_LEN).unwrap() {
            Response::Compiled { .. } => {}
            other => panic!("expected the build's answer, got {other:?}"),
        }
    }
    drop(client);
    handle.shutdown();
}

#[test]
fn shutdown_delivers_an_in_flight_build() {
    let _serial = serial();
    let engine = Arc::new(Engine::new(1 << 22, Some(1)));
    let handle = Server::bind("127.0.0.1:0", Arc::clone(&engine), ServerConfig::default()).unwrap();
    let cnf = random_cnf(13, 12, 16);

    let release = park_worker(&engine);
    let before = compiles_dispatched();
    let mut builder = send_compile(handle.addr(), &cnf);
    wait_for_compile_dispatch(before);
    let mut shutter = Client::connect(handle.addr()).unwrap();
    shutter.shutdown_server().unwrap();
    assert!(handle.is_shutting_down());

    drop(release);
    match read_response(&mut builder, DEFAULT_MAX_FRAME_LEN).unwrap() {
        Response::Compiled { key, .. } => assert!(engine.get(key).is_some()),
        other => panic!("expected the build's answer, got {other:?}"),
    }
    drop(builder);
    drop(shutter);
    handle.wait();
}

/// The `Threads:` line of `/proc/self/status`.
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads line")
}

#[cfg(target_os = "linux")]
#[test]
fn compiles_over_the_wire_spawn_no_threads() {
    let _serial = serial();
    let engine = Arc::new(Engine::new(1 << 24, Some(1)));
    let handle = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.compile(&random_cnf(100, 10, 12)).unwrap();
    // The test harness starts and ends its own threads around each test;
    // wait until the count holds still before taking the baseline.
    let mut baseline = thread_count();
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = thread_count();
        if now == baseline {
            break;
        }
        baseline = now;
    }
    let mut counts = Vec::with_capacity(200);
    for seed in 0..200 {
        client.compile(&random_cnf(1_000 + seed, 10, 12)).unwrap();
        counts.push(thread_count());
    }
    assert!(
        counts.iter().all(|&c| c == baseline),
        "thread count moved from {baseline}: {counts:?}"
    );
    drop(client);
    handle.shutdown();
}
