//! Networked serving benchmark: a pipelined multi-connection load
//! generator over the `trl-server` readiness-driven TCP frontend,
//! written to `BENCH_net.json` at the repository root. Run with
//! `cargo run --release -p trl-bench --bin bench_net`; pass `--smoke`
//! for the fast CI sanity leg (64 pipelined connections, shorter
//! stream, no JSON), or `--connections N --pipeline D` to run a single
//! tier of your choosing.
//!
//! The full run sweeps a tier matrix — {8, 32, 128} connections ×
//! pipeline depth {1, 8, 32} — with every request a version-3 pipelined
//! frame of [`FRAME_BATCH`] queries. Depth 1 is the classic closed loop;
//! deeper tiers keep that many frames in flight per connection so the
//! reactor can coalesce a whole readiness drain into one executor batch.
//!
//! The load generator itself is readiness-driven: one thread drives all
//! connections through the same epoll [`Reactor`] the server uses, with
//! every request frame pre-encoded once and every response checked
//! byte-for-byte against the pre-encoded in-process answer (floats
//! travel as IEEE-754 bit patterns, so wire bytes are deterministic).
//! That keeps the generator's own CPU footprint out of the measurement —
//! 128 blocking client threads on a small machine would otherwise spend
//! more time context-switching than the server spends answering.
//! Per-frame wall latencies feed nearest-rank p50/p95/p99, and the old
//! thread-per-connection server's numbers are preserved in the JSON as
//! the `baseline` row. An overload phase then checks that a too-small
//! queue sheds load with typed `overloaded` errors on connections that
//! keep serving afterwards.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use trl_bench::harness::LatencySummary;
use trl_bench::{banner, check, random_3cnf, row, section, Rng};
use trl_compiler::DecisionDnnfCompiler;
use trl_core::{PartialAssignment, Var};
use trl_engine::{fingerprint, Artifact, Engine, Executor, PreparedCircuit, Query, QueryAnswer};
use trl_nnf::LitWeights;
use trl_prop::Cnf;
use trl_server::{
    read_response, write_request, write_response, Client, ClientError, Event, FrameScan, Reactor,
    Request, Response, Server, ServerConfig, WireError, DEFAULT_MAX_FRAME_LEN,
};

/// Queries per pipelined frame in every tier.
const FRAME_BATCH: usize = 8;
/// Frames per connection in the full benchmark tiers.
const FRAMES_PER_CONN: usize = 64;
/// Frames per connection under `--smoke`.
const SMOKE_FRAMES_PER_CONN: usize = 6;
/// The tier matrix of the full run.
const TIER_CONNECTIONS: [usize; 3] = [8, 32, 128];
const TIER_DEPTHS: [usize; 3] = [1, 8, 32];

/// The last measured numbers for the retired thread-per-connection
/// server (one blocking request in flight per connection), kept in the
/// JSON so the reactor's gain stays visible in one file.
const BASELINE_JSON: &str = "{ \"server\": \"thread-per-connection\", \"connections\": 8, \
     \"pipeline\": 1, \"net_qps\": 21874, \
     \"latency\": { \"mean_us\": 337.65, \"p50_us\": 243.15, \"p95_us\": 797.45, \
     \"p99_us\": 2097.27, \"max_us\": 9489.72 }, \"identical\": true }";

struct TierResult {
    connections: usize,
    depth: usize,
    queries: usize,
    net_qps: f64,
    latency: LatencySummary,
    mismatches: usize,
    overload_retries: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let arg_value = |flag: &str| -> Option<usize> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
    };
    let single_conns = arg_value("--connections");
    let single_depth = arg_value("--pipeline");
    // `--addr HOST:PORT` points the load generator at an already-running
    // server (e.g. `three-roles serve`) instead of binding its own; CI
    // uses this to scrape the server's Prometheus metrics around a run.
    let external: Option<std::net::SocketAddr> = args
        .iter()
        .position(|a| a == "--addr")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--addr must be HOST:PORT"));

    banner(
        "bench_net",
        "networked serving: pipelined throughput + tail latency over TCP (BENCH_net.json)",
        "128 pipelined connections land within ~2x of the in-process executor",
    );

    let instance = "random_3cnf(seed=18, n=18, m=54)";
    let cnf = random_3cnf(&mut Rng::new(18), 18, 54);
    let frames_per_conn = if smoke {
        SMOKE_FRAMES_PER_CONN
    } else {
        FRAMES_PER_CONN
    };
    let frames = frame_stream(cnf.num_vars(), frames_per_conn, 0x5eed_0004);

    // In-process ground truth (and the single-worker throughput bar):
    // the served answers must reproduce these bit-for-bit over the wire.
    let prepared = Artifact::Circuit(Arc::new(PreparedCircuit::new(
        DecisionDnnfCompiler::default().compile(&cnf),
    )));
    let baseline = Executor::new(1);
    let flat: Vec<Query> = frames.iter().flatten().cloned().collect();
    // Median of three timed runs: a single pass over a short stream is
    // dominated by warmup/scheduler noise on small machines.
    let mut qps_runs = Vec::new();
    let mut answers = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        answers = baseline
            .run(&prepared, flat.clone())
            .expect("valid batch")
            .into_iter()
            .map(|o| o.answer)
            .collect::<Vec<QueryAnswer>>();
        qps_runs.push(flat.len() as f64 / start.elapsed().as_secs_f64());
    }
    qps_runs.sort_by(f64::total_cmp);
    let inprocess_qps = qps_runs[qps_runs.len() / 2];
    drop(baseline);
    drop(prepared);
    row(
        "in-process 1-worker baseline",
        format!("{inprocess_qps:.0} qps"),
    );

    // Registry keys are content-addressed, so every connection (and every
    // tier's fresh server) sees the same key and the whole request and
    // expected-response streams can be encoded exactly once.
    let key = fingerprint(&cnf);
    let mut req_bytes = Vec::with_capacity(frames.len());
    let mut resp_bytes = Vec::with_capacity(frames.len());
    for (i, frame) in frames.iter().enumerate() {
        let mut out = Vec::new();
        write_request(
            &mut out,
            &Request::PipelinedBatch {
                id: i as u64,
                key,
                queries: frame.clone(),
            },
        )
        .expect("encode request");
        req_bytes.push(out);
        let mut out = Vec::new();
        write_response(
            &mut out,
            &Response::PipelinedBatch {
                id: i as u64,
                result: Ok(answers[i * FRAME_BATCH..(i + 1) * FRAME_BATCH].to_vec()),
            },
        )
        .expect("encode expected response");
        resp_bytes.push(out);
    }

    // Which tiers run: the full matrix, one explicit tier, or the smoke
    // tier CI drives (64 pipelined connections).
    let tiers: Vec<(usize, usize)> = if let (Some(c), Some(d)) = (single_conns, single_depth) {
        vec![(c, d)]
    } else if let Some(c) = single_conns {
        vec![(c, 8)]
    } else if smoke {
        vec![(64, 8)]
    } else {
        TIER_CONNECTIONS
            .iter()
            .flat_map(|&c| TIER_DEPTHS.iter().map(move |&d| (c, d)))
            .collect()
    };

    let mut results = Vec::new();
    for (conns, depth) in tiers {
        let tier = run_tier(&cnf, &req_bytes, &resp_bytes, conns, depth, external);
        section(&format!("{conns} connections, pipeline depth {depth}"));
        row("queries", tier.queries);
        row(
            "networked",
            format!(
                "{:.0} qps ({:.1}x of in-process), frame p50 {:.1} us, p95 {:.1} us, p99 {:.1} us",
                tier.net_qps,
                inprocess_qps / tier.net_qps.max(1.0),
                tier.latency.p50_us,
                tier.latency.p95_us,
                tier.latency.p99_us
            ),
        );
        if tier.overload_retries > 0 {
            row("overload retries", tier.overload_retries);
        }
        results.push(tier);
    }

    // Overload phase: a queue the frames cannot fit in must reject with
    // the typed error, and every connection must keep serving afterwards.
    // Skipped against an external server — its queue is sized for load.
    if external.is_some() {
        let mismatches: usize = results.iter().map(|t| t.mismatches).sum();
        section("criteria");
        let ok = check(
            "every networked answer is byte-identical to the in-process executor",
            mismatches == 0,
        );
        std::process::exit(if ok { 0 } else { 1 });
    }
    let overload = overload_phase(&cnf);
    section("overload");
    row(
        "typed backpressure",
        format!(
            "{}/{} typed rejections, {}/{} connections survived",
            overload.typed_rejections, overload.attempts, overload.survived, overload.attempts
        ),
    );

    section("criteria");
    let mismatches: usize = results.iter().map(|t| t.mismatches).sum();
    let mut ok = check(
        "every networked answer is byte-identical to the in-process executor",
        mismatches == 0,
    );
    let widest = results
        .iter()
        .filter(|t| t.connections >= 128 && t.depth > 1)
        .map(|t| t.net_qps)
        .fold(0.0f64, f64::max);
    if widest > 0.0 {
        ok &= check(
            "128+ pipelined connections land within 2x of in-process",
            widest * 2.0 >= inprocess_qps,
        );
    }
    ok &= check(
        "a full queue rejects with typed overloaded and the connection survives",
        overload.typed_rejections == overload.attempts && overload.survived == overload.attempts,
    );

    if !smoke && single_conns.is_none() {
        let json = to_json(
            instance,
            inprocess_qps,
            &results,
            mismatches == 0,
            &overload,
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json");
        std::fs::write(path, json).expect("write BENCH_net.json");
        println!("\nwrote {path}");
    }
    std::process::exit(if ok { 0 } else { 1 });
}

// -------------------------------------------------- epoll load generator

/// One load connection's state in the readiness-driven generator.
struct LoadConn {
    stream: TcpStream,
    /// Next frame index to put in flight.
    next: usize,
    /// `(frame id, send instant)` for frames awaiting a response.
    in_flight: Vec<(u64, Instant)>,
    /// Frames fully answered (retries re-enter `in_flight`, not here).
    received: usize,
    inbuf: Vec<u8>,
    inpos: usize,
    outbuf: Vec<u8>,
    outpos: usize,
    latencies_us: Vec<f64>,
    mismatches: usize,
    retries: usize,
}

impl LoadConn {
    /// Tops the window up to `depth` in-flight frames and stages their
    /// pre-encoded bytes.
    fn fill(&mut self, req_bytes: &[Vec<u8>], depth: usize) {
        while self.next < req_bytes.len() && self.in_flight.len() < depth {
            self.outbuf.extend_from_slice(&req_bytes[self.next]);
            self.in_flight.push((self.next as u64, Instant::now()));
            self.next += 1;
        }
    }

    /// Writes staged bytes until the socket would block.
    fn flush(&mut self) {
        while self.outpos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.outpos..]) {
                Ok(0) => panic!("server closed a load connection mid-write"),
                Ok(n) => self.outpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => panic!("load connection write failed: {e}"),
            }
        }
        if self.outpos == self.outbuf.len() {
            self.outbuf.clear();
            self.outpos = 0;
        }
    }

    fn done(&self, total: usize) -> bool {
        self.received == total
    }
}

/// Runs one tier: `conns` connections, each keeping `depth` pipelined
/// frames in flight until the shared frame stream is served, all driven
/// from this thread through one epoll reactor.
fn run_tier(
    cnf: &Cnf,
    req_bytes: &[Vec<u8>],
    resp_bytes: &[Vec<u8>],
    conns: usize,
    depth: usize,
    external: Option<std::net::SocketAddr>,
) -> TierResult {
    // Size the queue to the worst-case in-flight query count so the load
    // tiers measure throughput, not shed load; overload has its own phase.
    let handle = if external.is_none() {
        let config = ServerConfig {
            max_connections: conns.max(64) + 8,
            queue_capacity: (conns * depth * FRAME_BATCH).max(1024),
            ..ServerConfig::default()
        };
        let engine = Arc::new(Engine::new(1 << 22, None));
        Some(Server::bind("127.0.0.1:0", engine, config).expect("bind server"))
    } else {
        None
    };
    let addr = external.unwrap_or_else(|| handle.as_ref().expect("own server").addr());
    let depth = depth.max(1);
    let total = req_bytes.len();

    // One blocking setup client compiles the artifact so every load
    // connection's content-addressed key resolves server-side; it closes
    // before the load connections open so it never holds a permit the
    // load needs (the default connection gate admits exactly 64).
    {
        let mut setup = Client::connect(addr).expect("setup connect");
        let compiled = setup.compile(cnf).expect("server-side compile");
        assert_eq!(compiled.key, fingerprint(cnf), "registry key drifted");
    }

    let reactor = Reactor::new().expect("load reactor");
    let mut load: Vec<LoadConn> = Vec::with_capacity(conns);
    let start = Instant::now();
    for i in 0..conns {
        let stream = TcpStream::connect(addr).expect("load connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_nonblocking(true).expect("nonblocking");
        reactor
            .register_edge(stream.as_raw_fd(), i as u64)
            .expect("register load connection");
        load.push(LoadConn {
            stream,
            next: 0,
            in_flight: Vec::with_capacity(depth),
            received: 0,
            inbuf: Vec::new(),
            inpos: 0,
            outbuf: Vec::new(),
            outpos: 0,
            latencies_us: Vec::with_capacity(total),
            mismatches: 0,
            retries: 0,
        });
        // Edge-triggered: prime the window by hand, the first OUT edge
        // may predate registration.
        let conn = load.last_mut().expect("just pushed");
        conn.fill(req_bytes, depth);
        conn.flush();
    }

    let mut events: Vec<Event> = Vec::new();
    let mut scratch = vec![0u8; 256 * 1024];
    let mut remaining = conns;
    let deadline = Instant::now() + Duration::from_secs(120);
    while remaining > 0 {
        assert!(Instant::now() < deadline, "load tier stalled");
        reactor
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("load reactor wait");
        for &event in &events {
            let idx = event.token as usize;
            let conn = &mut load[idx];
            if conn.done(total) {
                continue;
            }
            if event.writable {
                conn.flush();
            }
            if event.readable || event.hangup {
                drain_responses(conn, req_bytes, resp_bytes, depth, &mut scratch, total);
                if conn.done(total) {
                    remaining -= 1;
                }
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();

    let mut latencies_us = Vec::new();
    let mut mismatches = 0usize;
    let mut overload_retries = 0usize;
    for conn in &mut load {
        reactor.deregister(conn.stream.as_raw_fd()).ok();
        latencies_us.append(&mut conn.latencies_us);
        mismatches += conn.mismatches;
        overload_retries += conn.retries;
    }
    drop(load);
    let queries = latencies_us.len() * FRAME_BATCH;
    let net_qps = queries as f64 / elapsed;
    let latency = LatencySummary::from_us(&mut latencies_us);
    if let Some(handle) = handle {
        handle.shutdown();
    }
    TierResult {
        connections: conns,
        depth,
        queries,
        net_qps,
        latency,
        mismatches,
        overload_retries,
    }
}

/// Reads until the socket would block, verifying each complete response
/// frame byte-for-byte against the expected pre-encoded answer.
fn drain_responses(
    conn: &mut LoadConn,
    req_bytes: &[Vec<u8>],
    resp_bytes: &[Vec<u8>],
    depth: usize,
    scratch: &mut [u8],
    total: usize,
) {
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                if !conn.done(total) {
                    panic!("server closed a load connection early");
                }
                break;
            }
            Ok(n) => conn.inbuf.extend_from_slice(&scratch[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => panic!("load connection read failed: {e}"),
        }
    }
    let now = Instant::now();
    loop {
        let pending = &conn.inbuf[conn.inpos..];
        let frame_len = match trl_server::scan_frame(pending, DEFAULT_MAX_FRAME_LEN) {
            Ok(FrameScan::Incomplete { .. }) => break,
            Ok(FrameScan::Frame { consumed, .. }) => consumed,
            Err(e) => panic!("load connection got a malformed frame: {e}"),
        };
        let frame = &conn.inbuf[conn.inpos..conn.inpos + frame_len];
        // Response payload starts with the echoed request id.
        let header_len = trl_server::protocol::HEADER_LEN;
        let id = u64::from_le_bytes(
            frame[header_len..header_len + 8]
                .try_into()
                .expect("frame shorter than an id"),
        );
        let at = conn
            .in_flight
            .iter()
            .position(|(f, _)| *f == id)
            .unwrap_or_else(|| panic!("response id {id} was not in flight"));
        let (_, sent) = conn.in_flight.swap_remove(at);
        if frame == resp_bytes[id as usize].as_slice() {
            conn.latencies_us
                .push(now.duration_since(sent).as_secs_f64() * 1e6);
            conn.received += 1;
        } else {
            // Not the expected bytes: either typed backpressure (re-send
            // the frame) or a genuine mismatch.
            match read_response(&mut &frame[..], DEFAULT_MAX_FRAME_LEN) {
                Ok(Response::PipelinedBatch {
                    result: Err(WireError::Overloaded { .. }),
                    ..
                }) => {
                    conn.retries += 1;
                    conn.outbuf.extend_from_slice(&req_bytes[id as usize]);
                    conn.in_flight.push((id, Instant::now()));
                }
                other => {
                    eprintln!("frame {id} mismatched: {other:?}");
                    conn.mismatches += 1;
                    conn.received += 1;
                }
            }
        }
        conn.inpos += frame_len;
    }
    if conn.inpos == conn.inbuf.len() {
        conn.inbuf.clear();
        conn.inpos = 0;
    } else if conn.inpos > 64 * 1024 {
        conn.inbuf.drain(..conn.inpos);
        conn.inpos = 0;
    }
    conn.fill(req_bytes, depth);
    conn.flush();
}

/// A deterministic stream of [`FRAME_BATCH`]-query frames mixing every
/// query kind, seeded so the in-process and networked runs agree.
fn frame_stream(n: usize, frames: usize, seed: u64) -> Vec<Vec<Query>> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(frames);
    for f in 0..frames {
        let mut frame = Vec::with_capacity(FRAME_BATCH);
        for i in 0..FRAME_BATCH {
            let mut w = LitWeights::unit(n);
            for v in 0..n as u32 {
                let p = rng.uniform();
                w.set(Var(v).positive(), p);
                w.set(Var(v).negative(), 1.0 - p);
            }
            frame.push(match (f * FRAME_BATCH + i) % 6 {
                0 => Query::Sat,
                1 => Query::ModelCount,
                2 => {
                    let mut pa = PartialAssignment::new(n);
                    pa.assign(Var(rng.below(n) as u32).literal(rng.next_u64() & 1 == 0));
                    Query::ModelCountUnder(pa)
                }
                3 => Query::Wmc(w),
                4 => Query::Marginals(w),
                _ => Query::MaxWeight(w),
            });
        }
        out.push(frame);
    }
    out
}

/// Retries an operation while the server reports typed backpressure;
/// any other failure is a bench bug and panics.
fn retry_overloaded<T>(mut op: impl FnMut() -> Result<T, ClientError>) -> T {
    loop {
        match op() {
            Ok(value) => return value,
            Err(ClientError::Server(WireError::Overloaded { .. })) => {
                std::thread::yield_now();
            }
            Err(other) => panic!("non-backpressure failure under overload: {other}"),
        }
    }
}

struct OverloadOutcome {
    attempts: usize,
    typed_rejections: usize,
    survived: usize,
}

/// Runs the overload phase against a deliberately tiny submission queue.
fn overload_phase(cnf: &Cnf) -> OverloadOutcome {
    const OVERLOAD_CONNS: usize = 8;
    let engine = Arc::new(Engine::new(1 << 22, Some(1)));
    let config = ServerConfig {
        queue_capacity: 2,
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", engine, config).expect("bind overload server");
    let addr = handle.addr();

    let mut clients = Vec::new();
    for _ in 0..OVERLOAD_CONNS {
        let cnf = cnf.clone();
        clients.push(std::thread::spawn(move || {
            // With 8 clients contending for a 2-slot queue, even compiles
            // and follow-up queries can be (correctly) rejected; retrying
            // on the typed error is the backpressure contract in action.
            // What must never happen is a dropped connection or an
            // untyped failure.
            let mut client = Client::connect(addr).expect("connect");
            let key = retry_overloaded(|| client.compile(&cnf).map(|s| s.key));
            // Wider than the whole queue: can never be admitted. Sent as
            // a pipelined frame so the typed rejection rides the v3 path.
            client
                .pipeline_send(0, key, vec![Query::ModelCount; 3])
                .expect("send overweight frame");
            let typed = matches!(
                client.pipeline_recv(),
                Ok((0, Err(WireError::Overloaded { capacity: 2, .. })))
            );
            // The same connection must still serve a normal request.
            let survived =
                retry_overloaded(|| client.query(key, Query::Sat)) == QueryAnswer::Sat(true);
            (typed, survived)
        }));
    }
    let mut outcome = OverloadOutcome {
        attempts: OVERLOAD_CONNS,
        typed_rejections: 0,
        survived: 0,
    };
    for c in clients {
        let (typed, survived) = c.join().expect("overload client");
        outcome.typed_rejections += typed as usize;
        outcome.survived += survived as usize;
    }
    handle.shutdown();
    outcome
}

/// Renders the `BENCH_net.json` document.
fn to_json(
    instance: &str,
    inprocess_qps: f64,
    tiers: &[TierResult],
    identical: bool,
    overload: &OverloadOutcome,
) -> String {
    use std::fmt::Write;
    let headline = tiers
        .iter()
        .max_by(|a, b| a.net_qps.total_cmp(&b.net_qps))
        .expect("at least one tier");
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"bench_net\",\n");
    let _ = writeln!(out, "  \"instance\": \"{instance}\",");
    out.push_str("  \"server\": \"reactor\",\n");
    let _ = writeln!(out, "  \"frame_batch\": {FRAME_BATCH},");
    let _ = writeln!(out, "  \"inprocess_qps\": {inprocess_qps:.0},");
    let _ = writeln!(out, "  \"connections\": {},", headline.connections);
    let _ = writeln!(out, "  \"pipeline\": {},", headline.depth);
    let _ = writeln!(out, "  \"net_qps\": {:.0},", headline.net_qps);
    let _ = writeln!(
        out,
        "  \"net_vs_inprocess\": {:.2},",
        inprocess_qps / headline.net_qps.max(1.0)
    );
    let _ = writeln!(
        out,
        "  \"latency\": {},",
        headline.latency.to_json_fragment()
    );
    let _ = writeln!(out, "  \"baseline\": {BASELINE_JSON},");
    out.push_str("  \"tiers\": [\n");
    for (i, t) in tiers.iter().enumerate() {
        let _ = write!(
            out,
            "    {{ \"connections\": {}, \"pipeline\": {}, \"queries\": {}, \
             \"net_qps\": {:.0}, \"latency\": {} }}",
            t.connections,
            t.depth,
            t.queries,
            t.net_qps,
            t.latency.to_json_fragment()
        );
        out.push_str(if i + 1 < tiers.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"identical\": {identical},");
    let _ = writeln!(
        out,
        "  \"overload\": {{ \"attempts\": {}, \"typed_rejections\": {}, \"connections_survived\": {} }}",
        overload.attempts, overload.typed_rejections, overload.survived
    );
    out.push_str("}\n");
    out
}
