//! Wire-protocol hardening: every frame type round-trips, and no
//! corruption of a frame — single-byte flips, truncation, oversized
//! length declarations — can panic the decoder or slip through untyped.

use trl_core::{Assignment, Cube, PartialAssignment, Var};
use trl_engine::{Query, QueryAnswer, RegistryStats, StatsSnapshot};
use trl_nnf::LitWeights;
use trl_obs::{HistogramSnapshot, MetricValue, MetricsDump, TraceContext, TraceSpanData};
use trl_prop::Cnf;
use trl_server::{
    read_request, read_response, write_request, write_response, ProtocolError, Request, Response,
    WireError, DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION,
};

fn sample_cnf() -> Cnf {
    Cnf::parse_dimacs("p cnf 4 3\n1 2 0\n-1 3 0\n-2 -4 0\n").unwrap()
}

fn sample_weights() -> LitWeights {
    let mut w = LitWeights::unit(4);
    for v in 0..4u32 {
        w.set(Var(v).positive(), 0.3 + 0.1 * v as f64);
        w.set(Var(v).negative(), 0.7 - 0.1 * v as f64);
    }
    w
}

fn trace_context(sampled: bool) -> TraceContext {
    TraceContext {
        trace_id: 0x1122_3344_5566_7788,
        span_id: 0x99aa_bbcc_ddee_ff00,
        sampled,
    }
}

/// Every request kind, with every query tag in both query frames.
fn all_requests() -> Vec<Request> {
    let mut pa = PartialAssignment::new(4);
    pa.assign(Var(2).negative());
    vec![
        Request::Ping,
        Request::Compile(sample_cnf()),
        // The circuit query tags.
        Request::PipelinedBatch {
            id: 0x0123_4567_89ab_cdef,
            key: 1,
            queries: vec![Query::Sat, Query::ModelCount, Query::ModelCountUnder(pa)],
        },
        Request::Trace {
            id: 2,
            ctx: trace_context(true),
            key: 3,
            queries: vec![
                Query::Wmc(sample_weights()),
                Query::Marginals(sample_weights()),
                Query::MaxWeight(sample_weights()),
            ],
        },
        Request::Stats,
        Request::Shutdown,
        Request::PipelinedBatch {
            id: 0xdead_beef,
            key: 7,
            queries: vec![
                Query::Sat,
                Query::Wmc(sample_weights()),
                Query::Marginals(sample_weights()),
            ],
        },
        // Zero-length query frames are legal frames.
        Request::PipelinedBatch {
            id: 0,
            key: 8,
            queries: Vec::new(),
        },
        Request::Trace {
            id: 1,
            ctx: trace_context(false),
            key: 18,
            queries: Vec::new(),
        },
        // Artifact builds for the paper's other two roles.
        Request::LearnPsdd {
            cnf: sample_cnf(),
            alpha: 1.0,
            data: sample_dataset(),
        },
        Request::CompileSpace {
            num_nodes: 4,
            edges: vec![(0, 1), (1, 2), (2, 3), (0, 2)],
            s: 0,
            t: 3,
        },
        Request::CompileClassifier(sample_cnf()),
        // The role-2/3 query tags.
        Request::PipelinedBatch {
            id: 9,
            key: 9,
            queries: vec![
                Query::PsddLogLikelihood(sample_dataset()),
                Query::PsddMarginal(sample_evidence()),
                Query::SpaceCount(sample_evidence()),
                Query::SpaceTop(sample_weights()),
            ],
        },
        Request::Trace {
            id: 10,
            ctx: trace_context(false),
            key: 13,
            queries: vec![
                Query::SufficientReason(sample_instance()),
                Query::DecisionRobustness(sample_instance()),
                Query::ClassifierBias(vec![Var(0), Var(3)]),
            ],
        },
        Request::PipelinedBatch {
            id: 0xf00d,
            key: 16,
            queries: vec![
                Query::PsddMarginal(sample_evidence()),
                Query::SpaceCount(sample_evidence()),
                Query::SufficientReason(sample_instance()),
                Query::ClassifierBias(Vec::new()),
            ],
        },
    ]
}

/// A small but shape-complete span tree: a root, a child, and a span with
/// an empty name (names travel as length-prefixed strings).
fn sample_spans() -> Vec<TraceSpanData> {
    vec![
        TraceSpanData {
            span_id: 11,
            parent_id: 0,
            name: "server.request".into(),
            start_us: 0,
            dur_us: 1200,
        },
        TraceSpanData {
            span_id: 12,
            parent_id: 11,
            name: "engine.queue_wait".into(),
            start_us: 10,
            dur_us: 40,
        },
        TraceSpanData {
            span_id: 13,
            parent_id: 11,
            name: String::new(),
            start_us: 60,
            dur_us: 0,
        },
    ]
}

fn sample_dataset() -> Vec<(Assignment, f64)> {
    vec![
        (Assignment::from_values(&[true, false, true, false]), 3.0),
        (Assignment::from_values(&[false, true, true, true]), 1.25),
    ]
}

fn sample_evidence() -> PartialAssignment {
    let mut pa = PartialAssignment::new(4);
    pa.assign(Var(1).positive());
    pa
}

fn sample_instance() -> Assignment {
    Assignment::from_values(&[true, true, false, true])
}

/// The build responses of the paper's other two roles, and both query
/// responses carrying every answer tag, answers and typed failures alike.
fn all_role_responses() -> Vec<Response> {
    vec![
        Response::Learned {
            key: 31,
            num_vars: 4,
            nodes: 19,
            log_likelihood: -3.5,
        },
        Response::SpaceCompiled {
            key: 32,
            num_edge_vars: 4,
            nodes: 11,
            paths: 3,
        },
        Response::ClassifierCompiled {
            key: 33,
            num_vars: 4,
            nodes: 7,
        },
        // The typed rejection of another protocol version.
        Response::Error(WireError::UnsupportedVersion {
            found: 7,
            supported: PROTOCOL_VERSION,
        }),
        // The circuit answer tags.
        Response::PipelinedBatch {
            id: 1,
            result: Ok(vec![
                QueryAnswer::Sat(true),
                QueryAnswer::ModelCount(12345678901234567890),
                QueryAnswer::Wmc(0.625),
            ]),
        },
        Response::Traced {
            id: 2,
            result: Ok(vec![
                QueryAnswer::Marginals {
                    wmc: 0.625,
                    marginals: vec![(0.25, 0.375), (0.125, 0.5)],
                },
                QueryAnswer::MaxWeight(None),
                QueryAnswer::MaxWeight(Some((0.75, sample_instance()))),
            ]),
            spans: sample_spans(),
        },
        // The role-2/3 answer tags.
        Response::PipelinedBatch {
            id: 3,
            result: Ok(vec![
                QueryAnswer::LogLikelihood(-2.25),
                QueryAnswer::Probability(0.1875),
                QueryAnswer::Reason {
                    decision: true,
                    reason: Some(Cube::from_lits([Var(1).positive(), Var(3).negative()])),
                },
                QueryAnswer::Reason {
                    decision: false,
                    reason: None,
                },
            ]),
        },
        Response::Traced {
            id: 4,
            result: Ok(vec![
                QueryAnswer::Robustness(Some(2)),
                QueryAnswer::Robustness(None),
                QueryAnswer::Bias(true),
            ]),
            spans: Vec::new(),
        },
        Response::PipelinedBatch {
            id: 5,
            result: Ok(vec![
                QueryAnswer::Probability(0.5),
                QueryAnswer::ModelCount(6),
                QueryAnswer::Reason {
                    decision: true,
                    reason: Some(Cube::empty()),
                },
                QueryAnswer::Bias(false),
            ]),
        },
        // Typed per-frame failures.
        Response::PipelinedBatch {
            id: 6,
            result: Err(WireError::Engine("structure".into())),
        },
        Response::Traced {
            id: 7,
            result: Err(WireError::UnknownKey(99)),
            spans: Vec::new(),
        },
        Response::Traced {
            id: 8,
            result: Err(WireError::Invalid("weights cover 2 vars".into())),
            spans: sample_spans(),
        },
        Response::PipelinedBatch {
            id: 9,
            result: Err(WireError::UnsupportedVersion {
                found: u16::MAX,
                supported: PROTOCOL_VERSION,
            }),
        },
    ]
}

#[test]
fn every_request_round_trips() {
    for req in all_requests() {
        let mut bytes = Vec::new();
        write_request(&mut bytes, &req).unwrap();
        let back = read_request(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(back, req);
    }
}

#[test]
fn exhaustive_single_byte_corruption_never_panics() {
    // A frame with a little of everything: key, weights, evidence.
    let mut pa = PartialAssignment::new(4);
    pa.assign(Var(0).positive());
    let req = Request::Trace {
        id: 41,
        ctx: trace_context(true),
        key: 42,
        queries: vec![
            Query::Wmc(sample_weights()),
            Query::ModelCountUnder(pa),
            Query::Sat,
        ],
    };
    let mut pristine = Vec::new();
    write_request(&mut pristine, &req).unwrap();

    for at in 0..pristine.len() {
        for bit in [0x01u8, 0x80] {
            let mut corrupt = pristine.clone();
            corrupt[at] ^= bit;
            // Every flip must yield a typed error or (only if both the
            // frame still verifies and the payload still decodes — i.e.
            // the flip landed somewhere semantically neutral, which the
            // checksums make impossible) the original value; never panic.
            match read_request(&mut corrupt.as_slice(), DEFAULT_MAX_FRAME_LEN) {
                Err(_) => {}
                Ok(back) => panic!("flip of bit {bit:#x} at byte {at} went undetected: {back:?}"),
            }
        }
    }
}

#[test]
fn exhaustive_response_corruption_never_panics() {
    let resp = Response::Traced {
        id: 43,
        result: Ok(vec![
            QueryAnswer::ModelCount(12345678901234567890),
            QueryAnswer::Marginals {
                wmc: 0.625,
                marginals: vec![(0.25, 0.375), (0.125, 0.5)],
            },
        ]),
        spans: sample_spans(),
    };
    let mut pristine = Vec::new();
    write_response(&mut pristine, &resp).unwrap();
    for at in 0..pristine.len() {
        let mut corrupt = pristine.clone();
        corrupt[at] ^= 0xff;
        assert!(
            read_response(&mut corrupt.as_slice(), DEFAULT_MAX_FRAME_LEN).is_err(),
            "byte {at} flip went undetected"
        );
    }
}

#[test]
fn oversized_length_prefix_rejected_without_allocation() {
    let mut bytes = Vec::new();
    write_request(&mut bytes, &Request::Stats).unwrap();
    // Declare u32::MAX payload bytes and restamp the header checksum so
    // the length bound itself is what must reject the frame. If the
    // decoder tried to allocate first this test would OOM, not fail.
    bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    restamp_header(&mut bytes);
    match read_request(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN) {
        Err(ProtocolError::FrameTooLarge { declared, max }) => {
            assert_eq!(declared, u32::MAX);
            assert_eq!(max, DEFAULT_MAX_FRAME_LEN);
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
}

#[test]
fn mid_frame_disconnect_at_every_cut_is_typed() {
    let mut bytes = Vec::new();
    write_request(
        &mut bytes,
        &Request::Trace {
            id: 6,
            ctx: trace_context(true),
            key: 7,
            queries: vec![Query::Wmc(sample_weights())],
        },
    )
    .unwrap();
    for cut in 0..bytes.len() {
        let mut slice = &bytes[..cut];
        assert_eq!(
            read_request(&mut slice, DEFAULT_MAX_FRAME_LEN),
            Err(ProtocolError::Disconnected),
            "cut at byte {cut}"
        );
    }
}

#[test]
fn version_skew_is_typed() {
    // One version is spoken; every other one, older or newer, is rejected.
    for version in [0, 1, 7, 9, 99, u16::MAX] {
        let mut bytes = Vec::new();
        write_request(&mut bytes, &Request::Ping).unwrap();
        stamp_version(&mut bytes, version);
        assert_eq!(
            read_request(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN),
            Err(ProtocolError::UnsupportedVersion {
                found: version,
                supported: PROTOCOL_VERSION,
            })
        );
    }
    let mut bytes = Vec::new();
    write_request(&mut bytes, &Request::Ping).unwrap();
    stamp_version(&mut bytes, 8);
    assert_eq!(
        read_request(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN),
        Ok(Request::Ping)
    );
}

/// The kinds of the retired `Optimize`/`Optimized` frames (0x0b, 0x8c)
/// are unassigned: a well-formed, checksummed frame of either kind is an
/// unexpected frame, never a panic or a silent decode.
#[test]
fn retired_kinds_are_unexpected_frames() {
    let request = retired_frame(0x0b);
    match read_request(&mut request.as_slice(), DEFAULT_MAX_FRAME_LEN) {
        Err(ProtocolError::UnexpectedFrame { kind: 0x0b, .. }) => {}
        other => panic!("kind 0x0b: expected an unexpected frame, got {other:?}"),
    }
    let response = retired_frame(0x8c);
    match read_response(&mut response.as_slice(), DEFAULT_MAX_FRAME_LEN) {
        Err(ProtocolError::UnexpectedFrame { kind: 0x8c, .. }) => {}
        other => panic!("kind 0x8c: expected an unexpected frame, got {other:?}"),
    }
}

/// A live server answers a frame of any other version with exactly one
/// typed error naming that version, and a frame of a retired kind with
/// one typed error, then closes the connection; other connections keep
/// being served.
#[test]
fn a_live_server_answers_another_version_with_one_typed_error_then_closes() {
    use std::io::Write;
    use std::net::TcpStream;
    use std::sync::Arc;
    use std::time::Duration;
    use trl_engine::Engine;
    use trl_server::{Client, Server, ServerConfig};

    let engine = Arc::new(Engine::new(1 << 20, Some(2)));
    let handle = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
    let mut survivor = Client::connect(handle.addr()).unwrap();
    let key = survivor.compile(&sample_cnf()).unwrap().key;
    for version in [7, 1, 9] {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut bytes = Vec::new();
        let queries = vec![Query::ModelCount];
        write_request(
            &mut bytes,
            &Request::PipelinedBatch {
                id: 1,
                key,
                queries,
            },
        )
        .unwrap();
        stamp_version(&mut bytes, version);
        stream.write_all(&bytes).unwrap();
        let expected = WireError::UnsupportedVersion {
            found: version,
            supported: PROTOCOL_VERSION,
        };
        match read_response(&mut stream, DEFAULT_MAX_FRAME_LEN) {
            Ok(Response::Error(err)) => assert_eq!(err, expected, "version {version}"),
            other => panic!("version {version}: expected a typed error, got {other:?}"),
        }
        match read_response(&mut stream, DEFAULT_MAX_FRAME_LEN) {
            Err(ProtocolError::Disconnected | ProtocolError::Io(_)) => {}
            other => panic!("version {version}: expected the connection closed, got {other:?}"),
        }
        let answer = survivor.query(key, Query::ModelCount).unwrap();
        assert!(answer.model_count().unwrap() > 0, "version {version}");
    }
    // An old client's `Optimize` frame: current version, retired kind.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(&retired_frame(0x0b)).unwrap();
    match read_response(&mut stream, DEFAULT_MAX_FRAME_LEN) {
        Ok(Response::Error(WireError::Invalid(message))) => {
            assert!(message.contains("0x0b"), "{message}")
        }
        other => panic!("kind 0x0b: expected a typed error, got {other:?}"),
    }
    match read_response(&mut stream, DEFAULT_MAX_FRAME_LEN) {
        Err(ProtocolError::Disconnected | ProtocolError::Io(_)) => {}
        other => panic!("kind 0x0b: expected the connection closed, got {other:?}"),
    }
    let answer = survivor.query(key, Query::ModelCount).unwrap();
    assert!(answer.model_count().unwrap() > 0, "after kind 0x0b");
    drop(survivor);
    handle.shutdown();
}

#[test]
fn universe_bomb_rejected() {
    // A tiny frame claiming a 2^24+1-variable weight table must be
    // rejected by the universe cap, not by attempting the allocation.
    let mut bytes = Vec::new();
    write_request(
        &mut bytes,
        &Request::PipelinedBatch {
            id: 0,
            key: 0,
            queries: vec![Query::Wmc(LitWeights::unit(1))],
        },
    )
    .unwrap();
    // Payload layout: u64 id, u64 key, u32 query count, u8 query tag,
    // u32 num_vars, …
    let nv_at = 28 + 8 + 8 + 4 + 1;
    bytes[nv_at..nv_at + 4].copy_from_slice(&((1u32 << 24) + 1).to_le_bytes());
    restamp_payload_and_header(&mut bytes);
    assert!(matches!(
        read_request(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN),
        Err(ProtocolError::Malformed(_))
    ));
}

/// A stats snapshot with every shape populated:
/// per-kind counts, connection counters, all three metric variants.
fn extended_stats() -> StatsSnapshot {
    StatsSnapshot {
        registry: RegistryStats {
            hits: 11,
            misses: 4,
            evictions: 2,
        },
        artifacts: 3,
        retained_nodes: 5_000,
        max_retained_nodes: 1 << 20,
        workers: 4,
        queue_depth: 1,
        uptime_ms: 98_765,
        requests_served: vec![
            ("sat".into(), 10),
            ("model_count".into(), 0),
            ("wmc".into(), 310),
        ],
        connections_accepted: 27,
        connections_active: 5,
        metrics: MetricsDump {
            metrics: vec![
                ("compiler.decisions".into(), MetricValue::Counter(123_456)),
                ("server.connections_active".into(), MetricValue::Gauge(5)),
                (
                    "engine.latency.wmc_us".into(),
                    MetricValue::Histogram(HistogramSnapshot {
                        buckets: vec![0, 1, 200, 100, 9],
                        count: 310,
                        sum_us: 44_000,
                    }),
                ),
            ],
        },
    }
}

#[test]
fn extended_stats_frame_round_trips() {
    let resp = Response::Stats(extended_stats());
    let mut bytes = Vec::new();
    write_response(&mut bytes, &resp).unwrap();
    let back = read_response(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN).unwrap();
    assert_eq!(back, resp);
}

#[test]
fn extended_stats_single_byte_corruption_never_panics() {
    let mut pristine = Vec::new();
    write_response(&mut pristine, &Response::Stats(extended_stats())).unwrap();
    for at in 0..pristine.len() {
        for bit in [0x01u8, 0x80] {
            let mut corrupt = pristine.clone();
            corrupt[at] ^= bit;
            assert!(
                read_response(&mut corrupt.as_slice(), DEFAULT_MAX_FRAME_LEN).is_err(),
                "flip of bit {bit:#x} at byte {at} went undetected"
            );
        }
    }
}

#[test]
fn extended_stats_truncation_at_every_cut_is_typed() {
    let mut bytes = Vec::new();
    write_response(&mut bytes, &Response::Stats(extended_stats())).unwrap();
    for cut in 0..bytes.len() {
        let mut slice = &bytes[..cut];
        assert_eq!(
            read_response(&mut slice, DEFAULT_MAX_FRAME_LEN),
            Err(ProtocolError::Disconnected),
            "cut at byte {cut}"
        );
    }
}

#[test]
fn typed_wire_errors_round_trip_with_context() {
    let overloaded = Response::Error(WireError::Overloaded {
        queue_depth: 77,
        capacity: 77,
    });
    let mut bytes = Vec::new();
    write_response(&mut bytes, &overloaded).unwrap();
    let back = read_response(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN).unwrap();
    assert_eq!(back, overloaded);
}

#[test]
fn pipelined_request_single_byte_corruption_never_panics() {
    let req = Request::PipelinedBatch {
        id: 0x0123_4567_89ab_cdef,
        key: 9,
        queries: vec![Query::Wmc(sample_weights()), Query::Sat, Query::ModelCount],
    };
    let mut pristine = Vec::new();
    write_request(&mut pristine, &req).unwrap();
    for at in 0..pristine.len() {
        for bit in [0x01u8, 0x80] {
            let mut corrupt = pristine.clone();
            corrupt[at] ^= bit;
            assert!(
                read_request(&mut corrupt.as_slice(), DEFAULT_MAX_FRAME_LEN).is_err(),
                "flip of bit {bit:#x} at byte {at} went undetected"
            );
        }
    }
}

#[test]
fn pipelined_response_corruption_and_truncation_are_typed() {
    let resp = Response::PipelinedBatch {
        id: 42,
        result: Ok(vec![
            QueryAnswer::Sat(true),
            QueryAnswer::Wmc(0.765625),
            QueryAnswer::ModelCount(9),
        ]),
    };
    let mut pristine = Vec::new();
    write_response(&mut pristine, &resp).unwrap();
    for at in 0..pristine.len() {
        let mut corrupt = pristine.clone();
        corrupt[at] ^= 0xff;
        assert!(
            read_response(&mut corrupt.as_slice(), DEFAULT_MAX_FRAME_LEN).is_err(),
            "byte {at} flip went undetected"
        );
    }
    for cut in 0..pristine.len() {
        let mut slice = &pristine[..cut];
        assert_eq!(
            read_response(&mut slice, DEFAULT_MAX_FRAME_LEN),
            Err(ProtocolError::Disconnected),
            "cut at byte {cut}"
        );
    }
}

#[test]
fn pipelined_error_response_round_trips() {
    let resp = Response::PipelinedBatch {
        id: 7,
        result: Err(WireError::Overloaded {
            queue_depth: 128,
            capacity: 128,
        }),
    };
    let mut bytes = Vec::new();
    write_response(&mut bytes, &resp).unwrap();
    let back = read_response(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN).unwrap();
    assert_eq!(back, resp);
}

#[test]
fn pipelined_batch_count_bomb_rejected() {
    // A tiny pipelined frame whose query-count word claims u32::MAX
    // entries must be rejected by the remaining-bytes bound, not by
    // attempting to reserve the declared capacity.
    let mut bytes = Vec::new();
    write_request(
        &mut bytes,
        &Request::PipelinedBatch {
            id: 1,
            key: 2,
            queries: vec![Query::Sat],
        },
    )
    .unwrap();
    // Payload layout: u64 id, u64 key, u32 count, …
    let count_at = 28 + 8 + 8;
    bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    restamp_payload_and_header(&mut bytes);
    assert!(matches!(
        read_request(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN),
        Err(ProtocolError::Malformed(_))
    ));
}

#[test]
fn zero_length_pipelined_batch_round_trips_both_ways() {
    let req = Request::PipelinedBatch {
        id: u64::MAX,
        key: 3,
        queries: Vec::new(),
    };
    let mut bytes = Vec::new();
    write_request(&mut bytes, &req).unwrap();
    assert_eq!(
        read_request(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN).unwrap(),
        req
    );
    let resp = Response::PipelinedBatch {
        id: u64::MAX,
        result: Ok(Vec::new()),
    };
    let mut bytes = Vec::new();
    write_response(&mut bytes, &resp).unwrap();
    assert_eq!(
        read_response(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN).unwrap(),
        resp
    );
}

#[test]
fn role_responses_round_trip() {
    for resp in all_role_responses() {
        let mut bytes = Vec::new();
        write_response(&mut bytes, &resp).unwrap();
        let back = read_response(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(back, resp, "{resp:?}");
    }
}

#[test]
fn every_v4_request_survives_exhaustive_single_byte_corruption() {
    // Every request kind and query tag through the per-byte flip
    // discipline.
    for req in all_requests() {
        let mut pristine = Vec::new();
        write_request(&mut pristine, &req).unwrap();
        for at in 0..pristine.len() {
            for bit in [0x01u8, 0x80] {
                let mut corrupt = pristine.clone();
                corrupt[at] ^= bit;
                assert!(
                    read_request(&mut corrupt.as_slice(), DEFAULT_MAX_FRAME_LEN).is_err(),
                    "{req:?}: flip of bit {bit:#x} at byte {at} went undetected"
                );
            }
        }
    }
}

#[test]
fn every_v4_response_survives_corruption_and_truncation() {
    for resp in all_role_responses() {
        let mut pristine = Vec::new();
        write_response(&mut pristine, &resp).unwrap();
        for at in 0..pristine.len() {
            for bit in [0x01u8, 0x80] {
                let mut corrupt = pristine.clone();
                corrupt[at] ^= bit;
                assert!(
                    read_response(&mut corrupt.as_slice(), DEFAULT_MAX_FRAME_LEN).is_err(),
                    "{resp:?}: flip of bit {bit:#x} at byte {at} went undetected"
                );
            }
        }
        for cut in 0..pristine.len() {
            let mut slice = &pristine[..cut];
            assert_eq!(
                read_response(&mut slice, DEFAULT_MAX_FRAME_LEN),
                Err(ProtocolError::Disconnected),
                "{resp:?}: cut at byte {cut}"
            );
        }
    }
}

#[test]
fn v4_request_truncation_at_every_cut_is_typed() {
    for req in all_requests() {
        let mut bytes = Vec::new();
        write_request(&mut bytes, &req).unwrap();
        for cut in 0..bytes.len() {
            let mut slice = &bytes[..cut];
            assert_eq!(
                read_request(&mut slice, DEFAULT_MAX_FRAME_LEN),
                Err(ProtocolError::Disconnected),
                "{req:?}: cut at byte {cut}"
            );
        }
    }
}

#[test]
fn dataset_count_bomb_rejected() {
    // A tiny learn frame whose example-count word claims u32::MAX entries
    // must be rejected by the remaining-bytes bound, not by attempting to
    // reserve the declared capacity.
    let mut bytes = Vec::new();
    write_request(
        &mut bytes,
        &Request::LearnPsdd {
            cnf: Cnf::new(2),
            alpha: 1.0,
            data: vec![(Assignment::from_values(&[true, false]), 1.0)],
        },
    )
    .unwrap();
    // Payload layout: cnf (u32 num_vars, u32 num_clauses), f64 alpha,
    // u32 example count, …
    let count_at = 28 + 4 + 4 + 8;
    bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    restamp_payload_and_header(&mut bytes);
    assert!(matches!(
        read_request(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN),
        Err(ProtocolError::Malformed(_))
    ));
}

#[test]
fn edge_count_bomb_rejected() {
    let mut bytes = Vec::new();
    write_request(
        &mut bytes,
        &Request::CompileSpace {
            num_nodes: 2,
            edges: vec![(0, 1)],
            s: 0,
            t: 1,
        },
    )
    .unwrap();
    // Payload layout: u32 num_nodes, u32 s, u32 t, u32 edge count, …
    let count_at = 28 + 4 + 4 + 4;
    bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    restamp_payload_and_header(&mut bytes);
    assert!(matches!(
        read_request(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN),
        Err(ProtocolError::Malformed(_))
    ));
}

#[test]
fn traced_span_count_bomb_rejected() {
    // A traced response whose span-count word claims u32::MAX spans must
    // be rejected by the remaining-bytes bound, not by attempting to
    // reserve the declared capacity.
    let mut bytes = Vec::new();
    write_response(
        &mut bytes,
        &Response::Traced {
            id: 5,
            result: Ok(vec![QueryAnswer::ModelCount(5)]),
            spans: Vec::new(),
        },
    )
    .unwrap();
    // With zero spans, the declared span count is the payload's final word.
    let count_at = bytes.len() - 4;
    bytes[count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
    restamp_payload_and_header(&mut bytes);
    assert!(matches!(
        read_response(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN),
        Err(ProtocolError::Malformed(_))
    ));
}

/// Rewrites a well-formed frame's version word to `version` and restamps
/// the header checksum, simulating a peer that speaks another protocol
/// version.
fn stamp_version(bytes: &mut [u8], version: u16) {
    bytes[4..6].copy_from_slice(&version.to_le_bytes());
    restamp_header(bytes);
}

/// A checksummed frame of the current version whose kind is `kind` and
/// whose payload is one `u64` key, the shape of the retired
/// `Optimize { key }` frame.
fn retired_frame(kind: u8) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_request(&mut bytes, &Request::Ping).unwrap();
    bytes[6] = kind;
    bytes.extend_from_slice(&19u64.to_le_bytes());
    bytes[8..12].copy_from_slice(&8u32.to_le_bytes());
    restamp_payload_and_header(&mut bytes);
    bytes
}

/// Recomputes the header checksum after a deliberate header edit.
fn restamp_header(bytes: &mut [u8]) {
    use std::hash::Hasher;
    let mut h = trl_core::FxHasher::default();
    h.write(&bytes[..20]);
    let sum = h.finish();
    bytes[20..28].copy_from_slice(&sum.to_le_bytes());
}

/// Recomputes both checksums after a deliberate payload edit.
fn restamp_payload_and_header(bytes: &mut [u8]) {
    use std::hash::Hasher;
    let mut h = trl_core::FxHasher::default();
    h.write(&bytes[28..]);
    let sum = h.finish();
    bytes[12..20].copy_from_slice(&sum.to_le_bytes());
    restamp_header(bytes);
}
