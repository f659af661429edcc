//! Roles serving benchmark: closed-loop throughput and tail latency for
//! every role-2/role-3 query kind over the `trl-server` wire, written to
//! `BENCH_roles.json` at the repository root. Run with `cargo run
//! --release -p trl-bench --bin bench_roles`; pass `--smoke` for the
//! fast CI leg (shorter streams, same criteria, no JSON written).
//!
//! One server hosts all three artifact kinds at once — a PSDD learned
//! from weighted complete data, an s–t simple-path structured space, and
//! a CNF classifier — and a single blocking client then drives a
//! deterministic stream of each new query kind against its artifact.
//! Every wire answer is checked against the in-process executor's answer
//! for the same query (floats travel as IEEE-754 bit patterns, so
//! equality is exact), making the benchmark double as an end-to-end
//! bit-identity sweep across all seven kinds.

use std::sync::Arc;
use std::time::Instant;

use trl_bench::harness::LatencySummary;
use trl_bench::{banner, check, row, section, Rng};
use trl_core::{Assignment, PartialAssignment, Var};
use trl_engine::{Engine, Query, QueryAnswer};
use trl_nnf::LitWeights;
use trl_prop::Cnf;
use trl_server::{Client, Server, ServerConfig};

/// Queries per kind in the full run.
const STREAM: usize = 512;
/// Queries per kind under `--smoke`.
const SMOKE_STREAM: usize = 32;
/// Training examples drawn for the learned PSDD.
const TRAIN_EXAMPLES: usize = 24;

struct KindResult {
    kind: &'static str,
    queries: usize,
    qps: f64,
    latency: LatencySummary,
    mismatches: usize,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let stream = if smoke { SMOKE_STREAM } else { STREAM };

    banner(
        "bench_roles",
        "roles 2+3 serving: per-kind throughput + tail latency over TCP (BENCH_roles.json)",
        "every role query answered over the wire, bit-identical to in-process",
    );

    // An 8-variable CNF with enough models to sample training data and
    // classifier instances from; a 3x3-ish graph for the space.
    let cnf =
        Cnf::parse_dimacs("p cnf 8 6\n1 2 3 0\n-1 4 0\n-2 5 6 0\n-3 7 0\n-4 -8 7 0\n5 -6 8 0\n")
            .unwrap();
    let n = cnf.num_vars();
    let models = enumerate_models(&cnf);
    row("cnf models", models.len());
    assert!(models.len() >= 4, "instance needs a richer model pool");

    let (num_nodes, edges, s, t) = diamond_grid();
    let e = edges.len();

    let mut rng = Rng::new(0x5eed_0007);
    let data: Vec<(Assignment, f64)> = (0..TRAIN_EXAMPLES)
        .map(|_| {
            let m = models[rng.below(models.len())].clone();
            (m, 1.0 + rng.uniform() * 3.0)
        })
        .collect();
    let alpha = 1.0;

    // In-process ground truth engine and the served engine are distinct;
    // agreement below is pipeline determinism, not cache sharing.
    let reference = Engine::new(1 << 22, None);
    let (psdd_key, psdd) = reference.learn_psdd(&cnf, &data, alpha).expect("learn");
    let (space_key, space) = reference
        .compile_space(num_nodes, &edges, s, t)
        .expect("space");
    let (clf_key, clf) = reference.compile_classifier(&cnf);
    row(
        "artifacts",
        format!(
            "psdd {} nodes (train LL {:.3}), space {} nodes ({} paths), classifier {} nodes",
            psdd.node_count(),
            psdd.train_log_likelihood(),
            space.node_count(),
            space.path_count(),
            clf.node_count()
        ),
    );

    let engine = Arc::new(Engine::new(1 << 22, None));
    let handle = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let learned = client.learn_psdd(&cnf, &data, alpha).expect("wire learn");
    assert_eq!(learned.key, psdd_key, "content-keyed fingerprints drifted");
    let wire_space = client
        .compile_space(num_nodes as u32, &edges, s, t)
        .expect("wire space");
    assert_eq!(wire_space.key, space_key);
    let wire_clf = client.compile_classifier(&cnf).expect("wire classifier");
    assert_eq!(wire_clf.key, clf_key);

    // Deterministic per-kind query streams.
    let streams: Vec<(&'static str, u64, Vec<Query>)> = vec![
        (
            "psdd_log_likelihood",
            psdd_key,
            (0..stream)
                .map(|_| {
                    let k = 2 + rng.below(5);
                    Query::PsddLogLikelihood(
                        (0..k)
                            .map(|_| (models[rng.below(models.len())].clone(), 1.0 + rng.uniform()))
                            .collect(),
                    )
                })
                .collect(),
        ),
        (
            "psdd_marginal",
            psdd_key,
            (0..stream)
                .map(|_| Query::PsddMarginal(random_evidence(&mut rng, n, 2)))
                .collect(),
        ),
        (
            "space_count",
            space_key,
            (0..stream)
                .map(|_| Query::SpaceCount(random_evidence(&mut rng, e, 2)))
                .collect(),
        ),
        (
            "space_top",
            space_key,
            (0..stream)
                .map(|_| Query::SpaceTop(random_weights(&mut rng, e)))
                .collect(),
        ),
        (
            "sufficient_reason",
            clf_key,
            (0..stream)
                .map(|_| Query::SufficientReason(random_instance(&mut rng, n)))
                .collect(),
        ),
        (
            "decision_robustness",
            clf_key,
            (0..stream)
                .map(|_| Query::DecisionRobustness(random_instance(&mut rng, n)))
                .collect(),
        ),
        (
            "classifier_bias",
            clf_key,
            (0..stream)
                .map(|_| {
                    let k = 1 + rng.below(3);
                    let mut vars: Vec<Var> = (0..k).map(|_| Var(rng.below(n) as u32)).collect();
                    vars.sort_unstable();
                    vars.dedup();
                    Query::ClassifierBias(vars)
                })
                .collect(),
        ),
    ];

    let mut results = Vec::new();
    for (kind, key, queries) in streams {
        let artifact = reference.get(key).expect("reference artifact");
        let expected: Vec<QueryAnswer> = reference
            .run_artifact_batch(&artifact, queries.clone())
            .expect("reference batch")
            .into_iter()
            .map(|o| o.answer)
            .collect();

        let mut latencies_us = Vec::with_capacity(queries.len());
        let mut mismatches = 0usize;
        let start = Instant::now();
        for (query, expect) in queries.iter().zip(&expected) {
            let sent = Instant::now();
            let answer = client.query(key, query.clone()).expect("wire query");
            latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
            if answer != *expect {
                mismatches += 1;
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let qps = queries.len() as f64 / elapsed;
        let latency = LatencySummary::from_us(&mut latencies_us);
        section(kind);
        row(
            "networked",
            format!(
                "{qps:.0} qps, p50 {:.1} us, p95 {:.1} us, p99 {:.1} us",
                latency.p50_us, latency.p95_us, latency.p99_us
            ),
        );
        results.push(KindResult {
            kind,
            queries: queries.len(),
            qps,
            latency,
            mismatches,
        });
    }
    handle.shutdown();

    section("criteria");
    let mismatches: usize = results.iter().map(|r| r.mismatches).sum();
    let mut ok = check(
        "every wire answer of every role kind is bit-identical to in-process",
        mismatches == 0,
    );
    ok &= check(
        "all seven role query kinds were served",
        results.len() == 7 && results.iter().all(|r| r.queries > 0),
    );

    if !smoke {
        let json = to_json(stream, &results, mismatches == 0);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_roles.json");
        std::fs::write(path, json).expect("write BENCH_roles.json");
        println!("\nwrote {path}");
    }
    std::process::exit(if ok { 0 } else { 1 });
}

/// All satisfying complete assignments of a small CNF, by enumeration.
fn enumerate_models(cnf: &Cnf) -> Vec<Assignment> {
    let n = cnf.num_vars();
    assert!(n <= 20, "enumeration pool is for small universes");
    let mut models = Vec::new();
    for bits in 0u32..(1 << n) {
        let values: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
        let a = Assignment::from_values(&values);
        let satisfied = cnf.clauses().iter().all(|c| {
            c.literals()
                .iter()
                .any(|l| a.value(l.var()) == l.is_positive())
        });
        if satisfied {
            models.push(a);
        }
    }
    models
}

/// A 6-node, 9-edge planar graph with many s-t simple paths.
fn diamond_grid() -> (usize, Vec<(u32, u32)>, u32, u32) {
    (
        6,
        vec![
            (0, 1),
            (0, 2),
            (1, 2),
            (1, 3),
            (2, 4),
            (3, 4),
            (3, 5),
            (4, 5),
            (1, 4),
        ],
        0,
        5,
    )
}

fn random_evidence(rng: &mut Rng, n: usize, max_lits: usize) -> PartialAssignment {
    let mut pa = PartialAssignment::new(n);
    for _ in 0..rng.below(max_lits + 1) {
        pa.assign(Var(rng.below(n) as u32).literal(rng.next_u64() & 1 == 0));
    }
    pa
}

fn random_weights(rng: &mut Rng, n: usize) -> LitWeights {
    let mut w = LitWeights::unit(n);
    for v in 0..n as u32 {
        let p = rng.uniform();
        w.set(Var(v).positive(), p);
        w.set(Var(v).negative(), 1.0 - p);
    }
    w
}

fn random_instance(rng: &mut Rng, n: usize) -> Assignment {
    let values: Vec<bool> = (0..n).map(|_| rng.next_u64() & 1 == 1).collect();
    Assignment::from_values(&values)
}

/// Renders the `BENCH_roles.json` document: one row per role query kind
/// with throughput and nearest-rank latency percentiles.
fn to_json(stream: usize, results: &[KindResult], identical: bool) -> String {
    use std::fmt::Write;
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"bench_roles\",\n");
    let _ = writeln!(out, "  \"queries_per_kind\": {stream},");
    let _ = writeln!(out, "  \"identical\": {identical},");
    out.push_str("  \"kinds\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            out,
            "    {{ \"kind\": \"{}\", \"queries\": {}, \"net_qps\": {:.0}, \"latency\": {} }}",
            r.kind,
            r.queries,
            r.qps,
            r.latency.to_json_fragment()
        );
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}
