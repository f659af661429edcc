//! The benchmark's own contract: seeded streams, failure accounting, and
//! agreement between the printed metrics and `BENCHMARK.json`.

use std::collections::BTreeMap;

use trl_core::{PartialAssignment, Var};
use trl_engine::{Query, QueryAnswer};
use trl_perfbench::layers::{bayesnet as bnl, compiler, nnf};
use trl_perfbench::measure::Tally;
use trl_perfbench::report::{Better, Report, END_TO_END, PER_LAYER};
use trl_perfbench::workloads::{bn, kb_churn, stream_digest, wire_mixed, EXTRA, NAMES};

#[test]
fn same_seed_same_stream_other_seed_other_stream() {
    for name in NAMES.iter().chain(&EXTRA) {
        let a = stream_digest(name, 7, 300).unwrap();
        let b = stream_digest(name, 7, 300).unwrap();
        let c = stream_digest(name, 8, 300).unwrap();
        assert_eq!(a, b, "{name}: same seed, different stream");
        assert_ne!(a, c, "{name}: different seeds, same stream");
    }
    assert!(stream_digest("no-such-workload", 1, 1).is_err());
}

/// Feeds one verdict into a tally and renders the result line.
fn tally_of(verdict: Result<(), String>) -> (Tally, String) {
    let mut tally = Tally::default();
    tally.record(Ok(()));
    tally.record(verdict);
    let mut report = Report::from_tally(&tally);
    for m in END_TO_END {
        report.set(m.name, 1.0);
    }
    let line = report.json_line(END_TO_END).unwrap();
    (tally, line)
}

fn assert_counted_failed(verdict: Result<(), String>) {
    assert!(verdict.is_err(), "the oracle accepted a wrong answer");
    let (tally, line) = tally_of(verdict);
    assert_eq!((tally.attempted, tally.failed), (2, 1));
    assert!(
        line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"),
        "{line}"
    );
}

#[test]
fn wrong_wire_answer_is_counted_failed() {
    let expected = vec![QueryAnswer::Wmc(0.25), QueryAnswer::ModelCount(3)];
    assert!(wire_mixed::check_frame(&expected, &Ok(expected.clone())).is_ok());
    let nudged = vec![
        QueryAnswer::Wmc(f64::from_bits(0.25f64.to_bits() + 1)),
        QueryAnswer::ModelCount(3),
    ];
    assert_counted_failed(wire_mixed::check_frame(&expected, &Ok(nudged)));
    assert_counted_failed(wire_mixed::check_frame(
        &expected,
        &Err("overloaded".into()),
    ));
}

#[test]
fn wrong_bn_answer_is_counted_failed() {
    let net = bnl::random_network(5, 8, 3, 0.3);
    let enc = bnl::encode(&net);
    let evidence = vec![(2, 1), (6, 0)];
    let weights = bnl::evidence_weights(&enc, &evidence);
    let expected = bn::Expected {
        pr: bnl::ve_pr_evidence(&net, &evidence),
        posterior_true: (0..net.num_vars())
            .map(|v| (v, bnl::ve_posterior(&net, v, &evidence)[1]))
            .collect(),
        mpe: bnl::mpe_value_min_degree(&net, &evidence),
        scalar_marginals: Vec::new(),
    };
    let circuit = nnf::prepare(compiler::compile_with_stats(&enc.cnf).0);
    let cases = [
        (bn::Kind::Pr, Query::Wmc(weights.clone())),
        (bn::Kind::Mar, Query::Marginals(weights.clone())),
        (bn::Kind::Mpe, Query::MaxWeight(weights.clone())),
    ];
    for (kind, query) in cases {
        let answer = nnf::answer_batch(&circuit, std::slice::from_ref(&query), 1).remove(0);
        let check = |a: &QueryAnswer| {
            bn::check_answer(&bn::BN_INFER, &net, &enc, &evidence, &expected, kind, a)
        };
        assert!(check(&answer).is_ok(), "{kind:?}: {:?}", check(&answer));
        let wrong = match answer {
            QueryAnswer::Wmc(p) => QueryAnswer::Wmc(p * (1.0 + 1e-6)),
            QueryAnswer::Marginals { wmc, mut marginals } => {
                // The MAR answer a user reads: an indicator's marginal.
                let largest = (0..net.num_vars())
                    .map(|v| bnl::indicator(&enc, v, 1))
                    .max_by(|&a, &b| marginals[a].0.total_cmp(&marginals[b].0))
                    .unwrap();
                marginals[largest].0 *= 1.0 + 1e-6;
                QueryAnswer::Marginals { wmc, marginals }
            }
            QueryAnswer::MaxWeight(Some((v, m))) => QueryAnswer::MaxWeight(Some((v * 0.5, m))),
            other => panic!("unexpected answer {other:?}"),
        };
        assert_counted_failed(check(&wrong));
    }
}

#[test]
fn wrong_count_is_counted_failed_by_the_sdd_oracle() {
    let cnf = trl_prop::Cnf::parse_dimacs("p cnf 4 3\n1 2 0\n-1 3 0\n-2 -4 0\n").unwrap();
    let circuit = nnf::prepare(compiler::compile_with_stats(&cnf).0);
    let mut pa = PartialAssignment::new(4);
    pa.assign(Var(0).positive());
    let queries = vec![Query::ModelCountUnder(pa)];
    let answers = nnf::answer_batch(&circuit, &queries, 1);
    let mut sdd = compiler::SddOracle::new(&cnf);
    assert!(kb_churn::check_with_sdd(&mut sdd, &queries, &answers).is_ok());
    let QueryAnswer::ModelCount(n) = answers[0] else {
        panic!("count expected");
    };
    let wrong = vec![QueryAnswer::ModelCount(n + 1)];
    assert_counted_failed(kb_churn::check_with_sdd(&mut sdd, &queries, &wrong));
}

/// A JSON value, as much of it as `BENCHMARK.json` uses.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

fn parse(text: &str) -> Json {
    let mut p = Parser(text.as_bytes(), 0);
    let v = p.value();
    p.ws();
    assert_eq!(p.1, text.len(), "trailing data");
    v
}

struct Parser<'a>(&'a [u8], usize);

impl Parser<'_> {
    fn ws(&mut self) {
        while self.1 < self.0.len() && self.0[self.1].is_ascii_whitespace() {
            self.1 += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.0[self.1], c, "expected {} at {}", c as char, self.1);
        self.1 += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.0[self.1] {
            b'{' => {
                self.eat(b'{');
                let mut m = BTreeMap::new();
                self.ws();
                if self.0[self.1] == b'}' {
                    self.1 += 1;
                    return Json::Obj(m);
                }
                loop {
                    let Json::Str(k) = self.value() else {
                        panic!("key")
                    };
                    self.eat(b':');
                    assert!(m.insert(k, self.value()).is_none(), "duplicate key");
                    self.ws();
                    self.1 += 1;
                    if self.0[self.1 - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.eat(b'[');
                let mut v = Vec::new();
                self.ws();
                if self.0[self.1] == b']' {
                    self.1 += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.1 += 1;
                    if self.0[self.1 - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                self.1 += 1;
                let start = self.1;
                while self.0[self.1] != b'"' {
                    assert_ne!(self.0[self.1], b'\\', "escapes are not used");
                    self.1 += 1;
                }
                self.1 += 1;
                Json::Str(String::from_utf8(self.0[start..self.1 - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.0[self.1..].starts_with(word.as_bytes()) {
                        self.1 += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.1)
            }
            _ => {
                let start = self.1;
                while self.1 < self.0.len() && b"+-.eE0123456789".contains(&self.0[self.1]) {
                    self.1 += 1;
                }
                Json::Num(
                    std::str::from_utf8(&self.0[start..self.1])
                        .unwrap()
                        .parse()
                        .unwrap(),
                )
            }
        }
    }
}

fn field<'a>(o: &'a Json, k: &str) -> &'a Json {
    match o {
        Json::Obj(m) => m.get(k).unwrap_or_else(|| panic!("missing {k}")),
        _ => panic!("not an object"),
    }
}

fn text(v: &Json) -> &str {
    match v {
        Json::Str(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark"));
    for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let Json::Arr(declared) = field(&doc, key) else {
            panic!("{key} is not a list")
        };
        assert_eq!(declared.len(), catalogue.len(), "{key}: metric count");
        for (d, m) in declared.iter().zip(catalogue) {
            assert_eq!(text(field(d, "name")), m.name);
            assert_eq!(text(field(d, "unit")), m.unit, "{}", m.name);
            assert_eq!(text(field(d, "better")), m.better.name(), "{}", m.name);
            match (m.bound, d) {
                (Some(b), d) => assert_eq!(field(d, "bound"), &Json::Num(b), "{}", m.name),
                (None, Json::Obj(o)) => assert!(!o.contains_key("bound"), "{}", m.name),
                _ => unreachable!(),
            }
        }
    }
    let Json::Arr(workloads) = field(&doc, "workloads") else {
        panic!("workloads is not a list")
    };
    let names: Vec<&str> = workloads.iter().map(|w| text(field(w, "name"))).collect();
    assert_eq!(names, NAMES);
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
}
