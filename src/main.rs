//! The `three-roles` command-line interface: compile once, query many —
//! in-process or over the network.
//!
//! ```text
//! three-roles compile <cnf> [-o ARTIFACT] [--text] [--emit-vtree PATH] [--stats]
//! three-roles query <artifact> [--count] [--sat] [--wmc] [--marginals] [--mpe]
//!                   [--weight LIT=W]... [--under LIT]... [--batch FILE]
//!                   [--trust]
//! three-roles learn <cnf> --data FILE [--alpha A] [--ll] [--evidence LIT]...
//!                   [--server ADDR]
//! three-roles space <graph> [--count] [--under LIT]... [--top] [--weight LIT=W]...
//!                   [--server ADDR]
//! three-roles explain <cnf> --instance "LITS" [--reason] [--robustness]
//!                   [--bias "VARS"] [--server ADDR]
//! three-roles trace <cnf|artifact> [query flags as above] [--server ADDR]
//!                   [--chrome PATH]
//! three-roles serve <addr> [--workers N] [--budget NODES] [--max-conns N]
//!                   [--queue N] [--timeout-secs S] [--slow-ms MS]
//!                   [--trace-sample RATE] [--obs-log]
//! three-roles client <addr> ping | stats [--watch] | shutdown
//! three-roles client <addr> compile <cnf>
//! three-roles client <addr> query <cnf> [query flags as above]
//! three-roles metrics <addr> [--prom]
//! ```
//!
//! `compile` turns a DIMACS CNF into a persisted d-DNNF artifact — the
//! checksummed binary format by default, the c2d-compatible `.nnf` text
//! format with `--text`. `query` loads an artifact (picking the reader by
//! `.nnf` extension), re-verifies the d-DNNF properties unless `--trust`,
//! and answers the requested queries through the batched executor — either
//! from flags or, with `--batch`, from a file of one query per line (which
//! exercises the lane-batched kernel path: counts, WMC and marginals share
//! one tape sweep, MPE queries another). `serve` runs the `trl-server` TCP frontend
//! over a shared engine; `client` speaks its wire protocol (a `client
//! query` compiles server-side first — a registry hit when already
//! resident — and prints answers in exactly the local `query` format, so
//! the two are diffable). `client stats` renders the server's extended
//! stats surface — uptime, connections, and a per-query-kind latency
//! table (p50/p95/p99) — and `--watch` refreshes it each second;
//! `metrics` dumps every process-global metric as a table or, with
//! `--prom`, in Prometheus text exposition for scraping.
//!
//! `learn`, `space`, and `explain` are the other two roles of the paper
//! behind the same compile-once/query-many engine: `learn` fits a PSDD to
//! weighted complete data (role 2, learning), `space` compiles an s–t
//! simple-path structured space (role 2, meta-level reasoning about a
//! model's domain), and `explain` compiles a CNF classifier and answers
//! sufficient-reason / robustness / bias queries (role 3). Each runs
//! in-process by default and against a running `serve` with `--server
//! ADDR`; answers are bit-identical either way, so the two are diffable
//! up to the latency suffix.
//!
//! `trace` is the forensic lens on all of this: it answers queries exactly
//! like `query` / `client query` — byte-identical answer lines — then
//! prints the request's span tree (executor batch and kernel sweep with
//! the lane backend chosen; over the wire also reactor drain, queue wait
//! and response write). Locally it force-samples the in-process flight
//! recorder and answers on its own thread, as a server reactor does; with
//! `--server` it sends a version-6 trace frame whose context the server
//! adopts, so the tree is the server's own view of the request.
//! `--chrome PATH` additionally exports the last traced query as Chrome
//! `trace_event` JSON (load it in `chrome://tracing` or Perfetto).

use std::process::ExitCode;
use std::time::{Duration, Instant};

use three_roles::compiler::DecisionDnnfCompiler;
use three_roles::core::{Assignment, PartialAssignment};
use three_roles::core::{Lit, Var};
use three_roles::engine::StatsSnapshot;
use three_roles::engine::{
    load_binary, load_nnf, save_binary, save_nnf, save_vtree, Engine, Executor, ParallelPolicy,
    Query, QueryAnswer, Validation, DEFAULT_LAYERED_MIN_NODES,
};
use three_roles::nnf::{Circuit, LitWeights};
use three_roles::obs::{LatencySummary, StderrJsonExporter};
use three_roles::prop::Cnf;
use three_roles::server::{Client, Server, ServerConfig};
use three_roles::vtree::Vtree;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let run = match cmd.as_str() {
        "compile" => cmd_compile(rest),
        "query" => cmd_query(rest),
        "learn" => cmd_learn(rest),
        "space" => cmd_space(rest),
        "explain" => cmd_explain(rest),
        "trace" => cmd_trace(rest),
        "serve" => cmd_serve(rest),
        "client" => cmd_client(rest),
        "metrics" => cmd_metrics(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand '{other}'\n\n{USAGE}")),
    };
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
three-roles — tractable circuits: compile once, query many

USAGE:
  three-roles compile <cnf> [-o ARTIFACT] [--text] [--emit-vtree PATH] [--stats]
  three-roles query <artifact> [--count] [--sat] [--wmc] [--marginals] [--mpe]
                    [--weight LIT=W]... [--under LIT]... [--batch FILE]
                    [--trust]
  three-roles learn <cnf> --data FILE [--alpha A] [--ll] [--evidence LIT]...
                    [--server ADDR]
  three-roles space <graph> [--count] [--under LIT]... [--top] [--weight LIT=W]...
                    [--server ADDR]
  three-roles explain <cnf> --instance \"LITS\" [--reason] [--robustness]
                    [--bias \"VARS\"] [--server ADDR]
  three-roles trace <cnf|artifact> [query flags as above] [--server ADDR]
                    [--chrome PATH]
  three-roles serve <addr> [--workers N] [--budget NODES] [--max-conns N]
                    [--queue N] [--timeout-secs S] [--reactors N]
                    [--layer-parallel] [--slow-ms MS] [--trace-sample RATE]
                    [--obs-log]
  three-roles client <addr> ping | stats [--watch] | shutdown
  three-roles client <addr> compile <cnf>
  three-roles client <addr> query <cnf> [query flags as above]
  three-roles metrics <addr> [--prom]

COMPILE:
  -o ARTIFACT        output path (default: input with .trlc / .nnf extension)
  --text             write the c2d-compatible .nnf text format instead of binary
  --emit-vtree PATH  also write a balanced vtree over the CNF's variables
  --stats            print compilation statistics

QUERY (artifacts ending in .nnf use the text reader, anything else binary):
  --count            model count (default when no query flag is given)
  --sat              satisfiability
  --wmc              weighted model count
  --marginals        WMC plus per-variable marginals in one pass
  --mpe              maximum-weight model (MPE under probability weights)
  --weight LIT=W     set a DIMACS literal's weight (e.g. --weight -3=0.2);
                     unset literals weigh 1
  --under LIT        model count under evidence: assert a DIMACS literal
                     (repeatable; implies a count-under-evidence query)
  --batch FILE       answer one query per line from FILE; lines are
                       sat | count [LIT...] | wmc [LIT=W...] |
                       marginals [LIT=W...] | mpe [LIT=W...]
                     ('count 1 -3' counts models with x1 true, x3 false;
                      blank lines and '#' comments are skipped). Same-kind
                     queries are grouped into shared lane-batched sweeps.
  --trust            skip d-DNNF property re-verification on load

LEARN (role 2: fit a PSDD to weighted complete data under a CNF):
  --data FILE        training examples, one per line: DIMACS literals
                     covering every variable, optionally '* W' for a
                     weight (default 1), e.g. '1 -2 3 -4 * 2.5';
                     blank lines and '#' comments are skipped
  --alpha A          Laplace smoothing pseudocount (default 1)
  --ll               training-set log-likelihood query (default when no
                     query flag is given)
  --evidence LIT     marginal probability of evidence: assert a DIMACS
                     literal (repeatable; implies a psdd_marginal query)
  --server ADDR      learn and answer on a running `serve` instead of
                     in-process (bit-identical output)

SPACE (role 2: compile an s-t simple-path space over a graph):
  <graph>            first non-comment line 'N S T' (node count, source,
                     target), then one 'U V' edge per line; edge i is
                     DIMACS variable i+1 of the space's universe
  --count            count objects consistent with the evidence (default)
  --under LIT        evidence for --count: assert an edge literal
  --top              maximum-weight object under --weight literal weights
  --weight LIT=W     set an edge literal's weight (unset literals weigh 1)
  --server ADDR      compile and answer on a running `serve`

EXPLAIN (role 3: explain a CNF classifier's decision on an instance):
  --instance \"LITS\"  complete instance as DIMACS literals, e.g. '1 -2 3'
  --reason           decision + one shortest sufficient reason (default)
  --robustness       minimum feature flips that change the decision
  --bias \"VARS\"      whether the classifier decides differently when only
                     these protected DIMACS variables change
  --server ADDR      compile and answer on a running `serve`

TRACE (answer like `query`, then print the request's span tree):
  <cnf|artifact>     a DIMACS .cnf/.dimacs compiles first; anything else
                     loads as a compiled artifact (.nnf text or binary,
                     local runs only — --server compiles server-side)
  [query flags]      the QUERY selection flags above (--count, --wmc, ...)
  --server ADDR      trace on a running `serve` over the wire: the server
                     adopts this call's trace context and returns its span
                     tree with the (byte-identical) answer
  --chrome PATH      export the last traced query as Chrome trace_event
                     JSON (chrome://tracing, Perfetto)

SERVE (TCP frontend; `client query` answers are bit-identical to `query`):
  --workers N        engine worker threads, which run compile, learn, space
                     and explain builds (default: all available cores)
  --budget NODES     registry node-retention budget (default 2^24)
  --max-conns N      concurrent connection limit (default 64); excess
                     connections wait in the accept queue, none are dropped
  --queue N          submission-queue capacity (default 1024); a full queue
                     rejects requests with a typed `overloaded` error
  --timeout-secs S   per-frame read/write stall deadline (default 30)
  --reactors N       event-loop threads connections are sharded across;
                     each answers its connections' queries itself
                     (default: one per available core)
  --layer-parallel   opt in to layered intra-query parallelism for large
                     circuits (default off: lane-batched sweeps only)
  --slow-ms MS       log requests slower than MS to stderr as JSON lines
                     (span trees when the request was trace-sampled)
  --trace-sample RATE  sample RATE of requests (0..=1) into the flight
                     recorder for slow-query forensics (default: 0, off;
                     `trace` requests are always recorded)
  --obs-log          stream every finished span to stderr as JSON lines

CLIENT (speaks the trl-server wire protocol to a running `serve`):
  ping | stats | shutdown      liveness, serving stats, graceful drain
  stats --watch                refresh the stats view every second,
                               reconnecting (with capped backoff) if the
                               server restarts
  compile <cnf>                compile server-side, print the registry key
  query <cnf> [query flags]    compile (a registry hit when warm), then
                               answer queries; accepts the QUERY flags above
                               except --trust (a server-side concern)

METRICS (dump a serving process's metric registry):
  --prom             Prometheus text exposition instead of a table
";

/// Pulls the value of `flag` out of `args`, removing both tokens.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if at + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let value = args.remove(at + 1);
    args.remove(at);
    Ok(Some(value))
}

/// Removes every occurrence of a boolean `flag`, reporting whether any was
/// present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() != before
}

/// After all flags are consumed, exactly one positional argument remains.
fn take_positional(mut args: Vec<String>, what: &str) -> Result<String, String> {
    if let Some(stray) = args.iter().find(|a| a.starts_with('-')) {
        return Err(format!("unknown flag '{stray}'"));
    }
    match args.len() {
        0 => Err(format!("missing {what}")),
        1 => Ok(args.remove(0)),
        _ => Err(format!("expected one {what}, got {args:?}")),
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what} '{s}'"))
}

fn read_cnf(path: &str) -> Result<Cnf, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Cnf::parse_dimacs(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn cmd_compile(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let out = take_value(&mut args, "-o")?;
    let vtree_out = take_value(&mut args, "--emit-vtree")?;
    let text = take_flag(&mut args, "--text");
    let stats = take_flag(&mut args, "--stats");
    let input = take_positional(args, "input CNF path")?;

    let cnf = read_cnf(&input)?;
    let (circuit, compile_stats) = DecisionDnnfCompiler::default().compile_with_stats(&cnf);
    let out = out.unwrap_or_else(|| {
        let stem = input
            .strip_suffix(".cnf")
            .or_else(|| input.strip_suffix(".dimacs"))
            .unwrap_or(&input);
        format!("{stem}.{}", if text { "nnf" } else { "trlc" })
    });
    if text {
        save_nnf(&circuit, &out).map_err(|e| format!("writing {out}: {e}"))?;
    } else {
        save_binary(&circuit, &out).map_err(|e| format!("writing {out}: {e}"))?;
    }
    println!(
        "compiled {input}: {} vars, {} clauses -> {} ({} nodes, {} edges)",
        cnf.num_vars(),
        cnf.clauses().len(),
        out,
        circuit.node_count(),
        circuit.edge_count()
    );
    if stats {
        println!(
            "  decisions {}  conflicts {}  propagations {}  cache {}/{} hits",
            compile_stats.decisions,
            compile_stats.conflicts,
            compile_stats.propagations,
            compile_stats.cache_hits,
            compile_stats.cache_hits + compile_stats.cache_misses
        );
    }
    if let Some(vtree_path) = vtree_out {
        let vars: Vec<Var> = (0..cnf.num_vars() as u32).map(Var).collect();
        save_vtree(&Vtree::balanced(&vars), &vtree_path)
            .map_err(|e| format!("writing {vtree_path}: {e}"))?;
        println!("  vtree -> {vtree_path}");
    }
    Ok(())
}

fn load_artifact(path: &str, validation: Validation) -> Result<Circuit, String> {
    let loaded = if path.ends_with(".nnf") {
        load_nnf(path, validation)
    } else {
        load_binary(path, validation)
    };
    loaded.map_err(|e| format!("loading {path}: {e}"))
}

/// Parses a non-zero DIMACS literal, e.g. `-3`.
fn parse_dimacs_lit(s: &str) -> Result<Lit, String> {
    let lit: i64 = parse_num(s, "DIMACS literal")?;
    if lit == 0 {
        return Err("literal 0 names no variable".into());
    }
    let var = Var((lit.unsigned_abs() - 1) as u32);
    Ok(var.literal(lit > 0))
}

/// Parses `LIT=W` with a DIMACS literal, e.g. `-3=0.2`.
fn parse_weight(spec: &str) -> Result<(Lit, f64), String> {
    let (lit, w) = spec
        .split_once('=')
        .ok_or_else(|| format!("--weight expects LIT=W, got '{spec}'"))?;
    Ok((parse_dimacs_lit(lit)?, parse_num(w, "weight")?))
}

/// Builds a [`LitWeights`] table over `n` variables from `LIT=W` pairs.
fn weighted(w: &[(Lit, f64)], n: usize) -> LitWeights {
    let mut lw = LitWeights::unit(n);
    for &(l, x) in w {
        lw.set(l, x);
    }
    lw
}

/// Parses one `--batch` file line into a query, or `None` for blank and
/// comment lines. Grammar (DIMACS literals throughout):
/// `sat` | `count [LIT...]` | `wmc [LIT=W...]` | `marginals [LIT=W...]`
/// | `mpe [LIT=W...]`.
fn parse_batch_line(line: &str, n: usize) -> Result<Option<Query>, String> {
    let line = line.split('#').next().unwrap_or("").trim();
    if line.is_empty() {
        return Ok(None);
    }
    let mut tokens = line.split_whitespace();
    let kind = tokens.next().expect("non-empty line has a first token");
    let rest: Vec<&str> = tokens.collect();
    let weights = |rest: &[&str]| -> Result<LitWeights, String> {
        let mut spec = Vec::new();
        for tok in rest {
            spec.push(parse_weight(tok)?);
        }
        check_weight_vars(&spec, n)?;
        Ok(weighted(&spec, n))
    };
    let query = match kind {
        "sat" if rest.is_empty() => Query::Sat,
        "sat" => return Err(format!("sat takes no arguments, got {rest:?}")),
        "count" if rest.is_empty() => Query::ModelCount,
        "count" => {
            let mut pa = PartialAssignment::new(n);
            for tok in &rest {
                let l = parse_dimacs_lit(tok)?;
                if l.var().index() >= n {
                    return Err(format!("literal {tok} outside the circuit's {n} variables"));
                }
                pa.assign(l);
            }
            Query::ModelCountUnder(pa)
        }
        "wmc" => Query::Wmc(weights(&rest)?),
        "marginals" => Query::Marginals(weights(&rest)?),
        "mpe" => Query::MaxWeight(weights(&rest)?),
        other => {
            return Err(format!(
                "unknown query '{other}' (expected sat, count, wmc, marginals, or mpe)"
            ))
        }
    };
    Ok(Some(query))
}

/// Rejects weight specs naming variables outside the circuit's universe.
fn check_weight_vars(spec: &[(Lit, f64)], n: usize) -> Result<(), String> {
    for &(l, _) in spec {
        if l.var().index() >= n {
            return Err(format!(
                "literal {} outside the circuit's {n} variables",
                l.var().index() + 1
            ));
        }
    }
    Ok(())
}

/// The query-selection flags shared by the local `query` subcommand and the
/// networked `client query` subcommand: which queries to run, under what
/// weights and evidence. Parsing is split from building so both commands
/// consume identical flags, then materialise against the circuit's actual
/// variable count (known only after load or server-side compile).
struct QuerySpec {
    weights_spec: Vec<(Lit, f64)>,
    under_spec: Vec<Lit>,
    batch_path: Option<String>,
    want_count: bool,
    want_sat: bool,
    want_wmc: bool,
    want_marginals: bool,
    want_mpe: bool,
}

impl QuerySpec {
    /// Consumes the query flags out of `args`, leaving any positionals.
    fn take(args: &mut Vec<String>) -> Result<QuerySpec, String> {
        let mut weights_spec = Vec::new();
        while let Some(spec) = take_value(args, "--weight")? {
            weights_spec.push(parse_weight(&spec)?);
        }
        let mut under_spec = Vec::new();
        while let Some(spec) = take_value(args, "--under")? {
            under_spec.push(parse_dimacs_lit(&spec)?);
        }
        Ok(QuerySpec {
            weights_spec,
            under_spec,
            batch_path: take_value(args, "--batch")?,
            want_count: take_flag(args, "--count"),
            want_sat: take_flag(args, "--sat"),
            want_wmc: take_flag(args, "--wmc"),
            want_marginals: take_flag(args, "--marginals"),
            want_mpe: take_flag(args, "--mpe"),
        })
    }

    /// Materialises the flags into queries over an `n`-variable circuit.
    /// Flag order in the result mirrors the fixed check order below.
    fn build(&self, n: usize) -> Result<Vec<Query>, String> {
        check_weight_vars(&self.weights_spec, n).map_err(|e| format!("--weight {e}"))?;
        for l in &self.under_spec {
            if l.var().index() >= n {
                return Err(format!(
                    "--under literal {} outside the circuit's {n} variables",
                    l.var().index() + 1
                ));
            }
        }
        let mut queries = Vec::new();
        let any_other = self.want_sat
            || self.want_wmc
            || self.want_marginals
            || self.want_mpe
            || !self.under_spec.is_empty()
            || self.batch_path.is_some();
        if self.want_count || !any_other {
            queries.push(Query::ModelCount);
        }
        if self.want_sat {
            queries.push(Query::Sat);
        }
        if self.want_wmc {
            queries.push(Query::Wmc(weighted(&self.weights_spec, n)));
        }
        if self.want_marginals {
            queries.push(Query::Marginals(weighted(&self.weights_spec, n)));
        }
        if self.want_mpe {
            queries.push(Query::MaxWeight(weighted(&self.weights_spec, n)));
        }
        if !self.under_spec.is_empty() {
            let mut pa = PartialAssignment::new(n);
            for &l in &self.under_spec {
                pa.assign(l);
            }
            queries.push(Query::ModelCountUnder(pa));
        }
        if let Some(path) = &self.batch_path {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            for (lineno, line) in text.lines().enumerate() {
                if let Some(q) =
                    parse_batch_line(line, n).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?
                {
                    queries.push(q);
                }
            }
        }
        Ok(queries)
    }
}

/// Prints one answered query in the CLI's stable line format. Both `query`
/// and `client query` route through here, so a local and a networked run of
/// the same queries produce byte-identical output up to the latency suffix.
fn print_outcome(kind: &str, answer: &QueryAnswer, latency: Duration) {
    print!("{kind:<21}");
    match answer {
        QueryAnswer::Sat(yes) => print!("{}", if *yes { "SAT" } else { "UNSAT" }),
        QueryAnswer::ModelCount(c) => print!("{c}"),
        QueryAnswer::Wmc(x) => print!("{x}"),
        QueryAnswer::Marginals { wmc, marginals } => {
            print!("{wmc}");
            for (v, (pos, neg)) in marginals.iter().enumerate() {
                print!("\n  x{:<10}{pos} / {neg}", v + 1);
            }
        }
        QueryAnswer::MaxWeight(None) => print!("UNSAT"),
        QueryAnswer::MaxWeight(Some((w, a))) => {
            print!("{w}  [");
            for v in 0..a.len() {
                let sign = if a.value(Var(v as u32)) { "" } else { "-" };
                print!("{}{sign}{}", if v > 0 { " " } else { "" }, v + 1);
            }
            print!("]");
        }
        QueryAnswer::LogLikelihood(x) => print!("{x}"),
        QueryAnswer::Probability(x) => print!("{x}"),
        QueryAnswer::Reason { decision, reason } => {
            print!("{}  ", if *decision { "POSITIVE" } else { "NEGATIVE" });
            match reason {
                None => print!("(no consistent instance)"),
                Some(cube) => {
                    print!("[");
                    for (i, l) in cube.literals().iter().enumerate() {
                        let sign = if l.is_positive() { "" } else { "-" };
                        print!(
                            "{}{sign}{}",
                            if i > 0 { " " } else { "" },
                            l.var().index() + 1
                        );
                    }
                    print!("]");
                }
            }
        }
        QueryAnswer::Robustness(None) => print!("(constant decision)"),
        QueryAnswer::Robustness(Some(flips)) => print!("{flips}"),
        QueryAnswer::Bias(b) => print!("{}", if *b { "BIASED" } else { "UNBIASED" }),
    }
    println!("   ({:.1} us)", latency.as_secs_f64() * 1e6);
}

/// The executor for a one-shot local `query` / `trace`. `run` answers on
/// the calling thread, so one pool worker suffices; the layered policy is
/// the one [`Executor::with_default_workers`] sets.
fn local_executor() -> Executor {
    let executor = Executor::new(1);
    executor.set_parallel_policy(ParallelPolicy::Layered {
        min_nodes: DEFAULT_LAYERED_MIN_NODES,
    });
    executor
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let spec = QuerySpec::take(&mut args)?;
    let validation = if take_flag(&mut args, "--trust") {
        Validation::Trust
    } else {
        Validation::Full
    };
    let artifact = take_positional(args, "artifact path")?;

    let circuit = load_artifact(&artifact, validation)?;
    let queries = spec.build(circuit.num_vars())?;

    let prepared = three_roles::engine::Artifact::Circuit(std::sync::Arc::new(
        three_roles::engine::PreparedCircuit::new(circuit),
    ));
    let outcomes = local_executor()
        .run(&prepared, queries.clone())
        .map_err(|e| e.to_string())?;
    for (query, outcome) in queries.iter().zip(outcomes) {
        print_outcome(query.kind(), &outcome.answer, outcome.latency);
    }
    Ok(())
}

/// Parses a complete assignment over `n` variables from whitespace-
/// separated DIMACS literals: every variable exactly once.
fn parse_complete(lits: &str, n: usize) -> Result<Assignment, String> {
    let mut values = vec![None; n];
    for tok in lits.split_whitespace() {
        let l = parse_dimacs_lit(tok)?;
        let i = l.var().index();
        if i >= n {
            return Err(format!("literal {tok} outside the CNF's {n} variables"));
        }
        if values[i].is_some() {
            return Err(format!("variable {} assigned twice", i + 1));
        }
        values[i] = Some(l.is_positive());
    }
    let complete: Option<Vec<bool>> = values.into_iter().collect();
    match complete {
        Some(v) => Ok(Assignment::from_values(&v)),
        None => Err(format!("not a complete assignment of all {n} variables")),
    }
}

/// Reads a `--data` training file: one complete assignment per line as
/// DIMACS literals, optionally `* W` for a weight (default 1).
fn read_dataset(path: &str, n: usize) -> Result<Vec<(Assignment, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut data = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let at = |e: String| format!("{path}:{}: {e}", lineno + 1);
        let (lits, weight) = match line.split_once('*') {
            Some((l, w)) => (
                l,
                parse_num::<f64>(w.trim(), "example weight").map_err(&at)?,
            ),
            None => (line, 1.0),
        };
        if !weight.is_finite() || weight <= 0.0 {
            return Err(at(format!("example weight {weight} is not positive")));
        }
        data.push((parse_complete(lits, n).map_err(&at)?, weight));
    }
    if data.is_empty() {
        return Err(format!("{path} holds no training examples"));
    }
    Ok(data)
}

/// A `space` graph: node count, edges, source, target.
type Graph = (u32, Vec<(u32, u32)>, u32, u32);

/// Reads a `space` graph file: first non-comment line `N S T`, then one
/// `U V` edge per line.
fn read_graph(path: &str) -> Result<Graph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut header: Option<(u32, u32, u32)> = None;
    let mut edges = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let at = |e: String| format!("{path}:{}: {e}", lineno + 1);
        let nums: Vec<&str> = line.split_whitespace().collect();
        match (&header, nums.as_slice()) {
            (None, [n, s, t]) => {
                header = Some((
                    parse_num(n, "node count").map_err(&at)?,
                    parse_num(s, "source node").map_err(&at)?,
                    parse_num(t, "target node").map_err(&at)?,
                ));
            }
            (None, _) => return Err(at("expected an 'N S T' header line".into())),
            (Some(_), [u, v]) => edges.push((
                parse_num(u, "edge endpoint").map_err(&at)?,
                parse_num(v, "edge endpoint").map_err(&at)?,
            )),
            (Some(_), _) => return Err(at("expected a 'U V' edge line".into())),
        }
    }
    let Some((n, s, t)) = header else {
        return Err(format!("{path} holds no graph"));
    };
    Ok((n, edges, s, t))
}

/// Answers role queries against a key on a remote server, printing in the
/// same stable format as the in-process path.
fn run_queries_remote(client: &mut Client, key: u64, queries: Vec<Query>) -> Result<(), String> {
    for query in queries {
        let kind = query.kind();
        let start = Instant::now();
        let answer = client.query(key, query).map_err(|e| e.to_string())?;
        print_outcome(kind, &answer, start.elapsed());
    }
    Ok(())
}

/// Answers role queries against a just-created artifact in-process.
fn run_queries_local(engine: &Engine, key: u64, queries: Vec<Query>) -> Result<(), String> {
    let artifact = engine.get(key).expect("artifact was created above");
    let outcomes = engine
        .run_artifact_batch(&artifact, queries.clone())
        .map_err(|e| e.to_string())?;
    for (query, outcome) in queries.iter().zip(outcomes) {
        print_outcome(query.kind(), &outcome.answer, outcome.latency);
    }
    Ok(())
}

fn cmd_learn(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let data_path =
        take_value(&mut args, "--data")?.ok_or("learn needs --data FILE (see --help)")?;
    let alpha: f64 = match take_value(&mut args, "--alpha")? {
        Some(a) => parse_num(&a, "alpha")?,
        None => 1.0,
    };
    let want_ll = take_flag(&mut args, "--ll");
    let mut evidence = Vec::new();
    while let Some(spec) = take_value(&mut args, "--evidence")? {
        evidence.push(parse_dimacs_lit(&spec)?);
    }
    let server = take_value(&mut args, "--server")?;
    let input = take_positional(args, "input CNF path")?;

    let cnf = read_cnf(&input)?;
    let n = cnf.num_vars();
    let data = read_dataset(&data_path, n)?;

    let mut queries = Vec::new();
    if want_ll || evidence.is_empty() {
        queries.push(Query::PsddLogLikelihood(data.clone()));
    }
    if !evidence.is_empty() {
        let mut pa = PartialAssignment::new(n);
        for &l in &evidence {
            if l.var().index() >= n {
                return Err(format!(
                    "--evidence literal {} outside the CNF's {n} variables",
                    l.var().index() + 1
                ));
            }
            pa.assign(l);
        }
        queries.push(Query::PsddMarginal(pa));
    }

    match server {
        Some(addr) => {
            let mut client =
                Client::connect(addr.as_str()).map_err(|e| format!("connecting to {addr}: {e}"))?;
            let s = client
                .learn_psdd(&cnf, &data, alpha)
                .map_err(|e| e.to_string())?;
            println!(
                "learned {input}: {} vars, {} nodes, train log-likelihood {}",
                s.num_vars, s.nodes, s.log_likelihood
            );
            run_queries_remote(&mut client, s.key, queries)
        }
        None => {
            let engine = Engine::new(1 << 24, None);
            let (key, psdd) = engine
                .learn_psdd(&cnf, &data, alpha)
                .map_err(|e| e.to_string())?;
            println!(
                "learned {input}: {} vars, {} nodes, train log-likelihood {}",
                psdd.num_vars(),
                psdd.node_count(),
                psdd.train_log_likelihood()
            );
            run_queries_local(&engine, key, queries)
        }
    }
}

fn cmd_space(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let want_count = take_flag(&mut args, "--count");
    let want_top = take_flag(&mut args, "--top");
    let mut under = Vec::new();
    while let Some(spec) = take_value(&mut args, "--under")? {
        under.push(parse_dimacs_lit(&spec)?);
    }
    let mut weights_spec = Vec::new();
    while let Some(spec) = take_value(&mut args, "--weight")? {
        weights_spec.push(parse_weight(&spec)?);
    }
    let server = take_value(&mut args, "--server")?;
    let input = take_positional(args, "input graph path")?;

    let (num_nodes, edges, s, t) = read_graph(&input)?;
    let n = edges.len();

    let mut queries = Vec::new();
    if want_count || !want_top {
        let mut pa = PartialAssignment::new(n);
        for &l in &under {
            if l.var().index() >= n {
                return Err(format!(
                    "--under literal {} outside the space's {n} edge variables",
                    l.var().index() + 1
                ));
            }
            pa.assign(l);
        }
        queries.push(Query::SpaceCount(pa));
    }
    if want_top {
        check_weight_vars(&weights_spec, n).map_err(|e| format!("--weight {e}"))?;
        queries.push(Query::SpaceTop(weighted(&weights_spec, n)));
    }

    match server {
        Some(addr) => {
            let mut client =
                Client::connect(addr.as_str()).map_err(|e| format!("connecting to {addr}: {e}"))?;
            let summary = client
                .compile_space(num_nodes, &edges, s, t)
                .map_err(|e| e.to_string())?;
            println!(
                "space {input}: {num_nodes} graph nodes, {} edge vars, {} circuit nodes, {} s-t paths",
                summary.num_edge_vars, summary.nodes, summary.paths
            );
            run_queries_remote(&mut client, summary.key, queries)
        }
        None => {
            let engine = Engine::new(1 << 24, None);
            let (key, space) = engine
                .compile_space(num_nodes as usize, &edges, s, t)
                .map_err(|e| e.to_string())?;
            println!(
                "space {input}: {num_nodes} graph nodes, {} edge vars, {} circuit nodes, {} s-t paths",
                space.num_edge_vars(),
                space.node_count(),
                space.path_count()
            );
            run_queries_local(&engine, key, queries)
        }
    }
}

fn cmd_explain(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let instance_spec = take_value(&mut args, "--instance")?
        .ok_or("explain needs --instance \"LITS\" (see --help)")?;
    let want_reason = take_flag(&mut args, "--reason");
    let want_robustness = take_flag(&mut args, "--robustness");
    let bias_spec = take_value(&mut args, "--bias")?;
    let server = take_value(&mut args, "--server")?;
    let input = take_positional(args, "input CNF path")?;

    let cnf = read_cnf(&input)?;
    let n = cnf.num_vars();
    let instance = parse_complete(&instance_spec, n).map_err(|e| format!("--instance: {e}"))?;

    let mut queries = Vec::new();
    if want_reason || (!want_robustness && bias_spec.is_none()) {
        queries.push(Query::SufficientReason(instance.clone()));
    }
    if want_robustness {
        queries.push(Query::DecisionRobustness(instance));
    }
    if let Some(spec) = bias_spec {
        let mut vars = Vec::new();
        for tok in spec.split_whitespace() {
            let v: u32 = parse_num(tok, "protected DIMACS variable")?;
            if v == 0 || v as usize > n {
                return Err(format!(
                    "--bias variable {tok} outside the CNF's 1..={n} variables"
                ));
            }
            vars.push(Var(v - 1));
        }
        queries.push(Query::ClassifierBias(vars));
    }

    match server {
        Some(addr) => {
            let mut client =
                Client::connect(addr.as_str()).map_err(|e| format!("connecting to {addr}: {e}"))?;
            let summary = client.compile_classifier(&cnf).map_err(|e| e.to_string())?;
            println!(
                "classifier {input}: {} vars, {} circuit nodes",
                summary.num_vars, summary.nodes
            );
            run_queries_remote(&mut client, summary.key, queries)
        }
        None => {
            let engine = Engine::new(1 << 24, None);
            let (key, clf) = engine.compile_classifier(&cnf);
            println!(
                "classifier {input}: {} vars, {} circuit nodes",
                clf.num_vars(),
                clf.node_count()
            );
            run_queries_local(&engine, key, queries)
        }
    }
}

/// Answers queries exactly like `query` / `client query` — byte-identical
/// answer lines — then prints each request's collected span tree. Local
/// runs force-sample the in-process flight recorder; `--server` runs send
/// a version-6 trace frame and print the server's own span tree.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let spec = QuerySpec::take(&mut args)?;
    let server = take_value(&mut args, "--server")?;
    let chrome = take_value(&mut args, "--chrome")?;
    let input = take_positional(args, "input CNF or artifact path")?;

    // The last traced query's (trace id, spans), for `--chrome`.
    let mut last: Option<(u64, Vec<three_roles::obs::TraceSpanData>)> = None;

    match server {
        Some(addr) => {
            let cnf = read_cnf(&input)?;
            let mut client =
                Client::connect(addr.as_str()).map_err(|e| format!("connecting to {addr}: {e}"))?;
            let summary = client.compile(&cnf).map_err(|e| e.to_string())?;
            let queries = spec.build(summary.num_vars as usize)?;
            for query in queries {
                let kind = query.kind();
                let start = Instant::now();
                let (trace_id, answer, spans) = client
                    .trace(summary.key, query)
                    .map_err(|e| e.to_string())?;
                print_outcome(kind, &answer, start.elapsed());
                print!("{}", three_roles::obs::tree_string(&spans));
                last = Some((trace_id, spans));
            }
        }
        None => {
            let is_cnf = input.ends_with(".cnf") || input.ends_with(".dimacs");
            let circuit = if is_cnf {
                DecisionDnnfCompiler::default().compile(&read_cnf(&input)?)
            } else {
                load_artifact(&input, Validation::Full)?
            };
            let queries = spec.build(circuit.num_vars())?;
            let executor = local_executor();
            let artifact = three_roles::engine::Artifact::Circuit(std::sync::Arc::new(
                three_roles::engine::PreparedCircuit::new(circuit),
            ));
            // Force-sample for the duration of the run, one trace per query
            // so each printed tree stands alone.
            let forced = three_roles::obs::force_tracing();
            for query in queries {
                let kind = query.kind();
                let ctx = three_roles::obs::TraceContext::generate(true);
                let start = Instant::now();
                let outcomes = three_roles::obs::with_current_trace(Some(ctx), || {
                    executor.run(&artifact, vec![query])
                })
                .map_err(|e| e.to_string())?;
                three_roles::obs::record_root_span(ctx, 0, "trace.request", start, start.elapsed());
                let outcome = outcomes
                    .into_iter()
                    .next()
                    .ok_or("executor returned no outcome")?;
                let spans = three_roles::obs::collect_trace(ctx.trace_id);
                print_outcome(kind, &outcome.answer, outcome.latency);
                print!("{}", three_roles::obs::tree_string(&spans));
                last = Some((ctx.trace_id, spans));
            }
            drop(forced);
        }
    }

    if let Some(path) = chrome {
        let (trace_id, spans) = last.ok_or("--chrome needs at least one traced query")?;
        std::fs::write(&path, three_roles::obs::chrome_trace_json(trace_id, &spans))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("chrome trace -> {path}");
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let workers = take_value(&mut args, "--workers")?
        .map(|n| parse_num(&n, "worker count"))
        .transpose()?;
    let budget = match take_value(&mut args, "--budget")? {
        Some(n) => parse_num(&n, "node budget")?,
        None => 1usize << 24,
    };
    let mut config = ServerConfig::default();
    if let Some(n) = take_value(&mut args, "--max-conns")? {
        config.max_connections = parse_num(&n, "connection limit")?;
    }
    if let Some(n) = take_value(&mut args, "--queue")? {
        config.queue_capacity = parse_num(&n, "queue capacity")?;
    }
    if let Some(s) = take_value(&mut args, "--timeout-secs")? {
        let secs: u64 = parse_num(&s, "timeout")?;
        config.read_timeout = Duration::from_secs(secs);
        config.write_timeout = Duration::from_secs(secs);
    }
    if let Some(n) = take_value(&mut args, "--reactors")? {
        config.reactors = parse_num(&n, "reactor count")?;
    }
    if let Some(ms) = take_value(&mut args, "--slow-ms")? {
        let ms: u64 = parse_num(&ms, "slow-query threshold")?;
        config.slow_query = Some(Duration::from_millis(ms));
    }
    if let Some(rate) = take_value(&mut args, "--trace-sample")? {
        let rate: f64 = parse_num(&rate, "trace sampling rate")?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("--trace-sample {rate} outside 0..=1"));
        }
        config.trace_sample = rate;
    }
    let layer_parallel = take_flag(&mut args, "--layer-parallel");
    if take_flag(&mut args, "--obs-log") {
        three_roles::obs::set_subscriber(Some(std::sync::Arc::new(StderrJsonExporter)));
    }
    let addr = take_positional(args, "listen address")?;

    let engine = std::sync::Arc::new(Engine::new(budget, workers));
    if layer_parallel {
        engine
            .executor()
            .set_parallel_policy(ParallelPolicy::Layered {
                min_nodes: DEFAULT_LAYERED_MIN_NODES,
            });
    }
    let stats = engine.stats();
    let handle =
        Server::bind(addr.as_str(), engine, config).map_err(|e| format!("binding {addr}: {e}"))?;
    println!("listening on {}", handle.addr());
    println!(
        "  {} workers, {} node budget; shut down with `three-roles client {} shutdown`",
        stats.workers,
        stats.max_retained_nodes,
        handle.addr()
    );
    let counters = handle.wait();
    println!(
        "served {} requests over {} connections ({} overload rejections)",
        counters.served, counters.connections, counters.overloaded
    );
    Ok(())
}

fn cmd_client(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    if args.len() < 2 {
        return Err(format!("client needs an address and an action\n\n{USAGE}"));
    }
    let addr = args.remove(0);
    let action = args.remove(0);
    let connect =
        || Client::connect(addr.as_str()).map_err(|e| format!("connecting to {addr}: {e}"));
    match action.as_str() {
        "ping" => {
            expect_no_more(args, "ping")?;
            let mut client = connect()?;
            let start = Instant::now();
            client.ping().map_err(|e| e.to_string())?;
            println!(
                "pong from {addr}   ({:.1} us)",
                start.elapsed().as_secs_f64() * 1e6
            );
        }
        "compile" => {
            let input = take_positional(args, "input CNF path")?;
            let cnf = read_cnf(&input)?;
            let mut client = connect()?;
            let summary = client.compile(&cnf).map_err(|e| e.to_string())?;
            println!(
                "compiled {input} on {addr}: key {:#018x}, {} vars ({} nodes, {} edges)",
                summary.key, summary.num_vars, summary.nodes, summary.edges
            );
        }
        "query" => {
            let spec = QuerySpec::take(&mut args)?;
            let input = take_positional(args, "input CNF path")?;
            let cnf = read_cnf(&input)?;
            let mut client = connect()?;
            // Compiling is how a key is obtained; on a warm server this is
            // a registry hit, not a recompilation.
            let summary = client.compile(&cnf).map_err(|e| e.to_string())?;
            let queries = spec.build(summary.num_vars as usize)?;
            for query in queries {
                let kind = query.kind();
                let start = Instant::now();
                let answer = client
                    .query(summary.key, query)
                    .map_err(|e| e.to_string())?;
                print_outcome(kind, &answer, start.elapsed());
            }
        }
        "stats" => {
            let watch = take_flag(&mut args, "--watch");
            expect_no_more(args, "stats")?;
            let mut client = connect()?;
            // Under --watch a lost connection (server restart, network
            // blip) reconnects with capped exponential backoff instead of
            // exiting — a dashboard should survive the thing it watches.
            let mut backoff = Duration::from_millis(250);
            loop {
                match client.stats() {
                    Ok(s) => {
                        print_stats(&addr, &s);
                        backoff = Duration::from_millis(250);
                        if !watch {
                            break;
                        }
                        std::thread::sleep(Duration::from_secs(1));
                        println!();
                    }
                    Err(e) if watch => {
                        eprintln!("lost {addr} ({e}); retrying in {backoff:?}");
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(Duration::from_secs(4));
                        if let Ok(c) = Client::connect(addr.as_str()) {
                            client = c;
                        }
                    }
                    Err(e) => return Err(e.to_string()),
                }
            }
        }
        "shutdown" => {
            expect_no_more(args, "shutdown")?;
            let mut client = connect()?;
            client.shutdown_server().map_err(|e| e.to_string())?;
            println!("server at {addr} is shutting down");
        }
        other => {
            return Err(format!(
            "unknown client action '{other}' (expected ping, compile, query, stats, or shutdown)"
        ))
        }
    }
    Ok(())
}

/// Renders the extended stats surface: engine counters, connection
/// counters, and a per-query-kind latency table fed by the
/// `engine.latency.<kind>_us` histograms in the metric dump.
fn print_stats(addr: &str, s: &StatsSnapshot) {
    println!("stats for {addr} (up {:.1} s):", s.uptime_ms as f64 / 1e3);
    println!(
        "  registry   {} artifacts, {} hits, {} misses, {} evictions",
        s.artifacts, s.registry.hits, s.registry.misses, s.registry.evictions
    );
    println!(
        "  retained   {} / {} nodes",
        s.retained_nodes, s.max_retained_nodes
    );
    println!(
        "  executor   {} workers, {} queued",
        s.workers, s.queue_depth
    );
    println!(
        "  network    {} connections accepted, {} active",
        s.connections_accepted, s.connections_active
    );
    let total: u64 = s.requests_served.iter().map(|(_, c)| c).sum();
    println!("  queries    {total} served");
    println!(
        "    {:<21} {:>10} {:>10} {:>10} {:>10}",
        "kind", "served", "p50 us", "p95 us", "p99 us"
    );
    for (kind, count) in &s.requests_served {
        let summary = s
            .metrics
            .histogram(&format!("engine.latency.{kind}_us"))
            .filter(|h| h.count > 0)
            .map(LatencySummary::from_histogram);
        match summary {
            Some(l) => println!(
                "    {kind:<21} {count:>10} {:>10.0} {:>10.0} {:>10.0}",
                l.p50_us, l.p95_us, l.p99_us
            ),
            None => println!(
                "    {kind:<21} {count:>10} {:>10} {:>10} {:>10}",
                "-", "-", "-"
            ),
        }
    }
    // The compiler/kernel counters most useful at a glance; the full dump
    // is one `three-roles metrics` away.
    let counter = |name: &str| s.metrics.counter(name).unwrap_or(0);
    println!(
        "  compiler   {} compiles, {} decisions, {} conflicts, cache {}/{} hits",
        counter("compiler.compiles"),
        counter("compiler.decisions"),
        counter("compiler.conflicts"),
        counter("compiler.cache_hits"),
        counter("compiler.cache_hits") + counter("compiler.cache_misses"),
    );
    println!(
        "  kernel     {} tape builds, {} sweeps ({} u128), {} lanes filled, {} pooled sweeps ({} steals)",
        counter("kernel.tape_builds"),
        counter("kernel.sweeps"),
        counter("kernel.u128_sweeps"),
        counter("kernel.lanes_filled"),
        counter("kernel.pool_sweeps"),
        counter("kernel.pool_steals"),
    );
}

fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let prom = take_flag(&mut args, "--prom");
    let addr = take_positional(args, "server address")?;
    let mut client =
        Client::connect(addr.as_str()).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let s = client.stats().map_err(|e| e.to_string())?;
    if prom {
        print!("{}", s.metrics.render_prometheus());
    } else {
        print!("{}", s.metrics.render_table());
    }
    Ok(())
}

/// Rejects leftover arguments after an action that takes none.
fn expect_no_more(args: Vec<String>, action: &str) -> Result<(), String> {
    if args.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "client {action} takes no further arguments, got {args:?}"
        ))
    }
}
