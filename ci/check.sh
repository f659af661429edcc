#!/usr/bin/env bash
# Lint + format + feature-matrix + doc gate. Run from the repo root (or any
# subdirectory):
#
#   ci/check.sh          # clippy (all targets, warnings are errors) and
#                        # fmt over the workspace and perfbench/,
#                        # no-default-features build+test, docs (warnings
#                        # are errors), kernel timing floors (release-only
#                        # test), paper artifacts (the 19 exp* binaries:
#                        # 117 PASS, no FAIL, every exit status zero),
#                        # network serving smoke (serve/client round
#                        # trip diffed against local answers), obs smoke,
#                        # roles smoke (learn/space/explain over the wire
#                        # diffed against in-process),
#                        # serving examples (net_roundtrip asserts wire
#                        # answers bit-identical to the executor's),
#                        # trace smoke (forced trace over the wire: span tree
#                        # stations + parent links, Chrome export parses,
#                        # traced answers diffed against untraced, and a
#                        # local trace diffed against `query`),
#                        # benchmark build (perfbench/ compiled against the
#                        # current crates, its contract tests run), and
#                        # fails if any committed BENCH_*.json changed
#   ci/check.sh --fix    # apply clippy suggestions and rustfmt in place
#
# The same commands run in CI; keep them byte-for-byte in sync.
set -euo pipefail
cd "$(dirname "$0")/.."

# Only a full benchmark record run writes a BENCH_*.json; the legs below
# must leave every committed record as it was when the run started, and
# create none. There may be no record at all, so the glob may match nothing.
bench_records() {
    shopt -s nullglob
    local files=(BENCH_*.json)
    shopt -u nullglob
    if (( ${#files[@]} > 0 )); then
        sha256sum "${files[@]}"
    fi
}
records_at_start="$(bench_records)"

if [[ "${1:-}" == "--fix" ]]; then
    cargo clippy --workspace --all-targets --fix --allow-dirty --allow-staged -- -D warnings
    cargo fmt --all
else
    cargo clippy --workspace --all-targets -- -D warnings
    cargo fmt --all --check
    # perfbench/ is a workspace of its own, so the two lines above skip it.
    cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings
    cargo fmt --manifest-path perfbench/Cargo.toml --check
fi

# The umbrella crate's `proptest` feature is on by default; the workspace
# must also build and test cleanly without it.
cargo build --workspace --no-default-features --quiet
cargo test --workspace --no-default-features --quiet

# Rendered docs are part of the API surface: broken intra-doc links and
# malformed doc comments fail the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# SIMD feature matrix: the kernels must build and stay bit-identical with
# the `simd` feature off — every lane sweep forced onto the portable
# scalar backend — with the randomized identity suites still enabled. The
# workspace declares trl-nnf without default features (only trl-engine
# turns `simd` on), so the dev-dependency cycle through
# trl-compiler/trl-obdd/trl-sdd cannot switch it back on here; a
# cfg(not(feature = "simd")) test asserts only the scalar backend exists.
cargo test --quiet -p trl-nnf --no-default-features --features proptest

# Benchmark build: perfbench/ is a cargo workspace of its own with path
# dependencies on crates/*, so no workspace build above compiles it. An
# API change in trl-nnf, trl-compiler or trl-engine that breaks the
# repository benchmark fails here, together with the benchmark's own
# contract tests.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Kernel timing floors: lane batching must not be slower than one scalar
# arena walk per query on the small tier, nor the layer-parallel sweep on
# the ~145k-node large tier (it was 0.03x there before the persistent
# sweep pool), and every timed answer must bit-match scalar. The test is
# ignored in debug builds, so the workspace test run above skips it.
cargo test --release --quiet -p three-roles --test kernel_timing_floors

# Paper artifacts: each of the 19 experiment binaries (crates/bench/src/bin)
# regenerates one figure of the paper, prints a [PASS]/[FAIL] line per
# criterion and exits non-zero if any failed. A non-zero exit, any [FAIL]
# line, or a [PASS] total other than 117 fails the gate, so a criterion
# can neither regress nor silently disappear.
cargo build --release --quiet -p trl-bench --bins
paper_out=""
for exp in crates/bench/src/bin/exp*.rs; do
    name="$(basename "$exp" .rs)"
    if ! out="$(target/release/"$name")"; then
        echo "paper-artifacts: $name exited non-zero" >&2
        grep '^\[FAIL\]' <<< "$out" >&2 || true
        exit 1
    fi
    paper_out+="$out"$'\n'
done
paper_pass="$(grep -c '^\[PASS\]' <<< "$paper_out" || true)"
paper_fail="$(grep -c '^\[FAIL\]' <<< "$paper_out" || true)"
(( paper_pass == 117 && paper_fail == 0 )) \
    || { echo "paper-artifacts: $paper_pass PASS and $paper_fail FAIL lines, expected 117 and 0" >&2; exit 1; }

# Net smoke: a real server on an ephemeral port must answer every query
# kind over the wire byte-identically to the local CLI (up to the latency
# suffix). Pipelined load over 64 connections, its reactor and pipeline
# counters, and typed overload are tests in crates/server/tests
# (pipeline_metrics.rs, pipelining.rs, net_serving.rs), run by the
# workspace test run above.
cargo build --release --quiet --bin three-roles
net_dir="$(mktemp -d)"
trap 'kill "${serve_pid:-}" 2>/dev/null || true; rm -rf "$net_dir"' EXIT
printf 'p cnf 6 7\n1 2 0\n-1 3 0\n-2 -4 0\n4 5 0\n-5 6 0\n2 -6 0\n1 -3 5 0\n' \
    > "$net_dir/smoke.cnf"
target/release/three-roles serve 127.0.0.1:0 --workers 2 \
    > "$net_dir/serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q '^listening on ' "$net_dir/serve.log" && break
    sleep 0.1
done
addr="$(sed -n 's/^listening on //p' "$net_dir/serve.log" | head -n 1)"
[[ -n "$addr" ]] || { echo "net-smoke: server never came up" >&2; exit 1; }
net_flags=(--sat --count --wmc --marginals --mpe
           --weight 1=0.3 --weight -1=0.7 --under 2)
target/release/three-roles client "$addr" ping > /dev/null
target/release/three-roles client "$addr" query "$net_dir/smoke.cnf" \
    "${net_flags[@]}" > "$net_dir/net.out"
target/release/three-roles compile "$net_dir/smoke.cnf" \
    -o "$net_dir/smoke.trlc" > /dev/null
target/release/three-roles query "$net_dir/smoke.trlc" \
    "${net_flags[@]}" > "$net_dir/local.out"
sed 's/ *([0-9.]* us)$//' "$net_dir/net.out"   > "$net_dir/net.stripped"
sed 's/ *([0-9.]* us)$//' "$net_dir/local.out" > "$net_dir/local.stripped"
if ! diff "$net_dir/local.stripped" "$net_dir/net.stripped"; then
    echo "net-smoke: networked answers differ from local answers" >&2
    exit 1
fi
target/release/three-roles client "$addr" shutdown > /dev/null
wait "$serve_pid"
unset serve_pid

# Serving examples: each binds a server in process and asserts its own
# contract; net_roundtrip checks every wire answer, one query at a time
# and batched, bit for bit against the in-process executor.
cargo run --release --quiet --example net_roundtrip > /dev/null
cargo run --release --quiet --example serve_queries > /dev/null

# The value of metric $1 in the Prometheus dump $2.
prom_value() { awk -v m="$1" '$1 == m { print $2 }' "$2"; }

# Obs smoke: drive a fresh server with a known query mix, scrape the
# Prometheus exposition, and check the cross-layer invariants — the
# engine's total request counter equals the sum of its per-kind counters,
# every per-kind latency histogram counts exactly its counter, every
# exposed family carries a # HELP line, and the trace.* metrics are
# registered zero-valued before any request has been traced.
target/release/three-roles serve 127.0.0.1:0 --workers 2 \
    > "$net_dir/obs-serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q '^listening on ' "$net_dir/obs-serve.log" && break
    sleep 0.1
done
addr="$(sed -n 's/^listening on //p' "$net_dir/obs-serve.log" | head -n 1)"
[[ -n "$addr" ]] || { echo "obs-smoke: server never came up" >&2; exit 1; }
for _ in 1 2 3; do
    target/release/three-roles client "$addr" query "$net_dir/smoke.cnf" \
        "${net_flags[@]}" > /dev/null
done
target/release/three-roles client "$addr" stats > "$net_dir/obs-stats.out"
grep -q 'queries *18 served' "$net_dir/obs-stats.out" \
    || { echo "obs-smoke: expected 18 served queries" >&2; exit 1; }
target/release/three-roles metrics "$addr" --prom > "$net_dir/obs.prom"
target/release/three-roles client "$addr" shutdown > /dev/null
wait "$serve_pid"
unset serve_pid
awk '
    $1 == "trl_engine_requests" { total = $2 }
    $1 ~ /^trl_engine_requests_/ { per_kind += $2 }
    match($0, /^trl_engine_latency_[a-z_]+_us_count /) { hist += $2 }
    END {
        if (total == "" || total == 0) { print "obs-smoke: no trl_engine_requests in scrape"; exit 1 }
        if (per_kind != total) { print "obs-smoke: per-kind sum " per_kind " != total " total; exit 1 }
        if (hist != total) { print "obs-smoke: histogram count " hist " != total " total; exit 1 }
    }
' "$net_dir/obs.prom"
# Exposition hygiene: one # HELP per # TYPE (every family is documented),
# and the engine's headline counter carries real help text.
help_lines="$(grep -c '^# HELP ' "$net_dir/obs.prom")"
type_lines="$(grep -c '^# TYPE ' "$net_dir/obs.prom")"
(( help_lines > 0 && help_lines == type_lines )) \
    || { echo "obs-smoke: $help_lines HELP lines for $type_lines TYPE lines" >&2; exit 1; }
grep -q '^# HELP trl_engine_requests .' "$net_dir/obs.prom" \
    || { echo "obs-smoke: no HELP line for trl_engine_requests" >&2; exit 1; }
# Tracing never ran on this server (sampling defaults to 0, no trace
# frames sent), so the flight-recorder metrics must exist and read zero.
for m in trl_trace_spans_recorded trl_trace_spans_dropped \
         trl_trace_requests_sampled trl_trace_collect_us_count; do
    v="$(prom_value "$m" "$net_dir/obs.prom")"
    [[ "$v" == "0" ]] \
        || { echo "obs-smoke: $m not registered zero-valued (got '${v:-missing}')" >&2; exit 1; }
done

# Roles smoke: the paper's other two roles over the wire. Learn a tiny
# PSDD, compile a structured space and a classifier on a live server, and
# answer one query of every new kind via the CLI both in-process and
# through --server; after stripping the latency suffix the two outputs
# must be byte-identical (floats travel as IEEE-754 bit patterns). Every
# role query kind served bit-identically to in-process is also a test:
# crates/server/tests/roles_serving.rs.
printf 'p cnf 4 3\n1 2 0\n-2 3 0\n-1 4 0\n' > "$net_dir/roles.cnf"
printf '1 -2 3 4 * 2\n-1 2 3 -4\n1 2 3 4 * 0.5\n-1 2 3 4\n' > "$net_dir/roles.data"
printf '4 0 3\n0 1\n1 3\n0 2\n2 3\n1 2\n' > "$net_dir/roles.graph"
target/release/three-roles serve 127.0.0.1:0 --workers 2 \
    > "$net_dir/roles-serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q '^listening on ' "$net_dir/roles-serve.log" && break
    sleep 0.1
done
addr="$(sed -n 's/^listening on //p' "$net_dir/roles-serve.log" | head -n 1)"
[[ -n "$addr" ]] || { echo "roles-smoke: server never came up" >&2; exit 1; }
learn_flags=(--data "$net_dir/roles.data" --ll --evidence 3)
space_flags=(--count --under 1 --top --weight 2=3.0)
explain_flags=(--instance '1 -2 3 4' --reason --robustness --bias '1 4')
target/release/three-roles learn "$net_dir/roles.cnf" "${learn_flags[@]}" \
    > "$net_dir/learn-local.out"
target/release/three-roles learn "$net_dir/roles.cnf" "${learn_flags[@]}" \
    --server "$addr" > "$net_dir/learn-net.out"
target/release/three-roles space "$net_dir/roles.graph" "${space_flags[@]}" \
    > "$net_dir/space-local.out"
target/release/three-roles space "$net_dir/roles.graph" "${space_flags[@]}" \
    --server "$addr" > "$net_dir/space-net.out"
target/release/three-roles explain "$net_dir/roles.cnf" "${explain_flags[@]}" \
    > "$net_dir/explain-local.out"
target/release/three-roles explain "$net_dir/roles.cnf" "${explain_flags[@]}" \
    --server "$addr" > "$net_dir/explain-net.out"
for role in learn space explain; do
    sed 's/ *([0-9.]* us)$//' "$net_dir/$role-local.out" > "$net_dir/$role-local.stripped"
    sed 's/ *([0-9.]* us)$//' "$net_dir/$role-net.out"   > "$net_dir/$role-net.stripped"
    if ! diff "$net_dir/$role-local.stripped" "$net_dir/$role-net.stripped"; then
        echo "roles-smoke: networked $role answers differ from local answers" >&2
        exit 1
    fi
done
# The stats table must hold a row for every query kind, including the
# circuit kinds this server never saw (zero-valued rows before first use).
target/release/three-roles client "$addr" stats > "$net_dir/roles-stats.out"
for kind in sat model_count wmc psdd_log_likelihood psdd_marginal \
            space_count space_top sufficient_reason decision_robustness \
            classifier_bias; do
    grep -q "    $kind " "$net_dir/roles-stats.out" \
        || { echo "roles-smoke: stats table is missing the $kind row" >&2; exit 1; }
done
target/release/three-roles client "$addr" shutdown > /dev/null
wait "$serve_pid"
unset serve_pid

# Trace smoke: request-scoped tracing end to end. With sampling at zero a
# `three-roles trace` query must still be recorded (the Trace frame forces
# it), answer byte-identically to an untraced client query, and come back
# with a span tree holding the reactor/queue/executor/kernel/write
# stations — parent links shown structurally by the tree indentation.
# The --chrome export must parse as JSON, and the flight-recorder
# counters must have moved exactly for this one forced request.
target/release/three-roles serve 127.0.0.1:0 --workers 2 --trace-sample 0 \
    > "$net_dir/trace-serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q '^listening on ' "$net_dir/trace-serve.log" && break
    sleep 0.1
done
addr="$(sed -n 's/^listening on //p' "$net_dir/trace-serve.log" | head -n 1)"
[[ -n "$addr" ]] || { echo "trace-smoke: server never came up" >&2; exit 1; }
trace_flags=(--wmc --weight 1=0.3 --weight -1=0.7)
target/release/three-roles client "$addr" query "$net_dir/smoke.cnf" \
    "${trace_flags[@]}" > "$net_dir/trace-plain.out"
target/release/three-roles trace "$net_dir/smoke.cnf" "${trace_flags[@]}" \
    --server "$addr" --chrome "$net_dir/trace-chrome.json" \
    > "$net_dir/trace.out"
# The answer line (first line; the span tree follows) must match the
# untraced client byte-for-byte once the latency suffix is stripped.
head -n 1 "$net_dir/trace-plain.out" | sed 's/ *([0-9.]* us)$//' \
    > "$net_dir/trace-plain.stripped"
head -n 1 "$net_dir/trace.out" | sed 's/ *([0-9.]* us)$//' \
    > "$net_dir/trace-answer.stripped"
if ! diff "$net_dir/trace-plain.stripped" "$net_dir/trace-answer.stripped"; then
    echo "trace-smoke: traced answer differs from untraced answer" >&2
    exit 1
fi
# Span-tree shape: the server root at depth 0, the station spans indented
# under it (tree_string indents two spaces per parent link), and a kernel
# sweep span nested below the executor batch.
grep -q '^server\.request ' "$net_dir/trace.out" \
    || { echo "trace-smoke: no server.request root span" >&2; exit 1; }
for span in 'reactor\.drain' 'engine\.queue_wait' 'executor\.batch' 'server\.write'; do
    grep -Eq "^  $span " "$net_dir/trace.out" \
        || { echo "trace-smoke: span $span missing or not parented under the root" >&2; exit 1; }
done
grep -Eq '^ {4}kernel\.sweep\.[a-z0-9]+ ' "$net_dir/trace.out" \
    || { echo "trace-smoke: no kernel sweep span under the executor batch" >&2; exit 1; }
# The Chrome exporter's output is consumed by chrome://tracing / Perfetto;
# it must at least be well-formed JSON with a traceEvents array.
if command -v python3 > /dev/null 2>&1; then
    python3 - "$net_dir/trace-chrome.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert isinstance(events, list) and len(events) >= 5, f"only {len(events)} trace events"
PY
else
    grep -q '"traceEvents"' "$net_dir/trace-chrome.json" \
        || { echo "trace-smoke: chrome export missing traceEvents" >&2; exit 1; }
fi
# Flight-recorder accounting: exactly one forced trace, its spans
# recorded and collected once, nothing dropped.
target/release/three-roles metrics "$addr" --prom > "$net_dir/trace.prom"
sampled="$(prom_value trl_trace_requests_sampled "$net_dir/trace.prom")"
recorded="$(prom_value trl_trace_spans_recorded "$net_dir/trace.prom")"
collected="$(prom_value trl_trace_collect_us_count "$net_dir/trace.prom")"
dropped="$(prom_value trl_trace_spans_dropped "$net_dir/trace.prom")"
(( sampled >= 1 )) \
    || { echo "trace-smoke: trace.requests_sampled did not count the forced trace" >&2; exit 1; }
(( recorded >= 5 )) \
    || { echo "trace-smoke: only ${recorded:-0} spans recorded, expected >= 5" >&2; exit 1; }
(( collected >= 1 )) \
    || { echo "trace-smoke: trace.collect_us never counted a collection" >&2; exit 1; }
[[ "$dropped" == "0" ]] \
    || { echo "trace-smoke: ring dropped $dropped spans on a single trace" >&2; exit 1; }
target/release/three-roles client "$addr" shutdown > /dev/null
wait "$serve_pid"
unset serve_pid

# Local trace: without --server, `trace` answers on its own thread under
# a forced trace context. The answer line must match `query` on the
# compiled artifact, and the tree must be the trace.request root with
# the executor batch under it and a kernel sweep under that.
target/release/three-roles trace "$net_dir/smoke.cnf" "${trace_flags[@]}" \
    > "$net_dir/trace-local.out"
target/release/three-roles query "$net_dir/smoke.trlc" "${trace_flags[@]}" \
    | sed 's/ *([0-9.]* us)$//' > "$net_dir/query-local.stripped"
head -n 1 "$net_dir/trace-local.out" | sed 's/ *([0-9.]* us)$//' \
    > "$net_dir/trace-local.stripped"
if ! diff "$net_dir/query-local.stripped" "$net_dir/trace-local.stripped"; then
    echo "trace-smoke: local traced answer differs from query" >&2
    exit 1
fi
grep -q '^trace\.request ' "$net_dir/trace-local.out" \
    || { echo "trace-smoke: no trace.request root span locally" >&2; exit 1; }
grep -q '^  executor\.batch ' "$net_dir/trace-local.out" \
    || { echo "trace-smoke: executor.batch not under the local root" >&2; exit 1; }
grep -Eq '^ {4}kernel\.sweep\.[a-z0-9]+ ' "$net_dir/trace-local.out" \
    || { echo "trace-smoke: no kernel sweep under the local executor batch" >&2; exit 1; }

if [[ "$(bench_records)" != "$records_at_start" ]]; then
    echo "bench-records: a BENCH_*.json changed during the run:" >&2
    diff <(echo "$records_at_start") <(bench_records) >&2 || true
    exit 1
fi

echo "ci/check.sh: OK"
