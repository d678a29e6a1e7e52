#!/usr/bin/env sh
# Tier-1 gate for the hermetic workspace. Everything here must pass with
# no network access: the workspace has zero registry dependencies, so
# --offline is exact, not best-effort.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline"
cargo test -q --offline

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --offline --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> urt-lint --json smoke"
lint_json="$(cargo run -q --offline -p urt-analysis --bin urt-lint -- --json demo)"
case "$lint_json" in
    '[{"model":"demo","errors":0,'*) ;;
    *)
        echo "unexpected urt-lint --json output: $lint_json" >&2
        exit 1
        ;;
esac
# The seeded negative models must fail linting even under the stricter
# --deny-warnings contract (they all carry at least one error anyway).
for seeded in seeded-violations seeded-cross-loop seeded-over-budget; do
    if cargo run -q --offline -p urt-analysis --bin urt-lint -- --deny-warnings "$seeded" >/dev/null 2>&1; then
        echo "urt-lint --deny-warnings should exit non-zero on $seeded" >&2
        exit 1
    fi
done

echo "==> lint snapshots (urt-lint --json vs results/lint_snapshots/)"
for name in $(cargo run -q --offline -p urt-analysis --bin urt-lint -- --list); do
    snapshot="results/lint_snapshots/$name.json"
    out="$(cargo run -q --offline -p urt-analysis --bin urt-lint -- --json "$name")" || true
    if ! printf '%s\n' "$out" | diff -u "$snapshot" - >&2; then
        echo "lint snapshot drift for $name — after an intentional analyzer change, regenerate with:" >&2
        echo "  cargo run -p urt-analysis --bin urt-lint -- --json $name > $snapshot" >&2
        exit 1
    fi
done

echo "==> urt-elab-smoke (model -> analyze -> compile -> run, + K=8 ensemble replay)"
elab_out="$(cargo run -q --offline -p urt-analysis --bin urt-elab-smoke)"
case "$elab_out" in
    *'urt-elab-smoke: PASS') ;;
    *)
        echo "unexpected urt-elab-smoke output: $elab_out" >&2
        exit 1
        ;;
esac

echo "==> urt-lint --hash (stable content hashes, human + JSON shapes)"
hash_out="$(cargo run -q --offline -p urt-analysis --bin urt-lint -- --hash fig2)"
case "$hash_out" in
    '0x'*'  fig2') ;;
    *)
        echo "unexpected urt-lint --hash output: $hash_out" >&2
        exit 1
        ;;
esac
hash_json="$(cargo run -q --offline -p urt-analysis --bin urt-lint -- --hash --json fig2)"
case "$hash_json" in
    '[{"model":"fig2","content_hash":"0x'*'"}]') ;;
    *)
        echo "unexpected urt-lint --hash --json output: $hash_json" >&2
        exit 1
        ;;
esac

echo "==> bench_engine --smoke (self-asserts batched, ensemble, kernel and instantiate throughput)"
bench_json="$(cargo run -q --release --offline -p urt-bench --bin bench_engine -- --smoke)"
case "$bench_json" in
    '{"schema":"bench_engine/v8","smoke":true,'*'"batch":'*'"steps_per_sec":'*'"ensemble":['*'"mode":"ensemble"'*'"mode":"independent"'*'"kernel":['*'"kernel":"scalar"'*'"kernel":"batched"'*'"instantiate":['*'"instantiate_per_sec":'*'"speedup":'*) ;;
    *)
        echo "unexpected bench_engine --smoke output: $bench_json" >&2
        exit 1
        ;;
esac

echo "==> bench_engine --paced --smoke (paced latency axis, self-asserts misses == 0)"
paced_json="$(cargo run -q --release --offline -p urt-bench --bin bench_engine -- --paced --smoke)"
# Shape: the paced array must carry the latency distribution fields.
case "$paced_json" in
    '{"schema":"bench_engine/v8","smoke":true,'*'"paced":['*'"p50_ns":'*'"p99_ns":'*'"worst_ns":'*'"misses":'*) ;;
    *)
        echo "unexpected bench_engine --paced --smoke output: $paced_json" >&2
        exit 1
        ;;
esac
# The binary exits non-zero on any miss; belt-and-braces, the JSON must
# not report one either (the budget is generous by design).
case "$paced_json" in
    *'"misses":'[1-9]*)
        echo "paced smoke run reported deadline misses: $paced_json" >&2
        exit 1
        ;;
esac

echo "==> e2ebench: cargo test --release --offline (the benchmark builds against the public API)"
cargo test --release --offline --manifest-path e2ebench/Cargo.toml

echo "OK"
