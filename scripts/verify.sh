#!/usr/bin/env bash
# Tier-1 verification, fully offline.
#
# The workspace is hermetic: no crates.io dependencies, so the build must
# succeed with the network disabled and an empty registry cache. Any PR
# that reintroduces a registry dependency fails here immediately — cargo's
# --offline flag refuses to resolve anything outside the workspace.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "==> perfbench small-size suite (determinism, traced-vs-untraced identity, Stack lockstep)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT

echo "==> icbtc-lint (determinism / replicated-state static analysis, double run)"
# The analyzer itself must be deterministic: two runs over the same tree
# must emit byte-identical JSON (timings are only rendered under
# --timings, which is deliberately off here).
for run in 1 2; do
    cargo run -q --release --offline -p icbtc-lint --bin icbtc-lint -- --root . --json \
        > "$OBS_TMP/lint$run.json"
done
if ! diff -q "$OBS_TMP/lint1.json" "$OBS_TMP/lint2.json" >/dev/null; then
    echo "ERROR: two icbtc-lint runs over the same tree differ:" >&2
    diff "$OBS_TMP/lint1.json" "$OBS_TMP/lint2.json" | head -20 >&2 || true
    exit 1
fi
if ! grep -q '"violation_count":0' "$OBS_TMP/lint1.json"; then
    echo "ERROR: icbtc-lint found violations:" >&2
    cargo run -q --release --offline -p icbtc-lint --bin icbtc-lint -- --root . >&2 || true
    exit 1
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --offline --workspace --all-targets -- -D warnings"
    cargo clippy -q --offline --workspace --all-targets -- -D warnings
else
    echo "WARNING: clippy not installed in this toolchain; skipping clippy gate" >&2
fi

echo "==> observability determinism gate (same seed => byte-identical output)"
for run in 1 2; do
    cargo run -q --release --offline -p icbtc-bench --bin obs_trace -- \
        --seed 42 --rounds 120 --json --trace-out "$OBS_TMP/trace$run.jsonl" \
        > "$OBS_TMP/metrics$run.json"
done
if ! diff -q "$OBS_TMP/metrics1.json" "$OBS_TMP/metrics2.json" >/dev/null; then
    echo "ERROR: same-seed metrics snapshots differ:" >&2
    diff "$OBS_TMP/metrics1.json" "$OBS_TMP/metrics2.json" >&2 || true
    exit 1
fi
if ! diff -q "$OBS_TMP/trace1.jsonl" "$OBS_TMP/trace2.jsonl" >/dev/null; then
    echo "ERROR: same-seed traces differ:" >&2
    diff "$OBS_TMP/trace1.jsonl" "$OBS_TMP/trace2.jsonl" | head -20 >&2 || true
    exit 1
fi

echo "==> chaos determinism gate (same seed + plan => byte-identical soak)"
for run in 1 2; do
    cargo run -q --release --offline -p icbtc-bench --bin chaos_soak -- \
        --seed 42 --plan mixed --json --trace-out "$OBS_TMP/chaos$run.jsonl" \
        > "$OBS_TMP/chaos$run.json"
done
if ! diff -q "$OBS_TMP/chaos1.json" "$OBS_TMP/chaos2.json" >/dev/null; then
    echo "ERROR: same-seed chaos metrics snapshots differ:" >&2
    diff "$OBS_TMP/chaos1.json" "$OBS_TMP/chaos2.json" >&2 || true
    exit 1
fi
if ! diff -q "$OBS_TMP/chaos1.jsonl" "$OBS_TMP/chaos2.jsonl" >/dev/null; then
    echo "ERROR: same-seed chaos traces differ:" >&2
    diff "$OBS_TMP/chaos1.jsonl" "$OBS_TMP/chaos2.jsonl" | head -20 >&2 || true
    exit 1
fi

echo "==> query-plane determinism gate (same flags => byte-identical qps report)"
for run in 1 2; do
    cargo run -q --release --offline -p icbtc-bench --bin qps_soak -- \
        --seed 42 --addresses 20000 --requests 4000 --rate 64 \
        --out "$OBS_TMP/qps$run.json" --metrics-out "$OBS_TMP/qps_metrics$run.json" \
        >/dev/null 2>&1
done
if ! diff -q "$OBS_TMP/qps1.json" "$OBS_TMP/qps2.json" >/dev/null; then
    echo "ERROR: same-flags qps reports differ:" >&2
    diff "$OBS_TMP/qps1.json" "$OBS_TMP/qps2.json" >&2 || true
    exit 1
fi
if ! diff -q "$OBS_TMP/qps_metrics1.json" "$OBS_TMP/qps_metrics2.json" >/dev/null; then
    echo "ERROR: same-flags qps metrics snapshots differ:" >&2
    diff "$OBS_TMP/qps_metrics1.json" "$OBS_TMP/qps_metrics2.json" | head -20 >&2 || true
    exit 1
fi
if ! grep -q '"schema_version": 1' "$OBS_TMP/qps1.json"; then
    echo "ERROR: qps report is missing schema_version 1" >&2
    exit 1
fi
if ! grep -q '"schema_version": 1' BENCH_qps.json; then
    echo "ERROR: committed BENCH_qps.json is missing schema_version 1" >&2
    exit 1
fi
if ! grep -q '"hot_path"' BENCH_qps.json; then
    echo "ERROR: committed BENCH_qps.json is missing the hot_path section" >&2
    exit 1
fi

echo "==> perf trajectory gate (fresh qps report inside tolerance of committed baseline)"
scripts/perfdiff.sh "$OBS_TMP/qps1.json" BENCH_qps_gate.json

echo "==> profiler determinism gate (same flags => byte-identical profile report)"
for run in 1 2; do
    cargo run -q --release --offline -p icbtc-bench --bin prof_report -- \
        --seed 42 --blocks 6 --queries 32 --out "$OBS_TMP/prof$run.txt" \
        >/dev/null 2>&1
done
if ! diff -q "$OBS_TMP/prof1.txt" "$OBS_TMP/prof2.txt" >/dev/null; then
    echo "ERROR: same-seed profile reports differ:" >&2
    diff "$OBS_TMP/prof1.txt" "$OBS_TMP/prof2.txt" | head -20 >&2 || true
    exit 1
fi
for required in 'root_total:' '## collapsed stacks' 'canister;' 'subnet;'; do
    if ! grep -q "$required" "$OBS_TMP/prof1.txt"; then
        echo "ERROR: profile report is missing $required" >&2
        exit 1
    fi
done

echo "==> storage determinism gate (same flags => byte-identical report + state hash)"
for run in 1 2; do
    cargo run -q --release --offline -p icbtc-bench --bin fig5_utxo_growth -- \
        --seed 42 --blocks 80 --volume-scale 25 --budget-mib 64 --sample-every 20 \
        --out "$OBS_TMP/utxo$run.json" --metrics-out "$OBS_TMP/utxo_metrics$run.json" \
        >/dev/null 2>&1
done
if ! diff -q "$OBS_TMP/utxo1.json" "$OBS_TMP/utxo2.json" >/dev/null; then
    echo "ERROR: same-flags storage reports differ:" >&2
    diff "$OBS_TMP/utxo1.json" "$OBS_TMP/utxo2.json" >&2 || true
    exit 1
fi
if ! diff -q "$OBS_TMP/utxo_metrics1.json" "$OBS_TMP/utxo_metrics2.json" >/dev/null; then
    echo "ERROR: same-flags storage metrics snapshots differ:" >&2
    diff "$OBS_TMP/utxo_metrics1.json" "$OBS_TMP/utxo_metrics2.json" | head -20 >&2 || true
    exit 1
fi
for required in '"schema_version": 1' '"state_hash": "'; do
    if ! grep -q "$required" "$OBS_TMP/utxo1.json"; then
        echo "ERROR: storage report is missing $required" >&2
        exit 1
    fi
    if ! grep -q "$required" BENCH_utxo.json; then
        echo "ERROR: committed BENCH_utxo.json is missing $required" >&2
        exit 1
    fi
done

echo "==> storage perf trajectory gate (fresh utxo report inside tolerance of committed baseline)"
scripts/perfdiff.sh "$OBS_TMP/utxo1.json" BENCH_utxo_gate.json

echo "==> recovery determinism gate (same flags => byte-identical lifecycle soak)"
for run in 1 2; do
    cargo run -q --release --offline -p icbtc-bench --bin recovery_soak -- \
        --seed 42 --rounds 60 --plan mixed \
        --out "$OBS_TMP/recovery$run.json" --metrics-out "$OBS_TMP/recovery_metrics$run.json" \
        >/dev/null 2>&1
done
if ! diff -q "$OBS_TMP/recovery1.json" "$OBS_TMP/recovery2.json" >/dev/null; then
    echo "ERROR: same-flags recovery reports differ:" >&2
    diff "$OBS_TMP/recovery1.json" "$OBS_TMP/recovery2.json" >&2 || true
    exit 1
fi
if ! diff -q "$OBS_TMP/recovery_metrics1.json" "$OBS_TMP/recovery_metrics2.json" >/dev/null; then
    echo "ERROR: same-flags recovery metrics snapshots differ:" >&2
    diff "$OBS_TMP/recovery_metrics1.json" "$OBS_TMP/recovery_metrics2.json" | head -20 >&2 || true
    exit 1
fi
for required in '"schema_version": 1' '"state_hash": "'; do
    if ! grep -q "$required" "$OBS_TMP/recovery1.json"; then
        echo "ERROR: recovery report is missing $required" >&2
        exit 1
    fi
    if ! grep -q "$required" BENCH_recovery.json; then
        echo "ERROR: committed BENCH_recovery.json is missing $required" >&2
        exit 1
    fi
done

echo "==> recovery trajectory gate (fresh lifecycle soak inside tolerance of committed baseline)"
scripts/perfdiff.sh "$OBS_TMP/recovery1.json" BENCH_recovery_gate.json

echo "==> verifying the dependency tree is workspace-only"
if cargo tree --offline --prefix none | grep -v '^icbtc' | grep -q '[^[:space:]]'; then
    echo "ERROR: non-workspace dependency detected:" >&2
    cargo tree --offline --prefix none | grep -v '^icbtc' >&2
    exit 1
fi

echo "OK: hermetic build + tests + perfbench suite + lint + observability + chaos + query-plane + storage determinism + profiler + perf trajectory + recovery passed"
