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

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --offline --workspace --all-targets -- -D warnings"
    cargo clippy -q --offline --workspace --all-targets -- -D warnings
else
    echo "WARNING: clippy not installed in this toolchain; skipping clippy gate" >&2
fi

OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT

# Fails with the message in $3 unless file $1 contains pattern $2.
require() {
    if ! grep -q "$2" "$1"; then
        echo "ERROR: $3" >&2
        exit 1
    fi
}

# Follow-up checks, run on a gate's first-run outputs once both runs agree.
lint_is_clean() {
    if ! grep -q '"violation_count":0' "$OBS_TMP/lint1.json"; then
        echo "ERROR: icbtc-lint found violations:" >&2
        cargo run -q --release --offline -p icbtc-lint --bin icbtc-lint -- --root . >&2 || true
        exit 1
    fi
}

qps_report_checks() {
    require "$OBS_TMP/qps1.json" '"schema_version": 1' "qps report is missing schema_version 1"
    require BENCH_qps.json '"schema_version": 1' "committed BENCH_qps.json is missing schema_version 1"
    require BENCH_qps.json '"hot_path"' "committed BENCH_qps.json is missing the hot_path section"
    echo "==> perf trajectory gate (fresh qps report equals committed baseline)"
    scripts/perfdiff.sh "$OBS_TMP/qps1.json" BENCH_qps_gate.json
}

profile_report_checks() {
    for required in 'root_total:' '## collapsed stacks' 'canister;' 'subnet;'; do
        require "$OBS_TMP/prof1.txt" "$required" "profile report is missing $required"
    done
}

# $1: report stem (utxo, recovery); $2: what the report is called in
# failure messages; $3: banner of its trajectory gate.
soak_report_checks() {
    for required in '"schema_version": 1' '"state_hash": "'; do
        require "$OBS_TMP/${1}1.json" "$required" "$2 report is missing $required"
        require "BENCH_$1.json" "$required" "committed BENCH_$1.json is missing $required"
    done
    echo "==> $3"
    scripts/perfdiff.sh "$OBS_TMP/${1}1.json" "BENCH_$1_gate.json"
}

# The double-run determinism gates, four entries per gate:
#   1. banner;
#   2. command, run twice, with RUN set to 1 and then 2;
#   3. outputs the two runs must write byte-identically, one
#      "file=failure message" per line, with {} in the file name
#      standing for RUN;
#   4. follow-up checks on the first run's outputs ("" for none).
# icbtc-lint comes first: the analyzer itself must be deterministic
# (timings are only rendered under --timings, which is deliberately off).
GATES=(
    'icbtc-lint (determinism / replicated-state static analysis, double run)'
    'cargo run -q --release --offline -p icbtc-lint --bin icbtc-lint -- --root . --json \
        > "$OBS_TMP/lint$RUN.json"'
    'lint{}.json=two icbtc-lint runs over the same tree differ:'
    'lint_is_clean'

    'observability determinism gate (same seed => byte-identical output)'
    'cargo run -q --release --offline -p icbtc-bench --bin obs_trace -- \
        --seed 42 --rounds 120 --json --trace-out "$OBS_TMP/trace$RUN.jsonl" \
        > "$OBS_TMP/metrics$RUN.json"'
    'metrics{}.json=same-seed metrics snapshots differ:
     trace{}.jsonl=same-seed traces differ:'
    ''

    'chaos determinism gate (same seed + plan => byte-identical soak)'
    'cargo run -q --release --offline -p icbtc-bench --bin chaos_soak -- \
        --seed 42 --plan mixed --json --trace-out "$OBS_TMP/chaos$RUN.jsonl" \
        > "$OBS_TMP/chaos$RUN.json"'
    'chaos{}.json=same-seed chaos metrics snapshots differ:
     chaos{}.jsonl=same-seed chaos traces differ:'
    ''

    'query-plane determinism gate (same flags => byte-identical qps report)'
    'cargo run -q --release --offline -p icbtc-bench --bin qps_soak -- \
        --seed 42 --addresses 20000 --requests 4000 --rate 64 \
        --out "$OBS_TMP/qps$RUN.json" --metrics-out "$OBS_TMP/qps_metrics$RUN.json" \
        >/dev/null 2>&1'
    'qps{}.json=same-flags qps reports differ:
     qps_metrics{}.json=same-flags qps metrics snapshots differ:'
    'qps_report_checks'

    'profiler determinism gate (same flags => byte-identical profile report)'
    'cargo run -q --release --offline -p icbtc-bench --bin prof_report -- \
        --seed 42 --blocks 6 --queries 32 --out "$OBS_TMP/prof$RUN.txt" \
        >/dev/null 2>&1'
    'prof{}.txt=same-seed profile reports differ:'
    'profile_report_checks'

    'storage determinism gate (same flags => byte-identical report + state hash)'
    'cargo run -q --release --offline -p icbtc-bench --bin fig5_utxo_growth -- \
        --seed 42 --blocks 80 --volume-scale 25 --budget-mib 64 --sample-every 20 \
        --out "$OBS_TMP/utxo$RUN.json" --metrics-out "$OBS_TMP/utxo_metrics$RUN.json" \
        >/dev/null 2>&1'
    'utxo{}.json=same-flags storage reports differ:
     utxo_metrics{}.json=same-flags storage metrics snapshots differ:'
    'soak_report_checks utxo storage \
        "storage perf trajectory gate (fresh utxo report equals committed baseline)"'

    'recovery determinism gate (same flags => byte-identical lifecycle soak)'
    'cargo run -q --release --offline -p icbtc-bench --bin recovery_soak -- \
        --seed 42 --rounds 60 --plan mixed \
        --out "$OBS_TMP/recovery$RUN.json" --metrics-out "$OBS_TMP/recovery_metrics$RUN.json" \
        >/dev/null 2>&1'
    'recovery{}.json=same-flags recovery reports differ:
     recovery_metrics{}.json=same-flags recovery metrics snapshots differ:'
    'soak_report_checks recovery recovery \
        "recovery trajectory gate (fresh lifecycle soak equals committed baseline)"'
)

for ((gate = 0; gate < ${#GATES[@]}; gate += 4)); do
    echo "==> ${GATES[gate]}"
    for RUN in 1 2; do
        eval "${GATES[gate + 1]}"
    done
    while IFS='=' read -r file message; do
        first="$OBS_TMP/${file//\{\}/1}"
        second="$OBS_TMP/${file//\{\}/2}"
        if ! diff -q "$first" "$second" >/dev/null; then
            echo "ERROR: $message" >&2
            diff "$first" "$second" | head -20 >&2 || true
            exit 1
        fi
    done <<< "$(sed 's/^ *//' <<< "${GATES[gate + 2]}")"
    eval "${GATES[gate + 3]}"
done

echo "==> verifying the dependency tree is workspace-only"
if cargo tree --offline --prefix none | grep -v '^icbtc' | grep -q '[^[:space:]]'; then
    echo "ERROR: non-workspace dependency detected:" >&2
    cargo tree --offline --prefix none | grep -v '^icbtc' >&2
    exit 1
fi

echo "OK: hermetic build + tests + perfbench suite + lint + observability + chaos + query-plane + storage determinism + profiler + perf trajectory + recovery passed"
