#!/usr/bin/env bash
# Perf-trajectory regression gate: compares a freshly generated bench
# report against a committed baseline, metric by metric, and emits a
# machine-readable verdict line per metric plus a final summary line:
#
#   scripts/perfdiff.sh CANDIDATE.json BASELINE.json
#
#   {"metric":"requests_per_sec","baseline":62,"candidate":62,"verdict":"pass"}
#   ...
#   {"perfdiff":"pass","bench":"qps_soak","checked":8,"failed":0}
#
# Exit status 0 iff every check passes. Every compared metric is a
# modeled number (metered instructions, sim-time latency, counts, the
# state hash): deterministic for a given seed and flags, so each must
# equal its baseline exactly. The metric set is keyed on the report's
# "bench" field:
#
#   qps_soak          requests_per_sec, latency p50/p90/p99,
#                     instructions_per_request, cache_hit_permille,
#                     errors; and the hot_path per-hit cost must stay
#                     below its recorded pre-optimization value.
#   fig5_utxo_growth  utxo_count, pages_allocated, bytes_per_utxo,
#                     state_hash.
#   recovery_soak     event counts (checkpoints, upgrades, catch-ups,
#                     replayed rounds, corruptions, detections),
#                     checkpoint_last_bytes, mttr_ns_total, state_hash;
#                     and, in the candidate itself, catch-up matches
#                     must equal catch-ups and detections must equal
#                     injected corruptions.
#
# Both files must carry schema_version 1 and the same bench tag. The
# parser is awk-only (no jq) so the gate runs anywhere the repo builds;
# it relies on the reports' stable one-key-per-line formatting.
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: perfdiff.sh CANDIDATE.json BASELINE.json" >&2
    exit 2
fi
CANDIDATE="$1"
BASELINE="$2"
for f in "$CANDIDATE" "$BASELINE"; do
    if [ ! -f "$f" ]; then
        echo "ERROR: perfdiff: no such report: $f" >&2
        exit 2
    fi
done

# Extracts the raw value of a top-level (or uniquely named) field:
# integers bare, strings with their quotes.
field() { # field FILE NAME -> value (empty if absent)
    awk -v name="\"$2\":" '
        $1 == name { v = $2; sub(/,$/, "", v); print v; exit }
    ' "$1"
}

# Extracts a string field (without quotes).
sfield() { # sfield FILE NAME -> string (empty if absent)
    awk -v name="\"$2\":" '
        $1 == name { v = $2; sub(/,$/, "", v); gsub(/"/, "", v); print v; exit }
    ' "$1"
}

for f in "$CANDIDATE" "$BASELINE"; do
    if [ "$(field "$f" schema_version)" != "1" ]; then
        echo "ERROR: perfdiff: $f is not a schema_version 1 report" >&2
        exit 2
    fi
done
BENCH="$(sfield "$CANDIDATE" bench)"
if [ "$BENCH" != "$(sfield "$BASELINE" bench)" ]; then
    echo "ERROR: perfdiff: bench mismatch: $BENCH vs $(sfield "$BASELINE" bench)" >&2
    exit 2
fi

CHECKED=0
FAILED=0

# check METRIC — the candidate's value (integer or quoted string) must
# equal the baseline's exactly.
check() {
    local metric="$1" base cand verdict=pass
    base="$(field "$BASELINE" "$metric")"
    cand="$(field "$CANDIDATE" "$metric")"
    if [ -z "$base" ] || [ "$base" != "$cand" ]; then
        verdict=fail
        FAILED=$((FAILED + 1))
    fi
    CHECKED=$((CHECKED + 1))
    echo "{\"metric\":\"$metric\",\"baseline\":${base:-null},\"candidate\":${cand:-null},\"verdict\":\"$verdict\"}"
}

case "$BENCH" in
qps_soak)
    check requests_per_sec
    check latency_ms_p50
    check latency_ms_p90
    check latency_ms_p99
    check instructions_per_request
    check cache_hit_permille
    check errors
    # The profiler-guided hit-path optimization must hold: the realized
    # per-hit cost may never drift back above the recorded flat cost of
    # the pre-optimization hit path.
    before="$(field "$CANDIDATE" hit_instructions_per_hit_before)"
    after="$(field "$CANDIDATE" hit_instructions_per_hit_after)"
    verdict=pass
    if [ -z "$before" ] || [ -z "$after" ] || [ "$after" -ge "$before" ]; then
        verdict=fail
        FAILED=$((FAILED + 1))
    fi
    CHECKED=$((CHECKED + 1))
    echo "{\"metric\":\"hot_path_per_hit_improvement\",\"before\":${before:-null},\"after\":${after:-null},\"verdict\":\"$verdict\"}"
    ;;
fig5_utxo_growth)
    check utxo_count
    check pages_allocated
    check bytes_per_utxo
    check state_hash
    ;;
recovery_soak)
    check checkpoints_taken
    check upgrades
    check catchups
    check replayed_rounds_total
    check corruptions_injected
    check divergence_detected
    check checkpoint_last_bytes
    check mttr_ns_total
    check state_hash
    # Recovery correctness, not just trajectory: every catch-up must have
    # reconverged with the live replica, and every injected corruption
    # must have been detected — in the candidate itself.
    catchups="$(field "$CANDIDATE" catchups)"
    matches="$(field "$CANDIDATE" catchup_matches)"
    verdict=pass
    if [ -z "$catchups" ] || [ -z "$matches" ] || [ "$catchups" != "$matches" ]; then
        verdict=fail
        FAILED=$((FAILED + 1))
    fi
    CHECKED=$((CHECKED + 1))
    echo "{\"metric\":\"catchup_reconvergence\",\"catchups\":${catchups:-null},\"matches\":${matches:-null},\"verdict\":\"$verdict\"}"
    injected="$(field "$CANDIDATE" corruptions_injected)"
    detected="$(field "$CANDIDATE" divergence_detected)"
    verdict=pass
    if [ -z "$injected" ] || [ -z "$detected" ] || [ "$injected" != "$detected" ]; then
        verdict=fail
        FAILED=$((FAILED + 1))
    fi
    CHECKED=$((CHECKED + 1))
    echo "{\"metric\":\"divergence_detection\",\"injected\":${injected:-null},\"detected\":${detected:-null},\"verdict\":\"$verdict\"}"
    ;;
*)
    echo "ERROR: perfdiff: unknown bench tag \"$BENCH\"" >&2
    exit 2
    ;;
esac

VERDICT=pass
if [ "$FAILED" -gt 0 ]; then
    VERDICT=fail
fi
echo "{\"perfdiff\":\"$VERDICT\",\"bench\":\"$BENCH\",\"checked\":$CHECKED,\"failed\":$FAILED}"
[ "$VERDICT" = pass ]
