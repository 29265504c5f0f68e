#!/usr/bin/env bash
# Full local gate: formatting, lints as errors, and the whole-workspace
# test suite. CI and pre-commit should both run exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy -q --workspace --all-targets -- -D warnings
cargo test --workspace -q
# The telemetry compile-out configuration must keep building: every
# dmra-obs dependent forwards a `telemetry` feature, and this catches a
# crate growing an unconditional dependency on instrumented APIs.
cargo build -q --workspace --no-default-features
# The benchmark is a package of its own, outside the workspace, so a
# dmra-core API change that breaks it would pass every step above.
cargo build -q --release --offline --manifest-path perfbench/Cargo.toml

# Flight-recorder + /metrics smoke: run the dynamic simulator with a JSONL
# flight record and a live metrics endpoint, scrape the endpoint mid-run
# over bash's /dev/tcp (no curl in the gate), then validate the record's
# schema. The long horizon keeps the run alive for a few seconds so the
# scrape genuinely happens while epochs are still being recorded.
cargo build -q -p dmra-cli
record="$(mktemp /tmp/dmra-smoke-XXXXXX.jsonl)"
stderr_log="$(mktemp /tmp/dmra-smoke-XXXXXX.log)"
proto_record="$(mktemp /tmp/dmra-smoke-proto-XXXXXX.jsonl)"
det_record="$(mktemp /tmp/dmra-smoke-det-XXXXXX.jsonl)"
det_base="$(mktemp /tmp/dmra-smoke-detbase-XXXXXX.jsonl)"
trap 'rm -f "$record" "$stderr_log" "$proto_record" "$det_record" "$det_base"' EXIT
./target/debug/dmra dynamic --rate 120 --epochs 8000 \
    --record "$record" --metrics-addr 127.0.0.1:0 \
    >/dev/null 2>"$stderr_log" &
smoke_pid=$!

addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's|.*serving metrics on http://\([0-9.:]*\)/metrics.*|\1|p' "$stderr_log" | head -n1)"
    [[ -n "$addr" ]] && break
    kill -0 "$smoke_pid" 2>/dev/null || { echo "smoke run exited before binding the metrics server" >&2; cat "$stderr_log" >&2; exit 1; }
    sleep 0.1
done
[[ -n "$addr" ]] || { echo "metrics server address never appeared on stderr" >&2; cat "$stderr_log" >&2; exit 1; }

scrape=""
for _ in $(seq 1 20); do
    scrape="$(exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}" \
        && printf 'GET /metrics HTTP/1.0\r\nHost: %s\r\n\r\n' "$addr" >&3 \
        && cat <&3; exec 3<&- 3>&-)" || scrape=""
    grep -q '^# TYPE ' <<<"$scrape" && break
    sleep 0.1
done
grep -q '^HTTP/1.0 200 OK' <<<"$scrape" || { echo "metrics scrape did not return 200" >&2; exit 1; }
grep -q '^# TYPE dmra_' <<<"$scrape" || { echo "metrics scrape carried no dmra_ series" >&2; exit 1; }
grep -Eq '^dmra_sim_epochs(_total)? [1-9]' <<<"$scrape" || { echo "mid-run scrape saw no epoch progress" >&2; exit 1; }

wait "$smoke_pid" || { echo "smoke run failed" >&2; cat "$stderr_log" >&2; exit 1; }
[[ -s "$record" ]] || { echo "flight record $record is empty" >&2; exit 1; }
bad=$(grep -cv '^{"schema": "dmra-flight/1", "stream": "sim.epoch", "index": [0-9]*, "det": {.*}, "aux": {.*}}$' "$record" || true)
[[ "$bad" -eq 0 ]] || { echo "$bad flight-record lines failed schema validation" >&2; head -n3 "$record" >&2; exit 1; }
[[ "$(wc -l <"$record")" -eq 8000 ]] || { echo "expected 8000 flight records, got $(wc -l <"$record")" >&2; exit 1; }
grep -q '"digest": ' "$record" || { echo "flight records carry no outcome digest" >&2; exit 1; }
echo "flight-recorder smoke OK ($(wc -l <"$record") records, scraped $addr mid-run)"

# Protocol-engine smoke: the message-passing engine under 10% loss still
# writes a schema-valid flight record — per-epoch `sim.epoch` lines (with
# the degradation aux fields) interleaved with the round engine's
# per-round `proto.round` lines, both through the process-global slot.
./target/debug/dmra dynamic --engine proto --drop 10 --rate 20 --epochs 40 \
    --record "$proto_record" >/dev/null
[[ -s "$proto_record" ]] || { echo "proto flight record $proto_record is empty" >&2; exit 1; }
bad=$(grep -cv '^{"schema": "dmra-flight/1", "stream": "\(sim\.epoch\|proto\.round\)", "index": [0-9]*, "det": {.*}, "aux": {.*}}$' "$proto_record" || true)
[[ "$bad" -eq 0 ]] || { echo "$bad proto flight-record lines failed schema validation" >&2; head -n3 "$proto_record" >&2; exit 1; }
[[ "$(grep -c '"stream": "sim.epoch"' "$proto_record")" -eq 40 ]] || { echo "expected 40 sim.epoch records in the proto run" >&2; exit 1; }
grep -q '"stream": "proto.round"' "$proto_record" || { echo "proto run recorded no proto.round stream" >&2; exit 1; }
grep -q '"proto_dropped":' "$proto_record" || { echo "proto epochs carry no degradation aux fields" >&2; exit 1; }
grep -q '"oracle_profit_gap":' "$proto_record" || { echo "proto epochs carry no oracle gap" >&2; exit 1; }
echo "proto-engine smoke OK ($(wc -l <"$proto_record") records)"

# Engine digest smoke: every seam of each simulator's one epoch loop —
# scratch rows, sharded rows, the fault-free protocol matcher and the
# component solve path — must leave an epoch digest trail bit-identical to the
# incremental engine's, driven from the CLI. Only the per-epoch streams
# are compared (the proto engine also records per-round lines), and their
# nondeterministic "aux" halves (wall-clock timings, shard loads) are
# stripped first.
det() { grep '"stream": "\(sim\|mobility\)\.epoch"' "$1" | sed 's/, "aux": {.*}}$//'; }
for cmd in dynamic mobility; do
    if [[ "$cmd" == dynamic ]]; then
        base_args=(dynamic --rate 40 --epochs 200)
        variants=("--engine scratch" "--engine proto" "--shards 2" "--solve components")
    else
        base_args=(mobility --ues 200 --speed 12 --stationary 0.5 --policy sticky --epochs 40)
        variants=("--engine scratch" "--shards 2" "--solve components")
    fi
    ./target/debug/dmra "${base_args[@]}" --record "$det_base" >/dev/null
    epochs="$(det "$det_base" | wc -l)"
    [[ "$epochs" -eq "${base_args[-1]}" ]] || { echo "expected ${base_args[-1]} $cmd epoch records, got $epochs" >&2; exit 1; }
    for variant in "${variants[@]}"; do
        # shellcheck disable=SC2086 # the variant is two words on purpose
        ./target/debug/dmra "${base_args[@]}" $variant --record "$det_record" >/dev/null
        cmp -s <(det "$det_record") <(det "$det_base") \
            || { echo "$cmd $variant epoch digests diverged from the incremental engine" >&2; exit 1; }
    done
    echo "$cmd digest smoke OK (${variants[*]}: $epochs epoch digests identical)"
done
