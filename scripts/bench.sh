#!/usr/bin/env bash
# Performance tracking: the criterion wall-clock benches, then the
# machine-readable sweep/build/solver/online measurement that (re)writes
# BENCH_sweep.json and BENCH_dynamic.json at the workspace root, the
# low-load gate that writes BENCH_dynamic_event.json (fails when the
# incremental engine's speedup over the scratch epoch loop on a low-load
# long horizon drops below its bound — 5x by default, see
# DMRA_EVENT_SPEEDUP_MIN), the link-batch
# gate that writes BENCH_linkbatch.json (fails when the batched kernel /
# row-cached mobility loop drops below its bound — 1.5x by default, see
# DMRA_LINKBATCH_SPEEDUP_MIN), the shard gate that writes
# BENCH_shard.json (asserts sharded == unsharded outcomes, then fails
# when 4 shards beat 1 shard by less than DMRA_SHARD_SPEEDUP_MIN — 2x by
# default — on hosts with >= 4 hardware threads; recorded as skipped on
# smaller hosts), the component-solve gate that writes BENCH_solve.json
# (asserts component-decomposed == monolithic DMRA outcomes, then fails
# when 4 solve threads beat the monolithic path by less than
# DMRA_SOLVE_SPEEDUP_MIN — 1.5x by default — on hosts with >= 4 hardware
# threads; skipped likewise), the telemetry overhead gate that writes
# BENCH_obs_overhead.json (fails when enabling telemetry costs more than
# its bound — 2% by default, see DMRA_OBS_OVERHEAD_BOUND_PCT), and the
# protocol degradation gate that writes BENCH_proto.json (asserts the
# fault-free protocol-backed engine bit-identical to the incremental
# engine before any timing, then sweeps a drop x delay x crash grid and
# fails when worst-case profit loss exceeds
# DMRA_PROTO_MAX_PROFIT_LOSS_PCT — 60% by default).
# Extra arguments are forwarded to `cargo bench` (e.g. a bench name
# filter).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo bench -p dmra-bench "$@"
cargo run --release -p dmra-bench --bin figures -- bench
cargo run --release -p dmra-bench --bin figures -- bench_event
cargo run --release -p dmra-bench --bin figures -- bench_linkbatch
cargo run --release -p dmra-bench --bin figures -- bench_shard
cargo run --release -p dmra-bench --bin figures -- bench_solve
cargo run --release -p dmra-bench --bin figures -- bench_proto
cargo run --release -p dmra-bench --bin figures -- obs_overhead
