#!/usr/bin/env python3
"""Self-check of the benchmark on short runs.

Run from the repository root:

    python3 perfbench/selfcheck.py [--seconds 1]

For every workload in BENCHMARK.json it runs the benchmark command five
times: twice traced and twice untraced with one seed, and once untraced
with a second seed. It asserts that

* every run exits 0 and reports `correct: true` with no failed epochs;
* an untraced run reports exactly the `end_to_end` metrics and a traced
  run exactly the `per_layer` metrics, each with its declared unit;
* the work counts (links, proposals, iterations, prunes, evictions,
  components, cache lookups and hits, tasks in service) and the
  deterministic outcomes (profit rate, edge share) repeat exactly across
  runs of one seed;
* the per-epoch allocation digests agree across runs of one seed, and
  differ on the second seed, so the seed reaches the inputs.

Exits non-zero on the first failed assertion.
"""

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Per-layer metrics that are exact counts, so two runs of a seed must agree.
COUNTS = [
    "core.online.links_per_ue",
    "core.online.row_cache_hit_rate",
    "core.online.row_cache_lookups",
    "core.dmra.iterations_per_solve",
    "core.dmra.proposals_per_ue",
    "core.dmra.prunes",
    "core.dmra.evictions",
    "core.dmra.ue_slots_scanned",
    "core.components.per_solve",
    "core.components.largest_ues",
    "sim.in_service_mean",
]
# End-to-end metrics that depend only on the seed.
OUTCOMES = ["profit_rate", "edge_share"]


def run(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    where = f"{workload} seed={seed} trace={trace}"
    if proc.returncode != 0 or not lines:
        sys.exit(f"FAIL {where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"FAIL {where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"FAIL {where}: correct={result['correct']} failed={result['failed']}")
    folds = [l.split("digest_fold=")[1].split()[0] for l in lines if "digest_fold=" in l]
    if len(folds) != 1:
        sys.exit(f"FAIL {where}: no digest_fold line")
    return result["metrics"], folds[0]


def check_names(metrics, declared, where):
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        sys.exit(f"FAIL {where}: metrics {sorted(got.items())} != declared {sorted(want.items())}")


def check_equal(a, b, names, where):
    for name in names:
        if a[name]["value"] != b[name]["value"]:
            sys.exit(f"FAIL {where}: {name} {a[name]['value']} != {b[name]['value']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seed, other = args.seed, args.seed + 1
    for w in bench["workloads"]:
        name = w["name"]
        traced_a, fold_a = run(bench, name, seed, args.seconds, 1)
        traced_b, fold_b = run(bench, name, seed, args.seconds, 1)
        plain, fold_c = run(bench, name, seed, args.seconds, 0)
        plain_other, fold_other = run(bench, name, other, args.seconds, 0)
        check_names(traced_a, bench["per_layer"], f"{name} trace=1")
        check_names(plain, bench["end_to_end"], f"{name} trace=0")
        check_names(plain_other, bench["end_to_end"], f"{name} trace=0 seed={other}")
        check_equal(traced_a, traced_b, COUNTS, f"{name} traced runs")
        if not fold_a == fold_b == fold_c:
            sys.exit(f"FAIL {name}: digests differ across runs of seed {seed}")
        if fold_other == fold_a:
            sys.exit(f"FAIL {name}: seed {other} replayed seed {seed}'s digests")
        rerun, _ = run(bench, name, seed, args.seconds, 0)
        check_equal(plain, rerun, OUTCOMES, f"{name} untraced runs")
        print(f"ok {name}: {len(traced_a)} per-layer and {len(plain)} end-to-end metrics, "
              f"counts and digests repeat (fold {fold_a})")
    print("selfcheck passed")


if __name__ == "__main__":
    main()
