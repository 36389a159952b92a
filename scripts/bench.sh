#!/usr/bin/env bash
# Runs the split-search, classification, partition-traffic, serving and
# thread-scaling benchmarks and writes the measurement trajectories to
# BENCH_split.json, BENCH_classify.json, BENCH_partition.json,
# BENCH_serve.json and BENCH_scaling.json at the repository root.
#
# The criterion shim (shims/criterion) emits one JSON record per
# benchmark when CRITERION_JSON names a file (under a "host" header
# recording cpu count / arch / detected SIMD features); this script
# points it at the respective output file and prints the headline
# numbers afterwards: naive-vs-columnar and scalar-oracle-vs-batch-kernel
# for split search, single-vs-batch for classification, wall-clock +
# bytes-allocated per depth for partitioning, and batched-vs-single-
# request socket throughput for serving.
#
# Usage: scripts/bench.sh [extra cargo bench args...]

set -euo pipefail

cd "$(dirname "$0")/.."

# Absolute paths: cargo runs bench binaries with the package directory as
# their working directory.
split_out="$(pwd)/BENCH_split.json"
classify_out="$(pwd)/BENCH_classify.json"
partition_out="$(pwd)/BENCH_partition.json"
serve_out="$(pwd)/BENCH_serve.json"
scaling_out="$(pwd)/BENCH_scaling.json"
CRITERION_JSON="$split_out" cargo bench -p udt-bench --bench split_algorithms "$@"
CRITERION_JSON="$classify_out" cargo bench -p udt-bench --bench classify_throughput "$@"
CRITERION_JSON="$partition_out" cargo bench -p udt-bench --bench partition "$@"
CRITERION_JSON="$serve_out" cargo bench -p udt-bench --bench serve "$@"
CRITERION_JSON="$scaling_out" cargo bench -p udt-bench --bench scaling "$@"

echo
echo "== $split_out =="
python3 - "$split_out" <<'EOF'
import json
import sys

data = json.load(open(sys.argv[1]))
host = data.get("host", {})
results = data["results"]
if host:
    feats = ",".join(host.get("simd_features", [])) or "none"
    print(f"host: {host.get('num_cpus')} cpus, {host.get('arch')}, simd: {feats}")
by_key = {(r["group"], r["bench"]): r["median_ns"] for r in results}

def speedup(group, naive, fast):
    a = by_key.get((group, naive))
    b = by_key.get((group, fast))
    if a and b:
        print(f"{group}: {naive} / {fast} = {a / b:.2f}x")

speedup("node_search_step", "es_naive_rebuild", "es_columnar")
speedup("node_search_step", "exhaustive_naive_rebuild", "exhaustive_columnar")
speedup("node_search_step", "es_columnar_scalar", "es_columnar")
speedup("score_kernel", "scalar", "simd")
speedup("columnar_vs_naive", "udt_es_naive_rebuild", "udt_es_columnar")
speedup("columnar_vs_naive", "udt_exhaustive_naive_rebuild", "udt_exhaustive_columnar")
EOF

echo
echo "== $classify_out =="
python3 - "$classify_out" <<'EOF'
import json
import sys

results = json.load(open(sys.argv[1]))["results"]
by_key = {(r["group"], r["bench"]): r["median_ns"] for r in results}

def speedup(group, single, batch):
    a = by_key.get((group, single))
    b = by_key.get((group, batch))
    if a and b:
        print(f"{group}: {single} / {batch} = {a / b:.2f}x batch throughput")

speedup("classify_throughput", "single_uncertain", "batch_uncertain")
speedup("classify_throughput", "single_point", "batch_point")
EOF

echo
echo "== $partition_out =="
python3 - "$partition_out" <<'EOF'
import json
import sys

results = json.load(open(sys.argv[1]))["results"]
by_bench = {r["bench"]: r for r in results if r["group"] == "partition_traffic"}

for depth in ("04", "08", "12"):
    view = by_bench.get(f"depth{depth}_view")
    if view:
        print(
            f"depth {int(depth)}: {view['median_ns'] / 1e6:.2f} ms/build, "
            f"partition bytes {view.get('throughput_bytes')}"
        )
EOF

echo
echo "== $serve_out =="
python3 - "$serve_out" <<'EOF'
import json
import sys

results = json.load(open(sys.argv[1]))["results"]
by_key = {(r["group"], r["bench"]): r["median_ns"] for r in results}

def speedup(group, single, batch):
    a = by_key.get((group, single))
    b = by_key.get((group, batch))
    if a and b:
        print(f"{group}: {single} / {batch} = {a / b:.2f}x micro-batched throughput")

speedup("serve_throughput", "single_uncertain", "batch_uncertain")
speedup("serve_throughput", "single_point", "batch_point")

direct = by_key.get(("serve_failover", "direct_point"))
replica = by_key.get(("serve_failover", "replica_set_point"))
if direct and replica:
    overhead = (replica / direct - 1.0) * 100.0
    print(f"serve_failover: replica_set_point / direct_point = {overhead:+.2f}% breaker overhead")
EOF

echo
echo "== $scaling_out =="
python3 - "$scaling_out" <<'EOF'
import json
import os
import sys

results = json.load(open(sys.argv[1]))["results"]
by_key = {(r["group"], r["bench"]): r["median_ns"] for r in results}

cores = os.cpu_count() or 1
print(f"host cores: {cores} (speedup is bounded by the host; ~1x expected on 1 core)")
for group in ("scaling_build", "scaling_presort"):
    base = by_key.get((group, "threads01"))
    if not base:
        continue
    for t in (2, 4, 8):
        v = by_key.get((group, f"threads{t:02}"))
        if v:
            print(f"{group}: threads01 / threads{t:02} = {base / v:.2f}x")
EOF
