#!/usr/bin/env bash
# Smoke self-test of the benchmark itself. Tiny variants of all four
# workloads (--smoke) check that:
#   * every metric BENCHMARK.json names is printed, with its unit;
#   * every JSON the benchmark prints or writes parses;
#   * traced and untraced runs report the same model digest;
#   * another --seed changes the digest.
#
#   benchmark/selftest.sh
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/build-bench/selftest"
rm -rf "$out"
mkdir -p "$out"

bash "$here/run.sh" --smoke --trace 0 --seed 2021 --out "$out/json" > "$out/e2e.txt"
bash "$here/run.sh" --smoke --trace 1 --seed 2021 --out "$out/json" > "$out/traced.txt"
bash "$here/run.sh" --smoke --trace 0 --seed 7 --out "$out/json" > "$out/seed7.txt"

python3 - "$root/BENCHMARK.json" "$out" <<'EOF'
import json, pathlib, sys

spec = json.loads(pathlib.Path(sys.argv[1]).read_text())
out = pathlib.Path(sys.argv[2])
names = [w["name"] for w in spec["workloads"]]
problems = []

def parse(path, expected):
    """Metric lines, digests and JSON result lines of one run.sh output."""
    metrics, digests, results = {}, {}, []
    for line in (out / path).read_text().splitlines():
        if line.startswith("{"):
            results.append(json.loads(line))
            continue
        workload, key, value, *unit = line.split(" ", 3)
        if key == "digest":
            digests[workload] = value
        else:
            metrics[(workload, key)] = unit[0] if unit else None
    for workload in names:
        for m in expected:
            unit = metrics.get((workload, m["name"]))
            if unit != m["unit"]:
                problems.append(f"{path}: {workload} {m['name']} printed with "
                                f"unit {unit!r}, expected {m['unit']!r}")
    if len(results) != len(names):
        problems.append(f"{path}: {len(results)} result lines, expected "
                        f"{len(names)}")
    want = {m["name"] for m in expected}
    for r in results:
        if set(r) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{path}: result keys {sorted(r)}")
        if not r.get("correct") or r.get("failed"):
            problems.append(f"{path}: a run reported failures")
        if set(r.get("metrics", {})) != want:
            problems.append(f"{path}: result metrics differ from BENCHMARK.json")
    return digests

e2e = parse("e2e.txt", spec["end_to_end"])
traced = parse("traced.txt", spec["per_layer"])
seed7 = parse("seed7.txt", spec["end_to_end"])
for workload in names:
    if e2e.get(workload) is None or e2e.get(workload) != traced.get(workload):
        problems.append(f"{workload}: traced digest {traced.get(workload)} != "
                        f"untraced {e2e.get(workload)}")
    if e2e.get(workload) == seed7.get(workload):
        problems.append(f"{workload}: --seed 7 did not change the digest")
for path in (out / "json").glob("*.json"):
    json.loads(path.read_text())

for p in problems:
    print("selftest: FAIL:", p)
if problems:
    sys.exit(1)
print(f"selftest: ok ({len(names)} workloads, "
      f"{len(spec['end_to_end'])} end-to-end and "
      f"{len(spec['per_layer'])} per-layer metrics)")
EOF
