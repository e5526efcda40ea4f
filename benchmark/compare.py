#!/usr/bin/env python3
"""Compare dfbench end-to-end results of a parent and a change.

    benchmark/compare.py PARENT_DIR CHANGE_DIR
    benchmark/compare.py --spread DIR

PARENT_DIR and CHANGE_DIR hold the result JSONs run.sh writes (one per run;
make at least ten runs per side, alternating which side runs first). Runs
pair up by workload, seed and order. For every workload and end-to-end
metric the table gives each side's median and quartiles, the pairs the
change wins out of all pairs (a tie is no win) and a verdict against the
bounds in BENCHMARK.json; a workload with fewer than ten pairs reads
unresolved:

  improved    the change wins at least 9/10 of all pairs and the medians
              differ by more than the parent's own quartile spread
  regressed   the change's median is worse than the parent's by more than
              the bound
  unresolved  the parent's runs spread wider than the bound and not every
              change run beats every parent run, or the change failed more
              checks than the parent
  unchanged   otherwise

Runs whose host or build metadata or --seconds differ are refused.
--spread DIR reports each metric's spread over the runs in one directory,
the figure the bounds in BENCHMARK.json are derived from.
"""
import collections
import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
MIN_PAIRS = 10


def load(directory):
    runs = []
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        r = json.loads(path.read_text())
        if r.get("mode") == "e2e" and not r.get("smoke"):
            runs.append(r)
    if not runs:
        sys.exit(f"compare.py: no end-to-end results in {directory}")
    return runs


def metadata(run):
    b = run["build"]
    return (json.dumps(run["host"], sort_keys=True),
            b["compiler"], b["flags"], b["build_type"], run["seconds"])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def by_workload(runs):
    groups = collections.defaultdict(list)
    for r in runs:
        groups[r["workload"]].append(r)
    return groups


def pairs(parent, change):
    """Pair runs of one workload by seed, in the order they were written."""
    def keyed(runs):
        seen = collections.Counter()
        out = {}
        for r in runs:
            seen[r["seed"]] += 1
            out[(r["seed"], seen[r["seed"]])] = r
        return out
    p, c = keyed(parent), keyed(change)
    return [(p[k], c[k]) for k in sorted(p) if k in c]


def verdict(metric, p_vals, c_vals, wins, more_failures):
    spec = E2E[metric]
    sign = 1.0 if spec["better"] == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(p_vals)
    _, c_med, _ = quartiles(c_vals)
    worse = sign * (c_med - p_med) / p_med if p_med else 0.0
    dominates = all(sign * (c - p) < 0 for c in c_vals for p in p_vals)
    if more_failures:
        return "unresolved"
    if (p_q3 - p_q1) / p_med > spec["bound"] and not dominates:
        return "unresolved"
    if worse > spec["bound"]:
        return "regressed"
    if (wins >= 0.9 * len(p_vals) and worse < 0
            and abs(c_med - p_med) > p_q3 - p_q1):
        return "improved"
    return "unchanged"


def compare(parent_dir, change_dir):
    pg, cg = by_workload(load(parent_dir)), by_workload(load(change_dir))
    for workload in set(pg) | set(cg):
        meta = {metadata(r) for r in pg.get(workload, []) + cg.get(workload, [])}
        if len(meta) != 1:
            sys.exit(f"compare.py: refusing to compare {workload} runs whose "
                     "host or build metadata or --seconds differ:\n  " +
                     "\n  ".join(map(str, sorted(meta))))
    print(f"{'workload':24} {'metric':14} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'wins':>6}  verdict")
    for workload in sorted(set(pg) | set(cg)):
        matched = pairs(pg.get(workload, []), cg.get(workload, []))
        if not matched:
            print(f"{workload:24} no paired runs")
            continue
        digests = {(p["digest"] == c["digest"]) for p, c in matched}
        p_failed = sum(p["failed"] for p, _ in matched)
        c_failed = sum(c["failed"] for _, c in matched)
        for metric, spec in E2E.items():
            sign = 1.0 if spec["better"] == "lower" else -1.0
            p_vals = [p["metrics"][metric]["value"] for p, _ in matched]
            c_vals = [c["metrics"][metric]["value"] for _, c in matched]
            wins = sum(sign * (c - p) < 0 for p, c in zip(p_vals, c_vals))
            v = (verdict(metric, p_vals, c_vals, wins, c_failed > p_failed)
                 if len(matched) >= MIN_PAIRS else "unresolved")
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{workload:24} {metric:14} {fmt(quartiles(p_vals)):>32} "
                  f"{fmt(quartiles(c_vals)):>32} "
                  f"{wins}/{len(matched):<4}  {v}")
        if len(matched) < MIN_PAIRS:
            print(f"{workload:24} only {len(matched)} paired runs; "
                  f"a verdict needs at least {MIN_PAIRS}")
        if digests != {True}:
            print(f"{workload:24} model digests differ between parent and "
                  f"change: the change is not host-only")
        if p_failed or c_failed:
            print(f"{workload:24} failed checks: parent {p_failed}, "
                  f"change {c_failed}")


def spread(directory):
    for workload, runs in sorted(by_workload(load(directory)).items()):
        print(f"{workload} ({len(runs)} runs)")
        for metric, spec in E2E.items():
            vals = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = quartiles(vals)
            rng = (max(vals) - min(vals)) / med if med else 0.0
            print(f"  {metric:14} median {med:.4g}  quartile spread "
                  f"{(q3 - q1) / med if med else 0.0:.3f}  range {rng:.3f}  "
                  f"bound {spec['bound']}")


def main(argv):
    if len(argv) == 3 and argv[1] == "--spread":
        spread(argv[2])
    elif len(argv) == 3:
        compare(argv[1], argv[2])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv)
