#!/usr/bin/env python3
"""Writes BENCH_servebench.json from the committed servebench result files.

Usage (from the repository root):

    python3 bench-results/summarize.py

Each entry in ENTRIES names a directory under bench-results/ holding
`parent/` and `change/` result files written by
`python3 servebench/run.py --workload W --seed N --seconds 25 --trace T`.
Runs of the two sides with the same workload, seed and trace level form a
pair. For every workload the file records, per end-to-end metric, the median
and quartiles of each side over the untraced runs and how many pairs the
change won; for traced pairs it records both sides' per-layer values. The
A/A spread of each metric comes from servebench/aa_noise.json (the larger of
its two sets). To add a perf-trajectory entry, append it to ENTRIES and
rerun the script.
"""

import glob
import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ENTRIES = [
    {
        "entry": 11,
        "change": "Columnar histogram scans answered from cached per-value counts",
        "dir": "value-counts",
        "claimed": {"scan-churn": ["rel_per_s", "req_p50_us"]},
    },
    {
        "entry": 13,
        "change": "Branch-free clamp and median de-bias on the OsdpLaplaceL1 release path",
        "dir": "branch-free-clamp",
        "claimed": {"recover-heal": ["rel_per_s"]},
    },
    {
        "entry": 14,
        "change": "Bulk ChaCha12 keystream written 16 blocks at a time on AVX-512F CPUs",
        "dir": "wide-keystream",
        "claimed": {"recover-heal": ["rel_per_s"]},
    },
    {
        "entry": 15,
        "change": "Four osdp-bench serving benches and SyncPolicy::OnDrop retired (no gain claimed)",
        "dir": "one-serving-bench",
        "claimed": {},
    },
    {
        "entry": 16,
        "change": "Audit history kept as 16-byte stamped rows over a per-shard key table",
        "dir": "compact-audit",
        "claimed": {"grant-inmem": ["mem_bytes_per_release"]},
    },
    {
        "entry": 17,
        "change": "One branch-free ln for the noise kernels, block loop vectorised on AVX-512F",
        "dir": "noise-ln",
        "claimed": {"recover-heal": ["rel_per_s"]},
    },
]


def quartiles(values):
    """Median and quartiles as servebench/aa_noise.json computes them."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def load(directory):
    """Result files of one side, keyed by (workload, trace, seed)."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            run = json.load(f)
        runs[(run["workload"], run["trace"], run["seed"])] = run
    return runs


def summarize(entry, spec, noise):
    base = os.path.join(ROOT, "bench-results", entry["dir"])
    parent, change = load(os.path.join(base, "parent")), load(os.path.join(base, "change"))
    pairs = sorted(set(parent) & set(change))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = {}
    for workload in sorted({key[0] for key in pairs}):
        untraced = [key for key in pairs if key[0] == workload and key[1] == 0]
        traced = [key for key in pairs if key[0] == workload and key[1] == 1]
        runs = [parent[k] for k in untraced + traced] + [change[k] for k in untraced + traced]
        out = {
            "seeds": [key[2] for key in untraced],
            "pairs": len(untraced),
            "available_parallelism": sorted({r["available_parallelism"] for r in runs}),
            "all_correct": all(r["correct"] for r in runs),
            "failed": {
                "parent": sum(parent[k]["failed"] for k in untraced),
                "change": sum(change[k]["failed"] for k in untraced),
            },
            "end_to_end": {},
        }
        for metric in [m["name"] for m in spec["end_to_end"]]:
            if not untraced:
                break
            a = [parent[k]["metrics"][metric]["value"] for k in untraced]
            b = [change[k]["metrics"][metric]["value"] for k in untraced]
            sign = 1 if better[metric] == "higher" else -1
            aa = noise["workloads"][workload]["metrics"].get(metric, {})
            out["end_to_end"][metric] = {
                "parent": quartiles(a),
                "change": quartiles(b),
                "change_wins": sum(sign * (y - x) > 0 for x, y in zip(a, b)),
                "aa_spread": max(aa.get("spread_a", 0.0), aa.get("spread_b", 0.0)),
            }
        for key in traced:
            names = [n for n in change[key]["metrics"] if n in better and n in parent[key]["metrics"]]
            out.setdefault("traced", {})[f"seed{key[2]}"] = {
                n: {
                    "parent": parent[key]["metrics"][n]["value"],
                    "change": change[key]["metrics"][n]["value"],
                }
                for n in names
            }
        workloads[workload] = out
    return {
        "entry": entry["entry"],
        "change": entry["change"],
        "results": f"bench-results/{entry['dir']}/",
        "claimed": entry["claimed"],
        "workloads": workloads,
    }


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(ROOT, "servebench", "aa_noise.json")) as f:
        noise = json.load(f)
    doc = {
        "what": "Per-PR servebench results: medians and quartiles of alternating parent/change pairs",
        "command": "python3 servebench/run.py --workload W --seed N --seconds 25 --trace T",
        "quartiles": "Python statistics.quantiles(n=4), as in servebench/aa_noise.json",
        "aa_spread": "(q3 - q1) / median of one A/A set; the larger of servebench/aa_noise.json's two sets",
        "aa_machine": noise["machine"],
        "entries": [summarize(entry, spec, noise) for entry in ENTRIES],
    }
    with open(os.path.join(ROOT, "BENCH_servebench.json"), "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
