#!/usr/bin/env python3
"""Name the metrics that moved between two sets of benchmark runs.

    python3 perfbench/diff.py A.jsonl B.jsonl

Each file holds the stdout of one or more runs of perfbench/run.py,
appended one after another (A: the parent, B: the change). Runs are
grouped by workload and mode (traced or untraced); within each group,
every metric that both sides report gets a row with its median on each
side, the change, and the spread of A's own runs (distance between
quartiles over median). A metric has moved when its medians differ by
more than that spread; with fewer than two runs on a side the spread is
unknown and the row reads "unresolved". Run each side several times,
with different seeds, for a verdict. Host fingerprints are compared too:
a different OCaml version or a calibration loop more than 10% apart
means the two sides ran on different hosts.
"""

import json
import statistics
import sys


def load(path):
    """{(workload, trace): [(detail, result), ...]} from one file."""
    groups, detail = {}, None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "workload" in obj:
                detail = obj
            elif "metrics" in obj and detail is not None:
                key = (detail["workload"], detail["trace"])
                groups.setdefault(key, []).append((detail, obj))
                detail = None
    return groups


def spread(values):
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def host_notes(runs_a, runs_b):
    notes = []
    for field in ("ocaml", "system", "machine"):
        va = {d["host"].get(field) for d, _ in runs_a}
        vb = {d["host"].get(field) for d, _ in runs_b}
        if va != vb:
            notes.append("host %s differs: %s vs %s" % (field, sorted(map(str, va)),
                                                        sorted(map(str, vb))))
    ca = statistics.median(d["host"]["calibration_ns"] for d, _ in runs_a)
    cb = statistics.median(d["host"]["calibration_ns"] for d, _ in runs_b)
    if abs(cb - ca) > 0.1 * ca:
        notes.append("calibration loop %.0f ns vs %.0f ns: different host speed" % (ca, cb))
    return notes


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    a, b = load(sys.argv[1]), load(sys.argv[2])
    moved = []
    for key in sorted(set(a) & set(b)):
        workload, trace = key
        runs_a, runs_b = a[key], b[key]
        print("== %s (%s) — %d runs vs %d runs" % (
            workload, "traced" if trace else "untraced", len(runs_a), len(runs_b)))
        for note in host_notes(runs_a, runs_b):
            print("   note: " + note)
        print("   %-30s %14s %14s %8s %8s  %s" % (
            "metric", "median A", "median B", "change", "spread", "verdict"))
        names = [n for n in runs_a[0][1]["metrics"] if n in runs_b[0][1]["metrics"]]
        for name in names:
            xa = [r["metrics"][name]["value"] for _, r in runs_a if name in r["metrics"]]
            xb = [r["metrics"][name]["value"] for _, r in runs_b if name in r["metrics"]]
            ma, mb = statistics.median(xa), statistics.median(xb)
            change = (mb - ma) / abs(ma) if ma else float("inf") if mb != ma else 0.0
            sa = spread(xa)
            if sa is None or len(xb) < 2:
                verdict = "unresolved"
            elif abs(mb - ma) > sa * abs(ma):
                verdict = "moved"
                moved.append("%s %s" % (workload, name))
            else:
                verdict = "within spread"
            print("   %-30s %14.6g %14.6g %+7.1f%% %8s  %s" % (
                name, ma, mb, 100 * change, "-" if sa is None else "%.3f" % sa, verdict))
    for key in sorted(set(a) ^ set(b)):
        print("== %s (%s) appears on one side only" % (key[0], "traced" if key[1] else "untraced"))
    print("\nmoved beyond their spread: " + (", ".join(moved) if moved else "none"))


if __name__ == "__main__":
    main()
