"""Repeat the benchmark over seeds and summarize it.

    python3 perfbench/campaign.py --seeds 1-10 --out perfbench/baseline.json

Runs ``run.py`` untraced once per seed and workload, one process after
another, plus (with ``--traced-seed``) one traced run per workload.  For
each end-to-end metric it reports the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(q3 - q1) / median against the metric's bound from BENCHMARK.json.
With ``--compare`` it also checks that no median is worse than the
compared summary's by more than the bound.  For traced runs it adds the
share of the traced wall time spent in the layers each workload is
meant to stress.
"""
from __future__ import annotations

import argparse
import gzip
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import RUNS_DIR  # noqa: E402

# span-name prefixes whose outermost spans make up each workload's
# stressed share of the traced wall time
STRESSED = {
    "exact-duality": {
        "bp_build": ("backward.enumerate_transitions",
                     "exact.build_bp_generator"),
        "expm_apply": ("exact.expm_apply",),
    },
    "conditioned-lines": {"expm_apply": ("exact.expm_apply",)},
    "forward-survival": {"forward": ("forward.",)},
}


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def covered_s(spans, prefixes) -> float:
    """Duration of matching spans that have no matching ancestor."""
    def match(name):
        return name.startswith(prefixes)

    total = 0.0
    for name, start, end, parent, _step, _self in spans:
        if not match(name):
            continue
        p = parent
        while p >= 0 and not match(spans[p][0]):
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total


def stressed_shares(workload, seed) -> dict:
    path = os.path.join(RUNS_DIR, f"{workload}-seed{seed}-trace.json.gz")
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        record = json.load(fh)
    spans = record["spans"]
    wall = sum(end - start for name, start, end, *_ in spans
               if name.startswith("step."))
    untraced = statistics.median(sum(r.values())
                                 for r in record["untraced_reps"])
    out = {"traced_wall_s": wall, "untraced_wall_s": untraced}
    for label, prefixes in STRESSED[workload].items():
        s = covered_s(spans, prefixes)
        out[label] = {"s": s, "share_of_traced_wall": s / wall,
                      "share_of_untraced_wall": s / untraced}
    out["layers_s"] = record["summaries"][0]["layers"]
    out["run"] = {k: record[k] for k in ("commit", "nproc", "python", "numpy",
                                         "scipy", "workers", "host.ref_loop_s")}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--traced-seed", type=int)
    ap.add_argument("--compare", help="earlier summary to compare medians with")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    earlier = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)

    summary = {"seconds": seconds, "seeds": parse_seeds(args.seeds),
               "workloads": {}}
    ok = True
    for w in workloads:
        runs = []
        for seed in summary["seeds"]:
            res = run_once(w, seed, seconds, 0)
            runs.append({"seed": seed, "failed": res["failed"],
                         "attempted": res["attempted"],
                         "metrics": {k: v["value"]
                                     for k, v in res["metrics"].items()}})
            print(f"{w} seed {seed}: failed {res['failed']}/"
                  f"{res['attempted']}", flush=True)
        table = {}
        for name, bound in bounds.items():
            vals = [r["metrics"][name] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            row = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                   "bound": bound, "within_bound": spread <= bound,
                   "steady": spread < bound / 3}
            if name != "setup_s":
                ok &= row["steady"]
            if earlier is not None:
                before = earlier["workloads"][w]["end_to_end"][name]["median"]
                row["vs_compared"] = med / before - 1.0
                row["median_within_bound"] = med <= before * (1.0 + bound)
                ok &= row["median_within_bound"]
            table[name] = row
            print(f"  {name:<12} median {med:10.4f}  spread {spread:6.3f}  "
                  f"bound {bound}" + (f"  vs compared {row['vs_compared']:+.3f}"
                                      if earlier is not None else ""))
        entry = {"runs": runs, "end_to_end": table,
                 "error_rate": sum(r["failed"] for r in runs)
                 / sum(r["attempted"] for r in runs)}
        ok &= entry["error_rate"] == 0
        if args.traced_seed is not None:
            res = run_once(w, args.traced_seed, seconds, 1)
            entry["traced"] = {
                "seed": args.traced_seed, "failed": res["failed"],
                "per_layer": {k: v["value"] for k, v in res["metrics"].items()},
                "stressed": stressed_shares(w, args.traced_seed)}
            print(f"  traced: {json.dumps(entry['traced']['stressed'])}")
        summary["workloads"][w] = entry
    summary["steady"] = ok
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
