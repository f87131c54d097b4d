"""Self-test of the benchmark.

    python3 perfbench/selftest.py [workload ...]

Run from the repository root.  For each workload (default: all) it
makes one untraced and two traced runs on one seed and checks that

* BENCHMARK.json lists exactly the metrics, units and directions that
  run.py and layers.py define;
* every listed metric is emitted with its unit, and the untraced run has
  no failed step;
* in the recorded traced repetition the self times of the spans under
  a step sum to no more than the step's span, and none is negative;
* every counter (unit ``count``) repeats exactly across the two traced
  runs;

and that run.py exits non-zero without a result line in a directory
that holds only BENCHMARK.json and the benchmark's files.
"""
from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from run import END_TO_END, RUNS_DIR  # noqa: E402

SEED = 7
SECONDS = 1  # at least one repetition of each kind
failures = []


def check(cond: bool, what: str):
    if not cond:
        failures.append(what)
        print(f"FAIL {what}", flush=True)


def run(workload, seconds, trace, cwd="."):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", str(seconds),
           "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=900)


def result_of(proc, what):
    check(proc.returncode == 0, f"{what}: exit code {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(res) == {"correct", "attempted", "failed", "metrics"},
          f"{what}: result keys {sorted(res)}")
    check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
          f"{what}: correct={res['correct']} failed={res['failed']}")
    return res


def check_units(res, expected, what):
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    check(got == expected, f"{what}: metric names or units differ from "
                           f"BENCHMARK.json")


def check_spans(workload, what):
    path = os.path.join(RUNS_DIR, f"{workload}-seed{SEED}-trace.json.gz")
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    step_span = {}
    child_self = {}
    for name, start, end, parent, step, self_s in spans:
        check(self_s >= -1e-9, f"{what}: negative self time in {name}")
        if name.startswith("step."):
            step_span[step] = end - start
        else:
            child_self[step] = child_self.get(step, 0.0) + self_s
    for step, dur in step_span.items():
        check(child_self.get(step, 0.0) <= dur + 1e-9,
              f"{what}: self times under {step} exceed its span")


def check_benchmark_json(bench):
    e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    check(e2e == {n: (u, "lower") for n, u in END_TO_END},
          "BENCHMARK.json end_to_end differs from run.END_TO_END")
    pl = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    check(pl == list(layers.PER_LAYER),
          "BENCHMARK.json per_layer differs from layers.PER_LAYER")


def check_bare_directory(workload):
    """Without the package sources run.py must refuse to produce a result."""
    bare = os.path.abspath(os.path.join(RUNS_DIR, "bare"))
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(workload, SECONDS, 0, cwd=bare)
        check(proc.returncode != 0, "bare directory: exit code 0")
        check(not proc.stdout.strip(), "bare directory: printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    check_benchmark_json(bench)
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    pl_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    check_bare_directory(workloads[0])

    for w in workloads:
        res = result_of(run(w, SECONDS, 0), f"{w} untraced")
        check_units(res, e2e_units, f"{w} untraced")
        check(all(v["value"] > 0 for v in res["metrics"].values()),
              f"{w} untraced: an end-to-end metric is not positive")
        counts = []
        for k in (1, 2):
            res = result_of(run(w, SECONDS, 1), f"{w} traced #{k}")
            check_units(res, pl_units, f"{w} traced #{k}")
            check_spans(w, f"{w} traced #{k}")
            counts.append({n: v["value"] for n, v in res["metrics"].items()
                           if v["unit"] == "count"})
        diff = sorted(n for n in counts[0] if counts[0][n] != counts[1][n])
        check(not diff, f"{w}: counters differ across traced runs: {diff}")
        print(f"{w}: checked", flush=True)

    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
