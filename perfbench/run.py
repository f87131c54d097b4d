"""Benchmark runner for moranlines.

Run from the repository root:

    python3 perfbench/run.py --workload exact-duality --seed 1 \\
        --seconds 35 --trace 0

The workload's inputs are drawn from ``--seed`` (see workloads.py); the
program receives only the generated configs.  The measured phase
repeats the workload's step list, one repetition after another, while
the next repetition is predicted to finish within ``--seconds`` (at
least one; in a traced run at least one traced and one untraced).
Every figure is the median over repetitions.  Each step runs in process
with ``workers = 1``, from an emptied ``lru_cache`` and a collected
heap, as a fresh CLI process would see it.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
traced and untraced repetitions and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record
(commit, seed, host, versions, per-repetition figures, and in a traced
run the spans of the first traced repetition) is written under
``.perfbench_runs/`` in the working directory, gzipped when traced.
"""
from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

SETUP_SAMPLES = 3
RUNS_DIR = ".perfbench_runs"

# end-to-end metrics, reported by every workload from untraced
# repetitions; stepK_s is the K-th timed step of the workload
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("step1_s", "s"),
    ("step2_s", "s"),
    ("step3_s", "s"),
)


def ref_loop_s() -> float:
    """Time of a fixed pure-Python loop, a probe of host speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def git_commit(root: str) -> str:
    """HEAD of the repository at root, or "unknown" outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_samples(args) -> list:
    """Wall time of fresh processes that import the package and generate
    and resolve the workload's configs, then exit."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise RuntimeError("setup process failed")
        out.append(elapsed)
    return out


def run_repetition(steps, tracer=None):
    """One pass over the step list.

    Returns ({step: s}, failures); a step fails when it raises or exits,
    or when its oracle rejects its output.
    """
    import workloads
    from moranlines import model

    times = {}
    failures = []
    for step in steps:
        model._log_raw_moment.cache_clear()
        gc.collect()
        if tracer is not None:
            tracer.step = step.name
            tracer.open("step." + step.name)
        t0 = time.perf_counter()
        try:
            result = workloads.run_step(step)
        except (Exception, SystemExit):
            result = None
            failures.append((step.name, traceback.format_exc(limit=3)))
        times[step.name] = time.perf_counter() - t0
        if tracer is not None:
            tracer.close()
            tracer.step = None
        if result is not None:
            try:
                workloads.check_step(step, result)
            except Exception as exc:
                failures.append((step.name, f"{type(exc).__name__}: {exc}"))
    return times, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "moranlines", "__init__.py")):
        print("perfbench: no moranlines sources under ./src; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    runs_dir = os.path.join(root, RUNS_DIR)
    out_root = os.path.join(runs_dir, f"out-{os.getpid()}")

    import workloads
    import moranlines
    if not os.path.abspath(moranlines.__file__).startswith(src + os.sep):
        print("perfbench: imported moranlines from outside ./src",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.make_steps(args.workload, args.seed, out_root)
        return 0

    ref_before = ref_loop_s()
    try:
        setup = setup_samples(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import numpy
    import scipy
    import tracer as tracing

    steps = workloads.make_steps(args.workload, args.seed, out_root)
    timed = [s.name for s in steps if s.timed]

    untraced, traced, summaries = [], [], []
    spans = None
    attempted = 0
    failures = []
    deadline = time.perf_counter() + args.seconds
    last = {}
    try:
        while True:
            want_trace = args.trace == 1 and len(traced) <= len(untraced)
            enough = untraced and (traced or args.trace == 0)
            predicted = last.get(want_trace, max(last.values(), default=0.0))
            if enough and time.perf_counter() + predicted > deadline:
                break
            t0 = time.perf_counter()
            if want_trace:
                tr = tracing.Tracer()
                tr.install()
                try:
                    times, fails = run_repetition(steps, tr)
                finally:
                    tr.uninstall()
                traced.append(times)
                summaries.append(tracing.summarize(tr))
                if spans is None:
                    spans = tr.spans
            else:
                times, fails = run_repetition(steps)
                untraced.append(times)
            last[want_trace] = time.perf_counter() - t0
            attempted += len(steps)
            failures.extend(fails)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    ref_after = ref_loop_s()

    def wall(reps):
        return statistics.median(sum(r.values()) for r in reps)

    def step_median(reps, name):
        return statistics.median(r[name] for r in reps)

    ref = (ref_before + ref_after) / 2.0
    labels = {}
    if args.trace == 0:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall(untraced),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for k, name in enumerate(timed, 1):
            metrics[f"step{k}_s"] = step_median(untraced, name)
            labels[f"step{k}_s"] = f"{name}_s (step{k}_s)"
        units = dict(END_TO_END)
    else:
        import layers
        metrics = layers.per_layer(summaries, ref,
                                   wall(traced) - wall(untraced))
        units = dict((n, u) for n, u, _ in layers.PER_LAYER)

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(root), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "workers": 1,
        "host.ref_loop_s": {"before": ref_before, "after": ref_after},
        "setup_samples_s": setup,
        "steps": [s.name for s in steps], "timed_steps": timed,
        "configs": {s.name: s.raw for s in steps},
        "untraced_reps": untraced, "traced_reps": traced,
        "failures": failures, "metrics": metrics,
    }
    if args.trace == 1:
        record["summaries"] = summaries
        record["spans"] = [list(sp) for sp in spans]
    os.makedirs(runs_dir, exist_ok=True)
    stem = os.path.join(runs_dir, f"{args.workload}-seed{args.seed}")
    if args.trace == 1:
        with gzip.open(stem + "-trace.json.gz", "wt", encoding="utf-8") as fh:
            json.dump(record, fh)
    else:
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(record, fh)

    # human-readable report: step metrics under their step names
    print(f"{args.workload} seed={args.seed} commit={record['commit'][:12]} "
          f"reps={len(untraced)}+{len(traced)} traced "
          f"host.ref_loop_s={ref:.4f}")
    for name, value in metrics.items():
        print(f"  {labels.get(name, name):<52} {value:.6g} {units[name]}")
    print(f"  {'error_rate':<52} {len(failures) / attempted:.6g} ratio")
    for name, msg in failures:
        print(f"  FAILED {name}: {msg.strip().splitlines()[-1]}",
              file=sys.stderr)

    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
