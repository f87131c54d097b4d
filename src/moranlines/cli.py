"""Command-line experiment runner.

Each subcommand names an experiment; the model and run settings come
from a JSON config file, with seed and output directory overridable on
the command line.  Every run writes CSV outputs plus a long-format
plotdata.csv, then finalizes a manifest.csv (config hash, package
version, wall time, per-output checksums) atomically so a complete
manifest implies complete outputs.  Output bodies are deterministic for
a fixed config: reruns are byte-identical, and replicate randomness
comes from counter-based streams keyed (seed, k) for replicate block k,
except for forward-distance at S = 0, whose pair tracer draws every
replicate from one stream keyed seed in a single process, whatever the
worker count.  The worker count never changes results.

Exit codes: 0 success, 2 validation failure, 3 exceeded numerical or
state budget, 4 numerical failure (a solver failed or a computed
identity, such as the harmonic check of h, missed its tolerance).
"""
from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .model import (BudgetError, ModelParams, ParamError, validate_params,
                    wf_single_moment)
from .backward import canonical_start
from .exact import _check_type_chain, duality_reports
from .forward import (BLOCK_REPS, genealogical_distance, init_forest,
                      neutral_pair_distance_samples, pair_block_count,
                      pair_distance_samples, run_until)
from .transformed import conditioned_coalescence_times
from .reduced import (CatChainSpec, DistChainSpec, Y_STATES, cat_equilibrium,
                      chains_vs_bp, dist_survival, dist_taylor_coeffs)

__all__ = ["ExperimentConfig", "RunManifest", "load_config", "run_experiment",
           "emit_plotdata", "main"]

REPLICATE_CAP = 1_000_000  # most replicates one run may ask for
CONFIG_KEYS = ("experiment", "model", "horizon", "times", "replicates", "seed",
               "out", "workers", "tagged", "nu", "ns", "order")
MODEL_KEYS = ("N", "d", "B", "b", "S", "chi")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    model: ModelParams
    horizon: float
    times: tuple
    replicates: int
    seed: int
    out_dir: str
    workers: int = 1
    tagged: dict = field(default_factory=dict)
    nu: tuple | None = None
    ns: tuple = (0,)
    order: int = 3


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParamError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParamError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParamError("config must be a JSON object")
    return raw


def _model_from(raw: dict) -> ModelParams:
    try:
        m = raw["model"]
        N, d = int(m["N"]), int(m["d"])
        B, S = float(m["B"]), float(m["S"])
        b_raw = m["b"]
        chi = tuple(float(x) for x in m["chi"])
    except KeyError as exc:
        raise ParamError(f"config missing model key {exc}") from exc
    for key in m:
        if key not in MODEL_KEYS:
            raise ParamError(f"unknown config key 'model.{key}'")
    if b_raw and isinstance(b_raw[0], (list, tuple)):
        b = tuple(tuple(float(x) for x in row) for row in b_raw)
    else:
        flat = [float(x) for x in b_raw]
        if len(flat) != d * d:
            raise ParamError("row-major b must have d*d entries")
        b = tuple(tuple(flat[r * d:(r + 1) * d]) for r in range(d))
    return validate_params(ModelParams(N=N, d=d, B=B, b=b, S=S, chi=chi))


def resolve_config(raw: dict, experiment: str, seed=None, out=None,
                   workers=None) -> ExperimentConfig:
    """Merge the config file with command-line overrides and validate."""
    try:
        return _resolve(raw, experiment, seed, out, workers)
    except (TypeError, AttributeError, OverflowError) as exc:
        # a value of the wrong JSON type, or an infinite integer
        raise ParamError(f"malformed config: {exc}") from exc


def _resolve(raw, experiment, seed, out, workers) -> ExperimentConfig:
    if experiment not in EXPERIMENTS:
        raise ParamError("unknown experiment")
    cfg_exp = raw.get("experiment")
    if cfg_exp is not None and cfg_exp != experiment:
        raise ParamError("experiment mismatch between command and config")
    for key in raw:
        if key not in CONFIG_KEYS:
            raise ParamError(f"unknown config key '{key}'")
    model = _model_from(raw)
    horizon = float(raw.get("horizon", 1.0))
    times = tuple(float(t) for t in raw.get("times", ()))
    if not all(math.isfinite(t) for t in (horizon, *times)):
        raise ParamError("horizon and times must be finite")
    if horizon < 0.0:
        raise ParamError("horizon must be nonnegative")
    if any(t < 0.0 for t in times):
        raise ParamError("times must be nonnegative")
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ParamError("time grid must be strictly increasing")
    replicates = int(raw.get("replicates", 1))
    if replicates < 1:
        raise ParamError("replicate count must be at least 1")
    if replicates > REPLICATE_CAP:
        raise BudgetError("replicate count above its cap")
    cfg_seed = int(seed if seed is not None else raw.get("seed", 0))
    if not 0 <= cfg_seed < 2**64:
        raise ParamError("seed must be an integer in [0, 2**64)")
    out_dir = str(out if out is not None else raw.get("out", "results"))
    n_workers = int(workers if workers is not None else raw.get("workers", 1))
    if n_workers < 1:
        raise ParamError("workers must be at least 1")
    tagged = {int(k): int(v) for k, v in raw.get("tagged", {}).items()}
    nu = tuple(float(x) for x in raw["nu"]) if "nu" in raw else None
    ns = tuple(int(n) for n in raw.get("ns", (0,)))
    if not ns:
        raise ParamError("ns must list at least one pinned count")
    order = int(raw.get("order", 3))
    return ExperimentConfig(experiment=experiment, model=model,
                            horizon=horizon, times=times,
                            replicates=replicates, seed=cfg_seed,
                            out_dir=out_dir, workers=n_workers, tagged=tagged,
                            nu=nu, ns=ns, order=order)


def config_hash(cfg: ExperimentConfig) -> str:
    """sha256 of the resolved settings that can change an output."""
    fields = asdict(cfg)
    del fields["out_dir"], fields["workers"]
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path: str, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])


def emit_plotdata(path: str, rows):
    """Long-format plot file: one (series, x, y) row per point."""
    rows = list(rows)
    if not rows:
        raise ParamError("no plot points to emit")
    _write_csv(path, ("series", "x", "y"), rows)


@dataclass(frozen=True)
class RunManifest:
    config_hash: str
    version: str
    wall_time_s: float
    checksums: tuple  # ((filename, sha256), ...)

    def write(self, out_dir: str):
        """Write manifest.csv atomically: temp file, then rename."""
        rows = [("config_hash", self.config_hash),
                ("version", self.version),
                ("wall_time_s", f"{self.wall_time_s:.3f}")]
        rows.extend((f"output:{name}", digest)
                    for name, digest in self.checksums)
        fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=".manifest-",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(("key", "value"))
                w.writerows(rows)
            os.replace(tmp, os.path.join(out_dir, "manifest.csv"))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _start_law(cfg: ExperimentConfig):
    if cfg.nu is not None:
        if len(cfg.nu) != cfg.model.d:
            raise ParamError("nu must have one weight per type")
        return np.asarray(cfg.nu)
    return np.full(cfg.model.d, 1.0 / cfg.model.d)


# --- experiment bodies ---------------------------------------------------

def _exp_duality(cfg: ExperimentConfig, out: str) -> list:
    p = cfg.model
    times = cfg.times or (0.5, 1.0)
    _check_type_chain(p)  # before any N-site start state is built
    starts = [canonical_start(p, {0: u}) for u in range(p.d)]
    if p.N >= 2:
        starts += [canonical_start(p, {0: u, 1: v})
                   for u in range(p.d) for v in range(p.d)]
    mu = _start_law(cfg)
    reports = duality_reports(p, mu, starts, times)
    rows = [(k // len(times), r.t, r.lhs, r.rhs, r.gap)
            for k, r in enumerate(reports)]
    _write_csv(os.path.join(out, "duality.csv"),
               ("start", "t", "lhs", "rhs", "gap"), rows)
    worst = {}
    for r in reports:
        worst[r.t] = max(worst.get(r.t, 0.0), r.gap)
    emit_plotdata(os.path.join(out, "plotdata.csv"),
                  [("duality-gap", t, g) for t, g in sorted(worst.items())])
    return ["duality.csv", "plotdata.csv"]


def _write_survival(out: str, name: str, series: str, times, survives):
    """Write the survival estimate and its standard error per time t, from
    the replicate indicators survives(t), and plot the estimates."""
    rows = []
    for t in times:
        ind = survives(t)
        est = float(ind.mean())
        se = float(ind.std(ddof=1) / np.sqrt(len(ind))) if len(ind) > 1 else 0.0
        rows.append((t, est, se))
    _write_csv(os.path.join(out, name), ("t", "survival", "se"), rows)
    emit_plotdata(os.path.join(out, "plotdata.csv"),
                  [(series, t, est) for t, est, _se in rows])


def _fan_out(chunk_fn, args: tuple, blocks: int, workers: int) -> np.ndarray:
    """chunk_fn(*args, block_indices) over blocks 0..blocks-1, split into
    contiguous runs across at most `workers` processes, and at most one
    per CPU: the pool starts all its processes at once.  A block of
    replicates seeds its own stream, and the runs come back in block
    order, so the worker count never changes the result."""
    workers = min(workers, blocks, os.cpu_count() or 1)
    if workers <= 1:
        return np.array(chunk_fn(*args, range(blocks)), dtype=float)
    bounds = [blocks * k // workers for k in range(workers + 1)]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        parts = ex.map(functools.partial(chunk_fn, *args),
                       [range(a, b) for a, b in zip(bounds, bounds[1:])])
        return np.concatenate([np.array(part, dtype=float) for part in parts])


def _exp_forward_distance(cfg: ExperimentConfig, out: str) -> list:
    p = cfg.model
    if p.N < 2:
        raise ParamError("population of at least two required")
    T = cfg.horizon
    reps = cfg.replicates
    times = cfg.times or (0.5,)

    if p.S == 0.0:
        dists = neutral_pair_distance_samples(p.N, T, reps, cfg.seed)
    else:
        # counting the blocks refuses a population too large for the
        # dense budget before any worker starts
        dists = _fan_out(pair_distance_samples, (p, T, reps, cfg.seed),
                         pair_block_count(p.N, reps), cfg.workers)

    _write_survival(out, "distance_survival.csv", "distance-survival",
                    times, lambda t: dists > 2.0 * t)

    # one forest run's full event trace and distance matrix, for
    # inspection; its stream is keyed (seed, 0), like the first block's
    rng = np.random.Generator(np.random.Philox(key=(cfg.seed, 0)))
    types = [int(u) for u in rng.integers(0, p.d, size=p.N)]
    forest = init_forest(p, 0.0, types)
    trace: list = []
    run_until(forest, p, T, rng, trace=trace)
    trace_rows = [(e.time, e.kind, e.src, e.dst) for e in trace]
    _write_csv(os.path.join(out, "trace.csv"),
               ("time", "kind", "src", "dst"), trace_rows)
    dist_rows = [[i] + [genealogical_distance(forest, i, j)
                        for j in range(p.N)] for i in range(p.N)]
    _write_csv(os.path.join(out, "distances.csv"),
               ["site"] + list(range(p.N)), dist_rows)
    return ["distance_survival.csv", "trace.csv", "distances.csv",
            "plotdata.csv"]


def _exp_conditioned(cfg: ExperimentConfig, out: str) -> list:
    p = cfg.model
    T = cfg.horizon
    times = cfg.times or (0.5,)
    tagged = cfg.tagged or {0: 0, 1: 0}
    if any(not (0 <= j < p.N) for j in tagged):
        raise ParamError("tagged sites must lie in the population")
    nu = _start_law(cfg)
    sigmas = _fan_out(conditioned_coalescence_times,
                      (p, T, cfg.replicates, cfg.seed, tagged, nu),
                      -(-cfg.replicates // BLOCK_REPS), cfg.workers)

    _write_survival(out, "conditioned_survival.csv", "conditioned-survival",
                    times, lambda t: sigmas > t)
    return ["conditioned_survival.csv", "plotdata.csv"]


def _exp_cat_equilibrium(cfg: ExperimentConfig, out: str) -> list:
    p = cfg.model
    rows = []
    plot = []
    fin = cat_equilibrium(CatChainSpec.finite_n(p))
    for (u, n), prob in zip(fin.states, fin.pi):
        rows.append(("finite", u, n, float(prob)))
    plot.extend([("cat-marginal", u, fin.marginal[u]) for u in (0, 1)])
    lim = cat_equilibrium(CatChainSpec.limit(p))
    for (u, n), prob in zip(lim.states, lim.pi):
        rows.append(("limit", u, n, float(prob)))
    plot.extend([("cat-marginal-limit", u, lim.marginal[u]) for u in (0, 1)])
    _write_csv(os.path.join(out, "cat_equilibrium.csv"),
               ("mode", "u", "n", "probability"), rows)
    emit_plotdata(os.path.join(out, "plotdata.csv"), plot)
    return ["cat_equilibrium.csv", "plotdata.csv"]


def _exp_survival_table(cfg: ExperimentConfig, out: str) -> list:
    p = cfg.model
    times = cfg.times or (0.25, 0.5, 1.0, 2.0)
    spec = DistChainSpec.limit(p)
    table = dist_survival(spec, times, cfg.ns)
    f_rows = [(y, n, t, table.f_value(y, n, t))
              for y in Y_STATES for n in cfg.ns for t in times]
    _write_csv(os.path.join(out, "survival.csv"), ("y", "n", "t", "f"), f_rows)
    pf_rows = [(n, t, table.pf_value(n, t)) for n in cfg.ns for t in times]
    _write_csv(os.path.join(out, "pf.csv"), ("n", "t", "value"), pf_rows)
    max_order = max(cfg.ns) + 4
    m_rows = [(n, m, wf_single_moment(p, n, m))
              for n in range(max_order + 1) for m in range(max_order + 1 - n)]
    _write_csv(os.path.join(out, "moments.csv"), ("n", "m", "value"), m_rows)
    plot = [(f"f-{y}-n{n}", t, table.f_value(y, n, t))
            for y in Y_STATES for n in cfg.ns for t in times]
    plot += [(f"pf-n{n}", t, table.pf_value(n, t))
             for n in cfg.ns for t in times]
    emit_plotdata(os.path.join(out, "plotdata.csv"), plot)
    return ["survival.csv", "pf.csv", "moments.csv", "plotdata.csv"]


def _exp_taylor(cfg: ExperimentConfig, out: str) -> list:
    p = cfg.model
    spec = DistChainSpec.limit(p)
    n = cfg.ns[0]
    coeffs = dist_taylor_coeffs(spec, n=n, order=cfg.order)
    rows = [(f"pf{k}", c) for k, c in enumerate(coeffs.pf)]
    rows += [(f"df-{y}", s) for y, s in sorted(coeffs.f_slope.items())]
    _write_csv(os.path.join(out, "taylor.csv"), ("coefficient", "value"), rows)
    emit_plotdata(os.path.join(out, "plotdata.csv"),
                  [("taylor", k, c) for k, c in enumerate(coeffs.pf)])
    return ["taylor.csv", "plotdata.csv"]


def _exp_cross_check(cfg: ExperimentConfig, out: str) -> list:
    p = cfg.model
    chains = ("cat", "dist") if p.N >= 3 else ("cat",)
    reports = chains_vs_bp(p, cfg.times or (0.5, 1.0), chains)
    _write_csv(os.path.join(out, "crosscheck.csv"),
               ("chain", "t", "max_gap"),
               [(r.chain, r.t, r.max_gap) for r in reports])
    emit_plotdata(os.path.join(out, "plotdata.csv"),
                  [("cross-check-gap", r.t, r.max_gap) for r in reports])
    return ["crosscheck.csv", "plotdata.csv"]


_RUNNERS = {
    "duality-sweep": _exp_duality,
    "forward-distance": _exp_forward_distance,
    "conditioned-distance": _exp_conditioned,
    "cat-equilibrium": _exp_cat_equilibrium,
    "survival-table": _exp_survival_table,
    "taylor-report": _exp_taylor,
    "cross-check": _exp_cross_check,
}
EXPERIMENTS = tuple(_RUNNERS)


def run_experiment(cfg: ExperimentConfig) -> RunManifest:
    """Run one experiment, write its outputs, and finalize the manifest."""
    started = time.monotonic()
    os.makedirs(cfg.out_dir, exist_ok=True)
    files = _RUNNERS[cfg.experiment](cfg, cfg.out_dir)
    checksums = tuple(
        (name, _sha256_file(os.path.join(cfg.out_dir, name)))
        for name in sorted(files))
    manifest = RunManifest(config_hash=config_hash(cfg), version=__version__,
                           wall_time_s=time.monotonic() - started,
                           checksums=checksums)
    manifest.write(cfg.out_dir)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="moranlines",
        description="finite-population lineage experiments")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True,
                        help="JSON config file")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--out", default=None,
                        help="override the output directory")
        sp.add_argument("--workers", type=int, default=None,
                        help="parallel replicate workers")
    args = parser.parse_args(argv)

    try:
        raw = load_config(args.config)
        cfg = resolve_config(raw, args.experiment, seed=args.seed,
                             out=args.out, workers=args.workers)
        manifest = run_experiment(cfg)
    except (ParamError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    print(f"wrote {cfg.out_dir}/manifest.csv "
          f"(config {manifest.config_hash[:12]}, "
          f"{len(manifest.checksums)} outputs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
