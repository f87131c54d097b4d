"""Seeded workloads of the moranlines benchmark and their oracles.

A workload is a fixed list of steps.  Each step is one CLI experiment,
run in process through ``moranlines.cli.resolve_config`` and
``run_experiment`` with one worker, or (``homogeneous-n3``) one library
call sequence the CLI never reaches.  The workload seed draws only the
model inputs that do not change the amount of work: the mutation rows
``b`` (one shared row for parent-independent steps), the interior of
``chi`` when d = 3, the type law ``nu`` and the config ``seed``.  Sizes, horizons, time grids
and replicate counts are constants here.

Every step has an oracle.  A step fails when it raises, when its
manifest is incomplete or a checksum does not match, or when its oracle
is out of tolerance; the runner counts the failure and goes on.
"""
from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from moranlines import cli
from moranlines.backward import canonical_start
from moranlines.model import ModelParams, validate_params
from moranlines import transformed

# Monte Carlo oracles compare against closed forms.  The acceptance gate
# uses |z| <= 3 at one fixed seed; here every run draws a fresh config
# seed, and over the hundreds of seeds a benchmark campaign draws, 3 would
# flag a correct program about once per hundred seeds.  At 5 the chance
# false alarm is below 1e-6 per comparison, while a bias of 5 standard
# errors (about 0.017 at 20,000 replicates) still fails.
Z_MAX = 5.0
EXACT_TOL = 1e-9       # duality and lumping gaps (criteria 01 and 05)
IDENTITY_TOL = 1e-10   # Taylor coefficients and neutral marginals (03, 04)

DUALITY_TIMES = (0.5, 1.0, 2.0)


class OracleError(Exception):
    """A step's output is missing, inconsistent or out of tolerance."""


@dataclass
class Step:
    """One unit of timed work.

    ``raw`` is the CLI config (``experiment`` set) or the library
    parameters (``experiment`` None).  ``timed`` steps get their own
    end-to-end metric; the others count only in ``wall_s``.
    """

    name: str
    experiment: str | None
    raw: dict
    check: Callable
    timed: bool = True
    resolved: object = field(default=None, repr=False)


# --- seeded inputs -------------------------------------------------------

def _row(rng, d: int) -> list:
    # 80% uniform, 20% Dirichlet(1).  The conditioned samplers' work
    # follows the rates: with Dirichlet rows floored at 0.05 the cold-cache
    # step built 560-821 tables over seeds 1-6, and even with half-uniform
    # rows the homogeneous step's time ranged over 1.66-2.25 s by seed.
    raw = 0.8 / d + 0.2 * rng.dirichlet(np.ones(d))
    return [float(x) for x in raw / raw.sum()]


def _rows(rng, d: int) -> list:
    return [_row(rng, d) for _ in range(d)]


def _pi_rows(rng, d: int = 2) -> list:
    row = _row(rng, d)
    return [list(row) for _ in range(d)]


def _chi(rng, d: int) -> list:
    if d == 2:
        return [0.0, 1.0]
    interior = np.sort(rng.uniform(0.4, 0.6, size=d - 2))
    return [0.0, *(float(x) for x in interior), 1.0]


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _model(N, d, B, S, b, chi) -> dict:
    return {"N": N, "d": d, "B": B, "S": S, "b": b, "chi": chi}


# --- output readers and generic checks -----------------------------------

def _read(out: str, name: str) -> list:
    with open(os.path.join(out, name), newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_manifest(out: str, manifest, cfg) -> None:
    """The manifest on disk lists every output with a matching sha256."""
    path = os.path.join(out, "manifest.csv")
    if not os.path.exists(path):
        raise OracleError("manifest.csv missing")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = dict(tuple(r) for r in list(csv.reader(fh))[1:])
    if rows.get("config_hash") != cli.config_hash(cfg):
        raise OracleError("manifest config hash does not match the config")
    listed = {k[len("output:"):]: v for k, v in rows.items()
              if k.startswith("output:")}
    if not listed or listed != dict(manifest.checksums):
        raise OracleError("manifest outputs incomplete")
    for name, digest in listed.items():
        with open(os.path.join(out, name), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != digest:
                raise OracleError(f"checksum mismatch for {name}")
    if any(f.startswith(".manifest-") for f in os.listdir(out)):
        raise OracleError("temporary manifest left behind")


def _survival_ok(values, what: str) -> None:
    """Values on an increasing time grid lie in [0, 1] and never rise."""
    vals = [float(v) for v in values]
    if not vals:
        raise OracleError(f"{what}: no survival values")
    if any(not (0.0 <= v <= 1.0) for v in vals):
        raise OracleError(f"{what}: survival outside [0, 1]")
    if any(b > a for a, b in zip(vals, vals[1:])):
        raise OracleError(f"{what}: survival increases in t")


def _z_ok(est: float, target: float, reps: int, what: str) -> None:
    se = math.sqrt(target * (1.0 - target) / reps)
    z = abs(est - target) / se
    if not z <= Z_MAX:
        raise OracleError(f"{what}: |z| = {z:.2f} exceeds {Z_MAX}")


# --- oracles ---------------------------------------------------------------

def _oracle_duality(out, cfg, result):
    rows = _read(out, "duality.csv")
    d = cfg.model.d
    if len(rows) != (d + d * d) * len(cfg.times):
        raise OracleError("duality.csv row count")
    worst = max(float(r["gap"]) for r in rows)
    if not worst <= EXACT_TOL:
        raise OracleError(f"duality gap {worst:.2e}")


def _oracle_cross_check(out, cfg, result):
    rows = _read(out, "crosscheck.csv")
    if len(rows) != 2 * len(cfg.times):
        raise OracleError("crosscheck.csv row count")
    worst = max(float(r["max_gap"]) for r in rows)
    if not worst <= EXACT_TOL:
        raise OracleError(f"lumping gap {worst:.2e}")


def _oracle_survival_file(name):
    def check(out, cfg, result):
        rows = _read(out, name)
        if len(rows) != len(cfg.times):
            raise OracleError(f"{name} row count")
        _survival_ok([r["survival"] for r in rows], name)
    return check


def _oracle_conditioned_closed_form(out, cfg, result):
    # N = 2, B = 0, S = 0, nu = (1/2, 1/2), both tags type 0 (criterion 06)
    T = cfg.horizon
    for r in _read(out, "conditioned_survival.csv"):
        t = float(r["t"])
        target = (math.exp(-t) - 0.5 * math.exp(-T)) / (1.0 - 0.5 * math.exp(-T))
        _z_ok(float(r["survival"]), target, cfg.replicates, f"t={t}")


def _oracle_neutral_distance(out, cfg, result):
    # neutral pair distance survives past 2t with probability e^{-t} (07)
    for r in _read(out, "distance_survival.csv"):
        t = float(r["t"])
        _z_ok(float(r["survival"]), math.exp(-t), cfg.replicates, f"t={t}")


def _oracle_survival_table(out, cfg, result):
    f_rows = _read(out, "survival.csv")
    for y in ("00", "11", "01"):
        for n in cfg.ns:
            _survival_ok([r["f"] for r in f_rows
                          if r["y"] == y and int(r["n"]) == n], f"f-{y}-n{n}")
    pf_rows = _read(out, "pf.csv")
    for n in cfg.ns:
        vals = [float(r["value"]) for r in pf_rows if int(r["n"]) == n]
        if len(vals) != len(cfg.times) or min(vals) < 0.0 \
                or any(b > a for a, b in zip(vals, vals[1:])):
            raise OracleError(f"pf-n{n} not a nonincreasing nonnegative column")


def _oracle_taylor(out, cfg, result):
    coeffs = {r["coefficient"]: float(r["value"])
              for r in _read(out, "taylor.csv")}
    for k, want in enumerate((1.0, -1.0, 1.0)):
        got = coeffs.get(f"pf{k}")
        if got is None or not abs(got - want) <= IDENTITY_TOL:
            raise OracleError(f"pf{k} = {got}, expected {want}")


def _oracle_cat_marginal(out, cfg, result):
    # at S = 0 the ancestor-type marginal is the mutation row (criterion 04)
    want = cfg.model.b[0]
    rows = _read(out, "cat_equilibrium.csv")
    for mode in ("finite", "limit"):
        marg = [0.0, 0.0]
        for r in rows:
            if r["mode"] == mode:
                marg[int(r["u"])] += float(r["probability"])
        gap = max(abs(marg[0] - want[0]), abs(marg[1] - want[1]))
        if not gap <= IDENTITY_TOL:
            raise OracleError(f"{mode} marginal gap {gap:.2e}")


def _oracle_homogeneous(out, params, sigmas):
    _survival_ok([float(np.mean(sigmas > t)) for t in params["times"]],
                 "homogeneous coalescence")


# --- steps -----------------------------------------------------------------

def _exact_duality(rng) -> list:
    return [
        Step("duality-d3", "duality-sweep", {
            "model": _model(3, 3, 1.0, 1.0, _rows(rng, 3), _chi(rng, 3)),
            "times": list(DUALITY_TIMES), "nu": _row(rng, 3),
            "seed": _seed(rng)}, _oracle_duality),
        Step("duality-n5", "duality-sweep", {
            "model": _model(5, 2, 1.0, 1.0, _rows(rng, 2), _chi(rng, 2)),
            "times": list(DUALITY_TIMES), "nu": _row(rng, 2),
            "seed": _seed(rng)}, _oracle_duality),
        Step("cross-check-n5", "cross-check", {
            "model": _model(5, 2, 1.0, 1.0, _pi_rows(rng), _chi(rng, 2)),
            "times": [0.5, 1.0], "seed": _seed(rng)}, _oracle_cross_check),
    ]


def _conditioned_lines(rng) -> list:
    return [
        Step("conditioned-d3", "conditioned-distance", {
            "model": _model(4, 3, 1.0, 1.0, _rows(rng, 3), _chi(rng, 3)),
            "horizon": 1.0, "times": [0.25, 0.5, 1.0], "replicates": 3000,
            "tagged": {"0": 0, "1": 2}, "nu": _row(rng, 3),
            "seed": _seed(rng)},
            _oracle_survival_file("conditioned_survival.csv")),
        Step("conditioned-n2", "conditioned-distance", {
            "model": _model(2, 2, 0.0, 0.0, _rows(rng, 2), _chi(rng, 2)),
            "horizon": 2.0, "times": [0.5, 1.0], "replicates": 20000,
            "tagged": {"0": 0, "1": 0}, "nu": [0.5, 0.5],
            "seed": _seed(rng)}, _oracle_conditioned_closed_form),
        Step("homogeneous-n3", None, {
            "model": _model(3, 2, 1.0, 1.0, _rows(rng, 2), _chi(rng, 2)),
            "tagged": {0: 0, 1: 0}, "paths": 50000, "t_end": 2.0,
            "times": [0.5, 1.0, 2.0], "seed": _seed(rng)},
            _oracle_homogeneous),
    ]


def _forward_survival(rng) -> list:
    return [
        Step("forward-selection", "forward-distance", {
            "model": _model(20, 2, 1.0, 2.0, _rows(rng, 2), _chi(rng, 2)),
            "horizon": 1.0, "times": [0.1, 0.25, 0.5], "replicates": 1000,
            "seed": _seed(rng)},
            _oracle_survival_file("distance_survival.csv")),
        Step("forward-neutral", "forward-distance", {
            "model": _model(50, 2, 1.0, 0.0, _rows(rng, 2), _chi(rng, 2)),
            "horizon": 2.0, "times": [0.25, 0.5, 1.0], "replicates": 20000,
            "seed": _seed(rng)}, _oracle_neutral_distance),
        # the grid runs to t = 8 so the step lasts about 2 s: ending at
        # t = 2 it took 0.9 s and its median spread by 0.35 over ten seeds
        Step("survival-limit", "survival-table", {
            "model": _model(10, 2, 1.0, 1.0, _pi_rows(rng), _chi(rng, 2)),
            "ns": [0, 1, 2], "times": [0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
            "seed": _seed(rng)}, _oracle_survival_table),
        Step("taylor-report", "taylor-report", {
            "model": _model(10, 2, 1.0, 1.0, _pi_rows(rng), _chi(rng, 2)),
            "ns": [0], "order": 4, "seed": _seed(rng)},
            _oracle_taylor, False),
        Step("cat-equilibrium", "cat-equilibrium", {
            "model": _model(200, 2, 1.0, 0.0, _pi_rows(rng), _chi(rng, 2)),
            "seed": _seed(rng)}, _oracle_cat_marginal, False),
    ]


WORKLOADS = {
    "exact-duality": _exact_duality,
    "conditioned-lines": _conditioned_lines,
    "forward-survival": _forward_survival,
}


def make_steps(workload: str, seed: int, out_root: str) -> list:
    """Draw the workload's inputs from `seed` and resolve every step."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    steps = WORKLOADS[workload](rng)
    for step in steps:
        if step.experiment is None:
            m = step.raw["model"]
            p = validate_params(ModelParams(
                N=m["N"], d=m["d"], B=m["B"], b=tuple(map(tuple, m["b"])),
                S=m["S"], chi=tuple(m["chi"])))
            step.resolved = (p, canonical_start(p, step.raw["tagged"]))
        else:
            step.resolved = cli.resolve_config(
                step.raw, step.experiment,
                out=os.path.join(out_root, step.name), workers=1)
    return steps


def run_step(step: Step):
    """The timed work of one step; returns what its oracle reads."""
    if step.experiment is not None:
        return cli.run_experiment(step.resolved)
    p, start = step.resolved
    raw = step.raw
    kernel = transformed.make_homogeneous_kernel(p, start)
    cache: dict = {}
    rng = np.random.Generator(np.random.Philox(key=raw["seed"]))
    sigmas = np.empty(raw["paths"])
    for k in range(raw["paths"]):
        path = transformed.sample_transformed_path(
            kernel, start, rng, t_end=raw["t_end"], cache=cache)
        sigmas[k] = transformed.first_coalescence_time(path)
    return sigmas


def check_step(step: Step, result) -> None:
    """Run the step's oracle; raise OracleError when it fails."""
    if step.experiment is None:
        step.check(None, step.raw, result)
        return
    cfg = step.resolved
    check_manifest(cfg.out_dir, result, cfg)
    step.check(cfg.out_dir, cfg, result)
