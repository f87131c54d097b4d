"""End-to-end checks of the experiment runner.

Covers determinism (byte-identical reruns, worker invariance, seed
overrides), the manifest contract (atomic finalize, checksums), exit
codes, and the long-format plot file.
"""
import csv
import hashlib
import json

import numpy as np
import pytest
import scipy.sparse.linalg

from moranlines import (BudgetError, DistChainSpec, ParamError, cli,
                        dist_survival)
from moranlines.cli import (config_hash, emit_plotdata, load_config, main,
                            resolve_config)
from moranlines.forward import BLOCK_REPS

from helpers import mk

DUALITY_CFG = {
    "model": {"N": 3, "d": 2, "B": 0.8, "S": 1.0,
              "b": [[0.7, 0.3], [0.2, 0.8]], "chi": [0.0, 1.0]},
    "times": [0.5, 1.0],
    "seed": 3,
}

FORWARD_CFG = {
    "model": {"N": 3, "d": 2, "B": 1.0, "S": 1.0,
              "b": [[0.5, 0.5], [0.5, 0.5]], "chi": [0.0, 1.0]},
    "horizon": 1.0,
    "times": [0.25, 0.5],
    "replicates": 40,
    "seed": 11,
}


def write_cfg(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return str(path)


def read_manifest(out_dir):
    with open(out_dir / "manifest.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["key", "value"]
    return dict(rows[1:])


def read_plot_series(out_dir):
    with open(out_dir / "plotdata.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    series = {}
    for row in rows:
        series.setdefault(row["series"], []).append(
            (float(row["x"]), float(row["y"])))
    return series


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_duality_rerun_is_byte_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "cfg.json", DUALITY_CFG)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["duality-sweep", "--config", cfg, "--out", str(out1)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("wrote ")
    assert "manifest.csv" in stdout
    assert main(["duality-sweep", "--config", cfg, "--out", str(out2)]) == 0

    for name in ("duality.csv", "plotdata.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1, m2 = read_manifest(out1), read_manifest(out2)
    assert m1["config_hash"] == m2["config_hash"]
    # wall time differs; every content row must not
    for key in m1:
        if key != "wall_time_s":
            assert m1[key] == m2[key]

    # the sweep itself must certify the duality, not just run
    with open(out1 / "duality.csv", newline="", encoding="utf-8") as fh:
        gaps = [float(row["gap"]) for row in csv.DictReader(fh)]
    assert gaps and max(gaps) < 1e-9


def test_manifest_checksums_and_no_temp_files(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", DUALITY_CFG)
    out = tmp_path / "run"
    assert main(["duality-sweep", "--config", cfg, "--out", str(out)]) == 0

    leftovers = [p.name for p in out.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []

    manifest = read_manifest(out)
    resolved = resolve_config(load_config(cfg), "duality-sweep",
                              out=str(out))
    assert manifest["config_hash"] == config_hash(resolved)
    checksum_keys = sorted(k for k in manifest if k.startswith("output:"))
    assert checksum_keys == ["output:duality.csv", "output:plotdata.csv"]
    for key in checksum_keys:
        name = key.split(":", 1)[1]
        assert manifest[key] == sha256_of(out / name)


CONDITIONED_CFG = {
    "model": {"N": 2, "d": 2, "B": 0.0, "S": 0.0,
              "b": [[0.5, 0.5], [0.5, 0.5]], "chi": [0.0, 1.0]},
    "horizon": 1.0,
    "times": [0.25, 0.5],
    "replicates": 200,
    "tagged": {"0": 0, "1": 0},
    "nu": [0.5, 0.5],
    "seed": 5,
}


# three blocks of the agreement-time sampler at N = 3, so --workers 3
# splits them over three processes, or one per CPU on a smaller host
# (the block count is checked in test_forward)
BLOCKS_CFG = {**FORWARD_CFG, "replicates": 2 * BLOCK_REPS + 1}
# three blocks of the conditioned sampler, split the same way
CONDITIONED_BLOCKS_CFG = {**CONDITIONED_CFG, "replicates": 2 * BLOCK_REPS + 1}
# at S = 0 the neutral tracer draws one stream keyed seed in one process,
# whatever the worker count
NEUTRAL_CFG = {**FORWARD_CFG, "model": {**FORWARD_CFG["model"], "S": 0.0}}
FORWARD_NAMES = ["distance_survival.csv", "trace.csv", "distances.csv",
                 "plotdata.csv"]


@pytest.mark.parametrize("experiment,payload,names", [
    ("forward-distance", FORWARD_CFG, FORWARD_NAMES),
    ("forward-distance", BLOCKS_CFG, FORWARD_NAMES),
    ("forward-distance", NEUTRAL_CFG, FORWARD_NAMES),
    ("conditioned-distance", CONDITIONED_CFG,
     ["conditioned_survival.csv", "plotdata.csv"]),
    ("conditioned-distance", CONDITIONED_BLOCKS_CFG,
     ["conditioned_survival.csv", "plotdata.csv"]),
], ids=["forward-distance", "forward-distance-blocks",
        "forward-distance-neutral", "conditioned-distance",
        "conditioned-distance-blocks"])
def test_worker_count_never_changes_results(tmp_path, experiment, payload,
                                            names):
    cfg = write_cfg(tmp_path / "cfg.json", payload)
    out1, out3 = tmp_path / "w1", tmp_path / "w3"
    assert main([experiment, "--config", cfg, "--out", str(out1),
                 "--workers", "1"]) == 0
    assert main([experiment, "--config", cfg, "--out", str(out3),
                 "--workers", "3"]) == 0
    for name in names:
        assert (out1 / name).read_bytes() == (out3 / name).read_bytes()
    assert read_manifest(out1)["config_hash"] == \
        read_manifest(out3)["config_hash"]


def test_fan_out_starts_at_most_one_process_per_cpu(monkeypatch):
    # the pool forks all max_workers processes at once, so the request is
    # clamped to the CPU count; a recorder stands in for the pool
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, runs):
            return [fn(run) for run in runs]

    def chunk(scale, blocks):
        return [scale * k for k in blocks]

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    many = cli._fan_out(chunk, (0.5,), 977, 1000)
    assert seen == [2]
    assert many.tobytes() == cli._fan_out(chunk, (0.5,), 977, 1).tobytes()
    assert seen == [2]


def test_seed_override_changes_hash_and_samples(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", FORWARD_CFG)
    outa, outb = tmp_path / "a", tmp_path / "b"
    assert main(["forward-distance", "--config", cfg, "--out", str(outa),
                 "--seed", "1"]) == 0
    assert main(["forward-distance", "--config", cfg, "--out", str(outb),
                 "--seed", "2"]) == 0
    assert read_manifest(outa)["config_hash"] != \
        read_manifest(outb)["config_hash"]
    # event times are continuous draws, so traces collide with probability 0
    assert (outa / "trace.csv").read_bytes() != \
        (outb / "trace.csv").read_bytes()

    raw = load_config(cfg)
    same = [resolve_config(raw, "forward-distance", seed=1) for _ in range(2)]
    assert config_hash(same[0]) == config_hash(same[1])


def test_out_directory_from_config_and_flag(tmp_path):
    payload = dict(DUALITY_CFG)
    payload["out"] = str(tmp_path / "from_cfg")
    cfg = write_cfg(tmp_path / "cfg.json", payload)
    assert main(["duality-sweep", "--config", cfg]) == 0
    assert (tmp_path / "from_cfg" / "manifest.csv").exists()

    override = tmp_path / "from_flag"
    assert main(["duality-sweep", "--config", cfg,
                 "--out", str(override)]) == 0
    assert (override / "manifest.csv").exists()


BAD_CASES = [
    ("not_json", "{nope", "not valid JSON"),
    ("missing_model", {"times": [1.0]}, "missing model key"),
    ("times_order",
     {**DUALITY_CFG, "times": [1.0, 0.5]}, "strictly increasing"),
    ("zero_reps",
     {**DUALITY_CFG, "replicates": 0}, "at least 1"),
    ("mismatch",
     {**DUALITY_CFG, "experiment": "cross-check"}, "mismatch"),
    ("nu_length",
     {**DUALITY_CFG, "nu": [0.2, 0.3, 0.5]}, "one weight per type"),
    ("nan_times",
     {**DUALITY_CFG, "times": [0.5, float("nan")]}, "must be finite"),
    ("inf_horizon",
     {**DUALITY_CFG, "horizon": float("inf")}, "must be finite"),
    ("negative_horizon",
     {**DUALITY_CFG, "horizon": -1.0}, "horizon must be nonnegative"),
    ("nan_nu",
     {**DUALITY_CFG, "nu": [float("nan"), 1.0]}, "type law must be finite"),
    ("nan_B",
     {**DUALITY_CFG, "model": {**DUALITY_CFG["model"], "B": float("nan")}},
     "mutation rate"),
    ("flat_b_length",
     {"model": {"N": 3, "d": 2, "B": 0.8, "S": 1.0,
                "b": [0.5, 0.5, 0.5], "chi": [0.0, 1.0]}},
     "d*d entries"),
    ("b_number",
     {**DUALITY_CFG, "model": {**DUALITY_CFG["model"], "b": 5}},
     "malformed config"),
    ("tagged_list", {**DUALITY_CFG, "tagged": [1, 2]}, "malformed config"),
    ("model_list", {**DUALITY_CFG, "model": [1, 2]}, "malformed config"),
    ("inf_seed", {**DUALITY_CFG, "seed": float("inf")}, "malformed config"),
    ("negative_seed", {**DUALITY_CFG, "seed": -1}, "seed must be"),
    # a misspelt key once ran on its default without a word
    ("misspelt_key", {**DUALITY_CFG, "replicate": 5},
     "unknown config key 'replicate'"),
    ("unknown_model_key",
     {**DUALITY_CFG, "model": {**DUALITY_CFG["model"], "s": 1.0}},
     "unknown config key 'model.s'"),
]


@pytest.mark.parametrize("label,payload,fragment",
                         BAD_CASES, ids=[c[0] for c in BAD_CASES])
def test_validation_failures_exit_2(tmp_path, capsys, label, payload,
                                    fragment):
    path = tmp_path / "cfg.json"
    if isinstance(payload, str):
        path.write_text(payload, encoding="utf-8")
    else:
        write_cfg(path, payload)
    out = tmp_path / "out"
    rc = main(["duality-sweep", "--config", str(path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert fragment in err
    assert not (out / "manifest.csv").exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["duality-sweep", "--config", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err


def test_state_budget_exit_3(tmp_path, capsys):
    payload = {
        "model": {"N": 12, "d": 3, "B": 1.0, "S": 0.0,
                  "b": [1 / 3] * 9, "chi": [0.0, 0.5, 1.0]},
        "times": [0.5],
    }
    cfg = write_cfg(tmp_path / "cfg.json", payload)
    out = tmp_path / "out"
    rc = main(["duality-sweep", "--config", cfg, "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded:")
    assert "exact solve infeasible" in err
    assert not (out / "manifest.csv").exists()


def test_table_budget_exit_3(tmp_path, capsys):
    # the conditioned sampler's grid table at N = 10, T = 1,000 would take
    # 8.2 GB; it is refused before anything is built
    cfg = write_cfg(tmp_path / "cfg.json", {
        **CONDITIONED_CFG, "horizon": 1000.0,
        "model": {**CONDITIONED_CFG["model"], "N": 10}})
    out = tmp_path / "out"
    rc = main(["conditioned-distance", "--config", cfg, "--out", str(out)])
    assert rc == 3
    assert "exact solve infeasible" in capsys.readouterr().err
    assert not (out / "manifest.csv").exists()


def test_pair_distance_budget_exit_3(tmp_path, capsys, monkeypatch):
    # at N = 6,000 one replicate's agreement times would take 288 MB; the
    # run is refused before any worker process starts
    def no_pool(*args, **kwargs):
        raise AssertionError("worker pool started")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    cfg = write_cfg(tmp_path / "cfg.json", {
        **FORWARD_CFG, "model": {**FORWARD_CFG["model"], "N": 6000}})
    out = tmp_path / "out"
    rc = main(["forward-distance", "--config", cfg, "--out", str(out),
               "--workers", "3"])
    assert rc == 3
    assert "dense budget" in capsys.readouterr().err
    assert not (out / "manifest.csv").exists()


def test_numerical_failure_exit_4(tmp_path, capsys, monkeypatch):
    def fail(cfg, out):
        raise ArithmeticError("harmonic residual 1.0e-03 exceeds 1.0e-08")

    monkeypatch.setitem(cli._RUNNERS, "duality-sweep", fail)
    cfg = write_cfg(tmp_path / "cfg.json", DUALITY_CFG)
    out = tmp_path / "out"
    rc = main(["duality-sweep", "--config", cfg, "--out", str(out)])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: harmonic residual")
    assert "Traceback" not in err
    assert not (out / "manifest.csv").exists()


class _NanFactor:
    def __init__(self, A):
        self.n = A.shape[0]

    def solve(self, b):
        return np.full(self.n, np.nan)


def _singular(A):
    raise RuntimeError("Factor is exactly singular")


@pytest.mark.parametrize("experiment,splu,match", [
    ("survival-table", _singular,
     "sparse solve failed: Factor is exactly singular"),
    ("survival-table", _NanFactor, "non-finite survival"),
    ("cat-equilibrium", _singular,
     "sparse solve failed: Factor is exactly singular"),
], ids=["singular", "non-finite", "cat-singular"])
def test_survival_solver_failure_exit_4(tmp_path, capsys, monkeypatch,
                                        experiment, splu, match):
    monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
    if experiment == "survival-table":
        spec = DistChainSpec.limit(mk(10, b=((0.5, 0.5),) * 2))
        with pytest.raises(ArithmeticError, match=match):
            dist_survival(spec, (0.5,), (0,))
    payload = SURVIVAL_CFG if experiment == "survival-table" else CAT_CFG
    cfg = write_cfg(tmp_path / "cfg.json", payload)
    out = tmp_path / "out"
    assert main([experiment, "--config", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: {match}")
    assert "Traceback" not in err
    assert not (out / "manifest.csv").exists()


@pytest.mark.parametrize("N", [151, 156, 200, 201])
def test_underflowed_probability_exit_4(tmp_path, capsys, N):
    # at S = N the finite law's P(0^m) at large m underflow: to subnormals
    # from N = 151 (P(0^N) is 2e-322 at N = 156), to 0 from N = 157; a rate
    # over one must neither divide by 0 nor carry too few bits
    payload = {**CAT_CFG, "model": {**CAT_CFG["model"], "N": N, "S": N,
                                    "b": [[0.5, 0.5], [0.5, 0.5]]}}
    cfg = write_cfg(tmp_path / "cfg.json", payload)
    out = tmp_path / "out"
    assert main(["cat-equilibrium", "--config", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: sampling probability of")
    assert "underflows to 0" in err
    assert "Traceback" not in err
    assert not (out / "manifest.csv").exists()


def test_failed_run_writes_nothing(tmp_path, capsys):
    payload = {
        "model": {"N": 3, "d": 2, "B": 1.0, "S": 0.0,
                  "b": [[0.5, 0.5], [0.5, 0.5]], "chi": [0.0, 1.0]},
        "horizon": 1.0,
        "replicates": 5,
        "tagged": {"5": 0},
    }
    cfg = write_cfg(tmp_path / "cfg.json", payload)
    out = tmp_path / "out"
    rc = main(["conditioned-distance", "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert "tagged sites" in capsys.readouterr().err
    # the directory may exist, but nothing in it: no partial outputs,
    # no manifest, no temp files
    assert not out.exists() or list(out.iterdir()) == []


def test_nan_nu_conditioned_exit_2(tmp_path, capsys):
    # NaN in nu once ran to completion with survival 1 and se 0
    cfg = write_cfg(tmp_path / "cfg.json",
                    {**CONDITIONED_CFG, "nu": [float("nan"), 1.0]})
    out = tmp_path / "out"
    rc = main(["conditioned-distance", "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert "type law must be finite" in capsys.readouterr().err
    assert not (out / "manifest.csv").exists()


CAT_CFG = {
    "model": {"N": 5, "d": 2, "B": 1.0, "S": 1.0,
              "b": [[0.3, 0.7], [0.3, 0.7]], "chi": [0.0, 1.0]},
}


def test_cat_equilibrium_plot_series(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", CAT_CFG)
    out = tmp_path / "out"
    assert main(["cat-equilibrium", "--config", cfg, "--out", str(out)]) == 0
    series = read_plot_series(out)
    assert set(series) == {"cat-marginal", "cat-marginal-limit"}
    for name, pts in series.items():
        assert sorted(x for x, _ in pts) == [0.0, 1.0]
        assert abs(sum(y for _, y in pts) - 1.0) < 1e-8

    with open(out / "cat_equilibrium.csv", newline="",
              encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["mode"] for row in rows} == {"finite", "limit"}


SURVIVAL_CFG = {
    "model": {"N": 10, "d": 2, "B": 1.0, "S": 0.0,
              "b": [[0.5, 0.5], [0.5, 0.5]], "chi": [0.0, 1.0]},
    "times": [0.25, 0.5],
    "ns": [0],
}


def test_survival_table_outputs(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", SURVIVAL_CFG)
    out = tmp_path / "out"
    assert main(["survival-table", "--config", cfg, "--out", str(out)]) == 0
    for name in ("survival.csv", "pf.csv", "moments.csv", "plotdata.csv"):
        assert (out / name).exists()
    series = read_plot_series(out)
    assert set(series) == {"f-00-n0", "f-11-n0", "f-01-n0", "pf-n0"}

    # without selection the weighted survival is exactly exponential
    with open(out / "pf.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            t = float(row["t"])
            assert abs(float(row["value"]) - np.exp(-t)) < 1e-8


def test_survival_table_at_vanishing_times(tmp_path):
    # the contour's mu = pi M / (12 t) overflows below about 1e-307, where
    # the survival rounds to 1
    cfg = write_cfg(tmp_path / "cfg.json",
                    {**SURVIVAL_CFG, "times": [5e-324, 1e-308, 0.25]})
    out = tmp_path / "out"
    assert main(["survival-table", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "pf.csv", newline="", encoding="utf-8") as fh:
        values = [float(row["value"]) for row in csv.DictReader(fh)]
    assert values[:2] == [1.0, 1.0]
    assert values[2] == pytest.approx(np.exp(-0.25), abs=1e-12)


TAYLOR_CFG = {
    "model": {"N": 10, "d": 2, "B": 1.0, "S": 1.0,
              "b": [[0.5, 0.5], [0.5, 0.5]], "chi": [0.0, 1.0]},
    "ns": [0],
    "order": 3,
}


def test_taylor_report_values(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", TAYLOR_CFG)
    out = tmp_path / "out"
    assert main(["taylor-report", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "taylor.csv", newline="", encoding="utf-8") as fh:
        got = {row["coefficient"]: float(row["value"])
               for row in csv.DictReader(fh)}
    assert set(got) == {"pf0", "pf1", "pf2", "pf3",
                        "df-00", "df-01", "df-11"}
    assert abs(got["pf0"] - 1.0) < 1e-12
    assert abs(got["pf1"] + 1.0) < 1e-12
    assert abs(got["df-01"]) < 1e-14


# small mutation shapes with strong selection: the moments behind the
# limit rates span many orders of magnitude
SHARP_MODEL = {**TAYLOR_CFG["model"], "N": 1000, "B": 0.01, "S": 400.0}


def test_limit_chains_at_small_mutation_and_strong_selection(tmp_path):
    cfg = write_cfg(tmp_path / "taylor.json",
                    {**TAYLOR_CFG, "model": SHARP_MODEL})
    out = tmp_path / "taylor"
    assert main(["taylor-report", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "taylor.csv", newline="", encoding="utf-8") as fh:
        got = {row["coefficient"]: float(row["value"])
               for row in csv.DictReader(fh)}
    assert abs(got["pf0"] - 1.0) < 1e-10
    assert abs(got["pf1"] + 1.0) < 1e-10
    assert abs(got["pf2"] - 1.0) < 1e-10

    cfg = write_cfg(tmp_path / "survival.json",
                    {**SURVIVAL_CFG, "model": SHARP_MODEL})
    out = tmp_path / "survival"
    assert main(["survival-table", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "moments.csv", newline="", encoding="utf-8") as fh:
        moments = [float(row["value"]) for row in csv.DictReader(fh)]
    assert all(0.0 < v <= 1.0 for v in moments)


CROSS_CFG = {
    "model": {"N": 3, "d": 2, "B": 0.7, "S": 1.0,
              "b": [[0.3, 0.7], [0.3, 0.7]], "chi": [0.0, 1.0]},
    "times": [0.5],
}


def test_cross_check_certifies_reductions(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", CROSS_CFG)
    out = tmp_path / "out"
    assert main(["cross-check", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "crosscheck.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["chain"] for row in rows} == {"cat", "dist"}
    assert all(float(row["max_gap"]) < 1e-9 for row in rows)


# (id, experiment, config, message fragment) for checks that only some
# experiments reach
RUN_BAD_CASES = [
    ("negative_ns", "survival-table", {**SURVIVAL_CFG, "ns": [-1]},
     "pinned count must be nonnegative"),
    ("empty_ns", "taylor-report", {**TAYLOR_CFG, "ns": []},
     "at least one pinned count"),
    # the limit ladders start at reduced.LADDER_START, which no config sets:
    # n_max is refused as an unknown key whatever its value
    ("stale_n_max", "survival-table", {**SURVIVAL_CFG, "n_max": 8},
     "unknown config key 'n_max'"),
    ("zero_n_max_cat", "cat-equilibrium", {**CAT_CFG, "n_max": 0},
     "unknown config key 'n_max'"),
    ("negative_n_max_cat", "cat-equilibrium", {**CAT_CFG, "n_max": -3},
     "unknown config key 'n_max'"),
    ("zero_n_max_survival", "survival-table", {**SURVIVAL_CFG, "n_max": 0},
     "unknown config key 'n_max'"),
]


@pytest.mark.parametrize("label,experiment,payload,fragment",
                         RUN_BAD_CASES, ids=[c[0] for c in RUN_BAD_CASES])
def test_experiment_validation_failures_exit_2(tmp_path, capsys, label,
                                               experiment, payload, fragment):
    cfg = write_cfg(tmp_path / "cfg.json", payload)
    out = tmp_path / "out"
    rc = main([experiment, "--config", cfg, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert fragment in err
    assert not (out / "manifest.csv").exists()


def _huge(payload):
    return {**payload, "model": {**payload["model"], "N": 10**12}}


def _huge_s(payload):
    return {**payload, "model": {**payload["model"], "N": 10**12, "S": 10**12}}


# conditioned-distance at horizon 16: 16,001 grid times per row
CONDITIONED_TABLE_CFG = {
    "model": {"N": 4, "d": 3, "B": 1.0, "S": 1.0,
              "b": [[0.4, 0.3, 0.3], [0.3, 0.4, 0.3], [0.3, 0.3, 0.4]],
              "chi": [0.0, 0.5, 1.0]},
    "horizon": 16.0,
    "replicates": 3000,
    "tagged": {"0": 0, "1": 2},
    "seed": 5,
}

# a population of 10^12 would take terabytes (d^N configurations, N-site
# start states, an N + 1 law vector); each refusal comes before any of it
RUN_BUDGET_CASES = [
    ("huge_time", "duality-sweep", {**DUALITY_CFG, "times": [0.5, 1e300]},
     "Poisson truncation above its cap"),
    ("huge_N_duality", "duality-sweep", _huge(DUALITY_CFG),
     "exact solve infeasible"),
    ("huge_N_conditioned", "conditioned-distance", _huge(CONDITIONED_CFG),
     "exact solve infeasible"),
    ("huge_N_cross_check", "cross-check", _huge(CROSS_CFG),
     "exact solve infeasible"),
    ("huge_N_cat", "cat-equilibrium", _huge(CAT_CFG),
     "exact solve infeasible"),
    # top level N - 1 = 4,097, one past the ancestor-type chain's cap
    ("cat_level_cap", "cat-equilibrium",
     {**CAT_CFG, "model": {**CAT_CFG["model"], "N": 4098}}, "level cap"),
    # S = 10^12 asks for a moment series of about 2 * 10^12 terms
    ("huge_S_taylor", "taylor-report", _huge_s(TAYLOR_CFG),
     "moment series above its term cap"),
    ("huge_S_survival", "survival-table", _huge_s(SURVIVAL_CFG),
     "moment series above its term cap"),
    ("huge_reps_neutral", "forward-distance",
     {**NEUTRAL_CFG, "replicates": 10**12}, "replicate count above its cap"),
    ("huge_reps_conditioned", "conditioned-distance",
     {**CONDITIONED_CFG, "replicates": 10**12},
     "replicate count above its cap"),
    # a 9.9 MiB grid law whose series and thinning tables would take 622 MiB
    ("conditioned_table", "conditioned-distance", CONDITIONED_TABLE_CFG,
     "horizon table above the dense budget"),
]


@pytest.mark.parametrize("label,experiment,payload,fragment",
                         RUN_BUDGET_CASES, ids=[c[0] for c in RUN_BUDGET_CASES])
def test_experiment_budget_refusals_exit_3(tmp_path, capsys, label,
                                           experiment, payload, fragment):
    cfg = write_cfg(tmp_path / "cfg.json", payload)
    out = tmp_path / "out"
    rc = main([experiment, "--config", cfg, "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded:")
    assert fragment in err
    assert not (out / "manifest.csv").exists()


def test_replicate_cap_is_inclusive():
    cap = cli.REPLICATE_CAP
    assert cap >= 50 * 20_000  # wide headroom above the largest runs
    cfg = resolve_config({**FORWARD_CFG, "replicates": cap},
                         "forward-distance")
    assert cfg.replicates == cap
    with pytest.raises(BudgetError, match="replicate count above its cap"):
        resolve_config({**FORWARD_CFG, "replicates": cap + 1},
                       "forward-distance")


def test_emit_plotdata_rejects_empty(tmp_path):
    with pytest.raises(ParamError, match="no plot points"):
        emit_plotdata(str(tmp_path / "plotdata.csv"), [])


# each experiment's test config
EXPERIMENT_CFGS = {
    "duality-sweep": DUALITY_CFG, "forward-distance": FORWARD_CFG,
    "conditioned-distance": CONDITIONED_CFG, "cat-equilibrium": CAT_CFG,
    "survival-table": SURVIVAL_CFG, "taylor-report": TAYLOR_CFG,
    "cross-check": CROSS_CFG,
}


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
def test_negative_times_exit_2(tmp_path, capsys, experiment):
    payload = {**EXPERIMENT_CFGS[experiment], "times": [-1.0, 0.5]}
    cfg = write_cfg(tmp_path / "cfg.json", payload)
    out = tmp_path / "out"
    assert main([experiment, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "times must be nonnegative" in err
    assert not (out / "manifest.csv").exists()
