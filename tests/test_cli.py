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

from moranlines import ParamError, cli
from moranlines.cli import (config_hash, emit_plotdata, load_config, main,
                            resolve_config)

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


def test_worker_count_never_changes_results(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", FORWARD_CFG)
    out1, out3 = tmp_path / "w1", tmp_path / "w3"
    assert main(["forward-distance", "--config", cfg, "--out", str(out1),
                 "--workers", "1"]) == 0
    assert main(["forward-distance", "--config", cfg, "--out", str(out3),
                 "--workers", "3"]) == 0
    names = ["distance_survival.csv", "trace.csv", "distances.csv",
             "plotdata.csv"]
    for name in names:
        assert (out1 / name).read_bytes() == (out3 / name).read_bytes()
    assert read_manifest(out1)["config_hash"] == \
        read_manifest(out3)["config_hash"]


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
    ("nan_B",
     {**DUALITY_CFG, "model": {**DUALITY_CFG["model"], "B": float("nan")}},
     "mutation rate"),
    ("flat_b_length",
     {"model": {"N": 3, "d": 2, "B": 0.8, "S": 1.0,
                "b": [0.5, 0.5, 0.5], "chi": [0.0, 1.0]}},
     "d*d entries"),
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


def test_cat_equilibrium_plot_series(tmp_path):
    payload = {
        "model": {"N": 5, "d": 2, "B": 1.0, "S": 1.0,
                  "b": [[0.3, 0.7], [0.3, 0.7]], "chi": [0.0, 1.0]},
    }
    cfg = write_cfg(tmp_path / "cfg.json", payload)
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


def test_survival_table_outputs(tmp_path):
    payload = {
        "model": {"N": 10, "d": 2, "B": 1.0, "S": 0.0,
                  "b": [[0.5, 0.5], [0.5, 0.5]], "chi": [0.0, 1.0]},
        "times": [0.25, 0.5],
        "ns": [0],
        "n_max": 8,
    }
    cfg = write_cfg(tmp_path / "cfg.json", payload)
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


def test_taylor_report_values(tmp_path):
    payload = {
        "model": {"N": 10, "d": 2, "B": 1.0, "S": 1.0,
                  "b": [[0.5, 0.5], [0.5, 0.5]], "chi": [0.0, 1.0]},
        "ns": [0],
        "order": 3,
    }
    cfg = write_cfg(tmp_path / "cfg.json", payload)
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


def test_cross_check_certifies_reductions(tmp_path):
    payload = {
        "model": {"N": 3, "d": 2, "B": 0.7, "S": 1.0,
                  "b": [[0.3, 0.7], [0.3, 0.7]], "chi": [0.0, 1.0]},
        "times": [0.5],
    }
    cfg = write_cfg(tmp_path / "cfg.json", payload)
    out = tmp_path / "out"
    assert main(["cross-check", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "crosscheck.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["chain"] for row in rows} == {"cat", "dist"}
    assert all(float(row["max_gap"]) < 1e-9 for row in rows)


def test_emit_plotdata_rejects_empty(tmp_path):
    with pytest.raises(ParamError, match="no plot points"):
        emit_plotdata(str(tmp_path / "plotdata.csv"), [])
