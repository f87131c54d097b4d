"""Every experiment's outputs, pinned byte for byte.

Runs the seven experiments on the configs of test_cli.py and compares
the sha256 of every output except manifest.csv (which holds a wall
time) with output_digests.json, so a refactor proves "no output
changed" here.  Other numpy or scipy versions may move the last digit
of a float, so the digests are stored with the versions that produced
them and the test skips under any other.  After an intended output
change, regenerate the file with

    PYTHONPATH=src python tests/test_output_digests.py
"""
import hashlib
import json
import pathlib

import numpy as np
import pytest
import scipy

from moranlines.cli import main

from test_cli import (BLOCKS_CFG, CAT_CFG, CONDITIONED_CFG, CROSS_CFG,
                      DUALITY_CFG, FORWARD_CFG, NEUTRAL_CFG, SURVIVAL_CFG,
                      TAYLOR_CFG)

DIGESTS = pathlib.Path(__file__).resolve().parent / "output_digests.json"

# label -> (experiment, config)
RUNS = {
    "duality-sweep": ("duality-sweep", DUALITY_CFG),
    "forward-distance": ("forward-distance", FORWARD_CFG),
    "forward-distance-blocks": ("forward-distance", BLOCKS_CFG),
    "forward-distance-neutral": ("forward-distance", NEUTRAL_CFG),
    "conditioned-distance": ("conditioned-distance", CONDITIONED_CFG),
    "cat-equilibrium": ("cat-equilibrium", CAT_CFG),
    "survival-table": ("survival-table", SURVIVAL_CFG),
    "taylor-report": ("taylor-report", TAYLOR_CFG),
    "cross-check": ("cross-check", CROSS_CFG),
}


def _versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def output_digests(root: pathlib.Path) -> dict:
    """{label/output: sha256} over every run in RUNS, written under root."""
    digests = {}
    for label, (experiment, payload) in RUNS.items():
        cfg, out = root / f"{label}.json", root / label
        cfg.write_text(json.dumps(payload), encoding="utf-8")
        assert main([experiment, "--config", str(cfg), "--out", str(out)]) == 0
        for path in sorted(out.iterdir()):
            if path.name != "manifest.csv":
                digests[f"{label}/{path.name}"] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    return digests


def test_outputs_match_recorded_digests(tmp_path):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if recorded["versions"] != _versions():
        pytest.skip(f"digests recorded with {recorded['versions']}, "
                    f"running {_versions()}")
    assert output_digests(tmp_path) == recorded["digests"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        payload = {"versions": _versions(),
                   "digests": output_digests(pathlib.Path(tmp))}
    DIGESTS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {len(payload['digests'])} digests to {DIGESTS}")
