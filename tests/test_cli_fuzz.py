"""Fuzz of the experiment runner's configs.

Small configs for all seven experiments, with out-of-range values (NaN,
infinities, negatives, zero, S > N) and wrong JSON types mixed in.  A run
must end with a documented exit code and never a traceback, leave a
manifest exactly when it succeeds, and, for the sampling experiments,
write the same outputs at one and two workers.
"""
import contextlib
import io
import json
import math
import pathlib
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from moranlines.cli import EXPERIMENTS, main

NAN, INF = math.nan, math.inf
SAMPLERS = ("forward-distance", "conditioned-distance")


@st.composite
def configs(draw):
    """A valid small config, then up to two keys replaced by bad values."""
    d = draw(st.integers(2, 3))
    N = draw(st.integers(1, 4 if d == 2 else 3))  # N = 4, d = 3 takes 4 s
    row = [1.0 / d] * d
    valid = {
        "N": st.just(N), "d": st.just(d), "B": st.sampled_from([0.5, 1.0]),
        "b": st.sampled_from([[row] * d, row * d]),
        "S": st.sampled_from([0.0, min(1.0, N)]),
        "chi": st.just([k / (d - 1) for k in range(d)]),
        "horizon": st.sampled_from([0.5, 1.0]),
        "times": st.sampled_from([[0.25, 0.5], [0.5]]),
        "replicates": st.integers(1, 30), "seed": st.integers(0, 99),
        "tagged": st.sampled_from([{"0": 0, "1": 0}, {"0": 0, "1": d - 1}]),
        "nu": st.just(row), "ns": st.sampled_from([[0], [0, 1]]),
        "order": st.sampled_from([0, 3]),
    }
    bad = {
        "N": [0, -1, "x"], "d": [1, NAN, None],
        "B": [0.0, -1.0, NAN, INF], "S": [N + 1.0, -1.0, NAN, INF],
        "b": [5, "x", [row] * (d + 1), [[NAN] + row[1:]] * d,
              [[-0.5, 1.5] + row[2:]] * d],
        "chi": [[1.0] + [0.0] * (d - 1), [0.0, NAN, 1.0][-d:], 5],
        "horizon": [0.0, -1.0, NAN, INF, "x"],
        "times": [[], [0.5, 0.25], [-1.0, 0.5], [NAN], 5],
        "replicates": [0, -2, "x", None], "seed": [-1, NAN, INF, None, "x"],
        "tagged": [{"5": 0}, {"0": 7}, {}, [1, 2], 5],
        "nu": [[NAN] + row[1:], [-1.0, 2.0] + row[2:], [0.5], 5],
        "ns": [[], [-1], 5, ["x"]], "order": [-1, NAN],
        "model": [[1, 2], 5],
    }
    broken = draw(st.lists(st.sampled_from(sorted(bad)), max_size=2,
                           unique=True))
    values = {k: draw(st.sampled_from(bad[k]) if k in broken else v)
              for k, v in valid.items()}
    model_keys = ("N", "d", "B", "b", "S", "chi")
    cfg = {k: values[k] for k in valid
           if k not in model_keys and draw(st.booleans())}
    cfg["model"] = {k: values[k] for k in model_keys}
    if "model" in broken:
        cfg["model"] = draw(st.sampled_from(bad["model"]))
    return cfg


def _run(experiment, cfg_path, out, workers):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main([experiment, "--config", str(cfg_path), "--out", str(out),
                   "--workers", str(workers)])
    return rc, err.getvalue()


def _bodies(out):
    return {p.name: p.read_bytes() for p in out.iterdir()
            if p.name != "manifest.csv"}


# five examples per experiment, 35 in all; derandomized, so every run of
# the suite draws the same configs
@pytest.mark.parametrize("experiment", EXPERIMENTS)
@settings(max_examples=5, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=configs())
def test_config_fuzz_ends_cleanly(experiment, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        cfg_path = root / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        rc, err = _run(experiment, cfg_path, root / "w1", 1)
        assert rc in (0, 2, 3, 4), err
        assert "Traceback" not in err
        assert (root / "w1" / "manifest.csv").exists() == (rc == 0)
        if rc == 2:
            assert err.startswith("error:")
        if rc == 0 and experiment in SAMPLERS:
            assert _run(experiment, cfg_path, root / "w2", 2)[0] == 0
            assert _bodies(root / "w1") == _bodies(root / "w2")
