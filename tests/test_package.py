"""The package exports exactly what its modules declare public, and
loads only the scipy submodules that every run needs."""
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import moranlines

MODULES = ("model", "forward", "backward", "exact", "transformed", "reduced")


def test_package_all_is_union_of_module_lists():
    declared = {"__version__"}
    for name in MODULES:
        mod = importlib.import_module(f"moranlines.{name}")
        assert len(set(mod.__all__)) == len(mod.__all__), name
        assert all(hasattr(mod, n) for n in mod.__all__), name
        declared |= set(mod.__all__)
    assert len(set(moranlines.__all__)) == len(moranlines.__all__)
    assert set(moranlines.__all__) == declared
    assert all(hasattr(moranlines, n) for n in moranlines.__all__)


@pytest.mark.parametrize("statement", [
    "import moranlines",
    "import moranlines.cli",
    "from moranlines import ModelParams, wf_single_moment; "
    "wf_single_moment(ModelParams(N=10, d=2, B=1.0, b=((0.7, 0.3),) * 2, "
    "S=1.0, chi=(0.0, 1.0)), 2, 3)",
], ids=["moranlines", "moranlines.cli", "moment"])
def test_import_leaves_slow_scipy_submodules_unloaded(statement):
    # scipy.stats and scipy.integrate each cost about half a second of
    # start-up; the package loads scipy.integrate only for the survival ODEs
    code = (f"import sys; {statement}; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') "
            "if m in sys.modules))")
    # the child finds the package where this process found it
    src = str(pathlib.Path(moranlines.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
