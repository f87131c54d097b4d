"""The package exports exactly what its modules declare public, and
loads only the scipy submodules that every run needs; the README's
Python examples run, its numerical notes name every numeric module
constant, and its config table every config key."""
import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

import moranlines
from moranlines import cli

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
    "from moranlines import DistChainSpec, ModelParams, dist_survival; "
    "dist_survival(DistChainSpec.limit(ModelParams(N=10, d=2, B=1.0, "
    "b=((0.7, 0.3),) * 2, S=1.0, chi=(0.0, 1.0))), (0.5, 2.0), (0,))",
], ids=["moranlines", "moranlines.cli", "moment", "survival"])
def test_import_leaves_slow_scipy_submodules_unloaded(statement):
    # scipy.stats and scipy.integrate cost about 0.5 s and 0.2 s of
    # start-up; no computation of the package needs either
    code = (f"import sys; {statement}; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=_child_env())
    assert out.stdout.strip() == "[]"


def _child_env() -> dict:
    # the child finds the package where this process found it
    src = str(pathlib.Path(moranlines.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_readme_python_examples_run():
    # every fenced python block of the README, joined in order, runs in a
    # fresh process with warnings as errors
    readme = (pathlib.Path(moranlines.__file__).resolve().parents[2]
              / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) >= 2
    out = subprocess.run([sys.executable, "-W", "error", "-c",
                          "\n".join(blocks)], capture_output=True, text=True,
                         env=_child_env())
    assert out.returncode == 0, out.stderr


def _numeric_constants(tree) -> set:
    # upper-case names assigned a number, or arithmetic on numbers, at
    # module level; imported names are not assignments and do not count
    out = set()
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        parts = list(ast.walk(node.value))
        numeric = all(isinstance(x, (ast.BinOp, ast.UnaryOp, ast.operator,
                                     ast.unaryop, ast.Constant)) for x in parts)
        numeric &= all(type(x.value) in (int, float) for x in parts
                       if isinstance(x, ast.Constant))
        if numeric:
            out |= {t.id for t in node.targets
                    if isinstance(t, ast.Name) and t.id.isupper()}
    return out


def test_numerical_notes_list_every_module_constant():
    # every numeric module constant steers a result or a budget, so the
    # README's numerical-notes table names each one, and only those
    pkg = pathlib.Path(moranlines.__file__).resolve().parent
    defined = {f"{path.stem}.{name}" for path in pkg.glob("*.py")
               for name in _numeric_constants(
                   ast.parse(path.read_text(encoding="utf-8")))}
    readme = (pkg.parents[1] / "README.md").read_text(encoding="utf-8")
    notes = readme.split("## Numerical notes", 1)[1].split("\n## ", 1)[0]
    listed = {name for line in notes.splitlines() if line.startswith("| `")
              for name in re.findall(r"`(\w+\.[A-Z][A-Z0-9_]*)`",
                                     line.split("|")[1])}
    assert defined == listed


def test_config_table_lists_every_config_key():
    # the runner refuses any key outside cli.CONFIG_KEYS and cli.MODEL_KEYS,
    # so the README's config table names each of them, and only those
    readme = (pathlib.Path(moranlines.__file__).resolve().parents[2]
              / "README.md").read_text(encoding="utf-8")
    table = readme.split("Config keys (JSON object):", 1)[1].split("\n\n")[1]
    listed = {name for line in table.splitlines() if line.startswith("| `")
              for name in re.findall(r"`([\w.]+)`", line.split("|")[1])}
    assert listed == ({k for k in cli.CONFIG_KEYS if k != "model"}
                      | {f"model.{k}" for k in cli.MODEL_KEYS})
