"""The package exports exactly what its modules declare public."""
import importlib

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
