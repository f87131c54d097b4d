"""The benchmark's tracer wraps package functions by name from outside.

perfbench/tracer.py lists them in TRACED and also rebinds exact.poisson
and reduced.solve_ivp; a rename or deletion in the package would make a
traced run fail or silently report zeros, so every name is checked here.
The file is read with ast, so the benchmark itself is never imported.
Some of its hooks also read arguments by position, so those positions
are pinned here: a shifted parameter would silently zero a counter.
"""
import ast
import importlib
import inspect
import pathlib
import sys

import numpy as np
import scipy.sparse as sparse

from moranlines import backward, canonical_start, exact, reduced, transformed

from helpers import mk

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_names() -> list:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACED"
                        for t in node.targets)):
            table = ast.literal_eval(node.value)
            return [(mod, name) for mod, names in table.items()
                    for name in names]
    raise AssertionError("TRACED table not found in perfbench/tracer.py")


def test_traced_names_resolve_in_package():
    names = _traced_names() + [("exact", "poisson"), ("reduced", "solve_ivp")]
    missing = [f"{mod}.{name}" for mod, name in names
               if not hasattr(importlib.import_module(f"moranlines.{mod}"),
                              name)]
    assert missing == []


def test_tracer_argument_positions():
    # (module, function) -> {position: name} read by the tracer's hooks
    read = {
        ("transformed", "sample_transformed_path"): {2: "rng", 4: "cache"},
        ("forward", "run_until"): {3: "rng"},
        ("exact", "expm_apply"): {0: "gen"},
    }
    for (mod, name), positions in read.items():
        fn = getattr(importlib.import_module(f"moranlines.{mod}"), name)
        params = list(inspect.signature(fn).parameters)
        for k, want in positions.items():
            assert params[k] == want, f"{mod}.{name} argument {k}"


def test_tracer_proxy_call_contract(monkeypatch):
    # the tracer reads K as len(k) - 1 from the arguments of
    # exact.poisson.pmf, and the counts nfev/njev/nlu from the result of
    # reduced.solve_ivp
    calls = []
    real = exact.poisson

    class Recorder:
        def pmf(self, k, mu):
            calls.append(np.array(k))
            return real.pmf(k, mu)

    monkeypatch.setattr(exact, "poisson", Recorder())
    Q = sparse.csr_matrix(np.array([[-0.7, 0.7], [0.3, -0.3]]))
    gen = exact.GeneratorMatrix(states=("x", "y"), Q=Q)
    exact.expm_apply(gen, (1.0, 0.0), 2.0)
    assert len(calls) == 1
    k = calls[0]
    K = len(k) - 1
    assert 0 < K <= exact.EXPM_K_CAP
    assert np.array_equal(k, np.arange(K + 1))

    sol = reduced.solve_ivp(lambda _t, f: -f, (0.0, 1.0), [1.0],
                            method="Radau", jac=[[-1.0]])
    assert sol.success
    for name in ("nfev", "njev", "nlu"):
        assert getattr(sol, name) >= 0, name
    assert sol.nfev > 0


def test_engines_call_the_traced_enumeration(monkeypatch):
    # the tracer counts backward.enumerate_transitions by rebinding it in
    # every module that holds it; an engine that reached the clauses by
    # another name would read 0 calls there
    real = backward.enumerate_transitions
    calls = []

    def counted(s, p):
        calls.append(s)
        return real(s, p)

    rebound = set()
    for name, mod in list(sys.modules.items()):
        if name == "moranlines" or name.startswith("moranlines."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counted)
                    rebound.add(name)
    assert {"moranlines.backward", "moranlines.exact",
            "moranlines.transformed"} <= rebound

    d = 3
    p = mk(3, d=d, S=1.0)
    starts = [canonical_start(p, {0: u, 1: v})
              for u in range(d) for v in range(d)]
    gen = exact.build_bp_generator(p, starts)
    assert len(calls) == gen.n

    ht = transformed.HTTable(p, np.full(d, 1.0 / d), 0.5)
    sids = ht.sids([s.key for s in starts])
    for _ in range(2):
        tables = len(ht.ptr) - 1
        calls.clear()
        ht.build(sids)
        assert len(calls) == len(ht.ptr) - 1 - tables
        assert len(set(calls)) == len(calls)
        # one step on: the targets of the tables just built
        sids = ht.t_sid[ht.ptr[tables]:]
    assert len(ht.ptr) - 1 > len(starts)
