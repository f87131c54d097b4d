"""Layer tracing from outside the package.

The tracer wraps public functions of the ``moranlines`` modules by
rebinding every module attribute that holds the original function, so
calls made inside the package (``exact`` calling
``enumerate_transitions``, ``reduced`` calling ``expm_apply``) go
through the wrapper as well.  Nothing in the package changes; the
rebinding lives only in the benchmark process and is undone by
``Tracer.uninstall``.

Each wrapped call records a span (name, start, end, parent, step) in
memory.  A span's self time is its duration minus the durations of its
direct children.  Counters come from returned objects and from proxies:
a counting proxy on the rng handed to each sampler call, a proxy on
``exact.poisson`` that reads the Poisson truncation ``K`` from the
weight vector ``expm_apply`` requests, and a proxy on
``reduced.solve_ivp`` that reads the solver's evaluation counts.
"""
from __future__ import annotations

import functools
import resource
import sys
import time
from collections import defaultdict

import moranlines
from moranlines import backward, cli, exact, forward, model, reduced, transformed

LAYERS = ("cli", "model", "forward", "backward", "exact", "transformed",
          "reduced")

# (module, function) pairs to wrap; keys of the aggregate table are
# "<module>.<function>"
TRACED = {
    "cli": ("run_experiment",),
    "model": ("finite_stationary_law", "wf_single_moment"),
    "backward": ("enumerate_transitions", "feynman_kac_V"),
    "exact": ("build_type_generator", "build_bp_generator", "expm_apply",
              "duality_reports", "compute_h", "compute_hT", "h_star_vector"),
    "transformed": ("make_inhomogeneous_kernel", "make_homogeneous_kernel",
                    "sample_conditioned_lines", "sample_transformed_path"),
    "forward": ("init_forest", "run_until", "genealogical_distance",
                "neutral_pair_distance_samples"),
    "reduced": ("cat_equilibrium", "dist_survival", "dist_taylor_coeffs",
                "cat_chain_vs_bp", "dist_chain_vs_bp"),
}

_MODULES = [moranlines, backward, cli, exact, forward, model, reduced,
            transformed]


class CountingRng:
    """Delegating generator proxy that counts exponential draws."""

    __slots__ = ("_rng", "exponentials")

    def __init__(self, rng):
        self._rng = rng
        self.exponentials = 0

    def exponential(self, *args, **kwargs):
        self.exponentials += 1
        return self._rng.exponential(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        return self._rng.uniform(*args, **kwargs)

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class _PoissonProxy:
    """Stands in for ``scipy.stats.poisson`` inside ``exact``."""

    def __init__(self, tracer, real):
        self._tracer = tracer
        self._real = real

    def pmf(self, k, mu):
        self._tracer.last_K = len(k) - 1
        return self._real.pmf(k, mu)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """In-memory span recorder and counter table for one traced phase."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent index, step, self)
        self._stack = []     # [span index, start, child time]
        self.step = None
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        self.durations = defaultdict(list)
        self.last_K = 0
        self._saved = []

    # --- spans ---------------------------------------------------------

    def open(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.step, 0.0))
        self._stack.append([idx, time.perf_counter(), 0.0])

    def close(self):
        end = time.perf_counter()
        idx, start, child = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        name, _, _, parent, step, _ = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, step, dur - child)
        self.durations[name].append(dur)

    # --- installation --------------------------------------------------

    def _rebind(self, original, replacement):
        for mod in _MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        """Rebind the traced functions and proxies in every module."""
        hooks = _hooks()
        for mod_name, names in TRACED.items():
            mod = sys.modules[f"moranlines.{mod_name}"]
            for fn_name in names:
                key = f"{mod_name}.{fn_name}"
                original = getattr(mod, fn_name)
                self._rebind(original, self._wrap(key, original,
                                                  hooks.get(key)))
        self._saved.append((exact, "poisson", exact.poisson))
        exact.poisson = _PoissonProxy(self, exact.poisson)
        real_ivp = reduced.solve_ivp

        def solve_ivp(*args, **kwargs):
            sol = real_ivp(*args, **kwargs)
            self.counters["reduced.ode.solves"] += 1
            for k in ("nfev", "njev", "nlu"):
                self.counters[f"reduced.ode.{k}"] += getattr(sol, k)
            return sol

        self._saved.append((reduced, "solve_ivp", real_ivp))
        reduced.solve_ivp = solve_ivp

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _wrap(self, key, fn, hook):
        if hook is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.open(key)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close()
            return wrapper

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            args, kwargs, state = hook.before(self, args, kwargs)
            self.open(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            hook.after(self, args, kwargs, result, state)
            return result
        return hooked


# --- counter hooks -----------------------------------------------------------

class _Hook:
    def before(self, tracer, args, kwargs):
        return args, kwargs, None

    def after(self, tracer, args, kwargs, result, state):
        pass


class _Transitions(_Hook):
    def after(self, tracer, args, kwargs, result, state):
        tracer.counters["backward.transitions"] += len(result)


class _BpGenerator(_Hook):
    def after(self, tracer, args, kwargs, result, state):
        c = tracer.counters
        c["exact.build_bp_generator.states"] += result.n
        c["exact.build_bp_generator.nnz"] += result.Q.nnz


class _TypeGenerator(_Hook):
    def after(self, tracer, args, kwargs, result, state):
        tracer.counters["exact.build_type_generator.states"] += result.n


class _Expm(_Hook):
    def before(self, tracer, args, kwargs):
        tracer.last_K = 0
        return args, kwargs, None

    def after(self, tracer, args, kwargs, result, state):
        gen = args[0] if args else kwargs["gen"]
        K = tracer.last_K
        c = tracer.counters
        c["exact.expm_apply.K_sum"] += K
        c["exact.expm_apply.matvec_nnz"] += K * gen.Q.nnz
        tracer.maxima["exact.expm_apply.K_max"] = max(
            tracer.maxima["exact.expm_apply.K_max"], K)


class _NTop(_Hook):
    def __init__(self, key):
        self.key = key

    def after(self, tracer, args, kwargs, result, state):
        tracer.maxima[self.key] = max(tracer.maxima[self.key], result.n_top)


class _SamplePath(_Hook):
    """Counts events, state visits, tables built and rng proposals."""

    def before(self, tracer, args, kwargs):
        args = list(args)
        if len(args) > 2:
            rng = args[2] = CountingRng(args[2])
        else:
            rng = kwargs["rng"] = CountingRng(kwargs["rng"])
        cache = kwargs.get("cache", args[4] if len(args) > 4 else None)
        before = len(cache) if cache is not None else 0
        return tuple(args), kwargs, (rng, cache, before)

    def after(self, tracer, args, kwargs, result, state):
        rng, cache, before = state
        events = len(result.events)
        visits = events + 1
        c = tracer.counters
        c["transformed.events"] += events
        c["transformed.visits"] += visits
        c["transformed.proposals"] += rng.exponentials
        c["transformed.tables_built"] += (
            len(cache) - before if cache is not None else visits)


class _RunUntil(_Hook):
    def before(self, tracer, args, kwargs):
        args = list(args)
        if len(args) > 3:
            rng = args[3] = CountingRng(args[3])
        else:
            rng = kwargs["rng"] = CountingRng(kwargs["rng"])
        return tuple(args), kwargs, rng

    def after(self, tracer, args, kwargs, result, rng):
        # one exponential per applied event plus the one that overshoots T
        tracer.counters["forward.run_until.events"] += rng.exponentials - 1


class _NeutralPairs(_Hook):
    def before(self, tracer, args, kwargs):
        return args, kwargs, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def after(self, tracer, args, kwargs, result, rss_before):
        rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before
        c = tracer.counters
        c["forward.pair_reps"] += len(result)
        tracer.maxima["forward.neutral_pair_distance_samples.rss_rise_mb"] = max(
            tracer.maxima["forward.neutral_pair_distance_samples.rss_rise_mb"],
            rise / 1024.0)


def _hooks() -> dict:
    return {
        "backward.enumerate_transitions": _Transitions(),
        "exact.build_bp_generator": _BpGenerator(),
        "exact.build_type_generator": _TypeGenerator(),
        "exact.expm_apply": _Expm(),
        "reduced.dist_survival": _NTop("reduced.dist_survival.n_top"),
        "reduced.cat_equilibrium": _NTop("reduced.cat_equilibrium.n_top"),
        "transformed.sample_transformed_path": _SamplePath(),
        "forward.run_until": _RunUntil(),
        "forward.neutral_pair_distance_samples": _NeutralPairs(),
    }


# --- aggregation ---------------------------------------------------------------

def _quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    k = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[k]


def summarize(tracer: Tracer) -> dict:
    """Per-function and per-layer table of one traced phase.

    Returns {"functions": {key: {calls, s, self_s, p50_us, p99_us}},
    "layers": {module: inclusive s of its outermost spans},
    "counters": {...}}.
    """
    funcs = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    layers = defaultdict(float)
    spans = tracer.spans
    for name, start, end, parent, _step, self_s in spans:
        dur = end - start
        if name.startswith("step."):
            continue
        f = funcs[name]
        f["calls"] += 1
        f["self_s"] += self_s
        layer = name.split(".", 1)[0]
        # inclusive time counts once per outermost span of a function and
        # of a layer, so recursion and same-layer nesting are not doubled
        ancestors = set()
        p = parent
        while p >= 0:
            ancestors.add(spans[p][0])
            p = spans[p][3]
        if name not in ancestors:
            f["s"] += dur
        if not any(a.split(".", 1)[0] == layer for a in ancestors):
            layers[layer] += dur
    for name, f in funcs.items():
        durs = tracer.durations[name]
        f["p50_us"] = _quantile(durs, 0.5) * 1e6
        f["p99_us"] = _quantile(durs, 0.99) * 1e6
    counters = dict(tracer.counters)
    counters.update(tracer.maxima)
    return {"functions": dict(funcs),
            "layers": {k: layers.get(k, 0.0) for k in LAYERS},
            "counters": counters}
