"""Shared fixtures-as-functions for the test suite."""

import math

import numpy as np

from moranlines import BpState, ModelParams, make_state, validate_params


def mk(N, d=2, B=1.0, b=None, S=0.0, chi=None) -> ModelParams:
    """Validated parameter set with sensible defaults for the given d."""
    if b is None:
        b = tuple(tuple(1.0 / d for _ in range(d)) for _ in range(d))
    if chi is None:
        chi = tuple(k / (d - 1) for k in range(d))
    return validate_params(ModelParams(N=N, d=d, B=B, b=b, S=S, chi=chi))


def philox(*key):
    return np.random.Generator(np.random.Philox(key=key))


def rand_rows(rng, d, floor=0.05):
    """Row-stochastic matrix with entries bounded away from zero."""
    raw = rng.random((d, d)) + floor
    raw /= raw.sum(axis=1, keepdims=True)
    return tuple(tuple(float(x) for x in row) for row in raw)


def rand_chi(rng, d):
    if d == 2:
        return (0.0, 1.0)
    interior = np.sort(rng.uniform(0.05, 0.95, size=d - 2))
    return (0.0, *(float(x) for x in interior), 1.0)


def three_se(samples):
    """(mean, 3 * standard error) of a 0/1 or real sample array."""
    arr = np.asarray(samples, dtype=float)
    se = arr.std(ddof=1) / math.sqrt(arr.size)
    return float(arr.mean()), 3.0 * float(se)


def batch_means(values, weights, n_batches=50):
    """Weighted batch-means estimate: (mean, 3 * se across batches)."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    edges = np.linspace(0, values.size, n_batches + 1, dtype=int)
    means = np.array([
        np.average(values[a:b], weights=weights[a:b])
        for a, b in zip(edges[:-1], edges[1:])
    ])
    return float(means.mean()), 3.0 * float(means.std(ddof=1) / math.sqrt(n_batches))


def permute_type_config(config, perm):
    """Relabel sites of a configuration: site i becomes perm[i]."""
    out = [0] * len(config)
    for i, u in enumerate(config):
        out[perm[i]] = u
    return tuple(out)


def permute_bp_state(s: BpState, perm) -> BpState:
    """Relabel sites of a backward state by the same permutation."""
    pairs = sorted(zip((perm[j] for j in s.j_sites),
                       ((u, perm[i]) for (u, i) in s.marks)))
    new_active = [None] * s.N
    for i, sub in enumerate(s.active):
        new_active[perm[i]] = sub
    return make_state(tuple(j for j, _ in pairs), tuple(m for _, m in pairs),
                      new_active, s.d)
