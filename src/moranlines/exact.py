"""Exact finite-state machinery: generators, semigroup action, duality.

Builds sparse generators for the type-configuration chain (d^N states)
and for the backward chain restricted to its reachable set, applies
e^{tQ} or the weighted semigroup e^{t(Q+diag V)} to vectors by
uniformization, and checks the moment identity tying the two chains
together: the expected indicator-product under the forward evolution
equals the weighted backward expectation of its initial average.
"""
from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.stats import poisson

from .model import (BudgetError, ModelParams, ParamError, StationaryTypeLaw,
                    finite_stationary_law, validate_params)
from .backward import BpState, canonical_start, enumerate_transitions, feynman_kac_V, make_state

__all__ = [
    "GeneratorMatrix",
    "DualityReport",
    "build_type_generator",
    "build_bp_generator",
    "expm_apply",
    "h_star",
    "h_star_vector",
    "config_law_vector",
    "check_duality",
    "duality_reports",
    "compute_h",
    "harmonic_residual",
    "compute_hT",
    "permute_type_config",
    "permute_bp_state",
]

STATE_CAP = 200_000


@dataclass(frozen=True)
class GeneratorMatrix:
    """Sparse rate matrix over an explicit state tuple.

    Rows sum to zero; fk_diagonal, when present, is the extra diagonal
    weight turning e^{tQ} into the weighted (non-conservative) semigroup.
    """

    states: tuple
    index: dict
    Q: sparse.csr_matrix
    fk_diagonal: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.states)


def _assemble(n, entries):
    """entries: dict (row, col) -> rate, off-diagonal only."""
    rows, cols, vals = [], [], []
    diag = np.zeros(n)
    for (r, c), v in entries.items():
        rows.append(r)
        cols.append(c)
        vals.append(v)
        diag[r] -= v
    rows.extend(range(n))
    cols.extend(range(n))
    vals.extend(diag)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def build_type_generator(p: ModelParams, cap: int = STATE_CAP) -> GeneratorMatrix:
    """Generator of the full type-configuration chain on K^I.

    Mutation rewrites one site's type; resampling copies the type of one
    site onto another at the selection-tilted pair rate.
    """
    validate_params(p)
    n = p.d ** p.N
    if n > cap:
        raise BudgetError("exact solve infeasible")
    configs = tuple(itertools.product(range(p.d), repeat=p.N))
    index = {c: k for k, c in enumerate(configs)}
    entries = {}

    def add(r, cfg, rate):
        if rate <= 0.0:
            return
        c = index[cfg]
        if c == r:
            return
        entries[(r, c)] = entries.get((r, c), 0.0) + rate

    sel = p.S / (2.0 * p.N)
    for r, cfg in enumerate(configs):
        for i in range(p.N):
            for u in range(p.d):
                if u != cfg[i]:
                    add(r, cfg[:i] + (u,) + cfg[i + 1:], p.B * p.b[cfg[i]][u])
        for i in range(p.N):
            for j in range(p.N):
                if cfg[j] == cfg[i]:
                    continue
                rate = 0.5 + sel * (p.chi[cfg[i]] - p.chi[cfg[j]])
                add(r, cfg[:j] + (cfg[i],) + cfg[j + 1:], rate)

    return GeneratorMatrix(states=configs, index=index, Q=_assemble(n, entries))


def build_bp_generator(p: ModelParams, starts, with_fk: bool = True,
                       cap: int = STATE_CAP) -> GeneratorMatrix:
    """Generator of the backward chain on the set reachable from starts."""
    validate_params(p)
    if isinstance(starts, BpState):
        starts = [starts]
    index = {}
    states = []
    queue = deque()
    for s in starts:
        if s not in index:
            index[s] = len(states)
            states.append(s)
            queue.append(s)
    entries = {}
    while queue:
        s = queue.popleft()
        r = index[s]
        for tr in enumerate_transitions(s, p):
            c = index.get(tr.target)
            if c is None:
                if len(states) >= cap:
                    raise BudgetError("exact solve infeasible")
                c = index[tr.target] = len(states)
                states.append(tr.target)
                queue.append(tr.target)
            entries[(r, c)] = entries.get((r, c), 0.0) + tr.rate
    n = len(states)
    fk = np.array([feynman_kac_V(s, p) for s in states]) if with_fk else None
    return GeneratorMatrix(states=tuple(states), index=index,
                           Q=_assemble(n, entries), fk_diagonal=fk)


def expm_apply(gen: GeneratorMatrix, v, t: float, transpose: bool = False,
               tol: float = 1e-11) -> np.ndarray:
    """Apply e^{t(Q + diag V)} (V from gen.fk_diagonal, if any) to v by
    uniformization.

    The weighted semigroup is shifted by c = max V so that the jump matrix
    stays substochastic; the Poisson series is truncated once the tail
    bound drops below tol per entry.
    """
    if t < 0:
        raise ParamError("nonnegative time required")
    v = np.asarray(v, dtype=float)
    if v.shape != (gen.n,):
        raise ParamError("vector length must match state count")
    A = gen.Q
    c = 0.0
    if gen.fk_diagonal is not None:
        c = float(np.max(gen.fk_diagonal))
        A = A + sparse.diags(gen.fk_diagonal - c)
    if t == 0.0:
        return v.copy()
    diag = A.diagonal()
    lam = float(np.max(-diag))
    if lam <= 0.0:
        return np.exp(c * t) * v
    P = (A / lam + sparse.identity(gen.n, format="csr")).tocsr()
    if transpose:
        P = P.T.tocsr()
    mu = lam * t
    bound = max(float(np.max(np.abs(v))), float(np.sum(np.abs(v))), 1.0)
    tol_eff = max(tol / (np.exp(c * t) * bound), 1e-300)
    # smallest K > mu with the Chernoff tail e^{-mu} (e mu / K)^K below
    # tol_eff; poisson.isf would be the obvious choice but returns NaN for
    # quantiles under ~1e-16, which the exp(c t) scaling reaches routinely
    logq = math.log(tol_eff)
    K = int(mu) + 1
    while -mu + K * (1.0 + math.log(mu / K)) > logq:
        K += max(2, K // 8)
    K += 2
    weights = poisson.pmf(np.arange(K + 1), mu)
    acc = weights[0] * v
    w = v
    for k in range(1, K + 1):
        w = P @ w
        if weights[k] > 0.0:
            acc = acc + weights[k] * w
    return np.exp(c * t) * acc


def h_star(config, s: BpState) -> int:
    """Indicator that a type configuration is compatible with a backward
    state: marks match exactly, active sites carry an allowed type."""
    for (u, site, _members) in s.blocks:
        if config[site] != u:
            return 0
    for i in s.act_sites:
        if config[i] not in s.active[i]:
            return 0
    return 1


def h_star_vector(s: BpState, configs_arr: np.ndarray, d: int) -> np.ndarray:
    """Vectorized indicator over an array of configurations (n_cfg x N)."""
    mask = np.ones(configs_arr.shape[0], dtype=bool)
    for (u, site, _members) in s.blocks:
        mask &= configs_arr[:, site] == u
    for i in s.act_sites:
        table = np.zeros(d, dtype=bool)
        table[list(s.active[i])] = True
        mask &= table[configs_arr[:, i]]
    return mask


def config_law_vector(p: ModelParams, mu, configs) -> np.ndarray:
    """Normalize a type-configuration law to a vector over configs.

    Accepts a per-site marginal (product law, length-d array), an explicit
    vector over configs, a dict config -> probability, an exchangeable
    stationary law object, or a callable.
    """
    n = len(configs)
    if isinstance(mu, StationaryTypeLaw):
        vec = np.array([mu.config_probability(c) for c in configs])
    elif isinstance(mu, dict):
        vec = np.array([float(mu.get(c, 0.0)) for c in configs])
    elif callable(mu):
        vec = np.array([float(mu(c)) for c in configs])
    else:
        arr = np.asarray(mu, dtype=float)
        if arr.shape == (p.d,):
            vec = np.array([np.prod([arr[u] for u in c]) for c in configs])
        elif arr.shape == (n,):
            vec = arr.copy()
        else:
            raise ParamError("unrecognized type-law shape")
    if np.any(vec < -1e-15):
        raise ParamError("type law must be nonnegative")
    total = float(vec.sum())
    if abs(total - 1.0) > 1e-9:
        raise ParamError("type law must sum to 1")
    return np.clip(vec, 0.0, None) / total


@dataclass(frozen=True)
class DualityReport:
    start: BpState
    t: float
    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)


def _configs_array(type_gen: GeneratorMatrix) -> np.ndarray:
    return np.array(type_gen.states, dtype=np.int64)


def _duality(p: ModelParams, mu, starts, times, type_gen: GeneratorMatrix,
             bp_gen: GeneratorMatrix) -> list:
    """Both sides of the moment identity for every start and time, one
    semigroup pass per side and time.

    Left side: evolve the law mu of the types for time t and average each
    start's indicator against it.  Right side: evolve the indicators'
    time-zero averages under the weighted backward semigroup and read
    each start's entry.
    """
    configs_arr = _configs_array(type_gen)
    mu_vec = config_law_vector(p, mu, type_gen.states)
    masks = np.array([h_star_vector(s, configs_arr, p.d)
                      for s in bp_gen.states], dtype=float)
    rows = [bp_gen.index[s] for s in starts]
    g0 = masks @ mu_vec
    lhs = [masks[rows] @ expm_apply(type_gen, mu_vec, t, transpose=True)
           for t in times]
    rhs = [expm_apply(bp_gen, g0, t)[rows] for t in times]
    return [DualityReport(start=start, t=t, lhs=float(lhs[m][k]),
                          rhs=float(rhs[m][k]))
            for k, start in enumerate(starts) for m, t in enumerate(times)]


def check_duality(p: ModelParams, start: BpState, mu, t: float,
                  type_gen: GeneratorMatrix | None = None,
                  bp_gen: GeneratorMatrix | None = None) -> DualityReport:
    """Both sides of the moment identity at a single start state and time."""
    if type_gen is None:
        type_gen = build_type_generator(p)
    if bp_gen is None:
        bp_gen = build_bp_generator(p, start, with_fk=True)
    return _duality(p, mu, [start], [t], type_gen, bp_gen)[0]


def duality_reports(p: ModelParams, mu, starts, times) -> list:
    """check_duality over many starts and times, sharing the type generator
    and one backward generator over the union of the starts' reachable
    sets; reports run over starts, then times."""
    starts = list(starts)
    return _duality(p, mu, starts, times, build_type_generator(p),
                    build_bp_generator(p, starts, with_fk=True))


def compute_h(p: ModelParams, gen: GeneratorMatrix, law=None,
              verify: bool = True, harmonic_tol: float = 1e-8) -> np.ndarray:
    """Equilibrium indicator averages over the backward states.

    h(state) is the probability, under the stationary type law, that a
    configuration is compatible with the state.  Requires strictly
    positive values; when verify is set, checks that h is harmonic for
    the weighted generator.
    """
    if gen.fk_diagonal is None:
        raise ParamError("weighted backward generator required")
    if law is None:
        law = finite_stationary_law(p)
    configs = tuple(itertools.product(range(p.d), repeat=p.N))
    configs_arr = np.array(configs, dtype=np.int64)
    pi = config_law_vector(p, law, configs)
    h = np.array([h_star_vector(s, configs_arr, p.d) @ pi for s in gen.states])
    if np.min(h) <= 1e-14:
        raise ParamError("positivity assumption violated")
    if verify:
        res = harmonic_residual(gen, h)
        if res > harmonic_tol:
            raise ArithmeticError(
                f"harmonic residual {res:.3e} exceeds {harmonic_tol:.1e}")
    return h


def harmonic_residual(gen: GeneratorMatrix, h: np.ndarray) -> float:
    """sup-norm of (Q + diag V) h; zero iff h is invariant for the
    weighted semigroup."""
    if gen.fk_diagonal is None:
        raise ParamError("weighted backward generator required")
    return float(np.max(np.abs(gen.Q @ h + gen.fk_diagonal * h)))


def compute_hT(p: ModelParams, gen: GeneratorMatrix, mu, T: float, times,
               type_gen: GeneratorMatrix | None = None) -> np.ndarray:
    """Time-indexed indicator averages under the forward evolution run for
    the remaining horizon.

    Row k gives, over gen.states, the probability that the types at time
    T - times[k] (started from law mu) are compatible with each state.
    Coincides with compute_h at every time when mu is stationary.
    """
    if T < 0:
        raise ParamError("nonnegative horizon required")
    if type_gen is None:
        type_gen = build_type_generator(p)
    configs_arr = _configs_array(type_gen)
    mu_vec = config_law_vector(p, mu, type_gen.states)
    masks = np.array([h_star_vector(s, configs_arr, p.d)
                      for s in gen.states], dtype=float)
    out = np.empty((len(times), gen.n))
    for k, t in enumerate(times):
        if not (0.0 <= t <= T):
            raise ParamError("time outside horizon")
        rho = expm_apply(type_gen, mu_vec, T - t, transpose=True)
        out[k] = masks @ rho
    if np.any(out <= 0.0):
        raise ParamError("h positivity violated")
    return out


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
