"""Exact finite-state machinery: generators, semigroup action, duality.

Builds sparse generators for the type-configuration chain (d^N states)
and for the backward chain restricted to its reachable set, applies
e^{tQ} or the weighted semigroup e^{t(Q+diag V)} to vectors by one
uniformized pass over a uniform time grid (`_law_grid`, whose one-step
case is `expm_apply`), and checks the moment identity tying the two
chains together: the expected indicator-product under the forward
evolution equals the weighted backward expectation of its initial
average.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.special import gammaln, xlogy

from .model import (BudgetError, ModelParams, ParamError, StationaryTypeLaw,
                    finite_stationary_law, validate_params)
from .backward import BpState, enumerate_transitions, feynman_kac_V

__all__ = [
    "GeneratorMatrix",
    "DualityReport",
    "build_type_generator",
    "build_bp_generator",
    "expm_apply",
    "config_law_vector",
    "check_duality",
    "duality_reports",
    "compute_h",
    "harmonic_residual",
    "compute_hT",
]

STATE_CAP = 200_000  # most configurations or backward states enumerated
EXPM_TOL = 1e-11  # per-entry accuracy target of the uniformized semigroup
EXPM_K_CAP = 100_000  # most Poisson terms (matrix-vector products) per call
HARMONIC_TOL = 1e-8  # largest sup-norm of (Q + diag V) h taken as harmonic


class _Poisson:
    """Poisson probabilities by the log-pmf formula of scipy.stats.poisson,
    which they match bit for bit, without importing scipy.stats."""

    @staticmethod
    def pmf(k, mu):
        return np.exp(xlogy(k, mu) - gammaln(k + 1) - mu)


poisson = _Poisson()


@dataclass(frozen=True)
class GeneratorMatrix:
    """Sparse rate matrix over an explicit state tuple.

    Rows sum to zero; fk_diagonal, when present, is the extra diagonal
    weight turning e^{tQ} into the weighted (non-conservative) semigroup.
    The state index and the uniformization operator are built on first
    use and kept on the instance, so every expm_apply call on one
    generator shares the operator.
    """

    states: tuple
    Q: sparse.csr_matrix
    fk_diagonal: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.states)

    @functools.cached_property
    def index(self) -> dict:
        """state -> row number."""
        return {s: k for k, s in enumerate(self.states)}

    @functools.cached_property
    def _uniformized(self) -> tuple:
        """(c, lam, P): the shift c = max V, the rate lam and the jump
        matrix P = I + (Q + diag(V - c)) / lam; P is None when lam <= 0."""
        A = self.Q
        c = 0.0
        if self.fk_diagonal is not None:
            c = float(np.max(self.fk_diagonal))
            A = A + sparse.diags(self.fk_diagonal - c)
        lam = float(np.max(-A.diagonal()))
        if lam <= 0.0:
            return c, lam, None
        return c, lam, (A / lam + sparse.identity(self.n, format="csr")).tocsr()


def _generator(starts, moves, weight=None, make=None) -> GeneratorMatrix:
    """Generator on the states reachable from starts.

    States are numbered by key breadth-first, the start keys first in
    their order; moves(s) lists (target key, rate) pairs, and rates into
    one key add up.  make(key) builds the state of a key numbered for the
    first time (without make, the key is the state), so a key reached
    again costs one lookup.  weight(s), when given, fills the Feynman-Kac
    diagonal.  Refused once a state past STATE_CAP is reached.
    """
    index, states = {}, []

    def number(key):
        k = index.get(key)
        if k is None:
            if len(states) >= STATE_CAP:
                raise BudgetError("exact solve infeasible")
            k = index[key] = len(states)
            states.append(key if make is None else make(key))
        return k

    for s in starts:
        number(s)
    entries = {}
    # the loop also visits the states numbered during it: breadth-first
    for r, s in enumerate(states):
        for target, rate in moves(s):
            key = (r, number(target))
            entries[key] = entries.get(key, 0.0) + rate
    n = len(states)
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
    Q = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    fk = None if weight is None else np.array([weight(s) for s in states])
    return GeneratorMatrix(states=tuple(states), Q=Q, fk_diagonal=fk)


def _type_configs(p: ModelParams) -> tuple:
    """All d^N type configurations, refused above STATE_CAP up front."""
    _check_type_chain(p)
    return tuple(itertools.product(range(p.d), repeat=p.N))


def _check_type_chain(p: ModelParams) -> None:
    """Refuse a type chain of more than STATE_CAP configurations.  d >= 2,
    so d^min(N, 64) exceeds the cap exactly when d^N does, and a huge N
    never forms a huge integer."""
    if p.d ** min(p.N, 64) > STATE_CAP:
        raise BudgetError("exact solve infeasible")


def build_type_generator(p: ModelParams) -> GeneratorMatrix:
    """Generator of the full type-configuration chain on K^I.

    Mutation rewrites one site's type; resampling copies the type of one
    site onto another at the selection-tilted pair rate.  States keep the
    product order of the configurations.
    """
    validate_params(p)
    sel = p.S / (2.0 * p.N)

    def moves(cfg):
        out = [(cfg[:i] + (u,) + cfg[i + 1:], p.B * p.b[cfg[i]][u])
               for i in range(p.N) for u in range(p.d) if u != cfg[i]]
        out += [(cfg[:j] + (cfg[i],) + cfg[j + 1:],
                 0.5 + sel * (p.chi[cfg[i]] - p.chi[cfg[j]]))
                for i in range(p.N) for j in range(p.N) if cfg[j] != cfg[i]]
        return [m for m in out if m[1] > 0.0]

    return _generator(_type_configs(p), moves)


def build_bp_generator(p: ModelParams, starts) -> GeneratorMatrix:
    """Weighted generator of the backward chain on the set reachable from
    starts: the rates, plus V as the diagonal weight.  States are numbered
    by `BpState.key`, and one state is built per key."""
    validate_params(p)
    if isinstance(starts, BpState):
        starts = [starts]
    # both functions are looked up when called, so a rebound module
    # attribute takes effect
    return _generator(
        [s.key for s in starts],
        lambda s: [((s.j_sites, marks, active), rate)
                   for _kind, rate, marks, active
                   in enumerate_transitions(s, p)],
        lambda s: feynman_kac_V(s, p),
        lambda key: BpState(*key, p.d))


def _truncation(v: np.ndarray, mu: float, scale: float) -> int:
    """Poisson truncation K for e^{mu (P - I)} v, whose result is then
    multiplied by `scale`: the smallest K > mu (plus two) at which the
    Chernoff tail e^{-mu} (e mu / K)^K drops below EXPM_TOL per entry,
    refused above EXPM_K_CAP.  poisson.isf would be the obvious choice but
    returns NaN for quantiles under ~1e-16, which the scaling reaches
    routinely."""
    bound = max(float(np.max(np.abs(v))), float(np.sum(np.abs(v))), 1.0)
    tol_eff = max(EXPM_TOL / (scale * bound), 1e-300)
    logq = math.log(tol_eff)
    # the search stops past the cap, so an infinite mu is never converted
    K = int(min(mu, EXPM_K_CAP)) + 1
    while K <= EXPM_K_CAP and -mu + K * (1.0 + math.log(mu / K)) > logq:
        K += max(2, K // 8)
    K += 2
    if K > EXPM_K_CAP:
        raise BudgetError("Poisson truncation above its cap; shorten the time")
    return K


def expm_apply(gen: GeneratorMatrix, v, t: float,
               transpose: bool = False) -> np.ndarray:
    """Apply e^{t(Q + diag V)} (V from gen.fk_diagonal, if any) to v by
    uniformization.

    The weighted semigroup is shifted by c = max V so that the jump matrix
    stays substochastic; the Poisson series is truncated by `_truncation`.
    The jump matrix comes from the generator (built once); the truncation
    and weights depend on t and v and are computed per call.
    """
    # NaN fails every comparison, so this also refuses it
    if not t >= 0:
        raise ParamError("nonnegative time required")
    v = np.asarray(v, dtype=float)
    if v.shape != (gen.n,):
        raise ParamError("vector length must match state count")
    if not np.all(np.isfinite(v)):
        raise ParamError("finite vector required")
    if t == 0.0:
        return v.copy()
    return _law_grid(gen, v, t, 1, transpose)[0]


def _law_grid(gen: GeneratorMatrix, v: np.ndarray, step: float, n: int,
              transpose: bool) -> np.ndarray:
    """(n + 1) x gen.n array whose row i is v evolved for time
    (n - i) * step by the semigroup of gen, or by its transpose: the rows
    run in backward time, and the last is v.  expm_apply is the case
    n = 1.

    The grid is cut into windows of r steps, r * step at most one unit of
    uniformized time (one step when a single step is longer).  Every
    window shares one table of Poisson weights pmf(k; lam * step * i),
    i = 1..r, truncated for lam * step * r.  A window accumulates K
    products of the jump matrix with its start row into a contiguous
    buffer, scales row i by e^{c * step * i} after the sum, and copies
    the buffer into place reversed.
    """
    c, lam, P = gen._uniformized
    if P is None:
        return np.exp(c * (step * np.arange(n, -1, -1)))[:, None] * v
    if transpose:
        # a CSC view of P: no copy, and each entry sums in the same order
        P = P.T
    # min before int: a subnormal step makes 1 / (lam * step) infinite
    r = max(1, int(min(n, 1.0 / (lam * step))))
    K = _truncation(v, lam * (step * r), np.exp(c * (step * r)))
    times = step * np.arange(1, r + 1)[:, None]
    weights = poisson.pmf(np.arange(K + 1), lam * times)
    scale = np.exp(c * times)
    out = np.empty((n + 1, gen.n))
    out[n] = v
    acc, term = np.empty((r, gen.n)), np.empty((r, gen.n))
    for a in range(n, 0, -r):
        m = min(r, a)
        rows, part = acc[:m], term[:m]
        w = out[a]
        cols = weights[:m].T[:, :, None]  # cols[k] is (m, 1)
        np.multiply(cols[0], w, out=rows)
        for col in cols[1:]:
            w = P @ w
            np.multiply(col, w, out=part)
            rows += part
        rows *= scale[:m]
        out[a - m:a] = rows[::-1]
    return out


def h_star_vector(s: BpState, configs_arr: np.ndarray, d: int) -> np.ndarray:
    """Indicator, over an array of configurations (n_cfg x N), that a type
    configuration is compatible with a backward state: marks match
    exactly, active sites carry an allowed type."""
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
    vector over configs, a dict config -> probability, or an exchangeable
    stationary law object.
    """
    n = len(configs)
    if isinstance(mu, StationaryTypeLaw):
        vec = np.array([mu.config_probability(c) for c in configs])
    elif isinstance(mu, dict):
        vec = np.array([float(mu.get(c, 0.0)) for c in configs])
    else:
        arr = np.asarray(mu, dtype=float)
        if arr.shape == (p.d,):
            vec = np.array([np.prod([arr[u] for u in c]) for c in configs])
        elif arr.shape == (n,):
            vec = arr.copy()
        else:
            raise ParamError("unrecognized type-law shape")
    # NaN passes both checks below, since every comparison with it is false
    if not np.all(np.isfinite(vec)):
        raise ParamError("type law must be finite")
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


def _project(laws: np.ndarray, s: BpState, configs_arr: np.ndarray,
             d: int) -> np.ndarray:
    """Indicator average of one backward state under one type law or each
    row of laws; one state at a time, so no states x d^N array is built."""
    return laws @ h_star_vector(s, configs_arr, d)


def check_duality(p: ModelParams, start: BpState, mu,
                  t: float) -> DualityReport:
    """Both sides of the moment identity at a single start state and time."""
    return duality_reports(p, mu, [start], [t])[0]


def duality_reports(p: ModelParams, mu, starts, times) -> list:
    """Both sides of the moment identity for every start and time, one
    semigroup pass per side and time, sharing the type generator and one
    backward generator over the union of the starts' reachable sets;
    reports run over starts, then times.

    Left side: evolve the law mu of the types for time t and average each
    start's indicator against it.  Right side: evolve the indicators'
    time-zero averages under the weighted backward semigroup and read
    each start's entry.
    """
    starts = list(starts)
    type_gen = build_type_generator(p)
    bp_gen = build_bp_generator(p, starts)
    configs_arr = np.array(type_gen.states, dtype=np.int64)
    mu_vec = config_law_vector(p, mu, type_gen.states)
    laws = np.array([expm_apply(type_gen, mu_vec, t, transpose=True)
                     for t in times]).reshape(len(times), type_gen.n)
    lhs = [_project(laws, s, configs_arr, p.d) for s in starts]
    g0 = np.array([_project(mu_vec, s, configs_arr, p.d)
                   for s in bp_gen.states])
    rows = [bp_gen.index[s] for s in starts]
    rhs = [expm_apply(bp_gen, g0, t)[rows] for t in times]
    return [DualityReport(start=start, t=t, lhs=float(lhs[k][m]),
                          rhs=float(rhs[m][k]))
            for k, start in enumerate(starts) for m, t in enumerate(times)]


def compute_h(p: ModelParams, gen: GeneratorMatrix, law=None) -> np.ndarray:
    """Equilibrium indicator averages over the backward states.

    h(state) is the probability, under the stationary type law, that a
    configuration is compatible with the state.  Requires strictly
    positive values, and checks that h is harmonic for the weighted
    generator, to HARMONIC_TOL.
    """
    if gen.fk_diagonal is None:
        raise ParamError("weighted backward generator required")
    configs = _type_configs(p)
    if law is None:
        law = finite_stationary_law(p)
    configs_arr = np.array(configs, dtype=np.int64)
    pi = config_law_vector(p, law, configs)
    h = np.array([_project(pi, s, configs_arr, p.d) for s in gen.states])
    if np.min(h) <= 1e-14:
        raise ParamError("positivity assumption violated")
    res = harmonic_residual(gen, h)
    if res > HARMONIC_TOL:
        raise ArithmeticError(
            f"harmonic residual {res:.3e} exceeds {HARMONIC_TOL:.1e}")
    return h


def harmonic_residual(gen: GeneratorMatrix, h: np.ndarray) -> float:
    """sup-norm of (Q + diag V) h; zero iff h is invariant for the
    weighted semigroup."""
    if gen.fk_diagonal is None:
        raise ParamError("weighted backward generator required")
    return float(np.max(np.abs(gen.Q @ h + gen.fk_diagonal * h)))


def compute_hT(p: ModelParams, gen: GeneratorMatrix, mu, T: float,
               times) -> np.ndarray:
    """Time-indexed indicator averages under the forward evolution run for
    the remaining horizon.

    Row k gives, over gen.states, the probability that the types at time
    T - times[k] (started from law mu) are compatible with each state.
    Coincides with compute_h at every time when mu is stationary.
    """
    if T < 0:
        raise ParamError("nonnegative horizon required")
    if not all(0.0 <= t <= T for t in times):
        raise ParamError("time outside horizon")
    type_gen = build_type_generator(p)
    configs_arr = np.array(type_gen.states, dtype=np.int64)
    mu_vec = config_law_vector(p, mu, type_gen.states)
    laws = np.array([expm_apply(type_gen, mu_vec, T - t, transpose=True)
                     for t in times]).reshape(len(times), type_gen.n)
    out = np.array([_project(laws, s, configs_arr, p.d)
                    for s in gen.states]).T
    if np.any(out <= 0.0):
        raise ParamError("h positivity violated")
    return out
