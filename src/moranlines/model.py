"""Model parameters and stationary type-frequency machinery.

Everything downstream feeds on what lives here: the validated parameter
bundle, the exact stationary law of the finite-population type-frequency
chain, ordered sampling probabilities P_N(1^n, 0^m) drawn from it, and
the mixed moments E[1^n, 0^m] of the two-type diffusion limit in
equilibrium.  The reduced chains consume these as rate ratios, the
conditioning potentials consume them as terminal weights.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

__all__ = [
    "ParamError",
    "BudgetError",
    "ModelParams",
    "StationaryTypeLaw",
    "validate_params",
    "resampling_rate",
    "two_type_mutation_rates",
    "finite_stationary_law",
    "pn_probability",
    "wf_single_moment",
    "moment_recurrence_residuals",
]

# largest dense array, in bytes, of one table or block; it also bounds the
# count-chain solve by that chain's dense size
DENSE_SOLVE_BYTES = 256 * 2**20
COUNT_STATE_CAP = 100_000  # most count vectors the stationary law accepts
MOMENT_TERM_CAP = 2**20  # most terms of one equilibrium-moment series


class ParamError(ValueError):
    """A parameter bundle or call argument violates a model invariant."""


class BudgetError(RuntimeError):
    """An exact computation exceeds its configured state or accuracy budget."""


@dataclass(frozen=True)
class ModelParams:
    """Population size N, type count d, mutation (B, b), selection (S, chi).

    Types are K = {0, ..., d-1}.  b is row-stochastic: b[u][v] is the rate
    share of a u -> v mutation.  chi maps each type to a fitness level in
    [0, 1] with chi[0] = 0 and chi[d-1] = 1, strictly increasing, so the
    ordered-pair resampling rate 1/2 + (S/2N)(chi[u] - chi[v]) stays
    nonnegative whenever 0 <= S <= N.
    """

    N: int
    d: int
    B: float
    b: tuple
    S: float
    chi: tuple

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(tuple(float(x) for x in row) for row in self.b))
        object.__setattr__(self, "chi", tuple(float(x) for x in self.chi))


def validate_params(p: ModelParams) -> ModelParams:
    """Return p unchanged, or raise ParamError naming the first violation."""
    if not isinstance(p.N, int) or p.N < 1:
        raise ParamError("population size must be a positive integer")
    if not isinstance(p.d, int) or p.d < 2:
        raise ParamError("type count must be an integer >= 2")
    if not (math.isfinite(p.B) and p.B >= 0):
        raise ParamError("mutation rate must be finite and nonnegative")
    if len(p.b) != p.d or any(len(row) != p.d for row in p.b):
        raise ParamError("row not stochastic")
    # the comparisons below are phrased so that NaN fails them
    for row in p.b:
        if not all(x >= 0 for x in row) or not abs(sum(row) - 1.0) <= 1e-12:
            raise ParamError("row not stochastic")
    if len(p.chi) != p.d:
        raise ParamError("chi not strictly increasing from 0 to 1")
    if p.chi[0] != 0.0 or p.chi[-1] != 1.0:
        raise ParamError("chi not strictly increasing from 0 to 1")
    if not all(p.chi[u + 1] > p.chi[u] for u in range(p.d - 1)):
        raise ParamError("chi not strictly increasing from 0 to 1")
    if not (0.0 <= p.S <= p.N):
        raise ParamError("selection out of range")
    return p


def resampling_rate(p: ModelParams, u: int, v: int) -> float:
    """Rate at which an ordered site pair with types (u, v) fires src->dst."""
    return 0.5 + (p.S / (2.0 * p.N)) * (p.chi[u] - p.chi[v])


def two_type_mutation_rates(p: ModelParams) -> tuple:
    """(b0, b1) for a parent-independent two-type kernel.

    The reduced chains and the diffusion-limit moments are stated for
    b(u, 0) = b0 and b(u, 1) = b1 independent of u; anything else is
    rejected here rather than silently averaged.
    """
    if p.d != 2:
        raise ParamError("two-type kernel required")
    for v in range(2):
        if abs(p.b[0][v] - p.b[1][v]) > 1e-12:
            raise ParamError("parent-independent mutation kernel required")
    return p.b[0][0], p.b[0][1]


def _irreducible(b) -> bool:
    # reachability closure on the directed support graph of b
    d = len(b)
    reach = [[b[u][v] > 0 or u == v for v in range(d)] for u in range(d)]
    for k in range(d):
        for u in range(d):
            if reach[u][k]:
                row_k = reach[k]
                row_u = reach[u]
                for v in range(d):
                    if row_k[v]:
                        row_u[v] = True
    return all(all(row) for row in reach)


@dataclass(frozen=True)
class StationaryTypeLaw:
    """Stationary law of the type-frequency (count-vector) chain of model p.

    counts enumerates the d-dimensional count vectors summing to N; weights
    is the probability of each.  For d = 2 the enumeration is
    ((N-k, k) for k in 0..N) so weights[k] is the law of the type-1 count.
    """

    p: ModelParams
    counts: tuple
    weights: np.ndarray = field(compare=False)
    # n -> _pn_row(self, n), built on first use by pn_probability
    _pn_rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    N = property(lambda self: self.p.N)
    d = property(lambda self: self.p.d)

    def index_of(self, count_vec) -> int:
        try:
            return self.counts.index(tuple(count_vec))
        except ValueError:
            raise ParamError("count vector outside the law's state space") from None

    def config_probability(self, types) -> float:
        """Probability of one ordered type configuration (exchangeable split)."""
        counts = [0] * self.d
        for u in types:
            counts[u] += 1
        i = self.index_of(tuple(counts))
        coef = math.factorial(self.N)
        for c in counts:
            coef //= math.factorial(c)
        return float(self.weights[i]) / coef


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def finite_stationary_law(p: ModelParams) -> StationaryTypeLaw:
    """Exact stationary law of the N-site type-frequency chain.

    d = 2 reduces to a birth-death chain on k = #type-1 sites with
        up(k)   = (N-k) B b(0,1) + k (N-k) (1/2 + S/2N)
        down(k) = k B b(1,0)     + k (N-k) (1/2 - S/2N)
    solved in product form.  d > 2 solves the count-vector chain by a
    sparse LU, whose fill grows fast with d; it is refused when the
    chain's dense size, 8 n^2 bytes, would exceed DENSE_SOLVE_BYTES.
    Either is refused above COUNT_STATE_CAP count vectors.
    """
    validate_params(p)
    if p.B <= 0 or not _irreducible(p.b):
        raise ParamError("no unique stationary law")
    N, d = p.N, p.d
    n_states = math.comb(N + d - 1, d - 1)
    if n_states > COUNT_STATE_CAP:
        raise BudgetError("exact solve infeasible")

    if d == 2:
        ks = np.arange(N + 1, dtype=float)
        sel_up = 0.5 + p.S / (2.0 * N)
        sel_down = 0.5 - p.S / (2.0 * N)
        lam = (N - ks) * p.B * p.b[0][1] + ks * (N - ks) * sel_up      # k -> k+1
        mu = ks * p.B * p.b[1][0] + ks * (N - ks) * sel_down           # k -> k-1
        log_ratio = np.zeros(N + 1)
        log_ratio[1:] = np.log(lam[:-1]) - np.log(mu[1:])
        log_w = np.cumsum(log_ratio)
        w = np.exp(log_w - log_w.max())
        w /= w.sum()
        counts = tuple((N - k, k) for k in range(N + 1))
        return StationaryTypeLaw(p=p, counts=counts, weights=w)

    # the count chain's LU fills in fast with d (283 MiB of factors at
    # d = 3, N = 445; past 5 GB at d = 4, N = 81), so its dense size bounds it
    if 8 * n_states**2 > DENSE_SOLVE_BYTES:
        raise BudgetError("exact solve infeasible")
    from .exact import _generator  # exact imports this module

    def moves(c):
        # a u-site mutates to v, or a v-site overwrites a u-site
        out = [(tuple(x - (k == u) + (k == v) for k, x in enumerate(c)),
                c[u] * p.B * p.b[u][v] + c[v] * c[u] * resampling_rate(p, v, u))
               for u in range(d) for v in range(d) if v != u and c[u] > 0]
        return [m for m in out if m[1] > 0.0]

    counts = tuple(_compositions(N, d))
    w = stationary_vector(_generator(counts, moves).Q)
    return StationaryTypeLaw(p=p, counts=counts, weights=w)


def _solver(A):
    """b -> A^{-1} b by sparse LU and one step of iterative refinement."""
    from scipy.sparse.linalg import splu  # loaded on first use
    try:
        lu = splu(A)
    except RuntimeError as exc:  # a singular factor
        raise ArithmeticError(f"sparse solve failed: {exc}") from exc
    return lambda b: (x := lu.solve(b)) + lu.solve(b - A @ x)


def stationary_vector(Q) -> np.ndarray:
    """Stationary law pi Q = 0, sum pi = 1, of a sparse irreducible
    generator, by one sparse solve in which the normalization replaces the
    last balance equation."""
    n = Q.shape[0]
    A = sparse.vstack([Q.T.tocsr()[:-1], np.ones((1, n))], format="csc")
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    w = np.clip(_solver(A)(rhs), 0.0, None)
    return w / w.sum()


def _pn_row(law: StationaryTypeLaw, n: int) -> list:
    """[P_N(1^n, 0^m) for m = 0..N-n] in one pass: the terms
    w_k (k)_n (N-k)_m / (N)_{n+m}, k = n..N-m, start as w_k (k)_n / (N)_n,
    and each step in m multiplies them by (N-k-m) / (N-n-m), dropping k = N-m.
    """
    N = law.N
    ks = np.arange(n, N + 1, dtype=float)
    t = law.weights[n:].copy()
    for j in range(n):
        t *= (ks - j) / (N - j)
    row = [t.sum()]
    for m in range(N - n):
        t = t[:-1] * ((N - m - ks[:-m - 1]) / (N - n - m))
        row.append(t.sum())
    return row


def pn_probability(law: StationaryTypeLaw, n: int, m: int) -> float:
    """P_N(1^n, 0^m): n distinct sites carry type 1 and m further sites type 0.

    By exchangeability this is the falling-factorial sampling average
    sum_k w_k (k)_n (N-k)_m / (N)_{n+m}, read from a row over every m
    that is built once per law and n.
    """
    if law.d != 2:
        raise ParamError("two-type law required")
    if n < 0 or m < 0:
        raise ParamError("negative sample size")
    if n + m > law.N:
        raise ParamError("sample larger than population")
    if n == 0 and m == 0:
        return 1.0
    rows = law._pn_rows
    if n not in rows:
        rows[n] = _pn_row(law, n)
    return float(rows[n][m])


def _log_kummer(alpha: float, beta: float, x: float) -> float:
    # log M(alpha, beta, x) for 0 < alpha < beta and x >= 0 (DLMF 13.2.2).
    # Every term is positive.  The ratios r_k = t_{k+1} / t_k fall below 1
    # for good past the last k with r_k >= 1, so the term after it is taken
    # as the scale; the terms within a window of it are summed relative to
    # it by products walked outward, and those beyond it are negligible.
    window = int(40.0 * math.sqrt(x)) + 60
    n_terms = int(x) + 2 + window
    if n_terms > MOMENT_TERM_CAP:
        raise BudgetError("moment series above its term cap")
    k = np.arange(n_terms, dtype=float)
    r = (alpha + k) / (beta + k) * x / (k + 1.0)
    above = np.flatnonzero(r >= 1.0)
    j = int(above[-1]) + 1 if above.size else 0
    up = np.cumprod(r[j:j + window]).sum()
    down = np.cumprod(1.0 / r[max(j - window, 0):j][::-1]).sum()
    return float(np.log(r[:j]).sum()) + math.log1p(up + down)


@functools.lru_cache(maxsize=None)
def _log_raw_moment(a0: float, a1: float, two_s: float, n: int, m: int) -> float:
    # log of (a1)_n (a0)_m / (a)_{n+m} M(a1+n, a+n+m, 2S) with a = a0 + a1:
    # the moment integral of z^n (1-z)^m over the Beta normalizer
    # B(a1, a0) (DLMF 13.4.1).  The Pochhammer ratio is summed as logs of
    # factor ratios, so large shapes lose nothing to cancellation.
    a = a0 + a1
    i, j = np.arange(n, dtype=float), np.arange(m, dtype=float)
    log_ratio = (np.log((a1 + i) / (a + i)).sum()
                 + np.log((a0 + j) / (a + n + j)).sum())
    return float(log_ratio) + _log_kummer(a1 + n, a + n + m, two_s)


def wf_single_moment(p: ModelParams, n: int, m: int) -> float:
    """E[1^n, 0^m], a mixed moment of the stationary two-type diffusion.

    The stationary density of the limit generator
        [B b1 (1-z) - B b0 z + S z(1-z)] f' + (1/2) z (1-z) f''
    is z^{a1-1} (1-z)^{a0-1} e^{2Sz} up to normalization, with a0 = 2Bb0,
    a1 = 2Bb1 and a = a0 + a1.  By DLMF 13.4.1 each moment is
        (a1)_n (a0)_m / (a)_{n+m} M(a1+n, a+n+m, 2S) / M(a1, a, 2S),
    with Kummer's M summed as a series of positive terms, cached per
    order.  The series has about 2S terms; above MOMENT_TERM_CAP
    (S past about 5e5) it raises BudgetError before allocating any.
    """
    validate_params(p)
    if n < 0 or m < 0:
        raise ParamError("negative sample size")
    b0, b1 = two_type_mutation_rates(p)
    a0, a1, two_s = 2.0 * p.B * b0, 2.0 * p.B * b1, 2.0 * p.S
    if a1 <= 0 or a0 <= 0:
        raise ParamError("density not normalizable at a boundary")
    if (n, m) == (0, 0):
        return 1.0
    return math.exp(_log_raw_moment(a0, a1, two_s, n, m)
                    - _log_raw_moment(a0, a1, two_s, 0, 0))


def moment_recurrence_residuals(p: ModelParams, max_order: int) -> float:
    """Max relative residual of the three equilibrium moment recurrences,
    over every moment of total order at most max_order.

    With E0_k = E[0^k], E1_k = E[1, 0^k], E2_k = E[1^2, 0^k]:
      (n+1+2B+2S) E0_{n+2} = (n+1+2Bb0) E0_{n+1} + 2S E0_{n+3}
      ((n+2)(n+1+2B+2S) - 2S) E1_{n+1}
          = (n+1)(n+2Bb0) E1_n + 2Bb1 E0_{n+1} + (n+2) 2S E1_{n+2}
      ((n+2)(n+1+2B+2S) - 4S) E2_n
          = n(n+2Bb0-1) E2_{n-1} + 2(1+2Bb1) E1_n + (n+2) 2S E2_{n+1}
    """
    if max_order < 1:
        raise ParamError("maxOrder must be positive")
    b0, b1 = two_type_mutation_rates(p)
    B, S = p.B, p.S
    E = functools.partial(wf_single_moment, p)
    worst = 0.0
    for n in range(0, max_order - 2):
        lhs = (n + 1 + 2 * B + 2 * S) * E(0, n + 2)
        rhs = (n + 1 + 2 * B * b0) * E(0, n + 1) + 2 * S * E(0, n + 3)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))

        lhs = ((n + 2) * (n + 1 + 2 * B + 2 * S) - 2 * S) * E(1, n + 1)
        rhs = ((n + 1) * (n + 2 * B * b0) * E(1, n)
               + 2 * B * b1 * E(0, n + 1)
               + (n + 2) * 2 * S * E(1, n + 2))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))

        lhs = ((n + 2) * (n + 1 + 2 * B + 2 * S) - 4 * S) * E(2, n)
        rhs = (2 * (1 + 2 * B * b1) * E(1, n)
               + (n + 2) * 2 * S * E(2, n + 1))
        if n >= 1:
            rhs += n * (n + 2 * B * b0 - 1) * E(2, n - 1)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    return worst
