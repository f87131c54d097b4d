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
from scipy import integrate
from scipy.special import gammaln, logsumexp

__all__ = [
    "ParamError",
    "BudgetError",
    "ModelParams",
    "StationaryTypeLaw",
    "MixedMomentTable",
    "validate_params",
    "resampling_rate",
    "two_type_mutation_rates",
    "finite_stationary_law",
    "pn_probability",
    "wf_mixed_moments",
    "wf_single_moment",
    "moment_recurrence_residuals",
]

# linear-scale probability work switches to logs above this population size
LOG_SCALE_THRESHOLD = 200


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
    """Stationary law of the type-frequency (count-vector) chain.

    counts enumerates the d-dimensional count vectors summing to N; weights
    is the probability of each.  For d = 2 the enumeration is
    ((N-k, k) for k in 0..N) so weights[k] is the law of the type-1 count.
    """

    N: int
    d: int
    counts: tuple
    weights: np.ndarray = field(compare=False)
    log_weights: np.ndarray = field(compare=False)

    def index_of(self, count_vec) -> int:
        try:
            return self.counts.index(tuple(count_vec))
        except ValueError:
            raise ParamError("count vector outside the law's state space") from None

    @property
    def k_weights(self) -> np.ndarray:
        if self.d != 2:
            raise ParamError("two-type law required")
        return self.weights

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


def finite_stationary_law(p: ModelParams, cap: int = 100_000) -> StationaryTypeLaw:
    """Exact stationary law of the N-site type-frequency chain.

    d = 2 reduces to a birth-death chain on k = #type-1 sites with
        up(k)   = (N-k) B b(0,1) + k (N-k) (1/2 + S/2N)
        down(k) = k B b(1,0)     + k (N-k) (1/2 - S/2N)
    solved in product form.  d > 2 solves the count-vector chain as a
    linear system, refusing above `cap` states.
    """
    validate_params(p)
    if p.B <= 0 or not _irreducible(p.b):
        raise ParamError("no unique stationary law")
    N, d = p.N, p.d

    if d == 2:
        ks = np.arange(N + 1, dtype=float)
        sel_up = 0.5 + p.S / (2.0 * N)
        sel_down = 0.5 - p.S / (2.0 * N)
        lam = (N - ks) * p.B * p.b[0][1] + ks * (N - ks) * sel_up      # k -> k+1
        mu = ks * p.B * p.b[1][0] + ks * (N - ks) * sel_down           # k -> k-1
        log_ratio = np.zeros(N + 1)
        log_ratio[1:] = np.log(lam[:-1]) - np.log(mu[1:])
        log_w = np.cumsum(log_ratio)
        if N <= LOG_SCALE_THRESHOLD:
            w = np.exp(log_w - log_w.max())
            w /= w.sum()
            log_w = np.log(w)
        else:
            log_w = log_w - logsumexp(log_w)
            w = np.exp(log_w)
        counts = tuple((N - k, k) for k in range(N + 1))
        return StationaryTypeLaw(N=N, d=2, counts=counts, weights=w, log_weights=log_w)

    counts = tuple(_compositions(N, d))
    n_states = len(counts)
    if n_states > cap:
        raise BudgetError("exact solve infeasible")
    index = {c: i for i, c in enumerate(counts)}
    Q = np.zeros((n_states, n_states))
    for i, c in enumerate(counts):
        for u in range(d):
            if c[u] == 0:
                continue
            for v in range(d):
                if v == u:
                    continue
                tgt = list(c)
                tgt[u] -= 1
                tgt[v] += 1
                j = index[tuple(tgt)]
                rate = c[u] * p.B * p.b[u][v]                      # one u-site mutates to v
                rate += c[v] * c[u] * resampling_rate(p, v, u)     # a v-site overwrites a u-site
                Q[i, j] += rate
                Q[i, i] -= rate
    A = Q.T.copy()
    A[-1, :] = 1.0
    rhs = np.zeros(n_states)
    rhs[-1] = 1.0
    w = np.linalg.solve(A, rhs)
    w = np.clip(w, 0.0, None)
    w /= w.sum()
    with np.errstate(divide="ignore"):
        log_w = np.log(w)
    return StationaryTypeLaw(N=N, d=d, counts=counts, weights=w, log_weights=log_w)


def pn_probability(law: StationaryTypeLaw, n: int, m: int) -> float:
    """P_N(1^n, 0^m): n distinct sites carry type 1 and m further sites type 0.

    By exchangeability this is the falling-factorial sampling average
    sum_k w_k (k)_n (N-k)_m / (N)_{n+m}.
    """
    if law.d != 2:
        raise ParamError("two-type law required")
    if n < 0 or m < 0:
        raise ParamError("negative sample size")
    N = law.N
    if n + m > N:
        raise ParamError("sample larger than population")
    if n == 0 and m == 0:
        return 1.0
    if N <= LOG_SCALE_THRESHOLD:
        total = 0.0
        denom = math.perm(N, n + m)
        for k in range(n, N - m + 1):
            wk = float(law.weights[k])
            if wk == 0.0:
                continue
            total += wk * (math.perm(k, n) * math.perm(N - k, m) / denom)
        return total
    ks = np.arange(n, N - m + 1)
    log_terms = (
        law.log_weights[ks]
        + gammaln(ks + 1) - gammaln(ks - n + 1)
        + gammaln(N - ks + 1) - gammaln(N - ks - m + 1)
        - (gammaln(N + 1) - gammaln(N - n - m + 1))
    )
    return float(np.exp(logsumexp(log_terms)))


@dataclass(frozen=True)
class MixedMomentTable:
    """E[(n, m)] = E[1^n, 0^m], the equilibrium mixed moments of the
    two-type diffusion limit, for all n + m <= maxOrder."""

    E: dict = field(compare=False)
    maxOrder: int

    def moment(self, n: int, m: int) -> float:
        try:
            return self.E[(n, m)]
        except KeyError:
            raise ParamError("moment order beyond table") from None


@functools.lru_cache(maxsize=None)
def _log_raw_moment(a0: float, a1: float, two_s: float, n: int, m: int) -> float:
    # log of the unnormalized moment of z^n (1-z)^m against
    # z^{a1-1}(1-z)^{a0-1}e^{2Sz}, integrated after z = sin^2(theta) to tame
    # the boundary singularities.  When both sine and cosine powers are
    # positive the log-integrand has an interior peak, which is subtracted
    # before exponentiating; large mutation shapes otherwise underflow the
    # direct integrand to zero.
    pow_sin = 2 * n + 2 * a1 - 1
    pow_cos = 2 * m + 2 * a0 - 1

    peak = 0.0
    pts = None
    if pow_sin > 0.0 and pow_cos > 0.0:
        if two_s == 0.0:
            z_star = pow_sin / (pow_sin + pow_cos)
        else:
            beta = pow_sin + pow_cos - 2.0 * two_s
            z_star = (-beta + math.sqrt(beta * beta
                                        + 8.0 * two_s * pow_sin)) / (4.0 * two_s)
        peak = (0.5 * pow_sin * math.log(z_star)
                + 0.5 * pow_cos * math.log1p(-z_star) + two_s * z_star)
        pts = (math.asin(math.sqrt(z_star)),)

    def f(theta):
        s = math.sin(theta)
        c = math.cos(theta)
        if s <= 0.0 or c <= 0.0:
            return 0.0
        return 2.0 * math.exp(pow_sin * math.log(s) + pow_cos * math.log(c)
                              + two_s * s * s - peak)

    val, _ = integrate.quad(f, 0.0, math.pi / 2.0,
                            epsabs=1e-14, epsrel=1e-11, limit=400, points=pts)
    return math.log(val) + peak


def _moment_shape(p: ModelParams) -> tuple:
    b0, b1 = two_type_mutation_rates(p)
    a1 = 2.0 * p.B * b1
    a0 = 2.0 * p.B * b0
    if a1 <= 0 or a0 <= 0:
        raise ParamError("density not normalizable at a boundary")
    return a0, a1, 2.0 * p.S


def wf_single_moment(p: ModelParams, n: int, m: int) -> float:
    """E[1^n, 0^m] of the stationary two-type diffusion, one order at a time."""
    validate_params(p)
    if n < 0 or m < 0:
        raise ParamError("negative sample size")
    a0, a1, two_s = _moment_shape(p)
    if (n, m) == (0, 0):
        return 1.0
    return math.exp(_log_raw_moment(a0, a1, two_s, n, m)
                    - _log_raw_moment(a0, a1, two_s, 0, 0))


def wf_mixed_moments(p: ModelParams, maxOrder: int) -> MixedMomentTable:
    """Mixed moments of the stationary two-type diffusion by quadrature.

    The stationary density of the limit generator
        [B b1 (1-z) - B b0 z + S z(1-z)] f' + (1/2) z (1-z) f''
    is z^{2Bb1-1} (1-z)^{2Bb0-1} e^{2Sz} up to normalization; each moment
    is integrated adaptively after the substitution z = sin^2(theta),
    which absorbs the boundary singularities into polynomial weights.
    """
    validate_params(p)
    if maxOrder < 1:
        raise ParamError("maxOrder must be positive")
    a0, a1, two_s = _moment_shape(p)
    log_norm = _log_raw_moment(a0, a1, two_s, 0, 0)
    table = {}
    for n in range(maxOrder + 1):
        for m in range(maxOrder + 1 - n):
            table[(n, m)] = (math.exp(_log_raw_moment(a0, a1, two_s, n, m)
                                      - log_norm)
                             if (n, m) != (0, 0) else 1.0)
    return MixedMomentTable(E=table, maxOrder=maxOrder)


def moment_recurrence_residuals(table: MixedMomentTable, p: ModelParams) -> float:
    """Max relative residual of the three equilibrium moment recurrences.

    With E0_k = E[0^k], E1_k = E[1, 0^k], E2_k = E[1^2, 0^k]:
      (n+1+2B+2S) E0_{n+2} = (n+1+2Bb0) E0_{n+1} + 2S E0_{n+3}
      ((n+2)(n+1+2B+2S) - 2S) E1_{n+1}
          = (n+1)(n+2Bb0) E1_n + 2Bb1 E0_{n+1} + (n+2) 2S E1_{n+2}
      ((n+2)(n+1+2B+2S) - 4S) E2_n
          = n(n+2Bb0-1) E2_{n-1} + 2(1+2Bb1) E1_n + (n+2) 2S E2_{n+1}
    """
    b0, b1 = two_type_mutation_rates(p)
    B, S = p.B, p.S
    E = table.E
    worst = 0.0
    for n in range(0, table.maxOrder - 2):
        lhs = (n + 1 + 2 * B + 2 * S) * E[(0, n + 2)]
        rhs = (n + 1 + 2 * B * b0) * E[(0, n + 1)] + 2 * S * E[(0, n + 3)]
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))

        lhs = ((n + 2) * (n + 1 + 2 * B + 2 * S) - 2 * S) * E[(1, n + 1)]
        rhs = ((n + 1) * (n + 2 * B * b0) * E[(1, n)]
               + 2 * B * b1 * E[(0, n + 1)]
               + (n + 2) * 2 * S * E[(1, n + 2)])
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))

        lhs = ((n + 2) * (n + 1 + 2 * B + 2 * S) - 4 * S) * E[(2, n)]
        rhs = (2 * (1 + 2 * B * b1) * E[(1, n)]
               + (n + 2) * 2 * S * E[(2, n + 1)])
        if n >= 1:
            rhs += n * (n + 2 * B * b0 - 1) * E[(2, n - 1)]
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    return worst
