"""Reduced two-type chains: ancestor type and pair distance.

Both chains compress the conditioned backward dynamics for one or two
tagged positions (two types, parent-independent mutation) to a low-
dimensional state: the current mark type(s) plus the number of active
sites pinned to type 0.  Rates are ratios of sampling probabilities --
P_N(1^a, 0^c) at finite N, or the diffusion-limit mixed moments
E[1^a, 0^c] -- multiplying combinatorial prefactors.

The ancestor-type chain lives on {0,1} x {0..N-1} and has an equilibrium
whose mark marginal is the ancestor-type law.  The pair-distance chain
lives on {both-0, both-1, mixed} x {0..N-2} plus an absorbing state hit
at pair coalescence; its survival function in the diffusion limit obeys
a closed weighted ODE system checked here term by term.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
from scipy import sparse

from .model import (BudgetError, ModelParams, ParamError, StationaryTypeLaw,
                    _solver, finite_stationary_law, pn_probability,
                    stationary_vector, two_type_mutation_rates,
                    validate_params, wf_single_moment)
from .backward import canonical_start
from .exact import (GeneratorMatrix, _check_type_chain, _generator,
                    build_bp_generator, compute_h, expm_apply)

__all__ = [
    "ABSORBED",
    "Y_STATES",
    "CatChainSpec",
    "DistChainSpec",
    "SurvivalTable",
    "TaylorCoeffs",
    "CatEquilibrium",
    "ChainVsBpReport",
    "LemmaResidualReport",
    "cat_generator",
    "dist_generator",
    "cat_equilibrium",
    "cat_chain_vs_bp",
    "chains_vs_bp",
    "dist_survival",
    "dist_taylor_coeffs",
    "lemma_ode_residual",
    "dist_chain_vs_bp",
]

Y_STATES = ("00", "11", "01")  # pair classes: both 0, both 1, mixed
ABSORBED = "absorbed"
_Y_ONES = {"00": 0, "11": 2, "01": 1}

# limit ladders start at LADDER_START and double up to a cap, until the
# boundary mass (ancestor type) or each requested survival value (pair) settles
LADDER_START = 32
CAT_N_CAP = 4096
CAT_TAIL_TOL = 1e-10
DIST_N_CAP = 2048
DIST_CONV_TOL = 1e-9
CONTOUR_NODES = 16  # M: a contour for one time has M + 1 nodes
CONTOUR_SPAN = 4.0  # L: one contour serves the times in [t1 / L, t1]


@dataclass(frozen=True)
class _ChainSpec:
    """Rate source shared by the reduced chains.

    A finite chain (law set) reads sampling probabilities from the
    stationary law at population size N; a limit chain reads diffusion
    moments, computed lazily per order.
    """

    _min_N: ClassVar[int] = 1

    p: ModelParams
    law: StationaryTypeLaw | None = None

    @classmethod
    def finite_n(cls, p: ModelParams, law=None):
        validate_params(p)
        two_type_mutation_rates(p)
        if p.N < cls._min_N:
            raise ParamError("population of at least two required")
        if law is None:
            law = finite_stationary_law(p)
        elif law.p != p:
            raise ParamError("stationary law of another model")
        return cls(p=p, law=law)

    @classmethod
    def limit(cls, p: ModelParams):
        validate_params(p)
        two_type_mutation_rates(p)
        return cls(p=p)

    def prob(self, ones: int, zeros: int) -> float:
        value = (pn_probability(self.law, ones, zeros) if self.law is not None
                 else wf_single_moment(self.p, ones, zeros))
        if value < sys.float_info.min:  # 0 or subnormal: too few bits left
            raise ArithmeticError(f"sampling probability of (1^{ones}, "
                                  f"0^{zeros}) underflows to 0 or a subnormal")
        return value


@dataclass(frozen=True)
class CatChainSpec(_ChainSpec):
    """Ancestor-type chain on (mark u, pinned count n)."""


@dataclass(frozen=True)
class DistChainSpec(_ChainSpec):
    """Pair-distance chain on (pair class y, pinned count n) plus an
    absorbing coalescence state."""

    _min_N: ClassVar[int] = 2

    def weight(self, y: str, n: int) -> float:
        """Start weight of class y at pinned count n: the sampling
        probability of the corresponding typed pattern."""
        k = _Y_ONES[y]
        return self.prob(k, n + 2 - k)


def _cat_rates(spec: CatChainSpec, u: int, n: int, n_top: int) -> list:
    p = spec.p
    b0, b1 = two_type_mutation_rates(p)
    B, S, N = p.B, p.S, p.N
    finite = spec.law is not None
    den = spec.prob(u, n + 1 - u)
    out = []
    if n < n_top:
        fin = (N - 1.0 - n) / N if finite else 1.0
        rate = S * (n + 1) * fin * spec.prob(u, n + 2 - u) / den
        if rate > 0.0:
            out.append(((u, n + 1), rate))
    coef = B * b0 * n + math.comb(n + 1 - u, 2) * ((N - S) / N if finite else 1.0)
    if coef > 0.0:
        out.append(((u, n - 1), coef * spec.prob(u, n - u) / den))
    coef = B * (b1 if u == 1 else b0)
    if coef > 0.0:
        out.append(((1 - u, n), coef * spec.prob(1 - u, n + u) / den))
    return out


def _dist_rates(spec: DistChainSpec, y: str, n: int, n_top: int) -> list:
    p = spec.p
    b0, b1 = two_type_mutation_rates(p)
    B, S, N = p.B, p.S, p.N
    finite = spec.law is not None
    den = spec.weight(y, n)
    out = []
    if n < n_top:
        fin = (N - 2.0 - n) / N if finite else 1.0
        rate = S * (n + 2) * fin * spec.weight(y, n + 1) / den
        if rate > 0.0:
            out.append(((y, n + 1), rate))
    down_pairs = {"00": math.comb(n + 2, 2) - 1,
                  "11": math.comb(n, 2),
                  "01": math.comb(n + 1, 2)}[y]
    coef = B * b0 * n + down_pairs * ((N - S) / N if finite else 1.0)
    if coef > 0.0:
        out.append(((y, n - 1), coef * spec.weight(y, n - 1) / den))
    if y == "00":
        out.append((("01", n), 2.0 * B * b0 * spec.weight("01", n) / den))
    elif y == "11":
        out.append((("01", n), 2.0 * B * b1 * spec.weight("01", n) / den))
    else:
        out.append((("00", n), B * b1 * spec.weight("00", n) / den))
        out.append((("11", n), B * b0 * spec.weight("11", n) / den))
    # coalescence: only like-typed pairs can merge
    if y == "00":
        rate = ((N - S) / N if finite else 1.0) * spec.prob(0, n + 1) / den
        if finite:
            rate += S / N
        out.append((ABSORBED, rate))
    elif y == "11":
        rate = spec.prob(1, n) / den
        if finite:
            rate += (S / N) * spec.prob(1, n + 1) / den
        out.append((ABSORBED, rate))
    return [(tgt, r) for (tgt, r) in out if r > 0.0]


def cat_generator(spec: CatChainSpec, n_top: int | None = None) -> GeneratorMatrix:
    """Generator over (u, n); a finite chain tops out at n = N-1."""
    if spec.law is not None:
        n_top = spec.p.N - 1
    elif n_top is None:
        raise ParamError("limit mode needs an explicit truncation level")
    states = [(u, n) for u in (0, 1) for n in range(n_top + 1)]
    return _generator(states, lambda s: _cat_rates(spec, *s, n_top))


def dist_generator(spec: DistChainSpec, n_top: int | None = None,
                   with_absorbed: bool = True) -> GeneratorMatrix:
    """Generator over (y, n) and, optionally, the absorbing state.

    Without the absorbing state the coalescence rate appears only through
    the diagonal, which is exactly the survival-function generator: the
    transient block of the absorbing generator.
    """
    if spec.law is not None:
        n_top = spec.p.N - 2
    elif n_top is None:
        raise ParamError("limit mode needs an explicit truncation level")
    states = [(y, n) for y in Y_STATES for n in range(n_top + 1)]
    gen = _generator(states + [ABSORBED], lambda s: (
        [] if s == ABSORBED else _dist_rates(spec, *s, n_top)))
    if with_absorbed:
        return gen
    n = len(states)
    return GeneratorMatrix(states=tuple(states), Q=gen.Q[:n, :n])


@dataclass(frozen=True)
class CatEquilibrium:
    states: tuple
    pi: np.ndarray = field(compare=False)
    marginal: tuple = ()  # (P(mark 0), P(mark 1))
    n_top: int = 0


def cat_equilibrium(spec: CatChainSpec) -> CatEquilibrium:
    """Stationary law of the ancestor-type chain and its mark marginal,
    by one sparse solve per chain.

    A finite chain is solved on its 2N states, refused when its top level
    N - 1 passes CAT_N_CAP.  A limit chain is truncated at LADDER_START and
    doubled until the mass at the truncation boundary drops below
    CAT_TAIL_TOL, failing with a budget error past CAT_N_CAP.
    """
    finite = spec.law is not None
    n_top = spec.p.N - 1 if finite else LADDER_START
    if finite and n_top > CAT_N_CAP:
        raise BudgetError("finite ancestor-type chain above the level cap")
    while True:
        # checked before the level is built
        if n_top > CAT_N_CAP:
            raise BudgetError("tail bound unmet at nMax cap")
        gen = cat_generator(spec, n_top=n_top)
        pi = stationary_vector(gen.Q)
        tail = sum(pi[gen.index[(u, n_top)]] for u in (0, 1))
        if finite or tail < CAT_TAIL_TOL:
            break
        n_top *= 2
    m0 = float(sum(pi[k] for k, s in enumerate(gen.states) if s[0] == 0))
    m1 = float(sum(pi[k] for k, s in enumerate(gen.states) if s[0] == 1))
    return CatEquilibrium(states=gen.states, pi=pi, marginal=(m0, m1),
                          n_top=n_top)


# --- comparisons against the lumped conditioned backward chain ---------

def _transformed_generator(p: ModelParams, starts, law) -> GeneratorMatrix:
    """Conservative h-reweighted backward generator on the set reachable
    from starts."""
    gen = build_bp_generator(p, starts)
    h = compute_h(p, gen, law=law)
    scaled = sparse.diags(1.0 / h) @ gen.Q @ sparse.diags(h)
    scaled = scaled.tolil()
    scaled.setdiag(0.0)
    scaled = scaled.tocsr()
    diag = -np.asarray(scaled.sum(axis=1)).ravel()
    Qh = (scaled + sparse.diags(diag)).tocsr()
    return GeneratorMatrix(states=gen.states, Q=Qh)


def _pinned_count(s) -> int:
    n = 0
    for i in s.act_sites:
        sub = s.active[i]
        if sub == (0,):
            n += 1
        elif len(sub) != 2:
            raise RuntimeError("two-type closure violated in backward state")
    return n


def _cat_key(s):
    return (s.marks[0][0], _pinned_count(s))


def _dist_key(s):
    if len(s.blocks) == 1:
        return ABSORBED
    types = tuple(sorted(u for (u, _site, _m) in s.blocks))
    y = {(0, 0): "00", (1, 1): "11", (0, 1): "01"}[types]
    return (y, _pinned_count(s))


@dataclass(frozen=True)
class ChainVsBpReport:
    chain: str
    t: float
    max_gap: float
    details: tuple = ()


# start label -> types tagged at sites 0, 1, ...; a chain starts at (label, 0)
_CHAIN_STARTS = {
    "cat": {0: (0,), 1: (1,)},
    "dist": {"00": (0, 0), "11": (1, 1), "01": (0, 1)},
}


def _unit(gen: GeneratorMatrix, state) -> np.ndarray:
    v = np.zeros(gen.n)
    v[gen.index[state]] = 1.0
    return v


def chains_vs_bp(p: ModelParams, times, chains=("cat", "dist")) -> list:
    """Exact comparison: from each start, a reduced chain's time-t law must
    equal the conditioned backward chain's law lumped by the chain's key,
    (mark, pinned count) for the ancestor-type chain and (pair class,
    pinned count) for the pair chain, whose absorbing class collects
    every coalesced backward state.

    One conditioned generator over the union of all starts serves every
    chain and time; reports run over times, then chains.
    """
    validate_params(p)
    if "dist" in chains and p.N < 3:
        raise ParamError("population of at least three required")
    _check_type_chain(p)  # before the law and the reduced chains are built
    law = finite_stationary_law(p)
    setups = []
    for name in chains:
        if name == "cat":
            cgen = cat_generator(CatChainSpec.finite_n(p, law=law))
        else:
            cgen = dist_generator(DistChainSpec.finite_n(p, law=law))
        starts = {lab: canonical_start(p, dict(enumerate(types)))
                  for lab, types in _CHAIN_STARTS[name].items()}
        setups.append((name, cgen, starts))
    gen_h = _transformed_generator(
        p, [s for *_, starts in setups for s in starts.values()], law)

    lumps = []
    for name, cgen, _starts in setups:
        key = _cat_key if name == "cat" else _dist_key
        # lumped classes missing from the chain get slots past its states
        slots = dict(cgen.index)
        lumps.append((np.array([slots.setdefault(key(s), len(slots))
                                for s in gen_h.states]), len(slots)))
    out = []
    for t in times:
        for (name, cgen, starts), (lump, n_slots) in zip(setups, lumps):
            details = []
            for lab, start in starts.items():
                pi_bp = expm_apply(gen_h, _unit(gen_h, start), t,
                                   transpose=True)
                pi_c = np.zeros(n_slots)
                pi_c[:cgen.n] = expm_apply(cgen, _unit(cgen, (lab, 0)), t,
                                           transpose=True)
                lumped = np.bincount(lump, weights=pi_bp, minlength=n_slots)
                details.append((lab, float(np.max(np.abs(pi_c - lumped)))))
            out.append(ChainVsBpReport(
                chain=name, t=t, max_gap=max(g for _, g in details),
                details=tuple(details)))
    return out


def cat_chain_vs_bp(p: ModelParams, t: float) -> ChainVsBpReport:
    """chains_vs_bp for the ancestor-type chain at a single time."""
    return chains_vs_bp(p, (t,), ("cat",))[0]


def dist_chain_vs_bp(p: ModelParams, t: float) -> ChainVsBpReport:
    """chains_vs_bp for the pair chain at a single time."""
    return chains_vs_bp(p, (t,), ("dist",))[0]


# --- survival of the pair chain ----------------------------------------

@dataclass(frozen=True)
class SurvivalTable:
    """Survival probabilities of the pair chain, read from the solution
    vectors on the truncated level ladder (sol maps each time to one).

    f_value(y, n, t) is the probability of no coalescence by time t from
    (y, n); pf_value(n, t) is the start-weighted combination
    w00 f(00) + w11 f(11) + 2 w01 f(01).  Only the requested levels ns
    and times ts are served."""

    spec: DistChainSpec = field(repr=False)
    ts: tuple
    ns: tuple
    n_top: int
    gen: GeneratorMatrix = field(compare=False, repr=False)
    sol: dict = field(compare=False, repr=False)

    def f_value(self, y: str, n: int, t: float) -> float:
        if y not in Y_STATES or n not in self.ns or t not in self.ts:
            raise ParamError("survival value outside table")
        return float(self.sol[float(t)][self.gen.index[(y, n)]])

    def pf_value(self, n: int, t: float) -> float:
        f00, f11, f01 = (self.f_value(y, n, t) for y in Y_STATES)
        w = self.spec.weight
        return float(w("00", n) * f00 + w("11", n) * f11
                     + 2.0 * w("01", n) * f01)


# only the benchmark tracer (perfbench/tracer.py) calls or rebinds this
def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, with scipy.integrate loaded on first use."""
    from scipy import integrate
    return integrate.solve_ivp(*args, **kwargs)


def _perron_shift(Q) -> float:
    """Upper bound on Q's rightmost eigenvalue lam (real: -Q is an M-matrix):
    inverse iteration keeps x > 0, so min Qx/x <= lam <= max Qx/x."""
    solve, x = _solver(Q), np.ones(Q.shape[0])
    for _ in range(200):  # a near tie (B -> 0) still ends within 2e-5
        x = solve(-x / x.max())
        r = (Q @ x) / x
        if r.max() - r.min() <= 1e-6 * abs(r.max()):
            break
    return float(r.max())


def _survive_solve(spec: DistChainSpec, ts, n_top: int) -> tuple:
    """(generator, {t: e^{tQ} 1}) at every time in ts and at 0: for Q - lam
    (lam its rightmost eigenvalue), the trapezoidal rule on the Bromwich
    contour s(u) = mu (1 + iu)^2, u = kh, h = 3/M, with one contour for all
    times in [t1 / L, t1] (Weideman & Trefethen 2007; see the README)."""
    gen = dist_generator(spec, n_top=n_top, with_absorbed=False)
    Q, one, m = gen.Q.tocsc(), np.ones(gen.n), CONTOUR_NODES
    kill = -(Q @ one).min()  # 1 - f(t) <= t kill rounds off below 2^-54
    sol = {t: one for t in {0.0, *ts} if t * kill < 2.0 ** -54}
    later, lam = sorted(set(ts) - set(sol)), _perron_shift(Q)
    eye = sparse.identity(gen.n, format="csc")
    while later:
        window = [t for t in later if t <= CONTOUR_SPAN * later[0]]
        t1, later = window[-1], later[len(window):]
        # k h reaches sqrt(8 t1 / t0 + 1); conjugate symmetry: k >= 0
        k = math.ceil(m * math.sqrt(8.0 * t1 / window[0] + 1.0) / 3.0)
        z = 1.0 + 3j / m * np.arange(k + 1)
        s = math.pi * m / (12.0 * t1) * z * z  # mu = pi M / (12 t1)
        R = np.array([_solver((sk + lam) * eye - Q)(one) for sk in s])
        for t in window:
            # h s'(u) e^{(s + lam) t} / (pi i), the k = 0 node halved
            w = z * np.exp((s + lam) * t) / (2.0 * t1)
            w[0] /= 2.0
            sol[t] = np.minimum((w @ R).real, 1.0)  # the rule errs by 1e-14
            if not np.all(np.isfinite(sol[t])):
                raise ArithmeticError(f"non-finite survival at t = {t}")
    return gen, sol


def dist_survival(spec: DistChainSpec, ts, ns) -> SurvivalTable:
    """Survival table by contour quadrature of the truncated chain's
    semigroup, f(t) = e^{tQ} 1 (see _survive_solve).

    The truncation reflects the top level (the up-rate out of n_top is
    dropped); it starts at LADDER_START and doubles until all requested
    values move by less than DIST_CONV_TOL, failing with a budget error
    past DIST_N_CAP.
    """
    ts = tuple(float(t) for t in ts)
    ns = tuple(int(n) for n in ns)
    if not all(0.0 <= t < math.inf for t in ts):  # NaN fails too
        raise ParamError("finite nonnegative time required")
    if any(n < 0 for n in ns):
        raise ParamError("pinned count must be nonnegative")
    if spec.law is not None:
        n_top = spec.p.N - 2
        if any(n > n_top for n in ns):
            raise ParamError("pinned count outside finite chain range")
        return SurvivalTable(spec, ts, ns, n_top,
                             *_survive_solve(spec, ts, n_top))

    n_top = (LADDER_START if all(n <= LADDER_START for n in ns)
             else max(ns) + 16)
    sol = None
    while 2 * n_top <= DIST_N_CAP:
        if sol is None:
            gen, sol = _survive_solve(spec, ts, n_top)
        gen2, sol2 = _survive_solve(spec, ts, 2 * n_top)
        keys = [(y, n) for y in Y_STATES for n in ns]
        at = [gen.index[k] for k in keys]
        at2 = [gen2.index[k] for k in keys]
        worst = max(np.abs(sol[t][at] - sol2[t][at2]).max(initial=0.0)
                    for t in sol)
        gen, sol, n_top = gen2, sol2, 2 * n_top
        if worst < DIST_CONV_TOL:
            return SurvivalTable(spec, ts, ns, n_top, gen, sol)
    raise BudgetError("truncation unconverged at nMax cap")


@dataclass(frozen=True)
class TaylorCoeffs:
    """Derivatives at t = 0: pf[k] is the k-th derivative of the weighted
    survival pf_t(n); f_slope[y] is the first derivative of f_t(y, n)."""

    n: int
    pf: tuple
    f_slope: dict


def dist_taylor_coeffs(spec: DistChainSpec, n: int = 0,
                       order: int = 3) -> TaylorCoeffs:
    """Derivatives of the survival functions at t = 0.

    Each derivative is an exact generator power applied to the all-ones
    vector; the truncation level n + order + 2 leaves the needed band
    untouched, so the values carry only the moment table's precision.
    """
    if order < 0:
        raise ParamError("nonnegative order required")
    n_top = n + order + 2
    if spec.law is not None:
        if n_top > spec.p.N - 2:
            n_top = spec.p.N - 2
        if n > n_top:
            raise ParamError("pinned count outside finite chain range")
    elif n_top > DIST_N_CAP:
        raise BudgetError("truncation above nMax cap")
    gen = dist_generator(spec, n_top=n_top, with_absorbed=False)
    w = np.array([spec.weight("00", n), spec.weight("11", n),
                  2.0 * spec.weight("01", n)])
    idx = [gen.index[(y, n)] for y in Y_STATES]
    coeffs = []
    v = np.ones(gen.n)
    slopes = None
    for _k in range(order + 1):
        coeffs.append(float(w @ v[idx]))
        v = gen.Q @ v
        if slopes is None:
            slopes = {y: float(v[gen.index[(y, n)]]) for y in Y_STATES}
    return TaylorCoeffs(n=n, pf=tuple(coeffs), f_slope=slopes)


@dataclass(frozen=True)
class LemmaResidualReport:
    max_system: float
    max_pf: float
    n_cap: int
    ts: tuple


def lemma_ode_residual(spec: DistChainSpec, table: SurvivalTable,
                       n_cap: int | None = None) -> LemmaResidualReport:
    """Residuals of the closed weighted ODE system for the limit pair
    chain, with time derivatives computed through the generator (never by
    differencing) on the table's solution vectors.
    """
    p = spec.p
    b0, b1 = two_type_mutation_rates(p)
    B, S = p.B, p.S
    if n_cap is None:
        n_cap = max(table.ns)
    if n_cap + 1 > table.n_top:
        raise ParamError("table truncation too low for requested levels")
    gen = table.gen
    ts = table.ts
    E = spec.prob

    def f_at(vec, y, n):
        return vec[gen.index[(y, n)]]

    max_system = 0.0
    max_pf = 0.0
    for t in ts:
        f = table.sol[float(t)]
        df = gen.Q @ f
        for n in range(n_cap + 1):
            # class both-0
            lhs = E(0, n + 2) * f_at(df, "00", n)
            rhs = (2.0 * B * b0 * E(1, n + 1) * f_at(f, "01", n)
                   + (2 + n) * S * E(0, n + 3) * f_at(f, "00", n + 1)
                   - ((2 + n) * (n + 1 + 2 * B + 2 * S) / 2.0
                      - 2 * B + 2 * B * b1) * E(0, n + 2) * f_at(f, "00", n))
            if n >= 1:
                rhs += (n * B * b0 + (n + 2) * (n + 1) / 2.0 - 1.0) \
                    * E(0, n + 1) * f_at(f, "00", n - 1)
            max_system = max(max_system, abs(lhs - rhs))

            # class both-1
            lhs = E(2, n) * f_at(df, "11", n)
            rhs = (2.0 * B * b1 * E(1, n + 1) * f_at(f, "01", n)
                   + (n + 2) * S * E(2, n + 1) * f_at(f, "11", n + 1)
                   - ((2 + n) * (n + 1 + 2 * B + 2 * S) / 2.0
                      - 2 * S - 2 * B + 2 * B * b0) * E(2, n) * f_at(f, "11", n))
            if n >= 1:
                rhs += (n * B * b0 + n * (n - 1) / 2.0) \
                    * E(2, n - 1) * f_at(f, "11", n - 1)
            max_system = max(max_system, abs(lhs - rhs))

            # mixed class
            lhs = E(1, n + 1) * f_at(df, "01", n)
            rhs = (B * b1 * E(0, n + 2) * f_at(f, "00", n)
                   + B * b0 * E(2, n) * f_at(f, "11", n)
                   + (n + 2) * S * E(1, n + 2) * f_at(f, "01", n + 1)
                   - ((2 + n) * (n + 1 + 2 * B + 2 * S) / 2.0
                      - S - B) * E(1, n + 1) * f_at(f, "01", n))
            if n >= 1:
                rhs += (n * B * b0 + n * (n + 1) / 2.0) \
                    * E(1, n) * f_at(f, "01", n - 1)
            max_system = max(max_system, abs(lhs - rhs))

            # weighted recursion
            def pf(nn):
                return (E(0, nn + 2) * f_at(f, "00", nn)
                        + E(2, nn) * f_at(f, "11", nn)
                        + 2.0 * E(1, nn + 1) * f_at(f, "01", nn))

            dpf = (E(0, n + 2) * f_at(df, "00", n)
                   + E(2, n) * f_at(df, "11", n)
                   + 2.0 * E(1, n + 1) * f_at(df, "01", n))
            remainder = (2.0 * S * E(2, n) * f_at(f, "11", n)
                         + 2.0 * S * E(1, n + 1) * f_at(f, "01", n))
            if n >= 1:
                remainder += (2.0 * n * E(0, n + 1) * f_at(f, "00", n - 1)
                              + 2.0 * n * E(1, n) * f_at(f, "01", n - 1))
            rhs_pf = (-((n + 2) / 2.0 * (n + 1 + 2 * B + 2 * S) - 2 * B) * pf(n)
                      + (n + 2) * S * pf(n + 1) + remainder)
            if n >= 1:
                rhs_pf += (n / 2.0) * (n - 1 + 2 * B * b0) * pf(n - 1)
            max_pf = max(max_pf, abs(dpf - rhs_pf))

    return LemmaResidualReport(max_system=max_system, max_pf=max_pf,
                               n_cap=n_cap, ts=tuple(float(t) for t in ts))
