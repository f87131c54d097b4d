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
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp

from .model import (BudgetError, MixedMomentTable, ModelParams, ParamError,
                    StationaryTypeLaw, finite_stationary_law, pn_probability,
                    two_type_mutation_rates, validate_params, wf_single_moment)
from .backward import canonical_start
from .exact import (GeneratorMatrix, build_bp_generator, compute_h, expm_apply)

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


@dataclass(frozen=True)
class CatChainSpec:
    """Ancestor-type chain on (mark u, pinned count n).

    mode "finite" reads sampling probabilities from a stationary law at
    population size N; mode "limit" reads diffusion moments, computed
    lazily per order unless a table is supplied.  fearnhead_up switches
    to the comparison variant whose up-rate drops the (n+1) factor.
    """

    p: ModelParams
    mode: str
    law: StationaryTypeLaw | None = None
    moments: MixedMomentTable | None = None
    fearnhead_up: bool = False

    @classmethod
    def finite_n(cls, p: ModelParams, law=None, fearnhead_up=False):
        validate_params(p)
        two_type_mutation_rates(p)
        if law is None:
            law = finite_stationary_law(p)
        return cls(p=p, mode="finite", law=law, fearnhead_up=fearnhead_up)

    @classmethod
    def limit(cls, p: ModelParams, moments=None, fearnhead_up=False):
        validate_params(p)
        two_type_mutation_rates(p)
        return cls(p=p, mode="limit", moments=moments,
                   fearnhead_up=fearnhead_up)

    def prob(self, ones: int, zeros: int) -> float:
        if self.mode == "finite":
            return pn_probability(self.law, ones, zeros)
        if self.moments is not None and ones + zeros <= self.moments.maxOrder:
            return self.moments.moment(ones, zeros)
        return wf_single_moment(self.p, ones, zeros)


@dataclass(frozen=True)
class DistChainSpec:
    """Pair-distance chain on (pair class y, pinned count n) plus an
    absorbing coalescence state."""

    p: ModelParams
    mode: str
    law: StationaryTypeLaw | None = None
    moments: MixedMomentTable | None = None

    @classmethod
    def finite_n(cls, p: ModelParams, law=None):
        validate_params(p)
        two_type_mutation_rates(p)
        if p.N < 2:
            raise ParamError("population of at least two required")
        if law is None:
            law = finite_stationary_law(p)
        return cls(p=p, mode="finite", law=law)

    @classmethod
    def limit(cls, p: ModelParams, moments=None):
        validate_params(p)
        two_type_mutation_rates(p)
        return cls(p=p, mode="limit", moments=moments)

    def prob(self, ones: int, zeros: int) -> float:
        if self.mode == "finite":
            return pn_probability(self.law, ones, zeros)
        if self.moments is not None and ones + zeros <= self.moments.maxOrder:
            return self.moments.moment(ones, zeros)
        return wf_single_moment(self.p, ones, zeros)

    def weight(self, y: str, n: int) -> float:
        """Start weight of class y at pinned count n: the sampling
        probability of the corresponding typed pattern."""
        k = _Y_ONES[y]
        return self.prob(k, n + 2 - k)


def _cat_rates(spec: CatChainSpec, u: int, n: int, n_top: int) -> list:
    p = spec.p
    b0, b1 = two_type_mutation_rates(p)
    B, S, N = p.B, p.S, p.N
    finite = spec.mode == "finite"
    den = spec.prob(u, n + 1 - u)
    out = []
    if n < n_top:
        fac = 1.0 if spec.fearnhead_up else float(n + 1)
        fin = (N - 1.0 - n) / N if finite else 1.0
        rate = S * fac * fin * spec.prob(u, n + 2 - u) / den
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
    finite = spec.mode == "finite"
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


def _chain_generator(states, rate_fn) -> GeneratorMatrix:
    index = {s: k for k, s in enumerate(states)}
    n = len(states)
    rows, cols, vals = [], [], []
    diag = np.zeros(n)
    for r, s in enumerate(states):
        for tgt, rate in rate_fn(s):
            c = index[tgt]
            rows.append(r)
            cols.append(c)
            vals.append(rate)
            diag[r] -= rate
    rows.extend(range(n))
    cols.extend(range(n))
    vals.extend(diag)
    Q = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return GeneratorMatrix(states=tuple(states), index=index, Q=Q)


def cat_generator(spec: CatChainSpec, n_top: int | None = None) -> GeneratorMatrix:
    """Generator over (u, n); finite mode tops out at n = N-1."""
    if spec.mode == "finite":
        n_top = spec.p.N - 1
    elif n_top is None:
        raise ParamError("limit mode needs an explicit truncation level")
    states = [(u, n) for u in (0, 1) for n in range(n_top + 1)]

    def rate_fn(s):
        return _cat_rates(spec, s[0], s[1], n_top)

    return _chain_generator(states, rate_fn)


def dist_generator(spec: DistChainSpec, n_top: int | None = None,
                   with_absorbed: bool = True) -> GeneratorMatrix:
    """Generator over (y, n) and, optionally, the absorbing state.

    Without the absorbing state the coalescence rate appears only through
    the diagonal, which is exactly the survival-function generator.
    """
    if spec.mode == "finite":
        n_top = spec.p.N - 2
    elif n_top is None:
        raise ParamError("limit mode needs an explicit truncation level")
    states = [(y, n) for y in Y_STATES for n in range(n_top + 1)]
    if with_absorbed:
        states.append(ABSORBED)

        def rate_fn(s):
            if s == ABSORBED:
                return []
            return _dist_rates(spec, s[0], s[1], n_top)

        return _chain_generator(states, rate_fn)

    # assemble with explicit diagonal handling: absorbed outflow subtracts
    # from the diagonal without any target column
    index = {s: k for k, s in enumerate(states)}
    n = len(states)
    rows, cols, vals = [], [], []
    diag = np.zeros(n)
    for r, s in enumerate(states):
        for tgt, rate in _dist_rates(spec, s[0], s[1], n_top):
            diag[r] -= rate
            if tgt != ABSORBED:
                rows.append(r)
                cols.append(index[tgt])
                vals.append(rate)
    rows.extend(range(n))
    cols.extend(range(n))
    vals.extend(diag)
    Q = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return GeneratorMatrix(states=tuple(states), index=index, Q=Q)


@dataclass(frozen=True)
class CatEquilibrium:
    states: tuple
    pi: np.ndarray = field(compare=False)
    marginal: tuple = ()  # (P(mark 0), P(mark 1))
    n_top: int = 0


def _stationary_of(gen: GeneratorMatrix) -> np.ndarray:
    A = gen.Q.toarray().T
    A[-1, :] = 1.0
    rhs = np.zeros(gen.n)
    rhs[-1] = 1.0
    pi = np.linalg.solve(A, rhs)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def cat_equilibrium(spec: CatChainSpec, n_max: int = 32,
                    cap: int = 4096, tail_tol: float = 1e-10) -> CatEquilibrium:
    """Stationary law of the ancestor-type chain and its mark marginal.

    Limit mode truncates at n_max and doubles until the mass at the
    truncation boundary drops below tail_tol.
    """
    if spec.mode == "finite":
        gen = cat_generator(spec)
        pi = _stationary_of(gen)
        n_top = spec.p.N - 1
    else:
        n_top = n_max
        while True:
            gen = cat_generator(spec, n_top=n_top)
            pi = _stationary_of(gen)
            tail = sum(pi[gen.index[(u, n_top)]] for u in (0, 1))
            if tail < tail_tol:
                break
            n_top *= 2
            if n_top > cap:
                raise BudgetError("tail bound unmet at nMax cap")
    m0 = float(sum(pi[k] for k, s in enumerate(gen.states) if s[0] == 0))
    m1 = float(sum(pi[k] for k, s in enumerate(gen.states) if s[0] == 1))
    return CatEquilibrium(states=gen.states, pi=pi, marginal=(m0, m1),
                          n_top=n_top)


# --- comparisons against the lumped conditioned backward chain ---------

def _transformed_generator(p: ModelParams, starts, law) -> GeneratorMatrix:
    """Conservative h-reweighted backward generator on the set reachable
    from starts."""
    gen = build_bp_generator(p, starts, with_fk=True)
    h = compute_h(p, gen, law=law)
    scaled = sparse.diags(1.0 / h) @ gen.Q @ sparse.diags(h)
    scaled = scaled.tolil()
    scaled.setdiag(0.0)
    scaled = scaled.tocsr()
    diag = -np.asarray(scaled.sum(axis=1)).ravel()
    Qh = (scaled + sparse.diags(diag)).tocsr()
    return GeneratorMatrix(states=gen.states, index=gen.index, Q=Qh)


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
    """Survival probabilities of the pair chain.

    f maps (y, n, t) to the probability of no coalescence by time t from
    (y, n); pf maps (n, t) to the start-weighted combination
    w00 f(00) + w11 f(11) + 2 w01 f(01); remainder maps (n, t) to the
    leftover coupling term of the weighted recursion.  The full solution
    vectors on the truncated level ladder are kept so residual checks can
    reuse them."""

    ts: tuple
    ns: tuple
    f: dict = field(compare=False)
    pf: dict = field(compare=False)
    remainder: dict = field(compare=False)
    n_top: int = 0
    gen: GeneratorMatrix = field(compare=False, repr=False, default=None)
    sol: dict = field(compare=False, repr=False, default=None)

    def f_value(self, y: str, n: int, t: float) -> float:
        try:
            return self.f[(y, n, t)]
        except KeyError:
            raise ParamError("survival value outside table") from None

    def pf_value(self, n: int, t: float) -> float:
        try:
            return self.pf[(n, t)]
        except KeyError:
            raise ParamError("survival value outside table") from None

    def r_value(self, n: int, t: float) -> float:
        try:
            return self.remainder[(n, t)]
        except KeyError:
            raise ParamError("survival value outside table") from None


def _survive_solve(spec: DistChainSpec, ts, n_top: int,
                   rtol: float = 3e-12, atol: float = 1e-14) -> tuple:
    gen = dist_generator(spec, n_top=n_top, with_absorbed=False)
    Q = gen.Q
    y0 = np.ones(gen.n)
    t_max = max(ts)
    if t_max == 0.0:
        sol_vals = {0.0: y0}
        return gen, sol_vals
    t_eval = sorted(set(float(t) for t in ts if t > 0.0))

    def rhs(_t, f):
        return Q @ f

    sol = solve_ivp(rhs, (0.0, t_max), y0, method="Radau", t_eval=t_eval,
                    jac=Q, rtol=rtol, atol=atol)
    if not sol.success:
        raise ArithmeticError(f"stiff solve failed: {sol.message}")
    sol_vals = {0.0: y0}
    for k, t in enumerate(t_eval):
        sol_vals[t] = sol.y[:, k]
    return gen, sol_vals


def dist_survival(spec: DistChainSpec, ts, ns, n_max: int = 64,
                  cap: int = 2048, conv_tol: float = 1e-9) -> SurvivalTable:
    """Survival table by stiff integration of the truncated ODE system.

    The truncation reflects the top level (the up-rate out of n_top is
    dropped); n_max doubles until all requested values move by less than
    conv_tol, failing with a budget error at the cap.
    """
    ts = tuple(float(t) for t in ts)
    ns = tuple(int(n) for n in ns)
    if any(t < 0 for t in ts):
        raise ParamError("nonnegative time required")
    if spec.mode == "finite":
        n_top = spec.p.N - 2
        if any(n > n_top for n in ns):
            raise ParamError("pinned count outside finite chain range")
        gen, sol = _survive_solve(spec, ts, n_top)
        return _survival_table(spec, gen, sol, ts, ns, n_top)

    if any(n > n_max for n in ns):
        n_max = max(ns) + 16
    n_top = n_max
    gen, sol = _survive_solve(spec, ts, n_top)
    while True:
        if 2 * n_top > cap:
            raise BudgetError("truncation unconverged at nMax cap; "
                              "increase nMax")
        gen2, sol2 = _survive_solve(spec, ts, 2 * n_top)
        worst = 0.0
        for t in sol:
            for y in Y_STATES:
                for n in ns:
                    a = sol[t][gen.index[(y, n)]]
                    b = sol2[t][gen2.index[(y, n)]]
                    worst = max(worst, abs(a - b))
        gen, sol, n_top = gen2, sol2, 2 * n_top
        if worst < conv_tol:
            break
    return _survival_table(spec, gen, sol, ts, ns, n_top)


def _survival_table(spec, gen, sol, ts, ns, n_top) -> SurvivalTable:
    f = {}
    pf = {}
    rem = {}
    S = spec.p.S
    for t in ts:
        vec = sol[float(t)]
        for n in ns:
            for y in Y_STATES:
                f[(y, n, t)] = float(vec[gen.index[(y, n)]])
            pf[(n, t)] = float(
                spec.weight("00", n) * f[("00", n, t)]
                + spec.weight("11", n) * f[("11", n, t)]
                + 2.0 * spec.weight("01", n) * f[("01", n, t)])
            r = (2.0 * S * spec.weight("11", n) * f[("11", n, t)]
                 + 2.0 * S * spec.weight("01", n) * f[("01", n, t)])
            if n >= 1:
                r += (2.0 * n * spec.weight("00", n - 1)
                      * float(vec[gen.index[("00", n - 1)]])
                      + 2.0 * n * spec.weight("01", n - 1)
                      * float(vec[gen.index[("01", n - 1)]]))
            rem[(n, t)] = float(r)
    return SurvivalTable(ts=ts, ns=ns, f=f, pf=pf, remainder=rem,
                         n_top=n_top, gen=gen, sol=sol)


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
    if spec.mode == "finite":
        if n_top > spec.p.N - 2:
            n_top = spec.p.N - 2
        if n > n_top:
            raise ParamError("pinned count outside finite chain range")
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
