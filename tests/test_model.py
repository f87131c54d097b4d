"""Parameter validation, stationary type laws, and Wright-Fisher moments."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import logsumexp

import moranlines.model as model
from moranlines import (BudgetError, ModelParams, ParamError, build_type_generator,
                        finite_stationary_law, moment_recurrence_residuals,
                        pn_probability, resampling_rate, validate_params,
                        wf_single_moment)

from helpers import batch_means, mk, philox


# ---------------------------------------------------------------- validation

def test_validate_accepts_neutral_two_type():
    p = mk(4, S=0.0)
    assert validate_params(p) is p


def test_validate_rejects_bad_rows():
    bad = ModelParams(N=3, d=2, B=1.0, b=((0.5, 0.4), (0.5, 0.5)),
                      S=0.0, chi=(0.0, 1.0))
    with pytest.raises(ParamError, match="row not stochastic"):
        validate_params(bad)
    shape = ModelParams(N=3, d=2, B=1.0, b=((1.0,),), S=0.0, chi=(0.0, 1.0))
    with pytest.raises(ParamError, match="row not stochastic"):
        validate_params(shape)


def test_validate_rejects_selection_out_of_range():
    with pytest.raises(ParamError, match="selection out of range"):
        mk(3, S=4.0)
    with pytest.raises(ParamError, match="selection out of range"):
        mk(3, S=-0.5)


def test_validate_rejects_bad_chi():
    for chi in [(0.0, 0.5), (0.1, 1.0), (0.0, 0.6, 0.4, 1.0)]:
        d = len(chi)
        with pytest.raises(ParamError, match="chi"):
            mk(3, d=d, chi=chi)


NAN, INF = float("nan"), float("inf")
NON_FINITE = [
    ("B_nan", dict(B=NAN), "mutation rate"),
    ("B_inf", dict(B=INF), "mutation rate"),
    ("b_nan", dict(b=((NAN, 0.5), (0.5, 0.5))), "row not stochastic"),
    ("b_inf", dict(b=((INF, 0.5), (0.5, 0.5))), "row not stochastic"),
    ("chi_nan", dict(d=3, b=((1 / 3,) * 3,) * 3, chi=(0.0, NAN, 1.0)),
     "chi not strictly increasing"),
    ("S_nan", dict(S=NAN), "selection out of range"),
]


@pytest.mark.parametrize("label,kwargs,fragment", NON_FINITE,
                         ids=[c[0] for c in NON_FINITE])
def test_validate_rejects_non_finite(label, kwargs, fragment):
    fields = dict(N=3, d=2, B=1.0, b=((0.5, 0.5), (0.5, 0.5)), S=0.0,
                  chi=(0.0, 1.0))
    fields.update(kwargs)
    with pytest.raises(ParamError, match=fragment):
        validate_params(ModelParams(**fields))


def test_validate_rejects_bad_sizes():
    with pytest.raises(ParamError, match="population size"):
        mk(0)
    with pytest.raises(ParamError, match="type count"):
        mk(3, d=1, b=((1.0,),), chi=(0.0,))
    with pytest.raises(ParamError, match="mutation rate"):
        mk(3, B=-1.0)


def test_resampling_rate_neutral_and_extreme():
    p = mk(4, S=0.0)
    assert resampling_rate(p, 0, 1) == 0.5
    assert resampling_rate(p, 1, 1) == 0.5
    q = mk(4, S=4.0)  # S = N: extreme ordered-pair rates
    assert resampling_rate(q, 1, 0) == pytest.approx(1.0, abs=1e-15)
    assert resampling_rate(q, 0, 1) == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------- stationary laws

def test_single_site_law_is_mutation_equilibrium():
    p = mk(1, B=2.0, b=((0.7, 0.3), (0.7, 0.3)))
    law = finite_stationary_law(p)
    assert law.weights == pytest.approx((0.7, 0.3), abs=1e-12)
    # general kernel: two-state detailed balance b01 w0 = b10 w1
    q = mk(1, b=((0.6, 0.4), (0.2, 0.8)))
    law = finite_stationary_law(q)
    assert law.weights == pytest.approx((1 / 3, 2 / 3), abs=1e-12)


def test_neutral_symmetric_law():
    p = mk(3, S=0.0)
    law = finite_stationary_law(p)
    w = law.weights
    assert np.all(w >= 0) and w.sum() == pytest.approx(1.0, abs=1e-12)
    for k in range(4):
        assert w[k] == pytest.approx(w[3 - k], abs=1e-12)


@pytest.mark.parametrize("p", [
    mk(3, S=1.0, b=((0.7, 0.3), (0.2, 0.8))),
    mk(2, d=3, B=0.7, S=1.5, chi=(0.0, 0.4, 1.0),
       b=((0.5, 0.3, 0.2), (0.1, 0.6, 0.3), (0.25, 0.25, 0.5))),
])
def test_law_is_fixed_point_of_type_generator(p):
    # independent route: the exchangeable lift of the count law must be
    # stationary for the full configuration generator
    law = finite_stationary_law(p)
    gen = build_type_generator(p)
    v = np.array([law.config_probability(cfg) for cfg in gen.states])
    assert v.sum() == pytest.approx(1.0, abs=1e-12)
    resid = np.abs(gen.Q.T @ v).max()
    assert resid <= 1e-10
    lam = float(np.abs(gen.Q.diagonal()).max()) or 1.0
    stepped = v + (gen.Q.T @ v) / lam
    assert np.abs(stepped - v).max() <= 1e-10


def test_law_requires_irreducible_mutation():
    with pytest.raises(ParamError, match="no unique stationary law"):
        finite_stationary_law(mk(3, B=0.0))
    ident = mk(3, b=((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ParamError, match="no unique stationary law"):
        finite_stationary_law(ident)


def test_law_budget_refusal(monkeypatch):
    p = mk(40, d=5, chi=(0.0, 0.2, 0.5, 0.8, 1.0))
    monkeypatch.setattr(model, "COUNT_STATE_CAP", 1000)
    with pytest.raises(BudgetError, match="exact solve infeasible"):
        finite_stationary_law(p)


def test_two_type_law_count_cap(monkeypatch):
    # at d = 2 the count vectors are N + 1 floats; N = 10^12 would ask for
    # 8 TB, so the refusal must come before any array is formed
    def no_arange(*args, **kwargs):
        raise AssertionError("law vector formed before the budget check")

    monkeypatch.setattr(np, "arange", no_arange)
    with pytest.raises(BudgetError, match="exact solve infeasible"):
        finite_stationary_law(mk(10**12))
    with pytest.raises(BudgetError, match="exact solve infeasible"):
        finite_stationary_law(mk(model.COUNT_STATE_CAP))


def test_law_budget_refused_before_listing(monkeypatch):
    # d = 5, N = 400: about 1.1e9 count vectors, which would exhaust memory
    # if listed, so the refusal must come before the first is generated
    def no_listing(total, parts):
        raise AssertionError("count vectors listed before the budget check")
        yield

    monkeypatch.setattr(model, "_compositions", no_listing)
    with pytest.raises(BudgetError, match="exact solve infeasible"):
        finite_stationary_law(mk(400, d=5, chi=(0.0, 0.2, 0.5, 0.8, 1.0)))


def test_law_dense_byte_budget(monkeypatch):
    # d = 3, N = 300: 45,451 count states, under the state cap, but a dense
    # generator of 16.5 GB.  The refusal must come before that allocation,
    # so any allocation past the byte budget fails the test instead.
    real_zeros = np.zeros

    def guarded_zeros(shape, *args, **kwargs):
        assert 8 * np.prod(shape) <= model.DENSE_SOLVE_BYTES, \
            "dense generator allocated before the budget check"
        return real_zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", guarded_zeros)
    with pytest.raises(BudgetError, match="exact solve infeasible"):
        finite_stationary_law(mk(300, d=3))


def _dense_stationary(Q):
    # reference: the normalization row replaces the last balance equation
    A = np.array(Q.T)
    A[-1, :] = 1.0
    rhs = np.zeros(len(A))
    rhs[-1] = 1.0
    w = np.clip(np.linalg.solve(A, rhs), 0.0, None)
    return w / w.sum()


@pytest.mark.parametrize("mode,size", [
    ("finite", 20), ("finite", 60), ("limit", 64), ("limit", 512),
    ("limit", 1024)])
def test_stationary_vector_matches_dense_solve(mode, size):
    # the ancestor-type chain at N = size, or on the ladder at n_top = size
    from moranlines.reduced import CatChainSpec, cat_generator
    if mode == "finite":
        p = mk(size, b=((0.3, 0.7), (0.3, 0.7)), S=1.0)
        gen = cat_generator(CatChainSpec.finite_n(p))
    else:
        p = mk(10, b=((0.3, 0.7), (0.3, 0.7)), S=1.0)
        gen = cat_generator(CatChainSpec.limit(p), n_top=size)
    pi = model.stationary_vector(gen.Q)
    assert np.abs(pi - _dense_stationary(gen.Q.toarray())).max() <= 1e-15


def test_count_chain_law_matches_dense_solve():
    # d = 3, N = 12: the law against a count-chain generator filled by
    # hand and solved densely
    p = mk(12, d=3, B=0.7, b=((0.2, 0.5, 0.3), (0.6, 0.1, 0.3),
                             (0.25, 0.25, 0.5)), S=3.0, chi=(0.0, 0.4, 1.0))
    law = finite_stationary_law(p)
    index = {c: i for i, c in enumerate(law.counts)}
    Q = np.zeros((len(index), len(index)))
    for i, c in enumerate(law.counts):
        for u in range(3):
            for v in range(3):
                if u != v and c[u] > 0:
                    tgt = list(c)
                    tgt[u] -= 1
                    tgt[v] += 1
                    rate = (c[u] * p.B * p.b[u][v]
                            + c[v] * c[u] * resampling_rate(p, v, u))
                    Q[i, index[tuple(tgt)]] += rate
                    Q[i, i] -= rate
    assert len(index) == 91
    assert np.abs(law.weights - _dense_stationary(Q)).max() <= 1e-15
    assert np.abs(law.weights @ Q).max() <= 1e-14


@pytest.mark.parametrize("N", [200, 201])
def test_law_logs_finite_where_weights_underflow(N):
    # at S = N the weight of k = 0 is about e^-1000: the law is formed from
    # the product form's logs, which stay finite, so that weight underflows
    # to 0 while the others keep their bits
    p = mk(N, S=float(N), b=((0.5, 0.5), (0.5, 0.5)))
    law = finite_stationary_law(p)
    ks = np.arange(N + 1, dtype=float)
    lam = (N - ks) * 0.5 + ks * (N - ks)
    mu = ks * 0.5
    c = np.cumsum(np.r_[0.0, np.log(lam[:-1]) - np.log(mu[1:])])
    log_w = c - logsumexp(c)
    assert np.all(np.isfinite(log_w)) and law.weights[0] == 0.0
    assert -1010.0 < log_w[0] < -990.0
    # relative to the weight, or to the smallest normal float where the
    # weight is subnormal and holds fewer than 53 bits
    assert np.allclose(np.exp(log_w), law.weights, rtol=1e-12,
                       atol=1e-12 * np.finfo(float).tiny)
    # the weights are bit-identical to exp(shifted) / sum
    w = np.exp(c - c.max())
    w /= w.sum()
    assert np.array_equal(law.weights, w)


def test_law_occupation_monte_carlo():
    # 1e7 uniformized events of the five-site two-type chain; the empirical
    # occupation of k = #type-1 must match the birth-death product law.
    p = mk(5, S=2.0)
    law = finite_stationary_law(p)
    N = 5
    rate_max = 0.5 + p.S / (2 * N)
    total = N * p.B + N * N * rate_max
    p_mut = N * p.B / total
    sel = p.S / (2 * N)

    R, L, burn = 500, 22_000, 2_000
    rng = philox(2026_08_19, 1)
    types = rng.integers(0, 2, size=(R, N)).astype(np.int8)
    k = types.sum(axis=1).astype(np.int64)
    rows = np.arange(R)
    occ = np.zeros((R, N + 1))
    tot = np.zeros(R)

    block = 2_000
    done = 0
    while done < L:
        m = min(block, L - done)
        dts = rng.exponential(1.0 / total, size=(R, m))
        branch = rng.random((R, m))
        msite = rng.integers(0, N, size=(R, m))
        mtype = rng.integers(0, 2, size=(R, m))  # b rows are (.5, .5)
        pi = rng.integers(0, N, size=(R, m))
        pj = rng.integers(0, N, size=(R, m))
        acc = rng.random((R, m))
        for s in range(m):
            step = done + s
            if step >= burn:
                np.add.at(occ, (rows, k), dts[:, s])
                tot += dts[:, s]
            is_mut = branch[:, s] < p_mut
            if np.any(is_mut):
                r = rows[is_mut]
                site = msite[r, s]
                new = mtype[r, s]
                old = types[r, site]
                k[r] += new - old
                types[r, site] = new
            res = ~is_mut
            u = types[rows, pi[:, s]]
            v = types[rows, pj[:, s]]
            take = res & (acc[:, s] * rate_max < 0.5 + sel * (u - v))
            r = rows[take]
            k[r] += u[take] - v[take]
            types[r, pj[take, s]] = u[take]
        done += m

    emp = occ / tot[:, None]
    for kk in range(N + 1):
        mean = emp[:, kk].mean()
        se = emp[:, kk].std(ddof=1) / math.sqrt(R)
        assert abs(mean - law.weights[kk]) <= 3 * se + 1e-4, (kk, mean, law.weights[kk])


# --------------------------------------------------------- sampling formulas

def test_pn_trivial_and_pinned():
    assert pn_probability(finite_stationary_law(mk(2)), 0, 0) == 1.0
    w = np.array([0.25, 0.5, 0.25])
    law = model.StationaryTypeLaw(p=mk(2), counts=((2, 0), (1, 1), (0, 2)),
                                  weights=w)
    # only the (1,1) count state can yield an ordered (type1, type0) pair
    assert pn_probability(law, 1, 1) == pytest.approx(0.25, abs=1e-12)


def test_pn_matches_config_enumeration():
    p = mk(5, S=1.5, B=0.8, b=((0.6, 0.4), (0.6, 0.4)))
    law = finite_stationary_law(p)
    configs = [tuple((c >> i) & 1 for i in range(5)) for c in range(32)]
    probs = {cfg: law.config_probability(cfg) for cfg in configs}
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
    for n in range(6):
        for m in range(6 - n):
            direct = sum(pr for cfg, pr in probs.items()
                         if all(x == 1 for x in cfg[:n])
                         and all(x == 0 for x in cfg[n:n + m]))
            assert pn_probability(law, n, m) == pytest.approx(direct, abs=1e-12)


def test_pn_errors():
    law = finite_stationary_law(mk(3))
    with pytest.raises(ParamError, match="sample larger than population"):
        pn_probability(law, 2, 2)
    with pytest.raises(ParamError, match="negative sample size"):
        pn_probability(law, -1, 0)
    law3 = finite_stationary_law(mk(2, d=3, chi=(0.0, 0.5, 1.0)))
    with pytest.raises(ParamError, match="two-type law required"):
        pn_probability(law3, 1, 0)
    with pytest.raises(ParamError, match="outside the law's state space"):
        law.index_of((7, 1))


def _exact_pn(law, n, m) -> Fraction:
    """sum_k w_k (k)_n (N-k)_m / (N)_{n+m} in exact rationals over the
    law's float weights, as one integer sum over their common denominator."""
    N = law.N
    ratios = [w.as_integer_ratio() for w in law.weights.tolist()]
    den = max(q for _, q in ratios)  # every q is a power of two
    total, tail = 0, math.perm(N - n, m)  # tail = (N-k)_m at k = n
    for k in range(n, N - m + 1):
        if k > n:
            tail = tail * (N - k + 1 - m) // (N - k + 1)
        num, q = ratios[k]
        total += num * (den // q) * math.perm(k, n) * tail
    return Fraction(total, den * math.perm(N, n + m))


@pytest.mark.parametrize("N", [5, 50, 200, 201, 1000, 4097])
@pytest.mark.parametrize("B,b,S", [(1.0, (0.3, 0.7), 1.0),
                                   (2.0, (0.5, 0.5), 0.0)],
                         ids=["selected", "neutral"])
def test_pn_matches_exact_rationals(N, B, b, S):
    law = finite_stationary_law(mk(N, B=B, b=(b, b), S=S))
    for n in range(3):
        for m in sorted({int(x) for x in np.linspace(0, N - n, 7)}):
            if n == m == 0:
                continue
            exact = _exact_pn(law, n, m)
            err = float(abs(Fraction(pn_probability(law, n, m)) - exact) / exact)
            assert err <= 2e-14, (n, m, err)


# ------------------------------------------------------------------- moments

def test_moments_neutral_closed_forms():
    p = mk(4, S=0.0)
    assert wf_single_moment(p, 0, 1) == pytest.approx(0.5, abs=1e-12)
    assert wf_single_moment(p, 0, 2) == pytest.approx(1 / 3, abs=1e-12)
    q = mk(4, S=0.0, B=2.0, b=((0.3, 0.7), (0.3, 0.7)))
    assert wf_single_moment(q, 0, 1) == pytest.approx(0.3, abs=1e-12)
    # E[0^2] = (2 B b0 + 1) b0 / (2B + 1) for S = 0
    assert wf_single_moment(q, 0, 2) == pytest.approx((2 * 2 * 0.3 + 1) * 0.3 / 5,
                                                      abs=1e-12)
    assert wf_single_moment(q, 1, 1) == pytest.approx(4 * 2 * 0.3 * 0.7 / 5 / 2,
                                                      abs=1e-12)


def _e0_ladder(B, S, b0, M):
    # truncated linear system for E[0^k]:
    # (k-1+2B+2S) E_k = (k-1+2B b0) E_{k-1} + 2S E_{k+1}, E_0 = 1, E_{M+1} = 0
    A = np.zeros((M, M))
    rhs = np.zeros(M)
    for kk in range(1, M + 1):
        i = kk - 1
        A[i, i] = kk - 1 + 2 * B + 2 * S
        if kk > 1:
            A[i, i - 1] = -(kk - 1 + 2 * B * b0)
        else:
            rhs[i] = 2 * B * b0
        if kk < M:
            A[i, i + 1] = -2 * S
    return np.linalg.solve(A, rhs)


def test_moments_vs_truncated_ladder():
    p = mk(6, S=1.0)
    e60 = _e0_ladder(1.0, 1.0, 0.5, 60)
    e80 = _e0_ladder(1.0, 1.0, 0.5, 80)
    assert np.abs(e60[:5] - e80[:5]).max() <= 1e-10  # truncation tail
    assert wf_single_moment(p, 0, 1) == pytest.approx(e80[0], abs=1e-9)
    assert wf_single_moment(p, 0, 2) == pytest.approx(e80[1], abs=1e-9)
    assert wf_single_moment(p, 1, 1) == pytest.approx(e80[0] - e80[1], abs=1e-9)


def test_moment_table_binomial_and_bounds():
    p = mk(4, S=1.5, B=0.8, b=((0.4, 0.6), (0.4, 0.6)))
    assert wf_single_moment(p, 0, 0) == pytest.approx(1.0, abs=1e-12)
    for n in range(8):
        for m in range(8 - n):
            e = wf_single_moment(p, n, m)
            assert 0.0 < e <= 1.0 + 1e-12
            split = (wf_single_moment(p, n + 1, m)
                     + wf_single_moment(p, n, m + 1))
            assert e == pytest.approx(split, rel=1e-11)
            assert wf_single_moment(p, n + 1, m) <= e + 1e-13
            assert wf_single_moment(p, n, m + 1) <= e + 1e-13


@pytest.mark.parametrize("B,S,b0", [(1.0, 1.0, 0.5), (0.5, 2.0, 0.3), (2.0, 0.5, 0.7)])
def test_moment_recurrence_residuals(B, S, b0):
    p = mk(4, B=B, S=S, b=((b0, 1 - b0), (b0, 1 - b0)))
    assert moment_recurrence_residuals(p, 22) <= 1e-8


def test_moment_errors():
    with pytest.raises(ParamError, match="maxOrder must be positive"):
        moment_recurrence_residuals(mk(3), 0)
    degenerate = mk(3, b=((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(ParamError, match="not normalizable"):
        wf_single_moment(degenerate, 1, 2)
    with pytest.raises(ParamError, match="two-type kernel required"):
        wf_single_moment(mk(3, d=3, chi=(0.0, 0.5, 1.0)), 1, 2)
    with pytest.raises(ParamError, match="parent-independent"):
        wf_single_moment(mk(3, b=((0.7, 0.3), (0.2, 0.8))), 1, 2)


def _mp_moment(mpmath, B, S, b, n, m):
    # 40-digit DLMF 13.4.1: Beta ratio times a ratio of Kummer functions
    a0, a1 = mpmath.mpf(2 * B * b[0]), mpmath.mpf(2 * B * b[1])
    a, x = a0 + a1, mpmath.mpf(2 * S)
    return (mpmath.rf(a1, n) * mpmath.rf(a0, m) / mpmath.rf(a, n + m)
            * mpmath.hyp1f1(a1 + n, a + n + m, x) / mpmath.hyp1f1(a1, a, x))


@pytest.mark.parametrize("Bs,Ss,max_order,tol", [
    # small mutation shapes, where boundary singularities are sharpest
    ((0.01, 0.05, 0.1, 0.2, 0.3), (0.0, 1.0, 5.0), (3, 5), 1e-13),
    ((0.01, 0.05, 0.1, 0.2, 0.3, 1.0, 10.0, 1000.0), (0.0, 1.0, 5.0, 50.0, 400.0),
     (5, 5), 1e-12),
], ids=["small-shapes", "wide"])
def test_moments_match_mpmath(Bs, Ss, max_order, tol):
    mpmath = pytest.importorskip("mpmath")
    b = (0.7, 0.3)
    worst = 0.0
    with mpmath.workdps(40):
        for B in Bs:
            for S in Ss:
                p = mk(1000, B=B, S=S, b=(b, b))
                for n in range(max_order[0] + 1):
                    for m in range(max_order[1] + 1):
                        ref = _mp_moment(mpmath, B, S, b, n, m)
                        got = wf_single_moment(p, n, m)
                        worst = max(worst, float(abs(got - ref) / ref))
    assert worst <= tol


def test_moment_series_term_cap():
    p = mk(10**12, S=1e12)
    with pytest.raises(BudgetError, match="moment series above its term cap"):
        wf_single_moment(p, 1, 2)
    # S = 5e5 needs about 2S + 40 sqrt(2S) terms, just inside the cap
    assert 0.0 < wf_single_moment(mk(10**6, S=5e5), 1, 2) < 1.0


def test_pn_converges_to_wf_moment():
    p_of = lambda N: mk(N, S=1.0)
    target = wf_single_moment(p_of(10), 1, 2)
    gaps = []
    for N in (10, 20, 40, 80):
        law = finite_stationary_law(p_of(N))
        gaps.append(abs(pn_probability(law, 1, 2) - target))
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < gaps[0] / 4
