"""Reduced ancestor-type and pair-distance chains: rate tables, equilibria,
lumping agreement with the conditioned backward chain, survival ODEs."""

import math

import numpy as np
import pytest
import sympy as sp

from moranlines import (BudgetError, ParamError, wf_mixed_moments,
                        wf_single_moment)
from moranlines.reduced import (ABSORBED, CatChainSpec, DistChainSpec,
                                Y_STATES, cat_chain_vs_bp, cat_equilibrium,
                                cat_generator, chains_vs_bp, dist_chain_vs_bp,
                                dist_generator, dist_survival,
                                dist_taylor_coeffs, lemma_ode_residual)

from helpers import mk, philox

PI = ((0.3, 0.7), (0.3, 0.7))  # parent-independent two-type kernel
HALF = ((0.5, 0.5), (0.5, 0.5))


def test_rate_prefactor_identities_symbolic():
    n, N, S, B, b0 = sp.symbols("n N S B b0", positive=True)
    half = sp.Rational(1, 2)

    # pinned-count up-moves: every unpinned site can pin against each
    # pinned site and against the mark itself, at the selection excess
    up = (2 * (N - 1 - n) * n + 2 * (N - 1 - n)) * S / (2 * N)
    assert sp.simplify(up - S * (n + 1) * (N - 1 - n) / N) == 0
    up2 = (2 * (N - 2 - n) * n + 4 * (N - 2 - n)) * S / (2 * N)
    assert sp.simplify(up2 - S * (n + 2) * (N - 2 - n) / N) == 0

    # down-moves: mutation unpins, and ordered like-type pairs merge at
    # the neutral half-rate minus the selection tilt
    for u in (0, 1):
        comp = B * b0 * n + (2 * (1 - u) * n + n * (n - 1)) * (half - S / (2 * N))
        impl = B * b0 * n + sp.binomial(n + 1 - u, 2) * (N - S) / N
        assert sp.simplify(comp - impl) == 0

    pair_comp = {"00": (4 * n + n * (n - 1)) * half,
                 "11": n * (n - 1) * half,
                 "01": (2 * n + n * (n - 1)) * half}
    pair_impl = {"00": sp.binomial(n + 2, 2) - 1,
                 "11": sp.binomial(n, 2),
                 "01": sp.binomial(n + 1, 2)}
    for y in Y_STATES:
        assert sp.simplify(pair_comp[y] - pair_impl[y]) == 0


def test_rate_entries_match_compositional_forms():
    N, B, S = 6, 0.9, 1.7
    p = mk(N, B=B, b=((0.45, 0.55), (0.45, 0.55)), S=S)
    b0 = 0.45
    sel = S / (2.0 * N)

    cspec = CatChainSpec.finite_n(p)
    cgen = cat_generator(cspec)
    for u in (0, 1):
        for n in range(N - 1):
            den = cspec.prob(u, n + 1 - u)
            row = cgen.index[(u, n)]
            if n < N - 2:
                want = (2 * (N - 1 - n) * n + 2 * (N - 1 - n)) * sel \
                    * cspec.prob(u, n + 2 - u) / den
                assert cgen.Q[row, cgen.index[(u, n + 1)]] == \
                    pytest.approx(want, rel=1e-12)
            if n >= 1:
                want = (B * b0 * n
                        + (2 * (1 - u) * n + n * (n - 1)) * (0.5 - sel)) \
                    * cspec.prob(u, n - u) / den
                assert cgen.Q[row, cgen.index[(u, n - 1)]] == \
                    pytest.approx(want, rel=1e-12)
            want = B * (0.55 if u == 1 else 0.45) \
                * cspec.prob(1 - u, n + u) / den
            assert cgen.Q[row, cgen.index[(1 - u, n)]] == \
                pytest.approx(want, rel=1e-12)

    dspec = DistChainSpec.finite_n(p)
    dgen = dist_generator(dspec)
    pair_counts = {"00": lambda n: (4 * n + n * (n - 1)) / 2.0,
                   "11": lambda n: n * (n - 1) / 2.0,
                   "01": lambda n: (2 * n + n * (n - 1)) / 2.0}
    for y in Y_STATES:
        for n in range(1, N - 2):
            den = dspec.weight(y, n)
            row = dgen.index[(y, n)]
            want = (B * b0 * n + pair_counts[y](n) * 2 * (0.5 - sel)) \
                * dspec.weight(y, n - 1) / den
            assert dgen.Q[row, dgen.index[(y, n - 1)]] == \
                pytest.approx(want, rel=1e-12)
    # coalescence entries
    for n in range(N - 1):
        w00 = dspec.weight("00", n)
        want = 2 * (0.5 - sel) * dspec.prob(0, n + 1) / w00 + 2 * sel
        assert dgen.Q[dgen.index[("00", n)], dgen.index[ABSORBED]] == \
            pytest.approx(want, rel=1e-12)
        w11 = dspec.weight("11", n)
        want = 2 * 0.5 * dspec.prob(1, n) / w11 \
            + 2 * sel * dspec.prob(1, n + 1) / w11
        assert dgen.Q[dgen.index[("11", n)], dgen.index[ABSORBED]] == \
            pytest.approx(want, rel=1e-12)
        assert dgen.Q[dgen.index[("01", n)], dgen.index[ABSORBED]] == 0.0


def test_generator_shapes_and_row_sums():
    p = mk(5, b=PI, S=1.0)
    cgen = cat_generator(CatChainSpec.finite_n(p))
    assert cgen.states == tuple((u, n) for u in (0, 1) for n in range(5))
    assert np.max(np.abs(np.asarray(cgen.Q.sum(axis=1)).ravel())) <= 1e-12

    dspec = DistChainSpec.finite_n(p)
    dgen = dist_generator(dspec)
    assert dgen.states[-1] == ABSORBED
    assert np.max(np.abs(np.asarray(dgen.Q.sum(axis=1)).ravel())) <= 1e-12

    bare = dist_generator(dspec, with_absorbed=False)
    sums = np.asarray(bare.Q.sum(axis=1)).ravel()
    for k, (y, n) in enumerate(bare.states):
        full = dgen.Q[dgen.index[(y, n)], dgen.index[ABSORBED]]
        assert sums[k] == pytest.approx(-full, abs=1e-12)


def test_neutral_equilibrium_marginal():
    p = mk(5, b=PI, S=0.0)
    eq = cat_equilibrium(CatChainSpec.finite_n(p))
    assert abs(eq.marginal[0] - 0.3) <= 1e-10
    assert abs(eq.marginal[1] - 0.7) <= 1e-10
    eq_lim = cat_equilibrium(CatChainSpec.limit(p))
    assert abs(eq_lim.marginal[0] - 0.3) <= 1e-10
    assert sum(eq.pi) == pytest.approx(1.0, abs=1e-12)


def test_equilibrium_matches_jump_chain_occupation():
    p = mk(10, b=PI, S=2.0)
    spec = CatChainSpec.finite_n(p)
    eq = cat_equilibrium(spec)
    gen = cat_generator(spec)
    K = gen.n
    Qd = gen.Q.toarray()
    lam = float(np.max(-np.diag(Qd)))
    P = np.eye(K) + Qd / lam
    Pcum = np.cumsum(P, axis=1)

    rng = philox(61, 0)
    R, L, burn = 200, 50_000, 5_000
    state = rng.integers(K, size=R)
    occ = np.zeros((R, K))
    for step in range(L):
        rows = Pcum[state]
        state = (rng.random(R)[:, None] < rows).argmax(axis=1)
        if step >= burn:
            np.add.at(occ, (np.arange(R), state), 1.0)
    freq = occ / (L - burn)
    for k, st in enumerate(gen.states):
        mean = freq[:, k].mean()
        band = 3.0 * freq[:, k].std(ddof=1) / math.sqrt(R) + 5e-4
        assert abs(mean - eq.pi[eq.states.index(st)]) <= band


def test_comparison_up_rate_variant():
    p = mk(8, b=PI, S=2.0)
    std = cat_generator(CatChainSpec.finite_n(p))
    alt = cat_generator(CatChainSpec.finite_n(p, fearnhead_up=True))
    for u in (0, 1):
        for n in range(7):
            a = std.Q[std.index[(u, n)], std.index[(u, n + 1)]]
            c = alt.Q[alt.index[(u, n)], alt.index[(u, n + 1)]]
            assert a == pytest.approx((n + 1) * c, rel=1e-12)
    m_std = cat_equilibrium(CatChainSpec.finite_n(p)).marginal[0]
    m_alt = cat_equilibrium(CatChainSpec.finite_n(p, fearnhead_up=True)).marginal[0]
    assert abs(m_std - m_alt) > 1e-4

    p0 = mk(8, b=PI, S=0.0)
    q_std = cat_generator(CatChainSpec.finite_n(p0)).Q.toarray()
    q_alt = cat_generator(CatChainSpec.finite_n(p0, fearnhead_up=True)).Q.toarray()
    assert np.array_equal(q_std, q_alt)


def test_cat_chain_matches_lumped_backward():
    for S in (0.0, 1.0):
        p = mk(3, b=PI, S=S)
        assert cat_chain_vs_bp(p, 0.0).max_gap <= 1e-14
        for t in (0.5, 1.0):
            rep = cat_chain_vs_bp(p, t)
            assert rep.chain == "cat" and rep.t == t
            assert rep.max_gap <= 1e-9


def test_chains_vs_bp_matches_single_time_wrappers():
    p = mk(5, B=0.8, b=PI, S=1.0)
    times = (0.5, 1.0)
    reports = chains_vs_bp(p, times)
    assert [(r.chain, r.t) for r in reports] == [
        (c, t) for t in times for c in ("cat", "dist")]
    for r in reports:
        wrapper = cat_chain_vs_bp if r.chain == "cat" else dist_chain_vs_bp
        single = wrapper(p, r.t)
        assert abs(single.max_gap - r.max_gap) <= 1e-12
        assert [lab for lab, _ in single.details] == [
            lab for lab, _ in r.details]
        for (_, g1), (_, g2) in zip(single.details, r.details):
            assert abs(g1 - g2) <= 1e-12
        assert r.max_gap <= 1e-9


def test_dist_chain_matches_lumped_backward():
    for S in (0.0, 2.0):
        p = mk(4, b=PI, S=S)
        rep = dist_chain_vs_bp(p, 0.5)
        assert rep.chain == "dist"
        assert rep.max_gap <= 1e-9
    with pytest.raises(ParamError, match="population of at least three"):
        dist_chain_vs_bp(mk(2, b=PI), 0.5)


def _closed_forms(B, b0):
    b1 = 1.0 - b0

    def f00(t):
        return math.exp(-t) * (1 + b1 * (math.exp(-2 * B * t) - 1)
                               / (1 + 2 * B * b0))

    def f11(t):
        return math.exp(-t) * (1 + b0 * (math.exp(-2 * B * t) - 1)
                               / (1 + 2 * B * b1))

    def f01(t):
        return math.exp(-t) * (1 - (math.exp(-2 * B * t) - 1) / (2 * B))

    return f00, f11, f01


def test_survival_neutral_closed_forms():
    ts = tuple(np.linspace(0.0, 2.0, 9))
    for (B, b0) in ((1.0, 0.5), (2.0, 0.3)):
        row = (b0, 1.0 - b0)
        p = mk(4, B=B, b=(row, row), S=0.0)
        spec = DistChainSpec.limit(p)
        table = dist_survival(spec, ts, (0,))
        f00, f11, f01 = _closed_forms(B, b0)
        for t in ts:
            assert table.f_value("00", 0, t) == pytest.approx(f00(t), abs=1e-8)
            assert table.f_value("11", 0, t) == pytest.approx(f11(t), abs=1e-8)
            assert table.f_value("01", 0, t) == pytest.approx(f01(t), abs=1e-8)
            assert table.pf_value(0, t) == pytest.approx(math.exp(-t), abs=1e-8)
        assert table.f_value("00", 0, 0.0) == 1.0
        assert table.pf_value(0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_closed_forms_satisfy_weighted_system():
    # independent of the solver: plug the explicit neutral solutions and
    # neutral moments into the three coupled equations at level zero
    B, b0 = 2.0, 0.3
    b1 = 1.0 - b0
    E02 = (2 * B * b0 + 1) * b0 / (2 * B + 1)
    E20 = (2 * B * b1 + 1) * b1 / (2 * B + 1)
    E11 = 2 * B * b0 * b1 / (2 * B + 1)
    f00, f11, f01 = _closed_forms(B, b0)

    def d00(t):
        c = b1 / (1 + 2 * B * b0)
        return -f00(t) - 2 * B * c * math.exp(-(1 + 2 * B) * t)

    def d11(t):
        c = b0 / (1 + 2 * B * b1)
        return -f11(t) - 2 * B * c * math.exp(-(1 + 2 * B) * t)

    def d01(t):
        return -f01(t) + math.exp(-(1 + 2 * B) * t)

    for t in np.linspace(0.0, 3.0, 13):
        r = E02 * d00(t) - (2 * B * b0 * E11 * f01(t)
                            - (1 + 2 * B * b1) * E02 * f00(t))
        assert abs(r) <= 1e-10
        r = E20 * d11(t) - (2 * B * b1 * E11 * f01(t)
                            - (1 + 2 * B * b0) * E20 * f11(t))
        assert abs(r) <= 1e-10
        r = E11 * d01(t) - (B * b1 * E02 * f00(t) + B * b0 * E20 * f11(t)
                            - (1 + B) * E11 * f01(t))
        assert abs(r) <= 1e-10


def test_taylor_coefficients():
    p0 = mk(4, B=1.0, b=HALF, S=0.0)
    tc = dist_taylor_coeffs(DistChainSpec.limit(p0), n=0, order=3)
    assert tc.pf[0] == pytest.approx(1.0, abs=1e-12)
    assert tc.pf[1] == pytest.approx(-1.0, abs=1e-10)
    assert tc.pf[2] == pytest.approx(1.0, abs=1e-10)
    assert tc.pf[3] == pytest.approx(-1.0, abs=1e-10)

    for S in (1.0, 2.0):
        pS = mk(4, B=1.0, b=HALF, S=S)
        spec = DistChainSpec.limit(pS)
        tcS = dist_taylor_coeffs(spec, n=0, order=3)
        e10 = wf_single_moment(pS, 1, 1)
        assert tcS.pf[3] == pytest.approx(-(1.0 + 2.0 * S * S * e10), rel=1e-6)
        assert abs(tcS.f_slope["01"]) <= 1e-14
        assert tcS.f_slope["00"] == pytest.approx(
            -wf_single_moment(pS, 0, 1) / wf_single_moment(pS, 0, 2), rel=1e-10)
        assert tcS.f_slope["11"] == pytest.approx(
            -wf_single_moment(pS, 1, 0) / wf_single_moment(pS, 2, 0), rel=1e-10)

    with pytest.raises(ParamError, match="nonnegative order required"):
        dist_taylor_coeffs(DistChainSpec.limit(p0), order=-1)


def test_weighted_system_residuals_from_table():
    ts = (0.3, 0.8, 1.6)
    ns = tuple(range(7))
    for S in (0.0, 1.0):
        p = mk(4, B=1.0, b=PI, S=S)
        spec = DistChainSpec.limit(p)
        table = dist_survival(spec, ts, ns)
        rep = lemma_ode_residual(spec, table)
        assert rep.n_cap == 6
        assert rep.max_system <= 1e-8
        assert rep.max_pf <= 1e-8
    with pytest.raises(ParamError, match="table truncation too low"):
        lemma_ode_residual(spec, table, n_cap=table.n_top)


def test_remainder_values_recompute():
    p = mk(4, B=1.0, b=PI, S=1.5)
    spec = DistChainSpec.limit(p)
    ts = (0.4, 1.1)
    table = dist_survival(spec, ts, (0, 1, 2))
    for t in ts:
        for n in (0, 1, 2):
            want = (2.0 * p.S * spec.weight("11", n) * table.f_value("11", n, t)
                    + 2.0 * p.S * spec.weight("01", n) * table.f_value("01", n, t))
            if n >= 1:
                want += (2.0 * n * spec.weight("00", n - 1)
                         * table.f_value("00", n - 1, t)
                         + 2.0 * n * spec.weight("01", n - 1)
                         * table.f_value("01", n - 1, t))
            assert table.r_value(n, t) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ParamError, match="survival value outside table"):
        table.r_value(5, ts[0])
    with pytest.raises(ParamError, match="survival value outside table"):
        table.f_value("00", 0, 0.123)


def test_short_time_ordering_in_selection():
    ts = (0.02, 0.05)
    pf = {}
    for S in (0.5, 1.0, 2.0, 4.0):
        p = mk(4, B=1.0, b=HALF, S=S)
        table = dist_survival(DistChainSpec.limit(p), ts, (0,))
        for t in ts:
            pf[(S, t)] = table.pf_value(0, t)
    for t in ts:
        assert pf[(4.0, t)] < pf[(2.0, t)] < pf[(1.0, t)] < pf[(0.5, t)]
        assert pf[(0.5, t)] < math.exp(-t)


def test_fast_mutation_flattens_survival():
    ts = tuple(np.linspace(0.0, 2.0, 9))
    sups = []
    for B in (10.0, 100.0, 1000.0):
        p = mk(4, B=B, b=PI, S=1.0)
        table = dist_survival(DistChainSpec.limit(p), ts, (0,))
        sup = max(abs(table.f_value(y, 0, t) - math.exp(-t))
                  for y in Y_STATES for t in ts)
        sups.append(sup)
    assert sups[0] > sups[1] > sups[2]


def test_moment_ratio_ordering_under_selection():
    # absorption is faster from the disfavored pair class
    for S in (0.5, 2.0):
        p = mk(4, B=1.0, b=HALF, S=S)
        r0 = wf_single_moment(p, 0, 1) / wf_single_moment(p, 0, 2)
        r1 = wf_single_moment(p, 1, 0) / wf_single_moment(p, 2, 0)
        assert r0 > r1


def test_reduced_interface_errors():
    p = mk(4, b=PI, S=2.0)
    spec = DistChainSpec.limit(p)
    with pytest.raises(ParamError, match="nonnegative time required"):
        dist_survival(spec, (0.5, -0.1), (0,))
    with pytest.raises(ParamError, match="pinned count outside finite chain"):
        dist_survival(DistChainSpec.finite_n(p), (0.5,), (3,))
    with pytest.raises(BudgetError, match="increase nMax"):
        dist_survival(spec, (1.0,), (0,), n_max=2, cap=4, conv_tol=1e-12)
    with pytest.raises(BudgetError, match="tail bound unmet"):
        cat_equilibrium(CatChainSpec.limit(p), n_max=4, cap=8, tail_tol=1e-30)
    with pytest.raises(ParamError, match="limit mode needs an explicit"):
        cat_generator(CatChainSpec.limit(p))
    with pytest.raises(ParamError, match="population of at least two"):
        DistChainSpec.finite_n(mk(1, b=PI))
    with pytest.raises(ParamError, match="two-type"):
        CatChainSpec.finite_n(mk(3, d=3))
    with pytest.raises(ParamError, match="parent-independent"):
        CatChainSpec.finite_n(mk(3, b=((0.7, 0.3), (0.4, 0.6))))


def test_limit_spec_accepts_moment_table():
    p = mk(4, b=PI, S=1.0)
    table = wf_mixed_moments(p, 6)
    with_table = DistChainSpec.limit(p, moments=table)
    plain = DistChainSpec.limit(p)
    for (ones, zeros) in ((0, 2), (1, 1), (2, 0), (0, 3), (1, 2)):
        assert with_table.prob(ones, zeros) == pytest.approx(
            plain.prob(ones, zeros), rel=1e-10)
