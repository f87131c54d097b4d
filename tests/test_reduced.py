"""Reduced ancestor-type and pair-distance chains: rate tables, equilibria,
lumping agreement with the conditioned backward chain, survival tables."""

import math

import numpy as np
import pytest
import sympy as sp

import moranlines.model as model
import moranlines.reduced as reduced
from moranlines import BudgetError, ParamError, wf_single_moment
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


def test_survival_relative_accuracy_at_long_times():
    # pf(0, t) = e^{-t} without selection; a solve whose error is absolute,
    # near 1e-14 (an ODE tolerance, or the contour rule on the unshifted
    # generator), misses it by about 4e-7 at t = 20 and by 100% at t = 40
    table = dist_survival(DistChainSpec.limit(mk(10, b=HALF)), (20.0, 40.0),
                          (0,))
    for t in (20.0, 40.0):
        assert table.pf_value(0, t) == pytest.approx(math.exp(-t), rel=1e-9)
    ts = tuple(np.linspace(0.0, 80.0, 17))
    table = dist_survival(DistChainSpec.limit(mk(10, b=HALF, S=1.0)), ts,
                          (0, 1))
    for n in (0, 1):
        rows = [[table.f_value(y, n, t) for t in ts] for y in Y_STATES]
        rows.append([table.pf_value(n, t) for t in ts])
        for row in rows:
            assert min(row) > 0.0
            assert np.all(np.diff(row) <= 0.0)


def test_survival_relative_accuracy_at_the_top_ladder_level():
    # at n_top = DIST_N_CAP (6,147 states) the sparse LU alone, without
    # its refinement step, missed pf(0, t) = e^{-t} by up to 3.4e-8
    spec, n_top = DistChainSpec.limit(mk(10, b=HALF)), reduced.DIST_N_CAP
    ts = (5.0, 20.0, 80.0)
    gen, sol = reduced._survive_solve(spec, ts, n_top)
    table = reduced.SurvivalTable(spec, ts, (0,), n_top, gen, sol)
    for t in ts:
        assert table.pf_value(0, t) == pytest.approx(math.exp(-t), rel=1e-12)


def test_survival_contour_serves_a_window_of_times(monkeypatch):
    # one contour serves all times in [t1 / 4, t1], so a 200-point grid on
    # (0, 8] takes four windows of at most 32 factors each (plus one for
    # the shift), not 17 per time, and matches one contour per time
    spec = DistChainSpec.finite_n(mk(6, b=PI, S=1.0))
    ts = tuple(np.linspace(0.04, 8.0, 200))
    factors = []
    solver = reduced._solver
    monkeypatch.setattr(reduced, "_solver",
                        lambda A: factors.append(A) or solver(A))
    table = dist_survival(spec, ts, (0, 1))
    assert len(factors) <= 1 + 4 * 32
    for t in ts[::20]:
        alone = dist_survival(spec, (t,), (0, 1))
        for y in Y_STATES:
            assert alone.f_value(y, 1, t) == pytest.approx(
                table.f_value(y, 1, t), rel=1e-13)


def test_survival_at_vanishing_times():
    # 1 - f(t) <= t (largest killing rate) rounds off at these times, so
    # f is exactly 1; the contour's mu = pi M / (12 t) would overflow for
    # t below about 1e-307 (the first two)
    tiny = (5e-324, 1e-310, 1e-300, 1e-20)
    table = dist_survival(DistChainSpec.limit(mk(10, b=PI, S=1.0)),
                          (0.0, *tiny, 1e-10, 0.25), (0, 1))
    for n in (0, 1):
        for y in Y_STATES:
            assert [table.f_value(y, n, t) for t in tiny] == [1.0] * 4
            assert 1.0 - 1e-9 < table.f_value(y, n, 1e-10) <= 1.0


@pytest.mark.parametrize("mode", ["limit", "finite"])
def test_survival_matches_mpmath_expm(mode):
    # the truncated limit chain at n_top = 16 (51 states) and the finite
    # chain at N = 6 against e^{tQ} 1 in 40 digits; later times step the
    # vector by e^{0.01 Q}, one expm each instead of four
    mpmath = pytest.importorskip("mpmath")
    if mode == "limit":
        spec, n_top = DistChainSpec.limit(mk(10, b=PI, S=1.0)), 16
    else:
        spec, n_top = DistChainSpec.finite_n(mk(6, b=PI, S=1.0)), 4
    ts = (0.01, 0.5, 2.0, 8.0)
    gen, sol = reduced._survive_solve(spec, ts, n_top)
    worst, done = 0.0, 0
    with mpmath.workdps(40):
        step = mpmath.expm(mpmath.matrix(gen.Q.toarray().tolist())
                           * mpmath.mpf(ts[0]))
        f = mpmath.matrix([1] * gen.n)
        for t in ts:
            for _ in range(round(t / ts[0]) - done):
                f = step * f
            done = round(t / ts[0])
            worst = max(worst, max(abs(float(f[i]) - sol[t][i])
                                   for i in range(gen.n)))
    assert worst <= 1e-12


def test_moment_ratio_ordering_under_selection():
    # absorption is faster from the disfavored pair class
    for S in (0.5, 2.0):
        p = mk(4, B=1.0, b=HALF, S=S)
        r0 = wf_single_moment(p, 0, 1) / wf_single_moment(p, 0, 2)
        r1 = wf_single_moment(p, 1, 0) / wf_single_moment(p, 2, 0)
        assert r0 > r1


def test_reduced_interface_errors(monkeypatch):
    p = mk(4, b=PI, S=2.0)
    spec = DistChainSpec.limit(p)
    with pytest.raises(ParamError, match="nonnegative time required"):
        dist_survival(spec, (0.5, -0.1), (0,))
    table = dist_survival(spec, (0.4, 1.1), (0, 1, 2))
    with pytest.raises(ParamError, match="survival value outside table"):
        table.f_value("00", 0, 0.123)
    with pytest.raises(ParamError, match="survival value outside table"):
        table.pf_value(5, 0.4)
    with pytest.raises(ParamError, match="survival value outside table"):
        table.f_value("10", 0, 0.4)
    with pytest.raises(ParamError, match="pinned count outside finite chain"):
        dist_survival(DistChainSpec.finite_n(p), (0.5,), (3,))
    monkeypatch.setattr(reduced, "LADDER_START", 2)
    monkeypatch.setattr(reduced, "DIST_N_CAP", 4)
    monkeypatch.setattr(reduced, "DIST_CONV_TOL", 1e-12)
    with pytest.raises(BudgetError, match="truncation unconverged at nMax cap"):
        dist_survival(spec, (1.0,), (0,))
    monkeypatch.setattr(reduced, "LADDER_START", 4)
    monkeypatch.setattr(reduced, "CAT_N_CAP", 8)
    monkeypatch.setattr(reduced, "CAT_TAIL_TOL", 1e-30)
    with pytest.raises(BudgetError, match="tail bound unmet"):
        cat_equilibrium(CatChainSpec.limit(p))
    with pytest.raises(ParamError, match="limit mode needs an explicit"):
        cat_generator(CatChainSpec.limit(p))
    with pytest.raises(ParamError, match="population of at least two"):
        DistChainSpec.finite_n(mk(1, b=PI))
    with pytest.raises(ParamError, match="two-type"):
        CatChainSpec.finite_n(mk(3, d=3))
    with pytest.raises(ParamError, match="parent-independent"):
        CatChainSpec.finite_n(mk(3, b=((0.7, 0.3), (0.4, 0.6))))



def test_finite_cat_chain_level_cap(monkeypatch):
    # the finite chain's top level N - 1 is held to the limit ladder's
    # cap; with the cap lowered to 4, N = 5 is solved
    cap = reduced.CAT_N_CAP
    monkeypatch.setattr(reduced, "CAT_N_CAP", 4)
    eq = cat_equilibrium(CatChainSpec.finite_n(mk(5, b=PI, S=1.0)))
    assert eq.n_top == 4 and len(eq.states) == 10

    def no_build(*args, **kwargs):
        raise AssertionError("chain built before the budget check")

    # one level more is refused before its chain is built, at the lowered
    # cap and at the real one (N = 4,098)
    monkeypatch.setattr(reduced, "cat_generator", no_build)
    for N, n_cap in ((6, 4), (cap + 2, cap)):
        monkeypatch.setattr(reduced, "CAT_N_CAP", n_cap)
        with pytest.raises(BudgetError, match="level cap"):
            cat_equilibrium(CatChainSpec.finite_n(mk(N, b=PI, S=1.0)))


def test_finite_cat_chain_at_the_cap_builds_one_row_per_n(monkeypatch):
    # every rate of the finite chain reads P_N(1^a, 0^c) with a <= 1, so
    # the chain at the top level N - 1 = CAT_N_CAP needs a row for a = 0
    # and one for a = 1, each built once
    built = []
    real_row = model._pn_row

    def counted_row(law, n):
        built.append(n)
        return real_row(law, n)

    monkeypatch.setattr(model, "_pn_row", counted_row)
    N = reduced.CAT_N_CAP + 1
    eq = cat_equilibrium(CatChainSpec.finite_n(mk(N, b=PI, S=1.0)))
    assert eq.n_top == N - 1 and len(eq.states) == 2 * N
    assert sum(eq.marginal) == pytest.approx(1.0, abs=1e-12)
    assert sorted(built) == [0, 1]


def test_finite_chains_refuse_a_law_of_another_model():
    p = mk(5, b=PI, S=1.0)
    # another N, another d, and only another S (whose law once gave the
    # ancestor-type marginal (0.032, 0.968) where (0.162, 0.838) is right)
    for other in (mk(8, b=PI, S=1.0), mk(5, d=3, chi=(0.0, 0.5, 1.0)),
                  mk(5, b=PI, S=3.0)):
        law = model.finite_stationary_law(other)
        for cls in (CatChainSpec, DistChainSpec):
            with pytest.raises(ParamError, match="law of another model"):
                cls.finite_n(p, law=law)
    law = model.finite_stationary_law(p)
    assert CatChainSpec.finite_n(p, law=law).law is law


def test_cat_ladder_top_level_within_dense_budget(monkeypatch):
    # the ladder's top level CAT_N_CAP has 8,194 states; a dense generator
    # of them (537 MB) would pass the byte budget, so any allocation past
    # it fails the test
    real_zeros = np.zeros

    def guarded_zeros(shape, *args, **kwargs):
        assert 8 * np.prod(shape) <= model.DENSE_SOLVE_BYTES, \
            "dense array past the byte budget"
        return real_zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", guarded_zeros)
    monkeypatch.setattr(reduced, "LADDER_START", reduced.CAT_N_CAP)
    eq = cat_equilibrium(CatChainSpec.limit(mk(10, b=PI, S=1.0)))
    assert eq.n_top == reduced.CAT_N_CAP
    assert sum(eq.marginal) == pytest.approx(1.0, abs=1e-12)


def test_limit_chain_levels_checked_before_building(monkeypatch):
    spec = DistChainSpec.limit(mk(4, b=PI, S=1.0))
    with pytest.raises(ParamError, match="pinned count must be nonnegative"):
        dist_survival(spec, (2.0,), (-1,))
    for t in (math.nan, math.inf):  # an infinite time ran Radau forever
        with pytest.raises(ParamError, match="nonnegative time required"):
            dist_survival(spec, (t,), (0,))
    # past its cap a ladder is refused before any level of that size is
    # built
    with pytest.raises(BudgetError, match="nMax cap"):
        dist_survival(spec, (2.0,), (reduced.DIST_N_CAP,))
    with pytest.raises(BudgetError, match="nMax cap"):
        dist_taylor_coeffs(spec, order=reduced.DIST_N_CAP)
    monkeypatch.setattr(reduced, "LADDER_START", reduced.CAT_N_CAP * 2)
    with pytest.raises(BudgetError, match="nMax cap"):
        cat_equilibrium(CatChainSpec.limit(spec.p))
