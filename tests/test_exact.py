"""Exact finite-state engine: generators, semigroup action, moment duality,
equilibrium weights, horizon-indexed weights, relabeling helpers."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from moranlines import (BudgetError, ParamError, build_bp_generator,
                        build_type_generator, canonical_start, check_duality,
                        compute_h, compute_hT, config_law_vector,
                        duality_reports, enumerate_transitions, expm_apply,
                        feynman_kac_V, finite_stationary_law, h_star,
                        harmonic_residual, make_state, permute_bp_state,
                        permute_type_config)
from moranlines.exact import GeneratorMatrix, h_star_vector
import scipy.sparse as sparse

from helpers import mk, philox, rand_chi, rand_rows

FULL2 = (0, 1)
FULL3 = (0, 1, 2)


# ---------------------------------------------------------------- generators

def test_type_generator_single_site_is_pure_mutation():
    rng = philox(41, 0)
    b = rand_rows(rng, 3)
    p = mk(1, d=3, B=1.7, b=b, S=0.0)
    gen = build_type_generator(p)
    assert gen.states == ((0,), (1,), (2,))
    dense = gen.Q.toarray()
    expected = np.zeros((3, 3))
    for u in range(3):
        for v in range(3):
            if v != u:
                expected[u, v] = 1.7 * b[u][v]
        expected[u, u] = -expected[u].sum()
    assert np.allclose(dense, expected, atol=1e-14)


def test_type_generator_rows_sum_to_zero():
    rng = philox(42, 0)
    p = mk(3, d=3, B=0.8, b=rand_rows(rng, 3), S=2.0, chi=rand_chi(rng, 3))
    gen = build_type_generator(p)
    assert gen.n == 27
    assert all(gen.index[c] == k for k, c in enumerate(gen.states))
    row_sums = np.asarray(gen.Q.sum(axis=1)).ravel()
    assert np.max(np.abs(row_sums)) <= 1e-12


def test_type_generator_hand_entries():
    p = mk(2, B=1.0, b=((0.7, 0.3), (0.4, 0.6)), S=1.0)
    gen = build_type_generator(p)
    Q = gen.Q.toarray()
    i01 = gen.index[(0, 1)]
    sel = 1.0 / 4.0
    # site 1 flips 1 -> 0 by mutation, or copies site 0's type at the
    # selection-tilted pair rate
    assert Q[i01, gen.index[(0, 0)]] == pytest.approx(
        1.0 * 0.4 + (0.5 - sel), abs=1e-15)
    assert Q[i01, gen.index[(1, 1)]] == pytest.approx(
        1.0 * 0.3 + (0.5 + sel), abs=1e-15)
    i00 = gen.index[(0, 0)]
    assert Q[i00, gen.index[(1, 0)]] == pytest.approx(0.3, abs=1e-15)
    assert Q[i00, gen.index[(0, 1)]] == pytest.approx(0.3, abs=1e-15)
    assert Q[i00, i00] == pytest.approx(-0.6, abs=1e-15)


def test_bp_generator_singleton_neutral_hand_matrix():
    p = mk(3, B=1.3, b=((0.6, 0.4), (0.25, 0.75)))
    start = canonical_start(p, {1: 0})
    gen = build_bp_generator(p, start, with_fk=False)
    assert gen.n == 6
    assert gen.fk_diagonal is None

    def st(u, site):
        return make_state((1,), ((u, site),), [FULL2] * 3, 2)

    expected = np.zeros((6, 6))
    for u in range(2):
        for site in range(3):
            r = gen.index[st(u, site)]
            flip = 1.3 * p.b[1 - u][u]
            expected[r, gen.index[st(1 - u, site)]] = flip
            for other in range(3):
                if other != site:
                    expected[r, gen.index[st(u, other)]] = 0.5
            expected[r, r] = -(flip + 1.0)
    assert np.allclose(gen.Q.toarray(), expected, atol=1e-15)


def test_bp_generator_matches_enumeration_under_selection():
    p = mk(2, S=1.0, b=((0.7, 0.3), (0.4, 0.6)))
    start = canonical_start(p, {0: 0, 1: 1})
    gen = build_bp_generator(p, start, with_fk=True)
    assert gen.n == 12
    merged = [s for s in gen.states if len(set(s.marks)) == 1]
    assert len(merged) == 8  # 2 values x 2 sites x 2 reachable subsets
    assert gen.n - len(merged) == 4

    Q = gen.Q.toarray()
    for k, s in enumerate(gen.states):
        agg = {}
        for tr in enumerate_transitions(s, p):
            agg[tr.target] = agg.get(tr.target, 0.0) + tr.rate
        off = 0.0
        for tgt, rate in agg.items():
            assert Q[k, gen.index[tgt]] == pytest.approx(rate, rel=1e-14)
            off += rate
        assert Q[k, k] == pytest.approx(-off, rel=1e-12, abs=1e-14)
        assert gen.fk_diagonal[k] == feynman_kac_V(s, p)
        assert gen.index[s] == k
    row_sums = np.asarray(gen.Q.sum(axis=1)).ravel()
    assert np.max(np.abs(row_sums)) <= 1e-12


def test_generator_budget_cap():
    with pytest.raises(BudgetError, match="exact solve infeasible"):
        build_type_generator(mk(12, d=3))
    p = mk(3, S=1.0)
    with pytest.raises(BudgetError, match="exact solve infeasible"):
        build_bp_generator(p, canonical_start(p, {0: 0, 1: 1}), cap=3)


# ------------------------------------------------------------------ semigroup

def test_expm_two_state_analytic():
    a, c = 0.7, 0.3
    Q = sparse.csr_matrix(np.array([[-a, a], [c, -c]]))
    gen = GeneratorMatrix(states=("x", "y"), index={"x": 0, "y": 1}, Q=Q)
    pi0, pi1 = c / (a + c), a / (a + c)
    for t in (0.3, 1.0, 4.0):
        decay = math.exp(-(a + c) * t)
        got = expm_apply(gen, (1.0, 0.0), t)
        want = np.array([pi0 + decay * (1 - pi0), pi0 - decay * pi0])
        assert np.allclose(got, want, atol=1e-11)
        got_t = expm_apply(gen, (1.0, 0.0), t, transpose=True)
        want_t = np.array([pi0 + decay * (1 - pi0), pi1 - decay * pi1])
        assert np.allclose(got_t, want_t, atol=1e-11)


def test_expm_matches_dense_pade_with_weight():
    p = mk(2, S=1.0, b=((0.7, 0.3), (0.4, 0.6)))
    gen = build_bp_generator(p, canonical_start(p, {0: 0, 1: 1}))
    A = gen.Q.toarray() + np.diag(gen.fk_diagonal)
    rng = philox(7, 0)
    v = rng.random(gen.n)
    for t in (0.2, 1.3):
        dense = scipy.linalg.expm(t * A)
        assert np.allclose(expm_apply(gen, v, t), dense @ v, atol=1e-9)
        assert np.allclose(expm_apply(gen, v, t, transpose=True),
                           dense.T @ v, atol=1e-9)


def test_expm_conserves_mass_without_weight():
    rng = philox(8, 0)
    p = mk(3, d=3, B=0.9, b=rand_rows(rng, 3), S=2.0, chi=rand_chi(rng, 3))
    gen = build_type_generator(p)
    ones = np.ones(gen.n)
    assert np.allclose(expm_apply(gen, ones, 1.7), ones, atol=1e-11)
    v = rng.random(gen.n)
    v /= v.sum()
    out = expm_apply(gen, v, 0.9, transpose=True)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.min(out) >= -1e-15


def test_expm_time_zero_and_semigroup():
    p = mk(2, S=1.0, b=((0.7, 0.3), (0.4, 0.6)))
    gen = build_bp_generator(p, canonical_start(p, {0: 0, 1: 1}))
    rng = philox(9, 0)
    v = rng.random(gen.n)
    assert np.array_equal(expm_apply(gen, v, 0.0), v)
    split = expm_apply(gen, expm_apply(gen, v, 0.9), 0.4)
    assert np.allclose(split, expm_apply(gen, v, 1.3), atol=1e-10)


def test_expm_errors():
    p = mk(2)
    gen = build_type_generator(p)
    with pytest.raises(ParamError, match="nonnegative time required"):
        expm_apply(gen, np.ones(gen.n), -0.1)
    with pytest.raises(ParamError, match="vector length"):
        expm_apply(gen, np.ones(gen.n + 1), 0.5)


# ------------------------------------------------------------------- duality

def test_duality_time_zero_exact():
    p = mk(2, S=1.0, b=((0.7, 0.3), (0.4, 0.6)))
    for start in (canonical_start(p, {0: 0, 1: 1}),
                  canonical_start(p, {1: 1})):
        rep = check_duality(p, start, (0.4, 0.6), 0.0)
        assert rep.gap <= 1e-14


def test_duality_neutral_and_selected():
    p = mk(2, b=((0.7, 0.3), (0.4, 0.6)))
    rep = check_duality(p, canonical_start(p, {0: 0, 1: 1}), (0.5, 0.5), 0.5)
    assert rep.gap <= 1e-9

    p3 = mk(3, S=2.0, b=((0.7, 0.3), (0.2, 0.8)))
    start = canonical_start(p3, {0: 0, 1: 1})
    assert check_duality(p3, start, (0.3, 0.7), 1.0).gap <= 1e-9
    rng = philox(10, 0)
    explicit = rng.random(2 ** 3)
    explicit /= explicit.sum()
    assert check_duality(p3, start, explicit, 1.0).gap <= 1e-9


def test_duality_no_mutation_closed_form():
    p = mk(2, B=0.0)
    nu = (0.3, 0.7)
    pair = canonical_start(p, {0: 0, 1: 0})
    single = canonical_start(p, {0: 0})
    for t in (0.4, 1.3):
        rep = check_duality(p, pair, nu, t)
        want = (1 - math.exp(-t)) * 0.3 + math.exp(-t) * 0.09
        assert rep.lhs == pytest.approx(want, abs=1e-10)
        assert rep.rhs == pytest.approx(want, abs=1e-10)
        reps = check_duality(p, single, nu, t)
        assert reps.lhs == pytest.approx(0.3, abs=1e-10)
        assert reps.rhs == pytest.approx(0.3, abs=1e-10)


def _random_start(rng, N, d):
    n_tag = int(rng.integers(1, min(2, N) + 1))
    sites = sorted(rng.choice(N, size=n_tag, replace=False).tolist())
    marks = [(int(rng.integers(d)), j) for j in sites]
    active = []
    for i in range(N):
        if i in sites:
            active.append(tuple(range(d)))
        else:
            size = int(rng.integers(1, d + 1))
            active.append(tuple(sorted(
                rng.choice(d, size=size, replace=False).tolist())))
    return make_state(tuple(sites), marks, active, d)


def test_duality_mini_fuzz():
    rng = philox(11, 0)
    for (N, d, S) in ((2, 3, 2.0), (3, 2, 1.0)):
        for draw in range(5):
            p = mk(N, d=d, B=float(rng.uniform(0.2, 2.0)),
                   b=rand_rows(rng, d), S=S, chi=rand_chi(rng, d))
            if draw % 2 == 0:
                mu = tuple(rng.dirichlet(np.ones(d)))
            else:
                vec = rng.random(d ** N)
                mu = vec / vec.sum()
            start = _random_start(rng, N, d)
            for t in (0.5, 2.0):
                assert check_duality(p, start, mu, t).gap <= 1e-9


def test_duality_reports_plumbing_and_cached_generators():
    p = mk(2, S=1.0, b=((0.7, 0.3), (0.4, 0.6)))
    starts = [canonical_start(p, {0: 0, 1: 1}), canonical_start(p, {0: 1})]
    times = (0.3, 0.8)
    reps = duality_reports(p, (0.4, 0.6), starts, times)
    assert [(r.start, r.t) for r in reps] == [
        (s, t) for s in starts for t in times]
    for r in reps:
        single = check_duality(p, r.start, (0.4, 0.6), r.t)
        assert abs(single.lhs - r.lhs) <= 1e-12
        assert abs(single.rhs - r.rhs) <= 1e-12
        assert r.gap <= 1e-9
    type_gen = build_type_generator(p)
    bp_gen = build_bp_generator(p, starts[0])
    cached = check_duality(p, starts[0], (0.4, 0.6), 0.3,
                           type_gen=type_gen, bp_gen=bp_gen)
    assert abs(cached.lhs - reps[0].lhs) <= 1e-14
    assert abs(cached.rhs - reps[0].rhs) <= 1e-14


def test_duality_reports_union_matches_per_start():
    # the CLI's twelve starts: every singleton and pair start at sites 0, 1
    p = mk(3, d=3, S=1.0, b=((0.5, 0.3, 0.2), (0.1, 0.6, 0.3),
                             (0.25, 0.25, 0.5)), chi=(0.0, 0.4, 1.0))
    starts = [canonical_start(p, {0: u}) for u in range(3)]
    starts += [canonical_start(p, {0: u, 1: v})
               for u in range(3) for v in range(3)]
    mu = (0.2, 0.3, 0.5)
    times = (0.5, 1.0)
    reps = duality_reports(p, mu, starts, times)
    assert [(r.start, r.t) for r in reps] == [
        (s, t) for s in starts for t in times]
    type_gen = build_type_generator(p)
    for k, start in enumerate(starts):
        bp_gen = build_bp_generator(p, start)
        for m, t in enumerate(times):
            single = check_duality(p, start, mu, t, type_gen=type_gen,
                                   bp_gen=bp_gen)
            r = reps[k * len(times) + m]
            assert abs(single.lhs - r.lhs) <= 1e-12
            assert abs(single.rhs - r.rhs) <= 1e-12
            assert r.gap <= 1e-9


def test_config_law_vector_shapes_and_errors():
    p = mk(2)
    configs = tuple(itertools.product(range(2), repeat=2))
    prod = config_law_vector(p, (0.3, 0.7), configs)
    assert prod == pytest.approx([0.09, 0.21, 0.21, 0.49])
    asdict = config_law_vector(p, {(0, 1): 1.0}, configs)
    assert asdict == pytest.approx([0.0, 1.0, 0.0, 0.0])
    ascall = config_law_vector(p, lambda c: 0.25, configs)
    assert ascall == pytest.approx([0.25] * 4)
    with pytest.raises(ParamError, match="unrecognized type-law shape"):
        config_law_vector(p, np.ones(3) / 3.0, configs)
    with pytest.raises(ParamError, match="sum to 1"):
        config_law_vector(p, np.full(4, 0.3), configs)
    with pytest.raises(ParamError, match="nonnegative"):
        config_law_vector(p, np.array([1.5, -0.5, 0.0, 0.0]), configs)


# -------------------------------------------------------------- equivariance

def test_indicator_and_vector_agree():
    s = make_state((2,), ((1, 2),), [(0,), (0, 2), FULL3], 3)
    configs = list(itertools.product(range(3), repeat=3))
    arr = np.array(configs)
    vec = h_star_vector(s, arr, 3)
    for cfg, flag in zip(configs, vec):
        manual = cfg[2] == 1 and cfg[0] == 0 and cfg[1] in (0, 2)
        assert h_star(cfg, s) == int(manual)
        assert bool(flag) == manual


def test_site_relabeling_equivariance():
    perm = (1, 2, 0)
    assert permute_type_config((0, 1, 1), perm) == (1, 0, 1)
    s = make_state((0,), ((0, 0),), [FULL2, (0,), FULL2], 2)
    s2 = permute_bp_state(s, perm)
    assert s2.marks == ((0, 1),)
    assert s2.active == (FULL2, FULL2, (0,))
    for cfg in itertools.product(range(2), repeat=3):
        assert h_star(cfg, s) == h_star(permute_type_config(cfg, perm), s2)

    p = mk(3, S=1.5, b=((0.7, 0.3), (0.2, 0.8)))
    rng = philox(12, 0)
    mu = rng.random(8)
    mu /= mu.sum()
    configs = tuple(itertools.product(range(2), repeat=3))
    index = {c: k for k, c in enumerate(configs)}
    mu2 = np.empty_like(mu)
    for c, w in zip(configs, mu):
        mu2[index[permute_type_config(c, perm)]] = w
    r1 = check_duality(p, s, mu, 0.8)
    r2 = check_duality(p, s2, mu2, 0.8)
    assert abs(r1.lhs - r2.lhs) <= 1e-12
    assert abs(r1.rhs - r2.rhs) <= 1e-12


# --------------------------------------------------------- equilibrium weight

def test_equilibrium_weights_match_null_space():
    p = mk(3, S=1.0, b=((0.7, 0.3), (0.2, 0.8)))
    gen = build_bp_generator(p, canonical_start(p, {0: 0}))
    h = compute_h(p, gen)

    type_gen = build_type_generator(p)
    ns = scipy.linalg.null_space(type_gen.Q.T.toarray())
    assert ns.shape[1] == 1
    pi = ns[:, 0] / ns[:, 0].sum()
    arr = np.array(type_gen.states)
    oracle = np.array([h_star_vector(s, arr, 2) @ pi for s in gen.states])
    assert np.max(np.abs(h - oracle)) <= 1e-10

    assert harmonic_residual(gen, h) <= 1e-8
    for site in range(3):
        tot = sum(h[gen.index[make_state((0,), ((u, site),), [FULL2] * 3, 2)]]
                  for u in range(2))
        assert tot == pytest.approx(1.0, abs=1e-12)


def test_equilibrium_weights_pair_start_and_verify():
    p = mk(3, S=1.0, b=((0.7, 0.3), (0.2, 0.8)))
    gen = build_bp_generator(p, canonical_start(p, {0: 0, 1: 1}))
    h = compute_h(p, gen, law=finite_stationary_law(p))
    assert np.min(h) > 0.0
    assert harmonic_residual(gen, h) <= 1e-8
    # a non-invariant law gives weights that are not harmonic
    with pytest.raises(ArithmeticError, match="harmonic residual"):
        compute_h(p, gen, law=(0.5, 0.5))
    skipped = compute_h(p, gen, law=(0.5, 0.5), verify=False)
    assert harmonic_residual(gen, skipped) > 1e-6


def test_equilibrium_weight_errors():
    p = mk(3, S=1.0, b=((0.7, 0.3), (0.2, 0.8)))
    start = canonical_start(p, {0: 1})
    gen = build_bp_generator(p, start)
    with pytest.raises(ParamError, match="positivity assumption violated"):
        compute_h(p, gen, law={(0, 0, 0): 1.0})
    bare = build_bp_generator(p, start, with_fk=False)
    with pytest.raises(ParamError, match="weighted backward generator"):
        compute_h(p, bare)
    with pytest.raises(ParamError, match="weighted backward generator"):
        harmonic_residual(bare, np.ones(bare.n))


# ------------------------------------------------------ horizon-indexed weight

def test_horizon_weights_stationary_reduce_to_equilibrium():
    p = mk(2, S=1.0, b=((0.7, 0.3), (0.4, 0.6)))
    law = finite_stationary_law(p)
    gen = build_bp_generator(p, canonical_start(p, {0: 0, 1: 1}))
    h = compute_h(p, gen, law=law)
    table = compute_hT(p, gen, law, 1.0, (0.0, 0.3, 0.9))
    assert table.shape == (3, gen.n)
    for row in table:
        assert np.max(np.abs(row - h)) <= 1e-10


def test_horizon_weights_degenerate_law_near_horizon():
    p = mk(2, b=((0.7, 0.3), (0.4, 0.6)))
    gen = build_bp_generator(p, canonical_start(p, {0: 0, 1: 1}))
    cfg = (0, 1)
    table = compute_hT(p, gen, {cfg: 1.0}, 1.0, (1.0 - 1e-6,))
    configs_arr = np.array([cfg])
    for k, s in enumerate(gen.states):
        want = float(h_star_vector(s, configs_arr, 2)[0])
        assert table[0, k] == pytest.approx(want, abs=1e-4)


def test_horizon_weights_match_dense_oracle():
    p = mk(2)
    gen = build_bp_generator(p, canonical_start(p, {0: 0, 1: 1}))
    type_gen = build_type_generator(p)
    mu_vec = config_law_vector(p, (0.5, 0.5), type_gen.states)
    rho = scipy.linalg.expm(0.7 * type_gen.Q.T.toarray()) @ mu_vec
    arr = np.array(type_gen.states)
    want = np.array([h_star_vector(s, arr, 2) @ rho for s in gen.states])
    table = compute_hT(p, gen, (0.5, 0.5), 1.0, (0.3,), type_gen=type_gen)
    assert np.max(np.abs(table[0] - want)) <= 1e-10


def test_horizon_weight_errors():
    p = mk(2, b=((0.7, 0.3), (0.4, 0.6)))
    gen = build_bp_generator(p, canonical_start(p, {0: 0, 1: 1}))
    with pytest.raises(ParamError, match="nonnegative horizon required"):
        compute_hT(p, gen, (0.5, 0.5), -1.0, (0.0,))
    with pytest.raises(ParamError, match="time outside horizon"):
        compute_hT(p, gen, (0.5, 0.5), 1.0, (0.3, 1.5))
    # a point mass at the horizon zeroes every incompatible state's weight
    with pytest.raises(ParamError, match="h positivity violated"):
        compute_hT(p, gen, {(0, 1): 1.0}, 1.0, (1.0,))
