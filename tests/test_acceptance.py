"""Release gate: every criterion at its stated tolerance and time budget.

Each test prints one line on success,

    criterion NN: PASS (<measured worst value>, <elapsed>s)

and fails if either the tolerance or the wall-time budget is exceeded.
Unpinned constants (mutation kernels, B grids, tagged-site layouts) are
fixed here once and documented in the project notes.
"""
import math
import time

import numpy as np

from helpers import mk, philox, rand_chi, rand_rows
from moranlines.backward import canonical_start, make_state
from moranlines.exact import (build_bp_generator, build_type_generator,
                              compute_h, duality_reports, harmonic_residual)
from moranlines.forward import (cat_fixation_type,
                                neutral_pair_distance_samples)
from moranlines.model import (finite_stationary_law,
                              moment_recurrence_residuals, wf_single_moment)
from moranlines.reduced import (CatChainSpec, DistChainSpec, cat_chain_vs_bp,
                                cat_equilibrium, dist_chain_vs_bp,
                                dist_survival, dist_taylor_coeffs,
                                lemma_ode_residual)
from moranlines.transformed import (first_coalescence_time,
                                    make_homogeneous_kernel,
                                    make_inhomogeneous_kernel, sample_config,
                                    sample_conditioned_lines,
                                    transformed_rates)

PI = ((0.3, 0.7), (0.3, 0.7))  # parent-independent two-type kernel
HALF = ((0.5, 0.5), (0.5, 0.5))


def _pass(num, detail, t0, budget_s):
    elapsed = time.monotonic() - t0
    assert elapsed <= budget_s, \
        f"criterion {num}: {elapsed:.1f}s over the {budget_s}s budget"
    print(f"criterion {num:02d}: PASS ({detail}, {elapsed:.1f}s)")


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


def test_criterion_01_duality_fuzz():
    t0 = time.monotonic()
    rng = philox(101, 0)
    times = (0.1, 0.5, 1.0, 2.0)
    worst = 0.0
    checks = 0
    for N in (2, 3):
        for d in (2, 3):
            for S in (0.0, 1.0, float(N)):
                for draw in range(50):
                    p = mk(N, d=d, B=float(rng.uniform(0.2, 2.0)),
                           b=rand_rows(rng, d), S=S, chi=rand_chi(rng, d))
                    if draw % 2 == 0:
                        mu = tuple(rng.dirichlet(np.ones(d)))
                    else:
                        vec = rng.random(d ** N)
                        mu = vec / vec.sum()
                    start = _random_start(rng, N, d)
                    for rep in duality_reports(p, mu, [start], times):
                        worst = max(worst, rep.gap)
                        checks += 1
    assert worst <= 1e-9
    assert checks == 2 * 2 * 3 * 50 * len(times)
    _pass(1, f"max duality gap {worst:.2e} over {checks} checks", t0, 300.0)


def test_criterion_02_neutral_closed_forms():
    t0 = time.monotonic()
    ts = tuple(np.linspace(0.0, 5.0, 21))
    worst = 0.0
    for B, b0 in ((1.0, 0.5), (2.0, 0.3)):
        b1 = 1.0 - b0
        p = mk(10, B=B, b=((b0, b1), (b0, b1)), S=0.0)
        table = dist_survival(DistChainSpec.limit(p), ts, (0,))
        for t in ts:
            et, em = math.exp(-t), math.exp(-2.0 * B * t) - 1.0
            want = {
                "00": et * (1.0 + b1 * em / (1.0 + 2.0 * B * b0)),
                "11": et * (1.0 + b0 * em / (1.0 + 2.0 * B * b1)),
                "01": et * (1.0 - em / (2.0 * B)),
            }
            for y, val in want.items():
                worst = max(worst, abs(table.f_value(y, 0, t) - val))
            worst = max(worst, abs(table.pf_value(0, t) - et))
    assert worst <= 1e-8
    _pass(2, f"max closed-form gap {worst:.2e}", t0, 60.0)


def test_criterion_03_taylor_with_selection():
    t0 = time.monotonic()
    worst_low = 0.0
    worst_rel = 0.0
    for S in (0.5, 1.0, 2.0):
        p = mk(10, B=1.0, b=HALF, S=S)
        coeffs = dist_taylor_coeffs(DistChainSpec.limit(p), n=0, order=3)
        pf = coeffs.pf
        worst_low = max(worst_low, abs(pf[0] - 1.0), abs(pf[1] + 1.0),
                        abs(pf[2] - 1.0))
        target = -(1.0 + 2.0 * S * S * wf_single_moment(p, 1, 1))
        worst_rel = max(worst_rel, abs(pf[3] - target) / abs(target))
    assert worst_low <= 1e-10  # exact identities, float assembly only
    assert worst_rel <= 1e-6
    _pass(3, f"orders 0-2 dev {worst_low:.2e}, third-order rel "
             f"{worst_rel:.2e}", t0, 60.0)


def test_criterion_04_cat_neutral_equilibrium():
    t0 = time.monotonic()
    worst = 0.0
    specs = [CatChainSpec.finite_n(mk(5, B=1.0, b=PI, S=0.0)),
             CatChainSpec.finite_n(mk(50, B=1.0, b=PI, S=0.0)),
             CatChainSpec.limit(mk(5, B=1.0, b=PI, S=0.0))]
    for spec in specs:
        eq = cat_equilibrium(spec)
        worst = max(worst, abs(eq.marginal[0] - 0.3),
                    abs(eq.marginal[1] - 0.7))
    assert worst <= 1e-10
    _pass(4, f"max marginal gap {worst:.2e}", t0, 30.0)


def test_criterion_05_reduced_chains_match_bp():
    t0 = time.monotonic()
    worst = 0.0
    for N in (3, 4):
        for S in (0.0, 1.0):
            p = mk(N, B=1.0, b=PI, S=S)
            for t in (0.5, 1.0):
                worst = max(worst, cat_chain_vs_bp(p, t).max_gap)
                worst = max(worst, dist_chain_vs_bp(p, t).max_gap)
    assert worst <= 1e-9
    _pass(5, f"max lumping gap {worst:.2e}", t0, 600.0)


def test_criterion_06_conditioned_sampler():
    t0 = time.monotonic()
    p = mk(2, B=0.0, S=0.0, b=HALF)
    nu = (0.5, 0.5)
    T = 2.0
    reps = 100_000
    kernel = make_inhomogeneous_kernel(p, nu, T)
    rng = philox(606, 0)
    sigmas = np.empty(reps)
    for k in range(reps):
        sample = sample_conditioned_lines(p, {0: 0, 1: 0}, nu, T, rng,
                                          kernel=kernel)
        sigmas[k] = first_coalescence_time(sample.path)
    worst_z = 0.0
    for t in (0.5, 1.0):
        target = ((math.exp(-t) - 0.5 * math.exp(-T))
                  / (1.0 - 0.5 * math.exp(-T)))
        est = float(np.mean(sigmas > t))
        se = math.sqrt(target * (1.0 - target) / reps)
        worst_z = max(worst_z, abs(est - target) / se)
    assert worst_z <= 3.0
    _pass(6, f"max |z| {worst_z:.2f} at {reps} replicates", t0, 300.0)


def test_criterion_07_forward_neutral_distance():
    t0 = time.monotonic()
    reps = 100_000
    dists = neutral_pair_distance_samples(50, 2.0, reps, seed=707)
    worst_z = 0.0
    for t in (0.25, 0.5, 1.0):
        target = math.exp(-t)
        est = float(np.mean(dists > 2.0 * t))
        se = math.sqrt(target * (1.0 - target) / reps)
        worst_z = max(worst_z, abs(est - target) / se)
    assert worst_z <= 3.0
    _pass(7, f"max |z| {worst_z:.2f} at {reps} replicates", t0, 600.0)


def test_criterion_08_moment_recurrences():
    t0 = time.monotonic()
    worst = 0.0
    for B in (0.5, 1.0, 2.0):
        for S in (0.5, 1.0, 2.0):
            p = mk(10, B=B, b=PI, S=S)
            # recurrences scanned to n = 20
            worst = max(worst, moment_recurrence_residuals(p, 23))
    assert worst <= 1e-8
    _pass(8, f"max relative residual {worst:.2e}", t0, 30.0)


def test_criterion_09_harmonic_h():
    t0 = time.monotonic()
    worst = 0.0
    for N in (2, 3):
        for S in (0.0, 1.0):
            p = mk(N, B=1.0, b=((0.7, 0.3), (0.2, 0.8)), S=S)
            tag_all = {i: i % 2 for i in range(N)}
            for xi in (tag_all, {1: 0}):
                gen = build_bp_generator(p, canonical_start(p, xi))
                h = compute_h(p, gen)
                worst = max(worst, harmonic_residual(gen, h))
    assert worst <= 1e-8
    _pass(9, f"max harmonic residual {worst:.2e}", t0, 60.0)


def test_criterion_10_lemma_ode_residuals():
    t0 = time.monotonic()
    ts = (0.25, 0.5, 1.0, 2.0)
    worst = 0.0
    for S in (0.0, 1.0):
        p = mk(10, B=1.0, b=HALF, S=S)
        spec = DistChainSpec.limit(p)
        table = dist_survival(spec, ts, (0,))
        rep = lemma_ode_residual(spec, table, n_cap=10)
        worst = max(worst, rep.max_system, rep.max_pf)
    assert worst <= 1e-8
    _pass(10, f"max residual {worst:.2e}", t0, 60.0)


def test_criterion_11_distances_smaller_under_selection():
    # the neutral pair coalesces at rate 1, so P(D > 2t) <= e^{-t} under
    # selection: every model of the fixed grid, finite and limit chains,
    # with parent-independent two-type mutation
    t0 = time.monotonic()
    ts = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
    specs = {}
    for N in (2, 3, 5, 10, 40):
        for B in (0.05, 0.5, 2.0, 10.0):
            for b1 in (0.1, 0.5, 0.9):
                b = ((1.0 - b1, b1), (1.0 - b1, b1))
                for S in sorted({0.5, min(N, 5), min(N, 20)}):
                    p = mk(N, B=B, b=b, S=float(S))
                    specs["finite", N, B, b1, S] = DistChainSpec.finite_n(p)
                    if N == 40:
                        specs["limit", N, B, b1, S] = DistChainSpec.limit(p)
    assert sum(key[0] == "finite" for key in specs) == 144
    assert sum(key[0] == "limit" for key in specs) == 36
    worst = {"finite": -math.inf, "limit": -math.inf}
    failures = []
    for key, spec in specs.items():
        table = dist_survival(spec, ts, (0,))
        for t in ts:
            excess = table.pf_value(0, t) - math.exp(-t)
            worst[key[0]] = max(worst[key[0]], excess)
            if excess > 1e-13:
                failures.append((key, t, excess))
    assert not failures, failures
    _pass(11, f"max excess finite {worst['finite']:.2e}, "
              f"limit {worst['limit']:.2e}", t0, 30.0)


def test_criterion_12_conditioned_rates_converge_at_the_spectral_gap():
    # the paper's limit theorem on a finite chain: the rates tilted by the
    # horizon-T type law approach the rates tilted by the stationary h as
    # T grows, at the type chain's spectral-gap rate, from a start law far
    # from stationarity and with a mutation kernel that is not parent
    # independent
    t0 = time.monotonic()
    p = mk(3, d=3, B=0.7, b=((0.2, 0.5, 0.3), (0.6, 0.1, 0.3),
                             (0.25, 0.25, 0.5)), S=2.0, chi=(0.0, 0.4, 1.0))
    mu = {(0, 0, 0): 1.0}
    eig = np.linalg.eigvals(build_type_generator(p).Q.toarray())
    assert eig.size == 27
    gap = float(np.sort(-eig.real)[1])
    worst = 0.0
    for xi in ({0: 0, 1: 2}, {0: 0, 1: 0}, {0: 1}):
        start = canonical_start(p, xi)
        limit = transformed_rates(make_homogeneous_kernel(p, start), start)
        for T in (2.0, 4.0, 8.0, 12.0):
            tilted = transformed_rates(make_inhomogeneous_kernel(p, mu, T),
                                       start, t=0.0)
            assert [(tr.target, tr.kind) for tr in tilted] == \
                [(tr.target, tr.kind) for tr in limit]
            err = max(abs(a.rate - b.rate) for a, b in zip(tilted, limit))
            worst = max(worst, err * math.exp(gap * T))
    assert worst <= 3.0
    _pass(12, f"gap {gap:.4f}, max error x e^(gap T) {worst:.2f}", t0, 30.0)


def test_criterion_13_ancestor_type_under_selection():
    # a run started from a stationary configuration and read at time 0
    # returns the ancestor type, whose law is the finite ancestor-type
    # chain's mark marginal; the naive stationary type frequency sits many
    # standard errors away, so the gate has power
    t0 = time.monotonic()
    p = mk(5, B=1.0, b=PI, S=2.0)
    law = finite_stationary_law(p)
    reps = 10_000
    rng = philox(1313, 0)
    runs = [cat_fixation_type(p, 0.0, sample_config(p, law, rng), 0.0, rng)
            for _ in range(reps)]
    assert "pending" not in runs
    target = cat_equilibrium(CatChainSpec.finite_n(p, law=law)).marginal[1]
    se = math.sqrt(target * (1.0 - target) / reps)
    z = (runs.count(1) / reps - target) / se
    naive = float(np.dot(law.weights, np.arange(p.N + 1))) / p.N
    assert abs(naive - target) > 10.0 * se
    assert abs(z) <= 3.0
    _pass(13, f"|z| {abs(z):.2f} at {reps} replicates, naive "
              f"{abs(naive - target) / se:.0f} se away", t0, 60.0)
