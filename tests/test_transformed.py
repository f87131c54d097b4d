"""Conditioned backward dynamics: reweighted rates, grid tables, samplers,
line reconstruction, and the forward/backward functional cross-check."""

import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chi2

import moranlines.forward as forward
import moranlines.model as model
import moranlines.transformed as transformed
from moranlines import (BudgetError, ParamError, canonical_start,
                        finite_stationary_law,
                        init_forest, make_state, pair_distance_samples,
                        path_value, run_until)
from moranlines.backward import BpState, _transitions
from moranlines.exact import (_law_grid, build_bp_generator,
                              build_type_generator, config_law_vector,
                              expm_apply)
from moranlines.forward import BLOCK_REPS
from moranlines.transformed import (HTTable, HTransformedKernel,
                                    conditioned_coalescence_times,
                                    conditioned_functional_check,
                                    first_coalescence_time, forest_line,
                                    make_homogeneous_kernel,
                                    make_inhomogeneous_kernel, sample_config,
                                    sample_conditioned_lines,
                                    sample_transformed_path,
                                    transformed_rates)

from helpers import mk, philox, three_se

FULL2 = (0, 1)


def test_constant_weights_reproduce_base_rates():
    p = mk(3, S=1.0, b=((0.7, 0.3), (0.2, 0.8)))
    start = canonical_start(p, {0: 0, 1: 1})
    gen = build_bp_generator(p, start)
    kernel = HTransformedKernel(p=p, gen=gen, h=np.ones(gen.n))
    for state in gen.states[:6]:
        base = _transitions(state, p)
        got = transformed_rates(kernel, state)
        assert [(tr.target, tr.kind) for tr in got] == \
               [(tr.target, tr.kind) for tr in base]
        for a, b_ in zip(got, base):
            assert a.rate == b_.rate


def test_homogeneous_rates_conserve_outflow():
    p = mk(3, S=1.0, b=((0.7, 0.3), (0.2, 0.8)))
    start = canonical_start(p, {0: 0, 1: 1})
    kernel = make_homogeneous_kernel(p, start)
    gen = kernel.gen
    for k, state in enumerate(gen.states):
        rates = transformed_rates(kernel, state)
        for tr, base in zip(rates, _transitions(state, p)):
            want = base.rate * kernel.h[gen.index[tr.target]] / kernel.h[k]
            assert tr.rate == pytest.approx(want, rel=1e-14)
        total = sum(tr.rate for tr in rates)
        want = -gen.Q[k, k] - gen.fk_diagonal[k]
        assert total == pytest.approx(want, abs=1e-10)


def test_stationary_inhomogeneous_matches_homogeneous():
    p = mk(2, S=1.0, b=((0.7, 0.3), (0.4, 0.6)))
    law = finite_stationary_law(p)
    start = canonical_start(p, {0: 0, 1: 1})
    hk = make_homogeneous_kernel(p, start)
    ik = make_inhomogeneous_kernel(p, law, 1.0)
    for state in hk.gen.states:
        fixed = transformed_rates(hk, state)
        for t in (0.2, 0.7):
            timed = transformed_rates(ik, state, t=t)
            assert len(timed) == len(fixed)
            for a, b_ in zip(timed, fixed):
                assert a.target == b_.target
                assert a.rate == pytest.approx(b_.rate, rel=1e-6)


def test_table_values_match_closed_form():
    # without mutation or selection the two-site compatibility averages
    # are explicit: merge at rate one, then a single founder draw
    p = mk(2, B=0.0)
    nu0, T = 0.3, 2.0
    table = HTTable(p, (nu0, 1 - nu0), T)
    pair = canonical_start(p, {0: 0, 1: 0})
    merged = make_state((0, 1), ((0, 0), (0, 0)), [FULL2] * 2, 2)
    for r in (0.0, 0.3, 1.0, 1.7, 2.0):
        decay = math.exp(r - T)
        want = nu0 * (1 - decay) + nu0 ** 2 * decay
        assert table.value(r, pair) == pytest.approx(want, abs=1e-6)
        assert table.value(r, merged) == pytest.approx(nu0, abs=1e-6)


def test_table_value_reads_a_registered_state_directly(monkeypatch):
    # a registered state's series is one dict lookup away: value must not
    # go through sids, which fits, builds and extends the tables
    p = mk(3, d=3, B=1.0, S=1.0)
    table = HTTable(p, (0.2, 0.5, 0.3), 1.0)
    state = canonical_start(p, {0: 1, 2: 0})
    ser = table.rows[table.sids((state.key,)).item(0)].copy()

    def refuse(self, keys):
        raise AssertionError("sids called for a registered state")

    monkeypatch.setattr(HTTable, "sids", refuse)
    for r in (0.0, 0.3, 1.0):
        k = min(int(r / table.step), len(table.grid) - 2)
        theta = (r - table.grid[k]) / table.step
        want = (1.0 - theta) * ser[k] + theta * ser[k + 1]
        assert table.value(r, state) == want


@pytest.mark.parametrize("p, nu, T, stride", [
    (mk(2, B=0.0), (0.5, 0.5), 2.0, 1),
    (mk(4, d=3, B=1.0, S=1.0), np.full(3, 1 / 3), 1.0, 1),
    # 30,001 grid rows, over which stepping one grid step at a time
    # drifted to 5.4e-13
    (mk(3, B=0.05, S=1.0), (0.15, 0.85), 30.0, 13),
], ids=["conditioned-n2", "N4-d3", "N3-B0.05-T30"])
def test_table_grid_law_matches_lone_semigroup_applications(p, nu, T, stride):
    # each row of the grid law is the start law evolved for T - grid[k],
    # as one semigroup application of that length computes it
    ht = HTTable(p, nu, T)
    gen = build_type_generator(p)
    mu = config_law_vector(p, nu, gen.states)
    n = len(ht.grid) - 1
    for k in sorted({*range(0, n + 1, stride), n}):
        want = expm_apply(gen, mu, T - ht.grid[k], transpose=True)
        assert np.max(np.abs(ht.rho[k] - want)) <= 1e-13, k
    assert np.max(np.abs(ht.rho.sum(axis=1) - 1.0)) <= 1e-13
    assert ht.rho.min() >= 0.0


def test_law_grid_windows_of_one_row():
    # a grid step longer than one unit of uniformized time gives windows
    # of a single row, each with its own long Poisson series; row n - i
    # holds the law at time i * step
    p = mk(3, d=3, B=1.0, S=1.0)
    gen = build_type_generator(p)
    mu = config_law_vector(p, (0.2, 0.5, 0.3), gen.states)
    step = 0.7
    assert gen._uniformized[1] * step > 1.0
    law = _law_grid(gen, mu, step, 6, transpose=True)
    assert law.shape == (7, gen.n)
    for i in range(7):
        want = expm_apply(gen, mu, i * step, transpose=True)
        assert np.max(np.abs(law[6 - i] - want)) <= 1e-13, i
    # a subnormal step: one window, the law unchanged to rounding
    law = _law_grid(gen, mu, 1e-320, 2, transpose=True)
    assert np.max(np.abs(law - mu)) <= 1e-15
    # a chain that never jumps keeps its law at every grid time
    still = build_type_generator(mk(1, B=0.0))
    law = _law_grid(still, np.array([0.3, 0.7]), step, 3, transpose=True)
    assert np.array_equal(law, np.tile([0.3, 0.7], (4, 1)))


@pytest.mark.parametrize("transpose", [False, True])
def test_law_grid_weighted_windows_match_lone_applications(transpose):
    # the weighted backward generator has shift c = max V > 0, which
    # scales each window's rows after its Poisson sum; four rows per
    # window and ten steps leave a partial last window of two rows
    p = mk(3, S=2.0, b=((0.7, 0.3), (0.2, 0.8)))
    gen = build_bp_generator(p, canonical_start(p, {0: 0, 1: 1}))
    c, lam, _ = gen._uniformized
    assert c > 0.0
    step = 1.0 / (4.5 * lam)
    v = philox(5, 0).random(gen.n)
    law = _law_grid(gen, v, step, 10, transpose)
    assert law.shape == (11, gen.n)
    assert np.array_equal(law[10], v)
    for i in range(11):
        want = expm_apply(gen, v, i * step, transpose=transpose)
        assert np.max(np.abs(law[10 - i] - want)) <= 1e-13, i


def test_table_byte_budget_refuses_before_allocating(monkeypatch):
    # N = 10 at T = 1,000: 1,000,001 grid rows of 1,024 floats (8.2 GB),
    # evolved over a million grid steps.  The refusal must come before the
    # table is allocated or its grid law computed, so either one fails the
    # test instead.
    real_empty = np.empty

    def guarded_empty(shape, *args, **kwargs):
        assert 8 * np.prod(shape) <= model.DENSE_SOLVE_BYTES, \
            "table allocated before the budget check"
        return real_empty(shape, *args, **kwargs)

    def no_grid(*args, **kwargs):
        raise AssertionError("grid law computed before the budget check")

    monkeypatch.setattr(np, "empty", guarded_empty)
    monkeypatch.setattr(transformed, "_law_grid", no_grid)
    with pytest.raises(BudgetError, match="exact solve infeasible"):
        HTTable(mk(10), (0.5, 0.5), 1000.0)


def test_table_rows_keep_to_the_dense_budget(monkeypatch):
    # the grid law and every row the table stores share DENSE_SOLVE_BYTES
    p = mk(3, S=1.0, b=((0.7, 0.3), (0.2, 0.8)))
    nu, T = (0.15, 0.85), 0.5
    ht = HTTable(p, nu, T)
    assert ht.rho.nbytes + ht.rows.nbytes <= model.DENSE_SOLVE_BYTES
    # room for five rows beside the grid law: the pair start's series fits,
    # its targets' series and its tables do not
    monkeypatch.setattr(transformed, "DENSE_SOLVE_BYTES",
                        ht.rho.nbytes + 5 * ht.rows[0].nbytes)
    small = make_inhomogeneous_kernel(p, nu, T)
    assert len(small.ht.rows) == 5
    start = canonical_start(p, {0: 0, 1: 1})
    with pytest.raises(BudgetError, match="horizon table above the dense"):
        sample_transformed_path(small, start, philox(39, 0), t_end=T)
    assert len(small.ht.states) == 1 and small.ht.tab.tolist() == [-1]
    with pytest.raises(BudgetError, match="horizon table above the dense"):
        conditioned_coalescence_times(p, T, 10, 39, {0: 0, 1: 1}, nu, [0])


def test_state_tables_match_rates_and_dominate():
    # the thinning samplers read the horizon table's thinning tables, not
    # transformed_rates: a state's total-rate series must agree with the
    # summed conditioned rates, and its suffix maximum must bound the total
    # rate on the rest of the span
    p = mk(3, S=1.0, b=((0.7, 0.3), (0.2, 0.8)))
    T = 0.5
    kernel = make_inhomogeneous_kernel(p, (0.15, 0.85), T)
    ht = kernel.ht
    gen = build_bp_generator(p, [canonical_start(p, {0: 0, 1: 1}),
                                 canonical_start(p, {0: 1, 1: 1})])
    rng = philox(31, 0)
    picks = rng.choice(gen.n, size=8, replace=False)
    for state in (gen.states[i] for i in picks):
        sid = ht.sids((state.key,))
        ht.build(sid)
        tab = ht.tab[sid[0]]
        num, den = ht.rows[ht.top - 2 * tab], ht.rows[sid[0]]
        suffix_max = ht.rows[ht.top - 2 * tab - 1]

        def total(t):
            return np.interp(t, ht.grid, num) / np.interp(t, ht.grid, den)

        for t in rng.uniform(0.0, T, size=6):
            want = sum(tr.rate for tr in transformed_rates(kernel, state, t))
            assert total(t) == pytest.approx(want, rel=1e-12)
        # every knot, every midpoint and seeded interior times
        probes = np.concatenate([ht.grid, (ht.grid[1:] + ht.grid[:-1]) / 2,
                                 rng.uniform(0.0, T, size=200)])
        lam = np.array([total(t) for t in probes])
        for k in range(len(ht.grid)):
            ahead = lam[probes >= ht.grid[k]]
            assert suffix_max[k] >= ahead.max() * (1.0 - 1e-12)


def test_conditioned_coalescence_rate_formula():
    p = mk(2, B=0.0)
    nu0, T = 0.3, 2.0
    kernel = make_inhomogeneous_kernel(p, (nu0, 1 - nu0), T)
    pair = canonical_start(p, {0: 0, 1: 0})
    for r in (0.3, 1.0, 1.7):
        rates = transformed_rates(kernel, pair, t=r)
        merges = [tr for tr in rates if len(set(tr.target.marks)) == 1]
        assert len(merges) == len(rates) == 2
        decay = math.exp(r - T)
        want = nu0 / (nu0 * (1 - decay) + nu0 ** 2 * decay)
        assert sum(tr.rate for tr in merges) == pytest.approx(want, abs=1e-5)


def test_homogeneous_sampler_holding_time():
    p = mk(2, S=1.0, b=((0.7, 0.3), (0.4, 0.6)))
    start = canonical_start(p, {0: 0, 1: 1})
    kernel = make_homogeneous_kernel(p, start)
    k = kernel.gen.index[start]
    lam = -kernel.gen.Q[k, k] - kernel.gen.fk_diagonal[k]
    rng = philox(31, 0)
    cache = {}
    flags = np.empty(10_000)
    for r in range(flags.size):
        path = sample_transformed_path(kernel, start, rng, t_end=0.5,
                                       cache=cache)
        assert path.initial == start and path.horizon == 0.5
        flags[r] = 1.0 if not path.events else 0.0
    mean, band = three_se(flags)
    assert abs(mean - math.exp(-lam * 0.5)) <= band


def test_homogeneous_sampler_draw_order_is_pinned():
    # recorded from a seeded run; a change in the order or number of random
    # draws of the jump-path loop changes the event count or kinds
    p = mk(3, B=1.0, S=1.0, b=((0.7, 0.3), (0.2, 0.8)))
    start = canonical_start(p, {0: 0, 1: 1})
    kernel = make_homogeneous_kernel(p, start)
    path = sample_transformed_path(kernel, start, philox(22, 0), t_end=5.0)
    assert [(t, tr.kind) for t, tr in path.events] == [
        (0.36904446310789873, "1a"), (0.4552447684723227, "2bi"),
        (0.7184964689590299, "2ai"), (2.4699563511850897, "2bi"),
        (3.5473324544167397, "2bi"), (4.634683833939559, "2bi"),
        (4.849742927224235, "2bi")]


def test_inhomogeneous_sampler_stream_is_pinned():
    # coalescence times of per-path replicates on streams keyed (5, rep),
    # recorded from a seeded run; a change in the order or number of the
    # draws, or a shift of the thinning or event-choice odds, moves them
    p = mk(3, d=3, B=1.0, S=1.0)
    inf = float("inf")
    kernel = make_inhomogeneous_kernel(p, np.full(3, 1 / 3), 1.0)
    start = canonical_start(p, {0: 0, 1: 2})
    got = [first_coalescence_time(sample_transformed_path(
        kernel, start, philox(5, rep), 1.0)) for rep in range(20)]
    assert got == [
        0.45072486291357866, inf, inf, 0.8955536981439962, inf, inf, inf,
        inf, 0.7876242633687969, 0.2369613533418121, inf,
        0.7752719387004717, inf, 0.45896903651027254, inf,
        0.8535625618269433, 0.38319037846642984, inf, 0.10031176935378165,
        inf]


def test_per_path_sampler_enumerates_each_state_once(monkeypatch):
    # the per-path sampler's tables live on the kernel's horizon table, so
    # draws without a cache enumerate a state's transitions only once
    p = mk(3, d=3, B=1.0, S=1.0)
    kernel = make_inhomogeneous_kernel(p, np.full(3, 1 / 3), 1.0)
    start = canonical_start(p, {0: 0, 1: 2})
    calls = Counter()
    enumerate_all = transformed.enumerate_transitions

    def counted(state, p):
        calls[state] += 1
        return enumerate_all(state, p)

    monkeypatch.setattr(transformed, "enumerate_transitions", counted)
    rng = philox(40, 0)
    for _ in range(200):
        sample_transformed_path(kernel, start, rng, 1.0, cache=None)
    assert len(calls) > 1
    assert set(calls.values()) == {1}


def test_one_state_built_per_numbered_state(monkeypatch):
    # states are numbered by key, and a BpState is built only for a key
    # seen for the first time, not for every enumerated target
    p = mk(3, d=3, B=1.0, S=1.0)
    starts = [canonical_start(p, {0: u}) for u in range(3)]
    starts += [canonical_start(p, {0: u, 1: v})
               for u in range(3) for v in range(3)]
    built = []
    init = BpState.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BpState, "__init__", counted)
    gen = build_bp_generator(p, starts)
    assert 0 < len(built) <= gen.n

    ht = make_inhomogeneous_kernel(p, np.full(3, 1 / 3), 0.5).ht
    sids = ht.sids([s.key for s in starts])
    before = len(ht.states)
    built.clear()
    ht.build(sids)
    assert len(ht.states) > before
    assert len(built) <= len(ht.states) - before


def test_block_sampler_stream_is_pinned():
    # the first 20 coalescence times of block 0 (stream keyed (5, 0)) of
    # the block sampler, recorded from a seeded run
    p = mk(3, d=3, B=1.0, S=1.0)
    got = conditioned_coalescence_times(p, 1.0, BLOCK_REPS, 5, {0: 0, 1: 2},
                                        np.full(3, 1 / 3), [0])
    inf = float("inf")
    assert got.shape == (BLOCK_REPS,)
    assert got[:20].tolist() == [
        inf, inf, 0.37671203993609315, 0.16459170397420325, inf,
        0.3318608433153985, inf, inf, inf, 0.668570936395278,
        0.17529389491396524, 0.4509068671873352, 0.644850326357597, inf,
        0.5359632791621345, inf, 0.5924255920487939, inf, inf,
        0.9910192252761332]


def test_block_sampler_results_do_not_depend_on_the_block_split():
    # a worker runs a contiguous run of blocks on tables built by the
    # blocks before it in that run; every block must come out the same
    p = mk(4, d=3, B=1.0, S=1.0, b=((0.6, 0.3, 0.1), (0.2, 0.5, 0.3),
                                   (0.25, 0.25, 0.5)))
    args = (p, 1.0, 3 * BLOCK_REPS - 5, 9, {0: 0, 1: 2}, np.full(3, 1 / 3))
    whole = conditioned_coalescence_times(*args, range(3))
    assert whole.shape == (3 * BLOCK_REPS - 5,)
    for split in ([0], [1, 2]), ([0, 1], [2]):
        parts = [conditioned_coalescence_times(*args, run) for run in split]
        assert np.array_equal(np.concatenate(parts), whole)


def test_block_sampler_matches_closed_form():
    # criterion 06's model: N = 2, B = S = 0, uniform start law, both tags
    # of type 0, so P(sigma > t) = (e^-t - e^-T / 2) / (1 - e^-T / 2)
    p = mk(2, B=0.0)
    T, reps = 2.0, 20_000
    sigmas = conditioned_coalescence_times(
        p, T, reps, 616, {0: 0, 1: 0}, (0.5, 0.5),
        range(-(-reps // BLOCK_REPS)))
    assert sigmas.shape == (reps,)
    scale = 1.0 - 0.5 * math.exp(-T)
    for t in (0.5, 1.0):
        want = (math.exp(-t) - 0.5 * math.exp(-T)) / scale
        z = (np.mean(sigmas > t) - want) / math.sqrt(want * (1 - want) / reps)
        assert abs(z) <= 3.0


def test_block_sampler_matches_per_path_sampler():
    # the same conditioned law drawn both ways at N = 3, d = 3, S = 1;
    # two-sample z-scores of the survival at fixed times
    p = mk(3, d=3, B=1.0, S=1.0, b=((0.6, 0.3, 0.1), (0.2, 0.5, 0.3),
                                   (0.25, 0.25, 0.5)))
    nu, T, tagged = (0.5, 0.3, 0.2), 1.0, {0: 0, 1: 2}
    blocks = conditioned_coalescence_times(p, T, 4 * BLOCK_REPS, 617, tagged,
                                           nu, range(4))
    kernel = make_inhomogeneous_kernel(p, nu, T)
    start = canonical_start(p, tagged)
    rng = philox(618, 0)
    paths = np.array([first_coalescence_time(sample_transformed_path(
        kernel, start, rng, T)) for _ in range(4000)])
    for t in (0.25, 0.5, 0.75):
        a, b = np.mean(blocks > t), np.mean(paths > t)
        se = math.sqrt(a * (1 - a) / blocks.size + b * (1 - b) / paths.size)
        assert abs(a - b) <= 3.0 * se


@pytest.mark.parametrize("reps, blocks, match", [
    (100, [1], "block index 1 outside the 1 blocks of 100 replicates"),
    (100, [-1], "block index -1 outside the 1 blocks of 100 replicates"),
    (-5, [0], "replicate count must be nonnegative"),
    (100, [0, 1], "block index 1 outside the 1 blocks of 100 replicates"),
], ids=["past_the_last", "negative_index", "negative_reps",
        "after_a_valid_index"])
def test_block_samplers_refuse_blocks_outside_the_replicates(
        monkeypatch, reps, blocks, match):
    # the block driver refuses before the conditioned sampler builds its
    # horizon table, and before any agreement-time block runs
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the block check")

    monkeypatch.setattr(transformed, "HTTable", no_work)
    monkeypatch.setattr(forward, "_agreement_block", no_work)
    with pytest.raises(ParamError, match=match):
        conditioned_coalescence_times(mk(2, B=0.0), 1.0, reps, 5,
                                      {0: 0, 1: 0}, (0.5, 0.5), blocks)
    with pytest.raises(ParamError, match=match):
        pair_distance_samples(mk(3, S=1.0), 1.0, reps, 5, blocks)


def test_block_sampler_refuses_vanishing_h(monkeypatch):
    # the horizon law of the first half of the grid is moved onto (1, 1),
    # which no state reached from two type-0 tags is compatible with: the
    # denominator vanishes where proposals land, while the suffix maximum,
    # read from the second half, stays positive.  Both samplers refuse.
    p = mk(2, B=0.0)
    make = transformed.make_inhomogeneous_kernel

    def tampered(p, nu, T):
        kernel = make(p, nu, T)
        ht = kernel.ht
        half = len(ht.grid) // 2
        ht.rho[:half] = (ht.configs_arr == 1).all(axis=1)
        return kernel

    monkeypatch.setattr(transformed, "make_inhomogeneous_kernel", tampered)
    with pytest.raises(ParamError, match="h positivity violated"):
        conditioned_coalescence_times(p, 2.0, 100, 5, {0: 0, 1: 0},
                                      (0.5, 0.5), [0])
    kernel = tampered(p, (0.5, 0.5), 2.0)
    start = canonical_start(p, {0: 0, 1: 0})
    rng = philox(39, 0)
    with pytest.raises(ParamError, match="h positivity violated"):
        for _ in range(100):
            sample_transformed_path(kernel, start, rng, 2.0)


def test_conditioned_line_endpoints():
    p = mk(2, B=0.8, b=((0.7, 0.3), (0.2, 0.8)))
    xi = {0: 0, 1: 1}
    kernel = make_inhomogeneous_kernel(p, (0.6, 0.4), 1.0)
    rng = philox(32, 0)
    for _ in range(300):
        sample = sample_conditioned_lines(p, xi, (0.6, 0.4), 1.0, rng,
                                          kernel=kernel)
        assert sorted(sample.lines) == [0, 1]
        for j, line in sample.lines.items():
            assert line.domain == (-1.0, 0.0)
            assert line.value_at(0.0) == (xi[j], j)


def test_conditioned_survival_matches_formula():
    p = mk(2, B=0.0)
    T = 2.0
    kernel = make_inhomogeneous_kernel(p, (0.5, 0.5), T)
    start = canonical_start(p, {0: 0, 1: 0})
    rng = philox(33, 0)
    taus = np.empty(15_000)
    for r in range(taus.size):
        path = sample_transformed_path(kernel, start, rng, t_end=T)
        taus[r] = first_coalescence_time(path)
    scale = 1.0 - 0.5 * math.exp(-T)
    for t in (0.25, 0.5, 1.0):
        flags = (taus > t).astype(float)
        mean, band = three_se(flags)
        want = (math.exp(-t) - 0.5 * math.exp(-T)) / scale
        assert abs(mean - want) <= band


def test_distinct_types_never_merge_without_mutation():
    p = mk(2, B=0.0)
    kernel = make_inhomogeneous_kernel(p, (0.5, 0.5), 1.0)
    start = canonical_start(p, {0: 0, 1: 1})
    rng = philox(34, 0)
    for _ in range(500):
        path = sample_transformed_path(kernel, start, rng, 1.0)
        assert first_coalescence_time(path) == math.inf


def test_conditioned_marginal_chi_square():
    p = mk(2, B=0.8, b=((0.7, 0.3), (0.2, 0.8)))
    nu, T, s = (0.6, 0.4), 1.0, 0.5
    start = canonical_start(p, {0: 0, 1: 0})
    gen = build_bp_generator(p, start)
    from moranlines.exact import compute_hT, expm_apply
    e_start = np.zeros(gen.n)
    e_start[gen.index[start]] = 1.0
    weighted = expm_apply(gen, e_start, s, transpose=True)
    ht_row = compute_hT(p, gen, nu, T, (s,))[0]
    exact_law = weighted * ht_row
    exact_law /= exact_law.sum()

    kernel = make_inhomogeneous_kernel(p, nu, T)
    rng = philox(35, 0)
    n = 5000
    counts = Counter()
    for _ in range(n):
        path = sample_transformed_path(kernel, start, rng, t_end=T)
        state = path.initial
        for t, tr in path.events:
            if t > s:
                break
            state = tr.target
        counts[state] += 1

    # bin states with tiny expectation together before the chi-square
    obs, exp = [], []
    spill_o = spill_e = 0.0
    for k, state in enumerate(gen.states):
        e = n * exact_law[k]
        if e < 5.0:
            spill_o += counts.get(state, 0)
            spill_e += e
        else:
            obs.append(counts.get(state, 0))
            exp.append(e)
    if spill_e > 0.0:
        obs.append(spill_o)
        exp.append(spill_e)
    stat = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
    assert stat <= chi2.ppf(0.99, len(obs) - 1)


def test_forest_line_matches_path_history():
    p = mk(3, S=1.0, B=1.0, b=((0.7, 0.3), (0.2, 0.8)))
    rng = philox(36, 0)
    grid = np.linspace(-1.5, 0.0, 21)
    for _ in range(20):
        forest = init_forest(p, 0.0, tuple(int(rng.integers(2))
                                           for _ in range(3)))
        run_until(forest, p, 1.5, rng)
        for site in range(3):
            line = forest_line(forest, site)
            assert line.domain == (-1.5, 0.0)
            for sft in grid:
                pair = line.value_at(float(sft))
                assert pair == path_value(forest, site, float(sft) + 1.5)


def test_functional_check_constant_and_window():
    p = mk(2, B=0.8, b=((0.7, 0.3), (0.2, 0.8)))
    xi, nu, T = {0: 0, 1: 0}, (0.6, 0.4), 1.0

    one = conditioned_functional_check(p, xi, nu, T, lambda lines: 1.0,
                                       200, 200, seed=5)
    assert one.mean_forward == 1.0 and one.mean_backward == 1.0
    assert one.gap == 0.0 and one.pooled_se == 0.0
    assert one.accepted >= 2

    width = conditioned_functional_check(
        p, xi, nu, T,
        lambda lines: (0.0 - max(lines[0].domain[0], -0.6)) ** 2,
        200, 200, seed=6)
    assert width.mean_forward == pytest.approx(0.36)
    assert width.gap <= 1e-15

    for S in (0.0, 1.0):
        pS = mk(2, B=0.8, b=((0.7, 0.3), (0.2, 0.8)), S=S)
        chk = conditioned_functional_check(
            pS, xi, nu, T,
            lambda lines: float(lines[0].value_at(-0.4)[0] == 0),
            20_000, 20_000, seed=7)
        assert chk.accepted >= 1000
        assert chk.gap <= 3.0 * chk.pooled_se


def test_sample_config_laws():
    p = mk(2, d=3)
    rng = philox(37, 0)
    nu = (0.5, 0.3, 0.2)
    draws = np.array([sample_config(p, nu, rng) for _ in range(3000)])
    for u in range(3):
        mean, band = three_se((draws == u).mean(axis=1))
        assert abs(mean - nu[u]) <= band

    law = {(0, 1): 0.3, (1, 0): 0.7}
    got = Counter(sample_config(mk(2), law, rng) for _ in range(2000))
    assert set(got) == {(0, 1), (1, 0)}
    mean, band = three_se(np.array([1.0 if c == (1, 0) else 0.0
                                    for c in got.elements()]))
    assert abs(mean - 0.7) <= band


def test_interface_errors():
    p = mk(2, b=((0.7, 0.3), (0.4, 0.6)))
    with pytest.raises(ParamError, match="positive horizon required"):
        make_inhomogeneous_kernel(p, (0.5, 0.5), 0.0)
    ik = make_inhomogeneous_kernel(p, (0.5, 0.5), 1.0)
    pair = canonical_start(p, {0: 0, 1: 1})
    with pytest.raises(ParamError, match="time required for inhomogeneous"):
        transformed_rates(ik, pair)
    with pytest.raises(ParamError, match="time outside horizon"):
        ik.ht.value(1.5, pair)
    rng = philox(38, 0)
    with pytest.raises(ParamError, match="horizon beyond table range"):
        sample_transformed_path(ik, pair, rng, t_end=3.0)

    hk = make_homogeneous_kernel(p, pair)
    outside = canonical_start(mk(2, d=3), {0: 2, 1: 2})
    with pytest.raises(ParamError, match="outside the kernel's reachable set"):
        hk.h_value(outside)

    point = make_inhomogeneous_kernel(p, {(0, 1): 1.0}, 1.0)
    wrong = canonical_start(p, {0: 1, 1: 0})
    with pytest.raises(ParamError, match="h positivity violated"):
        transformed_rates(point, wrong, t=1.0)

    with pytest.raises(ParamError, match="too few accepted forward"):
        conditioned_functional_check(mk(2, B=0.0), {0: 1}, {(0, 0): 1.0},
                                     1.0, lambda lines: 1.0, 50, 10, seed=8)


@pytest.mark.parametrize("t_end", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("homogeneous", [True, False])
def test_sampler_refuses_bad_horizons(t_end, homogeneous):
    # a NaN or infinite horizon would never be reached, and a negative
    # one would give a path that ends before it starts
    p = mk(2, b=((0.7, 0.3), (0.4, 0.6)))
    pair = canonical_start(p, {0: 0, 1: 1})
    kernel = (make_homogeneous_kernel(p, pair) if homogeneous
              else make_inhomogeneous_kernel(p, (0.5, 0.5), 1.0))
    with pytest.raises(ParamError, match="nonnegative horizon"):
        sample_transformed_path(kernel, pair, philox(38, 0), t_end=t_end)
