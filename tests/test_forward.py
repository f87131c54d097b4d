"""Forward lineage forest: event law, paths, distances, fixation types."""

import math

import numpy as np
import pytest

from moranlines import (BudgetError, ParamError, cat_fixation_type,
                        genealogical_distance, init_forest,
                        neutral_pair_distance_samples, pair_distance_samples,
                        path_value, run_until)
from moranlines import cli, model
import moranlines.forward as forward

from helpers import mk, philox, three_se


def test_init_forest_structure():
    p = mk(2)
    f = init_forest(p, -1.0, (0, 1))
    assert f.now == -1.0 and f.time_origin == -1.0
    assert len(f.nodes) == 2 and f.heads == [0, 1]
    assert genealogical_distance(f, 0, 1) == 0.0
    assert path_value(f, 0, -1.0) == (0, 0)
    assert path_value(f, 1, -1.0) == (1, 1)


def test_init_forest_errors():
    p = mk(2)
    with pytest.raises(ParamError, match="one initial type per site"):
        init_forest(p, 0.0, (0,))
    with pytest.raises(ParamError, match="initial type outside type space"):
        init_forest(p, 0.0, (0, 2))


@pytest.mark.parametrize("start,t_eval,match", [
    (math.nan, None, "finite time origin"),
    (math.inf, None, "finite time origin"),
    (-math.inf, None, "finite time origin"),
    (math.nan, 1.0, "finite time origin"),
    (-math.inf, 1.0, "finite time origin"),
    (0.0, math.nan, "evaluation time before start"),
    (0.0, math.inf, "evaluation time before start"),
])
def test_non_finite_start_or_evaluation_time_is_refused(start, t_eval, match):
    # neither clock test of the fixation loop is ever true at a NaN time,
    # so a NaN start ran forever; an infinite evaluation time ran the
    # whole fixation horizon to return "pending"
    p = mk(3)
    with pytest.raises(ParamError, match=match):
        if t_eval is None:
            init_forest(p, start, (0, 1, 1))
        else:
            cat_fixation_type(p, start, (0, 1, 1), t_eval, philox(6, 1))


def test_initial_types_outside_type_space_are_refused():
    p = mk(3)
    rng = philox(6, 0)
    with pytest.raises(ParamError, match="initial type outside type space"):
        init_forest(p, 0.0, (0, -1, 1))
    with pytest.raises(ParamError, match="initial type outside type space"):
        cat_fixation_type(p, 0.0, (0, 2, 1), 0.5, rng)


def test_extreme_selection_event_law():
    # d=2, S=N: ordered rates are 1 (fit->unfit), 0 (unfit->fit), 1/2 (equal)
    p = mk(2, B=0.0, S=2.0)
    rng = philox(7, 0)
    counts = {}
    n = 4000
    for _ in range(n):
        # one event, after a holding time drawn at the total rate N^2/2
        evt = forward._step_at([0, 1], p, rng, rng.exponential(0.5))
        assert evt.kind == "resample"
        counts[(evt.src, evt.dst)] = counts.get((evt.src, evt.dst), 0) + 1
    assert (0, 1) not in counts          # zero-rate direction never fires
    frac = counts[(1, 0)] / n
    assert abs(frac - 0.5) <= 3 * math.sqrt(0.25 / n)
    for self_pair in [(0, 0), (1, 1)]:
        assert abs(counts[self_pair] / n - 0.25) <= 3 * math.sqrt(0.1875 / n)


def test_holding_time_mean():
    p = mk(2, B=0.0)
    total = 2.0  # N*B + N^2/2
    rng = philox(8, 0)
    trace = []
    run_until(init_forest(p, 0.0, (0, 1)), p, 60_000.0, rng, trace=trace)
    # the first 100,000 of about 120,000 events
    assert len(trace) > 100_000
    dts = np.diff([0.0] + [evt.time for evt in trace[:100_000]])
    assert abs(dts.mean() - 1.0 / total) <= 0.01 / total


def test_run_until_exact_horizon_and_errors():
    p = mk(3)
    rng = philox(9, 0)
    f = init_forest(p, -2.0, (0, 1, 0))
    run_until(f, p, -2.0, rng)
    assert f.now == -2.0 and len(f.nodes) == 3
    run_until(f, p, 0.5, rng)
    assert f.now == 0.5
    assert f.now - f.time_origin == 0.5 - (-2.0)
    with pytest.raises(ParamError, match="horizon before current time"):
        run_until(f, p, 0.0, rng)


@pytest.mark.parametrize("T", [math.nan, math.inf, -1.0])
def test_run_until_refuses_bad_horizons(T):
    # a NaN or infinite horizon would never be reached
    p = mk(3)
    f = init_forest(p, 0.0, (0, 1, 0))
    with pytest.raises(ParamError, match="horizon before current time"):
        run_until(f, p, T, philox(9, 0))
    assert f.now == 0.0 and len(f.nodes) == 3


def test_no_resampling_probability():
    # N=2, B=0, S=0: effective (src != dst) resamplings occur at rate 1
    p = mk(2, B=0.0)
    rng = philox(10, 0)
    T = 0.5
    hits = np.empty(100_000)
    for r in range(hits.size):
        f = init_forest(p, 0.0, (0, 1))
        run_until(f, p, T, rng)
        hits[r] = 1.0 if len(f.nodes) == 2 else 0.0
    mean, tol = three_se(hits)
    assert abs(mean - math.exp(-T)) <= tol


def test_distance_tracks_last_effective_resample():
    p = mk(2, B=0.7)
    rng = philox(11, 0)
    T = 3.0
    seen_merge = seen_none = 0
    for _ in range(200):
        f = init_forest(p, 0.0, (0, 1))
        trace = []
        run_until(f, p, T, rng, trace=trace)
        eff = [e.time for e in trace if e.kind == "resample" and e.src != e.dst]
        if eff:
            assert genealogical_distance(f, 0, 1) == 2.0 * (T - eff[-1])
            seen_merge += 1
        else:
            assert genealogical_distance(f, 0, 1) == 2.0 * T
            seen_none += 1
        assert genealogical_distance(f, 0, 0) == 0.0
    assert seen_merge > 0 and seen_none >= 0


def test_distance_is_ultrametric_on_simulated_forests():
    p = mk(5, B=1.0, S=1.0)
    rng = philox(12, 0)
    for _ in range(10):
        f = init_forest(p, 0.0, rng.integers(0, 2, size=5))
        run_until(f, p, 2.0, rng)
        D = np.array([[genealogical_distance(f, i, j) for j in range(5)]
                      for i in range(5)])
        assert np.all(D >= 0) and np.all(np.diag(D) == 0)
        assert np.array_equal(D, D.T)
        for i in range(5):
            for j in range(5):
                for k in range(5):
                    assert D[i, j] <= max(D[i, k], D[k, j]) + 1e-12
    with pytest.raises(ParamError, match="site outside population"):
        genealogical_distance(f, 0, 5)


def test_path_value_reconstructs_mutation_history():
    p = mk(1, B=5.0, b=((0.0, 1.0), (1.0, 0.0)))
    rng = philox(13, 0)
    f = init_forest(p, 0.0, (0,))
    trace = []
    run_until(f, p, 2.0, rng, trace=trace)
    # (time, site, old type, new type) of every mutation that changed a
    # type; N = 1, so resampling is always a self-copy
    types = [0]
    events = []
    for e in trace:
        if e.kind == "mutation" and e.dst != types[e.src]:
            events.append((e.time, e.src, types[e.src], e.dst))
            types[e.src] = e.dst
    assert events, "flip kernel at B=5 should mutate"
    for s in np.linspace(0.0, 2.0, 41):
        u = 0
        for (mt, _i, _old, new) in events:
            if mt <= s:
                u = new
        assert path_value(f, 0, float(s)) == (u, 0)
    # right-continuity at an event time
    t0 = events[0][0]
    assert path_value(f, 0, t0) == (events[0][3], 0)
    with pytest.raises(ParamError, match="time outside forest window"):
        path_value(f, 0, 2.5)


def test_cat_fixation_degenerate_cases(monkeypatch):
    rng = philox(14, 0)
    p1 = mk(1, B=0.0)
    assert cat_fixation_type(p1, 0.0, (1,), 0.0, rng) == 1
    p3 = mk(3, B=0.0)
    for u in (0, 1):
        assert cat_fixation_type(p3, 0.0, (u, u, u), 0.5, rng) == u
    with pytest.raises(ParamError, match="evaluation time before start"):
        cat_fixation_type(p3, 0.0, (0, 0, 0), -1.0, rng)
    monkeypatch.setattr(forward, "FIXATION_HORIZON_PER_SITE", 1e-9 / 3)
    assert cat_fixation_type(p3, 0.0, (0, 1, 0), 5.0, rng) == "pending"


def test_cat_fixation_neutral_probability():
    # neutral, B=0: P(common-ancestor type = 1) equals the initial frequency,
    # for the time-0 evaluation and for later evaluation times alike
    p = mk(4, B=0.0)
    rng = philox(15, 0)
    for t_eval in (0.0, 0.3):
        hits = np.empty(50_000)
        for r in range(hits.size):
            out = cat_fixation_type(p, 0.0, (0, 0, 1, 1), t_eval, rng)
            assert out in (0, 1)
            hits[r] = out
        mean, tol = three_se(hits)
        assert abs(mean - 0.5) <= tol, (t_eval, mean, tol)


def test_type_marginals_are_exchangeable():
    p = mk(3, S=1.0, b=((0.7, 0.3), (0.2, 0.8)))
    rng = philox(16, 0)
    reps = 30_000
    j01 = np.empty((reps, 2))
    m0 = np.empty(reps)
    m2 = np.empty(reps)
    for r in range(reps):
        start = tuple(int(x) for x in rng.random(3) < 0.4)
        out = run_until(init_forest(p, 0.0, start), p, 0.7,
                        rng).current_types
        j01[r] = (out[0], out[1])
        m0[r], m2[r] = out[0], out[2]
    p01 = np.mean((j01[:, 0] == 0) & (j01[:, 1] == 1))
    p10 = np.mean((j01[:, 0] == 1) & (j01[:, 1] == 0))
    se = math.sqrt((p01 * (1 - p01) + p10 * (1 - p10)) / reps)
    assert abs(p01 - p10) <= 3 * se
    se_m = math.sqrt((m0.var(ddof=1) + m2.var(ddof=1)) / reps)
    assert abs(m0.mean() - m2.mean()) <= 3 * se_m


def test_neutral_fixation_shares_one_root():
    p = mk(3, B=0.0)
    rng = philox(17, 0)
    for _ in range(30):
        f = init_forest(p, 0.0, (0, 1, 0))
        run_until(f, p, 40.0, rng)
        assert len(set(f.current_types)) == 1
        for i in range(3):
            for j in range(3):
                assert genealogical_distance(f, i, j) < 2 * 40.0


def test_neutral_distance_survival_function():
    samples = neutral_pair_distance_samples(4, 2.0, 20_000, seed=18)
    assert samples.shape == (20_000,)
    assert np.all(samples <= 2 * 2.0 + 1e-12)
    for t in (0.25, 0.5, 1.0):
        ind = (samples > 2 * t).astype(float)
        mean, tol = three_se(ind)
        assert abs(mean - math.exp(-t)) <= tol, (t, mean)


def _assert_same_survival(slow, fast, times):
    """P(D > 2t) of two distance samples agree within 3 combined SEs."""
    for t in times:
        ps, ss = np.mean(slow > 2 * t), np.std(slow > 2 * t, ddof=1) / math.sqrt(slow.size)
        pf_, sf = np.mean(fast > 2 * t), np.std(fast > 2 * t, ddof=1) / math.sqrt(fast.size)
        assert abs(ps - pf_) <= 3 * math.hypot(ss, sf), (t, ps, pf_)


def test_fast_sampler_matches_forest_reference():
    p = mk(3, B=0.0)
    rng = philox(19, 0)
    T = 1.5
    slow = np.empty(4000)
    for r in range(slow.size):
        f = init_forest(p, 0.0, (0, 0, 0))
        run_until(f, p, T, rng)
        slow[r] = genealogical_distance(f, 0, 1)
    fast = neutral_pair_distance_samples(3, T, 200_000, seed=20)
    _assert_same_survival(slow, fast, (0.3, 0.9))


def test_neutral_sampler_cost_does_not_scale_with_event_count():
    # N^2 T / 2 = 2.5e7 events per replicate; the sampler draws only the
    # ~N min(T, merge time) events that hit the pair's two lines
    samples = neutral_pair_distance_samples(1000, 50.0, 5000, seed=22)
    assert samples.shape == (5000,)
    assert np.all((samples >= 0.0) & (samples <= 2 * 50.0))
    for t in (0.5, 1.0, 2.0):
        ind = (samples > 2 * t).astype(float)
        mean, tol = three_se(ind)
        assert abs(mean - math.exp(-t)) <= tol, (t, mean)


def _forest_end_sites(f, i, j):
    """Sites where the lines at i and j end when traced back: the site of
    their deepest common node twice, or the sites of their two roots."""
    exits_i = forward._chain_exits(f, i)
    exits_j = forward._chain_exits(f, j)
    common = exits_i.keys() & exits_j.keys()
    if common:
        site = f.nodes[max(common, key=lambda k: f.nodes[k].birth_time)].site
        return site, site
    return tuple(next(f.nodes[k].site for k in ex if f.nodes[k].parent is None)
                 for ex in (exits_i, exits_j))


def test_neutral_trace_merge_sites_match_forest():
    # the distance law cannot see how the tracer moves its lines; the law
    # of the sites where the two lines end can: both on the merge site, or
    # apart on their time-0 sites
    N, T = 3, 1.0
    p = mk(N, B=0.0)
    rng = philox(23, 0)
    slow = np.empty((4000, 2), dtype=np.int64)
    for r in range(slow.shape[0]):
        f = init_forest(p, 0.0, (0,) * N)
        run_until(f, p, T, rng)
        slow[r] = _forest_end_sites(f, 0, 1)
    tau, fast = forward._trace_pair(N, T, 200_000, philox(24, 0))
    assert np.array_equal(fast[:, 0] == fast[:, 1], tau > 0.0)
    for a in range(N):
        for b in range(N):
            cs = (slow[:, 0] == a) & (slow[:, 1] == b)
            cf = (fast[:, 0] == a) & (fast[:, 1] == b)
            se = math.hypot(np.std(cs, ddof=1) / math.sqrt(cs.size),
                            np.std(cf, ddof=1) / math.sqrt(cf.size))
            assert abs(cs.mean() - cf.mean()) <= 3 * se, (a, b)


def _agreement_samples(p, T, reps, seed):
    return pair_distance_samples(p, T, reps, seed,
                                 range(-(-reps // forward._block_size(p.N))))


def _check_pair_validation(sample):
    with pytest.raises(ParamError, match="population of at least two"):
        sample(1, 1.0, 10)
    for T in (-0.5, math.nan, math.inf):
        with pytest.raises(ParamError, match="horizon must be finite and nonnegative"):
            sample(3, T, 10)
    with pytest.raises(ParamError, match="replicate count must be nonnegative"):
        sample(3, 1.0, -1)
    assert np.array_equal(sample(3, 0.0, 4), np.zeros(4))
    assert sample(3, 1.0, 0).shape == (0,)


def test_neutral_sampler_validation():
    _check_pair_validation(
        lambda N, T, reps: neutral_pair_distance_samples(N, T, reps, seed=0))


def test_agreement_sampler_validation():
    _check_pair_validation(
        lambda N, T, reps: _agreement_samples(mk(N, S=1.0), T, reps, seed=0))


def _check_pair_sampler_against_forest(p, pair, slow_key, fast_seed):
    # P(D > 2t) and P(D > 2t, the pair's types agree), so that a wrong
    # agreement-time update that keeps the distance law near its target
    # still shows in the types it pairs the distance with
    T, times = 1.0, (0.1, 0.3, 0.6, 0.9)
    i, j = pair
    rng = philox(*slow_key)
    slow = np.empty((10_000, 2))
    for r in range(slow.shape[0]):
        f = init_forest(p, 0.0, rng.integers(0, p.d, size=p.N))
        run_until(f, p, T, rng)
        slow[r] = (genealogical_distance(f, i, j),
                   f.current_types[i] == f.current_types[j])
    fast = []
    for k in range(4):
        types, A = forward._agreement_block(p, T, 50_000, philox(fast_seed, k))
        assert np.array_equal(A, A.transpose(0, 2, 1))
        fast.append(np.column_stack([2.0 * (T - A[:, i, j]),
                                     types[:, i] == types[:, j]]))
    fast = np.concatenate(fast)
    _assert_same_survival(slow[:, 0], fast[:, 0], times)
    _assert_same_survival(np.where(slow[:, 1] == 1, slow[:, 0], 0.0),
                          np.where(fast[:, 1] == 1, fast[:, 0], 0.0), times)


def test_pair_sampler_matches_forest_at_extreme_tilt():
    # d = 3 and S = N: an unfit site never copies onto the fittest type,
    # and the thinning rejects the most
    p = mk(3, d=3, B=0.8, S=3.0, chi=(0.0, 0.3, 1.0),
           b=((0.2, 0.5, 0.3), (0.4, 0.4, 0.2), (0.1, 0.3, 0.6)))
    _check_pair_sampler_against_forest(p, (0, 1), (25, 0), 26)


def test_pair_sampler_matches_forest_off_the_first_sites():
    p = mk(6, B=1.0, S=2.0, b=((0.7, 0.3), (0.2, 0.8)))
    _check_pair_sampler_against_forest(p, (2, 0), (27, 0), 28)


def test_block_driver_cuts_a_short_last_block_and_keeps_the_order():
    size = 4
    runs = forward._blocks(2 * size + 1, size, 7, [2, 0, 1])
    assert [n for n, _rng in runs] == [1, size, size]
    for k, (_n, rng) in zip([2, 0, 1], runs):
        assert rng.random() == philox(7, k).random()
    assert forward._blocks(0, size, 7, []) == []
    # the agreement-time sampler returns its blocks in the order asked
    p, reps = mk(3, S=1.0), 2 * forward.BLOCK_REPS + 1
    parts = [pair_distance_samples(p, 0.5, reps, 7, [k]) for k in range(3)]
    assert [part.size for part in parts] == [forward.BLOCK_REPS] * 2 + [1]
    assert np.array_equal(pair_distance_samples(p, 0.5, reps, 7, [2, 0]),
                          np.concatenate([parts[2], parts[0]]))


def _fanned_blocks(reps, size):
    # the block indices the CLI hands out for reps replicates in blocks
    # of `size`, in order
    return [int(k) for k in cli._fan_out(list, (), reps, size, 1)]


def test_pair_sampler_refuses_oversized_population(monkeypatch):
    # one replicate's agreement times at N = 5,793 take 268,468,392 bytes,
    # just past the dense budget; the refusal comes before any numpy call
    assert 8 * 5792 ** 2 <= model.DENSE_SOLVE_BYTES < 8 * 5793 ** 2
    assert _fanned_blocks(10, forward._block_size(5792)) == list(range(10))
    assert _fanned_blocks(2 * forward.BLOCK_REPS + 1,
                          forward._block_size(3)) == [0, 1, 2]

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"np.{name} reached before the budget check")

    monkeypatch.setattr(forward, "np", NoNumpy())
    with pytest.raises(BudgetError, match="dense budget"):
        forward._block_size(5793)
    with pytest.raises(BudgetError, match="dense budget"):
        pair_distance_samples(mk(5793, S=1.0), 1.0, 10, 0, range(1))


# --- draw-order guards ------------------------------------------------------
# Integer outputs recorded from seeded runs; both simulators advance through
# the forest's single event step, and a change in the order or number of
# random draws changes these values.  Each entry pairs the simulator's
# result with the next draw of the same stream, so the number of draws
# consumed is pinned as well.

GUARD_P = mk(4, d=3, B=0.8, S=2.0, chi=(0.0, 0.4, 1.0),
             b=((0.2, 0.5, 0.3), (0.4, 0.4, 0.2), (0.1, 0.3, 0.6)))


def test_cat_fixation_type_keeps_no_forest(monkeypatch):
    # the tracer applies each event to its own types and ancestor map; a
    # forest kept for nothing grew to about N^2 nodes (439,234 at N = 800)
    def no_node(*args, **kwargs):
        raise AssertionError("cat_fixation_type built a forest node")

    monkeypatch.setattr(forward, "ForestNode", no_node)
    got = [cat_fixation_type(GUARD_P, 0.0, (0, 2, 1, 2), 0.3, philox(seed, 3))
           for seed in range(5)]
    assert got == [2, 2, 2, 0, 2]     # the pinned runs below


def test_cat_fixation_type_draw_order_is_pinned():
    got, nxt = [], []
    for seed in range(50):
        rng = philox(seed, 3)
        got.append(cat_fixation_type(GUARD_P, 0.0, (0, 2, 1, 2), 0.3, rng))
        nxt.append(int(rng.integers(1000)))
    assert got == [2, 2, 2, 0, 2, 1, 2, 2, 2, 2, 2, 1, 0, 2, 1, 2, 2, 2, 2, 2,
                   2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 2, 1, 1, 2, 2, 2, 1, 2, 2, 2,
                   2, 2, 2, 1, 2, 1, 1, 2, 2, 2]
    assert nxt == [751, 761, 420, 326, 844, 505, 824, 287, 566, 999, 700, 431,
                   159, 657, 696, 577, 158, 189, 35, 713, 140, 291, 113, 877,
                   63, 782, 132, 912, 659, 277, 605, 542, 81, 419, 909, 10,
                   412, 367, 494, 503, 638, 44, 791, 469, 177, 723, 234, 589,
                   913, 758]


def test_simulate_types_draw_order_is_pinned():
    got, nxt = [], []
    for seed in range(10):
        rng = philox(seed, 4)
        forest = run_until(init_forest(GUARD_P, 0.0, (0, 1, 2, 1)), GUARD_P,
                           0.6, rng)
        got.append(tuple(forest.current_types))
        nxt.append(int(rng.integers(1000)))
    assert got == [(1, 2, 2, 0), (1, 1, 1, 1), (2, 2, 2, 2), (1, 1, 2, 1),
                   (2, 1, 2, 1), (2, 2, 2, 2), (2, 1, 1, 1), (2, 1, 2, 2),
                   (2, 2, 0, 2), (2, 2, 1, 1)]
    assert nxt == [453, 217, 486, 843, 894, 820, 67, 377, 882, 131]


def test_forward_distance_stream_with_selection_is_pinned():
    # the agreement-time sampler behind `forward-distance` at S > 0: one
    # block, keyed (seed, 0)
    p = mk(6, B=0.8, S=2.0)
    got = _agreement_samples(p, 1.0, 20, 5)
    assert got.tolist() == [
        0.0433206823981811, 2.0, 2.0, 1.1667134533583239, 2.0, 2.0, 2.0,
        0.485232253619559, 0.7893521501623268, 0.3383808823453953,
        0.3516324466802194, 0.5442316718992801, 0.28817309523435775,
        1.300260920486732, 0.36806914710681604, 2.0, 2.0, 1.0501422284643387,
        2.0, 0.17713404172477842]
    rng = philox(5, 0)
    _types, A = forward._agreement_block(p, 1.0, 20, rng)
    assert np.array_equal(2.0 * (1.0 - A[:, 0, 1]), got)
    assert int(rng.integers(1000)) == 638


def test_forward_distance_trace_run_draw_order_is_pinned():
    # the forest run that writes `trace.csv` and `distances.csv`
    p = mk(6, B=0.8, S=2.0)
    rng = philox(5, 0)
    forest = init_forest(p, 0.0, [int(u) for u in rng.integers(0, p.d, size=p.N)])
    trace = []
    run_until(forest, p, 1.0, rng, trace=trace)
    assert len(trace) == 27
    assert genealogical_distance(forest, 0, 1) == 1.4381894081111004
    assert int(rng.integers(1000)) == 308
