"""Backward marked-partition chain: transitions, weights, paths, reversal."""

import math
import pickle

import numpy as np
import pytest

from moranlines import (BpPath, ParamError, canonical_start,
                        enumerate_transitions, feynman_kac_V, make_state,
                        path_V_integral, reverse_to_lines, simulate_bp)
from moranlines.backward import TRANSITION_KINDS, reverse_step_path

from helpers import mk, philox, three_se

FULL2 = (0, 1)
FULL3 = (0, 1, 2)


def test_canonical_start_structure():
    p = mk(3)
    s = canonical_start(p, {1: 0})
    assert s.j_sites == (1,)
    assert s.marks == ((0, 1),)
    assert s.blocks == ((0, 1, (0,)),)
    assert s.act_sites == (0, 2)
    assert all(sub == FULL2 for sub in s.active)
    with pytest.raises(ParamError, match="tagged sites must lie in the population"):
        canonical_start(p, {3: 0})
    with pytest.raises(ParamError, match="at least one tagged site"):
        canonical_start(p, {})


def test_make_state_normalization_and_errors():
    s1 = make_state((0, 1), ((0, 2), (0, 2)), [FULL2, (0,), (1,)], 2)
    s2 = make_state((0, 1), ((0, 2), (0, 2)), [FULL2, (0,), (0, 1)], 2)
    assert s1.active[2] == FULL2  # occupied site's subset is inert
    assert s1 == s2 and hash(s1) == hash(s2)
    assert s1.blocks == ((0, 2, (0, 1)),)
    with pytest.raises(ParamError, match="share a value"):
        make_state((0, 1), ((0, 2), (1, 2)), [FULL2] * 3, 2)
    with pytest.raises(ParamError, match="one mark per tagged position"):
        make_state((0, 1), ((0, 2),), [FULL2] * 3, 2)
    with pytest.raises(ParamError, match="nonempty"):
        make_state((0,), ((0, 0),), [FULL2, ()], 2)
    with pytest.raises(ParamError, match="subset outside type space"):
        make_state((0,), ((0, 0),), [FULL2, (2,)], 2)
    with pytest.raises(ParamError, match="mark type outside type space"):
        make_state((0,), ((5, 0),), [FULL2, FULL2], 2)
    with pytest.raises(ParamError, match="mark site outside population"):
        make_state((0,), ((0, 7),), [FULL2, FULL2], 2)


def test_neutral_singleton_enumeration():
    # one block, S=0: mark mutation plus a rate-1/2 hop to each active site
    p = mk(3, S=0.0)
    s = canonical_start(p, {1: 0})
    trans = enumerate_transitions(s, p)
    assert sorted(tr.kind for tr in trans) == ["1a", "2bi", "2bi"]
    for tr in trans:
        if tr.kind == "1a":
            assert tr.rate == pytest.approx(p.B * p.b[1][0])
            assert tr.target.marks == ((1, 1),)
        else:
            assert tr.rate == 0.5
            assert tr.target.marks[0][1] in (0, 2)
            assert all(sub == FULL2 for sub in tr.target.active)


def test_selection_merge_pins_vacated_site():
    p = mk(3, S=1.0)
    s = make_state((0, 1), ((0, 0), (0, 1)), [FULL2] * 3, 2)
    trans = enumerate_transitions(s, p)
    sel = 1.0 / 6.0
    merges = [tr for tr in trans if tr.kind == "2ai"]
    pins = [tr for tr in trans if tr.kind == "2aii"]
    assert len(merges) == 2 and len(pins) == 2
    for tr in merges:
        assert tr.rate == pytest.approx(0.5 - sel)
        assert len(tr.target.blocks) == 1
    for tr in pins:
        assert tr.rate == pytest.approx(sel)
        vacated = [i for i in tr.target.act_sites if tr.target.active[i] == (0,)]
        assert len(vacated) == 1  # the mover's old site is pinned to {0}


def test_hand_enumeration_two_blocks_three_types():
    B, S = 0.7, 1.5
    b = ((0.5, 0.3, 0.2), (0.1, 0.6, 0.3), (0.25, 0.25, 0.5))
    chi = (0.0, 0.3, 1.0)
    p = mk(3, d=3, B=B, S=S, b=b, chi=chi)
    sel = S / 6.0
    s = make_state((0, 1), ((0, 0), (1, 1)), [FULL3] * 3, 3)
    trans = enumerate_transitions(s, p)

    expected = {
        # 1a: mark of block (0,0) produced-by u2, then block (1,1)
        ("1a", ((1, 0), (1, 1))): B * b[1][0],
        ("1a", ((2, 0), (1, 1))): B * b[2][0],
        ("1a", ((0, 0), (0, 1))): B * b[0][1],
        ("1a", ((0, 0), (2, 1))): B * b[2][1],
        # 2bi: each block hops onto the active site 2
        ("2bi", ((0, 2), (1, 1))): 0.5 + sel * (chi[0] - 1),
        ("2bi", ((0, 0), (1, 2))): 0.5 + sel * (chi[1] - 1),
    }
    got = {}
    for tr in trans:
        key = (tr.kind, tr.target.marks)
        if tr.kind in ("1a", "2bi"):
            got[key] = got.get(key, 0.0) + tr.rate
    assert set(got) == set(expected)
    for key, rate in expected.items():
        assert got[key] == pytest.approx(rate, abs=1e-14), key

    by_kind = {}
    for tr in trans:
        by_kind.setdefault(tr.kind, []).append(tr)
    assert sorted(by_kind) == ["1a", "2bi", "2bii", "2cii"]
    assert len(by_kind["1a"]) == 4 and len(by_kind["2bi"]) == 2
    # 2bii: two blocks x two increments; each pins the vacated site
    assert len(by_kind["2bii"]) == 4
    assert sorted(tr.rate for tr in by_kind["2bii"]) == pytest.approx(
        sorted([sel * 0.3, sel * 0.7] * 2))
    # 2cii: both blocks hit the full subset at site 2; rates aggregate
    assert len(by_kind["2cii"]) == 2
    assert sorted(tr.rate for tr in by_kind["2cii"]) == pytest.approx(
        [2 * sel * 0.3, 2 * sel * 0.7])
    for tr in by_kind["2cii"]:
        w_set = tr.target.active[2]
        assert w_set in ((0,), (0, 1))
    assert len(trans) == 12


def test_V_trivial_and_hand_values():
    # equal marks, doubly stochastic kernel, everything full, S=0: V = 0
    p = mk(4, S=0.0, b=((0.6, 0.4), (0.4, 0.6)))
    s = make_state((0, 1), ((1, 0), (1, 1)), [FULL2] * 4, 2)
    assert feynman_kac_V(s, p) == pytest.approx(0.0, abs=1e-15)

    # two singletons with different marks, no active sites: V = -1
    q = mk(2, S=0.0)
    s2 = make_state((0, 1), ((0, 0), (1, 1)), [FULL2] * 2, 2)
    assert feynman_kac_V(s2, q) == pytest.approx(-1.0, abs=1e-15)

    # S=1, N=2: the pair correction is sel per ordered pair of fit marks
    r = mk(2, S=1.0)
    fit = make_state((0, 1), ((1, 0), (1, 1)), [FULL2] * 2, 2)
    unfit = make_state((0, 1), ((0, 0), (0, 1)), [FULL2] * 2, 2)
    assert feynman_kac_V(fit, r) == pytest.approx(0.5, abs=1e-15)
    assert feynman_kac_V(unfit, r) == pytest.approx(0.0, abs=1e-15)

    # all five sums live: B=1, b generic, S=1, one block + pinned subsets
    w = mk(3, S=1.0, b=((0.7, 0.3), (0.2, 0.8)))
    s3 = make_state((0,), ((1, 0),), [FULL2, (1,), (0,)], 2)
    assert feynman_kac_V(s3, w) == pytest.approx(-31.0 / 15.0, abs=1e-14)


def test_simulate_bp_zero_horizon_and_errors():
    p = mk(3)
    s = canonical_start(p, {0: 0})
    path = simulate_bp(s, p, 0.0, philox(21, 0))
    assert path.events == () and path.horizon == 0.0
    assert path.state_at(0.0) == s
    with pytest.raises(ParamError, match="nonnegative horizon"):
        simulate_bp(s, p, -1.0, philox(21, 0))
    with pytest.raises(ParamError, match="time outside path horizon"):
        path.state_at(0.5)


def test_neutral_run_keeps_subsets_full():
    p = mk(3, S=0.0)
    rng = philox(22, 0)
    s = canonical_start(p, {0: 0, 2: 1})
    for _ in range(50):
        path = simulate_bp(s, p, 2.0, rng)
        for state, _a, _b in path.segments():
            for i in state.act_sites:
                assert state.active[i] == FULL2


def test_coalescence_probability_neutral_pair():
    # equal marks, B=0, S=0: merge happens at total rate 1 (two ordered pairs)
    p = mk(2, B=0.0)
    rng = philox(23, 0)
    start = canonical_start(p, {0: 0, 1: 0})
    cache = {}
    T = 1.0
    merged = np.empty(100_000)
    for r in range(merged.size):
        path = simulate_bp(start, p, T, rng, transition_cache=cache)
        merged[r] = 1.0 if len(path.state_at(T).blocks) == 1 else 0.0
    mean, tol = three_se(merged)
    assert abs(mean - (1 - math.exp(-T))) <= tol


def test_path_V_integral_exact_and_riemann():
    p = mk(3, S=1.0, b=((0.7, 0.3), (0.2, 0.8)))
    s = canonical_start(p, {0: 1})
    const = BpPath(initial=s, events=(), horizon=2.0, params=p)
    assert path_V_integral(const, 0.0) == 0.0
    assert path_V_integral(const, 1.3) == pytest.approx(1.3 * feynman_kac_V(s, p),
                                                        abs=1e-14)
    tr = enumerate_transitions(s, p)[0]
    two = BpPath(initial=s, events=((0.7, tr),), horizon=2.0, params=p)
    exact = 0.7 * feynman_kac_V(s, p) + 0.5 * feynman_kac_V(tr.target, p)
    assert path_V_integral(two, 1.2) == pytest.approx(exact, abs=1e-14)
    step = 1e-4
    grid = np.arange(0.0, 1.2, step) + step / 2
    riemann = sum(feynman_kac_V(two.state_at(float(t)), p) * step for t in grid)
    assert abs(path_V_integral(two, 1.2) - riemann) <= 1e-3
    with pytest.raises(ParamError, match="time outside path horizon"):
        path_V_integral(two, 2.5)


def test_reverse_step_path_semantics():
    # single jump at s flips to a jump at horizon - s with the left limit
    times, values = reverse_step_path((0.0, 0.6), ("A", "B"), 1.0)
    assert times == (0.0, 0.4) and values == ("B", "A")
    rng = philox(24, 0)
    for _ in range(200):
        k = int(rng.integers(1, 6))
        # dyadic jump times make horizon arithmetic exact in floats
        grid = rng.choice(np.arange(1, 64), size=k - 1, replace=False) / 64.0
        ts = (0.0, *np.sort(grid))
        vals = tuple(int(x) for x in rng.integers(0, 5, size=k))
        H = 1.0
        twice = reverse_step_path(*reverse_step_path(ts, vals, H), H)
        assert twice == (tuple(ts), vals)
    # generic float times survive the round trip within an ulp
    ts = (0.0, 0.2837465, 0.7173645)
    back_t, back_v = reverse_step_path(*reverse_step_path(ts, (1, 2, 3), 1.0), 1.0)
    assert back_v == (1, 2, 3)
    assert np.allclose(back_t, ts, rtol=0, atol=1e-15)
    with pytest.raises(ParamError, match="must start at time 0"):
        reverse_step_path((0.5,), ("A",), 1.0)


def test_reverse_to_lines_windows_and_values():
    p = mk(2, B=0.0)
    s = canonical_start(p, {0: 0, 1: 1})
    path = BpPath(initial=s, events=(), horizon=1.5, params=p)
    lines = reverse_to_lines(path)
    assert set(lines) == {0, 1}
    for j in (0, 1):
        assert lines[j].domain == (-1.5, 0.0)
        assert lines[j].value_at(0.0) == (j, j)
        assert lines[j].value_at(-1.5) == (j, j)
        with pytest.raises(ParamError, match="time outside path domain"):
            lines[j].value_at(0.3)
    # one relocation of the single block at backward time 0.6
    q = mk(2, S=0.0)
    s1 = canonical_start(q, {1: 0})
    hop = [tr for tr in enumerate_transitions(s1, q) if tr.kind == "2bi"][0]
    path1 = BpPath(initial=s1, events=((0.6, hop),), horizon=1.0, params=q)
    line = reverse_to_lines(path1)[1]
    assert line.value_at(0.0) == (0, 1)
    assert line.value_at(-0.59) == (0, 1)
    assert line.value_at(-0.6) == (0, 1)  # jump takes the original left limit
    assert line.value_at(-0.61) == (0, 0)
    assert line.value_at(-1.0) == (0, 0)


# ------------------------------------------------------------------- fuzzing

def _check_state_invariants(s, N, d):
    assert len(s.marks) == len(s.j_sites)
    by_site = {}
    for (u, i) in s.marks:
        assert 0 <= u < d and 0 <= i < N
        assert by_site.setdefault(i, u) == u
    assert len(s.active) == N
    occupied = set(by_site)
    for i, sub in enumerate(s.active):
        assert sub == tuple(sorted(set(sub)))
        if i in occupied:
            assert sub == tuple(range(d))
        else:
            assert 0 < len(sub) <= d
            assert all(0 <= v < d for v in sub)
    assert len(s.blocks) + len(s.act_sites) == N
    assert list(s.act_sites) == [i for i in range(N) if i not in occupied]
    assert [blk[1] for blk in s.blocks] == sorted(by_site)


def _random_state(rng, N, d):
    n_tags = int(rng.integers(1, 3))
    sites = rng.choice(N, size=n_tags, replace=False)
    j_sites = tuple(range(n_tags))
    marks = tuple((int(rng.integers(0, d)), int(site)) for site in sites)
    active = []
    for i in range(N):
        size = int(rng.integers(1, d + 1))
        active.append(tuple(sorted(rng.choice(d, size=size, replace=False).tolist())))
    return make_state(j_sites, marks, active, d)


def _eager_views(s):
    """Reference derivation of a state's blocks and active sites."""
    by_value = {}
    for pos, val in enumerate(s.marks):
        by_value.setdefault(val, []).append(pos)
    blocks = tuple((u, site, tuple(members))
                   for (u, site), members in sorted(by_value.items(),
                                                    key=lambda kv: kv[0][1]))
    occupied = {site for (_u, site) in by_value}
    return blocks, tuple(i for i in range(len(s.active)) if i not in occupied)


def test_derived_views_match_eager_reference():
    rng = philox(91, 4)
    for _ in range(300):
        N = int(rng.integers(2, 6))
        d = int(rng.integers(2, 4))
        s = _random_state(rng, N, d)
        assert (s.blocks, s.act_sites) == _eager_views(s)
        for tr in enumerate_transitions(s, mk(N, d=d, S=1.0)):
            assert (tr.target.blocks, tr.target.act_sites) == \
                _eager_views(tr.target)


def test_state_hash_and_pickle_round_trip():
    rng = philox(91, 5)
    for _ in range(100):
        N = int(rng.integers(2, 6))
        d = int(rng.integers(2, 4))
        s = _random_state(rng, N, d)
        twin = make_state(s.j_sites, s.marks, s.active, s.d)
        assert twin == s and hash(twin) == hash(s)
        assert hash(s) == hash((s.j_sites, s.marks, s.active, s.d))
        _ = (s.blocks, s.act_sites)  # the pickle then carries the views
        back = pickle.loads(pickle.dumps(s))
        assert back == s and hash(back) == hash(s)
        assert (back.blocks, back.act_sites) == (s.blocks, s.act_sites)
        assert {s: 1}[back] == 1


def _walk(p, starts, steps, rng, on_new_state=None, track_taken=None):
    cache = {}
    state = starts[0]
    restart = 0
    for k in range(steps):
        trans = cache.get(state)
        if trans is None:
            trans = enumerate_transitions(state, p)
            cache[state] = trans
            for tr in trans:
                if tr.target not in cache and on_new_state is not None:
                    on_new_state(tr.target)
        if not trans:
            restart += 1
            state = starts[restart % len(starts)]
            continue
        tr = trans[int(rng.integers(len(trans)))]
        if track_taken is not None:
            track_taken.add(tr.kind)
        state = tr.target
        if (k + 1) % 100 == 0:
            restart += 1
            state = starts[restart % len(starts)]
    return cache


def test_fuzz_invariants_and_d2_closure():
    p = mk(4, S=1.0, b=((0.7, 0.3), (0.2, 0.8)))
    rng = philox(25, 0)
    seen = []

    def check(s):
        _check_state_invariants(s, 4, 2)
        for i in s.act_sites:
            assert s.active[i] in (FULL2, (0,))
        seen.append(s)

    starts = [canonical_start(p, {0: 0, 2: 1}), canonical_start(p, {1: 1})]
    for s in starts:
        check(s)
    _walk(p, starts, 400_000, rng, on_new_state=check)
    assert len(seen) > 20


def test_fuzz_invariants_and_kind_coverage_three_types():
    b = ((0.5, 0.3, 0.2), (0.1, 0.6, 0.3), (0.25, 0.25, 0.5))
    p = mk(4, d=3, S=2.0, b=b, chi=(0.0, 0.35, 1.0))
    rng = philox(26, 0)
    enumerated = set()
    taken = set()

    def check(s):
        _check_state_invariants(s, 4, 3)

    starts = [canonical_start(p, {0: 1, 1: 1}),
              canonical_start(p, {0: 0, 3: 2})]
    cache = _walk(p, starts, 300_000, rng, on_new_state=check, track_taken=taken)
    for trans in cache.values():
        enumerated.update(tr.kind for tr in trans)
    assert enumerated == set(TRANSITION_KINDS)
    assert taken == set(TRANSITION_KINDS)


def test_fuzz_neutral_rate_totals():
    def s0_outflow(s, p):
        d, b = p.d, p.b
        tot = 0.0
        for (u, _site, _m) in s.blocks:
            tot += p.B * sum(b[u2][u] for u2 in range(d) if u2 != u)
        for i in s.act_sites:
            sub = s.active[i]
            inside = set(sub)
            for u in range(d):
                if u not in inside:
                    tot += p.B * sum(b[u][v] for v in sub)
            if len(sub) > 1:
                outside = [v for v in range(d) if v not in inside]
                for u in sub:
                    tot += p.B * sum(b[u][v] for v in outside)
        for (u, site, _m) in s.blocks:
            for (u2, site2, _m2) in s.blocks:
                if site2 != site and u2 == u:
                    tot += 0.5
            for i in s.act_sites:
                if u in s.active[i]:
                    tot += 0.5
        for i in s.act_sites:
            inside = set(s.active[i])
            hits = sum(1 for (u, _s2, _m) in s.blocks if u in inside)
            if hits and len(s.active[i]) != d:
                tot += 0.5 * hits
            for j in s.act_sites:
                if j == i:
                    continue
                inter = inside & set(s.active[j])
                if inter and len(inter) != d and len(s.active[j]) != d:
                    tot += 0.5
        return tot

    b = ((0.5, 0.3, 0.2), (0.1, 0.6, 0.3), (0.25, 0.25, 0.5))
    p = mk(4, d=3, S=0.0, B=0.9, b=b, chi=(0.0, 0.35, 1.0))
    rng = philox(27, 0)
    checked = []

    def check(s):
        _check_state_invariants(s, 4, 3)
        checked.append(s)

    starts = [_random_state(rng, 4, 3) for _ in range(40)]
    for s in starts:
        check(s)
    cache = _walk(p, starts, 300_000, rng, on_new_state=check)
    assert len(checked) > 100
    for s, trans in cache.items():
        total = sum(tr.rate for tr in trans)
        oracle = s0_outflow(s, p)
        assert total == pytest.approx(oracle, rel=1e-12, abs=1e-12), s
