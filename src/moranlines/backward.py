"""Backward chain on marked site-partitions with per-site type subsets.

State: a set of tagged positions J, each carrying a (type, site) value --
positions sharing a site must share the value, so the values induce a
partition of J into blocks -- plus, for every life-site not currently
occupied by a block, a nonempty subset of the type space recording which
types at that site are compatible with the tagged sample's ancestry.

Twelve transition clauses move marks (1a), grow or shrink subsets
(1bi/1bii), merge blocks (2ai/2aii), relocate blocks onto active sites
(2bi/2bii), reset or clip a subset against the blocks (2ci/2cii), and
intersect subsets pairwise (2di/2dii/2diii).  The clauses whose rates
carry the selection differential vanish at S = 0.

Occupied sites formally keep a stored subset, but no rate, no weight and
no functional ever reads it, and it is overwritten whenever the site is
vacated; states here normalize occupied sites' subsets to the full type
space so that equal behaviour means equal hash.
"""
from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

from .model import ModelParams, ParamError, validate_params

__all__ = [
    "BpState",
    "BpTransition",
    "BpPath",
    "LinePath",
    "make_state",
    "canonical_start",
    "enumerate_transitions",
    "feynman_kac_V",
    "simulate_bp",
    "path_V_integral",
    "reverse_step_path",
    "reverse_to_lines",
]

TRANSITION_KINDS = ("1a", "1bi", "1bii", "2ai", "2aii", "2bi", "2bii",
                    "2ci", "2cii", "2di", "2dii", "2diii")


@dataclass(frozen=True)
class BpState:
    """Marked partition of the tagged positions plus active-site subsets.

    j_sites: the tagged positions (sorted site labels at start; labels are
        stable identities, the current location lives in marks).
    marks:   per tagged position, the current (type, site) value.
    active:  per life-site 0..N-1, a sorted nonempty tuple of types;
        occupied sites are normalized to the full type space.
    d:       number of types.
    """

    j_sites: tuple
    marks: tuple
    active: tuple
    d: int

    # derived views, computed on first read: most states built while
    # enumerating duplicate an indexed state and are never read
    @functools.cached_property
    def blocks(self) -> tuple:
        """(type, site, member positions) per block, sorted by site."""
        by_value = {}
        for pos, val in enumerate(self.marks):
            by_value.setdefault(val, []).append(pos)
        return tuple((val[0], val[1], tuple(members))
                     for val, members in sorted(by_value.items(),
                                                key=lambda kv: kv[0][1]))

    @functools.cached_property
    def act_sites(self) -> tuple:
        """Sites not occupied by a block, in increasing order."""
        occupied = {val[1] for val in self.marks}
        return tuple(i for i in range(len(self.active)) if i not in occupied)

    @property
    def N(self) -> int:
        return len(self.active)


def _full(d: int) -> tuple:
    return tuple(range(d))


def make_state(j_sites, marks, active, d: int) -> BpState:
    """Build a state, normalizing occupied sites' subsets and checking shape."""
    j_sites = tuple(j_sites)
    marks = tuple((int(u), int(i)) for (u, i) in marks)
    if len(marks) != len(j_sites):
        raise ParamError("one mark per tagged position required")
    by_site = {}
    for u, i in marks:
        if not (0 <= u < d):
            raise ParamError("mark type outside type space")
        if by_site.setdefault(i, (u, i)) != (u, i):
            raise ParamError("positions sharing a site must share a value")
    occupied = set(by_site)
    full = _full(d)
    norm = []
    for i, subset in enumerate(active):
        if i in occupied:
            norm.append(full)
            continue
        sub = tuple(sorted(set(int(v) for v in subset)))
        if not sub:
            raise ParamError("active subsets must be nonempty")
        if sub[0] < 0 or sub[-1] >= d:
            raise ParamError("active subset outside type space")
        norm.append(sub)
    for i in occupied:
        if not (0 <= i < len(norm)):
            raise ParamError("mark site outside population")
    return BpState(j_sites=j_sites, marks=marks, active=tuple(norm), d=d)


def canonical_start(p: ModelParams, xi_star: dict) -> BpState:
    """Start state: each tagged site j is its own block with value (xi*_j, j),
    every site's subset is the full type space."""
    validate_params(p)
    j_sites = tuple(sorted(xi_star))
    if any(not (0 <= j < p.N) for j in j_sites):
        raise ParamError("tagged sites must lie in the population")
    if not j_sites:
        raise ParamError("at least one tagged site required")
    marks = tuple((int(xi_star[j]), j) for j in j_sites)
    active = tuple(_full(p.d) for _ in range(p.N))
    return make_state(j_sites, marks, active, p.d)


def _replace_marks(s: BpState, positions, new_value):
    marks = list(s.marks)
    for pos in positions:
        marks[pos] = new_value
    return tuple(marks)


def _with(s: BpState, marks=None, active_updates=None) -> BpState:
    active = list(s.active)
    if active_updates:
        for i, sub in active_updates.items():
            active[i] = sub
    if marks is None:
        # the occupied sites stay put, and updates touch only active sites
        marks = s.marks
    else:
        # renormalize occupied sites (the set of occupied sites may have moved)
        full = _full(s.d)
        for (_u, i) in marks:
            active[i] = full
    return BpState(j_sites=s.j_sites, marks=marks, active=tuple(active), d=s.d)


@dataclass(frozen=True)
class BpTransition:
    target: BpState
    rate: float
    kind: str


def enumerate_transitions(s: BpState, p: ModelParams) -> list:
    """Complete list of positive-rate transitions out of s (no self-loops).

    Clause guards are applied exactly as stated: subset-shrink needs
    |subset| > 1, pairwise intersection clauses need the intersection to
    be neither empty nor the whole type space.
    """
    d, N, b, chi = p.d, p.N, p.b, p.chi
    sel = p.S / (2.0 * N)
    full = _full(d)
    out = []

    def emit(kind, rate, target):
        if rate > 0.0 and target != s:
            out.append(BpTransition(target=target, rate=rate, kind=kind))

    blocks = s.blocks
    act = s.act_sites

    # 1a: a block's mark hops v -> u at the rate a site's type mutates u -> v
    for (u, site, members) in blocks:
        for u2 in range(d):
            if u2 == u:
                continue
            emit("1a", p.B * b[u2][u],
                 _with(s, marks=_replace_marks(s, members, (u2, site))))

    # 1bi / 1bii: subsets grow by u at rate B sum_{v in set} b(u,v),
    # shrink by u at rate B sum_{v not in set} b(u,v) while |set| > 1
    for i in act:
        sub = s.active[i]
        sub_set = set(sub)
        for u in range(d):
            if u in sub_set:
                continue
            rate = p.B * sum(b[u][v] for v in sub)
            grown = tuple(sorted(sub + (u,)))
            emit("1bi", rate, _with(s, active_updates={i: grown}))
        if len(sub) > 1:
            outside = [v for v in range(d) if v not in sub_set]
            for u in sub:
                rate = p.B * sum(b[u][v] for v in outside)
                shrunk = tuple(v for v in sub if v != u)
                emit("1bii", rate, _with(s, active_updates={i: shrunk}))

    # 2a: ordered block pairs with equal marks merge; mover's site is vacated
    for (u, site, members) in blocks:
        for (u2, site2, _members2) in blocks:
            if site2 == site or u2 != u:
                continue
            merged = _replace_marks(s, members, (u2, site2))
            emit("2ai", 0.5 + sel * (chi[u] - 1.0),
                 _with(s, marks=merged, active_updates={site: full}))
            for w in range(d - 1):
                emit("2aii", sel * (chi[w + 1] - chi[w]),
                     _with(s, marks=merged,
                           active_updates={site: tuple(range(w + 1))}))

    # 2b: a block relocates onto an active site whose subset holds its mark
    for (u, site, members) in blocks:
        for i in act:
            if u not in s.active[i]:
                continue
            moved = _replace_marks(s, members, (u, i))
            emit("2bi", 0.5 + sel * (chi[u] - 1.0),
                 _with(s, marks=moved, active_updates={site: full}))
            for w in range(d - 1):
                emit("2bii", sel * (chi[w + 1] - chi[w]),
                     _with(s, marks=moved,
                           active_updates={site: tuple(range(w + 1))}))

    # 2c: an active site's subset is reset by each block holding a compatible
    # mark; the target does not depend on which block fired, so rates add
    for i in act:
        sub_set = set(s.active[i])
        hits = [u for (u, _site, _m) in blocks if u in sub_set]
        if not hits:
            continue
        rate_k = sum(0.5 + sel * (chi[u] - 1.0) for u in hits)
        emit("2ci", rate_k, _with(s, active_updates={i: full}))
        for w in range(d - 1):
            rate_w = len(hits) * sel * (chi[w + 1] - chi[w])
            emit("2cii", rate_w,
                 _with(s, active_updates={i: tuple(range(w + 1))}))

    # 2d: ordered active pairs with proper nonempty intersection
    for i in act:
        set_i = set(s.active[i])
        for j in act:
            if j == i:
                continue
            inter = tuple(v for v in s.active[j] if v in set_i)
            if not inter or len(inter) == d:
                continue
            emit("2di", 0.5 + sel * (chi[inter[0]] - 1.0),
                 _with(s, active_updates={i: inter, j: full}))
            for w in range(d - 1):
                emit("2dii", sel * (chi[w + 1] - chi[w]),
                     _with(s, active_updates={i: inter,
                                              j: tuple(range(w + 1))}))
            for idx in range(1, len(inter)):
                v, v_less = inter[idx], inter[idx - 1]
                emit("2diii", sel * (chi[v] - chi[v_less]),
                     _with(s, active_updates={i: inter[idx:], j: full}))

    return out


def feynman_kac_V(s: BpState, p: ModelParams) -> float:
    """Exponential weight correcting the backward rates against the forward
    generator.  Five sums: mutation in-flow deficit of the marks, mutation
    leak of singleton subsets, and one interaction correction per ordered
    pair of blocks, block/active site, and active sites."""
    d, b, chi = p.d, p.b, p.chi
    sel = p.S / (2.0 * p.N)
    blocks = s.blocks
    act = s.act_sites

    v1 = p.B * sum(sum(b[u][bu] for u in range(d)) - 1.0
                   for (bu, _site, _m) in blocks)

    v2 = 0.0
    for i in act:
        sub = s.active[i]
        if len(sub) == 1:
            u = sub[0]
            v2 -= p.B * sum(b[u][v] for v in range(d) if v != u)

    v3 = 0.0
    for (u, site, _m) in blocks:
        for (u2, site2, _m2) in blocks:
            if site2 == site:
                continue
            if u == u2:
                v3 += 0.5 + sel * chi[u]
            v3 -= 0.5

    v4 = 0.0
    for (u, _site, _m) in blocks:
        for i in act:
            if u in s.active[i]:
                v4 += 0.5 + sel * chi[u]
            v4 -= 0.5
    v4 *= 2.0

    v5 = 0.0
    for i in act:
        set_i = set(s.active[i])
        for j in act:
            if j == i:
                continue
            inter = [v for v in s.active[j] if v in set_i]
            if len(inter) != d:
                if inter:
                    v5 += sel * chi[max(inter)]
                else:
                    # empty intersection contributes only the -1/2 penalty
                    v5 -= 0.5

    return v1 + v2 + v3 + v4 + v5


@dataclass(frozen=True)
class BpPath:
    """A simulated trajectory: initial state, (time, transition) events in
    increasing time order, horizon, and the parameters that generated it."""

    initial: BpState
    events: tuple
    horizon: float
    params: ModelParams

    def segments(self):
        """Yield (state, start, end) pieces of the piecewise-constant path."""
        state, start = self.initial, 0.0
        for (t, tr) in self.events:
            yield state, start, t
            state, start = tr.target, t
        yield state, start, self.horizon

    def state_at(self, t: float) -> BpState:
        if not (0.0 <= t <= self.horizon):
            raise ParamError("time outside path horizon")
        state = self.initial
        for (et, tr) in self.events:
            if et > t:
                break
            state = tr.target
        return state


def simulate_bp(start: BpState, p: ModelParams, T: float, rng,
                transition_cache: dict | None = None) -> BpPath:
    """Exact event-by-event simulation of the backward chain up to time T.

    A shared transition_cache (state -> enumeration) may be passed in when
    many paths run over the same small reachable set.
    """
    if T < 0:
        raise ParamError("nonnegative horizon required")
    cache = transition_cache if transition_cache is not None else {}
    t = 0.0
    state = start
    events = []
    while True:
        trans = cache.get(state)
        if trans is None:
            trans = enumerate_transitions(state, p)
            cache[state] = trans
        total = sum(tr.rate for tr in trans)
        if total <= 0.0:
            break
        t += rng.exponential(1.0 / total)
        if t >= T:
            break
        x = rng.uniform(0.0, total)
        acc = 0.0
        chosen = trans[-1]
        for tr in trans:
            acc += tr.rate
            if x < acc:
                chosen = tr
                break
        events.append((t, chosen))
        state = chosen.target
    return BpPath(initial=start, events=tuple(events), horizon=T, params=p)


def path_V_integral(path: BpPath, t: float) -> float:
    """Integral of the exponential-weight function along the path up to t,
    computed exactly from the piecewise-constant segments."""
    if not (0.0 <= t <= path.horizon):
        raise ParamError("time outside path horizon")
    total = 0.0
    for state, start, end in path.segments():
        if start >= t:
            break
        total += feynman_kac_V(state, path.params) * (min(end, t) - start)
    return total


@dataclass(frozen=True)
class LinePath:
    """Right-continuous step path: value values[k] on [times[k], times[k+1]),
    and values[-1] from times[-1] through the end of the domain."""

    times: tuple
    values: tuple
    domain: tuple

    def value_at(self, r: float):
        lo, hi = self.domain
        if not (lo <= r <= hi):
            raise ParamError("time outside path domain")
        k = bisect.bisect_right(self.times, r) - 1
        return self.values[max(k, 0)]


def reverse_step_path(times, values, horizon):
    """Flip a right-continuous step path on [0, H] about H/2.

    The flipped path takes, at each flipped jump time, the left limit of
    the original; this keeps the result right-continuous and makes the
    operation an exact involution on step paths starting at time 0.
    """
    if not times or times[0] != 0.0:
        raise ParamError("step path must start at time 0")
    out_times = [0.0]
    out_values = [values[-1]]
    for k in range(len(times) - 1, 0, -1):
        t_new = horizon - times[k]
        if t_new == out_times[-1]:
            out_values[-1] = values[k - 1]
        else:
            out_times.append(t_new)
            out_values.append(values[k - 1])
    return tuple(out_times), tuple(out_values)


def reverse_to_lines(path: BpPath) -> dict:
    """Turn a backward trajectory into per-position ancestral lines.

    For each tagged position j, the (type, site) value over backward time
    [0, T] becomes a line over real time [-T, 0]: reversed, shifted, and
    with values at jump times taken from the left limit.
    """
    T = path.horizon
    lines = {}
    for pos, j in enumerate(path.initial.j_sites):
        times = [0.0]
        values = [path.initial.marks[pos]]
        for (t, tr) in path.events:
            val = tr.target.marks[pos]
            if val != values[-1]:
                times.append(t)
                values.append(val)
        rtimes, rvalues = reverse_step_path(times, values, T)
        shifted = tuple(rt - T for rt in rtimes)
        lines[j] = LinePath(times=shifted, values=rvalues, domain=(-T, 0.0))
    return lines
