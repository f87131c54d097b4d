"""Backward chain on marked site-partitions with per-site type subsets.

State: a set of tagged positions J, each carrying a (type, site) value --
positions sharing a site must share the value, so the values induce a
partition of J into blocks -- plus, for every life-site not currently
occupied by a block, a nonempty subset of the type space recording which
types at that site are compatible with the tagged sample's ancestry.

Twelve transition clauses move marks (1a), grow or shrink subsets
(1bi/1bii), merge blocks (2ai/2aii), relocate blocks onto active sites
(2bi/2bii), reset or clip a subset against the blocks (2ci/2cii), and
intersect subsets pairwise (2di/2dii/2diii).  2a-2d share one rule: a
site's subset is reset to the full type space at a base rate (i), or to
a prefix {0..w} at a selection step (ii), which vanishes at S = 0.

Occupied sites formally keep a stored subset, but no rate, no weight and
no functional ever reads it, and it is overwritten whenever the site is
vacated; states here normalize occupied sites' subsets to the full type
space so that equal behaviour means equal hash.

`enumerate_transitions` lists moves as (kind, rate, marks, active)
records in that normal form; a move is dropped before its target is
formed when its rate is 0 or it changes no mark and no subset.  The
engines number states by the key (j_sites, marks, active) and build each
`BpState` once, and a full target state only where a path records its
events.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
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
    "reverse_to_lines",
    "TRANSITION_KINDS",
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

    @property
    def key(self) -> tuple:
        """(j_sites, marks, active): what the engines number states by."""
        return self.j_sites, self.marks, self.active


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


@dataclass(frozen=True)
class BpTransition:
    target: BpState
    rate: float
    kind: str


def enumerate_transitions(s: BpState, p: ModelParams) -> list:
    """Complete list of positive-rate transitions out of s (no self-loops),
    as (kind, rate, marks, active) records; the target is the state with
    s's tagged positions and these normalized marks and subsets.  A move
    is dropped before its target is formed when its rate is 0, or when it
    changes no mark and no subset.

    Clause guards are applied exactly as stated: subset-shrink needs
    |subset| > 1, pairwise intersection clauses need the intersection to
    be neither empty nor the whole type space.
    """
    d, N, b, chi = p.d, p.N, p.b, p.chi
    sel = p.S / (2.0 * N)
    full = _full(d)
    out = []

    def emit(kind, rate, marks, *updates):
        # a site the move occupies is already full or passed as (site, full)
        if rate <= 0.0:
            return
        active = list(s.active)
        for i, sub in updates:
            active[i] = sub
        active = tuple(active)
        if marks is None:
            if active == s.active:
                return  # a self-loop: no mark and no subset changes
            marks = s.marks
        out.append((kind, rate, marks, active))

    def resets(kind, base, n, marks, site, *updates):
        """The rule 2a-2d share: site's subset is reset to the full type
        space at rate base, or to {0..w} at n selection steps."""
        emit(kind + "i", base, marks, (site, full), *updates)
        for w in range(d - 1):
            emit(kind + "ii", n * sel * (chi[w + 1] - chi[w]), marks,
                 (site, tuple(range(w + 1))), *updates)

    blocks = s.blocks
    act = s.act_sites

    # 1a: a block's mark hops v -> u at the rate a site's type mutates u -> v
    for (u, site, members) in blocks:
        for u2 in range(d):
            if u2 != u:
                emit("1a", p.B * b[u2][u],
                     _replace_marks(s, members, (u2, site)))

    # 1bi / 1bii: subsets grow by u at rate B sum_{v in set} b(u,v),
    # shrink by u at rate B sum_{v not in set} b(u,v) while |set| > 1
    for i in act:
        sub = s.active[i]
        sub_set = set(sub)
        for u in range(d):
            if u not in sub_set:
                emit("1bi", p.B * sum(b[u][v] for v in sub), None,
                     (i, tuple(sorted(sub + (u,)))))
        if len(sub) > 1:
            outside = [v for v in range(d) if v not in sub_set]
            for u in sub:
                emit("1bii", p.B * sum(b[u][v] for v in outside), None,
                     (i, tuple(v for v in sub if v != u)))

    # 2a: ordered block pairs with equal marks merge; mover's site is vacated
    for (u, site, members) in blocks:
        for (u2, site2, _members2) in blocks:
            if site2 != site and u2 == u:
                resets("2a", 0.5 + sel * (chi[u] - 1.0), 1,
                       _replace_marks(s, members, (u2, site2)), site)

    # 2b: a block relocates onto an active site whose subset holds its mark
    for (u, site, members) in blocks:
        for i in act:
            if u in s.active[i]:
                resets("2b", 0.5 + sel * (chi[u] - 1.0), 1,
                       _replace_marks(s, members, (u, i)), site, (i, full))

    # 2c: an active site's subset is reset by each block holding a compatible
    # mark; the target does not depend on which block fired, so rates add
    for i in act:
        sub_set = set(s.active[i])
        hits = [u for (u, _site, _m) in blocks if u in sub_set]
        if hits:
            resets("2c", sum(0.5 + sel * (chi[u] - 1.0) for u in hits),
                   len(hits), None, i)

    # 2d: ordered active pairs with proper nonempty intersection
    for i in act:
        set_i = set(s.active[i])
        for j in act:
            if j == i:
                continue
            inter = tuple(v for v in s.active[j] if v in set_i)
            if not inter or len(inter) == d:
                continue
            resets("2d", 0.5 + sel * (chi[inter[0]] - 1.0), 1, None, j,
                   (i, inter))
            for idx in range(1, len(inter)):
                emit("2diii", sel * (chi[inter[idx]] - chi[inter[idx - 1]]),
                     None, (i, inter[idx:]), (j, full))

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
    increasing time order, and horizon."""

    initial: BpState
    events: tuple
    horizon: float


def _jump_path(start: BpState, T: float, rng, cache: dict,
               transitions_of) -> BpPath:
    """Event-by-event path on [0, T] of a time-homogeneous jump chain whose
    positive-rate transitions out of a state are transitions_of(state).

    Each state is compiled once into cache as a row: its transitions,
    their cumulative rates, the total rate, and links to the targets' rows
    (filled on first use, so a path follows links instead of hashing
    states).  The cumulative rates are the running sums a sequential scan
    would form, with the last one raised to infinity: bisection then picks
    the same transition as the scan, whose fallback is the last one."""
    def compile_row(state):
        row = cache.get(state)
        if row is None:
            trans = transitions_of(state)
            cum = list(itertools.accumulate(tr.rate for tr in trans))
            if cum:
                cum[-1] = math.inf
            row = cache[state] = (trans, cum, sum(tr.rate for tr in trans),
                                  [None] * len(trans))
        return row

    t = 0.0
    row = compile_row(start)
    events = []
    while True:
        trans, cum, total, succ = row
        if total <= 0.0:
            break
        t += rng.exponential(1.0 / total)
        if t >= T:
            break
        i = bisect.bisect_right(cum, rng.random() * total)
        events.append((t, trans[i]))
        row = succ[i]
        if row is None:
            row = succ[i] = compile_row(trans[i].target)
    return BpPath(initial=start, events=tuple(events), horizon=T)


def simulate_bp(start: BpState, p: ModelParams, T: float, rng,
                transition_cache: dict | None = None) -> BpPath:
    """Exact event-by-event simulation of the backward chain up to time T.

    A shared transition_cache may be passed in when many paths run over
    the same small reachable set; it maps each visited state to its
    compiled row (transitions, cumulative rates, total rate, links to the
    targets' rows).
    """
    # NaN fails every comparison, so this also refuses it
    if not 0.0 <= T < math.inf:
        raise ParamError("finite nonnegative horizon required")
    cache = transition_cache if transition_cache is not None else {}
    return _jump_path(start, T, rng, cache, lambda s: _transitions(s, p))


def _transitions(s: BpState, p: ModelParams) -> list:
    """enumerate_transitions(s, p) as BpTransitions to full target states."""
    return [BpTransition(target=BpState(s.j_sites, marks, active, s.d),
                         rate=rate, kind=kind)
            for kind, rate, marks, active in enumerate_transitions(s, p)]


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
