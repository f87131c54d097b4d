"""Forward population simulator carrying full ancestral lines.

Each site hosts a lineage whose past is shared structurally: a
resampling event copies the source site's entire line onto the target
site by appending one node with a parent pointer, so history is never
duplicated.  Mutations append to the head node of the affected site.
Self-copies (source equals target) are part of the event budget but
change nothing and create no node.

The pairwise genealogical distance is twice the elapsed time since the
two lines last agreed; lines agree exactly while they traverse the same
node, which reduces the distance to a walk up the two parent chains.

`_step_at` is the single place that draws and applies an event; the
forest runners, the common-ancestor tracer and the type-only simulator
all advance through it, so they share one event law and one draw order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams, ParamError, validate_params

__all__ = [
    "ForestNode",
    "HmmEvent",
    "LineageForest",
    "init_forest",
    "step_forest",
    "run_until",
    "path_value",
    "genealogical_distance",
    "cat_fixation_type",
    "simulate_types",
    "neutral_pair_distance_samples",
]

FIXATION_HORIZON_PER_SITE = 50.0  # cat_fixation_type's clock budget per site


@dataclass
class ForestNode:
    birth_time: float
    type_at_birth: int
    site: int
    parent: int | None
    mutations: list = field(default_factory=list)  # (time, new_type), ordered


@dataclass(frozen=True)
class HmmEvent:
    """One applied population event.

    kind "mutation": src is the site, dst the drawn type (possibly the
    current one, a no-op).  kind "resample": src's line is copied onto
    dst; src == dst is a no-op self-copy.
    """

    kind: str
    time: float
    src: int
    dst: int


@dataclass
class LineageForest:
    """Append-only forest of lineage nodes plus per-site head pointers."""

    time_origin: float
    now: float
    nodes: list
    heads: list
    current_types: list

    @property
    def N(self) -> int:
        return len(self.heads)


def init_forest(p: ModelParams, time_origin: float, types) -> LineageForest:
    """One constant line per site, typed by the given initial configuration,
    started at clock value time_origin."""
    validate_params(p)
    time_origin = float(time_origin)
    types = [int(u) for u in types]
    if len(types) != p.N:
        raise ParamError("one initial type per site required")
    if any(not (0 <= u < p.d) for u in types):
        raise ParamError("initial type outside type space")
    nodes = [ForestNode(birth_time=time_origin, type_at_birth=u, site=i,
                        parent=None) for i, u in enumerate(types)]
    return LineageForest(time_origin=time_origin, now=time_origin,
                         nodes=nodes, heads=list(range(p.N)),
                         current_types=list(types))


def _draw_row(row, x):
    """Index u with cumulative row mass first exceeding x."""
    acc = 0.0
    for u, w in enumerate(row):
        acc += w
        if x < acc:
            return u
    return len(row) - 1


def _step_at(forest: LineageForest, p: ModelParams, rng, t: float) -> HmmEvent:
    """Apply one event at a predetermined time t (holding already drawn)."""
    rate_mut = p.N * p.B
    rate_res = p.N * p.N / 2.0
    total = rate_mut + rate_res
    sel = p.S / (2.0 * p.N)
    forest.now = t
    if rng.random() * total < rate_mut:
        i = int(rng.integers(p.N))
        old = forest.current_types[i]
        u = _draw_row(p.b[old], rng.random())
        if u != old:
            forest.nodes[forest.heads[i]].mutations.append((t, u))
            forest.current_types[i] = u
        return HmmEvent(kind="mutation", time=t, src=i, dst=u)

    # resampling: ordered pair by thinning against the maximal tilted rate
    rate_max = 0.5 + sel
    while True:
        src = int(rng.integers(p.N))
        dst = int(rng.integers(p.N))
        rate = 0.5 + sel * (p.chi[forest.current_types[src]]
                            - p.chi[forest.current_types[dst]])
        if rng.random() * rate_max < rate:
            break
    if src != dst:
        child = ForestNode(birth_time=t,
                           type_at_birth=forest.current_types[src],
                           site=dst, parent=forest.heads[src])
        forest.nodes.append(child)
        forest.heads[dst] = len(forest.nodes) - 1
        forest.current_types[dst] = forest.current_types[src]
    return HmmEvent(kind="resample", time=t, src=src, dst=dst)


def step_forest(forest: LineageForest, p: ModelParams, rng):
    """Apply one event at an exponential holding time; returns the forest
    (advanced in place) together with the event.

    Total event rate is N*B + N^2/2 exactly: mutation events include the
    no-op target (the current type), and resampling runs over all ordered
    site pairs including self-pairs, whose tilted rates average to 1/2.
    """
    total = p.N * p.B + p.N * p.N / 2.0
    evt = _step_at(forest, p, rng, forest.now + rng.exponential(1.0 / total))
    return forest, evt


def run_until(forest: LineageForest, p: ModelParams, T: float, rng,
              trace: list | None = None) -> LineageForest:
    """Evolve in place until the clock reads exactly T; the final holding
    interval is truncated so no event lands beyond T.  A trace list, if
    given, collects every applied HmmEvent."""
    if T < forest.now:
        raise ParamError("horizon before current time")
    total = p.N * p.B + p.N * p.N / 2.0
    while True:
        dt = rng.exponential(1.0 / total)
        if forest.now + dt >= T:
            forest.now = T
            return forest
        evt = _step_at(forest, p, rng, forest.now + dt)
        if trace is not None:
            trace.append(evt)


def path_value(forest: LineageForest, site: int, s: float):
    """(type, site) value of the line currently at `site`, evaluated at
    time s; values are right-continuous in s."""
    if not (forest.time_origin <= s <= forest.now):
        raise ParamError("time outside forest window")
    idx = forest.heads[site]
    node = forest.nodes[idx]
    while node.birth_time > s:
        idx = node.parent
        node = forest.nodes[idx]
    u = node.type_at_birth
    for (mt, mu) in node.mutations:
        if mt <= s:
            u = mu
        else:
            break
    return (u, node.site)


def _chain_exits(forest: LineageForest, site: int) -> dict:
    """Map node index -> time this site's line leaves that node going up."""
    out = {}
    idx = forest.heads[site]
    exit_t = math.inf
    while idx is not None:
        out[idx] = exit_t
        node = forest.nodes[idx]
        exit_t = node.birth_time
        idx = node.parent
    return out


def genealogical_distance(forest: LineageForest, i: int, j: int) -> float:
    """Twice the time since the lines at sites i and j last agreed.

    Agreement means traversing the same node; if the parent chains never
    meet, the last-agreement time defaults to the forest's time origin.
    """
    if not (0 <= i < forest.N and 0 <= j < forest.N):
        raise ParamError("site outside population")
    exits_i = _chain_exits(forest, i)
    exits_j = _chain_exits(forest, j)
    common = exits_i.keys() & exits_j.keys()
    if not common:
        tau = forest.time_origin
    else:
        deepest = max(common, key=lambda k: forest.nodes[k].birth_time)
        tau = min(exits_i[deepest], exits_j[deepest], forest.now)
    return 2.0 * (forest.now - tau)


def cat_fixation_type(p: ModelParams, c: float, types, t: float, rng):
    """Type at time t of the individual whose descendants take over.

    Starting from the given configuration at time c, the population runs
    past t until every living line traces back to a single time-t
    individual; that individual's type at time t is returned.  Ancestry
    moves only through resampling, but mutations are simulated too since
    they drive the tilted pair rates.  Returns "pending" if the tracing
    has not collapsed within FIXATION_HORIZON_PER_SITE * N time units of
    elapsed clock.
    """
    forest = init_forest(p, c, types)
    c, t = forest.time_origin, float(t)
    if t < c:
        raise ParamError("evaluation time before start time")
    horizon_cap = FIXATION_HORIZON_PER_SITE * p.N
    total = p.N * p.B + p.N * p.N / 2.0
    # anc[i]: which time-t site the line now at i descends from; tracked
    # only once the clock has crossed t, with the types frozen there
    anc = None
    frozen = None
    while True:
        now = forest.now + rng.exponential(1.0 / total)
        if anc is None and now >= t:
            frozen = list(forest.current_types)
            anc = list(range(p.N))
            if p.N == 1:
                return frozen[0]
        if now - c >= horizon_cap:
            return "pending"
        evt = _step_at(forest, p, rng, now)
        if anc is not None and evt.kind == "resample" and evt.src != evt.dst:
            anc[evt.dst] = anc[evt.src]
            first = anc[0]
            if all(a == first for a in anc):
                return frozen[first]


def simulate_types(p: ModelParams, types, T: float, rng) -> tuple:
    """Type configuration at time T of a population started at time 0."""
    return tuple(run_until(init_forest(p, 0.0, types), p, T, rng).current_types)


def neutral_pair_distance_samples(N: int, T: float, reps: int, seed: int,
                                  pair=(0, 1)) -> np.ndarray:
    """Genealogical distances of one site pair at time T without selection.

    Valid only at S = 0, where resampling pairs are uniform over all
    ordered pairs (self-pairs included) at total rate N^2/2 and mutation
    never moves ancestry.  The two lines are traced backward from T, and
    only the events that can move them are drawn.  Read backward, the
    event stream is still Poisson with i.i.d. uniform (src, dst) marks.
    The sites the lines hold at a time depend only on the events after
    it, so thinning to the events whose dst holds a line is exact: they
    arrive at rate (N^2/2)(2/N) = N, hit either line with probability
    1/2 and carry a uniform src.  A hit moves its line to src (a no-op
    if src is the line's own site); src on the other line merges the
    two at that event time tau, and a pair still apart when the clock
    passes 0 has tau = 0.  The distance is 2(T - tau).  Replicates are
    traced together, one event each per round: memory is O(reps) and
    the rounds number about N min(T, merge time).
    """
    if N < 2:
        raise ParamError("population of at least two required")
    i0, j0 = pair
    if i0 == j0 or not (0 <= i0 < N and 0 <= j0 < N):
        raise ParamError("distinct sites inside the population required")
    T = float(T)
    if not (math.isfinite(T) and T >= 0.0):
        raise ParamError("horizon must be finite and nonnegative")
    if reps < 0:
        raise ParamError("replicate count must be nonnegative")
    rng = np.random.Generator(np.random.Philox(key=seed))
    tau = np.zeros(reps)
    live = np.arange(reps)               # replicates whose lines are apart
    now = np.full(reps, T)               # their backward clocks
    lines = np.tile(np.array([i0, j0], dtype=np.int64), (reps, 1))
    while live.size:
        n = live.size
        now = now - rng.exponential(1.0 / N, size=n)
        hit = rng.integers(0, 2, size=n)
        src = rng.integers(0, N, size=n)
        rows = np.arange(n)
        inside = now > 0.0
        merged = inside & (src == lines[rows, 1 - hit])
        tau[live[merged]] = now[merged]
        lines[rows, hit] = src
        keep = inside & ~merged
        live, now, lines = live[keep], now[keep], lines[keep]
    return 2.0 * (T - tau)
