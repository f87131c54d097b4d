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

`_step_at` is the single place that draws and applies an event to a
forest; the forest runner and the common-ancestor tracer both advance
through it, so they share one event law and one draw order.  Two
samplers read only one pair's distance and keep no forest:
`neutral_pair_distance_samples` traces the pair's two lines backward
(S = 0 only), and `pair_distance_samples` runs blocks of replicates
forward under `_step_at`'s event law, carrying only the types and the
times at which each two lines last agreed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (DENSE_SOLVE_BYTES, BudgetError, ModelParams, ParamError,
                    validate_params)

__all__ = [
    "ForestNode",
    "HmmEvent",
    "LineageForest",
    "init_forest",
    "run_until",
    "path_value",
    "genealogical_distance",
    "cat_fixation_type",
    "neutral_pair_distance_samples",
    "pair_block_count",
    "pair_distance_samples",
]

FIXATION_HORIZON_PER_SITE = 50.0  # cat_fixation_type's clock budget per site
BLOCK_REPS = 1024  # replicates per block of pair_distance_samples, at most


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
    if not math.isfinite(time_origin):
        raise ParamError("finite time origin required")
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


def run_until(forest: LineageForest, p: ModelParams, T: float, rng,
              trace: list | None = None) -> LineageForest:
    """Evolve in place until the clock reads exactly T; the final holding
    interval is truncated so no event lands beyond T.  A trace list, if
    given, collects every applied HmmEvent.  The total event rate
    N*B + N^2/2 counts no-op mutations and self-copies."""
    # NaN fails every comparison, so this also refuses it
    if not forest.now <= T < math.inf:
        raise ParamError("horizon before current time or not finite")
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
    # NaN fails every comparison, so this also refuses it
    if not c <= t < math.inf:
        raise ParamError("evaluation time before start time or not finite")
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


def _check_pair_args(N: int, T: float, reps: int) -> float:
    """Validate a pair-distance request; returns the horizon as a float."""
    if N < 2:
        raise ParamError("population of at least two required")
    T = float(T)
    if not (math.isfinite(T) and T >= 0.0):
        raise ParamError("horizon must be finite and nonnegative")
    if reps < 0:
        raise ParamError("replicate count must be nonnegative")
    return T


def _trace_pair(N: int, T: float, reps: int, rng) -> tuple:
    """Trace the lines of sites 0 and 1 backward from T at S = 0.

    Returns (tau, sites): tau is each replicate's merge time, 0 if the
    lines are still apart when the clock passes 0; sites (reps x 2) holds
    the sites the two lines occupy where the trace stops, which is the
    merge site twice or the two time-0 sites.
    """
    tau = np.zeros(reps)
    sites = np.tile(np.array((0, 1), dtype=np.int64), (reps, 1))
    live = np.arange(reps)               # replicates whose lines are apart
    now = np.full(reps, T)               # their backward clocks
    while live.size:
        n = live.size
        now = now - rng.exponential(1.0 / N, size=n)
        hit = rng.integers(0, 2, size=n)
        src = rng.integers(0, N, size=n)
        inside = now > 0.0
        merged = inside & (src == sites[live, 1 - hit])
        tau[live[merged]] = now[merged]
        sites[live, hit] = np.where(inside, src, sites[live, hit])
        keep = inside & ~merged
        live, now = live[keep], now[keep]
    return tau, sites


def neutral_pair_distance_samples(N: int, T: float, reps: int,
                                  seed: int) -> np.ndarray:
    """Genealogical distances of sites 0 and 1 at time T without selection.

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
    T = _check_pair_args(N, T, reps)
    rng = np.random.Generator(np.random.Philox(key=seed))
    tau, _sites = _trace_pair(N, T, reps, rng)
    return 2.0 * (T - tau)


def _check_blocks(reps: int, size: int, blocks) -> list:
    """`blocks` as a list; ParamError for a negative reps, or for an
    index outside 0..ceil(reps / size) - 1 (blocks of `size` replicates)."""
    if reps < 0:
        raise ParamError("replicate count must be nonnegative")
    count = -(-reps // size)
    blocks = list(blocks)
    for k in blocks:
        if not 0 <= k < count:
            raise ParamError(f"block index {k} outside the {count} blocks "
                             f"of {reps} replicates")
    return blocks


def _block_size(N: int) -> int:
    """BLOCK_REPS, or fewer when a block's N x N agreement-time matrices
    would exceed DENSE_SOLVE_BYTES; BudgetError when even one would."""
    per_rep = 8 * N * N
    if per_rep > DENSE_SOLVE_BYTES:
        raise BudgetError(f"agreement times of {N} sites exceed the dense "
                          f"budget of {DENSE_SOLVE_BYTES} bytes")
    return min(BLOCK_REPS, DENSE_SOLVE_BYTES // per_rep)


def pair_block_count(N: int, reps: int) -> int:
    """Number of replicate blocks `pair_distance_samples` runs for reps
    replicates at population N.  Raises BudgetError, allocating nothing,
    when even one replicate's N x N agreement times exceed
    DENSE_SOLVE_BYTES."""
    return -(-reps // _block_size(N))


def pair_distance_samples(p: ModelParams, T: float, reps: int, seed: int,
                          blocks) -> np.ndarray:
    """Genealogical distances of sites 0 and 1 at time T, any S.

    Populations start from uniform random types at time 0 and run under
    `_step_at`'s event law, but no forest is kept: the replicates of a
    block advance together, and each carries its types and the matrix
    A whose entry (i, j) is the last time the lines at sites i and j
    agreed (0 if never).  The distance is 2 (T - A[0, 1]).  The reps
    replicates fall into `pair_block_count(N, reps)` blocks of
    BLOCK_REPS (fewer at large N); block k draws from the stream keyed
    (seed, k).  Only the block indices in `blocks` run, and their
    replicates come back in that order; an index outside the reps
    replicates' blocks is refused.
    """
    validate_params(p)
    T = _check_pair_args(p.N, T, reps)
    size = _block_size(p.N)
    blocks = _check_blocks(reps, size, blocks)
    parts = []
    for k in blocks:
        rng = np.random.Generator(np.random.Philox(key=(seed, k)))
        _types, A = _agreement_block(p, T, min(size, reps - k * size), rng)
        parts.append(2.0 * (T - A[:, 0, 1]))
    return np.concatenate(parts) if parts else np.zeros(0)


def _agreement_block(p: ModelParams, T: float, reps: int, rng) -> tuple:
    """One block of `pair_distance_samples`: the types (reps x N) and the
    agreement times A (reps x N x N) at time T.

    Every live replicate draws one event per round at the total rate
    N B + N^2/2 and stops once its clock passes T.  A mutation draws its
    site and type as `_step_at` does; a resampling pair is drawn by the
    same thinning against 0.5 + S/2N, re-drawing only the rejected
    replicates.  An effective copy src -> dst at time t gives dst the
    type, row and column of src, and A[src, dst] = A[dst, src] = t; the
    diagonal of A is never read.
    """
    N = p.N
    rate_mut = N * p.B
    total = rate_mut + N * N / 2.0
    sel = p.S / (2.0 * N)
    rate_max = 0.5 + sel
    chi = np.asarray(p.chi)
    cum = np.cumsum(np.asarray(p.b), axis=1)    # _draw_row's running sums
    types = rng.integers(0, p.d, size=(reps, N))
    A = np.zeros((reps, N, N))
    live = np.arange(reps)
    now = np.zeros(reps)
    while True:
        now = now + rng.exponential(1.0 / total, size=live.size)
        inside = now < T
        live, now = live[inside], now[inside]
        if not live.size:
            break
        mut = rng.random(live.size) * total < rate_mut

        r = live[mut]
        site = rng.integers(0, N, size=r.size)
        x = rng.random(r.size)
        # the first type whose cumulative mass exceeds x, else the last
        u = (x[:, None] >= cum[types[r, site]]).sum(axis=1)
        types[r, site] = np.minimum(u, p.d - 1)

        r, t = live[~mut], now[~mut]
        src = np.empty(r.size, dtype=np.int64)
        dst = np.empty(r.size, dtype=np.int64)
        todo = np.arange(r.size)
        while todo.size:
            s = rng.integers(0, N, size=todo.size)
            d = rng.integers(0, N, size=todo.size)
            rr = r[todo]
            rate = 0.5 + sel * (chi[types[rr, s]] - chi[types[rr, d]])
            ok = rng.random(todo.size) * rate_max < rate
            src[todo[ok]], dst[todo[ok]] = s[ok], d[ok]
            todo = todo[~ok]

        eff = src != dst
        r, t, src, dst = r[eff], t[eff], src[eff], dst[eff]
        A[r, dst] = A[r, src]
        A[r, :, dst] = A[r, :, src]
        A[r, src, dst] = t
        A[r, dst, src] = t
        types[r, dst] = types[r, src]
    return types, A
