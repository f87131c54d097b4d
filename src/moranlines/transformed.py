"""Conditioned backward dynamics via harmonic reweighting.

Multiplying each backward rate by the ratio of a space-time harmonic
function at target and source turns the weighted (non-conservative)
semigroup into an honest Markov chain: the backward chain conditioned on
compatibility with the observed sample types.  Two flavours:

* homogeneous, using the equilibrium indicator averages h (stationary
  start law);
* inhomogeneous, using the time-indexed averages h^T(t, .) built from an
  arbitrary start law and a horizon T.

The inhomogeneous samplers thin proposals against a dominating rate that
is exact for the tabulated field: between grid knots every transition
rate is a ratio of two linear functions of time, hence monotone, so the
supremum over any span is attained at a knot.  Both read the thinning
tables of the kernel's `HTTable`, which keeps every series and table it
builds within DENSE_SOLVE_BYTES.  `sample_transformed_path` draws one
path at a time; `conditioned_coalescence_times` advances a block of
replicates together and reads only their first merge.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import (DENSE_SOLVE_BYTES, BudgetError, ModelParams, ParamError,
                    validate_params)
from .backward import (TRANSITION_KINDS, BpPath, BpState, BpTransition,
                       LinePath, _jump_path, _transitions, canonical_start,
                       enumerate_transitions, reverse_to_lines)
from .exact import (GeneratorMatrix, _law_grid, _project, _type_configs,
                    build_bp_generator, build_type_generator, compute_h,
                    config_law_vector)
from .forward import (BLOCK_REPS, LineageForest, _blocks, init_forest,
                      run_until)

__all__ = [
    "HTTable",
    "HTransformedKernel",
    "make_homogeneous_kernel",
    "make_inhomogeneous_kernel",
    "transformed_rates",
    "sample_transformed_path",
    "conditioned_coalescence_times",
    "sample_conditioned_lines",
    "ConditionedSample",
    "first_coalescence_time",
    "forest_line",
    "conditioned_functional_check",
    "FunctionalCheck",
    "sample_config",
]

HT_STEP = 1e-3  # largest grid step of the horizon tables


class HTTable:
    """Time-indexed indicator averages on a grid, with thinning tables.

    Stores the forward type law on a uniform backward-time grid over
    [0, T] (step at most HT_STEP; endpoints exact) and serves linearly
    interpolated values per backward state.  Interpolation error is
    O(step^2) in t and is documented as part of the sampler's budget;
    exact single-time values should use the direct computation instead.
    The grid law holds (grid points) x d^N floats, computed by one
    uniformized pass over the grid (`exact._law_grid`, which returns its
    rows in backward time, the order read here); each row is what a
    lone semigroup application gives at its grid time.  Above
    DENSE_SOLVE_BYTES it is refused before the type chain is built or
    evolved.

    Every series and thinning table lives in one array `rows`, reserved
    up front with what DENSE_SOLVE_BYTES leaves beside the grid law; its
    pages are committed only as rows are written, and a row never moves.
    A state's id is its row, its series at every grid time; these fill
    from the front, and `ids` maps each `BpState.key` to its id.  Once
    `build` has reached a state, tab[sid] is its table id i: row
    top - 2i holds its `num` series (sum of rate * target series) and row
    top - 2i - 1 the suffix maximum of the knot ratios num / den, filling
    from the back, and ptr[i]:ptr[i + 1] is its segment of the flat
    arrays t_sid, t_rate, t_kind (an index into TRANSITION_KINDS) and
    t_merge (whether the target has fewer blocks).
    A state or table that would not fit is refused with a BudgetError
    before it is stored.
    """

    def __init__(self, p: ModelParams, mu, T: float):
        validate_params(p)
        if not 0 < T < np.inf:
            raise ParamError("positive horizon required")
        n = max(int(np.ceil(T / HT_STEP)), 1)
        # d^min(N, 64) exceeds the budget whenever d^N does, and stays small
        if 8 * (n + 1) * p.d ** min(p.N, 64) > DENSE_SOLVE_BYTES:
            raise BudgetError("exact solve infeasible")
        type_gen = build_type_generator(p)
        self.p = p
        self.T = float(T)
        self.grid = np.linspace(0.0, T, n + 1)
        self.step = T / n
        self.configs_arr = np.array(type_gen.states, dtype=np.int64)
        # rho[k] = law of the types after running the forward chain for
        # time T - grid[k]: the grid law of one uniformized pass, whose
        # rows come in backward time
        self.rho = _law_grid(
            type_gen, config_law_vector(p, mu, type_gen.states), self.step,
            n, transpose=True)
        self.rows = np.empty(
            ((DENSE_SOLVE_BYTES - self.rho.nbytes) // (8 * (n + 1)), n + 1))
        self.top = len(self.rows) - 1
        self.ids = {}
        self.states = []
        self.tab = np.zeros(0, dtype=np.int64)  # state id -> table id or -1
        self.ptr = np.zeros(1, dtype=np.int64)
        self.t_sid = np.zeros(0, dtype=np.int64)
        self.t_rate = np.zeros(0)
        self.t_kind = np.zeros(0, dtype=np.int8)
        self.t_merge = np.zeros(0, dtype=bool)

    def _fit(self, states: int, tables: int) -> None:
        """Refuse unless that many series and tables fit in `rows`."""
        if states + 2 * tables > len(self.rows):
            raise BudgetError("horizon table above the dense budget")

    def sids(self, keys) -> np.ndarray:
        """State ids of the states with these keys, registering (and
        building) the unseen ones.  Each new series is its own product: a
        batched product rounds a series differently with the batch's width,
        so the draws would depend on the order states were first reached."""
        out, fresh = [], {}
        for key in keys:
            k = self.ids.get(key)
            if k is None:
                k = fresh.setdefault(key, len(self.states) + len(fresh))
            out.append(k)
        self._fit(len(self.states) + len(fresh), len(self.ptr) - 1)
        for key, k in fresh.items():
            s = BpState(*key, self.p.d)
            self.rows[k] = _project(self.rho, s, self.configs_arr, self.p.d)
            self.ids[key] = k
            self.states.append(s)
        self.tab = np.concatenate(
            (self.tab, np.full(len(fresh), -1, dtype=np.int64)))
        return np.array(out, dtype=np.int64)

    def build(self, sids: np.ndarray) -> None:
        """Build the thinning tables of every state in sids that has none,
        with one `enumerate_transitions` call per state."""
        new = np.unique(sids[self.tab[sids] < 0])
        if not new.size:
            return
        sources = [self.states[k] for k in new]
        trans = [enumerate_transitions(s, self.p) for s in sources]
        flat = [(kind, rate, (s.j_sites, marks, active),
                 len(set(marks)) < len(s.blocks))
                for s, recs in zip(sources, trans)
                for kind, rate, marks, active in recs]
        t_sid = self.sids([key for _kind, _rate, key, _merge in flat])
        tabs = np.arange(len(self.ptr) - 1, len(self.ptr) - 1 + new.size)
        self._fit(len(self.states), tabs[-1] + 1)
        t_rate = np.array([rate for _kind, rate, _key, _merge in flat])
        t_kind = np.array([TRANSITION_KINDS.index(kind) for kind, *_ in flat],
                          dtype=np.int8)
        t_merge = np.array([merge for *_, merge in flat], dtype=bool)
        sizes = np.array([len(ts) for ts in trans], dtype=np.int64)
        ends = np.cumsum(sizes)
        at = self.top - 2 * tabs
        for r, a, b in zip(at, ends - sizes, ends):
            self.rows[r] = t_rate[a:b] @ self.rows[t_sid[a:b]]
        num, den = self.rows[at], self.rows[new]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(den > 0.0, num / np.maximum(den, 1e-300), 0.0)
        self.rows[at - 1] = np.maximum.accumulate(
            ratio[:, ::-1], axis=1)[:, ::-1]
        self.tab[new] = tabs
        self.ptr = np.concatenate((self.ptr, ends + self.ptr[-1]))
        self.t_sid = np.concatenate((self.t_sid, t_sid))
        self.t_rate = np.concatenate((self.t_rate, t_rate))
        self.t_kind = np.concatenate((self.t_kind, t_kind))
        self.t_merge = np.concatenate((self.t_merge, t_merge))

    def value(self, t: float, state: BpState) -> float:
        if not (0.0 <= t <= self.T):
            raise ParamError("time outside horizon")
        sid = self.ids.get(state.key)
        ser = self.rows[self.sids((state.key,))[0] if sid is None else sid]
        k = min(int(t / self.step), len(self.grid) - 2)
        theta = (t - self.grid[k]) / self.step
        return float((1.0 - theta) * ser[k] + theta * ser[k + 1])


@dataclass(frozen=True)
class HTransformedKernel:
    """Reweighted backward dynamics, time-inhomogeneous when ht is set."""

    p: ModelParams
    gen: GeneratorMatrix | None = None
    h: np.ndarray | None = None
    ht: HTTable | None = None

    def h_value(self, state: BpState, t: float | None = None) -> float:
        if self.ht is None:
            idx = self.gen.index.get(state)
            if idx is None:
                raise ParamError("state outside the kernel's reachable set")
            return float(self.h[idx])
        if t is None:
            raise ParamError("time required for inhomogeneous kernel")
        return self.ht.value(t, state)


def make_homogeneous_kernel(p: ModelParams, start: BpState) -> HTransformedKernel:
    gen = build_bp_generator(p, start)
    h = compute_h(p, gen)
    return HTransformedKernel(p=p, gen=gen, h=h)


def make_inhomogeneous_kernel(p: ModelParams, mu, T: float) -> HTransformedKernel:
    return HTransformedKernel(p=p, ht=HTTable(p, mu, T))


def transformed_rates(kernel: HTransformedKernel, state: BpState,
                      t: float | None = None) -> list:
    """Positive-rate transitions of the conditioned chain out of `state`.

    Each base rate is multiplied by the harmonic ratio target/source;
    both values must be strictly positive."""
    denom = kernel.h_value(state, t)
    if denom <= 0.0:
        raise ParamError("h positivity violated")
    out = []
    for tr in _transitions(state, kernel.p):
        num = kernel.h_value(tr.target, t)
        if num < 0.0:
            raise ParamError("h positivity violated")
        rate = tr.rate * num / denom
        if rate > 0.0:
            out.append(BpTransition(target=tr.target, rate=rate, kind=tr.kind))
    return out


def sample_transformed_path(kernel: HTransformedKernel, start: BpState, rng,
                            t_end: float, cache: dict | None = None) -> BpPath:
    """Trajectory of the conditioned backward chain on [0, t_end].

    Homogeneous kernels run plain event-by-event simulation with the
    reweighted rates, caching each state's rates in `cache` if given.
    Inhomogeneous kernels ignore `cache`: they thin against the suffix
    maximum of the total-rate knot values in the kernel's `HTTable`,
    which dominates the true rate on the remaining span.
    """
    # NaN fails every comparison, so this also refuses it
    if not 0.0 <= t_end < math.inf:
        raise ParamError("finite nonnegative horizon required")
    if kernel.ht is None:
        return _jump_path(start, t_end, rng, {} if cache is None else cache,
                          lambda s: transformed_rates(kernel, s))

    ht = kernel.ht
    if t_end > ht.T:
        raise ParamError("horizon beyond table range")
    rows = ht.rows
    last = len(ht.grid) - 2
    sid = ht.ids.get(start.key)
    if sid is None:
        sid = ht.sids((start.key,)).item(0)
    t, events = 0.0, []
    while True:
        i = ht.tab.item(sid)
        if i < 0:
            ht.build(np.array((sid,)))
            i = ht.tab.item(sid)
        k0 = min(int(t / ht.step), last)
        lam_bar = rows.item(ht.top - 2 * i - 1, k0)
        if lam_bar <= 0.0:
            break
        den, num = rows[sid], rows[ht.top - 2 * i]
        while True:
            t = t + rng.exponential(1.0 / lam_bar)
            if t >= t_end:
                break
            # one grid index and weight per proposal, shared by every
            # series; item() reads plain floats, with the same arithmetic
            k = min(int(t / ht.step), last)
            theta = (t - ht.grid.item(k)) / ht.step
            w0 = 1.0 - theta
            den_t = w0 * den.item(k) + theta * den.item(k + 1)
            if den_t <= 0.0:
                raise ParamError("h positivity violated")
            lam_t = (w0 * num.item(k) + theta * num.item(k + 1)) / den_t
            if rng.random() * lam_bar < lam_t:
                break
        if t >= t_end:
            break
        lo, hi = ht.ptr.item(i), ht.ptr.item(i + 1)
        cum = list(itertools.accumulate(
            rate * (w0 * rows.item(j, k) + theta * rows.item(j, k + 1))
            for rate, j in zip(ht.t_rate[lo:hi].tolist(),
                               ht.t_sid[lo:hi].tolist())))
        j = lo + min(bisect.bisect_right(cum, rng.random() * cum[-1]),
                     hi - lo - 1)
        sid = ht.t_sid.item(j)
        events.append((t, BpTransition(
            target=ht.states[sid], rate=ht.t_rate.item(j),
            kind=TRANSITION_KINDS[ht.t_kind.item(j)])))
    return BpPath(initial=start, events=tuple(events), horizon=t_end)


def _coalescence_block(ht: HTTable, start: int, n: int, rng) -> np.ndarray:
    """First coalescence times of n replicates started at state id start;
    infinity for those that do not merge before the horizon.

    Each round, every live replicate proposes one time against the
    suffix maximum at its current knot, which dominates its rate from
    that knot to the horizon.  It stops once the proposal passes the
    horizon or the bound is 0.  An accepted proposal picks its transition
    with odds rate * interpolated target series, and a merge retires the
    replicate.  Each round first builds the tables of new states.
    """
    rows, grid, step, T = ht.rows, ht.grid, ht.step, ht.T
    last = len(grid) - 2
    out = np.full(n, np.inf)
    rep = np.arange(n)
    t = np.zeros(n)
    sid = np.full(n, start, dtype=np.int64)
    while rep.size:
        ht.build(sid)
        tab = ht.tab[sid]
        k = np.minimum((t / step).astype(np.int64), last)
        lam = rows[ht.top - 2 * tab - 1, k]
        t = t + rng.exponential(1.0 / np.where(lam > 0.0, lam, 1.0))
        go = (lam > 0.0) & (t < T)
        rep, t, sid, tab, lam = rep[go], t[go], sid[go], tab[go], lam[go]
        if not rep.size:
            break
        k = np.minimum((t / step).astype(np.int64), last)
        theta = (t - grid[k]) / step
        cols = k[:, None] + (0, 1)
        w = np.column_stack((1.0 - theta, theta))
        den = (w * rows[sid[:, None], cols]).sum(axis=1)
        if np.any(den <= 0.0):
            raise ParamError("h positivity violated")
        lam_t = (w * rows[ht.top - 2 * tab[:, None], cols]).sum(axis=1) / den
        acc = np.flatnonzero(rng.random(rep.size) * lam < lam_t)
        if not acc.size:
            continue
        # the accepted replicates' transition segments, laid end to end
        lo = ht.ptr[tab[acc]]
        cnt = ht.ptr[tab[acc] + 1] - lo
        ends = np.cumsum(cnt)
        owner = np.repeat(np.arange(acc.size), cnt)
        pos = np.arange(ends[-1]) + np.repeat(lo - (ends - cnt), cnt)
        g = acc[owner]
        weight = ht.t_rate[pos] * (
            w[g] * rows[ht.t_sid[pos, None], cols[g]]).sum(axis=1)
        cum = np.cumsum(weight)
        base = np.concatenate(((0.0,), cum))[ends - cnt]
        x = base + rng.random(acc.size) * (cum[ends - 1] - base)
        chosen = pos[np.minimum(np.searchsorted(cum, x, side="right"),
                                ends - 1)]
        sid[acc] = ht.t_sid[chosen]
        merged = acc[ht.t_merge[chosen]]
        out[rep[merged]] = t[merged]
        keep = np.ones(rep.size, dtype=bool)
        keep[merged] = False
        rep, t, sid = rep[keep], t[keep], sid[keep]
    return out


def conditioned_coalescence_times(p: ModelParams, T: float, reps: int,
                                  seed: int, tagged: dict, nu,
                                  blocks) -> np.ndarray:
    """First coalescence times of the lines of the tagged sites, given
    their types `tagged` (site -> type) at time 0, with the population
    started from law nu at time -T; infinity where no two lines merge
    within T.

    The reps replicates run in blocks of BLOCK_REPS under the policy of
    `forward._blocks`: only the block indices in `blocks` run, and their
    times come back in that order; a bad index is refused before any
    table is built.  The horizon table and its thinning tables are
    shared by the blocks of one call.
    """
    runs = _blocks(reps, BLOCK_REPS, seed, blocks)
    ht = make_inhomogeneous_kernel(p, nu, T).ht
    start = ht.sids((canonical_start(p, tagged).key,)).item(0)
    return np.concatenate([np.zeros(0)] + [
        _coalescence_block(ht, start, n, rng) for n, rng in runs])


@dataclass(frozen=True)
class ConditionedSample:
    path: BpPath
    lines: dict


def sample_conditioned_lines(p: ModelParams, xi_star: dict, mu, T: float, rng,
                             kernel: HTransformedKernel | None = None
                             ) -> ConditionedSample:
    """Ancestral lines over [-T, 0] of the tagged sites, conditioned on
    their observed types xi_star at time 0, started from law mu at -T."""
    start = canonical_start(p, xi_star)
    if kernel is None:
        kernel = make_inhomogeneous_kernel(p, mu, T)
    path = sample_transformed_path(kernel, start, rng, t_end=T)
    return ConditionedSample(path=path, lines=reverse_to_lines(path))


def first_coalescence_time(path: BpPath) -> float:
    """Backward time at which the number of blocks first drops; infinity
    if it never does within the horizon."""
    n_blocks = len(path.initial.blocks)
    for (t, tr) in path.events:
        m = len(tr.target.blocks)
        if m < n_blocks:
            return t
        n_blocks = m
    return float("inf")


def forest_line(forest: LineageForest, site: int) -> LinePath:
    """(type, site) line of the lineage at `site`, over shifted time
    [origin - now, 0], matching the reversed backward convention."""
    breaks = []
    idx = forest.heads[site]
    chain = []
    while idx is not None:
        chain.append(idx)
        idx = forest.nodes[idx].parent
    chain.reverse()
    exit_times = [forest.nodes[k].birth_time for k in chain[1:]] + [np.inf]
    for k, exit_t in zip(chain, exit_times):
        node = forest.nodes[k]
        breaks.append((node.birth_time, (node.type_at_birth, node.site)))
        for (mt, mu) in node.mutations:
            if mt < exit_t:
                breaks.append((mt, (mu, node.site)))
    shift = forest.now
    times = tuple(bt - shift for bt, _ in breaks)
    values = tuple(v for _, v in breaks)
    return LinePath(times=times, values=values,
                    domain=(forest.time_origin - shift, 0.0))


def sample_config(p: ModelParams, mu, rng) -> tuple:
    """Draw a type configuration from a start law (product or explicit)."""
    if isinstance(mu, (list, tuple, np.ndarray)):
        arr = np.asarray(mu, dtype=float)
        if arr.shape == (p.d,):
            return tuple(int(u) for u in rng.choice(p.d, size=p.N, p=arr))
    configs = _type_configs(p)
    vec = config_law_vector(p, mu, configs)
    k = int(rng.choice(len(configs), p=vec))
    return configs[k]


@dataclass(frozen=True)
class FunctionalCheck:
    mean_forward: float
    se_forward: float
    accepted: int
    mean_backward: float
    se_backward: float
    pooled_se: float

    @property
    def gap(self) -> float:
        return abs(self.mean_forward - self.mean_backward)


def conditioned_functional_check(p: ModelParams, xi_star: dict, mu, T: float,
                                 functional, reps_forward: int,
                                 reps_backward: int, seed: int) -> FunctionalCheck:
    """Two independent estimates of a path functional of the tagged lines
    given their time-zero types.

    Forward route: simulate populations from mu for time T, keep those
    whose tagged sites show the observed types, and evaluate the
    functional on their actual lines.  Backward route: sample the
    conditioned chain and evaluate on the reversed lines.
    """
    validate_params(p)
    j_sites = sorted(xi_star)
    rng_f = np.random.Generator(np.random.Philox(key=(seed, 0)))
    rng_b = np.random.Generator(np.random.Philox(key=(seed, 1)))

    vals_f = []
    for _ in range(reps_forward):
        types0 = sample_config(p, mu, rng_f)
        forest = init_forest(p, 0.0, types0)
        run_until(forest, p, T, rng_f)
        if all(forest.current_types[j] == xi_star[j] for j in j_sites):
            lines = {j: forest_line(forest, j) for j in j_sites}
            vals_f.append(float(functional(lines)))
    if len(vals_f) < 2:
        raise ParamError("too few accepted forward replicates")
    vf = np.array(vals_f)
    mean_f = float(vf.mean())
    se_f = float(vf.std(ddof=1) / np.sqrt(len(vf)))

    kernel = make_inhomogeneous_kernel(p, mu, T)
    vals_b = np.empty(reps_backward)
    for r in range(reps_backward):
        sample = sample_conditioned_lines(p, xi_star, mu, T, rng_b,
                                          kernel=kernel)
        vals_b[r] = float(functional(sample.lines))
    mean_b = float(vals_b.mean())
    se_b = float(vals_b.std(ddof=1) / np.sqrt(reps_backward))

    pooled = float(np.hypot(se_f, se_b))
    return FunctionalCheck(mean_forward=mean_f, se_forward=se_f,
                           accepted=len(vals_f), mean_backward=mean_b,
                           se_backward=se_b, pooled_se=pooled)
