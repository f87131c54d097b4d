"""Per-layer metrics of a traced run, derived from tracer summaries.

Names follow ``<module>.<function>.<stat>``: ``calls``, ``s`` (inclusive
time), ``self_s`` (span minus child spans), ``p50_us``/``p99_us`` (per
call), or a counter.  Counters repeat exactly for a fixed seed; times
are medians over the traced repetitions.
"""
from __future__ import annotations

import statistics

# (name, unit, better); BENCHMARK.json lists the same names in this order
PER_LAYER = (
    ("backward.enumerate_transitions.calls", "count", "lower"),
    ("backward.enumerate_transitions.self_s", "s", "lower"),
    ("backward.transitions", "count", "lower"),
    ("backward.states_per_s", "1/s", "higher"),
    ("backward.feynman_kac_V.calls", "count", "lower"),
    ("backward.feynman_kac_V.self_s", "s", "lower"),
    ("exact.build_bp_generator.calls", "count", "lower"),
    ("exact.build_bp_generator.self_s", "s", "lower"),
    ("exact.build_bp_generator.states", "count", "lower"),
    ("exact.build_bp_generator.nnz", "count", "lower"),
    ("exact.bp_states_per_s", "1/s", "higher"),
    ("exact.build_type_generator.calls", "count", "lower"),
    ("exact.build_type_generator.self_s", "s", "lower"),
    ("exact.build_type_generator.states", "count", "lower"),
    ("exact.duality_reports.self_s", "s", "lower"),
    ("exact.compute_h.calls", "count", "lower"),
    ("exact.compute_h.self_s", "s", "lower"),
    ("exact.h_star_vector.calls", "count", "lower"),
    ("exact.h_star_vector.self_s", "s", "lower"),
    ("exact.expm_apply.calls", "count", "lower"),
    ("exact.expm_apply.self_s", "s", "lower"),
    ("exact.expm_apply.p50_us", "us", "lower"),
    ("exact.expm_apply.p99_us", "us", "lower"),
    ("exact.expm_apply.K_sum", "count", "lower"),
    ("exact.expm_apply.K_max", "count", "lower"),
    ("exact.expm_apply.matvec_nnz", "count", "lower"),
    ("transformed.make_inhomogeneous_kernel.calls", "count", "lower"),
    ("transformed.make_inhomogeneous_kernel.s", "s", "lower"),
    ("transformed.make_homogeneous_kernel.s", "s", "lower"),
    ("transformed.sample_conditioned_lines.calls", "count", "lower"),
    ("transformed.sample_conditioned_lines.self_s", "s", "lower"),
    ("transformed.sample_conditioned_lines.p50_us", "us", "lower"),
    ("transformed.sample_conditioned_lines.p99_us", "us", "lower"),
    ("transformed.sample_transformed_path.calls", "count", "lower"),
    ("transformed.sample_transformed_path.self_s", "s", "lower"),
    ("transformed.paths_per_s", "1/s", "higher"),
    ("transformed.events_per_path", "count", "lower"),
    ("transformed.tables_built", "count", "lower"),
    ("transformed.cache_hit_rate", "ratio", "higher"),
    ("transformed.thinning_acceptance", "ratio", "higher"),
    ("forward.run_until.calls", "count", "lower"),
    ("forward.run_until.self_s", "s", "lower"),
    ("forward.run_until.events", "count", "lower"),
    ("forward.events_per_s", "1/s", "higher"),
    ("forward.genealogical_distance.calls", "count", "lower"),
    ("forward.genealogical_distance.self_s", "s", "lower"),
    ("forward.neutral_pair_distance_samples.calls", "count", "lower"),
    ("forward.neutral_pair_distance_samples.s", "s", "lower"),
    ("forward.neutral_pair_distance_samples.rss_rise_mb", "MB", "lower"),
    ("forward.pair_reps_per_s", "1/s", "higher"),
    ("reduced.dist_survival.calls", "count", "lower"),
    ("reduced.dist_survival.self_s", "s", "lower"),
    ("reduced.dist_survival.n_top", "count", "lower"),
    ("reduced.ode.solves", "count", "lower"),
    ("reduced.ode.nfev", "count", "lower"),
    ("reduced.ode.njev", "count", "lower"),
    ("reduced.ode.nlu", "count", "lower"),
    ("reduced.cat_equilibrium.calls", "count", "lower"),
    ("reduced.cat_equilibrium.self_s", "s", "lower"),
    ("reduced.cat_equilibrium.n_top", "count", "lower"),
    ("reduced.dist_taylor_coeffs.s", "s", "lower"),
    ("reduced.cat_chain_vs_bp.self_s", "s", "lower"),
    ("reduced.dist_chain_vs_bp.self_s", "s", "lower"),
    ("model.finite_stationary_law.calls", "count", "lower"),
    ("model.finite_stationary_law.self_s", "s", "lower"),
    ("model.wf_single_moment.calls", "count", "lower"),
    ("model.wf_single_moment.self_s", "s", "lower"),
    ("cli.run_experiment.calls", "count", "lower"),
    ("cli.run_experiment.self_s", "s", "lower"),
    ("host.ref_loop_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# a counter is taken from the first traced repetition, which is also the
# first repetition of the process, so the RSS high-water mark can rise
_FIRST_REP_ONLY = {n for n, unit, _ in PER_LAYER if unit in ("count", "MB")}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def rep_metrics(summary: dict) -> dict:
    """Per-layer metrics of one traced repetition."""
    funcs = summary["functions"]
    c = summary["counters"]

    def f(key, stat):
        return float(funcs.get(key, {}).get(stat, 0.0))

    out = {}
    for name, _unit, _better in PER_LAYER:
        module, rest = name.split(".", 1)
        if "." in rest:
            fn, stat = rest.rsplit(".", 1)
            key = f"{module}.{fn}"
            if stat in ("calls", "s", "self_s", "p50_us", "p99_us"):
                out[name] = f(key, stat)
            else:
                out[name] = float(c.get(name, 0.0))
    out["backward.transitions"] = c.get("backward.transitions", 0.0)
    out["backward.states_per_s"] = _ratio(
        f("backward.enumerate_transitions", "calls"),
        f("backward.enumerate_transitions", "s"))
    out["exact.bp_states_per_s"] = _ratio(
        c.get("exact.build_bp_generator.states", 0.0),
        f("exact.build_bp_generator", "s"))
    paths = f("transformed.sample_transformed_path", "calls")
    out["transformed.paths_per_s"] = _ratio(
        paths, f("transformed.sample_transformed_path", "s"))
    events = c.get("transformed.events", 0.0)
    out["transformed.events_per_path"] = _ratio(events, paths)
    out["transformed.tables_built"] = c.get("transformed.tables_built", 0.0)
    visits = c.get("transformed.visits", 0.0)
    out["transformed.cache_hit_rate"] = (
        1.0 - _ratio(out["transformed.tables_built"], visits) if visits else 0.0)
    out["transformed.thinning_acceptance"] = _ratio(
        events, c.get("transformed.proposals", 0.0))
    out["forward.events_per_s"] = _ratio(
        c.get("forward.run_until.events", 0.0), f("forward.run_until", "s"))
    out["forward.pair_reps_per_s"] = _ratio(
        c.get("forward.pair_reps", 0.0),
        f("forward.neutral_pair_distance_samples", "s"))
    return out


def per_layer(summaries: list, ref_loop_s: float, overhead_s: float) -> dict:
    """Per-layer metrics over all traced repetitions, in PER_LAYER order."""
    reps = [rep_metrics(s) for s in summaries]
    out = {}
    for name, _unit, _better in PER_LAYER:
        if name == "host.ref_loop_s":
            out[name] = ref_loop_s
        elif name == "trace.overhead_s":
            out[name] = overhead_s
        elif name in _FIRST_REP_ONLY:
            out[name] = reps[0][name]
        else:
            out[name] = statistics.median(r[name] for r in reps)
    return out
