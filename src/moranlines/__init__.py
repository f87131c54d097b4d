"""Finite-population lineage simulation and exact verification toolkit.

Forward simulation of a labeled population with selection and
type-dependent mutation, keeping whole ancestral paths; an enriched
backward process over tagged sites and active type sets; exact
weighted-semigroup identities connecting the two on small populations;
conditioned (survival-reweighted) path samplers; and reduced chains for
the common-ancestor type and the pair genealogical distance, with
equilibrium and survival solvers plus diffusion-limit variants.
"""
from .model import (BudgetError, ModelParams, ParamError, StationaryTypeLaw,
                    finite_stationary_law, moment_recurrence_residuals,
                    pn_probability, resampling_rate, two_type_mutation_rates,
                    validate_params, wf_single_moment)
from .forward import (ForestNode, HmmEvent, LineageForest, cat_fixation_type,
                      genealogical_distance, init_forest,
                      neutral_pair_distance_samples, pair_block_count,
                      pair_distance_samples, path_value, run_until)
from .backward import (BpPath, BpState, BpTransition, LinePath,
                       TRANSITION_KINDS, canonical_start,
                       enumerate_transitions, feynman_kac_V, make_state,
                       path_V_integral, reverse_to_lines, simulate_bp)
from .exact import (DualityReport, GeneratorMatrix, build_bp_generator,
                    build_type_generator, check_duality, compute_h,
                    compute_hT, config_law_vector, duality_reports,
                    expm_apply, harmonic_residual)
from .transformed import (ConditionedSample, FunctionalCheck, HTTable,
                          HTransformedKernel, conditioned_coalescence_times,
                          conditioned_functional_check,
                          first_coalescence_time, forest_line,
                          make_homogeneous_kernel, make_inhomogeneous_kernel,
                          sample_conditioned_lines, sample_config,
                          sample_transformed_path, transformed_rates)
from .reduced import (ABSORBED, CatChainSpec, CatEquilibrium,
                      ChainVsBpReport, DistChainSpec, LemmaResidualReport,
                      SurvivalTable, TaylorCoeffs, Y_STATES, cat_chain_vs_bp,
                      cat_equilibrium, cat_generator, chains_vs_bp,
                      dist_chain_vs_bp, dist_generator, dist_survival,
                      dist_taylor_coeffs, lemma_ode_residual)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "BudgetError", "ModelParams", "ParamError", "StationaryTypeLaw",
    "finite_stationary_law", "moment_recurrence_residuals", "pn_probability",
    "resampling_rate", "two_type_mutation_rates", "validate_params",
    "wf_single_moment",
    # forward
    "ForestNode", "HmmEvent", "LineageForest", "cat_fixation_type",
    "genealogical_distance",
    "init_forest", "neutral_pair_distance_samples", "pair_block_count",
    "pair_distance_samples", "path_value", "run_until",
    # backward
    "BpPath", "BpState", "BpTransition", "LinePath", "TRANSITION_KINDS",
    "canonical_start", "enumerate_transitions", "feynman_kac_V", "make_state",
    "path_V_integral", "reverse_to_lines", "simulate_bp",
    # exact
    "DualityReport", "GeneratorMatrix", "build_bp_generator",
    "build_type_generator", "check_duality", "compute_h", "compute_hT",
    "config_law_vector", "duality_reports", "expm_apply",
    "harmonic_residual",
    # transformed
    "ConditionedSample", "FunctionalCheck", "HTTable", "HTransformedKernel",
    "conditioned_coalescence_times", "conditioned_functional_check", "first_coalescence_time", "forest_line",
    "make_homogeneous_kernel", "make_inhomogeneous_kernel",
    "sample_conditioned_lines", "sample_config", "sample_transformed_path",
    "transformed_rates",
    # reduced
    "ABSORBED", "CatChainSpec", "CatEquilibrium", "ChainVsBpReport",
    "DistChainSpec", "LemmaResidualReport", "SurvivalTable", "TaylorCoeffs",
    "Y_STATES", "cat_chain_vs_bp", "cat_equilibrium", "cat_generator",
    "chains_vs_bp", "dist_chain_vs_bp", "dist_generator", "dist_survival",
    "dist_taylor_coeffs", "lemma_ode_residual",
]
