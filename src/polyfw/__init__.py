"""Projection-free stochastic optimization over bounded polytopes: standard
and away-step Frank-Wolfe with sampled gradients, analysis diagnostics, and
a replicated experiment harness."""

from .diagnostics import AnalysisConstants, compute_constants, lyapunov, verify_trace
from .frank_wolfe import (
    ActiveSet,
    IterationRecord,
    RunTrace,
    away_fw_step,
    run,
    standard_fw_step,
    standard_step_size,
)
from .geometry import (
    GeometryConstants,
    Polytope,
    active_index_set,
    active_index_set_of_vertex_set,
    enumerate_vertices,
    geometry_constants,
    lmo,
    polytope_from_json,
    probability_simplex,
    unit_box,
    unit_simplex,
)
from .harness import (
    ExperimentConfig,
    SummaryStats,
    concentration_experiment,
    fit_loglog_slope,
    run_experiment,
)
from .objectives import QuadraticObjective, ReferenceSolution, reference_solution
from .sampling import (
    NoiseModel,
    SamplePlan,
    chebyshev_tail_bound,
    estimate_gradient,
    plan_sample_size,
)
from .simplex_lp import lmo_simplex_method, solve_lp

__all__ = [
    "ActiveSet",
    "AnalysisConstants",
    "ExperimentConfig",
    "GeometryConstants",
    "IterationRecord",
    "NoiseModel",
    "Polytope",
    "QuadraticObjective",
    "ReferenceSolution",
    "RunTrace",
    "SamplePlan",
    "SummaryStats",
    "active_index_set",
    "active_index_set_of_vertex_set",
    "away_fw_step",
    "chebyshev_tail_bound",
    "compute_constants",
    "concentration_experiment",
    "enumerate_vertices",
    "estimate_gradient",
    "fit_loglog_slope",
    "geometry_constants",
    "lmo",
    "lmo_simplex_method",
    "lyapunov",
    "plan_sample_size",
    "polytope_from_json",
    "probability_simplex",
    "reference_solution",
    "run",
    "run_experiment",
    "solve_lp",
    "standard_fw_step",
    "standard_step_size",
    "unit_box",
    "unit_simplex",
    "verify_trace",
]
