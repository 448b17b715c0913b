"""Numerics for derivatives of measure functionals on discretized Wiener space.

The package builds unweighted path pools on a time grid, moves probability
mass around with density curves and Girsanov reweighting, differentiates
cylindrical and nested functionals of the induced laws, extracts predictable
integrands, and pushes a density through the staged approximation pipeline
(conditioning, truncation, mollification, normalization, integrand
extraction, step freezing). The cli module exposes the same batteries as the
``wcalc`` command.
"""

__version__ = "0.1.0"

from .wiener_grid import TimeGrid, PathPool, make_grid, sample_paths, \
    brownian_at, dyadic_coarsen
from .rng import substream
from .measure_ops import EmpiricalLaw, pushforward_law, wasserstein1, \
    weighted_expectation, kernel_regression, conditional_expectation
from .functionals import CylindricalFn, NestedFn, make_functional, \
    lifted_derivative_fd
from .numerics import gauss_hermite, antiderivative_at, binned_gaussian_smooth, \
    bump_quad_1d, capped_identity, capped_identity_deriv, radial_cutoff, \
    radial_cutoff_deriv
from .density_deriv import DensityCurve, renormalize, \
    exponential_curve, mixture_curve, density_derivative_profile, \
    recenter_to_base, recenter_to_density, grad_phi_antiderivative, \
    chain_rule_rhs, chain_rule_lhs_fd, \
    second_order_check_1d, second_order_check_multidim, \
    multidim_derivative_repr, nested_derivative_check
from .girsanov import StepProcess, constant_process, deterministic_process, \
    doleans_exponential, shift_forward, shift_backward, girsanov_check
from .clark_ocone import gaussian_smooth, clark_ocone_decompose, \
    clark_ocone_integrand, reconstruction_error
from .approx_pipeline import PipelineConfig, StageReport, PipelineReport, \
    ConditionedDensity, TruncatedDensity, \
    MollifiedDensity, stage5_normalize, stage5_derivative, pipeline_run, \
    pipeline_ladders, final_errors_at, DEFAULT_THRESHOLDS
from .density_functional import GridDensity, density_grid, kde_density, \
    bensoussan_check
from .checks import CheckRecord, CHECKS, run_check
