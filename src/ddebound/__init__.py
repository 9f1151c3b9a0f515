"""ddebound: scalar comparison bounds for vector delay differential systems.

The library reduces a vector nonlinear delay system with time-varying
coefficients to a scalar delay equation whose solution provably dominates the
vector solution norm (given matched histories), then uses that scalar
equation to verify bounds, classify stability and boundedness, and estimate
trapping/stability region radii by bisection.
"""

from .analysis import (BoundednessCriterion, BoundReport, FtsReport, RadiusEstimate,
                       RegionBoundary, RobustReport, build_perturbed_scalar,
                       classify_fts, estimate_scalar_radius, estimate_vector_region,
                       frozen_scalar_radius, robust_stability_check,
                       verify_pointwise_ordering)
from .config import ConfigError, RunConfig, load_config, load_config_text
from .dde_core import (DelayProblem, DelaySpec, HistoryFunction, IntegrationError,
                       ScalarDelaySystem, ToleranceSettings, Trajectory, VectorDelaySystem,
                       integrate, on_arrays)
from .expressions import EvaluationError, ExpressionSyntaxError, parse_expression
from .linalg import MatrixFunction, VectorFunction, spectral_norm
from .linear_aux import LinearScalarDDE, build_linear_auxiliary, superposition_check
from .majorant import (LinearizedCoefficients, PolynomialMajorant, PolynomialTerm,
                       linearize_majorant, majorize_polynomial)
from .reduction import (CoefficientPair, FundamentalMatrixSolution,
                        IllConditionedError, build_autonomous_auxiliary,
                        build_scalar_auxiliary, compute_fundamental_matrix)
from .vectorfield import DelayedMatrixTerm, NonlinearTerm, PolynomialVectorField

__version__ = "0.1.0"
