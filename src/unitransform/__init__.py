"""Numerical integral-transform toolkit.

Fourier series, Fourier transform, Laplace transform and the 2-D
Fourier-Laplace transform in one consistent framework: each arises from
a first-order differential eigenvalue problem with a discrete or
continuous spectrum, and each comes with its inverse, orthogonality
checks, and continuum-residual tests.
"""

from .eigenproblems import (
    EigenProblemSpec,
    Eigenvalue,
    WindowedTestSequence,
    discrete_eigenvalues,
    eigenfunction_eval,
    residual_ratio,
)
from .errors import (
    AliasingError,
    ContractViolationError,
    DivergenceError,
    EvaluationError,
    ExcludedSampleWarning,
    InsufficientDataError,
    ParseError,
    QuadratureError,
    TruncationWarning,
    UniTransformError,
)
from .expressions import canonical, evaluate, evaluate_array, parse
from .fourier_laplace import FourierLaplaceSpectrum, forward_fl, inverse_fl
from .fourier_series import (
    FourierCoefficientSet,
    RealFourierCoefficientSet,
    complex_coefficients,
    complex_to_real,
    gram_matrix,
    real_coefficients,
    synthesize,
)
from .fourier_transform import ContinuousSpectrum, dirichlet_delta, forward_ft, inverse_ft
from .laplace import (
    ExponentialTypeEstimate,
    LaplaceSpectrum,
    bromwich_inverse,
    bromwich_inverse_from_samples,
    default_inversion_sigma,
    estimate_abscissa,
    forward_laplace,
    laplace_line,
    weighted_orthogonality_check,
)
from .numerics import (
    Grid,
    HalfLineResult,
    QuadratureSpec,
    SampledFunction,
    SampledFunction2D,
    integrate,
    integrate_halfline,
    oscillation_panels,
)

__version__ = "0.1.0"

__all__ = [
    "AliasingError",
    "ContinuousSpectrum",
    "ContractViolationError",
    "DivergenceError",
    "EigenProblemSpec",
    "Eigenvalue",
    "EvaluationError",
    "ExcludedSampleWarning",
    "ExponentialTypeEstimate",
    "FourierCoefficientSet",
    "FourierLaplaceSpectrum",
    "Grid",
    "HalfLineResult",
    "InsufficientDataError",
    "LaplaceSpectrum",
    "ParseError",
    "QuadratureError",
    "QuadratureSpec",
    "RealFourierCoefficientSet",
    "SampledFunction",
    "SampledFunction2D",
    "TruncationWarning",
    "UniTransformError",
    "WindowedTestSequence",
    "bromwich_inverse",
    "bromwich_inverse_from_samples",
    "canonical",
    "complex_coefficients",
    "complex_to_real",
    "default_inversion_sigma",
    "dirichlet_delta",
    "discrete_eigenvalues",
    "eigenfunction_eval",
    "estimate_abscissa",
    "evaluate",
    "evaluate_array",
    "forward_fl",
    "forward_ft",
    "forward_laplace",
    "gram_matrix",
    "integrate",
    "integrate_halfline",
    "inverse_fl",
    "inverse_ft",
    "laplace_line",
    "oscillation_panels",
    "parse",
    "real_coefficients",
    "residual_ratio",
    "synthesize",
    "weighted_orthogonality_check",
]
