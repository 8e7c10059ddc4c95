"""Conformable-calculus hydrogen atom: operators, wavefunctions, certification."""

from .calculus import (
    conf_derivative,
    conf_derivative_limit,
    conf_integral,
    conf_second_derivative,
)
from .errors import (
    ConvergenceError,
    DomainError,
    EvaluationError,
    UnsupportedDegreeError,
)
from .hydrogen import (
    DensityCurve,
    ModelParams,
    QuantumNumbers,
    ScaledRadialProblem,
    angular_Y,
    energy_level,
    full_wavefunction,
    probability_density_radial,
    radial_wavefunction,
    scaled_problem,
    u_function,
)
from .special import (
    LaguerreParams,
    LegendreParams,
    conf_laguerre,
    conf_laguerre_rodrigues_oracle,
    conf_legendre,
    laguerre_assoc,
    laguerre_orthogonality_constant,
    legendre_assoc,
)
from .verification import (
    ResidualReport,
    angular_ode_residual,
    classical_limit_report,
    laguerre_ode_residual,
    normalization_report,
    radial_ode_residual,
    run_verification,
    u_ode_residual,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DensityCurve",
    "DomainError",
    "EvaluationError",
    "LaguerreParams",
    "LegendreParams",
    "ModelParams",
    "QuantumNumbers",
    "ResidualReport",
    "ScaledRadialProblem",
    "UnsupportedDegreeError",
    "angular_Y",
    "angular_ode_residual",
    "classical_limit_report",
    "conf_derivative",
    "conf_derivative_limit",
    "conf_integral",
    "conf_laguerre",
    "conf_laguerre_rodrigues_oracle",
    "conf_legendre",
    "conf_second_derivative",
    "energy_level",
    "full_wavefunction",
    "laguerre_assoc",
    "laguerre_ode_residual",
    "laguerre_orthogonality_constant",
    "legendre_assoc",
    "normalization_report",
    "probability_density_radial",
    "radial_ode_residual",
    "radial_wavefunction",
    "run_verification",
    "scaled_problem",
    "u_function",
    "u_ode_residual",
]
