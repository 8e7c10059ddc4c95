"""The public surface of confhydro: the names of ``__all__``, each one named in
the README.  Adding or removing a public name takes an edit of this list."""
import re
from pathlib import Path

import confhydro

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = [
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


def test_public_names_are_pinned_and_named_in_the_readme():
    assert sorted(confhydro.__all__) == PUBLIC
    assert all(hasattr(confhydro, name) for name in PUBLIC)
    # the inline code spans of the README, outside its fenced blocks
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    spans = re.findall(r"`([^`]+)`", text)
    unnamed = [name for name in PUBLIC if not any(re.search(rf"\b{name}\b", s) for s in spans)]
    assert unnamed == []
