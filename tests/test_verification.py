import json
import math
import re

import numpy as np
import pytest

from confhydro import hydrogen, special, verification
from confhydro.calculus import Differentiable, conf_derivative, conf_second_derivative
from confhydro.errors import ConvergenceError, DomainError, EvaluationError
from confhydro.hydrogen import (
    ModelParams,
    QuantumNumbers,
    radial_with_derivatives,
    u_with_derivatives,
)
from confhydro.verification import (
    ResidualReport,
    _conformable_terms,
    angular_ode_residual,
    classical_limit_report,
    default_grid,
    laguerre_ode_residual,
    normalization_report,
    radial_ode_residual,
    run_verification,
    tilt_perturbation,
    u_ode_residual,
)

MODERATE_R = np.geomspace(0.5, 10.0, 60)


def moderate_theta(alpha: float) -> np.ndarray:
    x = np.linspace(0.5, math.pi - 0.5, 60)
    return x ** (1.0 / alpha)


class TestResidualLevels:
    @pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
    @pytest.mark.parametrize("n,l", [(1, 0), (2, 1), (3, 1)])
    def test_radial_analytic_near_zero(self, alpha, n, l):
        rep = radial_ode_residual(QuantumNumbers(n, l), ModelParams.natural(alpha))
        assert rep.max_rel_residual <= 1e-6
        assert rep.derivative_mode == "analytic"

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("n,l", [(2, 0), (3, 2)])
    def test_u_analytic_near_zero(self, alpha, n, l):
        rep = u_ode_residual(QuantumNumbers(n, l), ModelParams.natural(alpha))
        assert rep.max_rel_residual <= 1e-6

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("n,l", [(3, 0), (4, 1)])
    def test_laguerre_analytic_near_zero(self, alpha, n, l):
        rep = laguerre_ode_residual(QuantumNumbers(n, l), ModelParams.natural(alpha))
        assert rep.max_rel_residual <= 1e-6

    @pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
    @pytest.mark.parametrize("l,m", [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)])
    def test_angular_analytic_near_zero(self, alpha, l, m):
        rep = angular_ode_residual(l, m, alpha)
        assert rep.max_rel_residual <= 1e-5

    def test_angular_pole_guard(self):
        with pytest.raises(DomainError):
            angular_ode_residual(1, 0, 1.0, theta_grid=np.array([1e-6, 1.0]))

    def test_report_shape(self):
        rep = radial_ode_residual(QuantumNumbers(2, 1), ModelParams.natural(0.5))
        assert isinstance(rep, ResidualReport)
        d = rep.to_dict()
        assert set(d) == {
            "max_abs_residual",
            "max_rel_residual",
            "worst_point",
            "grid_size",
            "derivative_mode",
            "term_scale",
        }
        json.dumps(d)  # must be serializable as-is


class TestDerivativeModes:
    @pytest.mark.parametrize("alpha", [0.75, 1.0])
    def test_radial_fd_agrees_with_analytic(self, alpha):
        # compared through the absolute residual scaled by the largest term:
        # the FD mode carries its own noise floor, so agreement is measured
        # on a moderate grid away from the coordinate origin
        qn = QuantumNumbers(2, 1)
        p = ModelParams.natural(alpha)
        an = radial_ode_residual(qn, p, grid=MODERATE_R, mode="analytic")
        fd = radial_ode_residual(qn, p, grid=MODERATE_R, mode="finite_difference")
        gap = abs(fd.max_abs_residual - an.max_abs_residual) / an.term_scale
        assert gap <= 1e-4

    @pytest.mark.parametrize("alpha", [0.75, 1.0])
    def test_angular_fd_agrees_with_analytic(self, alpha):
        grid = moderate_theta(alpha)
        an = angular_ode_residual(2, 1, alpha, theta_grid=grid, mode="analytic")
        fd = angular_ode_residual(
            2, 1, alpha, theta_grid=grid, mode="finite_difference"
        )
        gap = abs(fd.max_abs_residual - an.max_abs_residual) / an.term_scale
        assert gap <= 1e-4

    @pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
    @pytest.mark.parametrize("n,l", [(n, l) for n in range(1, 5) for l in range(n)])
    def test_fd_exact_solution_on_default_grid(self, alpha, n, l):
        # the default grid starts at t = 1e-3, so the steps must scale with t
        qn, p = QuantumNumbers(n, l), ModelParams.natural(alpha)
        for certifier in (radial_ode_residual, u_ode_residual):
            rep = certifier(qn, p, mode="finite_difference")
            assert rep.max_rel_residual <= 1e-4, (certifier.__name__, rep)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            radial_ode_residual(
                QuantumNumbers(1, 0), ModelParams.natural(0.5), mode="symbolic"
            )


class TestArrayCertifiers:
    @pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
    @pytest.mark.parametrize("n,l", [(1, 0), (2, 1), (4, 2)])
    @pytest.mark.parametrize("triple", [radial_with_derivatives, u_with_derivatives])
    def test_terms_match_scalar_oracles(self, triple, n, l, alpha):
        qn, p = QuantumNumbers(n, l), ModelParams.natural(alpha)
        t = np.array([0.01, 0.3, 1.0, 4.5, 17.0])
        _, df, d2f = triple(qn, p, t)
        d1, d2 = _conformable_terms(t, alpha, df, d2f)
        scalar = Differentiable(
            f=lambda s: triple(qn, p, s)[0],
            df=lambda s: triple(qn, p, s)[1],
            d2f=lambda s: triple(qn, p, s)[2],
        )
        for i, ti in enumerate(t):
            assert d1[i] == pytest.approx(conf_derivative(scalar, alpha, ti), rel=1e-12)
            assert d2[i] == pytest.approx(
                conf_second_derivative(scalar, alpha, ti), rel=1e-12
            )

    @pytest.mark.parametrize("mode", ["analytic", "finite_difference"])
    def test_laguerre_calls_do_not_grow_with_the_grid(self, monkeypatch, mode):
        calls = []
        original = special.laguerre_assoc

        def counting(*args):
            calls.append(args)
            return original(*args)

        for module in (special, hydrogen, verification):
            monkeypatch.setattr(module, "laguerre_assoc", counting)
        counts = []
        for points in (20, 2000):
            calls.clear()
            radial_ode_residual(
                QuantumNumbers(3, 1),
                ModelParams.natural(0.7),
                grid=default_grid(points=points),
                mode=mode,
            )
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("mode", ["analytic", "finite_difference"])
    def test_non_finite_solution_names_the_grid_point(self, mode):
        poisoned = Differentiable(
            f=lambda t: np.where(t > 1.5, np.nan, 1.0),
            df=lambda t: 0.0 * t,
            d2f=lambda t: 0.0 * t,
        )
        with pytest.raises(EvaluationError, match=r"t=2\.0\b"):
            radial_ode_residual(
                QuantumNumbers(2, 1),
                ModelParams.natural(0.8),
                grid=np.array([0.5, 1.0, 2.0, 4.0]),
                mode=mode,
                perturbation=poisoned,
            )

    def test_nonpositive_grid_rejected(self):
        with pytest.raises(DomainError):
            laguerre_ode_residual(
                QuantumNumbers(2, 0), ModelParams.natural(0.5), grid=np.array([0.0, 1.0])
            )

    @pytest.mark.parametrize("mode", ["analytic", "finite_difference"])
    @pytest.mark.parametrize("certifier", ["radial", "u", "laguerre", "angular"])
    def test_nan_grid_rejected(self, certifier, mode):
        qn, p, grid = QuantumNumbers(2, 1), ModelParams.natural(0.5), np.array([0.5, np.nan, 2.0])
        call = {
            "radial": lambda: radial_ode_residual(qn, p, grid=grid, mode=mode),
            "u": lambda: u_ode_residual(qn, p, grid=grid, mode=mode),
            "laguerre": lambda: laguerre_ode_residual(qn, p, grid=grid, mode=mode),
            "angular": lambda: angular_ode_residual(1, 1, 0.5, theta_grid=grid, mode=mode),
        }[certifier]
        with pytest.raises(DomainError, match=re.escape("(NaN is refused)")):
            call()


class TestNegativeControls:
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_tilt_breaks_radial_equation(self, alpha):
        qn = QuantumNumbers(2, 0)
        p = ModelParams.natural(alpha)
        clean = radial_ode_residual(qn, p).max_rel_residual
        broken = radial_ode_residual(
            qn, p, perturbation=tilt_perturbation()
        ).max_rel_residual
        assert broken >= 100.0 * max(clean, 1e-12)

    def test_tilt_breaks_u_equation(self):
        qn = QuantumNumbers(3, 1)
        p = ModelParams.natural(0.75)
        clean = u_ode_residual(qn, p).max_rel_residual
        broken = u_ode_residual(qn, p, perturbation=tilt_perturbation()).max_rel_residual
        assert broken >= 100.0 * max(clean, 1e-12)

    def test_fd_mode_detects_fault_too(self):
        qn = QuantumNumbers(2, 0)
        p = ModelParams.natural(1.0)
        broken = radial_ode_residual(
            qn,
            p,
            grid=MODERATE_R,
            mode="finite_difference",
            perturbation=tilt_perturbation(),
        ).max_rel_residual
        assert broken >= 1e-3


class TestClosedFormChecks:
    def test_normalization_report(self):
        val = normalization_report(QuantumNumbers(4, 2), ModelParams.natural(0.6))
        assert val == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n,l,alpha,r_b", [(15, 3, 1.0, 1.0), (20, 10, 0.5, 1.7)])
    def test_convergence_error_names_the_state(self, n, l, alpha, r_b):
        with pytest.raises(ConvergenceError) as err:
            normalization_report(QuantumNumbers(n, l), ModelParams.physical(alpha, r_b))
        message = str(err.value)
        assert message.startswith("quadrature refinements disagree: ")
        assert message.endswith(f"in the normalization integral of (n, l) = ({n}, {l}) at alpha = {alpha!r}, r_b = {r_b!r}")
        assert f"{err.value.coarse!r} vs {err.value.fine!r} (rtol=1e-09)" in message
        assert err.value.rtol == 1e-9 and abs(err.value.fine - err.value.coarse) > 1e-9

    def test_classical_limit_is_tight(self):
        assert classical_limit_report(3) <= 1e-12

    def test_nearby_order_is_detectably_different(self):
        # at alpha = 0.999 the deviation from the alpha = 1 forms must exceed
        # the classical-limit threshold by a wide margin
        assert classical_limit_report(2, alpha=0.999) > 1e-4

    def test_n_max_validation(self):
        with pytest.raises(ValueError):
            classical_limit_report(0)
        with pytest.raises(ValueError):
            classical_limit_report(4)


class TestSuiteRunner:
    def test_quick_passes(self):
        report = run_verification("quick")
        assert report["passed"] is True
        assert report["schema_version"] == 1
        assert report["level"] == "quick"
        names = [c["name"] for c in report["checks"]]
        assert "negative_control_residual" in names
        assert all(c["passed"] for c in report["checks"])
        json.dumps(report)

    def test_quick_budget(self):
        report = run_verification("quick")
        assert report["elapsed_seconds"] < 5.0

    def test_injected_fault_fails(self):
        report = run_verification("quick", perturbation=tilt_perturbation())
        assert report["passed"] is False

    def test_bad_level(self):
        with pytest.raises(ValueError):
            run_verification("medium")
