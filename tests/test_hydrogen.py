import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from confhydro import hydrogen, special
from confhydro.calculus import _classical, conf_integral
from confhydro.errors import ConvergenceError, DomainError
from confhydro.hydrogen import (
    ModelParams,
    QuantumNumbers,
    angular_Y,
    energy_level,
    full_wavefunction,
    probability_density_radial,
    radial_wavefunction,
    radial_with_derivatives,
    scaled_problem,
    u_function,
    u_with_derivatives,
)
from confhydro.reference import (
    PSI_CLOSED_FORMS,
    RADIAL_CLOSED_FORMS,
    TEXTBOOK_RADIAL,
    textbook_spherical_harmonic,
)
from confhydro.special import LaguerreParams, LegendreParams, laguerre_assoc, legendre_assoc
from confhydro.verification import default_grid, normalization_report, radial_ode_residual, u_ode_residual

TABLE_ALPHAS = [0.5, 0.75, 1.0]
R_GRID = np.linspace(0.2, 15.0, 50)


class TestQuantumNumbers:
    @pytest.mark.parametrize("n,l,m", [(0, 0, 0), (1, 1, 0), (2, 1, 2), (3, -1, 0)])
    def test_selection_rules(self, n, l, m):
        with pytest.raises(ValueError):
            QuantumNumbers(n, l, m)

    def test_valid_states(self):
        QuantumNumbers(3, 2, -2)
        QuantumNumbers(1, 0, 0)

    @pytest.mark.parametrize(
        "args,message",
        [
            ((2.5, 1), "n must be an integer, got 2.5"),
            ((True, 0), "n must be an integer, got True"),
            ((2, 1.0), "l must be an integer, got 1.0"),
            ((2, 1, 1.0), "m_l must be an integer, got 1.0"),
        ],
    )
    def test_non_integers_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            QuantumNumbers(*args)

    def test_numpy_integers_accepted(self):
        qn = QuantumNumbers(np.int64(3), np.int32(2), np.int8(-1))
        assert (qn.n, qn.l, qn.m_l) == (3, 2, -1)
        assert radial_wavefunction(qn, ModelParams(0.8), 1.0) == pytest.approx(
            radial_wavefunction(QuantumNumbers(3, 2, -1), ModelParams(0.8), 1.0)
        )


class TestModelParams:
    def test_natural_forces_unit_radius(self):
        assert ModelParams.natural(0.7).r_b_alpha == 1.0

    def test_physical_mode(self):
        p = ModelParams(0.7, 0.529)
        assert p.r_b_alpha == pytest.approx(0.529)
        with pytest.raises(ValueError):
            ModelParams(0.7, -1.0)

    def test_mode_is_gone(self):
        assert not hasattr(ModelParams(0.7), "mode")
        with pytest.raises(TypeError):
            ModelParams(alpha=0.7, mode="physical")

    def test_energy_scale_is_gone(self):
        assert not hasattr(ModelParams(0.7), "energy_scale")
        with pytest.raises(TypeError):
            energy_level(1, 1.0, energy_scale=27.2)

    @pytest.mark.parametrize("alpha", [0.5, 1, np.float64(0.8)])
    def test_bare_alpha_is_coerced(self, alpha):
        p = ModelParams(alpha=alpha)
        assert p == ModelParams(alpha)
        assert radial_wavefunction(QuantumNumbers(2, 1), p, 1.0) == radial_wavefunction(
            QuantumNumbers(2, 1), ModelParams(alpha), 1.0
        )

    def test_bad_bare_alpha_rejected(self):
        with pytest.raises(DomainError):
            ModelParams(alpha=1.5)

    @pytest.mark.parametrize("r_b", [float("nan"), float("inf"), 0.0, -1.0])
    def test_non_finite_or_nonpositive_radius_rejected(self, r_b):
        with pytest.raises(ValueError, match="r_b_alpha must be finite and > 0"):
            ModelParams(0.5, r_b)


class TestEnergyLevels:
    def test_classical_values(self):
        assert energy_level(1, 1.0) == pytest.approx(-13.6, abs=1e-12)
        assert energy_level(2, 1.0) == pytest.approx(-3.4, abs=1e-12)
        assert energy_level(3, 1.0) == pytest.approx(-13.6 / 9.0, abs=1e-12)

    def test_fractional_values(self):
        # frozen from -(13.6)^a / (2^(1-a) a^2 n^2) evaluated independently
        assert energy_level(1, 0.5) == pytest.approx(-10.430723848324238, rel=1e-14)
        assert energy_level(2, 0.75) == pytest.approx(-2.646757572253635, rel=1e-14)

    def test_formula_cross_check(self):
        for a in (0.5, 0.6, 0.9, 1.0):
            for n in (1, 2, 5):
                want = -(13.6**a) / (2.0 ** (1.0 - a) * a * a * n * n)
                assert energy_level(n, a) == pytest.approx(want, rel=1e-15)

    def test_monotone_in_n(self):
        for a in (0.5, 0.8, 1.0):
            levels = [energy_level(n, a) for n in range(1, 8)]
            assert all(e < 0 for e in levels)
            assert all(b > c for c, b in zip(levels, levels[1:]))

    def test_invalid_n(self):
        with pytest.raises(ValueError, match="principal quantum number must be >= 1, got 0"):
            energy_level(0, 0.5)

    @pytest.mark.parametrize("n", [2.5, True, 2.0, "2"])
    def test_non_integer_n_rejected_like_quantum_numbers(self, n):
        message = f"quantum number n must be an integer, got {n!r}"
        with pytest.raises(ValueError) as from_energy:
            energy_level(n, 1.0)
        with pytest.raises(ValueError) as from_state:
            QuantumNumbers(n, 0)
        assert str(from_energy.value) == str(from_state.value) == message

    def test_numpy_integer_n_accepted(self):
        assert energy_level(np.int64(2), 1.0) == energy_level(2, 1.0)

    @pytest.mark.parametrize("n,alpha", [(1, 1e-160), (3, 1e-160), (1, 1e-300)])
    def test_result_beyond_the_doubles_refused(self, n, alpha):
        # alpha^2 n^2 is subnormal, so the quotient overflows, or it is 0
        message = f"energy level n={n} at alpha={alpha!r} is not a finite nonzero double (-inf)"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            energy_level(n, alpha)

    def test_smallest_orders_that_still_form(self):
        assert energy_level(1, 1e-154) == pytest.approx(-5e307, rel=1e-12)


class TestScaledProblem:
    def test_parameters(self):
        prob = scaled_problem(QuantumNumbers(3, 1), ModelParams(0.5))
        assert prob.k == pytest.approx(1.0 / (0.5 * 3.0))
        assert prob.lambda_alpha == pytest.approx(1.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda qn, p: scaled_problem(qn, p),
            lambda qn, p: u_with_derivatives(qn, p, 1.0),
            lambda qn, p: radial_ode_residual(qn, p),
            lambda qn, p: u_ode_residual(qn, p),
        ],
        ids=["scaled_problem", "u_with_derivatives", "radial_ode_residual", "u_ode_residual"],
    )
    @pytest.mark.parametrize(
        "n,alpha,r_b,factor",
        [(1, 0.5, 5e-324, "0.0"), (1, 1.0, 1e-310, "1e-310"), (10, 1.0, 1e308, "inf")],
        ids=["rounds-to-0", "subnormal", "overflows"],
    )
    def test_factor_out_of_range_is_named(self, evaluate, n, alpha, r_b, factor):
        # alpha r_b n rounding to 0 made k = 1 / (alpha r_b n) a bare ZeroDivisionError
        message = (
            f"k = 1 / (alpha r_b n) of state (n, l, m) = ({n}, 0, 0) at alpha={alpha!r}, "
            f"r_b={r_b!r} is not a finite positive double: the factor alpha r_b n evaluates to {factor}"
        )
        with pytest.raises(DomainError, match=re.escape(message)):
            evaluate(QuantumNumbers(n, 0), ModelParams(alpha, r_b))


class TestRadialWavefunction:
    def test_classical_limit_matches_textbook(self):
        p = ModelParams(1.0)
        for (n, l), ref in TEXTBOOK_RADIAL.items():
            got = radial_wavefunction(QuantumNumbers(n, l), p, R_GRID)
            np.testing.assert_allclose(got, ref(R_GRID), rtol=1e-12, atol=1e-12)

    def test_frozen_point_value(self):
        # R_{2 1} at r=2, alpha=0.5; frozen after cross-checking against the
        # published closed form for that state
        got = radial_wavefunction(QuantumNumbers(2, 1), ModelParams(0.5), 2.0)
        assert got == pytest.approx(0.38607711984814364, rel=1e-13)

    @pytest.mark.parametrize("alpha", TABLE_ALPHAS)
    def test_published_radial_closed_forms(self, alpha):
        p = ModelParams(alpha)
        for (n, l), closed in RADIAL_CLOSED_FORMS.items():
            got = radial_wavefunction(QuantumNumbers(n, l), p, R_GRID)
            want = closed(alpha, 1.0, R_GRID)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_domain_error(self):
        qn, p = QuantumNumbers(1, 0), ModelParams(0.5)
        for r in (0.0, math.nan, np.array([1.0, math.nan])):
            with pytest.raises(DomainError):
                radial_wavefunction(qn, p, r)
            with pytest.raises(DomainError):
                radial_with_derivatives(qn, p, r)

    @pytest.mark.parametrize("n,l", [(1, 0), (2, 1), (4, 2)])
    def test_derivatives_against_fd(self, n, l):
        p = ModelParams(0.7)
        qn = QuantumNumbers(n, l)
        r = np.array([0.8, 2.4, 6.0])
        R, dR, d2R = radial_with_derivatives(qn, p, r)
        np.testing.assert_allclose(R, radial_wavefunction(qn, p, r), rtol=1e-14)
        h = 1e-6
        fd1 = (radial_wavefunction(qn, p, r + h) - radial_wavefunction(qn, p, r - h)) / (
            2 * h
        )
        np.testing.assert_allclose(dR, fd1, rtol=1e-7, atol=1e-10)
        h2 = 1e-4
        fd2 = (
            radial_wavefunction(qn, p, r + h2)
            - 2 * radial_wavefunction(qn, p, r)
            + radial_wavefunction(qn, p, r - h2)
        ) / (h2 * h2)
        np.testing.assert_allclose(d2R, fd2, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("alpha", [0.5, 0.75, 0.9, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_normalization(self, alpha, n):
        p = ModelParams(alpha)
        for l in range(n):
            qn = QuantumNumbers(n, l)

            def integrand(r):
                R = np.asarray(radial_wavefunction(qn, p, r), dtype=float)
                return r ** (2.0 * alpha) * R * R

            total = conf_integral(integrand, alpha, 0.0, math.inf)
            assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_radial_orthogonality(self, alpha):
        p = ModelParams(alpha)
        pairs = [((2, 0), (3, 0)), ((2, 1), (3, 1)), ((3, 0), (4, 0)), ((3, 2), (4, 2))]
        for (n1, l), (n2, _) in pairs:
            q1, q2 = QuantumNumbers(n1, l), QuantumNumbers(n2, l)

            def integrand(r):
                R1 = np.asarray(radial_wavefunction(q1, p, r), dtype=float)
                R2 = np.asarray(radial_wavefunction(q2, p, r), dtype=float)
                return r ** (2.0 * alpha) * R1 * R2

            total = conf_integral(integrand, alpha, 0.0, math.inf)
            assert abs(total) <= 1e-7


class TestScaledSolution:
    @pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
    @pytest.mark.parametrize("n,l", [(1, 0), (2, 1), (3, 1), (4, 3)])
    def test_relation_to_radial(self, alpha, n, l):
        # R(r) = 2k u(rho) / rho^alpha with rho^alpha = 2k r^alpha
        p = ModelParams(alpha)
        qn = QuantumNumbers(n, l)
        prob = scaled_problem(qn, p)
        for r in (0.6, 1.7, 5.0):
            rho = (2.0 * prob.k) ** (1.0 / alpha) * r
            rho_a = 2.0 * prob.k * r**alpha
            lhs = radial_wavefunction(qn, p, r)
            rhs = 2.0 * prob.k * u_function(qn, p, rho) / rho_a
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_derivatives_against_fd(self):
        p = ModelParams(0.6)
        qn = QuantumNumbers(3, 1)
        rho = 2.2
        u, du, d2u = u_with_derivatives(qn, p, rho)
        h = 1e-6
        up = u_function(qn, p, rho + h)
        um = u_function(qn, p, rho - h)
        assert du == pytest.approx((up - um) / (2 * h), rel=1e-7)
        h2 = 1e-4
        up = u_function(qn, p, rho + h2)
        um = u_function(qn, p, rho - h2)
        assert d2u == pytest.approx((up - 2 * u + um) / (h2 * h2), rel=1e-5)

    def test_domain_error(self):
        for rho in (-1.0, math.nan, np.array([1.0, math.nan])):
            with pytest.raises(DomainError):
                u_function(QuantumNumbers(1, 0), ModelParams(0.5), rho)

    @pytest.mark.filterwarnings("error")
    def test_u_where_u_prime_prime_overflows(self):
        # u of (2, 1) at alpha 0.5 is 4 C rho e^(-sqrt(rho)), C = 1 / (2 sqrt(3)); u
        # came from the classical triple, whose unused rho ** (alpha - 2) overflowed
        got = u_function(QuantumNumbers(2, 1), ModelParams(0.5), 1e-300)
        assert got == 1.1547005383792515e-300  # 2 / sqrt(3) * 1e-300, correctly rounded

    @pytest.mark.parametrize(
        "p", [ModelParams(0.6), ModelParams(0.8, 1.7), ModelParams(1.0)]
    )
    @pytest.mark.parametrize("n,l", [(1, 0), (2, 1), (3, 0), (4, 3)])
    def test_derivatives_obey_relation_to_radial(self, p, n, l):
        # with rho = s r, s = (2k)^(1/alpha): R(r) = u(s r) r^(-alpha), hence
        # R' = s u' r^-a - a u r^(-a-1) and
        # R'' = s^2 u'' r^-a - 2 a s u' r^(-a-1) + a (a+1) u r^(-a-2)
        a = p.alpha
        qn = QuantumNumbers(n, l)
        s = (2.0 * scaled_problem(qn, p).k) ** (1.0 / a)
        r = np.geomspace(0.05, 25.0, 40)
        R, dR, d2R = radial_with_derivatives(qn, p, r)
        u, du, d2u = u_with_derivatives(qn, p, s * r)
        expected = (
            u * r**-a,
            s * du * r**-a - a * u * r ** (-a - 1),
            s * s * d2u * r**-a - 2 * a * s * du * r ** (-a - 1) + a * (a + 1) * u * r ** (-a - 2),
        )
        for got, want in zip((R, dR, d2R), expected):
            assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    def test_scalar_in_float_out(self):
        p, qn = ModelParams(0.7), QuantumNumbers(3, 1)
        for fn in (radial_with_derivatives, u_with_derivatives):
            out = fn(qn, p, 1.3)
            assert isinstance(out, tuple) and all(type(v) is float for v in out)
            arr = fn(qn, p, np.array([1.3, 2.0]))
            assert isinstance(arr, tuple) and all(v.shape == (2,) for v in arr)


class TestAngular:
    def test_classical_limit_matches_textbook(self):
        th, ph = 1.1, 0.7
        for l in range(3):
            for m in range(-l, l + 1):
                qn = QuantumNumbers(l + 1, l, m)
                got = angular_Y(qn, 1.0, th, ph)
                want = textbook_spherical_harmonic(l, m, th, ph)
                assert got == pytest.approx(complex(want), abs=1e-14)

    def test_textbook_harmonic_forms_only_its_entry(self, monkeypatch):
        # e^(i k phi) once for m != 0 and not at all for m = 0, where the
        # whole table of nine entries took it six times per call
        calls = []
        exp = np.exp
        monkeypatch.setattr(np, "exp", lambda x: calls.append(x) or exp(x))
        for l in range(3):
            for m in range(-l, l + 1):
                calls.clear()
                textbook_spherical_harmonic(l, m, np.array([1.1, 2.0]), np.array([0.7, 0.2]))
                assert len(calls) == (m != 0), (l, m)

    def test_frozen_point_value(self):
        # constant harmonic at alpha=0.5: alpha / sqrt(2 (2 pi)^alpha)
        got = angular_Y(QuantumNumbers(1, 0, 0), 0.5, 1.2, 0.3)
        assert got == pytest.approx(0.22331096043450058, rel=1e-13)
        assert got == pytest.approx(0.5 / math.sqrt(2.0 * (2.0 * math.pi) ** 0.5))

    def test_negative_order_conjugation(self):
        # Y_l^{-m} = (-1)^m alpha^(2m) conj(Y_l^m)
        a, th, ph = 0.75, 1.3, 0.9
        for l, m in [(1, 1), (2, 1), (2, 2), (3, 2)]:
            plus = angular_Y(QuantumNumbers(l + 1, l, m), a, th, ph)
            minus = angular_Y(QuantumNumbers(l + 1, l, -m), a, th, ph)
            want = (-1.0) ** m * a ** (2 * m) * np.conj(plus)
            assert minus == pytest.approx(want, rel=1e-12)

    def test_domain_errors(self):
        qn = QuantumNumbers(2, 1, 0)
        with pytest.raises(DomainError):
            angular_Y(qn, 0.5, 0.0, 0.3)
        with pytest.raises(DomainError):
            angular_Y(qn, 0.5, 1.0, -0.1)
        with pytest.raises(DomainError):
            angular_Y(qn, 0.5, (math.pi + 0.5) ** 2, 0.3)
        with pytest.raises(DomainError):
            angular_Y(qn, 0.5, 1.0, (2.0 * math.pi + 0.5) ** 2)
        with pytest.raises(DomainError, match="NaN is refused"):
            angular_Y(qn, 0.5, np.array([1.0, math.nan]), 0.3)
        with pytest.raises(DomainError, match="NaN is refused"):
            angular_Y(qn, 0.5, 1.0, math.nan)


class TestNormalisationConstants:
    """Constants whose factorial ratio leaves the double range are refused."""

    @pytest.mark.parametrize(
        "n,r_b,factor",
        [(171, 1.0, "the (n + l)! factorial"), (1, 1e-300, "the factor (2 / (alpha n r_b))**3")],
    )
    def test_radial_overflow_names_the_state(self, n, r_b, factor):
        message = (
            f"({n}, 0, 0) at alpha=1.0, r_b={r_b!r} is not a finite positive double: "
            f"{factor} overflows a double"
        )
        with pytest.raises(DomainError, match=re.escape(message)):
            radial_wavefunction(QuantumNumbers(n, 0), ModelParams(1.0, r_b), 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("r_b", [1e300, 5e-324])
    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda qn, p: radial_wavefunction(qn, p, 1.0),
            lambda qn, p: probability_density_radial(qn, p, [1.0, 2.0]),
            lambda qn, p: full_wavefunction(qn, p, np.ones(3), 1.0, 0.5),
        ],
        ids=["radial", "density", "psi"],
    )
    def test_radial_factor_of_r_b_is_named(self, evaluate, r_b):
        # (2 / (alpha n r_b))**3 underflows to 0, or alpha n r_b rounds to 0;
        # the constant is formed before any block divides by alpha^2 r_b n,
        # so numpy warns of no division by zero on the way to the error
        message = f"r_b={r_b!r} is not a finite positive double: the factor (2 / (alpha n r_b))**3"
        with pytest.raises(DomainError, match=re.escape(message)):
            evaluate(QuantumNumbers(1, 0), ModelParams(0.5, r_b))

    def test_power_of_alpha_that_underflows_is_named(self):
        # alpha**(2 l + 2) and alpha**(2 m - 2) round to 0, which divided the constant by zero
        with pytest.raises(DomainError, match=re.escape("the factor alpha**(2 l + 2) evaluates to 0.0")):
            radial_wavefunction(QuantumNumbers(61, 60), ModelParams(1e-3), 1.0)
        with pytest.raises(DomainError, match=re.escape("the factor alpha**(2 m - 2) evaluates to 0.0")):
            angular_Y(QuantumNumbers(61, 60, 60), 1e-3, 1.0, 0.5)

    def test_radial_underflow_is_not_a_silent_zero(self):
        # 29! / (200 * 170!) rounds to 0.0, which made R vanish identically
        with pytest.raises(DomainError, match=r"\(100, 70, 0\) .*evaluates to 0\.0"):
            radial_wavefunction(QuantumNumbers(100, 70), ModelParams(1.0), 1.0)

    @pytest.mark.parametrize("n,l", [(171, 0), (100, 70)])
    def test_u_constant_out_of_range(self, n, l):
        with pytest.raises(DomainError, match=rf"u normalisation of state .*\({n}, {l}, 0\)"):
            u_with_derivatives(QuantumNumbers(n, l), ModelParams(1.0), 1.0)

    def test_angular_overflow_names_the_state(self):
        with pytest.raises(DomainError, match=r"\(100, 86, 86\) .*factorial overflows"):
            angular_Y(QuantumNumbers(100, 86, 86), 1.0, 1.0, 0.5)

    @pytest.mark.parametrize(
        "n,l,alpha,r_b",
        [(1, 0, 1.0, 1.0), (2, 1, 0.5, 2.5), (3, 0, 0.77, 1e-3), (5, 4, 1e-3, 1e10),
         (12, 7, 0.3, 1e-80), (40, 3, 0.9, 1e80), (85, 84, 1.0, 1.0), (169, 0, 0.6, 7.0)],
    )
    def test_constants_are_the_written_out_formulas(self, n, l, alpha, r_b):
        a, p = alpha, ModelParams(alpha, r_b)
        qn = QuantumNumbers(n, l)
        radial = math.sqrt(
            (2.0 / (a * n * r_b)) ** 3
            * math.factorial(n - l - 1)
            / (2.0 * n * a ** (2 * l + 2) * math.factorial(n + l))
        )
        assert hydrogen._radial_norm(qn, p).hex() == radial.hex()
        # the u constant, through u and its conformable derivatives at a few radii
        k = 1.0 / (a * r_b * n)
        u_norm = math.sqrt(k * math.factorial(n - l - 1) / (n * a ** (2 * l + 2) * math.factorial(n + l)))
        rho = np.array([0.1, 1.0, 7.5])
        F = hydrogen._power_exp_laguerre(LaguerreParams(n - l - 1, 2 * l + 1), l + 1, u_norm, 2.0 * a, a, rho)
        for got, want in zip(hydrogen._u_triple(qn, p, rho), F):
            _assert_same_bits(got, want)

    @pytest.mark.parametrize(
        "evaluate,qn,message",
        [
            (lambda qn, p: radial_wavefunction(qn, p, 1.0), QuantumNumbers(10**6, 0),
             "radial normalisation of state (n, l, m) = (1000000, 0, 0) at alpha=1.0, r_b=1.0 "
             "is not a finite positive double: the (n - l - 1)! factorial"),
            (lambda qn, p: u_function(qn, p, 1.0), QuantumNumbers(10**6, 0),
             "u normalisation of state (n, l, m) = (1000000, 0, 0) at alpha=1.0, r_b=1.0 "
             "is not a finite positive double: the (n - l - 1)! factorial"),
            (lambda qn, p: angular_Y(qn, p.alpha, 1.0, 0.5), QuantumNumbers(10**6, 10**6 - 1),
             "angular normalisation of state (n, l, m) = (1000000, 999999, 0) at alpha=1.0 "
             "is not a finite positive double: the (l - m)! factorial"),
        ],
        ids=["radial", "u", "angular"],
    )
    def test_factorial_past_170_is_refused_before_it_is_formed(self, evaluate, qn, message):
        # float(k!) refuses every k > 170; forming (10^6 - 1)! first took about 11 s
        start = time.perf_counter()
        with pytest.raises(DomainError, match=re.escape(
            f"{message} overflows a double (int too large to convert to float)"
        )):
            evaluate(qn, ModelParams(1.0))
        assert time.perf_counter() - start < 1.0

    def test_largest_s_state_still_forms(self):
        # 2 n (n + l)! still fits in a double at n = 169
        R = radial_wavefunction(QuantumNumbers(169, 0), ModelParams(1.0), 1.0)
        assert R == pytest.approx(2.576083615430413e-04, rel=1e-12)
        with pytest.raises(DomainError, match=r"\(170, 0, 0\)"):
            radial_wavefunction(QuantumNumbers(170, 0), ModelParams(1.0), 1.0)


class TestFullWavefunction:
    @pytest.mark.parametrize("alpha", TABLE_ALPHAS)
    def test_published_psi_closed_forms(self, alpha):
        p = ModelParams(alpha)
        theta = 1.1 ** (1.0 / alpha)
        phi = 0.7 ** (1.0 / alpha)
        for (n, l, m), closed in PSI_CLOSED_FORMS.items():
            qn = QuantumNumbers(n, l, m)
            got = full_wavefunction(qn, p, R_GRID, theta, phi)
            want = np.asarray(closed(alpha, 1.0, R_GRID, theta, phi), dtype=complex)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale

    def test_product_structure(self):
        p = ModelParams(0.6)
        qn = QuantumNumbers(3, 2, -1)
        got = full_wavefunction(qn, p, 1.8, 1.0, 0.5)
        want = radial_wavefunction(qn, p, 1.8) * angular_Y(qn, 0.6, 1.0, 0.5)
        assert got == pytest.approx(want, rel=1e-14)

    def test_shapes_that_do_not_broadcast(self):
        qn, p = QuantumNumbers(2, 1, 1), ModelParams(0.8)
        r, theta = np.array([0.5, 1.0, 2.0]), np.linspace(0.2, 1.2, 4)
        with pytest.raises(ValueError, match="broadcast"):
            full_wavefunction(qn, p, r, theta, 0.3)
        # the coordinates are checked before their shapes
        r[1] = math.nan
        with pytest.raises(DomainError, match="radial coordinate must be positive"):
            full_wavefunction(qn, p, r, theta, 0.3)


class TestScalarMatchesArray:
    """A scalar call returns the array call's value at that point, bit for bit."""

    @pytest.mark.parametrize("alpha", [0.55, 0.8])
    def test_full_wavefunction(self, alpha):
        rng = np.random.default_rng(2)
        p = ModelParams(alpha)
        r = rng.uniform(0.01, 25.0, 12)
        theta = rng.uniform(0.01, 0.999 * math.pi ** (1.0 / alpha), 12)
        phi = rng.uniform(0.0, 0.999 * (2.0 * math.pi) ** (1.0 / alpha), 12)
        for n in range(1, 6):
            for l in range(n):
                for m in range(-l, l + 1):
                    qn = QuantumNumbers(n, l, m)
                    array = full_wavefunction(qn, p, r, theta, phi)
                    scalar = [full_wavefunction(qn, p, *point) for point in zip(r, theta, phi)]
                    assert scalar == array.tolist(), qn

    @pytest.mark.parametrize(
        "evaluate,kind",
        [
            (lambda qn, p, r, t, f: radial_wavefunction(qn, p, r), float),
            (lambda qn, p, r, t, f: u_function(qn, p, r), float),
            (lambda qn, p, r, t, f: angular_Y(qn, p.alpha, t, f), complex),
            (full_wavefunction, complex),
        ],
        ids=["R", "u", "Y", "psi"],
    )
    def test_a_scalar_call_returns_a_python_number(self, evaluate, kind):
        # with the float.hex of the one-element array call at that point
        p, qn = ModelParams(0.55, 1.3), QuantumNumbers(4, 2, -1)
        for r, t, f in [(0.3, 0.2, 0.0), (2.5, 1.7, 3.0), (19.0, 3.1, 5.9)]:
            scalar = evaluate(qn, p, r, t, f)
            (array,) = evaluate(qn, p, np.array([r]), np.array([t]), np.array([f])).tolist()
            assert type(scalar) is kind
            assert [v.hex() for v in (complex(scalar).real, complex(scalar).imag)] == [
                v.hex() for v in (complex(array).real, complex(array).imag)
            ]

    @pytest.mark.parametrize("evaluate", [radial_with_derivatives, u_with_derivatives])
    def test_value_and_derivatives(self, evaluate):
        rng = np.random.default_rng(3)
        p = ModelParams(0.55)
        r = rng.uniform(0.01, 25.0, 12)
        for n in range(1, 7):
            for l in range(n):
                qn = QuantumNumbers(n, l)
                array = [v.tolist() for v in evaluate(qn, p, r)]
                scalar = [evaluate(qn, p, point) for point in r]
                assert [list(v) for v in zip(*scalar)] == array, qn


class TestDensity:
    def test_ground_state_peak_at_bohr_radius(self):
        p = ModelParams(1.0)
        grid = np.linspace(0.01, 5.0, 2000)
        curve = probability_density_radial(QuantumNumbers(1, 0), p, grid)
        assert grid[np.argmax(curve.values)] == pytest.approx(1.0, abs=5e-3)

    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
    @pytest.mark.parametrize("n,l", [(1, 0), (2, 1), (3, 2)])
    def test_density_integrates_to_one(self, alpha, n, l):
        p = ModelParams(alpha)
        qn = QuantumNumbers(n, l)

        def integrand(r):
            c = probability_density_radial(qn, p, np.atleast_1d(r))
            return c.values

        total = conf_integral(integrand, alpha, 0.0, math.inf)
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n,l", [(1, 0), (2, 1), (3, 2)])
    def test_converges_to_classical_curve(self, n, l):
        # max-norm distance to the alpha=1 curve shrinks as alpha -> 1
        grid = np.linspace(0.05, 20.0, 400)
        qn = QuantumNumbers(n, l)
        ref = probability_density_radial(qn, ModelParams(1.0), grid).values
        gaps = []
        for a in (0.6, 0.8, 0.9):
            cur = probability_density_radial(qn, ModelParams(a), grid).values
            gaps.append(float(np.max(np.abs(cur - ref))))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_grid_validation(self):
        p = ModelParams(0.5)
        qn = QuantumNumbers(1, 0)
        with pytest.raises(ValueError):
            probability_density_radial(qn, p, np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            probability_density_radial(qn, p, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            probability_density_radial(qn, p, np.array([]))
        with pytest.raises(DomainError, match="NaN is refused"):
            probability_density_radial(qn, p, np.array([1.0, math.nan]))

    @pytest.mark.parametrize("grid", [[1.0, math.inf, math.inf], [1.0, 2.0, 2.0]])
    def test_repeated_points_are_refused(self, grid):
        # inf - inf is NaN, and NaN <= 0 is False: a difference test lets
        # a repeated inf through
        with pytest.raises(ValueError, match="grid must be strictly increasing"):
            probability_density_radial(QuantumNumbers(1, 0), ModelParams(0.5), np.array(grid))


FAR_GRID = np.logspace(-3, 308, 2000)


class TestFarTail:
    """w and y stop at _Y_MAX, past which exp(-w/2) is 0.0: R, the density,
    psi, u and the derivative triples are 0 there, without NaN or a numpy
    RuntimeWarning."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n,l", [(2, 0), (2, 1), (3, 1), (4, 3)])
    def test_radial_at_the_largest_doubles(self, n, l):
        p = ModelParams(1.0)
        assert radial_wavefunction(QuantumNumbers(n, l), p, 1e308) == 0.0
        values = radial_wavefunction(QuantumNumbers(n, l), p, FAR_GRID)
        assert np.all(np.isfinite(values)) and np.all(values[-100:] == 0.0)
        # the zeros keep the sign (-1)^(n - l - 1) of L(w) at the cap
        assert np.all(np.signbit(values[-100:]) == bool((n - l - 1) % 2))

    @pytest.mark.filterwarnings("error")
    def test_density_where_r_to_the_2_alpha_overflows(self):
        p = ModelParams(0.6)
        curve = probability_density_radial(QuantumNumbers(1, 0), p, np.array([1.0, 2.5e305]))
        assert curve.values[1] == 0.0 and curve.values[0] > 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0])
    @pytest.mark.parametrize("n,l", [(1, 0), (3, 1), (5, 4)])
    def test_finite_values_are_the_plain_product(self, alpha, n, l):
        # every value the plain product r^(2 alpha) R R gives as a finite
        # number is returned bit for bit, and the rest are 0
        qn, p = QuantumNumbers(n, l), ModelParams(alpha, 2.5)
        R = radial_wavefunction(qn, p, FAR_GRID)
        density = probability_density_radial(qn, p, FAR_GRID).values
        with np.errstate(all="ignore"):
            plain = FAR_GRID ** (2.0 * alpha) * R * R
        assert np.all(np.isfinite(R)) and np.all(np.isfinite(density))
        finite = np.isfinite(plain)
        np.testing.assert_array_equal(density[finite], plain[finite])
        assert np.all(density[~finite] == 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("r", [1e200, 1e300, 1.7e308])
    @pytest.mark.parametrize("alpha,r_b", [(1.0, 1.0), (0.5, 1.0), (1.0, 1e-100)])
    def test_derivative_triples_at_the_largest_doubles(self, alpha, r_b, r):
        # y^p and L(y) overflowed where e^(-y/2) is 0, giving NaN with
        # overflow warnings, and at r_b = 1e-100 so did y = c r^alpha itself
        qn, p = QuantumNumbers(3, 2), ModelParams(alpha, r_b)
        assert u_function(qn, p, r) == 0.0
        assert u_with_derivatives(qn, p, r) == (0.0, 0.0, 0.0)
        assert radial_with_derivatives(qn, p, r) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0])
    @pytest.mark.parametrize(
        "evaluate,triple",
        [(radial_with_derivatives, hydrogen._radial_triple), (u_with_derivatives, hydrogen._u_triple)],
        ids=["radial_with_derivatives", "u_with_derivatives"],
    )
    def test_finite_triples_are_the_plain_product(self, monkeypatch, evaluate, triple, alpha):
        # without the cap on y, each value that is finite keeps its bits; the
        # plain product moves the cap out to y = 1e300, not to inf, which
        # laguerre_assoc refuses, and past y = 1e154 (a y)^2 is inf, so a
        # finite plain value has the same bits under either cap; the plain
        # product is the unchecked inverse of the conformable triple, as the
        # public functions refuse its inf and NaN
        qn, p = QuantumNumbers(4, 2), ModelParams(alpha, 2.5)
        got = np.array(evaluate(qn, p, FAR_GRID))
        with np.errstate(all="ignore"):
            monkeypatch.setattr(hydrogen, "_Y_MAX", 1e300)
            plain = np.array(_classical(FAR_GRID, alpha, *triple(qn, p, FAR_GRID)))
        finite = np.isfinite(plain)
        assert np.all(np.isfinite(got)) and np.all(got[~finite] == 0.0)
        _assert_same_bits(got[finite], plain[finite])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n,l", [(1, 0), (2, 1), (5, 4), (10, 9), (60, 20)])
    def test_extreme_inputs_warn_of_nothing(self, n, l):
        # over extreme alpha, r_b and r, R, the density, psi and the norm give
        # finite values or a typed error, and numpy warns of nothing on the way
        qn, r = QuantumNumbers(n, l, min(l, 1)), np.geomspace(1e-300, 1e308, 300)
        evaluators = [
            radial_wavefunction,
            lambda qn, p, r: probability_density_radial(qn, p, r).values,
            lambda qn, p, r: full_wavefunction(qn, p, r, 1.0, 0.5),
        ]
        for alpha in (0.05, 0.3, 0.8, 1.0):
            for r_b in (1e-100, 1e-5, 1.0, 1e100):
                p = ModelParams(alpha, r_b)
                for evaluate in evaluators:
                    try:
                        assert np.all(np.isfinite(evaluate(qn, p, r)))
                    except DomainError:
                        pass
                try:
                    norm = normalization_report(qn, p)
                except (DomainError, ConvergenceError):
                    continue
                assert math.isfinite(norm) and norm > 0.0

    def test_nan_input_is_not_masked(self):
        # the far-tail guard must not turn a NaN coordinate into R = 0: it is refused
        with pytest.raises(DomainError, match="NaN is refused"):
            radial_wavefunction(QuantumNumbers(2, 1), ModelParams(0.8), np.array([1.0, np.nan]))

    @pytest.mark.parametrize("r_b", [1.0, 1.7])
    @pytest.mark.parametrize("alpha", [0.5, 0.63, 0.75, 1.0])
    @pytest.mark.parametrize(
        "value,triple",
        [(radial_wavefunction, radial_with_derivatives), (u_function, hydrogen._u_triple)],
        ids=["radial_wavefunction", "u_function"],
    )
    def test_triple_has_the_bits_of_radial_wavefunction(self, value, triple, alpha, r_b):
        # one substitution, one far-tail stop and one product order for R and
        # for u: every value, and the sign (-1)^(n-l-1) of every far-tail
        # zero, agree
        p = ModelParams(alpha, r_b)
        for r in (default_grid(), FAR_GRID):
            for n in range(1, 7):
                for l in range(n):
                    qn = QuantumNumbers(n, l)
                    _assert_same_bits(triple(qn, p, r)[0], value(qn, p, r))


B = hydrogen._BLOCK
BLOCK_SIZES = [1, B - 1, B, B + 1, 5 * B // 2]
BLOCK_STATES = [QuantumNumbers(5, 3, -2), QuantumNumbers(5, 3, 0), QuantumNumbers(4, 2, 1)]


def _radial_one_pass(qn, p, r):
    """R as one whole-array expression, without blocks, w capped at _Y_MAX."""
    a = p.alpha
    n, l = qn.n, qn.l
    d = a * a * p.r_b_alpha * n
    w = 2.0 * np.minimum(r**a, 0.5 * hydrogen._Y_MAX * d) / d
    lag = laguerre_assoc(LaguerreParams(n - l - 1, 2 * l + 1), w)
    return hydrogen._radial_norm(qn, p) * (a * w) ** l * np.exp(-w / 2.0) * lag


def _angular_one_pass(qn, a, theta, phi):
    """Y as one whole-array expression, without blocks, exp also for m = 0."""
    l, m = qn.l, qn.m_l
    norm = math.sqrt(
        (2 * l + 1)
        * math.factorial(l - m)
        / (a ** (2 * m - 2) * 2.0 * math.factorial(l + m) * (2.0 * math.pi) ** a)
    )
    p = legendre_assoc(LegendreParams(l, m), np.cos(theta**a))
    return norm * np.exp(1j * m * phi**a) * p


def _angles(size, alpha, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(1e-9, math.pi, size)
    y = rng.uniform(0.0, 2.0 * math.pi, size)
    return x ** (1.0 / alpha), y ** (1.0 / alpha)


def _assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestBlockedKernels:
    """Block by block, R, Y, psi and the density keep the bits of one whole-array pass."""

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("alpha", [0.55, 1.0])
    def test_radial(self, size, alpha):
        p = ModelParams(alpha, 1.3)
        r = np.geomspace(1e-3, 60.0, size)
        for qn in BLOCK_STATES:
            _assert_same_bits(radial_wavefunction(qn, p, r), _radial_one_pass(qn, p, r))

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("qn", BLOCK_STATES, ids=["m<0", "m=0", "m>0"])
    def test_angular(self, size, qn):
        theta, phi = _angles(size, 0.7)
        _assert_same_bits(angular_Y(qn, 0.7, theta, phi), _angular_one_pass(qn, 0.7, theta, phi))

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_inputs(self, shape):
        # numpy's iterator refuses zero-sized operands, so they must not reach it
        qn, p, empty, ones = QuantumNumbers(4, 2, 1), ModelParams(0.7), np.empty(shape), np.ones(shape[1:])
        for got, dtype in [
            (radial_wavefunction(qn, p, empty), np.float64),
            (u_function(qn, p, empty), np.float64),
            (angular_Y(qn, 0.7, empty, ones), np.complex128),
            (full_wavefunction(qn, p, empty, 1.0, ones), np.complex128),
        ]:
            assert isinstance(got, np.ndarray) and got.dtype == dtype and got.shape == shape

    @pytest.mark.parametrize("qn", BLOCK_STATES, ids=["m<0", "m=0", "m>0"])
    def test_full_wavefunction_and_density(self, qn):
        # for m = 0, R < 0 meets Im Y = +0: the complex product keeps the
        # sign of that zero, which two real products would flip
        size, alpha = 5 * B // 2, 0.8
        p = ModelParams(alpha)
        r = np.geomspace(1e-3, 60.0, size)
        theta, phi = _angles(size, alpha, seed=1)
        R = _radial_one_pass(qn, p, r)
        _assert_same_bits(
            full_wavefunction(qn, p, r, theta, phi), R * _angular_one_pass(qn, alpha, theta, phi)
        )
        density = r ** (2.0 * alpha) * R * R
        density[R == 0.0] = 0.0
        _assert_same_bits(probability_density_radial(qn, p, r).values, density)

    @pytest.mark.parametrize("qn", BLOCK_STATES, ids=["m<0", "m=0", "m>0"])
    def test_two_dimensional_inputs_keep_their_shape(self, qn):
        alpha = 0.65
        p = ModelParams(alpha)
        r = np.geomspace(1e-3, 40.0, 300 * 250).reshape(300, 250)
        _assert_same_bits(radial_wavefunction(qn, p, r), _radial_one_pass(qn, p, r))
        _assert_same_bits(radial_wavefunction(qn, p, r.T), _radial_one_pass(qn, p, r.T))
        theta, phi = (v.reshape(300, 250) for v in _angles(300 * 250, alpha))
        cases = [
            (theta, phi),
            (theta, 0.4),  # a scalar phi, as the slice export passes
            (theta[:, :1], phi[:1, :]),  # broadcast to (300, 250)
            (theta.T, phi.T),
            (1.1, phi),  # a scalar theta: the shape comes from phi
            (theta[:40, :1], phi[:1, :30]),  # one block, broadcast to (40, 30)
            (1.1, phi[:50, :60]),
            # broadcast to (40, 30, 1000)
            (theta.reshape(-1)[:40].reshape(40, 1, 1), phi.reshape(-1)[:30_000].reshape(1, 30, 1000)),
            (theta.reshape(-1)[::-1], phi.reshape(-1)[::-1]),  # negative strides, above one block
        ]
        for th, ph in cases:
            want = _angular_one_pass(qn, alpha, th, np.asarray(ph))
            _assert_same_bits(angular_Y(qn, alpha, th, ph), want)
            rr = np.geomspace(1e-3, 40.0, want.size).reshape(want.shape)
            _assert_same_bits(full_wavefunction(qn, p, rr, th, ph), _radial_one_pass(qn, p, rr) * want)

    @pytest.mark.parametrize(
        "layout", ["1d", "2d", "transposed", "scalar-phi", "scalar-angles", "scalar"]
    )
    @pytest.mark.parametrize("qn", BLOCK_STATES, ids=["m<0", "m=0", "m>0"])
    def test_psi_in_one_pass_is_the_product_of_the_factors(self, qn, layout):
        # no input broadcasts, so psi forms R and Y block by block and never
        # holds R at full size; its bits are those of R * Y all the same
        alpha = 0.75
        p = ModelParams(alpha)
        size = 5 * B // 2
        r = np.geomspace(1e-3, 60.0, size)
        theta, phi = _angles(size, alpha, seed=2)
        grid = tuple(v[: 300 * 250].reshape(300, 250) for v in (r, theta, phi))
        r, theta, phi = {
            "1d": (r, theta, phi),
            "2d": grid,
            "transposed": tuple(v.T for v in grid),
            "scalar-phi": (r, theta, 0.0),  # the slice export's layout
            "scalar-angles": (r, 1.1, 0.7),  # the table export's layout
            "scalar": (1.8, 1.1, 0.7),
        }[layout]
        want = radial_wavefunction(qn, p, r) * angular_Y(qn, alpha, theta, phi)
        got = full_wavefunction(qn, p, r, theta, phi)
        assert type(got) is type(want)
        _assert_same_bits(np.asarray(got), np.asarray(want))

    @pytest.mark.parametrize(
        "r_b,r_bad,theta_bad,phi_bad,message",
        [
            (1e-300, None, (0, 0.0), None, "radial normalisation of state (n, l, m) = (2, 1, 1)"),
            (1e-300, (-1, -1.0), (0, 0.0), None, "radial coordinate must be positive"),
            (1.0, None, (3, math.nan), (0, -1.0), "theta must be positive"),
            (1.0, None, (-1, (math.pi + 0.5) ** 2), (-1, math.nan), "phi must be nonnegative"),
            (1.0, None, (-1, (math.pi + 0.5) ** 2), (0, (2.0 * math.pi + 0.5) ** 2), "phi^alpha must lie"),
            (1.0, None, (0, (math.pi + 0.5) ** 2), (-1, (2.0 * math.pi + 0.5) ** 2), "theta^alpha must lie"),
        ],
        ids=["constant-then-theta", "r-then-constant", "theta-then-phi", "phi-then-range",
             "first-block-phi-range", "first-block-theta-range"],
    )
    def test_psi_with_two_faults_reports_the_first(self, r_b, r_bad, theta_bad, phi_bad, message):
        # the r check and the radial constant come before the theta and phi
        # checks, which come before the range checks of each block in turn
        size = 5 * B // 2
        r = np.geomspace(1e-3, 60.0, size)
        theta, phi = _angles(size, 1.0, seed=3)
        for array, bad in ((r, r_bad), (theta, theta_bad), (phi, phi_bad)):
            if bad is not None:
                array[bad[0]] = bad[1]
        with pytest.raises(DomainError, match=re.escape(message)):
            full_wavefunction(QuantumNumbers(2, 1, 1), ModelParams(1.0, r_b), r, theta, phi)

    @pytest.mark.filterwarnings("error")
    def test_far_tail_zero_in_a_later_block(self):
        # w reaches its cap, where exp(-w/2) is 0.0, only in the third block
        qn, p = QuantumNumbers(3, 1), ModelParams(1.0)
        r = np.concatenate([np.geomspace(1e-3, 60.0, 2 * B + 100), np.geomspace(1e300, 1e308, 50)])
        got = radial_wavefunction(qn, p, r)
        want = _radial_one_pass(qn, p, r)
        assert np.all(np.isfinite(got)) and np.all(got[-50:] == 0.0)
        _assert_same_bits(got, want)

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -2.0])
    def test_radial_fault_in_the_last_block(self, bad):
        r = np.geomspace(1e-3, 60.0, 5 * B // 2)
        r[-1] = bad
        message = "radial coordinate must be positive (NaN is refused)"
        with pytest.raises(DomainError, match=re.escape(message)):
            radial_wavefunction(QuantumNumbers(3, 1), ModelParams(0.7), r)

    @pytest.mark.parametrize(
        "which,bad,message",
        [
            ("theta", math.nan, "theta must be positive (NaN is refused)"),
            ("theta", 0.0, "theta must be positive (NaN is refused)"),
            ("phi", math.nan, "phi must be nonnegative (NaN is refused)"),
            ("phi", -0.5, "phi must be nonnegative (NaN is refused)"),
            ("theta", (math.pi + 0.5) ** 2, "theta^alpha must lie in [0, pi]"),
            ("phi", (2.0 * math.pi + 0.5) ** 2, "phi^alpha must lie in [0, 2 pi]"),
        ],
    )
    def test_angular_fault_in_the_last_block(self, which, bad, message):
        theta, phi = _angles(5 * B // 2, 0.5)
        {"theta": theta, "phi": phi}[which][-1] = bad
        with pytest.raises(DomainError, match=re.escape(message)):
            angular_Y(QuantumNumbers(3, 1, 1), 0.5, theta, phi)


MIB = 2**20


def _traced_peak(call):
    """Peak bytes that ``call`` allocates while it runs, by tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTransientMemory:
    """The composite calls allocate little more than the arrays they return."""

    N = 32 * B

    @pytest.mark.parametrize("qn", BLOCK_STATES, ids=["m<0", "m=0", "m>0"])
    def test_psi_holds_R_and_Y_only(self, qn):
        # psi (16 bytes a point) plus the scratch of one block: R and Y are
        # formed and multiplied block by block, so R never exists at full size
        alpha = 0.7
        p = ModelParams(alpha)
        r = np.geomspace(1e-3, 60.0, self.N)
        theta, phi = _angles(self.N, alpha)
        peak = _traced_peak(lambda: full_wavefunction(qn, p, r, theta, phi))
        assert peak <= 16 * self.N + 3 * MIB

    def test_density_holds_its_result_only(self):
        r = np.geomspace(1e-3, 60.0, self.N)
        qn, p = QuantumNumbers(5, 2), ModelParams(0.7)
        peak = _traced_peak(lambda: probability_density_radial(qn, p, r))
        assert peak <= 8 * self.N + 2 * MIB

    def test_u_holds_its_result_only(self):
        # u is formed block by block, as R is, without its derivatives
        rho = np.geomspace(1e-3, 60.0, self.N)
        qn, p = QuantumNumbers(5, 2), ModelParams(0.7)
        peak = _traced_peak(lambda: u_function(qn, p, rho))
        assert peak <= 8 * self.N + 2 * MIB

    @pytest.mark.parametrize("qn", BLOCK_STATES, ids=["m<0", "m=0", "m>0"])
    def test_broadcast_psi_takes_the_product_into_Y(self, qn):
        # r of shape (M, 1) broadcasts against angles of psi's shape (M, K):
        # Y has psi's shape, so the product goes into Y's buffer, not a second one
        alpha, rows, cols = 0.7, 2000, 500
        p = ModelParams(alpha)
        r = np.geomspace(1e-3, 60.0, rows).reshape(rows, 1)
        theta, phi = (v.reshape(rows, cols) for v in _angles(rows * cols, alpha))
        peak = _traced_peak(lambda: full_wavefunction(qn, p, r, theta, phi))
        assert peak <= 16 * rows * cols + 3 * MIB

    @pytest.mark.parametrize("rows,cols", [(300, 40), (B + 5, 3)])
    def test_broadcast_psi_forms_the_radial_constant_once(self, monkeypatch, rows, cols):
        calls, radial_norm = [], hydrogen._radial_norm

        def counting(qn, params):
            calls.append(qn)
            return radial_norm(qn, params)

        monkeypatch.setattr(hydrogen, "_radial_norm", counting)
        qn, alpha = QuantumNumbers(4, 2, 1), 0.8
        r = np.geomspace(1e-3, 60.0, rows).reshape(rows, 1)
        theta = _angles(cols, alpha)[0].reshape(1, cols)
        assert full_wavefunction(qn, ModelParams(alpha), r, theta, 0.3).shape == (rows, cols)
        assert calls == [qn]

    @pytest.mark.parametrize("qn", BLOCK_STATES, ids=["m<0", "m=0", "m>0"])
    @pytest.mark.parametrize("rows,cols", [(300, 40), (B + 5, 3)])
    def test_broadcast_inputs_are_evaluated_once(self, monkeypatch, qn, rows, cols):
        # r of shape (N, 1) and theta of shape (1, M): R sees N points and Y
        # sees M, although psi has N * M
        seen = {"laguerre": 0, "legendre": 0}

        def counting(name, original):
            def wrapper(params, u):
                seen[name] += np.size(u)
                return original(params, u)
            return wrapper

        monkeypatch.setattr(hydrogen, "laguerre_assoc", counting("laguerre", laguerre_assoc))
        # Y forms P through special.conf_legendre, which calls legendre_assoc
        monkeypatch.setattr(special, "legendre_assoc", counting("legendre", legendre_assoc))
        alpha = 0.8
        p = ModelParams(alpha)
        r = np.geomspace(1e-3, 60.0, rows).reshape(rows, 1)
        theta = _angles(cols, alpha)[0].reshape(1, cols)
        psi = full_wavefunction(qn, p, r, theta, 0.3)
        assert psi.shape == (rows, cols)
        assert seen == {"laguerre": rows, "legendre": cols}
        monkeypatch.undo()
        want = _radial_one_pass(qn, p, r) * _angular_one_pass(qn, alpha, theta, np.asarray(0.3))
        _assert_same_bits(psi, want)

    @pytest.mark.parametrize("layout", ["broadcast", "transposed", "contiguous", "broadcast3d"])
    def test_angular_inputs_are_read_block_by_block(self, layout):
        # Y (16 bytes a point) plus the scratch of one block: an input that
        # is broadcast or strided is never copied at the full shape
        qn, alpha, rows, cols = QuantumNumbers(3, 2, 1), 1.0, 2000, 500
        theta = np.linspace(0.01, 3.0, rows).reshape(rows, 1)
        phi = np.linspace(0.0, 6.0, cols).reshape(1, cols)
        if layout == "transposed":
            theta, phi = (np.broadcast_to(v, (rows, cols)).copy().T for v in (theta, phi))
        elif layout == "contiguous":
            theta, phi = (np.broadcast_to(v, (rows, cols)).copy() for v in (theta, phi))
        elif layout == "broadcast3d":
            theta = np.linspace(0.01, 3.0, 40).reshape(40, 1, 1)
            phi = np.linspace(0.0, 6.0, 30 * 1000).reshape(1, 30, 1000)
        size = np.broadcast(theta, phi).size
        peak = _traced_peak(lambda: angular_Y(qn, alpha, theta, phi))
        assert peak <= 16 * size + 3 * MIB
        _assert_same_bits(angular_Y(qn, alpha, theta, phi), _angular_one_pass(qn, alpha, theta, phi))

    @pytest.mark.parametrize("size", [B // 2, 5 * B // 2])
    def test_successive_psi_calls_are_equal_and_unaliased(self, size):
        qn, alpha = QuantumNumbers(4, 2, 1), 0.6
        p = ModelParams(alpha)
        r = np.geomspace(1e-3, 60.0, size)
        theta, phi = _angles(size, alpha)
        first = full_wavefunction(qn, p, r, theta, phi)
        second = full_wavefunction(qn, p, r, theta, phi)
        _assert_same_bits(first, second)
        for other in (second, r, theta, phi):
            assert not np.shares_memory(first, other)
        first[:] = 0.0
        _assert_same_bits(second, full_wavefunction(qn, p, r, theta, phi))
