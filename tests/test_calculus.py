import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import confhydro
from confhydro import ModelParams, QuantumNumbers, _gauss_rules, calculus, normalization_report
from confhydro.calculus import (
    Alpha,
    Differentiable,
    conf_derivative,
    conf_derivative_limit,
    conf_integral,
    conf_second_derivative,
)
from confhydro.errors import ConvergenceError, DomainError, EvaluationError


def poly(p):
    return Differentiable(
        f=lambda t: t**p,
        df=lambda t: p * t ** (p - 1),
        d2f=lambda t: p * (p - 1) * t ** (p - 2),
    )


class TestAlpha:
    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.0001, 2.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError):
            Alpha(bad)

    def test_accepts_boundary(self):
        assert Alpha(1.0).value == 1.0
        assert Alpha(1e-6).value == 1e-6


class TestConfDerivative:
    def test_power_rule_example(self):
        # D^0.5(t^2) at t=4 -> 2 * 4^1.5 = 16
        assert conf_derivative(poly(2), 0.5, 4.0) == pytest.approx(16.0, abs=1e-10)

    def test_constant_is_zero(self):
        c = Differentiable(lambda t: 7.3, lambda t: 0.0, lambda t: 0.0)
        for a in (0.3, 0.7, 1.0):
            assert conf_derivative(c, a, 2.5) == 0.0

    def test_alpha_one_classical(self):
        assert conf_derivative(poly(3), 1.0, 2.0) == pytest.approx(12.0, abs=1e-10)

    @pytest.mark.parametrize("p", [-1.0, 0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("a", [0.3, 0.5, 0.8, 1.0])
    def test_power_rule_family(self, p, a):
        for t in (0.2, 1.0, 3.7):
            expected = p * t ** (p - a)
            assert conf_derivative(poly(p), a, t) == pytest.approx(
                expected, rel=1e-8, abs=1e-8
            )

    def test_finite_difference_fallback(self):
        f = Differentiable(lambda t: math.sin(t))
        expected = 2.0 ** (1 - 0.6) * math.cos(2.0)
        assert conf_derivative(f, 0.6, 2.0) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("t", [1e-7, 1e-5, 1e-3])
    def test_finite_difference_step_is_relative_to_t(self, t):
        # D^0.5 sqrt = 1/2 and D^0.5 D^0.5 sqrt = 0 at every t > 0; a step
        # floored at 1 reaches below 0 for t under about 1e-4
        assert conf_derivative(math.sqrt, 0.5, t) == pytest.approx(0.5, rel=1e-8)
        # each of the two terms of the second derivative is 0.25 / sqrt(t)
        assert abs(conf_second_derivative(math.sqrt, 0.5, t)) <= 1e-6 * 0.25 / math.sqrt(t)

    def test_domain_error_nonpositive_t(self):
        with pytest.raises(DomainError):
            conf_derivative(poly(2), 0.5, 0.0)
        with pytest.raises(DomainError):
            conf_derivative(poly(2), 0.5, -1.0)

    @pytest.mark.parametrize("derivative", [conf_derivative, conf_second_derivative])
    def test_nan_t_is_a_domain_error(self, derivative):
        # NaN fails t <= 0 too: without the check the function is evaluated
        # at NaN and the failure surfaces as an EvaluationError
        with pytest.raises(DomainError, match="requires t > 0"):
            derivative(poly(2), 0.5, math.nan)
        with pytest.raises(DomainError, match="requires t > 0"):
            derivative(Differentiable(lambda t: math.sin(t)), 0.5, math.nan)

    def test_evaluation_error_propagates(self):
        bad = Differentiable(lambda t: math.sqrt(-1.0))
        with pytest.raises(EvaluationError):
            conf_derivative(bad, 0.5, 1.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_names_t(self, value):
        with pytest.raises(EvaluationError, match=r"^function returned non-finite value at t=1\.5$"):
            conf_derivative(Differentiable(lambda t: 1.0, lambda t: value), 0.5, 1.5)
        # the central difference evaluates f at t -+ h, and names that point
        with pytest.raises(EvaluationError, match="function returned non-finite value at t="):
            conf_derivative(lambda t: value, 0.5, 1.5)

    @given(
        a=st.floats(0.1, 1.0),
        b=st.floats(-3.0, 3.0),
        c=st.floats(-3.0, 3.0),
        t=st.floats(0.1, 10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, a, b, c, t):
        f, g = poly(2), poly(3)
        combo = Differentiable(
            lambda s: b * s**2 + c * s**3,
            lambda s: 2 * b * s + 3 * c * s**2,
        )
        lhs = conf_derivative(combo, a, t)
        rhs = b * conf_derivative(f, a, t) + c * conf_derivative(g, a, t)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    @given(a=st.floats(0.1, 1.0), t=st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_product_rule(self, a, t):
        f = Differentiable(lambda s: math.sin(s), lambda s: math.cos(s))
        g = Differentiable(lambda s: math.exp(-s), lambda s: -math.exp(-s))
        fg = Differentiable(
            lambda s: math.sin(s) * math.exp(-s),
            lambda s: (math.cos(s) - math.sin(s)) * math.exp(-s),
        )
        lhs = conf_derivative(fg, a, t)
        rhs = f(t) * conf_derivative(g, a, t) + g(t) * conf_derivative(f, a, t)
        assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-6)


class TestLimitDefinition:
    def test_power_example(self):
        got = conf_derivative_limit(poly(2), 0.5, 4.0, 1e-6)
        assert got == pytest.approx(2.0 * 4.0**1.5, abs=1e-4)

    def test_constant_exact_zero(self):
        c = Differentiable(lambda t: 5.0)
        assert conf_derivative_limit(c, 0.7, 3.0, 0.01) == 0.0

    def test_identity_function(self):
        got = conf_derivative_limit(poly(1), 1.0, 1.0, 1e-8)
        assert got == pytest.approx(1.0, abs=1e-6)

    def test_converges_to_operator(self):
        f = Differentiable(lambda t: math.exp(0.3 * t), lambda t: 0.3 * math.exp(0.3 * t))
        target = conf_derivative(f, 0.6, 2.0)
        errs = [
            abs(conf_derivative_limit(f, 0.6, 2.0, eps) - target)
            for eps in (1e-3, 1e-5, 1e-7)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_epsilon_must_be_positive(self):
        with pytest.raises(DomainError):
            conf_derivative_limit(poly(2), 0.5, 1.0, 0.0)
        with pytest.raises(DomainError, match="epsilon must be positive"):
            conf_derivative_limit(poly(2), 0.5, 1.0, math.nan)

    def test_nan_t_is_a_domain_error(self):
        with pytest.raises(DomainError, match="requires t > 0"):
            conf_derivative_limit(poly(2), 0.5, math.nan, 1e-6)


class TestSecondDerivative:
    def test_half_order_identity_function(self):
        # (1-a) t^(1-2a) * 1 at a=0.5 -> 0.5
        assert conf_second_derivative(poly(1), 0.5, 2.7) == pytest.approx(0.5, abs=1e-12)

    def test_alpha_one_classical(self):
        assert conf_second_derivative(poly(2), 1.0, 3.0) == pytest.approx(2.0, abs=1e-9)

    def test_matches_nested_first_derivative(self):
        # D^a[D^a f] computed by nesting the first-order operator numerically
        a = 0.5
        f = Differentiable(
            lambda t: math.exp(-(t**a) / a),
            lambda t: -(t ** (a - 1)) * math.exp(-(t**a) / a),
        )
        inner = Differentiable(lambda t: conf_derivative(f, a, t))
        nested = conf_derivative(inner, a, 1.0)
        direct = conf_second_derivative(f, a, 1.0)
        assert direct == pytest.approx(nested, rel=1e-5, abs=1e-5)


class TestConfIntegral:
    def test_unit_function(self):
        got = conf_integral(lambda x: np.ones_like(x), 0.5, 0.0, 1.0)
        assert got == pytest.approx(2.0, rel=1e-12)

    def test_weight_cancellation(self):
        a = 0.4
        got = conf_integral(lambda x: x ** (1.0 - a), a, 0.0, 3.0)
        assert got == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("a", [0.5, 0.75, 1.0])
    def test_gamma_moment_against_quadrature_oracle(self, a):
        # integral of e^(-x^a/a) x^(2a) d^a x = 2 a^2 (diagonal identity at
        # s=k=0, m=1); oracle: brute-force adaptive quadrature on the u axis
        from scipy.integrate import quad

        oracle, _ = quad(lambda u: math.exp(-u) * (a * u) ** 2, 0, np.inf)
        got = conf_integral(lambda x: np.exp(-(x**a) / a) * x ** (2 * a), a, 0.0, math.inf)
        assert oracle == pytest.approx(2.0 * a * a, rel=1e-10)
        assert got == pytest.approx(oracle, rel=1e-10)

    def test_refinement_consistency(self, monkeypatch):
        # only 128 and 256 nodes ship, so the coarser rules come from scipy
        monkeypatch.setattr(calculus, "roots_laguerre", scipy.special.roots_laguerre)
        a = 0.6

        def g(u):  # exp(-x^a / a) on the substituted axis u = x^a / a
            return np.exp(-(((a * u) ** (1.0 / a)) ** a) / a)

        i32, i64, i128 = (
            calculus._integral_substituted(g, 0.0, math.inf, n) for n in (32, 64, 128)
        )
        assert abs(i32 - i64) <= 1e-9 * max(1.0, abs(i64))
        assert abs(i64 - i128) <= 1e-9 * max(1.0, abs(i128))

    def test_negative_lower_limit_rejected(self):
        with pytest.raises(DomainError):
            conf_integral(lambda x: x, 0.5, -1.0, 1.0)

    @pytest.mark.parametrize("a,b", [(math.nan, 1.0), (0.0, math.nan)])
    def test_nan_limit_rejected(self, a, b):
        # NaN fails both comparisons, so without the check the integral is NaN
        with pytest.raises(DomainError):
            conf_integral(lambda x: x, 0.5, a, b)

    def test_non_finite_integrand_is_refused(self):
        # a NaN integral compares False against the 128/256 tolerance, so it passed
        for value in (math.nan, math.inf):
            with pytest.raises(EvaluationError, match=r"^integrand returned non-finite value at x="):
                conf_integral(lambda x: np.full_like(x, value), 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("b", [3.0, math.inf])
    def test_non_finite_integrand_names_x(self, b):
        # one check covers the Gauss-Legendre and the Gauss-Laguerre rule
        def f(x):
            return np.where(x > 2.0, -math.inf, 1.0)

        with pytest.raises(EvaluationError) as err:
            conf_integral(f, 0.5, 0.0, b)
        x = float(re.fullmatch(r"integrand returned non-finite value at x=(\S+)", str(err.value))[1])
        assert x > 2.0 and not math.isfinite(f(np.array([x]))[0])

    def test_convergence_error_carries_estimates(self):
        # an oscillatory integrand defeats the 128/256-node Gauss-Legendre pair
        with pytest.raises(ConvergenceError) as err:
            conf_integral(lambda x: np.sin(100.0 * x), 1.0, 0.0, 10.0)
        assert err.value.coarse == pytest.approx(0.2297, abs=1e-4)
        assert err.value.fine == pytest.approx(0.0801, abs=1e-4)
        assert err.value.rtol == 1e-9

    def test_quadrature_options_are_gone(self):
        assert not hasattr(calculus, "QuadratureSpec")
        assert not hasattr(calculus, "QuadScheme")
        with pytest.raises(TypeError):
            conf_integral(lambda x: np.exp(-x), 1.0, 0.0, math.inf, rtol=1e-6)


class TestGaussRuleCache:
    """The Gauss rules ship as tables equal to scipy's; no lookup generates one."""

    RULES = [("roots_laguerre", math.inf), ("roots_legendre", 2.0)]
    SIZES = [calculus._NODE_COUNT, 2 * calculus._NODE_COUNT]

    @pytest.mark.parametrize("rule,b", RULES)
    def test_no_lookup_calls_scipy(self, monkeypatch, rule, b):
        def refuse(n):
            raise AssertionError(f"scipy generated a {n}-node rule")

        for name, _ in self.RULES:
            monkeypatch.setattr(scipy.special, name, refuse)
        calculus._rule_table.cache_clear()
        for alpha in (0.5, 0.7, 1.0):
            # the incomplete gamma function: integral of e^(-x) x^(alpha-1) over (0.5, b)
            want = math.gamma(alpha) * (scipy.special.gammainc(alpha, b) - scipy.special.gammainc(alpha, 0.5))
            assert conf_integral(lambda x: np.exp(-x), alpha, 0.5, b) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("rule", [rule for rule, _ in RULES])
    def test_shipped_rule_equals_scipy(self, rule, n):
        shipped = getattr(calculus, rule)(n)
        generated = getattr(scipy.special, rule)(n)
        for got, want in zip(shipped, generated, strict=True):
            assert got.dtype == want.dtype == np.float64
            assert got.shape == want.shape == (n,)
            if scipy.__version__ == _gauss_rules.SCIPY_VERSION:
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            else:  # another scipy (or LAPACK) may round the last bits differently
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("rule", [rule for rule, _ in RULES])
    def test_other_sizes_are_refused(self, rule):
        with pytest.raises(ValueError, match="no shipped Gauss-L[a-z]+ rule has 64 nodes"):
            getattr(calculus, rule)(64)

    @pytest.mark.parametrize("rule", [rule for rule, _ in RULES])
    def test_shared_arrays_are_read_only(self, rule):
        x, w = getattr(calculus, rule)(calculus._NODE_COUNT)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w *= 2.0

    @pytest.mark.parametrize("rule,b", RULES)
    def test_cold_and_warm_cache_give_the_same_integral(self, rule, b):
        def f(x):
            return np.exp(-x) * x

        calculus._rule_table.cache_clear()
        cold = conf_integral(f, 0.6, 0.5, b)
        assert conf_integral(f, 0.6, 0.5, b) == cold

    def test_integrating_process_never_imports_scipy_linalg(self):
        # a fresh interpreter, since this one may have imported scipy.linalg already
        code = (
            "import math, sys\n"
            "import numpy as np\n"
            "import confhydro\n"
            "assert 'scipy.special' in sys.modules\n"
            "confhydro.conf_integral(lambda x: np.exp(-(x**0.5) / 0.5) * x, 0.5, 0.0, math.inf)\n"
            "confhydro.conf_integral(lambda x: np.exp(-x * x), 0.7, 0.5, 2.5)\n"
            "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg was imported'\n"
        )
        src = str(pathlib.Path(confhydro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr


class TestFrozenValues:
    """Exact values of the quadrature rule, recorded before its options were removed."""

    @pytest.mark.parametrize(
        "f,alpha,a,b,want",
        [
            (lambda x: np.exp(-(x**0.5) / 0.5) * x, 0.5, 0.0, math.inf, 0.49999999999999734),
            (lambda x: np.exp(-(x**0.75) / 0.75) * x**1.5, 0.75, 0.0, math.inf, 1.1249999999999942),
            (lambda x: np.exp(-x) * np.cos(x), 1.0, 0.0, math.inf, 0.5000000000000004),
            (lambda x: np.exp(-x), 0.8, 1.0, math.inf, 0.32764834433507495),
            (lambda x: np.ones_like(x), 0.5, 0.0, 1.0, 1.9999999999999996),
            (lambda x: x**0.6, 0.4, 0.0, 3.0, 2.9999999999994573),
            (lambda x: np.exp(-x * x), 0.7, 0.5, 2.5, 0.44654872814503366),
        ],
    )
    def test_conf_integral(self, f, alpha, a, b, want):
        assert conf_integral(f, alpha, a, b) == want

    @pytest.mark.parametrize(
        "n,l,alpha,r_b,want",
        [
            (1, 0, 0.5, None, 1.0000000000000009),
            (2, 1, 0.75, None, 0.9999999999999911),
            (3, 2, 1.0, None, 0.9999999999999882),
            (5, 0, 0.6, None, 0.999999999999992),
            (8, 3, 0.9, None, 0.999999999999995),
            (12, 6, 0.7, None, 1.0000000000000104),
            (3, 1, 0.8, 1.7, 0.9999999999999905),
        ],
    )
    def test_normalization_report(self, n, l, alpha, r_b, want):
        params = ModelParams.natural(alpha) if r_b is None else ModelParams.physical(alpha, r_b)
        assert normalization_report(QuantumNumbers(n, l), params) == want
