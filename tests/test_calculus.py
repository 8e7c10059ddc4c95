import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

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
    conf_derivative,
    conf_derivative_limit,
    conf_integral,
    conf_second_derivative,
)
from confhydro.errors import ConvergenceError, DomainError, EvaluationError


def poly(p):
    return lambda t: t**p


class TestAlpha:
    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.0001, 2.0, True, np.bool_(True), 10**400, -(10**400)])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError):
            Alpha(bad)

    def test_accepts_boundary(self):
        assert Alpha(1.0).value == 1.0
        assert Alpha(1e-6).value == 1e-6


class TestConfDerivative:
    def test_power_rule_example(self):
        # D^0.5(t^2) at t=4 -> 4^0.5 * (2 * 4) = 16
        assert calculus._conformable_first(4.0, 0.5, 2 * 4.0) == pytest.approx(16.0, abs=1e-10)

    def test_constant_is_zero(self):
        c = lambda t: 7.3  # noqa: E731
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
        f = math.sin
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
            derivative(math.sin, 0.5, math.nan)

    def test_evaluation_error_propagates(self):
        bad = lambda t: math.sqrt(-1.0)  # noqa: E731
        with pytest.raises(EvaluationError):
            conf_derivative(bad, 0.5, 1.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_names_t(self, value):
        # the operator evaluates f at t before any step, and names that point
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
        combo = lambda s: b * s**2 + c * s**3  # noqa: E731
        lhs = conf_derivative(combo, a, t)
        rhs = b * conf_derivative(f, a, t) + c * conf_derivative(g, a, t)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    @given(a=st.floats(0.1, 1.0), t=st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_product_rule(self, a, t):
        f, g = math.sin, lambda s: math.exp(-s)
        fg = lambda s: math.sin(s) * math.exp(-s)  # noqa: E731
        lhs = conf_derivative(fg, a, t)
        rhs = f(t) * conf_derivative(g, a, t) + g(t) * conf_derivative(f, a, t)
        assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-6)


# float.hex of (conf_derivative, conf_second_derivative, conf_derivative_limit
# at epsilon 1e-6) for plain callables: the refusals of what central
# differences cannot resolve leave every value that they accept as it was
OPERATOR_BITS = {
    ("sin", 0.05, 0.3): ("0x1.f674171e27303p-4", "0x1.ae71f29d02013p-3", "0x1.f67417042ee00p-4"),
    ("sin", 1.3, 0.75): ("0x1.247cdd14a92f7p-2", "-0x1.0a3ba0f01ef59p+0", "0x1.247cb83905800p-2"),
    ("sin", 7.0, 1.0): ("0x1.81ff79eba7599p-1", "-0x1.50608ace5e0a7p-1", "0x1.81ff6ee91bc80p-1"),
    ("sin", 40.0, 0.5): ("-0x1.0df5219a655e4p+2", "-0x1.e234fc9ef9d13p+4", "-0x1.0df5604925190p+2"),
    ("exp", 0.05, 0.3): ("0x1.08701968b34dap-3", "0x1.e72f524323577p-3", "0x1.08701a75d5800p-3"),
    ("exp", 1.3, 0.75): ("0x1.f582467b9f5afp+1", "0x1.3f3e7a99eebbcp+2", "0x1.f58258080f6c0p+1"),
    ("exp", 7.0, 1.0): ("0x1.122885ac50ff0p+10", "0x1.122886c3eb1a2p+10", "0x1.12288ea7c6a40p+10"),
    ("exp", 40.0, 0.5): ("0x1.4a8f34566ee5cp+60", "0x1.0898e7ed71e35p+63", "0x1.4a8f78a35ac98p+60"),
    ("sqrt", 0.05, 0.3): ("0x1.193b43864c6e2p-2", "0x1.1455485e40418p-3", "0x1.193b3834ef4e0p-2"),
    ("sqrt", 1.3, 0.75): ("0x1.df7ebb375ed3ap-2", "-0x1.89d89f32f7f5ap-4", "0x1.df7eb4c2cf900p-2"),
    ("sqrt", 7.0, 1.0): ("0x1.83091e6a813f0p-3", "-0x1.ba5390fac687dp-7", "0x1.83091d865d800p-3"),
    ("sqrt", 40.0, 0.5): ("0x1.000000000e2dbp-1", "-0x1.073f994000000p-31", "0x1.fffffea9e0c00p-2"),
    ("t**1.5", 0.05, 0.3): ("0x1.517a51077b1bdp-5", "0x1.f1664dd89b182p-4", "0x1.517a5e9c57b80p-5"),
    ("t**1.5", 1.3, 0.75): ("0x1.d381f689526d8p+0", "0x1.200000113f771p+0", "0x1.d381fcd4b1300p+0"),
    ("t**1.5", 7.0, 1.0): ("0x1.fbfbf7ebc0ff0p+1", "0x1.2246d687d6344p-2", "0x1.fbfbf91cfbe00p+1"),
    ("t**1.5", 40.0, 0.5): ("0x1.dffffffffab60p+5", "0x1.2f9422e11c77cp+3", "0x1.e0000142fda00p+5"),
}
CALLABLES = {"sin": math.sin, "exp": math.exp, "sqrt": math.sqrt, "t**1.5": lambda t: t**1.5}


@pytest.mark.parametrize("name,t,a", OPERATOR_BITS)
def test_operators_keep_their_bits(name, t, a):
    f = CALLABLES[name]
    got = conf_derivative(f, a, t), conf_second_derivative(f, a, t), conf_derivative_limit(f, a, t, 1e-6)
    assert tuple(v.hex() for v in got) == OPERATOR_BITS[name, t, a]


class TestLimitDefinition:
    def test_power_example(self):
        got = conf_derivative_limit(poly(2), 0.5, 4.0, 1e-6)
        assert got == pytest.approx(2.0 * 4.0**1.5, abs=1e-4)

    def test_constant_exact_zero(self):
        c = lambda t: 5.0  # noqa: E731
        assert conf_derivative_limit(c, 0.7, 3.0, 0.01) == 0.0

    def test_identity_function(self):
        got = conf_derivative_limit(poly(1), 1.0, 1.0, 1e-8)
        assert got == pytest.approx(1.0, abs=1e-6)

    def test_converges_to_operator(self):
        f = lambda t: math.exp(0.3 * t)  # noqa: E731
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
        # (1-a) t^(1-2a) * 1 + t^(2-2a) * 0 at a=0.5 -> 0.5
        assert calculus._conformable_second(2.7, 0.5, 1.0, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_alpha_one_classical(self):
        assert conf_second_derivative(poly(2), 1.0, 3.0) == pytest.approx(2.0, abs=1e-9)

    def test_matches_nested_first_derivative(self):
        # D^a[D^a f] computed by nesting the first-order operator numerically
        a = 0.5
        f = lambda t: math.exp(-(t**a) / a)  # noqa: E731
        inner = lambda t: conf_derivative(f, a, t)  # noqa: E731
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

    def test_refinement_consistency(self):
        # only 128 and 256 nodes ship, so the coarser rules come from scipy,
        # weighted by e^t in log space as conf_integral weights its own
        a = 0.6

        def g(u):  # exp(-x^a / a) on the substituted axis u = x^a / a
            return np.exp(-(((a * u) ** (1.0 / a)) ** a) / a)

        def laguerre(n):
            t, w = scipy.special.roots_laguerre(n)
            keep = w > 0.0
            return float(np.sum(np.exp(np.log(w[keep]) + t[keep]) * g(t[keep])))

        i32, i64, i128 = (laguerre(n) for n in (32, 64, 128))
        assert abs(i32 - i64) <= 1e-9 * max(1.0, abs(i64))
        assert abs(i64 - i128) <= 1e-9 * max(1.0, abs(i128))

    @pytest.mark.parametrize("a,b", [(0.0, 3.0), (0.5, 2.0), (0.0, math.inf), (1.0, math.inf)])
    def test_integrand_sees_two_ascending_rules(self, a, b):
        # coarse then fine, each on one rule's ascending nodes: integrands built
        # on probability_density_radial refuse a grid that is not increasing
        calls = []

        def f(x):
            calls.append(x.copy())
            return np.exp(-(x**0.7) / 0.7)

        conf_integral(f, 0.7, a, b)
        assert len(calls) == 2
        coarse, fine = calls
        assert len(coarse) < len(fine) <= 2 * calculus._NODE_COUNT
        for x in calls:
            assert (np.diff(x) > 0).all() and x[0] > a and x[-1] < b

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

    @pytest.mark.parametrize(
        "alpha,a,b",
        [(1e-300, 0.5, 2.0), (1e-16, 0.5, 2.0), (1e-14, 0.5, 2.0), (1e-8, 0.5, 2.0), (1e-7, 0.5, 2.0)]
        + [(1e-8, 1.0, math.inf), (1.0, 1e300, math.inf)]
        + [(0.01, 0.0, math.inf), (1e-3, 0.0, math.inf), (0.01, 0.0, 1.0), (1e-7, 0.0, 50.0)],
    )
    def test_unresolvable_axis_is_refused(self, alpha, a, b):
        # u = x^alpha / alpha puts (0.5, 2) at about 1/alpha + (-0.69, 0.69):
        # at alpha = 1e-16 both ends round to 1e16 and the integral read 0.0;
        # for a = 0 and small alpha the first nodes' (alpha u)^(1/alpha) rounds
        # to 0.0, which would hand f the endpoint
        seen = []
        with pytest.raises(DomainError, match=re.escape(f"resolve ({a!r}, {b!r}) at alpha={alpha!r}:")):
            conf_integral(lambda x: seen.append(x) or np.ones_like(x), alpha, a, b)
        assert seen == []

    def test_normalization_names_the_axis_not_r(self):
        axis = re.escape("the axis u = x^alpha / alpha cannot resolve (0.0, inf) at alpha=0.01:")
        with pytest.raises(DomainError, match="^" + axis):
            normalization_report(QuantumNumbers(1, 0), ModelParams.natural(0.01))

    def test_small_alpha_on_resolvable_axes(self):
        # at alpha = 1e-6 both axes still hold 1e-9 of their width
        alpha = 1e-6
        got = conf_integral(lambda x: np.ones_like(x), alpha, 0.5, 2.0)
        assert got == pytest.approx((2.0**alpha - 0.5**alpha) / alpha, rel=1e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = conf_integral(lambda x: np.exp(-(x**alpha - 1.0) / alpha), alpha, 1.0, math.inf)
        assert got == pytest.approx(1.0, rel=1e-10)

    def test_abscissa_past_the_doubles_reaches_f_as_inf(self):
        # (alpha u)^(1/alpha) overflows on the far Laguerre nodes at alpha = 1e-6
        seen = []

        def f(x):
            seen.append(x)
            return x

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(EvaluationError, match=r"^integrand returned non-finite value at x=inf$"):
                conf_integral(f, 1e-6, 1.0, math.inf)
        assert len(seen) == 2 and np.isposinf(seen[-1][-1])

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
