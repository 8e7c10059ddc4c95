import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import eval_genlaguerre, lpmv

from confhydro import special
from confhydro.calculus import conf_integral
from confhydro.errors import DomainError, UnsupportedDegreeError
from confhydro.special import (
    LaguerreParams,
    LegendreParams,
    conf_laguerre,
    conf_laguerre_rodrigues_oracle,
    conf_legendre,
    laguerre_assoc,
    laguerre_assoc_du,
    laguerre_assoc_du2,
    laguerre_orthogonality_constant,
    legendre_assoc,
    legendre_assoc_dz,
    legendre_assoc_dz2,
)

U_GRID = np.array([0.1, 0.5, 1.0, 2.0, 4.0, 7.5])
Z_GRID = np.linspace(-0.95, 0.95, 21)


class TestLaguerreClassical:
    def test_low_degrees_exact(self):
        # L_0^m = 1, L_1^m = 1 + m - u, L_2^0(1) = -1/2
        assert laguerre_assoc(LaguerreParams(0, 3), 2.0) == 1.0
        assert laguerre_assoc(LaguerreParams(1, 1), 4.0) == pytest.approx(-2.0, abs=1e-14)
        assert laguerre_assoc(LaguerreParams(2, 0), 1.0) == pytest.approx(-0.5, abs=1e-14)

    @pytest.mark.parametrize("s", range(0, 7))
    @pytest.mark.parametrize("m", [0, 1, 3, 5])
    def test_against_scipy(self, s, m):
        got = laguerre_assoc(LaguerreParams(s, m), U_GRID)
        want = eval_genlaguerre(s, m, U_GRID)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("s,m", [(0, 0), (1, 2), (3, 1), (5, 4)])
    def test_derivatives_against_fd(self, s, m):
        p = LaguerreParams(s, m)
        h, h2 = 1e-6, 1e-4
        for u in (0.7, 2.3, 6.1):
            fd1 = (laguerre_assoc(p, u + h) - laguerre_assoc(p, u - h)) / (2 * h)
            fd2 = (
                laguerre_assoc(p, u + h2)
                - 2 * laguerre_assoc(p, u)
                + laguerre_assoc(p, u - h2)
            ) / (h2 * h2)
            assert laguerre_assoc_du(p, u) == pytest.approx(fd1, rel=1e-7, abs=1e-7)
            assert laguerre_assoc_du2(p, u) == pytest.approx(fd2, rel=1e-3, abs=1e-3)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            LaguerreParams(-1, 0)
        with pytest.raises(ValueError):
            LaguerreParams(0, -2)


class TestConfLaguerre:
    def test_substitution_values(self):
        # L_1^1 at x^0.5/0.5 for x=4 -> 1 + 1 - 4 = -2
        got = conf_laguerre(LaguerreParams(1, 1), 0.5, 4.0)
        assert got == pytest.approx(-2.0, abs=1e-14)

    def test_alpha_one_reduces_to_classical(self):
        p = LaguerreParams(4, 2)
        got = conf_laguerre(p, 1.0, U_GRID)
        np.testing.assert_allclose(got, laguerre_assoc(p, U_GRID), rtol=0, atol=0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            conf_laguerre(LaguerreParams(1, 0), 0.5, 0.0)
        with pytest.raises(DomainError):
            conf_laguerre(LaguerreParams(1, 0), 0.5, np.array([1.0, -2.0]))
        with pytest.raises(DomainError, match="NaN is refused"):
            conf_laguerre(LaguerreParams(1, 0), 0.5, np.array([1.0, math.nan]))

    @pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
    @pytest.mark.parametrize("s", [0, 1, 2, 3])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5])
    def test_rodrigues_oracle_agreement(self, alpha, s, m):
        p = LaguerreParams(s, m)
        for x in (0.5, 1.0, 2.0, 5.0):
            direct = conf_laguerre(p, alpha, x)
            oracle = conf_laguerre_rodrigues_oracle(p, alpha, x)
            assert abs(direct - oracle) <= 1e-5 * max(1.0, abs(oracle))

    def test_rodrigues_degree_cap(self):
        with pytest.raises(UnsupportedDegreeError):
            conf_laguerre_rodrigues_oracle(LaguerreParams(5, 0), 0.5, 1.0)

    def test_rodrigues_domain(self):
        with pytest.raises(DomainError):
            conf_laguerre_rodrigues_oracle(LaguerreParams(1, 0), 0.5, -1.0)
        # NaN fails x <= 0 as well as x > 0: without the check the oracle returns NaN
        with pytest.raises(DomainError, match="NaN is refused"):
            conf_laguerre_rodrigues_oracle(LaguerreParams(2, 1), 0.7, math.nan)


def _laguerre_one_array_per_step(s, m, u):
    """The recurrence as one expression per step, each making fresh arrays."""
    u = np.asarray(u, dtype=float)
    prev = np.ones_like(u)
    if s == 0:
        return prev
    cur = 1.0 + m - u
    for k in range(1, s):
        prev, cur = cur, ((2 * k + 1 + m - u) * cur - (k + m) * prev) / (k + 1)
    return cur


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


class TestLaguerreInPlace:
    """The in-place recurrence gives the bits of the expression written out."""

    @pytest.mark.parametrize("m", [0, 1, 3, 19])
    def test_same_bits_as_fresh_arrays(self, m):
        rng = np.random.default_rng(m)
        u = np.concatenate([rng.uniform(0.0, 80.0, 500), [0.0, -0.0, 1e-300, 700.0]])
        for s in range(0, 16):
            got = laguerre_assoc(LaguerreParams(s, m), u)
            want = _laguerre_one_array_per_step(s, m, u)
            np.testing.assert_array_equal(_bits(got), _bits(want))

    def test_shape_and_scalar(self):
        u = np.linspace(0.1, 30.0, 60).reshape(5, 12)
        got = laguerre_assoc(LaguerreParams(7, 2), u)
        assert got.shape == (5, 12)
        np.testing.assert_array_equal(_bits(got), _bits(_laguerre_one_array_per_step(7, 2, u)))
        scalar = laguerre_assoc(LaguerreParams(7, 2), 4.25)
        assert type(scalar) is float
        assert _bits(scalar) == _bits(_laguerre_one_array_per_step(7, 2, 4.25))

    def test_never_writes_the_callers_u(self):
        u = np.linspace(0.1, 30.0, 100)
        kept = u.copy()
        laguerre_assoc(LaguerreParams(9, 3), u)
        np.testing.assert_array_equal(_bits(u), _bits(kept))
        u.flags.writeable = False  # a write into u would raise
        laguerre_assoc(LaguerreParams(9, 3), u)


# L_s^1(1.0) for s = 0..4, the first element of each [1.0, u] below
L1_AT_ONE = [1.0, 1.0, 0.5, -float.fromhex("0x1.5555555555555p-3"), -float.fromhex("0x1.9555555555555p-1")]


class TestLaguerreRefusalByValue:
    """One recurrence, under ignored flags, then one look at its result."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s", range(5))
    @pytest.mark.parametrize("u", [math.inf, -math.inf, 1e300, math.nan], ids=["inf", "-inf", "1e300", "nan"])
    @pytest.mark.parametrize("array", [False, True], ids=["scalar", "array"])
    @pytest.mark.parametrize("conformable", [False, True], ids=["laguerre_assoc", "conf_laguerre"])
    def test_edges_refuse_or_give_fixed_bits(self, s, u, array, conformable):
        # an infinite u is refused from degree 1, where no inf - inf is formed
        # before degree 3, and 1e300 from degree 2, where u^2 overflows; at
        # alpha = 1 conf_laguerre passes x as u, after refusing -inf and NaN
        lp, arg, index = LaguerreParams(s, 1), [1.0, u] if array else u, "[1]" if array else ""
        if conformable and not u > 0.0:
            says = f"conformable Laguerre requires x > 0 (NaN is refused): x{index} = {u!r} for {lp!r} at alpha=1.0"
        elif s and (math.isinf(u) or (u == 1e300 and s >= 2)):
            says = f"associated Laguerre L_s^m(u) leaves the doubles: u{index} = {u!r} for {lp!r}"
        else:
            says = None
        call = (lambda: conf_laguerre(lp, 1.0, arg)) if conformable else (lambda: laguerre_assoc(lp, arg))
        if says is not None:
            with pytest.raises(DomainError) as refused:
                call()
            assert str(refused.value) == says
            return
        got = call()
        at_u = 1.0 if s == 0 else u if math.isnan(u) else -1e300  # 2 - 1e300 rounds to -1e300
        assert type(got) is (np.ndarray if array else float)
        np.testing.assert_array_equal(_bits(got), _bits([L1_AT_ONE[s], at_u] if array else at_u))

    @pytest.mark.parametrize(
        "u",
        [np.linspace(0.1, 30.0, 9), 4.25, np.array([3.0, math.nan, 1e300, 1e301]), 1e300, math.inf],
        ids=["finite", "scalar", "refused-array", "refused-scalar", "inf"],
    )
    def test_one_recurrence_per_call(self, monkeypatch, u):
        runs = []
        recurrence = special._laguerre

        def counting(params, v):
            runs.append(params)
            return recurrence(params, v)

        monkeypatch.setattr(special, "_laguerre", counting)
        for lp in (LaguerreParams(0, 2), LaguerreParams(2, 1), LaguerreParams(200, 1)):
            runs.clear()
            try:
                laguerre_assoc(lp, u)
            except DomainError:
                pass
            assert runs == [lp]

    @pytest.mark.parametrize("s,m", [(0, 0), (1, 3), (2, 1), (5, 2), (9, 4)])
    def test_triple_has_the_bits_of_the_public_functions(self, s, m):
        lp = LaguerreParams(s, m)
        for u in (np.geomspace(1e-3, 900.0, 50), 2.75):
            got = special._laguerre_triple(lp, u)
            want = laguerre_assoc(lp, u), laguerre_assoc_du(lp, u), laguerre_assoc_du2(lp, u)
            assert [type(v) for v in got] == [type(v) for v in want]
            for g, w in zip(got, want):
                np.testing.assert_array_equal(_bits(g), _bits(w))


class TestLaguerreOrthogonality:
    def test_constant_formula_examples(self):
        # s=1, m=2, alpha=1: 1 * 3!/1! * (2+2+1) = 30
        assert laguerre_orthogonality_constant(LaguerreParams(1, 2), 1.0) == pytest.approx(
            30.0
        )
        # s=0, m=1, alpha=0.5: 0.5^2 * 1 * 2 = 0.5
        assert laguerre_orthogonality_constant(LaguerreParams(0, 1), 0.5) == pytest.approx(
            0.5
        )

    @pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
    @pytest.mark.parametrize("s,m", [(0, 0), (1, 1), (2, 3), (3, 2)])
    def test_diagonal_integral_matches_constant(self, alpha, s, m):
        p = LaguerreParams(s, m)

        def integrand(x):
            v = np.asarray(conf_laguerre(p, alpha, x), dtype=float)
            return np.exp(-(x**alpha) / alpha) * x ** ((m + 1) * alpha) * v * v

        got = conf_integral(integrand, alpha, 0.0, math.inf)
        want = laguerre_orthogonality_constant(p, alpha)
        assert got == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("s,k,m", [(0, 2, 1), (0, 3, 2), (1, 3, 0), (1, 4, 2)])
    def test_off_diagonal_vanishes_when_degrees_differ_by_two_or_more(
        self, alpha, s, k, m
    ):
        # with weight x^((m+1) alpha) the cross terms cancel only for
        # |s - k| >= 2; adjacent degrees pick up a nonzero moment
        ps, pk = LaguerreParams(s, m), LaguerreParams(k, m)

        def integrand(x):
            vs = np.asarray(conf_laguerre(ps, alpha, x), dtype=float)
            vk = np.asarray(conf_laguerre(pk, alpha, x), dtype=float)
            return np.exp(-(x**alpha) / alpha) * x ** ((m + 1) * alpha) * vs * vk

        got = conf_integral(integrand, alpha, 0.0, math.inf)
        assert abs(got) <= 1e-8

    def test_adjacent_degrees_do_not_vanish(self):
        # documents the |s - k| = 1 exception: the weighted cross integral
        # equals -(s+1) (s+1+m)!/(s+1)! times alpha^(m+1), not zero
        alpha, m = 1.0, 1
        ps, pk = LaguerreParams(1, m), LaguerreParams(2, m)

        def integrand(x):
            vs = np.asarray(conf_laguerre(ps, alpha, x), dtype=float)
            vk = np.asarray(conf_laguerre(pk, alpha, x), dtype=float)
            return np.exp(-(x**alpha) / alpha) * x ** ((m + 1) * alpha) * vs * vk

        got = conf_integral(integrand, alpha, 0.0, math.inf)
        want = -(1 + 1) * math.factorial(1 + 1 + m) / math.factorial(1 + 1)
        assert got == pytest.approx(want, rel=1e-10)


class TestLegendreClassical:
    def test_low_order_exact(self):
        # P_1^1(z) = -sqrt(1-z^2), P_2^0(z) = (3z^2-1)/2
        z = 0.6
        assert legendre_assoc(LegendreParams(1, 1), z) == pytest.approx(-0.8, abs=1e-14)
        assert legendre_assoc(LegendreParams(2, 0), z) == pytest.approx(0.04, abs=1e-14)

    @pytest.mark.parametrize("l", range(0, 6))
    def test_against_scipy_all_orders(self, l):
        for m in range(-l, l + 1):
            got = legendre_assoc(LegendreParams(l, m), Z_GRID)
            want = lpmv(m, l, Z_GRID)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("l,m", [(1, 0), (2, 1), (3, -2), (4, 3)])
    def test_derivatives_against_fd(self, l, m):
        p = LegendreParams(l, m)
        h = 1e-6
        for z in (-0.4, 0.1, 0.7):
            fd1 = (legendre_assoc(p, z + h) - legendre_assoc(p, z - h)) / (2 * h)
            fd2 = (
                legendre_assoc(p, z + h)
                - 2 * legendre_assoc(p, z)
                + legendre_assoc(p, z - h)
            ) / (h * h)
            assert legendre_assoc_dz(p, z) == pytest.approx(fd1, rel=1e-7, abs=1e-7)
            assert legendre_assoc_dz2(p, z) == pytest.approx(fd2, rel=1e-3, abs=1e-3)

    @pytest.mark.parametrize("l", range(1, 7))
    def test_negative_order_is_the_scaled_positive_order(self, l):
        # P_l^-m = (-1)^m (l-m)!/(l+m)! P_l^m, bit for bit, and so are its
        # z-derivatives: the factor is applied once, after differentiating
        z = np.concatenate([np.linspace(-1.0, 1.0, 41), [-0.0, 1.0 + 5e-15]])
        inner = np.concatenate([np.linspace(-0.99, 0.99, 41), [-0.0]])
        calls = ((legendre_assoc, z), (legendre_assoc_dz, inner), (legendre_assoc_dz2, inner))
        for m in range(1, l + 1):
            scale = (-1.0) ** m * math.factorial(l - m) / math.factorial(l + m)
            for f, at in calls:
                want = scale * f(LegendreParams(l, m), at)
                got = f(LegendreParams(l, -m), at)
                np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=f.__name__)

    @pytest.mark.parametrize("f", [legendre_assoc, legendre_assoc_dz, legendre_assoc_dz2])
    def test_one_recurrence_pass_per_call(self, monkeypatch, f):
        passes = []
        one_pass = special._legendre

        def counting(params, z, order):
            passes.append(order)
            return one_pass(params, z, order)

        monkeypatch.setattr(special, "_legendre", counting)
        for l, m in [(0, 0), (1, 1), (4, -2), (6, 3)]:
            passes.clear()
            f(LegendreParams(l, m), np.linspace(-0.9, 0.9, 7))
            f(LegendreParams(l, m), 0.3)
            assert len(passes) == 2

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            LegendreParams(1, 2)
        with pytest.raises(DomainError):
            legendre_assoc(LegendreParams(1, 0), 1.5)
        with pytest.raises(DomainError, match="NaN is refused"):
            legendre_assoc(LegendreParams(1, 0), np.array([0.5, math.nan]))
        with pytest.raises(DomainError):
            legendre_assoc_dz(LegendreParams(1, 0), 1.0)
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            LegendreParams(-1, 0)

    @pytest.mark.parametrize("z", [-1.0, 1.0, 1.0 - 5e-15, 1.0 + 5e-15])
    @pytest.mark.parametrize("l,m", [(0, 0), (1, 0), (2, 1), (3, -2)])
    def test_second_derivative_refuses_the_poles(self, l, m, z):
        # 1 + 5e-15 lies within |z| <= 1 + 1e-14, so the pole margin refuses it
        for arg in (z, np.array([0.5, z])):
            with pytest.raises(DomainError, match=r"Legendre derivative requires \|z\| < 1 with margin"):
                legendre_assoc_dz2(LegendreParams(l, m), arg)


def _accepted(l, m):
    """The documented range: sqrt((l+|m|)!/(l-|m|)!) <= 1e250 if m >= 0, and
    (l-|m|)!/(l+|m|)! at least the least normal double if m < 0."""
    a = abs(m)
    log_ratio = math.lgamma(l + a + 1) - math.lgamma(l - a + 1)
    if m < 0:
        return log_ratio <= -math.log(sys.float_info.min)
    return log_ratio / 2 <= math.log(1e250)


class TestLegendreRange:
    """Outside the doubles the Legendre family raises, inside it is finite."""

    @pytest.mark.parametrize(
        "l,m,z",
        [(91, -91, 0.5), (200, -68, 0.5), (160, 155, 0.2), (189, 141, 0.5),
         (500, 125, 0.5), (200, 200, 0.9999)],
    )
    def test_orders_beyond_the_doubles_are_refused(self, l, m, z):
        for f in (legendre_assoc, legendre_assoc_dz, legendre_assoc_dz2):
            with pytest.raises(DomainError, match=rf"\({l}, {m}\) is refused"):
                f(LegendreParams(l, m), z)

    def test_negative_order_past_170_factorial(self):
        # (l-|m|)!/(l+|m|)! = 1/(199 * 200 * 201) although 201! is no double
        with mpmath.workdps(80):
            want = float(mpmath.legenp(200, -1, mpmath.mpf(0.5)))
        got = legendre_assoc(LegendreParams(200, -1), 0.5)
        assert got == pytest.approx(want, rel=1e-14, abs=0)

    def test_the_edge_of_the_accepted_range_is_finite(self):
        # at each degree the bound sqrt((l+|m|)!/(l-|m|)!) grows with |m|, so
        # the largest accepted |m| of each sign carries the largest values
        z = np.linspace(-1.0, 1.0, 2001)
        inner = np.concatenate([z[1:-1], [-1.0 + 1e-12, 1.0 - 1e-12]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for l in range(401):
                for sign in (1, -1):
                    a = next(a for a in range(l, -1, -1) if _accepted(l, sign * a))
                    lp = LegendreParams(l, sign * a)
                    for f, at in ((legendre_assoc, z), (legendre_assoc_dz, inner), (legendre_assoc_dz2, inner)):
                        if sign > 0 or a:  # m = 0 is the edge of m >= 0 only
                            assert np.all(np.isfinite(f(lp, at))), (l, sign * a, f.__name__)
                        if a < l:
                            with pytest.raises(DomainError, match="is refused"):
                                f(LegendreParams(l, sign * (a + 1)), at)


class TestConfLegendre:
    def test_substitution_value(self):
        # P_1^0(cos(theta^alpha)) at theta^alpha = pi/3 -> 0.5
        alpha = 0.5
        theta = (math.pi / 3.0) ** (1.0 / alpha)
        got = conf_legendre(LegendreParams(1, 0), alpha, theta)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_alpha_one_reduces_to_classical(self):
        th = np.linspace(0.1, 3.0, 15)
        got = conf_legendre(LegendreParams(2, 1), 1.0, th)
        want = legendre_assoc(LegendreParams(2, 1), np.cos(th))
        np.testing.assert_allclose(got, want, rtol=0, atol=0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            conf_legendre(LegendreParams(1, 0), 0.5, 0.0)
        with pytest.raises(DomainError, match="NaN is refused"):
            conf_legendre(LegendreParams(1, 0), 0.5, math.nan)
        with pytest.raises(DomainError):
            # theta^alpha beyond pi
            conf_legendre(LegendreParams(1, 0), 0.5, (math.pi + 0.5) ** 2)
