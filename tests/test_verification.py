import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import confhydro
from confhydro import hydrogen, special, verification
from confhydro.calculus import _conformable_first, _conformable_second
from confhydro.errors import ConvergenceError, DomainError, EvaluationError
from confhydro.hydrogen import (
    ModelParams,
    QuantumNumbers,
    radial_with_derivatives,
    u_with_derivatives,
)
from confhydro.special import (
    LaguerreParams,
    LegendreParams,
    legendre_assoc,
    legendre_assoc_dz,
    legendre_assoc_dz2,
)
from confhydro.verification import (
    ResidualReport,
    _conformable,
    _legendre_triple,
    angular_ode_residual,
    classical_limit_report,
    default_grid,
    laguerre_ode_residual,
    normalization_report,
    radial_ode_residual,
    run_verification,
    u_ode_residual,
)

import mp_oracle


class TestResidualLevels:
    @pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
    @pytest.mark.parametrize("n,l", [(1, 0), (2, 1), (3, 1)])
    def test_radial_analytic_near_zero(self, alpha, n, l):
        rep = radial_ode_residual(QuantumNumbers(n, l), ModelParams.natural(alpha))
        assert rep.max_rel_residual <= 1e-6

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

    def test_u_exact_ground_state_from_1e_20(self):
        # the classical (u, u', u'') chained back through rho^(1 - alpha) and
        # rho^(2 - 2 alpha) read 0.0762 here, against the gate of 1e-6
        grid = np.geomspace(1e-20, 30.0, 200)
        rep = u_ode_residual(QuantumNumbers(1, 0), ModelParams.natural(0.75), grid=grid)
        assert rep.max_rel_residual <= 1e-6

    @pytest.mark.parametrize("alpha", [0.5, 0.75])
    @pytest.mark.parametrize("l", range(5))
    def test_angular_at_rounding_level(self, monkeypatch, alpha, l):
        # through the classical chain in theta this read 2.9e-9 below alpha = 1;
        # each signed m is certified at its own order, not at |m|
        orders, triple = [], verification._legendre_triple

        def recorded(lp, *args):
            orders.append(lp.order)
            return triple(lp, *args)

        monkeypatch.setattr(verification, "_legendre_triple", recorded)
        for m in range(-l, l + 1):
            assert angular_ode_residual(l, m, alpha).max_rel_residual <= 1e-12, m
        assert orders == list(range(-l, l + 1))

    def test_angular_range_is_that_of_the_neighbouring_orders(self):
        # (86, -83) is in legendre_assoc's range, but its neighbour (86, -85) is not
        assert angular_ode_residual(86, -82, 0.8).max_rel_residual <= 1e-12
        with pytest.raises(DomainError, match=re.escape("associated Legendre (86, -85) is refused")) as refused:
            angular_ode_residual(86, -83, 0.8)
        # and names the state and alpha that the certifier was asked for
        assert str(refused.value).endswith(
            ", as the certifier of state (l, m) = (86, -83) at alpha=0.8 uses orders m-2 to m+2"
        )

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
            "term_scale",
        }
        json.dumps(d)  # must be serializable as-is

    def test_mode_is_gone(self):
        qn, p = QuantumNumbers(2, 1), ModelParams.natural(0.5)
        for certifier in (radial_ode_residual, u_ode_residual, laguerre_ode_residual):
            with pytest.raises(TypeError, match="mode"):
                certifier(qn, p, mode="analytic")
        with pytest.raises(TypeError, match="mode"):
            angular_ode_residual(1, 1, 0.5, mode="analytic")

    def test_perturbation_is_gone(self):
        qn, p = QuantumNumbers(2, 1), ModelParams.natural(0.5)
        for certifier in (radial_ode_residual, u_ode_residual):
            with pytest.raises(TypeError, match="perturbation"):
                certifier(qn, p, perturbation=None)
        with pytest.raises(TypeError, match="perturbation"):
            run_verification("quick", perturbation=None)
        assert not hasattr(verification, "tilt_perturbation")
        assert not hasattr(confhydro, "tilt_perturbation")


# bound on |analytic - oracle| relative to the largest |oracle| value of each
# derivative over the points compared; the worst error measured on the full
# certifier grids is 1.5e-11, for P'' next to the poles
ORACLE_BOUND = 1e-9
oracle_settings = settings(derandomize=True, database=None, max_examples=20, deadline=None)
alphas = st.floats(0.3, 1.0)
# coarse copies of the certifiers' default grids, to which each example adds a point
RADIAL_POINTS = default_grid(points=8)
LAGUERRE_POINTS = default_grid(0.5, 10.0, 8)
POLAR_POINTS = np.linspace(0.05, math.pi - 0.05, 8)  # theta^alpha


@st.composite
def states(draw):
    n = draw(st.integers(1, 4))
    return n, draw(st.integers(0, n - 1))


def assert_matches_oracle(got, f, points, alpha=None):
    """``got`` is (f, f', f''), or (f, D^alpha f, D^alpha D^alpha f) given alpha."""
    if alpha is None:
        want = np.array([mp_oracle.triple(f, t) for t in points]).T
    else:
        want = np.array([mp_oracle.conformable_triple(f, t, alpha) for t in points]).T
    for order, (g, w) in enumerate(zip(got, want)):
        err, scale = np.max(np.abs(g - w)), np.max(np.abs(w))
        assert err <= ORACLE_BOUND * scale, (order, err, scale)


class TestOracleTriples:
    """Every analytic triple against the mpmath oracle: the (f, D^a f, D^a D^a f)
    that each certifier uses, and the public (f, f', f'') of R and u."""

    @pytest.mark.parametrize("rho", [1e-20, 1e-100])
    def test_oracle_holds_near_the_origin(self, rho):
        # u of (2, 1) at alpha 0.5 is 4 C rho e^(-sqrt(rho)), C = 1 / (2 sqrt(3)): the
        # second difference must resolve u'' ~ -3 C / sqrt(rho) against u ~ rho
        with mp.workdps(mp_oracle.DPS):
            x, C = mp.mpf(rho), 1 / (2 * mp.sqrt(3))
            s, E = mp.sqrt(x), mp.exp(-mp.sqrt(x))
            want = tuple(float(v) for v in (4 * C * x * E, 4 * C * E * (1 - s / 2), C * E * (1 - 3 / s)))
        assert mp_oracle.triple(mp_oracle.scaled_u(2, 1, 0.5, 1.0), rho) == want

    @pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
    @pytest.mark.parametrize("n,l", [(n, l) for n in range(1, 5) for l in range(n)])
    def test_exact_solution_on_default_grid(self, alpha, n, l):
        # every state the radial and u certifiers check by default, from t = 1e-3 to 30
        qn, p, r = QuantumNumbers(n, l), ModelParams.natural(alpha), default_grid(points=12)
        R, u = mp_oracle.radial(n, l, alpha, 1.0), mp_oracle.scaled_u(n, l, alpha, 1.0)
        assert_matches_oracle(hydrogen._radial_triple(qn, p, r), R, r, alpha)
        assert_matches_oracle(hydrogen._u_triple(qn, p, r), u, r, alpha)
        assert_matches_oracle(radial_with_derivatives(qn, p, r), R, r)
        assert_matches_oracle(u_with_derivatives(qn, p, r), u, r)

    @pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
    def test_angular_chain_on_default_grid(self, alpha):
        # the angular certifier's default theta range, coarsened, for (l, m) = (2, 1)
        theta = np.linspace(0.05, math.pi - 0.05, 12) ** (1.0 / alpha)
        got = _legendre_triple(LegendreParams(2, 1), alpha, theta**alpha)
        assert_matches_oracle(got, mp_oracle.conf_legendre(2, 1, alpha), theta, alpha)

    @pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
    def test_legendre_triple_at_rounding_level(self, alpha):
        # from the neighbouring orders; through the lowering relations, which
        # divide by z^2 - 1, P'' was 8.0e-13 of its largest value off
        theta = np.linspace(0.05, math.pi - 0.05, 37) ** (1.0 / alpha)
        for l, m in ((l, m) for l in range(5) for m in range(-l, l + 1)):
            got = _legendre_triple(LegendreParams(l, m), alpha, theta**alpha)
            P = mp_oracle.conf_legendre(l, m, alpha)
            want = np.array([mp_oracle.conformable_triple(P, t, alpha) for t in theta]).T
            for order, (g, w) in enumerate(zip(got, want)):
                assert np.max(np.abs(g - w)) <= 2e-14 * np.max(np.abs(w)), (l, m, order)

    @oracle_settings
    @given(state=states(), alpha=alphas, r_b=st.floats(0.25, 4.0), t=st.floats(1e-3, 30.0))
    def test_radial(self, state, alpha, r_b, t):
        (n, l), r = state, np.append(RADIAL_POINTS, t)
        qn, p, R = QuantumNumbers(n, l), ModelParams.physical(alpha, r_b), mp_oracle.radial(n, l, alpha, r_b)
        assert_matches_oracle(hydrogen._radial_triple(qn, p, r), R, r, alpha)
        assert_matches_oracle(radial_with_derivatives(qn, p, r), R, r)

    @oracle_settings
    @given(state=states(), alpha=alphas, r_b=st.floats(0.25, 4.0), t=st.floats(1e-3, 30.0))
    def test_u(self, state, alpha, r_b, t):
        (n, l), rho = state, np.append(RADIAL_POINTS, t)
        qn, p, u = QuantumNumbers(n, l), ModelParams.physical(alpha, r_b), mp_oracle.scaled_u(n, l, alpha, r_b)
        assert_matches_oracle(hydrogen._u_triple(qn, p, rho), u, rho, alpha)
        assert_matches_oracle(u_with_derivatives(qn, p, rho), u, rho)

    @oracle_settings
    @given(s=st.integers(0, 3), m=st.integers(0, 7), alpha=alphas, t=st.floats(0.5, 10.0))
    def test_laguerre_in_rho(self, s, m, alpha, t):
        rho = np.append(LAGUERRE_POINTS, t)
        got = special._laguerre_triple(LaguerreParams(s, m), rho**alpha / alpha)
        # D^alpha = d/dy: past order s, the y-derivatives of L_s^m are exactly 0,
        # where the oracle's finite differences leave about 1e-20 of the terms
        assert all(np.all(v == 0.0) for v in got[s + 1 :])
        assert_matches_oracle(got[: s + 1], mp_oracle.conf_laguerre(s, m, alpha), rho, alpha)

    @oracle_settings
    @given(l=st.integers(0, 4), data=st.data(), x=st.floats(0.05, math.pi - 0.05))
    def test_legendre_in_z(self, l, data, x):
        m = data.draw(st.integers(-l, l), label="m")
        lp, z = LegendreParams(l, m), np.cos(np.append(POLAR_POINTS, x))
        got = legendre_assoc(lp, z), legendre_assoc_dz(lp, z), legendre_assoc_dz2(lp, z)
        assert_matches_oracle(got, mp_oracle.legendre(l, m), z)

    @oracle_settings
    @given(l=st.integers(0, 4), data=st.data(), alpha=alphas, x=st.floats(0.05, math.pi - 0.05))
    def test_legendre_in_theta(self, l, data, alpha, x):
        m = data.draw(st.integers(-l, l), label="m")
        theta = np.append(POLAR_POINTS, x) ** (1.0 / alpha)
        got = _legendre_triple(LegendreParams(l, m), alpha, theta**alpha)
        assert_matches_oracle(got, mp_oracle.conf_legendre(l, m, alpha), theta, alpha)

    @oracle_settings
    @given(state=states(), alpha=alphas, t=st.floats(1e-3, 30.0))
    def test_perturbed_radial(self, state, alpha, t):
        # the product rule that applies the fault, against the oracle of R (1 + 0.01 r)
        (n, l), r = state, np.append(RADIAL_POINTS, t)
        qn, p = QuantumNumbers(n, l), ModelParams.natural(alpha)
        got = _conformable(r, alpha, hydrogen._radial_triple(qn, p, r), tilt=True)
        R = mp_oracle.radial(n, l, alpha, 1.0)
        assert_matches_oracle(got, lambda x: R(x) * (1 + x / 100), r, alpha)


class TestArrayCertifiers:
    @pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
    @pytest.mark.parametrize("n,l", [(1, 0), (2, 1), (4, 2)])
    @pytest.mark.parametrize(
        "triple,conformable",
        [(radial_with_derivatives, hydrogen._radial_triple), (u_with_derivatives, hydrogen._u_triple)],
        ids=["radial_with_derivatives", "u_with_derivatives"],
    )
    def test_terms_match_scalar_oracles(self, triple, conformable, n, l, alpha):
        # the certifier's triple against the conformable identities at each
        # point, applied to the public classical one
        qn, p = QuantumNumbers(n, l), ModelParams.natural(alpha)
        t = np.array([0.01, 0.3, 1.0, 4.5, 17.0])
        _, d1, d2 = _conformable(t, alpha, conformable(qn, p, t))
        for i, ti in enumerate(t):
            _, df, d2f = triple(qn, p, ti)
            assert d1[i] == pytest.approx(_conformable_first(ti, alpha, df), rel=1e-12)
            assert d2[i] == pytest.approx(_conformable_second(ti, alpha, df, d2f), rel=1e-12)

    def test_laguerre_calls_do_not_grow_with_the_grid(self, monkeypatch):
        calls = []
        original = special.laguerre_assoc

        def counting(*args):
            calls.append(args)
            return original(*args)

        for module in (special, hydrogen):
            monkeypatch.setattr(module, "laguerre_assoc", counting)
        counts = []
        for points in (20, 2000):
            calls.clear()
            radial_ode_residual(
                QuantumNumbers(3, 1),
                ModelParams.natural(0.7),
                grid=default_grid(points=points),
            )
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_non_finite_solution_names_the_grid_point(self, monkeypatch):
        def poisoned(qn, params, t):
            f = np.where(t > 1.5, np.nan, 1.0)
            return f, 0.0 * t, 0.0 * t

        monkeypatch.setattr(verification, "_radial_triple", poisoned)
        with pytest.raises(EvaluationError, match=r"t=2\.0\b"):
            radial_ode_residual(
                QuantumNumbers(2, 1),
                ModelParams.natural(0.8),
                grid=np.array([0.5, 1.0, 2.0, 4.0]),
            )

    def test_nonpositive_grid_rejected(self):
        with pytest.raises(DomainError):
            laguerre_ode_residual(
                QuantumNumbers(2, 0), ModelParams.natural(0.5), grid=np.array([0.0, 1.0])
            )

    @pytest.mark.parametrize("bad", [np.nan, -1.0, 0.0], ids=["nan", "negative", "zero"])
    @pytest.mark.parametrize("certifier", ["radial", "u", "laguerre", "angular"])
    def test_nan_grid_rejected(self, certifier, bad):
        # refused before anything is evaluated: at theta = -1, theta**alpha
        # would otherwise raise numpy's invalid-value warning first
        qn, p, grid = QuantumNumbers(2, 1), ModelParams.natural(0.5), np.array([0.5, bad, 2.0])
        call = {
            "radial": lambda: radial_ode_residual(qn, p, grid=grid),
            "u": lambda: u_ode_residual(qn, p, grid=grid),
            "laguerre": lambda: laguerre_ode_residual(qn, p, grid=grid),
            "angular": lambda: angular_ode_residual(1, 1, 0.5, theta_grid=grid),
        }[certifier]
        with pytest.raises(DomainError, match=re.escape("(NaN is refused)")):
            call()

    @pytest.mark.parametrize("grid", [[], np.ones((2, 2)), 1.0], ids=["empty", "2-d", "scalar"])
    @pytest.mark.parametrize("certifier", ["radial", "u", "laguerre", "angular"])
    def test_grid_must_be_nonempty_1d(self, certifier, grid):
        qn, p = QuantumNumbers(2, 1), ModelParams.natural(0.5)
        call = {
            "radial": lambda: radial_ode_residual(qn, p, grid=grid),
            "u": lambda: u_ode_residual(qn, p, grid=grid),
            "laguerre": lambda: laguerre_ode_residual(qn, p, grid=grid),
            "angular": lambda: angular_ode_residual(1, 1, 1.0, theta_grid=grid),
        }[certifier]
        name = "theta_grid" if certifier == "angular" else "grid"
        message = f"grid must be a nonempty 1-d array: {name} has shape {np.shape(grid)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_angular_grid_past_pi_refused(self, alpha):
        # theta^alpha = 1, 3.5, 4: the last two lie outside the polar range
        theta = np.array([1.0, 3.5, 4.0]) ** (1.0 / alpha)
        message = (
            f"theta^alpha must lie in [0, pi]: theta_grid[1] = {float(theta[1])!r} "
            f"for state (l, m) = (1, 1) at alpha={alpha!r}"
        )
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            angular_ode_residual(1, 1, alpha, theta_grid=theta)


class TestNegativeControls:
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_tilt_breaks_radial_equation(self, alpha):
        qn = QuantumNumbers(2, 0)
        p = ModelParams.natural(alpha)
        clean = radial_ode_residual(qn, p).max_rel_residual
        broken = radial_ode_residual(qn, p, inject_fault=True).max_rel_residual
        assert broken >= 100.0 * max(clean, 1e-12)

    def test_tilt_breaks_u_equation(self):
        qn = QuantumNumbers(3, 1)
        p = ModelParams.natural(0.75)
        clean = u_ode_residual(qn, p).max_rel_residual
        broken = u_ode_residual(qn, p, inject_fault=True).max_rel_residual
        assert broken >= 100.0 * max(clean, 1e-12)


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n,l,r_b", [(2, 1, 1e-100), (2, 1, 1e-5), (2, 1, 1e100), (5, 4, 1e-100), (10, 9, 1e-100)])
    def test_a_norm_of_zero_is_refused(self, n, l, r_b):
        # no quadrature node sees the state's mass, and the integral read 0.0
        where = f"the normalization integral of (n, l) = ({n}, {l}) at alpha = 0.7, r_b = {r_b!r}"
        with pytest.raises(DomainError, match=re.escape(f"{where} evaluates to 0.0")):
            normalization_report(QuantumNumbers(n, l), ModelParams.physical(0.7, r_b))

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
        report = run_verification("quick", inject_fault=True)
        assert report["passed"] is False

    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_angular_check_reaches_negative_orders(self, monkeypatch, level):
        states, certify = [], verification.angular_ode_residual

        def recorded(l, m, alpha):
            states.append((l, m))
            return certify(l, m, alpha)

        monkeypatch.setattr(verification, "angular_ode_residual", recorded)
        run_verification(level)
        assert set(states) == {(l, m) for l in range(3) for m in range(-l, l + 1)}

    def test_full_residuals_at_rounding_level(self):
        report = run_verification("full")
        residuals = {c["name"]: c["measured"] for c in report["checks"] if c["name"].endswith("_ode_residual")}
        assert len(residuals) == 4
        assert all(v <= 1e-12 for v in residuals.values()), residuals

    def test_elapsed_seconds_survive_a_wall_clock_step(self, monkeypatch):
        # a wall clock that steps back 1000 s at every reading, as after an
        # NTP correction, made elapsed_seconds negative
        clock = itertools.count(2e9, -1000.0)
        monkeypatch.setattr(verification.time, "time", lambda: next(clock))
        assert 0.0 <= run_verification("quick")["elapsed_seconds"] < 5.0

    def test_bad_level(self):
        with pytest.raises(ValueError):
            run_verification("medium")
