"""Each refusal of an input names its rule, the parameter, the index and value
of the first element that breaks the rule, and the state where there is one."""
import cmath
import itertools
import math
import re
import sys
import time
import warnings

import numpy as np
import pytest

from confhydro import calculus, cli
from confhydro.calculus import alpha_value
from confhydro.errors import DomainError, EvaluationError, UnsupportedDegreeError
from confhydro.reference import PSI_CLOSED_FORMS, RADIAL_CLOSED_FORMS, TEXTBOOK_RADIAL, textbook_spherical_harmonic
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
from confhydro.special import (
    LaguerreParams,
    LegendreParams,
    conf_laguerre,
    conf_laguerre_rodrigues_oracle,
    conf_legendre,
    laguerre_assoc,
    laguerre_assoc_du,
    laguerre_orthogonality_constant,
    legendre_assoc,
    legendre_assoc_dz,
)
from confhydro.verification import (
    angular_ode_residual,
    classical_limit_report,
    laguerre_ode_residual,
    normalization_report,
    radial_ode_residual,
    u_ode_residual,
)

QN, P = QuantumNumbers(3, 1, -1), ModelParams(0.7, 1.5)
STATE = "state (n, l, m) = (3, 1, -1) at alpha=0.7, r_b=1.5"
ANGLES = "state (n, l, m) = (3, 1, -1) at alpha=0.7"
R_RULE = "radial coordinate must be positive (NaN is refused)"
T_RULE = "conformable derivative requires t > 0 (NaN is refused)"
R_B_RULE = "alpha-Bohr radius r_b_alpha must be finite and > 0"
BIG = 70_000  # above one block of the array kernels
LAGUERRE_5, LAGUERRE_200 = "LaguerreParams(degree=5, order=1)", "LaguerreParams(degree=200, order=1)"
PAST = 10**400  # an int past the doubles: float() of it raises OverflowError
HUGE = 10**5000  # an int whose decimal string is past Python's default limit of 4,300 digits
HUGE_SHOWN = "<int of 5001 digits>"


def _outcome(call, *args):
    """What ``call(*args)`` gives: the type and repr of its value, or the
    type and message of its error."""
    try:
        value = call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), repr(value)


# (call, its ints) whose numpy integers wrapped, and the dtypes that hold the ints
_NARROW = {
    "R (200, 100)": (lambda n, l: radial_wavefunction(QuantumNumbers(n, l), ModelParams(0.5), 1.0), (200, 100)),
    "R (100, 50)": (lambda n, l: radial_wavefunction(QuantumNumbers(n, l), ModelParams(0.5), 1.0), (100, 50)),
    "QuantumNumbers": (QuantumNumbers, (120, 3)),
    "laguerre certifier": (lambda n, l: laguerre_ode_residual(QuantumNumbers(n, l), ModelParams(0.7)), (100, 20)),
    "legendre_assoc": (lambda l, m: legendre_assoc(LegendreParams(l, m), 0.5), (100, -100)),
    "angular certifier": (lambda l, m: angular_ode_residual(l, m, 0.7), (100, 50)),
    "energy_level": (lambda n: energy_level(n, 0.5), (3,)),
    "classical_limit_report": (classical_limit_report, (2,)),
}
NARROW_CASES = [
    pytest.param(call, ints, dtype, id=f"{name}-{dtype.__name__}")
    for name, (call, ints) in _NARROW.items()
    for dtype in (np.int8, np.uint8, np.int16, np.int64)
    if all(np.iinfo(dtype).min <= i <= np.iinfo(dtype).max for i in ints)
]
# 9 grid points across the doubles, for the certifiers
SWEEP = [5e-324, 1e-300, 1e-200, 1e-100, 1.0, 1e100, 1e200, 1e300, 1.7e308]


def _with(size, index, value, fill=1.0):
    """``size`` points of ``fill`` with ``value`` at ``index``."""
    x = np.full(size, fill)
    x[index] = value
    return x


def _grid(index, value):
    x = np.linspace(0.5, 2.5, 5)
    x[index] = value
    return x


ones = np.ones(BIG)
theta_2d = np.ones((3, 4))
theta_2d[1, 2] = math.nan

# (call, rule, parameter, index as printed, value, state)
CASES = {
    "R r=0": (lambda: radial_wavefunction(QN, P, _grid(2, 0.0)), R_RULE, "r", "[2]", 0.0, STATE),
    "R scalar nan": (lambda: radial_wavefunction(QN, P, math.nan), R_RULE, "r", "", math.nan, STATE),
    "density": (
        lambda: probability_density_radial(QN, P, _grid(3, -1.0)),
        "grid points must be positive (NaN is refused)", "grid", "[3]", -1.0, STATE,
    ),
    "u": (
        lambda: u_function(QN, P, _grid(1, math.nan)),
        "scaled radial coordinate must be positive (NaN is refused)", "rho", "[1]", math.nan, STATE,
    ),
    "psi r": (lambda: full_wavefunction(QN, P, _grid(4, -0.0), 1.0, 0.5), R_RULE, "r", "[4]", -0.0, STATE),
    "psi theta": (
        lambda: full_wavefunction(QN, P, 1.0, _grid(0, 0.0), 0.5),
        "theta must be positive (NaN is refused)", "theta", "[0]", 0.0, ANGLES,
    ),
    "psi phi block": (
        lambda: full_wavefunction(QN, P, ones, ones, _with(BIG, 40_000, 50.0)),
        "phi^alpha must lie in [0, 2 pi]", "phi", "[40000]", 50.0, ANGLES,
    ),
    "Y phi": (
        lambda: angular_Y(QN, 0.7, 1.0, _grid(2, -1e-300)),
        "phi must be nonnegative (NaN is refused)", "phi", "[2]", -1e-300, ANGLES,
    ),
    "Y theta 2-d": (
        lambda: angular_Y(QN, 0.7, theta_2d, 0.5),
        "theta must be positive (NaN is refused)", "theta", "[1, 2]", math.nan, ANGLES,
    ),
    "Y theta block": (
        lambda: angular_Y(QN, 0.7, _with(BIG, 50_000, 16.0), ones),
        "theta^alpha must lie in [0, pi]", "theta", "[50000]", 16.0, ANGLES,
    ),
    "Y theta broadcast": (
        lambda: angular_Y(QN, 0.7, _with(BIG, 33_000, 16.0).reshape(BIG, 1), np.ones((1, 2))),
        "theta^alpha must lie in [0, pi]", "theta", "[33000, 0]", 16.0, ANGLES,
    ),
    "conf_laguerre": (
        lambda: conf_laguerre(LaguerreParams(2, 1), 0.7, _grid(3, 0.0)),
        "conformable Laguerre requires x > 0 (NaN is refused)", "x", "[3]", 0.0,
        "LaguerreParams(degree=2, order=1) at alpha=0.7",
    ),
    "conf_legendre": (
        lambda: conf_legendre(LegendreParams(2, 1), 0.7, _grid(1, 16.0)),
        "theta^alpha must lie in [0, pi]", "theta", "[1]", 16.0,
        "LegendreParams(degree=2, order=1) at alpha=0.7",
    ),
    "legendre_assoc": (
        lambda: legendre_assoc(LegendreParams(2, -1), np.array([0.5, -0.2, -1.5])),
        "associated Legendre requires |z| <= 1 (NaN is refused)", "z", "[2]", -1.5,
        "LegendreParams(degree=2, order=-1)",
    ),
    "radial certifier": (lambda: radial_ode_residual(QN, P, grid=_grid(2, math.nan)), T_RULE, "grid", "[2]",
                         math.nan, STATE),
    "u certifier": (lambda: u_ode_residual(QN, P, grid=_grid(0, -2.0)), T_RULE, "grid", "[0]", -2.0, STATE),
    "laguerre certifier": (lambda: laguerre_ode_residual(QN, P, grid=_grid(4, 0.0)), T_RULE, "grid", "[4]",
                           0.0, STATE),
    "angular certifier": (
        lambda: angular_ode_residual(2, 1, 0.7, theta_grid=_grid(3, 9.0)),
        "theta^alpha must lie in [0, pi]", "theta_grid", "[3]", 9.0, "state (l, m) = (2, 1) at alpha=0.7",
    ),
    # r^(2 alpha) is inf where R is 0: the report read max_rel_residual = nan
    "radial certifier terms": (
        lambda: radial_ode_residual(QuantumNumbers(2, 1), ModelParams(1.0), grid=[0.5, 1e200]),
        "the terms of the equation leave the doubles", "grid", "[1]", 1e200,
        "state (n, l, m) = (2, 1, 0) at alpha=1.0, r_b=1.0",
    ),
    # rho^(2 alpha) underflows to 0, and lam / 0 * u is NaN
    "u certifier terms": (
        lambda: u_ode_residual(QuantumNumbers(2, 1), ModelParams(0.7), grid=[1e-300]),
        "the terms of the equation leave the doubles", "grid", "[0]", 1e-300,
        "state (n, l, m) = (2, 1, 0) at alpha=0.7, r_b=1.0",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_refusal_names_parameter_index_value_and_state(case):
    call, rule, name, index, value, state = CASES[case]
    with pytest.raises(DomainError) as refused:
        call()
    assert str(refused.value) == f"{rule}: {name}{index} = {value!r} for {state}"


def test_constant_whose_product_leaves_the_doubles_is_named():
    # (2 l + 1) (l - m)! is an int past the doubles, though each factor fits
    with pytest.raises(DomainError) as refused:
        angular_Y(QuantumNumbers(86, 85, -85), 0.3, 1.0, 0.5)
    assert str(refused.value) == (
        "angular normalisation of state (n, l, m) = (86, 85, -85) at alpha=0.3 is not a finite positive "
        "double: the product of its factors overflows a double (int too large to convert to float)"
    )


def test_a_float_array_that_passes_is_returned_as_it_is():
    x = np.linspace(1.0, 2.0, 5)
    assert calculus._checked(x, "x", calculus._positive, R_RULE) is x


class TestSatellites:
    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda: LaguerreParams(2.5, 1), "degree must be an integer, got 2.5"),
            (lambda: LaguerreParams(True, 1), "degree must be an integer, got True"),
            (lambda: LaguerreParams(2, 1.0), "order must be an integer, got 1.0"),
            (lambda: LegendreParams(2.5, 1), "degree must be an integer, got 2.5"),
            (lambda: LegendreParams(2, np.float64(1.0)), "order must be an integer, got np.float64(1.0)"),
            # True read as 1 returned 0.0, and 2.0 raised a bare TypeError from range
            (lambda: classical_limit_report(True), "n_max must be an integer, got True"),
            (lambda: classical_limit_report(2.0), "n_max must be an integer, got 2.0"),
        ],
    )
    def test_orders_are_integers_as_quantum_numbers_are(self, make, message):
        with pytest.raises(ValueError) as refused:
            make()
        assert str(refused.value) == message

    @pytest.mark.parametrize(
        "make,error,says",
        [
            (lambda: alpha_value(True), DomainError, "alpha must lie in (0, 1], got True"),
            (lambda: alpha_value(np.bool_(True)), DomainError, "alpha must lie in (0, 1], got np.True_"),
            (lambda: energy_level(2, True), DomainError, "alpha must lie in (0, 1], got True"),
            (lambda: ModelParams(True), DomainError, "alpha must lie in (0, 1], got True"),
            (lambda: ModelParams(0.5, True), ValueError, f"{R_B_RULE}, got True"),
            (lambda: ModelParams(0.5, np.bool_(True)), ValueError, f"{R_B_RULE}, got np.True_"),
            (lambda: alpha_value(10**400), DomainError, f"alpha must lie in (0, 1], got {10**400}"),
            (lambda: energy_level(2, 10**400), DomainError, f"alpha must lie in (0, 1], got {10**400}"),
            (lambda: ModelParams(0.5, 10**400), ValueError, f"{R_B_RULE}, got {10**400}"),
        ],
        ids=["Alpha-bool", "Alpha-numpy-bool", "energy_level-bool", "ModelParams-alpha-bool",
             "ModelParams-bool", "ModelParams-numpy-bool", "Alpha-int", "energy_level-int", "ModelParams-int"],
    )
    def test_real_parameters_refuse_bools_and_ints_past_the_doubles(self, make, error, says):
        # True was read as 1.0, so energy_level(2, True) gave -3.4, and an int
        # past the doubles raised a bare "int too large to convert to float"
        with pytest.raises(error) as refused:
            make()
        assert type(refused.value) is error and str(refused.value) == says

    @pytest.mark.parametrize("r_b", [2, np.int64(2), np.float64(2.0), 2.0])
    def test_radius_is_stored_as_a_float(self, r_b):
        p = ModelParams(0.5, r_b)
        assert type(p.r_b_alpha) is float and p.r_b_alpha == 2.0

    def test_numpy_integer_orders_accepted(self):
        assert LaguerreParams(np.int64(2), np.int32(1)) == LaguerreParams(2, 1)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.int64, np.uint64])
    def test_every_integer_field_is_a_python_int(self, dtype):
        # a numpy field kept its width, so n + l or l (l + 1) could wrap later
        for made in (QuantumNumbers(dtype(3), dtype(2), dtype(1)), LaguerreParams(dtype(3), dtype(2)),
                     LegendreParams(dtype(3), dtype(2))):
            assert {type(v) for v in vars(made).values()} == {int}, made

    @pytest.mark.parametrize("call,ints,dtype", NARROW_CASES)
    def test_a_numpy_integer_gives_what_the_python_int_gives(self, call, ints, dtype):
        # while a field kept its numpy width, each wrapped, with numpy's
        # "overflow encountered in scalar add": a silent -1.3e-47 for
        # (200, 100), a factorial of a negative int, an int8 that could not
        # hold 129, a math domain error in the Legendre seed and an
        # np.float64 energy
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(call, *map(dtype, ints)) == _outcome(call, *ints)

    def test_quantum_numbers_quote_an_int_too_long_for_its_repr(self):
        # repr raised Python's int-to-string ValueError
        assert repr(QuantumNumbers(HUGE, 0)) == f"QuantumNumbers(n={HUGE_SHOWN}, l=0, m_l=0)"
        assert repr(QuantumNumbers(3, 1, -1)) == "QuantumNumbers(n=3, l=1, m_l=-1)"

    @pytest.mark.parametrize("certify", [radial_ode_residual, u_ode_residual])
    @pytest.mark.parametrize("inject_fault", [False, True])
    def test_a_certifier_grid_past_the_doubles_is_refused_without_a_warning(self, certify, inject_fault):
        # of these 432 calls, both certifiers with and without the fault, 63
        # returned a NaN report and 111 warned of overflow, division by zero
        # or an invalid value
        for (n, l), alpha, t in itertools.product([(1, 0), (2, 1), (3, 2)], [0.3, 0.5, 0.7, 1.0], SWEEP):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    report = certify(QuantumNumbers(n, l), ModelParams(alpha), grid=[t], inject_fault=inject_fault)
                except DomainError as exc:  # a term or the sum past the doubles
                    assert f": grid[0] = {t!r} for state (n, l, m) = ({n}, {l}, 0) at " in str(exc)
                except EvaluationError as exc:  # the fault past the doubles
                    assert str(exc) == f"function returned non-finite value at t={t!r}"
                else:
                    assert all(map(math.isfinite, report.to_dict().values())), (n, l, alpha, t, report)

    @pytest.mark.parametrize("n,alpha", [(10**160, 1.0), (10**200, 0.5), (10**400, 0.8)])
    def test_energy_that_rounds_to_zero_refused(self, n, alpha):
        # n n overflows to inf, so the quotient was a silent -0.0; an n past
        # the doubles raised a bare OverflowError
        with pytest.raises(DomainError) as refused:
            energy_level(n, alpha)
        assert str(refused.value) == f"energy level n={n} at alpha={alpha!r} is not a finite nonzero double (-0.0)"

    @pytest.mark.parametrize("s,m", [(200, 1), (10**6, 0)])
    def test_orthogonality_constant_past_the_doubles_refused(self, s, m):
        # (m + s)! is an int too large for a float; forming it exactly took
        # about 9 s at degree 10^6
        start = time.perf_counter()
        with pytest.raises(DomainError) as refused:
            laguerre_orthogonality_constant(LaguerreParams(s, m), 0.5)
        assert str(refused.value) == (
            f"orthogonality constant of LaguerreParams(degree={s}, order={m}) at alpha=0.5 "
            "is not a finite positive double (inf)"
        )
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "call",
        [
            lambda r: radial_wavefunction(QuantumNumbers(2, 1), ModelParams(0.5), r),
            lambda r: radial_wavefunction(QuantumNumbers(2, 1), ModelParams(0.5), [1.0, r]),
            lambda r: probability_density_radial(QuantumNumbers(2, 1), ModelParams(0.5), [1.0, r]).values,
            lambda b: calculus.conf_integral(lambda x: np.exp(-x), 0.5, 0.0, b),
            lambda u: laguerre_assoc_du(LaguerreParams(0, 1), u),
        ],
        ids=["R", "R-array", "density", "conf_integral", "laguerre_assoc_du"],
    )
    def test_an_int_past_the_doubles_is_the_inf_it_rounds_to(self, call):
        # float(10**400) raised a bare OverflowError
        np.testing.assert_array_equal(call(PAST), call(math.inf))

    K_PAST = (f"k = 1 / (alpha r_b n) of state (n, l, m) = ({PAST}, 0, 0) at alpha=0.5, r_b=1.0 is not a "
              "finite positive double: the factor alpha r_b n evaluates to inf")

    @pytest.mark.parametrize(
        "call,error,says",
        [
            (lambda: calculus.conf_derivative(lambda t: t, 0.5, PAST), EvaluationError,
             "function returned non-finite value at t=inf"),
            (lambda: calculus.conf_second_derivative(lambda t: t, 0.5, PAST), EvaluationError,
             "function returned non-finite value at t=inf"),
            (lambda: calculus.conf_integral(lambda x: x, 0.5, PAST, math.inf), DomainError,
             f"the axis u = x^alpha / alpha cannot resolve ({PAST}, inf) at alpha=0.5: its nodes sit at inf + 1.0 * t"),
            (lambda: scaled_problem(QuantumNumbers(PAST, 0), ModelParams(0.5)), DomainError, K_PAST),
            (lambda: u_function(QuantumNumbers(PAST, 0), ModelParams(0.5), 1.0), DomainError, K_PAST),
            (lambda: u_with_derivatives(QuantumNumbers(PAST, 0), ModelParams(0.5), 1.0), DomainError, K_PAST),
            (lambda: radial_ode_residual(QuantumNumbers(PAST, 0), ModelParams(0.5)), DomainError, K_PAST),
            (lambda: u_ode_residual(QuantumNumbers(PAST, 0), ModelParams(0.5)), DomainError, K_PAST),
            # before the recurrence, which never ends at degree 10**400 - 1
            (lambda: laguerre_ode_residual(QuantumNumbers(PAST, 0), ModelParams(0.5)), DomainError,
             f"lambda = n alpha of state (n, l, m) = ({PAST}, 0, 0) at alpha=0.5, r_b=1.0 is not a finite double"),
            # lgamma(inf) - lgamma(inf) is NaN, which must not pass the range check into the recurrence
            (lambda: legendre_assoc(LegendreParams(PAST, 0), 0.5), DomainError,
             f"associated Legendre ({PAST}, 0) is refused: "),
            (lambda: angular_ode_residual(PAST, 0, 0.5), DomainError,
             f"associated Legendre ({PAST}, -2) is refused: "),
        ],
        ids=["conf_derivative", "conf_second_derivative", "conf_integral", "scaled_problem", "u", "u-derivatives",
             "radial certifier", "u certifier", "laguerre certifier", "legendre_assoc", "angular certifier"],
    )
    def test_an_int_past_the_doubles_is_refused_by_its_input_rule(self, call, error, says):
        # each raised a bare "OverflowError: int too large to convert to float"
        start = time.perf_counter()
        with pytest.raises(error) as refused:
            call()
        assert type(refused.value) is error and str(refused.value).startswith(says)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() <= 5000,
                        reason="this interpreter quotes an int of 5001 digits in full")
    @pytest.mark.parametrize(
        "make,error,says",
        [
            (lambda: alpha_value(HUGE), DomainError, f"alpha must lie in (0, 1], got {HUGE_SHOWN}"),
            (lambda: alpha_value(-HUGE), DomainError, f"alpha must lie in (0, 1], got -{HUGE_SHOWN}"),
            (lambda: ModelParams(0.5, HUGE), ValueError, f"{R_B_RULE}, got {HUGE_SHOWN}"),
            (lambda: energy_level(2, HUGE), DomainError, f"alpha must lie in (0, 1], got {HUGE_SHOWN}"),
            (lambda: energy_level(HUGE, 1.0), DomainError,
             f"energy level n={HUGE_SHOWN} at alpha=1.0 is not a finite nonzero double (-0.0)"),
            (lambda: QuantumNumbers(3, HUGE), ValueError,
             f"orbital quantum number must satisfy 0 <= l <= n-1, got l={HUGE_SHOWN}, n=3"),
            (lambda: QuantumNumbers(-HUGE, 0), ValueError, f"principal quantum number must be >= 1, got -{HUGE_SHOWN}"),
            (lambda: LaguerreParams(-HUGE, 0), ValueError, f"degree must be nonnegative, got -{HUGE_SHOWN}"),
            (lambda: LegendreParams(1, HUGE), ValueError, f"|order| must not exceed degree, got (1, {HUGE_SHOWN})"),
            (lambda: radial_wavefunction(QuantumNumbers(HUGE, 0), ModelParams(0.5), 1.0), DomainError,
             f"radial normalisation of state (n, l, m) = ({HUGE_SHOWN}, 0, 0) at alpha=0.5, r_b=1.0 "),
            (lambda: normalization_report(QuantumNumbers(HUGE, 0), ModelParams(0.5)), DomainError,
             f"radial normalisation of state (n, l, m) = ({HUGE_SHOWN}, 0, 0) at alpha=0.5, r_b=1.0 "),
            (lambda: angular_Y(QuantumNumbers(HUGE + 1, HUGE), 0.5, 1.0, 0.5), DomainError,
             f"angular normalisation of state (n, l, m) = ({HUGE_SHOWN}, {HUGE_SHOWN}, 0) at alpha=0.5 "),
            (lambda: laguerre_orthogonality_constant(LaguerreParams(HUGE, 0), 0.5), DomainError,
             f"orthogonality constant of LaguerreParams(degree={HUGE_SHOWN}, order=0) at alpha=0.5 "),
            (lambda: conf_laguerre(LaguerreParams(HUGE, 0), 0.5, -1.0), DomainError,
             f"conformable Laguerre requires x > 0 (NaN is refused): x = -1.0 for "
             f"LaguerreParams(degree={HUGE_SHOWN}, order=0) at alpha=0.5"),
            (lambda: conf_laguerre_rodrigues_oracle(LaguerreParams(HUGE, 0), 0.5, 1.0), UnsupportedDegreeError,
             f"Rodrigues oracle supports degree <= 4, got {HUGE_SHOWN}"),
            (lambda: legendre_assoc(LegendreParams(HUGE, 0), 0.5), DomainError,
             f"associated Legendre ({HUGE_SHOWN}, 0) is refused: "),
            (lambda: angular_ode_residual(HUGE, 0, 0.5), DomainError,
             f"associated Legendre ({HUGE_SHOWN}, -2) is refused: "),
            (lambda: calculus.conf_integral(lambda x: x, 0.5, HUGE, math.inf), DomainError,
             f"the axis u = x^alpha / alpha cannot resolve ({HUGE_SHOWN}, inf) "),
            # the digit count is exact at either side of a power of 10
            (lambda: alpha_value(10**4300), DomainError, "alpha must lie in (0, 1], got <int of 4301 digits>"),
            (lambda: alpha_value(10**4301 - 1), DomainError, "alpha must lie in (0, 1], got <int of 4301 digits>"),
        ],
    )
    def test_an_int_too_long_to_quote_is_quoted_by_its_digit_count(self, make, error, says):
        # its repr raised Python's "Exceeds the limit (4300 digits) for integer
        # string conversion" ValueError in place of the refusal
        with pytest.raises(error) as refused:
            make()
        assert type(refused.value) is error and str(refused.value).startswith(says)

    def test_rodrigues_oracle_past_the_doubles_refused(self):
        # x ** (s alpha) overflows a Python float
        with pytest.raises(DomainError, match=r"^Rodrigues oracle at x=1e\+300 for LaguerreParams\(degree=4, "
                           r"order=1\) at alpha=0\.5 is not a finite double: "):
            conf_laguerre_rodrigues_oracle(LaguerreParams(4, 1), 0.5, 1e300)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "call,says",
        [
            (lambda: laguerre_assoc(LaguerreParams(200, 1), 1e300), "u = 1e+300 for " + LAGUERRE_200),
            (lambda: conf_laguerre(LaguerreParams(5, 1), 0.5, 1e308), "u = 2e+154 for " + LAGUERRE_5),
            (lambda: conf_laguerre(LaguerreParams(5, 1), 0.5, [1.0, 1e308]), "u[1] = 2e+154 for " + LAGUERRE_5),
            (lambda: laguerre_assoc(LaguerreParams(1, 1), math.inf), "u = inf for LaguerreParams(degree=1, order=1)"),
            (lambda: laguerre_assoc(LaguerreParams(2, 1), math.inf), "u = inf for LaguerreParams(degree=2, order=1)"),
            (lambda: conf_laguerre(LaguerreParams(2, 1), 0.5, math.inf), "u = inf for LaguerreParams(degree=2, order=1)"),
            (lambda: laguerre_assoc(LaguerreParams(2, 1), [1.0, -math.inf]),
             "u[1] = -inf for LaguerreParams(degree=2, order=1)"),
            (lambda: laguerre_assoc(LaguerreParams(2, 1), PAST), "u = inf for LaguerreParams(degree=2, order=1)"),
            (lambda: laguerre_assoc(LaguerreParams(2, 1), [1, PAST]),
             "u[1] = inf for LaguerreParams(degree=2, order=1)"),
        ],
        ids=["laguerre_assoc", "conf_laguerre", "conf_laguerre-array",
             "inf-degree-1", "inf-degree-2", "conf_laguerre-inf", "inf-array", "int-past", "int-past-array"],
    )
    def test_laguerre_past_the_doubles_refused(self, call, says):
        # numpy warned of overflow and returned NaN; an infinite u below
        # degree 3, where inf arithmetic sets no flag, returned -inf or inf;
        # an int past the doubles raised a bare OverflowError, where every
        # other input reads it as the inf it rounds to
        with pytest.raises(DomainError) as refused:
            call()
        assert str(refused.value) == f"associated Laguerre L_s^m(u) leaves the doubles: {says}"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "call,value,name",
        [
            (lambda v: radial_wavefunction(QN, P, v), 1 + 1j, "r"),
            (lambda v: radial_wavefunction(QN, P, v), np.array([1 + 1j, 2 + 0j]), "r"),
            (lambda v: u_function(QN, P, v), 1 + 1j, "rho"),
            (lambda v: u_function(QN, P, v), np.array([1 + 1j]), "rho"),
            (lambda v: angular_Y(QN, 0.7, v, 0.1), 1 + 0j, "theta"),
            (lambda v: angular_Y(QN, 0.7, v, 0.1), np.array([1 + 1j]), "theta"),
            (lambda v: angular_Y(QN, 0.7, 1.0, v), np.complex64(0.1), "phi"),
            (lambda v: full_wavefunction(QN, P, v, 1.0, 0.1), np.array([1 + 1j]), "r"),
            (lambda v: probability_density_radial(QN, P, v), 1 + 0j, "grid"),
            (lambda v: probability_density_radial(QN, P, v), np.array([1 + 1j]), "grid"),
            (lambda v: laguerre_assoc(LaguerreParams(2, 1), v), 0.5 + 2j, "u"),
            (lambda v: laguerre_assoc(LaguerreParams(2, 1), v), np.array([0.5 + 2j]), "u"),
            (lambda v: laguerre_assoc(LaguerreParams(2, 1), v), [PAST, 1j], "u"),
            (lambda v: laguerre_assoc(LaguerreParams(2, 1), v), np.array([np.complex128(1j), PAST], dtype=object), "u"),
            (lambda v: laguerre_assoc_du(LaguerreParams(0, 1), v), np.array([0.5 + 2j]), "u"),
            (lambda v: legendre_assoc(LegendreParams(2, 1), v), 0.5 + 0j, "z"),
            (lambda v: legendre_assoc(LegendreParams(2, 1), v), np.array([0.5 + 1j]), "z"),
            (lambda v: legendre_assoc_dz(LegendreParams(2, 1), v), 0.5 + 0j, "z"),
            (lambda v: radial_ode_residual(QN, P, grid=v), np.array([1 + 1j, 2.0]), "grid"),
            (lambda v: radial_ode_residual(QN, P, grid=v), [1.0, 2 + 0j], "grid"),
            (lambda v: calculus.conf_integral(lambda x: np.exp(-x), 0.5, 0.0, v), np.complex128(1 + 1j), "b"),
            (lambda v: calculus.conf_integral(lambda x: np.exp(-x), 0.5, v, 1.0), 0j, "a"),
            (lambda v: calculus.conf_derivative(lambda t: t, 0.5, v), np.complex128(1 + 1j), "t"),
            (lambda v: calculus.conf_derivative(lambda t: t, 0.5, v), 1 + 1j, "t"),
            (lambda v: conf_laguerre_rodrigues_oracle(LaguerreParams(2, 1), 0.5, v), 1 + 0j, "x"),
            (lambda v: ModelParams(v), np.complex128(0.5), "alpha"),
            (lambda v: ModelParams(v), 0.5 + 0j, "alpha"),
            (lambda v: ModelParams(0.5, v), 1 + 0j, "r_b_alpha"),
            (lambda v: energy_level(2, v), 0.5 + 0j, "alpha"),
            (lambda v: RADIAL_CLOSED_FORMS[(1, 0)](0.5, 1.0, v), np.array([1 + 1j]), "r"),
            (lambda v: PSI_CLOSED_FORMS[(2, 1, 1)](0.5, 1.0, 1.0, v, 0.3), np.array([1 + 1j]), "theta"),
            (lambda v: PSI_CLOSED_FORMS[(1, 0, 0)](0.5, 1.0, 1.0, 1.0, v), np.array([0.3 + 2j]), "phi"),
            (lambda v: textbook_spherical_harmonic(1, 1, v, 0.7), np.array([1.1 + 1j]), "theta"),
            (lambda v: TEXTBOOK_RADIAL[(2, 0)](v), np.array([1 + 1j]), "r"),
            (lambda v: TEXTBOOK_RADIAL[(2, 0)](v), 1 + 0j, "r"),
        ],
        ids=["R", "R-array", "u", "u-array", "Y", "Y-array", "Y-phi-complex64", "psi-array", "density",
             "density-array", "laguerre", "laguerre-array", "laguerre-object-array", "laguerre-numpy-object-array",
             "laguerre_du-array", "legendre", "legendre-array", "legendre_dz", "radial-certifier-grid",
             "radial-certifier-list", "conf_integral-b", "conf_integral-a", "conf_derivative",
             "conf_derivative-python", "rodrigues-oracle", "alpha-numpy", "alpha", "r_b", "energy_level",
             "closed-form-R", "closed-form-psi-theta", "closed-form-psi-phi", "textbook-Y", "textbook-R-array",
             "textbook-R"],
    )
    def test_complex_input_is_refused(self, call, value, name):
        # a numpy complex lost its imaginary part with only a ComplexWarning
        # (R of [1+1j, 2+0j] was R at 1 and 2), and a Python complex raised a
        # bare TypeError from float()
        with pytest.raises(ValueError) as refused:
            call(value)
        assert type(refused.value) is ValueError
        assert str(refused.value).startswith(f"{name} must be real, not complex (")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("r_b", [-1.0, 0.0, math.nan, 1 + 1j, np.complex128(2)],
                             ids=["negative", "zero", "nan", "complex", "numpy-complex"])
    def test_closed_forms_read_r_b_as_model_params_does(self, r_b):
        # a bare ValueError (math domain error), a bare ZeroDivisionError, a
        # silent nan, a bare TypeError, and 0.5413 with a ComplexWarning
        with pytest.raises(ValueError) as refused:
            ModelParams(0.5, r_b)
        for form, coordinates in [(RADIAL_CLOSED_FORMS[(1, 0)], (1.0,)), (PSI_CLOSED_FORMS[(2, 1, 1)], (1.0, 1.0, 0.3))]:
            with pytest.raises(ValueError) as closed_form:
                form(0.5, r_b, *coordinates)
            assert type(closed_form.value) is ValueError and str(closed_form.value) == str(refused.value)
        assert str(refused.value) in (f"{R_B_RULE}, got {r_b!r}", f"r_b_alpha must be real, not complex (got {r_b!r})")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("psi", [False, True], ids=["radial", "psi"])
    def test_closed_forms_refuse_or_return_a_finite_value_at_every_r_b(self, psi, alpha):
        # a comparison within table's tolerance (1e-12 absolute below 1)
        # would not see a 0.0 returned for a tiny R, so each value is held
        # to be finite, and nonzero where the general formula is a normal double
        forms, angles = (PSI_CLOSED_FORMS, (1.0, 0.3)) if psi else (RADIAL_CLOSED_FORMS, ())
        general = full_wavefunction if psi else radial_wavefunction
        for state, form in sorted(forms.items()):
            for k in range(-300, 301):
                r_b = 10.0**k
                try:
                    value = complex(form(alpha, r_b, 1.0, *angles))
                except DomainError:
                    continue
                assert cmath.isfinite(value), (state, r_b, value)
                if value == 0:
                    try:
                        exact = abs(general(QuantumNumbers(*state), ModelParams(alpha, r_b), 1.0, *angles))
                    except DomainError:
                        continue
                    assert not sys.float_info.min <= exact < math.inf, (state, r_b, exact)

    def test_laguerre_names_the_first_overflow_not_a_nan_argument(self):
        u = np.array([3.0, math.nan, 1e300, 1e301])
        with pytest.raises(DomainError, match=re.escape("u[2] = 1e+300")):
            laguerre_assoc(LaguerreParams(200, 1), u)
        assert np.isnan(laguerre_assoc(LaguerreParams(200, 1), u[:2])[1])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "call,says",
        [
            (lambda: u_with_derivatives(QuantumNumbers(2, 1), ModelParams.natural(0.5), 1e-300),
             "rho = 1e-300 for state (n, l, m) = (2, 1, 0) at alpha=0.5, r_b=1.0"),
            (lambda: radial_with_derivatives(QuantumNumbers(1, 0), ModelParams.natural(0.3), 1e-300),
             "r = 1e-300 for state (n, l, m) = (1, 0, 0) at alpha=0.3, r_b=1.0"),
            (lambda: radial_with_derivatives(QN, P, [[2.0, 1.0], [1e-300, 1e-310]]), "r[1, 0] = 1e-300 for " + STATE),
        ],
        ids=["u", "R", "R 2-d"],
    )
    def test_classical_derivatives_past_the_doubles_refused(self, call, says):
        # r^(a-2) overflows near r = 0, where D^a f does not: u'' was -inf and
        # R'' inf, with numpy's overflow warning
        with pytest.raises(DomainError) as refused:
            call()
        assert str(refused.value) == f"classical first or second derivative leaves the doubles: {says}"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "call,name,shape",
        [
            (lambda f: calculus.conf_derivative(f, 0.5, np.array([1.0, 2.0])), "t", (2,)),
            (lambda f: calculus.conf_second_derivative(f, 0.5, np.ones((2, 1))), "t", (2, 1)),
            (lambda f: calculus.conf_derivative_limit(f, 0.5, np.array([1.0, 2.0]), 1e-6), "t", (2,)),
            (lambda f: calculus.conf_derivative_limit(f, 0.5, 1.0, np.array([1e-6])), "epsilon", (1,)),
            (lambda f: calculus.conf_integral(f, 0.5, np.array([0.0]), 1.0), "a", (1,)),
            (lambda f: calculus.conf_integral(f, 0.5, 0.0, np.array([1.0, 2.0])), "b", (2,)),
            (lambda f: ModelParams(np.array([0.5])), "alpha", (1,)),
            (lambda f: ModelParams(0.5, np.array([1.0, 2.0])), "r_b_alpha", (2,)),
            (lambda f: energy_level(2, np.array([0.5])), "alpha", (1,)),
            (lambda f: conf_laguerre_rodrigues_oracle(LaguerreParams(1, 0), 0.5, np.array([1.0, 2.0])), "x", (2,)),
        ],
        ids=["conf_derivative", "conf_second_derivative", "conf_derivative_limit-t", "conf_derivative_limit-epsilon",
             "conf_integral-a", "conf_integral-b", "ModelParams-alpha", "ModelParams-r_b_alpha", "energy_level-alpha",
             "rodrigues-x"],
    )
    def test_derivative_at_an_array_refused_before_f_is_called(self, call, name, shape):
        # f was called at the array and blamed: "function not evaluable at t=array(...)";
        # each other one-number input raised a bare TypeError ("only 0-dimensional
        # arrays can be converted to Python scalars") or numpy's ambiguous truth value
        seen = []
        with pytest.raises(ValueError) as refused:
            call(lambda t: seen.append(t) or t * t)
        assert str(refused.value) == f"{name} must be a single value, got an array of shape {shape}"
        assert seen == []

    @pytest.mark.parametrize(
        "call,point,single",
        [
            (lambda t: calculus.conf_derivative(math.exp, 0.7, t), np.float32(1.5), 1.5),
            (lambda t: calculus.conf_second_derivative(math.exp, 0.7, t), np.float32(1.5), 1.5),
            (lambda t: calculus.conf_derivative(math.sin, 0.5, t), np.float32(2.0), 2.0),
            (lambda t: calculus.conf_derivative(math.exp, 0.7, t), np.array(1.5), 1.5),
            (lambda b: calculus.conf_integral(lambda x: np.exp(-x), 0.5, 0.0, b), np.float32(1.0), 1.0),
        ],
        ids=["conf_derivative-float32", "conf_second_derivative-float32", "conf_derivative-sin-float32",
             "conf_derivative-0d", "conf_integral-float32-limit"],
    )
    def test_a_single_number_is_read_as_a_python_float(self, call, point, single):
        # a float32 t stepped in float32 (5.0484123 for 5.0613818, and "disagree"
        # for sin at 2.0), a 0-d t returned an np.float64, and a float32 limit
        # made the axis float32, which refused (0.0, 1.0)
        got = call(point)
        assert type(got) is float and got.hex() == call(single).hex()

    @pytest.mark.parametrize("grid,i", [([1.0, math.inf, math.inf], 2), ([0.5, 2.0, 1.0], 2), ([3.0, 3.0], 1)])
    def test_density_names_the_point_that_does_not_rise(self, grid, i):
        with pytest.raises(ValueError) as refused:
            probability_density_radial(QN, P, grid)
        assert str(refused.value) == (
            f"grid must be strictly increasing: grid[{i}] = {grid[i]!r} follows {grid[i - 1]!r}"
        )

    @pytest.mark.parametrize(
        "argv,says",
        [
            (["--r-max", "-5"], "grid points must be positive (NaN is refused): grid[0] = -0.0125 for state"),
            (["--r-max", "inf", "--points", "3"], "--r-max must be finite, got inf"),
            # grid steps that round to 0, or that repeat, in the subnormals
            (["--r-max", "5e-324", "--points", "3"], "--r-max 5e-324 is too small for --points 3: "),
            (["--r-max", "1e-322", "--points", "400"], "--r-max 1e-322 is too small for --points 400: "),
            (["--r-max", "1e-322", "--points", "30"], "--r-max 1e-322 is too small for --points 30: "),
        ],
    )
    def test_density_cli_names_the_value(self, capsys, argv, says):
        assert cli.main(["density", "--n", "2", "--l", "1", *argv]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {says}") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "call,error,says",
        [
            # the step t eps^(1/3), or the square of t eps^(1/4), underflowed
            # to 0: a bare ZeroDivisionError
            (lambda: calculus.conf_derivative(lambda t: t, 0.5, 1e-320), DomainError,
             "central differences of order 1 cannot resolve t=1e-320 at alpha=0.5: the steps h = 0.0 and h/2 must "
             "move t inside the doubles"),
            (lambda: calculus.conf_second_derivative(lambda t: t, 0.5, 1e-300), DomainError,
             "central differences of order 2 cannot resolve t=1e-300 at alpha=0.5: the steps h = 1.220703125e-304 "
             "and h/2 must move t inside the doubles, and their squares be nonzero"),
            # t ** (2 - 2 alpha) in Python floats: a bare OverflowError
            (lambda: calculus.conf_second_derivative(lambda t: t, 0.01, 1e156), DomainError,
             "conformable derivative at t=1e+156, alpha=0.01 leaves the doubles (inf)"),
            # each returned inf
            (lambda: calculus.conf_derivative(lambda t: 1e300 * math.sin(1e12 * t), 1.0, 1e-10), DomainError,
             "derivative of order 1 at t=1e-10, alpha=1.0 leaves the doubles (inf)"),
            (lambda: calculus.conf_derivative_limit(lambda t: 1e308 * t * t, 1.0, 1.0, 1e-10), DomainError,
             "limit quotient at t=1.0, alpha=1.0 leaves the doubles (inf)"),
            # the step spans many periods of sin, or a sizeable part of one:
            # -7.3e-146 (for t^0.5 cos t, up to 1e150 in size), and an f''
            # off by 1.4e-3, were returned
            (lambda: calculus.conf_derivative(math.sin, 0.5, 1e300), EvaluationError,
             "central differences of order 1 at t=1e+300, alpha=0.5 disagree: -7.275790657180233e-296 at "
             "h = 6.055454452393343e+294 vs -1.72254307592453e-295 at h/2 (rtol=1e-05)"),
            (lambda: calculus.conf_second_derivative(math.sin, 0.5, 1050.0), EvaluationError,
             "central differences of order 2 at t=1050.0, alpha=0.5 disagree: -0.6494666590013607 at "
             "h = 0.128173828125 vs -0.6501339771629732 at h/2 (rtol=0.001)"),
            # h^2 overflowed, so the f'' quotient read +-0.0: 2.0e-176 for -5.0e-177,
            # and 0.0 for -2.5e-241; a constant f, whose f'' is 0, is refused there too
            (lambda: calculus.conf_second_derivative(math.sqrt, 0.6, 1e250), DomainError,
             "central differences of order 2 cannot resolve t=1e+250 at alpha=0.6: the steps h = 1.220703125e+246 "
             "and h/2 must move t inside the doubles, and their squares be nonzero and finite"),
            (lambda: calculus.conf_second_derivative(math.sqrt, 1.0, 1e160), DomainError,
             "central differences of order 2 cannot resolve t=1e+160 at alpha=1.0: the steps h = 1.220703125e+156 "
             "and h/2 must move t inside the doubles, and their squares be nonzero and finite"),
            (lambda: calculus.conf_second_derivative(lambda t: 7.3, 0.1, 1e200), DomainError,
             "central differences of order 2 cannot resolve t=1e+200 at alpha=0.1: the steps h = 1.220703125e+196 "
             "and h/2 must move t inside the doubles, and their squares be nonzero and finite"),
            # the integral of cos x, with a ComplexWarning, and a bare broadcast ValueError
            (lambda: calculus.conf_integral(lambda x: np.exp(1j * x), 0.5, 0.0, 1.0), EvaluationError,
             "integrand must return real values of shape () or (128,), got complex128 of shape (128,)"),
            (lambda: calculus.conf_integral(lambda x: np.ones(3), 0.5, 0.0, 1.0), EvaluationError,
             "integrand must return real values of shape () or (128,), got float64 of shape (3,)"),
            # a closed form's Python float constant: * and / rounded it to 0.0
            # or inf, which was returned as 0.0 (R is 1.3608e-154 at (2, 0)) or
            # as a NaN with a RuntimeWarning; ** and / raised bare errors
            (lambda: RADIAL_CLOSED_FORMS[(2, 0)](1.0, 3e102, 1.0), DomainError,
             "the closed form R_20 at alpha=1.0, r_b=3e+102 cannot be formed: its constant evaluates to 0.0"),
            (lambda: RADIAL_CLOSED_FORMS[(3, 0)](1.0, 3e102, 1.0), DomainError,
             "the closed form R_30 at alpha=1.0, r_b=3e+102 cannot be formed: its constant evaluates to 0.0"),
            (lambda: PSI_CLOSED_FORMS[(2, 0, 0)](1.0, 3e102, 1.0, 1.0, 0.3), DomainError,
             "the closed form psi_200 at alpha=1.0, r_b=3e+102 cannot be formed: its constant evaluates to 0.0"),
            (lambda: PSI_CLOSED_FORMS[(1, 0, 0)](1.0, 5e102, 1.0, 1.0, 0.3), DomainError,
             "the closed form psi_100 at alpha=1.0, r_b=5e+102 cannot be formed: its constant evaluates to 0.0"),
            (lambda: RADIAL_CLOSED_FORMS[(2, 1)](0.5, 1e100, 1.0), DomainError,
             "the closed form R_21 at alpha=0.5, r_b=1e+100 cannot be formed: (34, 'Numerical result out of range')"),
            (lambda: PSI_CLOSED_FORMS[(2, 1, 1)](0.5, 1e100, 1.0, 1.0, 0.3), DomainError,
             "the closed form psi_211 at alpha=0.5, r_b=1e+100 cannot be formed: (34, 'Numerical result out of range')"),
            (lambda: RADIAL_CLOSED_FORMS[(1, 0)](0.5, 1e-104, 1.0), DomainError,
             "the closed form R_10 at alpha=0.5, r_b=1e-104 cannot be formed: its constant evaluates to inf"),
            (lambda: RADIAL_CLOSED_FORMS[(1, 0)](0.5, 1e-110, 1.0), DomainError,
             "the closed form R_10 at alpha=0.5, r_b=1e-110 cannot be formed: float division by zero"),
            # the constant is finite, but its product with the polynomial in
            # r^alpha / r_b overflowed and met exp(-huge) = 0: a NaN
            (lambda: RADIAL_CLOSED_FORMS[(3, 0)](0.5, 1e-100, 1.0), DomainError,
             "the closed form R_30 at alpha=0.5, r_b=1e-100 cannot be formed: overflow encountered in"),
        ],
        ids=["step-underflows", "squared-step-underflows", "power-overflows", "quotient-overflows",
             "limit-overflows", "first-unresolved", "second-unresolved", "squared-step-overflows",
             "squared-step-overflows-classical", "constant-past-the-squared-step", "complex-integrand",
             "integrand-shape", "closed-R20-zero", "closed-R30-zero", "closed-psi200-zero", "closed-psi100-zero",
             "closed-R21-power", "closed-psi211-power", "closed-R10-inf", "closed-R10-division",
             "closed-R30-product"],
    )
    def test_operator_refuses_what_it_cannot_resolve(self, call, error, says):
        with pytest.raises(error) as refused:
            call()
        assert type(refused.value) is error and str(refused.value).startswith(says)

    @pytest.mark.parametrize(
        "call,family,degree",
        [
            (lambda: laguerre_assoc(LaguerreParams(10**300, 0), 1.0), "Laguerre", 10**300),
            (lambda: laguerre_assoc(LaguerreParams(10**5 + 1, 3), 0.5), "Laguerre", 10**5 + 1),
            (lambda: conf_laguerre(LaguerreParams(10**6, 0), 0.5, [1.0, 2.0]), "Laguerre", 10**6),
            (lambda: laguerre_ode_residual(QuantumNumbers(10**300, 0), ModelParams(0.5), grid=[1.0]),
             "Laguerre", 10**300 - 1),
            (lambda: legendre_assoc(LegendreParams(10**300, 0), 0.5), "Legendre", 10**300),
            (lambda: legendre_assoc(LegendreParams(10**5 + 1, -2), 0.3), "Legendre", 10**5 + 1),
            (lambda: angular_ode_residual(10**6, 0, 0.5), "Legendre", 10**6),
        ],
        ids=["laguerre_assoc", "laguerre-ceiling", "conf_laguerre", "laguerre certifier",
             "legendre_assoc", "legendre-ceiling", "angular certifier"],
    )
    def test_degree_past_the_ceiling_is_refused_before_any_step(self, call, family, degree):
        # one Python step per degree: at 10**300 none of them returned
        start = time.perf_counter()
        with pytest.raises(UnsupportedDegreeError) as refused:
            call()
        assert str(refused.value) == f"associated {family} supports degree <= 100000, got {degree}"
        assert time.perf_counter() - start < 1.0

    def test_degree_at_the_ceiling_is_accepted(self):
        assert math.isfinite(laguerre_assoc(LaguerreParams(10**5, 3), 0.5))
