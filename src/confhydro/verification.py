"""Numerical certification of the derivation chain.

Each certifier evaluates the displayed differential equation (or integral
identity) with the conformable operators and reports the worst residual on
a grid.  Relative residuals are normalized by the largest individual term
magnitude at each point, since the terms cancel to near zero where the
solution is exact.

Each certifier evaluates its solution f with D^a f and D^a D^a f once over
the grid, straight from the closed form: for f(t) = g(t^a / a), D^a f = g'
exactly (Khalil et al. 2014; Abdeljawad 2015), so no classical derivative
of a solution is formed.  The identities of ``calculus`` that tie D^a to
f' apply only to the fault 1 + 0.01 t of the negative control.  P_l^m, of
signed m, is differentiated twice through its neighbouring orders m - 2 to m + 2.
"""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

# conf_derivative is unused here: perfbench/tests/test_tracing.py reads
# verification.conf_derivative to check that the tracer wraps a binding
from .calculus import (  # noqa: F401
    _T_RULE, _angle_power, _checked_grid, _conformable_first, _conformable_second,
    _float, _refusal, _require_integer, _shown, alpha_value, conf_derivative, conf_integral,
)
from .errors import ConvergenceError, DomainError, EvaluationError
from .hydrogen import (
    ModelParams,
    QuantumNumbers,
    _density,
    _laguerre_params,
    _radial_triple,
    _state,
    _u_triple,
    energy_level,
    full_wavefunction,
    radial_wavefunction,
    scaled_problem,
)
from .reference import TEXTBOOK_RADIAL, textbook_spherical_harmonic
from .special import (
    LaguerreParams,
    LegendreParams,
    _laguerre_triple,
    conf_laguerre,
    conf_laguerre_rodrigues_oracle,
    laguerre_orthogonality_constant,
    legendre_assoc,
)

__all__ = [
    "ResidualReport", "angular_ode_residual", "classical_limit_report", "laguerre_ode_residual",
    "normalization_report", "radial_ode_residual", "run_verification", "u_ode_residual",
]

_POLE_MARGIN = 1e-3
_TINY = 1e-290
_TILT = 0.01
_NOISE = math.sqrt(float(np.finfo(float).eps))  # relative noise of analytic derivatives


@dataclass(frozen=True)
class ResidualReport:
    max_abs_residual: float
    max_rel_residual: float
    worst_point: float
    grid_size: int
    term_scale: float = 0.0  # largest single-term magnitude seen on the grid

    def to_dict(self) -> dict:
        return asdict(self)


def default_grid(lo: float = 1e-3, hi: float = 30.0, points: int = 200) -> np.ndarray:
    """Geometric grid resolving both the power-law region and the tail."""
    return np.geomspace(lo, hi, points)


def _report(terms, grid, state, name: str = "grid") -> ResidualReport:
    """Report on the equation whose terms (arrays over the grid) sum to zero.

    A point where a term, or their sum, leaves the doubles (a power of t
    past them, times a solution that is 0 there, is NaN) is refused with
    ``DomainError`` naming the first such point of ``name`` and the state.
    """
    with np.errstate(all="ignore"):  # refused by value below: inf + x, inf - inf
        total = sum(terms)
    ok = np.isfinite(total)  # False wherever a term is inf or NaN, too
    if not ok.all():
        raise _refusal("the terms of the equation leave the doubles", name, grid, ok, state)
    abs_res = np.abs(total)
    terms_max = np.max(np.abs(terms), axis=0)
    # Points where every term is tiny compared to the global term scale are
    # numerically degenerate (interior zeros of the solution): cancellation
    # there is unmeasurable, so the denominator is floored at the derivative
    # noise level.
    scale = float(np.max(terms_max))
    floor = max(_NOISE * scale, _TINY)
    rel = abs_res / np.maximum(terms_max, floor)
    i = int(np.argmax(rel))
    return ResidualReport(
        max_abs_residual=float(np.max(abs_res)), max_rel_residual=float(rel[i]),
        worst_point=float(grid[i]), grid_size=len(grid), term_scale=scale,
    )


def _grid(values, qn: QuantumNumbers, params: ModelParams) -> np.ndarray:
    """A certifier's grid as floats: nonempty, 1-d and positive, before any use."""
    return _checked_grid(values, "grid", _T_RULE, lambda: _state(qn, params.alpha, params.r_b_alpha))


def _conformable(t: np.ndarray, a: float, triple: tuple, tilt: bool = False) -> tuple:
    """(f, D^a f, D^a D^a f) over the grid t, refused where not finite.

    ``tilt`` first multiplies f by the fault p(t) = 1 + 0.01 t of the
    negative control, through the product rule, with D^a p = 0.01 t^(1-a)
    and D^a D^a p = 0.01 (1-a) t^(1-2a).
    """
    f, d1, d2 = triple
    if tilt:
        with np.errstate(all="ignore"):  # refused by value below
            p, dp, d2p = 1.0 + _TILT * t, _conformable_first(t, a, _TILT), _conformable_second(t, a, _TILT, 0.0)
            f, d1, d2 = f * p, d1 * p + f * dp, d2 * p + 2.0 * d1 * dp + f * d2p
    ok = np.isfinite(f) & np.isfinite(d1) & np.isfinite(d2)
    if not np.all(ok):
        bad = float(t[np.argmin(ok)])
        raise EvaluationError(f"function returned non-finite value at t={bad!r}")
    return f, d1, d2


def _legendre_triple(lp: LegendreParams, a: float, x) -> tuple:
    """P, D^a P, D^a D^a P of P_l^m(cos x), x = t^a, where D^a = a d/dx and d/dx P_l^k =
    (P_l^(k+1) - (l+k)(l-k+1) P_l^(k-1)) / 2 (DLMF sec. 14.10; P_l^k = 0 past |k| = l)."""
    l, m = lp.degree, lp.order
    z = np.cos(x)
    P = {k: legendre_assoc(LegendreParams(l, k), z) if abs(k) <= l else 0.0 for k in range(m - 2, m + 3)}
    d = {k: 0.5 * (P[k + 1] - (l + k) * (l - k + 1) * P[k - 1]) for k in range(m - 1, m + 2)}
    return P[m], a * d[m], (a * a) * 0.5 * (d[m + 1] - (l + m) * (l - m + 1) * d[m - 1])


def radial_ode_residual(qn: QuantumNumbers, params: ModelParams, grid=None,
                        inject_fault: bool = False) -> ResidualReport:
    """Residual of D^a[r^(2a) D^a R] + (-k^2 r^(2a) + 2 lam k r^a - a^2 l(l+1)) R."""
    r = _grid(default_grid() if grid is None else grid, qn, params)
    a = params.alpha
    prob = scaled_problem(qn, params)
    k, lam, l = prob.k, prob.lambda_alpha, qn.l
    R, d1, d2 = _conformable(r, a, _radial_triple(qn, params, r), inject_fault)
    with np.errstate(all="ignore"):  # r^(2a) past the doubles is refused by _report
        terms = [
            2.0 * a * r**a * d1 + r ** (2.0 * a) * d2,  # product rule, D^a r^(2a) = 2a r^a
            -(k * k) * r ** (2.0 * a) * R,
            2.0 * lam * k * r**a * R,
            -(a * a) * l * (l + 1) * R,
        ]
    return _report(terms, r, lambda: _state(qn, a, params.r_b_alpha))


def u_ode_residual(qn: QuantumNumbers, params: ModelParams, grid=None,
                   inject_fault: bool = False) -> ResidualReport:
    """Residual of D^a D^a u + (-1/4 + lam/rho^a - a^2 l(l+1)/rho^(2a)) u."""
    rho = _grid(default_grid() if grid is None else grid, qn, params)
    a = params.alpha
    lam, l = scaled_problem(qn, params).lambda_alpha, qn.l
    u, _, d2 = _conformable(rho, a, _u_triple(qn, params, rho), inject_fault)
    with np.errstate(all="ignore"):  # rho^a or rho^(2a) past the doubles is refused by _report
        terms = [
            d2,
            -0.25 * u,
            lam / rho**a * u,
            -(a * a) * l * (l + 1) / rho ** (2.0 * a) * u,
        ]
    return _report(terms, rho, lambda: _state(qn, a, params.r_b_alpha))


def laguerre_ode_residual(qn: QuantumNumbers, params: ModelParams, grid=None) -> ResidualReport:
    """Residual of the conformable associated Laguerre equation for v = L_{s a}^m."""
    rho = _grid(default_grid(0.5, 10.0, 200) if grid is None else grid, qn, params)
    a = params.alpha
    lam, l = _float(qn.n) * a, qn.l
    # n past the doubles keeps this DomainError, which names the state; any
    # other n past the degree ceiling is refused by laguerre_assoc before a step
    if not math.isfinite(lam):
        raise DomainError(f"lambda = n alpha of {_state(qn, a, params.r_b_alpha)} is not a finite double")
    # v(rho) = L_s^m(y) at y = rho^a / a, where D^a = d/dy
    v, d1, d2 = _conformable(rho, a, _laguerre_triple(_laguerre_params(qn), rho**a / a))
    terms = [
        rho**a * d2,
        (2.0 * a * l + 2.0 * a - rho**a) * d1,
        (lam - a * (l + 1)) * v,
    ]
    return _report(terms, rho, lambda: _state(qn, a, params.r_b_alpha))


def angular_ode_residual(l: int, m_l: int, alpha: float, theta_grid=None) -> ResidualReport:
    """Residual of the conformable angular equation for the Legendre factor.

    The azimuthal factor e^(i m phi^alpha) contributes -m^2 alpha^2 /
    sin^2(theta^alpha) after twice-iterated conformable differentiation, so
    only the polar factor P(cos(theta^alpha)) is differentiated here.  The
    check is insensitive to the overall normalization constant.
    """
    a = alpha_value(alpha)
    state = lambda: f"state (l, m) = ({_shown(l, str)}, {_shown(m_l, str)}) at alpha={a!r}"  # noqa: E731
    if theta_grid is None:
        # its first point underflows to 0 below alpha ~ 0.004, its last overflows below ~ 0.0016
        with np.errstate(over="ignore"):
            theta_grid = np.linspace(0.05, math.pi - 0.05, 181) ** (1.0 / a)
        if not (theta_grid[0] > 0.0 and theta_grid[-1] < math.inf):
            raise DomainError(
                f"the default theta_grid linspace(0.05, pi - 0.05, 181)**(1/alpha) leaves the doubles at "
                f"alpha={a!r} (from {theta_grid[0]!r} to {theta_grid[-1]!r}) for {state()}"
            )
    theta = _checked_grid(theta_grid, "theta_grid", _T_RULE, state)
    x = _angle_power(theta, a, "theta", "theta_grid", state)
    sx = np.sin(x)
    off_poles = np.abs(sx) >= _POLE_MARGIN
    if not off_poles.all():
        raise _refusal(f"theta grid too close to the poles (margin {_POLE_MARGIN:g})",
                       "theta_grid", theta, off_poles, state)
    try:
        lp = LegendreParams(l, m_l)
        l, m_l = lp.degree, lp.order  # Python ints, which l (l + 1) and m^2 below need
        triple = _legendre_triple(lp, a, x)
    except DomainError as exc:  # a neighbouring order's refusal names neither l, m nor alpha
        raise DomainError(f"{exc}, as the certifier of {state()} uses orders m-2 to m+2") from None
    P, d1, d2 = _conformable(theta, a, triple)
    # D^a[sin(theta^a) D^a P] / sin(theta^a), with D^a sin(theta^a) = a cos(theta^a)
    terms = [
        a * np.cos(x) / sx * d1 + d2,
        -(m_l * m_l) * a * a * P / (sx * sx),
        a * a * l * (l + 1) * P,
    ]
    return _report(terms, theta, state, "theta_grid")


def normalization_report(qn: QuantumNumbers, params: ModelParams) -> float:
    """Conformable integral of the density ``probability_density_radial`` returns (target 1).

    A value of exactly 0.0, where no quadrature node reaches the state's
    mass, is refused with ``DomainError``: no bound state has norm 0.
    """
    a = params.alpha
    where = (
        f"the normalization integral of (n, l) = ({_shown(qn.n, str)}, {_shown(qn.l, str)}) "
        f"at alpha = {a!r}, r_b = {params.r_b_alpha!r}"
    )

    def integrand(r):
        return _density(r, radial_wavefunction(qn, params, r), a)

    try:
        value = conf_integral(integrand, a, 0.0, math.inf)
    except ConvergenceError as exc:
        raise ConvergenceError(exc.coarse, exc.fine, exc.rtol, where) from exc
    if value == 0.0:
        raise DomainError(f"{where} evaluates to 0.0: no quadrature node sees the state's mass")
    return value


def classical_limit_report(n_max: int, alpha: float = 1.0) -> float:
    """Max deviation from the textbook hydrogen closed forms at the given order,
    on a radial grid at (theta, phi) = (1.1, 0.7).

    At alpha = 1 this certifies the classical limit; evaluating at a nearby
    order (e.g. 0.999) serves as a sensitivity control.
    """
    n_max = _require_integer("n_max", n_max)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > 3:
        raise ValueError("textbook reference forms are tabulated for n <= 3")
    a = alpha_value(alpha)
    params = ModelParams(a)
    r = default_grid(1e-3, 20.0, 200)
    worst = 0.0
    for n in range(1, n_max + 1):
        for l in range(n):
            ref_R = TEXTBOOK_RADIAL[(n, l)](r)
            got_R = radial_wavefunction(QuantumNumbers(n, l), params, r)
            worst = max(worst, float(np.max(np.abs(got_R - ref_R))))
            for m_l in range(-l, l + 1):
                qn = QuantumNumbers(n, l, m_l)
                ref = ref_R * textbook_spherical_harmonic(l, m_l, 1.1, 0.7)
                got = full_wavefunction(qn, params, r, 1.1, 0.7)
                worst = max(worst, float(np.max(np.abs(got - ref))))
    return worst


# ---------------------------------------------------------------------------
# verification suite (consumed by the CLI `verify` command)

def _states(n_max: int) -> list:
    """Every bound state (n, l) with n <= n_max."""
    return [QuantumNumbers(n, l) for n in range(1, n_max + 1) for l in range(n)]


def _laguerre_identity_error(lp: LaguerreParams, a: float) -> float:
    """Relative error of the weighted Laguerre square integral vs its closed form."""
    m = lp.order
    lhs = conf_integral(
        lambda x: np.exp(-(x**a) / a) * x ** (m * a + a) * conf_laguerre(lp, a, x) ** 2,
        a, 0.0, math.inf,
    )
    rhs = laguerre_orthogonality_constant(lp, a)
    return abs(lhs - rhs) / abs(rhs)


def _check(name: str, measured: float, threshold: float, comparison: str = "<=") -> dict:
    passed = measured >= threshold if comparison == ">=" else measured <= threshold
    return dict(name=name, measured=float(measured), threshold=float(threshold),
                comparison=comparison, passed=bool(passed))


def run_verification(level: str = "quick", inject_fault: bool = False) -> dict:
    """Run the full certification battery; returns a JSON-serializable report
    of ``level``, ``passed``, ``elapsed_seconds`` and ``checks``, without the
    envelope that the CLI's ``verify`` writes before it.

    ``inject_fault`` multiplies the solution in the radial and u residual
    checks by the negative control's fault 1 + 0.01 t, which must make the
    report fail.
    """
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    t0 = time.perf_counter()
    quick = level == "quick"
    alphas = [0.5, 1.0] if quick else [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    ode_alphas = [0.5, 1.0] if quick else [0.5, 0.75, 1.0]
    s_max, m_max = (2, 3) if quick else (3, 5)
    laguerre = [(a, LaguerreParams(s, m)) for a in ode_alphas for s in range(s_max + 1) for m in range(m_max + 1)]
    ode = [(qn, ModelParams(a)) for a in ode_alphas for qn in _states(2 if quick else 4)]

    # (name, measured, threshold), evaluated in this order; each passes at measured <= threshold
    table = [
        ("classical_limit_wavefunctions", classical_limit_report(2 if quick else 3), 1e-12),
        ("classical_limit_energies", max(abs(energy_level(n, 1.0) - (-13.6 / n**2)) for n in range(1, 11)), 1e-12),
        ("radial_normalization", max(
            abs(normalization_report(qn, ModelParams(a)) - 1.0) for a in alphas for qn in _states(2 if quick else 5)
        ), 1e-8),
        ("laguerre_integral_identity", max(_laguerre_identity_error(lp, a) for a, lp in laguerre), 1e-8),
        ("rodrigues_oracle_equivalence", max(
            abs(conf_laguerre(lp, a, x) - conf_laguerre_rodrigues_oracle(lp, a, x))
            for a, lp in laguerre
            for x in (0.5, 1.0, 2.0, 5.0)
        ), 1e-5),
        ("radial_ode_residual", max(
            radial_ode_residual(qn, p, inject_fault=inject_fault).max_rel_residual for qn, p in ode
        ), 1e-6),
        ("u_ode_residual", max(
            u_ode_residual(qn, p, inject_fault=inject_fault).max_rel_residual for qn, p in ode
        ), 1e-6),
        ("laguerre_ode_residual", max(laguerre_ode_residual(qn, p).max_rel_residual for qn, p in ode), 1e-6),
        ("angular_ode_residual", max(
            angular_ode_residual(l, m_l, a).max_rel_residual
            for a in ode_alphas
            for l in range(3)
            for m_l in range(-l, l + 1)
        ), 1e-5),
    ]
    checks = [_check(*row) for row in table]
    # negative control: the faulted radial solution must fail loudly, past 100 times the radial residual
    control = radial_ode_residual(QuantumNumbers(2, 0), ModelParams(0.75), inject_fault=True).max_rel_residual
    worst_r = dict((name, measured) for name, measured, _ in table)["radial_ode_residual"]
    checks.append(_check("negative_control_residual", control, 100.0 * max(worst_r, 1e-12), ">="))
    return {
        "level": level,
        "passed": all(c["passed"] for c in checks),
        "elapsed_seconds": round(time.perf_counter() - t0, 3),
        "checks": checks,
    }
