"""Conformable hydrogen-atom bound states.

Builds the scaled radial problem, radial and full wavefunctions, energy
levels, and the radial probability density r^(2 alpha) |R|^2.  Natural
units (alpha-Bohr radius = 1) are the default; energies are reported in eV
through the combined constant 13.6^alpha.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .calculus import (
    _angle_power, _checked, _checked_grid, _classical, _float, _nonnegative, _positive,
    _real, _refusal, _require_integer, _shown, alpha_value,
)
from .errors import DomainError
from .special import (
    LaguerreParams, LegendreParams, _conf_legendre, _factorial, _laguerre_triple, _params_repr, laguerre_assoc,
)

__all__ = [
    "DensityCurve", "ModelParams", "QuantumNumbers", "ScaledRadialProblem", "angular_Y",
    "energy_level", "full_wavefunction", "probability_density_radial", "radial_wavefunction",
    "scaled_problem", "u_function",
]

HYDROGEN_ENERGY_SCALE_EV = 13.6
# points per block of the array kernels: each intermediate of a block fits
# in L2, where one whole-array pass makes an 8 or 16 MB temporary per step
_BLOCK = 32_768
_Y_MAX = 1500.0  # exp(-w / 2) is 0.0 in doubles from w of about 1490.3
_R_RULE = "radial coordinate must be positive (NaN is refused)"
_RHO_RULE = "scaled radial coordinate must be positive (NaN is refused)"


def _blocked(kernel, *args):
    """kernel(*args) over the broadcast shape of args, one block at a time.

    Each input reaches the kernel as an array of at least one dimension, so
    a call whose inputs are all single numbers runs through the same array
    loops as an array call and returns, as a Python float or complex, the
    bits that an array call gives at that point (numpy's scalar ** calls
    libm pow, its array ** does not).
    The kernels compute point by point, so each block holds the bits that a
    whole-array call gives there.  Inputs of at most one block go to the
    kernel whole.  Otherwise a size-1 input reaches every block whole,
    so the kernel forms what depends on that input alone once per block, not
    once per point: a scalar phi's phase e^(i m phi^alpha), for one.  Through
    the iterator phi would be a block of copies, and psi at 10^6 points
    takes 60 ms in place of 38 ms on a 2-core machine, with the same bits,
    a difference no test sees.  numpy's buffered iterator reads every other
    input in C order, in chunks of at most one block: a view where the input
    allows one, else a copy of that chunk only, so no input is materialised
    at the full shape.
    A check that a kernel makes raises from the first block that fails it;
    ``calculus._angle_power`` then names the element of the whole input.
    """
    b = np.broadcast(*args)
    args = [np.atleast_1d(x) for x in args]
    if b.size <= _BLOCK:
        out = kernel(*args)
        return out.item() if b.shape == () else out
    read = [x for x in args if x.size > 1]
    it = np.nditer(read, flags=["external_loop", "buffered"], buffersize=_BLOCK, order="C")
    out, lo = None, 0
    for chunk in it:
        # for a single operand the iterator yields the array, not a 1-tuple
        chunks = iter(chunk if len(read) > 1 else (chunk,))
        part = kernel(*(x if x.size == 1 else next(chunks) for x in args))
        if out is None:
            out = np.empty(b.size, dtype=part.dtype)
        out[lo : lo + part.size] = part
        lo += part.size
    return out.reshape(b.shape)


def _require_principal(n) -> int:
    n = _require_integer("quantum number n", n)
    if n < 1:
        raise ValueError(f"principal quantum number must be >= 1, got {_shown(n, str)}")
    return n


@dataclass(frozen=True)
class QuantumNumbers:
    n: int
    l: int
    m_l: int = 0
    __repr__ = _params_repr

    def __post_init__(self):
        object.__setattr__(self, "n", _require_principal(self.n))
        object.__setattr__(self, "l", _require_integer("quantum number l", self.l))
        object.__setattr__(self, "m_l", _require_integer("quantum number m_l", self.m_l))
        if not (0 <= self.l <= self.n - 1):
            raise ValueError("orbital quantum number must satisfy 0 <= l <= n-1, "
                             f"got l={_shown(self.l, str)}, n={_shown(self.n, str)}")
        if abs(self.m_l) > self.l:
            raise ValueError("magnetic quantum number must satisfy |m_l| <= l, "
                             f"got m_l={_shown(self.m_l, str)}, l={_shown(self.l, str)}")


@dataclass(frozen=True)
class ModelParams:
    alpha: float
    r_b_alpha: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", alpha_value(self.alpha))
        object.__setattr__(self, "r_b_alpha", _real(
            self.r_b_alpha, "r_b_alpha", lambda v: math.isfinite(v) and v > 0,
            lambda r_b: ValueError(f"alpha-Bohr radius r_b_alpha must be finite and > 0, got {_shown(r_b)}")))

    @classmethod
    def natural(cls, alpha: float) -> "ModelParams":
        """``ModelParams(alpha)``: an alias that the benchmark still calls, due
        for deletion once it calls the constructor."""
        return cls(alpha=alpha)


@dataclass(frozen=True)
class ScaledRadialProblem:
    k: float
    lambda_alpha: float


@dataclass(frozen=True)
class DensityCurve:
    qn: QuantumNumbers
    alpha: float
    r: np.ndarray
    values: np.ndarray


def energy_level(n: int, alpha: float) -> float:
    """Bound-state energy -(13.6 eV)^alpha / (2^(1-alpha) alpha^2 n^2)."""
    n = _require_principal(n)
    a, v = alpha_value(alpha), _float(n)
    denominator = 2.0 ** (1.0 - a) * a * a * v * v
    energy = -(HYDROGEN_ENERGY_SCALE_EV**a) / denominator if denominator else -math.inf
    # alpha^2 n^2 is subnormal or 0 below alpha ~ 1e-154, and inf above n ~ 1e154
    if not (math.isfinite(energy) and energy != 0.0):
        raise DomainError(
            f"energy level n={_shown(n, str)} at alpha={a!r} is not a finite nonzero double ({energy!r})")
    return energy


def scaled_problem(qn: QuantumNumbers, params: ModelParams) -> ScaledRadialProblem:
    """Scaled radial problem: k = 1/(alpha r_b n), lambda = n alpha.

    Raises ``DomainError`` naming the state, alpha, r_b and the factor
    alpha r_b n where k is not a finite positive double: the factor rounds
    to 0 or to a subnormal at the smallest r_b, or overflows at the largest.
    """
    a = params.alpha
    factor = a * params.r_b_alpha * _float(qn.n)
    k = 1.0 / factor if factor else math.inf
    if not (math.isfinite(k) and k > 0.0):
        raise DomainError(
            f"k = 1 / (alpha r_b n) of {_state(qn, a, params.r_b_alpha)} is not a finite "
            f"positive double: the factor alpha r_b n evaluates to {factor!r}"
        )
    return ScaledRadialProblem(k=k, lambda_alpha=qn.n * a)


def _state(qn: QuantumNumbers, alpha: float, r_b=None) -> str:
    """The state and the model parameters, as every error of this module names them."""
    where = f"alpha={alpha!r}" if r_b is None else f"alpha={alpha!r}, r_b={r_b!r}"
    n, l, m = (_shown(q, str) for q in (qn.n, qn.l, qn.m_l))
    return f"state (n, l, m) = ({n}, {l}, {m}) at {where}"


def _constant(name: str, qn: QuantumNumbers, formula, alpha: float, r_b=None):
    """Evaluate ``formula(factor)``, a normalisation constant, as a finite positive double.

    The formula passes each factor that can leave the doubles (the
    factorials once n + l nears 170, the powers of alpha and r_b at extreme
    values) through ``factor(label, thunk)``, which evaluates the thunk once
    and returns its value as it is, so the constant keeps the formula's bits.
    ``DomainError`` names the state, alpha, r_b and the first factor, else
    the product, that is not a finite positive double.
    """
    def refuse(cause):
        return DomainError(f"{name} of {_state(qn, alpha, r_b)} is not a finite positive double: {cause}")

    def factor(label, thunk):
        try:
            value = thunk()
            v = float(value)
        except (OverflowError, ZeroDivisionError) as exc:
            raise refuse(f"{label} overflows a double ({exc})") from None
        if not (math.isfinite(v) and v > 0.0):
            raise refuse(f"{label} evaluates to {v!r}")
        return value

    return factor("the product of its factors", lambda: formula(factor))


def _laguerre_norm(name: str, qn: QuantumNumbers, params: ModelParams, scale, c) -> float:
    """sqrt(s (n - l - 1)! / (c n alpha^(2 l + 2) (n + l)!)), s = ``scale(factor)``:
    the one Laguerre normalisation of R (s = (2 / (alpha n r_b))^3, c = 2) and
    of u (s = k, c = 1), which R(r) = 2 k u(rho) / rho^alpha at rho^alpha =
    2 k r^alpha ties together."""
    a, n, l = params.alpha, qn.n, qn.l
    return _constant(name, qn, lambda factor: math.sqrt(
        scale(factor) * factor("the (n - l - 1)! factorial", lambda: _factorial(n - l - 1))
        / (c * n * factor("the factor alpha**(2 l + 2)", lambda: a ** (2 * l + 2))
           * factor("the (n + l)! factorial", lambda: _factorial(n + l)))
    ), a, params.r_b_alpha)


def _radial_norm(qn: QuantumNumbers, params: ModelParams) -> float:
    a, n, rb = params.alpha, qn.n, params.r_b_alpha
    return _laguerre_norm("radial normalisation", qn, params, lambda factor: factor(
        "the factor (2 / (alpha n r_b))**3", lambda: (2.0 / (a * n * rb)) ** 3), 2.0)


def _laguerre_params(qn: QuantumNumbers) -> LaguerreParams:
    """The Laguerre factor L_{n-l-1}^{2l+1} of the state's radial solution."""
    return LaguerreParams(qn.n - qn.l - 1, 2 * qn.l + 1)


def _radii(r, qn: QuantumNumbers, params: ModelParams, name: str = "r",
           message: str = _R_RULE) -> np.ndarray:
    """r as a float array, checked positive."""
    return _checked(r, name, _positive, message, lambda: _state(qn, params.alpha, params.r_b_alpha))


def radial_wavefunction(qn: QuantumNumbers, params: ModelParams, r):
    """Radial amplitude R_alpha(r^alpha) for the given bound state."""
    rarr = _radii(r, qn, params)  # before the constant, so the input check goes first
    return _blocked(partial(_power_exp, *_radial_form(qn, params)), rarr)


def _substituted(x, a, d):
    """w = 2 x^a / d, stopped at ``_Y_MAX`` (past which e^(-w/2) is 0.0) by a
    cap on x^a, so w is finite for every double x and 2 x^a / d short of it."""
    return 2.0 * np.minimum(x**a, 0.5 * _Y_MAX * d) / d


def _radial_form(qn: QuantumNumbers, params: ModelParams) -> tuple:
    """R's (lp, p, K, d, a) of ``_power_exp``: L_{n-l-1}^{2l+1}, p = l, K = N and
    the state scale d = alpha^2 r_b n, formed once per call, before any block."""
    a = params.alpha
    return _laguerre_params(qn), qn.l, _radial_norm(qn, params), a * a * params.r_b_alpha * qn.n, a


def _u_form(qn: QuantumNumbers, params: ModelParams) -> tuple:
    """u's (lp, p, K, d, a) of ``_power_exp``: p = l + 1, K = A and d = 2 alpha,
    which makes w = rho^alpha / alpha exactly, as scaling by 2 is exact."""
    a, k = params.alpha, scaled_problem(qn, params).k
    A = _laguerre_norm("u normalisation", qn, params, lambda factor: k, 1)
    return _laguerre_params(qn), qn.l + 1, A, 2.0 * a, a


def _power_exp(lp: LaguerreParams, p: int, K: float, d: float, a: float, x):
    """F = K (a w)^p e^(-w/2) L_s^m(w), w = ``_substituted(x, a, d)``, on positive
    x that the caller checks: R, the density's R, psi's R and u, block by block."""
    w = _substituted(x, a, d)
    L = laguerre_assoc(lp, w)
    return K * (a * w) ** p * np.exp(-w / 2.0) * L


def _power_exp_laguerre(lp: LaguerreParams, p: int, K: float, d: float, a: float, x):
    """F, D^a F and D^a D^a F in x of F = K (a w)^p e^(-w/2) L_s^m(w), w = ``_substituted(x, a, d)``.

    F is formed as ``_power_exp`` forms it, so with its bits.  In x,
    D^a = c d/dw with c = 2 a / d exactly (the conformable chain rule): the
    w-derivatives from the product rule and the Laguerre lowering relations
    are scaled by c after e^(-w/2), so past the stop of w all three are 0.
    """
    w = _substituted(x, a, d)
    L, dL, d2L = _laguerre_triple(lp, w)
    # first and second w-derivatives of e^(-w/2) L, divided by e^(-w/2)
    dH, d2H = dL - 0.5 * L, d2L - dL + 0.25 * L
    # (a w)^p and its first two w-derivatives
    vp = (a * w) ** p
    vp1 = p * a * (a * w) ** (p - 1) if p >= 1 else 0.0
    vp2 = p * (p - 1) * a * a * (a * w) ** (p - 2) if p >= 2 else 0.0
    E, c = np.exp(-w / 2.0), 2.0 * a / d
    F = K * vp * E * L
    dF = K * (vp1 * L + vp * dH) * E * c
    d2F = K * (vp2 * L + 2.0 * vp1 * dH + vp * d2H) * E * c * c
    return F, dF, d2F


def _radial_triple(qn: QuantumNumbers, params: ModelParams, x):
    """R, D^a R and D^a D^a R on positive radii x, which the caller checks."""
    return _power_exp_laguerre(*_radial_form(qn, params), x)


def _with_derivatives(triple, qn: QuantumNumbers, params: ModelParams, r, name: str = "r",
                      message: str = _R_RULE):
    """(f, f', f'') at r from ``triple``'s (f, D^a f, D^a D^a f), refused where
    f' or f'' leaves the doubles, as it can near r = 0, where r^(a-2) overflows."""
    x = np.atleast_1d(_radii(r, qn, params, name, message))
    out = _classical(x, params.alpha, *triple(qn, params, x))
    ok = np.isfinite(out[1]) & np.isfinite(out[2])
    if not ok.all():
        raise _refusal("classical first or second derivative leaves the doubles", name,
                       x.reshape(np.shape(r)), ok.reshape(np.shape(r)),
                       lambda: _state(qn, params.alpha, params.r_b_alpha))
    return out if np.ndim(r) else tuple(float(v[0]) for v in out)


def radial_with_derivatives(qn: QuantumNumbers, params: ModelParams, r):
    """R and its first two classical r-derivatives, all analytic.

    R = N (alpha w)^l e^(-w/2) L_{n-l-1}^{2l+1}(w), w = 2 r^alpha / (alpha^2 r_b n),
    with the bits of ``radial_wavefunction``.
    """
    return _with_derivatives(_radial_triple, qn, params, r)


def u_function(qn: QuantumNumbers, params: ModelParams, rho):
    """Scaled radial solution u_alpha(rho^alpha); R(r) = 2k u(rho) / rho^alpha
    where rho^alpha = 2k r^alpha."""
    x = _radii(rho, qn, params, "rho", _RHO_RULE)
    return _blocked(partial(_power_exp, *_u_form(qn, params)), x)


def _u_triple(qn: QuantumNumbers, params: ModelParams, x):
    """u, D^a u and D^a D^a u on positive rho x, which the caller checks."""
    return _power_exp_laguerre(*_u_form(qn, params), x)


def u_with_derivatives(qn: QuantumNumbers, params: ModelParams, rho):
    """u and its first two classical rho-derivatives, all analytic.

    u = A (alpha y)^(l+1) e^(-y/2) L_{n-l-1}^{2l+1}(y) with y = rho^alpha / alpha.
    """
    return _with_derivatives(_u_triple, qn, params, rho, "rho", _RHO_RULE)


def _angular_norm(qn: QuantumNumbers, a: float) -> float:
    l, m = qn.l, qn.m_l
    return _constant("angular normalisation", qn, lambda factor: math.sqrt(
        (2 * l + 1)
        * factor("the (l - m)! factorial", lambda: _factorial(l - m))
        / (factor("the factor alpha**(2 m - 2)", lambda: a ** (2 * m - 2)) * 2.0
           * factor("the (l + m)! factorial", lambda: _factorial(l + m)) * (2.0 * math.pi) ** a)
    ), a)


def _angular(qn: QuantumNumbers, a: float, theta, phi):
    """(kernel, th, ph): theta and phi checked as float arrays th and ph, and Y
    on one block (t, f) of them.  The constant is formed after the checks and
    before any block, so it refuses l = 10^6 at once, where a Legendre pass
    takes seconds."""
    state = lambda: _state(qn, a)  # noqa: E731
    th = _checked(theta, "theta", _positive, "theta must be positive (NaN is refused)", state)
    ph = _checked(phi, "phi", _nonnegative, "phi must be nonnegative (NaN is refused)", state)
    norm = _angular_norm(qn, a)
    lp, m = LegendreParams(qn.l, qn.m_l), qn.m_l

    def block(t, f):
        p = _conf_legendre(lp, a, t, state, th)  # theta^alpha <= pi, before phi
        y = _angle_power(f, a, "phi", "phi", state, ph)
        if m:
            return norm * np.exp(1j * m * y) * p
        # the bits of norm * (1+0j) * P, whose imaginary part is +0.0 for finite P
        return np.broadcast_to(norm * p, np.broadcast_shapes(np.shape(p), np.shape(y))).astype(complex)

    return block, th, ph


def angular_Y(qn: QuantumNumbers, alpha: float, theta, phi):
    """Conformable spherical harmonic; equals the standard Y_l^m at alpha = 1.

    The alpha-dependent prefactor (including the alpha^(2m-2) factor) is
    carried entirely by the normalization constant.
    """
    return _blocked(*_angular(qn, alpha_value(alpha), theta, phi))


def full_wavefunction(qn: QuantumNumbers, params: ModelParams, r, theta, phi):
    """psi = R_{n l alpha}(r^alpha) * Y_{l alpha}^{m alpha}(theta, phi).

    Where no input broadcasts (each one has the result's shape or a single
    element), R and Y are formed and multiplied block by block, so no R
    exists at full size.  Otherwise each factor is evaluated on its own
    inputs' shape, and broadcast once in the product.
    """
    rarr = _radii(r, qn, params)
    radial = partial(_power_exp, *_radial_form(qn, params))  # before the angles, as R before Y
    angular, th, ph = _angular(qn, params.alpha, theta, phi)
    shape = np.broadcast(rarr, th, ph).shape  # ValueError if they do not broadcast
    if any(x.size != 1 and x.shape != shape for x in (rarr, th, ph)):
        R, Y = _blocked(radial, rarr), _blocked(angular, th, ph)
        # a fresh Y that has psi's shape takes the product, so psi needs no second buffer
        return np.multiply(R, Y, out=Y if Y.shape == shape else None)
    return _blocked(lambda x, t, f: radial(x) * angular(t, f), rarr, th, ph)


def _density(x, R, a):
    """r^(2 alpha) R^2 from R at radii x: ``probability_density_radial``'s values."""
    # where R is not 0, r^alpha < _Y_MAX alpha^2 r_b n < 1e112, so r^(2 alpha)
    # overflows only where R is 0; r = 1 there gives the product's +0.0
    return np.where(R == 0.0, 1.0, x) ** (2.0 * a) * R * R


def probability_density_radial(
    qn: QuantumNumbers, params: ModelParams, grid
) -> DensityCurve:
    """alpha-probability density r^(2 alpha) |R|^2 on a sorted positive grid."""
    a = params.alpha
    g = _checked_grid(grid, "grid", "grid points must be positive (NaN is refused)",
                      lambda: _state(qn, a, params.r_b_alpha))
    # neighbours are compared, not subtracted: inf - inf is NaN, and NaN <= 0 is False
    if not (g[1:] > g[:-1]).all():  # the mask would outlive the blocks below
        i = 1 + int(np.argmin(g[1:] > g[:-1]))
        raise ValueError(
            f"grid must be strictly increasing: grid[{i}] = {float(g[i])!r} follows {float(g[i - 1])!r}"
        )
    radial = partial(_power_exp, *_radial_form(qn, params))
    values = _blocked(lambda x: _density(x, radial(x), a), g)
    return DensityCurve(qn=qn, alpha=a, r=g, values=values)
