"""Conformable hydrogen-atom bound states.

Builds the scaled radial problem, radial and full wavefunctions, energy
levels, and the radial probability density r^(2 alpha) |R|^2.  Natural
units (alpha-Bohr radius = 1) are the default; energies are reported in eV
through the combined constant 13.6^alpha.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import Alpha, AlphaLike, alpha_value
from .errors import DomainError
from .special import (
    LaguerreParams,
    laguerre_assoc,
    laguerre_assoc_du,
    laguerre_assoc_du2,
    LegendreParams,
    legendre_assoc,
)

HYDROGEN_ENERGY_SCALE_EV = 13.6
# points per block of the array kernels: each intermediate of a block fits
# in L2, where one whole-array pass makes an 8 or 16 MB temporary per step
_BLOCK = 32_768


def _blocked(kernel, *args):
    """kernel(*args) over the broadcast shape of args, one block at a time.

    The kernels compute point by point, so each block holds the bits that a
    whole-array call gives there.  Inputs of at most one block go to the
    kernel as they are.  Otherwise a size-1 input reaches every block whole,
    and numpy's buffered iterator reads every other input in C order, in
    chunks of at most one block: a view where the input allows one, else a
    copy of that chunk only, so no input is materialised at the full shape.
    A check that a kernel makes raises from the first block that fails it.
    """
    b = np.broadcast(*args)
    if b.size <= _BLOCK:
        return kernel(*args)
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


def _require_integer(name: str, v) -> None:
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"quantum number {name} must be an integer, got {v!r}")


def _require_principal(n) -> None:
    _require_integer("n", n)
    if n < 1:
        raise ValueError(f"principal quantum number must be >= 1, got {n}")


@dataclass(frozen=True)
class QuantumNumbers:
    n: int
    l: int
    m_l: int = 0

    def __post_init__(self):
        _require_principal(self.n)
        _require_integer("l", self.l)
        _require_integer("m_l", self.m_l)
        if not (0 <= self.l <= self.n - 1):
            raise ValueError(f"orbital quantum number must satisfy 0 <= l <= n-1, got l={self.l}, n={self.n}")
        if abs(self.m_l) > self.l:
            raise ValueError(f"magnetic quantum number must satisfy |m_l| <= l, got m_l={self.m_l}, l={self.l}")


@dataclass(frozen=True)
class ModelParams:
    alpha: Alpha
    r_b_alpha: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", Alpha(alpha_value(self.alpha)))
        if not (math.isfinite(self.r_b_alpha) and self.r_b_alpha > 0):
            raise ValueError(f"alpha-Bohr radius r_b_alpha must be finite and > 0, got {self.r_b_alpha!r}")

    @classmethod
    def natural(cls, alpha: AlphaLike) -> "ModelParams":
        return cls(alpha=alpha)

    @classmethod
    def physical(cls, alpha: AlphaLike, r_b_alpha: float) -> "ModelParams":
        return cls(alpha=alpha, r_b_alpha=r_b_alpha)


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


def energy_level(n: int, alpha: AlphaLike) -> float:
    """Bound-state energy -(13.6 eV)^alpha / (2^(1-alpha) alpha^2 n^2)."""
    _require_principal(n)
    a = alpha_value(alpha)
    denominator = 2.0 ** (1.0 - a) * a * a * n * n
    energy = -(HYDROGEN_ENERGY_SCALE_EV**a) / denominator if denominator else -math.inf
    if not math.isfinite(energy):  # alpha^2 n^2 is subnormal or 0 below alpha ~ 1e-154
        raise DomainError(f"energy level n={n} at alpha={a!r} is not a finite double ({energy!r})")
    return energy


def scaled_problem(qn: QuantumNumbers, params: ModelParams) -> ScaledRadialProblem:
    """Scaled radial problem: k = 1/(alpha r_b n), lambda = n alpha.

    Raises ``DomainError`` naming the state, alpha, r_b and the factor
    alpha r_b n where k is not a finite positive double: the factor rounds
    to 0 or to a subnormal at the smallest r_b, or overflows at the largest.
    """
    a = params.alpha.value
    factor = a * params.r_b_alpha * qn.n
    k = 1.0 / factor if factor else math.inf
    if not (math.isfinite(k) and k > 0.0):
        raise DomainError(
            f"k = 1 / (alpha r_b n) of state (n, l, m) = ({qn.n}, {qn.l}, {qn.m_l}) at "
            f"alpha={a!r}, r_b={params.r_b_alpha!r} is not a finite positive double: "
            f"the factor alpha r_b n evaluates to {factor!r}"
        )
    return ScaledRadialProblem(k=k, lambda_alpha=qn.n * a)


def _constant(name: str, qn: QuantumNumbers, formula, factors: dict, alpha: float, r_b=None):
    """Evaluate a normalisation constant as a finite positive double.

    Where it is not one (the factorials leave the doubles once n + l nears
    170, the powers of alpha and r_b at extreme values), raise
    ``DomainError`` naming the state, alpha, r_b and the first of
    ``factors`` (label: thunk) that is not a finite positive double.  Only
    this error path evaluates them, so a constant that forms keeps its bits.
    """
    try:
        value = formula()
        if math.isfinite(value) and value > 0.0:
            return value
        cause = f"the product of its factors evaluates to {value!r}"
    except (OverflowError, ZeroDivisionError) as exc:
        cause = f"it cannot be formed ({exc})"
    for label, factor in factors.items():
        try:
            v = float(factor())
        except (OverflowError, ZeroDivisionError) as exc:
            cause = f"{label} overflows a double ({exc})"
            break
        if not (math.isfinite(v) and v > 0.0):
            cause = f"{label} evaluates to {v!r}"
            break
    where = f"alpha={alpha!r}" if r_b is None else f"alpha={alpha!r}, r_b={r_b!r}"
    raise DomainError(
        f"{name} of state (n, l, m) = ({qn.n}, {qn.l}, {qn.m_l}) at {where} "
        f"is not a finite positive double: {cause}"
    )


def _radial_norm(qn: QuantumNumbers, params: ModelParams) -> float:
    a = params.alpha.value
    n, l = qn.n, qn.l
    rb = params.r_b_alpha
    return _constant("radial normalisation", qn, lambda: math.sqrt(
        (2.0 / (a * n * rb)) ** 3
        * math.factorial(n - l - 1)
        / (2.0 * n * a ** (2 * l + 2) * math.factorial(n + l))
    ), {
        "the factor (2 / (alpha n r_b))**3": lambda: (2.0 / (a * n * rb)) ** 3,
        "the (n - l - 1)! factorial": lambda: math.factorial(n - l - 1),
        "the factor alpha**(2 l + 2)": lambda: a ** (2 * l + 2),
        "the (n + l)! factorial": lambda: math.factorial(n + l),
    }, a, rb)


def _radial_block(qn: QuantumNumbers, params: ModelParams, norm: float, x):
    """R on positive radii x, for one block, given ``_radial_norm``.

    The caller checks x and forms the constant first, so that a constant
    that fails raises before any block divides by alpha^2 r_b n.
    """
    a = params.alpha.value
    n, l = qn.n, qn.l
    w = 2.0 * x**a / (a * a * params.r_b_alpha * n)
    lag = laguerre_assoc(LaguerreParams(n - l - 1, 2 * l + 1), w)
    decay = np.exp(-w / 2.0)
    out = norm * (a * w) ** l * decay * lag
    # R is 0 where the decay underflows, but inf * 0 there gives NaN; any() is the cheap test
    if np.isnan(out).any():
        out = np.where(np.isnan(out) & (decay == 0.0), 0.0, out)
    return out


def _radii(r) -> np.ndarray:
    """r as a float array of at least one dimension, checked positive."""
    # a scalar runs through the same array loops as an array, so both agree
    # bit for bit (numpy's scalar ** calls libm pow, its array ** does not)
    rarr = np.atleast_1d(np.asarray(r, dtype=float))
    if not np.all(rarr > 0):
        raise DomainError("radial coordinate must be positive (NaN is refused)")
    return rarr


def radial_wavefunction(qn: QuantumNumbers, params: ModelParams, r):
    """Radial amplitude R_alpha(r^alpha) for the given bound state."""
    rarr = _radii(r)
    norm = _radial_norm(qn, params)
    out = _blocked(lambda x: _radial_block(qn, params, norm, x), rarr)
    return out if np.ndim(r) else float(out[0])


def _power_exp_laguerre(lp: LaguerreParams, p: int, c: float, a: float, x):
    """F, F', F'' of F(x) = y^p e^(-y/2) L_s^m(y) with y = c x^a, in x.

    The y-derivatives follow from the product rule and the Laguerre lowering
    relations; they are chained back to x through y' = c a x^(a-1) and
    y'' = c a (a-1) x^(a-2).
    """
    y = c * x**a
    L = np.asarray(laguerre_assoc(lp, y), dtype=float)
    dL = np.asarray(laguerre_assoc_du(lp, y), dtype=float)
    d2L = np.asarray(laguerre_assoc_du2(lp, y), dtype=float)
    # first and second y-derivatives of e^(-y/2) L, divided by e^(-y/2)
    dH, d2H = dL - 0.5 * L, d2L - dL + 0.25 * L
    yp = y**p
    yp1 = p * y ** (p - 1) if p >= 1 else 0.0
    yp2 = p * (p - 1) * y ** (p - 2) if p >= 2 else 0.0
    E = np.exp(-y / 2.0)
    G = yp * L * E
    dG = (yp1 * L + yp * dH) * E
    d2G = (yp2 * L + 2.0 * yp1 * dH + yp * d2H) * E
    dy = c * a * x ** (a - 1.0)
    d2y = c * a * (a - 1.0) * x ** (a - 2.0)
    return G, dG * dy, d2G * dy * dy + dG * d2y


def radial_with_derivatives(qn: QuantumNumbers, params: ModelParams, r):
    """R and its first two classical r-derivatives, all analytic.

    R = N alpha^l w^l e^(-w/2) L_{n-l-1}^{2l+1}(w) with the substituted
    argument w = 2 r^alpha / (alpha^2 r_b n).
    """
    a = params.alpha.value
    n, l = qn.n, qn.l
    rarr = _radii(r)
    C = _radial_norm(qn, params) * a**l
    c = 2.0 / (a * a * params.r_b_alpha * n)
    F = _power_exp_laguerre(LaguerreParams(n - l - 1, 2 * l + 1), l, c, a, rarr)
    out = tuple(C * v for v in F)
    return out if np.ndim(r) else tuple(float(v[0]) for v in out)


def u_function(qn: QuantumNumbers, params: ModelParams, rho):
    """Scaled radial solution u_alpha(rho^alpha); satisfies R = 2k u / rho^alpha."""
    u, _, _ = u_with_derivatives(qn, params, rho)
    return u


def u_with_derivatives(qn: QuantumNumbers, params: ModelParams, rho):
    """u and its first two classical rho-derivatives, all analytic.

    u = A alpha^(l+1) y^(l+1) e^(-y/2) L_{n-l-1}^{2l+1}(y) with y = rho^alpha / alpha.
    """
    a = params.alpha.value
    n, l = qn.n, qn.l
    rarr = np.atleast_1d(np.asarray(rho, dtype=float))
    if not np.all(rarr > 0):
        raise DomainError("scaled radial coordinate must be positive (NaN is refused)")
    k = scaled_problem(qn, params).k
    A = _constant("u normalisation", qn, lambda: math.sqrt(
        k * math.factorial(n - l - 1) / (n * a ** (2 * l + 2) * math.factorial(n + l))
    ), {
        "the (n - l - 1)! factorial": lambda: math.factorial(n - l - 1),
        "the factor alpha**(2 l + 2)": lambda: a ** (2 * l + 2),
        "the (n + l)! factorial": lambda: math.factorial(n + l),
    }, a, params.r_b_alpha)
    C = A * a ** (l + 1)
    F = _power_exp_laguerre(LaguerreParams(n - l - 1, 2 * l + 1), l + 1, 1.0 / a, a, rarr)
    out = tuple(C * v for v in F)
    return out if np.ndim(rho) else tuple(float(v[0]) for v in out)


def _angles(theta, phi):
    """theta and phi as float arrays, checked as ``angular_Y`` requires."""
    th = np.asarray(theta, dtype=float)
    ph = np.asarray(phi, dtype=float)
    if not np.all(th > 0):
        raise DomainError("theta must be positive (NaN is refused)")
    if not np.all(ph >= 0):
        raise DomainError("phi must be nonnegative (NaN is refused)")
    return th, ph


def _angular_block(qn: QuantumNumbers, a: float, t, f):
    """Y on checked angles t and f, for one block."""
    l, m = qn.l, qn.m_l
    x = t**a
    y = f**a
    if np.any(x > math.pi + 1e-12):
        raise DomainError("theta^alpha must lie in [0, pi]")
    if np.any(y > 2.0 * math.pi + 1e-12):
        raise DomainError("phi^alpha must lie in [0, 2 pi]")
    # per block, so that a range fault is still reported before a constant fault
    norm = _constant("angular normalisation", qn, lambda: math.sqrt(
        (2 * l + 1)
        * math.factorial(l - m)
        / (a ** (2 * m - 2) * 2.0 * math.factorial(l + m) * (2.0 * math.pi) ** a)
    ), {
        "the (l - m)! factorial": lambda: math.factorial(l - m),
        "the factor alpha**(2 m - 2)": lambda: a ** (2 * m - 2),
        "the (l + m)! factorial": lambda: math.factorial(l + m),
    }, a)
    p = legendre_assoc(LegendreParams(l, m), np.cos(x))
    if m:
        return norm * np.exp(1j * m * y) * p
    # the bits of norm * (1+0j) * P, whose imaginary part is +0.0 for finite P
    out = np.zeros(np.broadcast_shapes(np.shape(p), np.shape(y)), dtype=complex)
    out.real = norm * p
    return out


def angular_Y(qn: QuantumNumbers, alpha: AlphaLike, theta, phi):
    """Conformable spherical harmonic; equals the standard Y_l^m at alpha = 1.

    The alpha-dependent prefactor (including the alpha^(2m-2) factor) is
    carried entirely by the normalization constant.
    """
    a = alpha_value(alpha)
    th, ph = _angles(theta, phi)
    out = _blocked(lambda t, f: _angular_block(qn, a, t, f), th, ph)
    return out if np.ndim(out) else complex(out)


def _times(R, Y):
    """R * Y, into the buffer of a fresh Y that has the product's shape.

    It is the same complex multiply either way, so the same bits.
    """
    if np.ndim(Y) and np.broadcast(R, Y).shape == Y.shape:
        return np.multiply(R, Y, out=Y)
    return R * Y


def full_wavefunction(qn: QuantumNumbers, params: ModelParams, r, theta, phi):
    """psi = R_{n l alpha}(r^alpha) * Y_{l alpha}^{m alpha}(theta, phi).

    Where no input broadcasts (each one has the result's shape or a single
    element), R and Y are formed and multiplied block by block, so no R
    exists at full size.  Otherwise each factor is evaluated on its own
    inputs' shape, and broadcast once in the product.
    """
    rarr = _radii(r)
    norm = _radial_norm(qn, params)  # before the angles, as R before Y
    th, ph = _angles(theta, phi)
    shape = np.broadcast(rarr, th, ph).shape  # ValueError if they do not broadcast
    if any(x.size != 1 and x.shape != shape for x in (rarr, th, ph)):
        return _times(radial_wavefunction(qn, params, r), angular_Y(qn, params.alpha, theta, phi))
    a = params.alpha.value

    def kernel(x, t, f):
        return _times(_radial_block(qn, params, norm, x), _angular_block(qn, a, t, f))

    out = _blocked(kernel, rarr, th, ph)
    return out if np.ndim(r) or th.ndim or ph.ndim else complex(out[0])


def probability_density_radial(
    qn: QuantumNumbers, params: ModelParams, grid
) -> DensityCurve:
    """alpha-probability density r^(2 alpha) |R|^2 on a sorted positive grid."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("grid must be a nonempty 1-d array")
    if not np.all(g > 0):
        raise DomainError("grid points must be positive (NaN is refused)")
    # neighbours are compared, not subtracted: inf - inf is NaN, and NaN <= 0 is False
    if np.any(g[1:] <= g[:-1]):
        raise ValueError("grid must be strictly increasing")
    a = params.alpha.value
    norm = _radial_norm(qn, params)

    def kernel(x):
        R = _radial_block(qn, params, norm, x)
        vals = x ** (2.0 * a) * R * R
        vals[R == 0.0] = 0.0  # even where r^(2 alpha) overflows
        return vals

    return DensityCurve(qn=qn, alpha=a, r=g, values=_blocked(kernel, g))
