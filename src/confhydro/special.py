"""Associated Laguerre and Legendre functions, classical and conformable.

The conformable families are the classical functions evaluated at the
substituted argument (x^alpha / alpha for Laguerre, cos(theta^alpha) for
Legendre).  The substitution route is certified against an independent
Rodrigues-formula oracle for the Laguerre family.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .calculus import (
    _angle_power, _checked, _float, _floats, _positive, _refusal, _require_integer, _shown, _single, alpha_value,
)
from .errors import DomainError, UnsupportedDegreeError

__all__ = [
    "LaguerreParams", "LegendreParams", "conf_laguerre", "conf_laguerre_rodrigues_oracle",
    "conf_legendre", "laguerre_assoc", "laguerre_orthogonality_constant", "legendre_assoc",
]

_RODRIGUES_MAX_DEGREE = 4
# the recurrences run one Python step per degree: at 10^5 one point takes
# about 0.1 s (Laguerre) or 0.5 s (Legendre), and L_s^3 stays within about
# 2.3e-11 of 40-digit values; R, u and Y reach n + l <= 170
_MAX_DEGREE = 10**5
_LEGENDRE_LOG_MAX = 2.0 * math.log(1e250)  # of (l+|m|)!/(l-|m|)! for m >= 0


def _factorial(k: int) -> int:
    """k!, or the OverflowError that float(k!) raises for k > 170, raised
    before k! is formed (which takes seconds for k in the millions)."""
    if k > 170:
        raise OverflowError("int too large to convert to float")
    return math.factorial(k)


def _supported(family: str, degree: int, ceiling: int) -> None:
    if degree > ceiling:
        raise UnsupportedDegreeError(f"{family} supports degree <= {ceiling}, got {_shown(degree, str)}")


def _params_repr(params) -> str:
    """The dataclass repr, with each int quoted as ``calculus._shown`` quotes it."""
    shown = ", ".join(f"{f.name}={_shown(getattr(params, f.name))}" for f in fields(params))
    return f"{type(params).__name__}({shown})"


@dataclass(frozen=True)
class _DegreeOrder:
    """A degree and an order, each read as a Python int, and a nonnegative
    degree; each family checks its own order rule in ``_check_order``."""
    degree: int
    order: int
    __repr__ = _params_repr

    def __post_init__(self):
        object.__setattr__(self, "degree", _require_integer("degree", self.degree))
        object.__setattr__(self, "order", _require_integer("order", self.order))
        if self.degree < 0:
            raise ValueError(f"degree must be nonnegative, got {_shown(self.degree, str)}")
        self._check_order()


@dataclass(frozen=True, repr=False)
class LaguerreParams(_DegreeOrder):
    """The degree s and the order m >= 0 of L_s^m."""

    def _check_order(self):
        if self.order < 0:
            raise ValueError(f"order must be nonnegative, got {_shown(self.order, str)}")


@dataclass(frozen=True, repr=False)
class LegendreParams(_DegreeOrder):
    """The degree l and the order m, |m| <= l, of P_l^m."""

    def _check_order(self):
        if abs(self.order) > self.degree:
            raise ValueError(
                f"|order| must not exceed degree, got ({_shown(self.degree, str)}, {_shown(self.order, str)})"
            )


def laguerre_assoc(params: LaguerreParams, u):
    """Generalized Laguerre L_s^m(u) by the three-term recurrence in the degree.

    Each step computes ((2k+1+m - u) L_k - (k+m) L_{k-1}) / (k+1) with the
    operations of that expression in the same order, so with the same bits,
    but makes one new array, 2k+1+m - u, and does the rest in place in it
    and in L_{k-1}, which is no longer needed.  ``u`` is never written.
    A value that leaves the doubles raises ``DomainError`` naming the order
    and the first such u: the recurrence runs once, and its result is
    looked at, as an inf or NaN in a step stays inf or NaN to the end.
    A NaN u gives NaN, and degree 0 gives 1.  A degree past 10^5 raises
    ``UnsupportedDegreeError`` before any step.
    """
    _supported("associated Laguerre", params.degree, _MAX_DEGREE)
    u = _floats(u, "u")
    with np.errstate(over="ignore", invalid="ignore"):
        value = _laguerre(params, u)
    ok = np.isfinite(value)
    if not ok.all():
        ok |= np.isnan(u)  # NaN in is NaN out
        if not ok.all():
            raise _refusal("associated Laguerre L_s^m(u) leaves the doubles", "u", u, ok, params.__repr__)
    return value


def _laguerre(params: LaguerreParams, u: np.ndarray):
    s, m = params.degree, params.order
    prev = np.ones_like(u)
    cur = 1.0 + m - u if s else prev
    for k in range(1, s):
        nxt = 2 * k + 1 + m - u
        nxt *= cur
        prev *= k + m
        nxt -= prev
        nxt /= k + 1
        prev, cur = cur, nxt
    return cur if cur.ndim else float(cur)


def laguerre_assoc_du(params: LaguerreParams, u):
    """d/du L_s^m(u) = -L_{s-1}^{m+1}(u)."""
    s, m = params.degree, params.order
    if s == 0:
        return _zeros_like(u)
    return -laguerre_assoc(LaguerreParams(s - 1, m + 1), u)


def laguerre_assoc_du2(params: LaguerreParams, u):
    """d^2/du^2 L_s^m(u) = L_{s-2}^{m+2}(u)."""
    s, m = params.degree, params.order
    if s < 2:
        return _zeros_like(u)
    return laguerre_assoc(LaguerreParams(s - 2, m + 2), u)


def _laguerre_triple(params: LaguerreParams, u) -> tuple:
    """L_s^m(u) with its first and second u-derivatives, through this module's
    bindings of the three public functions, so each call is theirs."""
    return laguerre_assoc(params, u), laguerre_assoc_du(params, u), laguerre_assoc_du2(params, u)


def _zeros_like(u):
    z = np.zeros_like(_floats(u, "u"))
    return z if z.ndim else 0.0


def conf_laguerre(params: LaguerreParams, alpha: float, x):
    """Conformable associated Laguerre function: L_s^m evaluated at x^alpha/alpha."""
    a = alpha_value(alpha)
    xarr = _checked(x, "x", _positive, "conformable Laguerre requires x > 0 (NaN is refused)",
                    lambda: f"{params!r} at alpha={a!r}")
    return laguerre_assoc(params, xarr**a / a)


def conf_laguerre_rodrigues_oracle(
    params: LaguerreParams, alpha: float, x: float
) -> float:
    """Independent Rodrigues-formula route for the conformable Laguerre family.

    Applies the order-alpha derivative s times to x^((s+m) alpha) e^(-x^alpha/alpha)
    and restores the prefactor x^(-m alpha) e^(x^alpha/alpha) / (alpha^s s!).
    Each derivative is taken exactly via the power and product rules: the
    family sum_j c_j x^(p_j) e^(-x^alpha/alpha) is closed under the operator,
    with D[c x^p e^(-x^alpha/alpha)] = c p x^(p-alpha) e - c x^p e.
    """
    a = alpha_value(alpha)
    s, m = params.degree, params.order
    _supported("Rodrigues oracle", s, _RODRIGUES_MAX_DEGREE)
    where = lambda: f"{params!r} at alpha={a!r}"  # noqa: E731
    # the sum runs in the Python float checked here, whatever type x has (not in float32 for a float32 x)
    t = float(_checked(_single(x, "x"), "x", _positive, "Rodrigues oracle requires x > 0 (NaN is refused)", where))
    terms = {(s + m) * a: 1.0}
    for _ in range(s):
        nxt: dict = {}
        for p, c in terms.items():
            nxt[p - a] = nxt.get(p - a, 0.0) + c * p
            nxt[p] = nxt.get(p, 0.0) - c
        terms = nxt
    # the e^(-x^alpha/alpha) factor cancels against the prefactor
    try:
        total = sum(c * t ** (p - m * a) for p, c in sorted(terms.items()))
        value = total / (a**s * math.factorial(s))
        finite = math.isfinite(value)
    except (OverflowError, ZeroDivisionError) as exc:
        value, finite = exc, False
    if not finite:
        raise DomainError(f"Rodrigues oracle at x={_shown(x)} for {where()} is not a finite double: {value}")
    return value


def legendre_assoc(params: LegendreParams, z):
    """Associated Legendre P_l^m(z), Condon-Shortley phase, upward recurrence;
    a degree past 10^5 raises ``UnsupportedDegreeError`` before any step."""
    return _legendre(params, z, 0)


def legendre_assoc_dz(params: LegendreParams, z):
    """d/dz P_l^m(z) away from |z| = 1, via (z^2-1) P' = l z P - (l+m) P_{l-1}."""
    return _legendre(params, z, 1)


def legendre_assoc_dz2(params: LegendreParams, z):
    """Second z-derivative of P_l^m, from differentiating the lowering relation."""
    return _legendre(params, z, 2)


def _legendre(params: LegendreParams, z, order: int):
    """P_l^m(z) (order 0), dP/dz (1) or d^2P/dz^2 (2) from one upward pass.

    The pass runs at |m| and keeps the last degrees that the lowering
    relation needs.  A negative order scales the result once by
    (-1)^|m| (l-|m|)!/(l+|m|)!, so P and its derivatives share the factor.
    """
    ell, m = params.degree, abs(params.order)
    # |P_l^m| <= sqrt((l+m)!/(l-m)!), and 1e250 leaves room for the
    # l^2/(z^2-1)^2 of d2P; a negative order's factor (l-m)!/(l+m)! must be
    # a normal double, or P_l^-m would underflow to a silent 0; a degree past
    # the doubles makes the log quotient inf - inf = NaN, which is refused too
    limit = -math.log(sys.float_info.min) if params.order < 0 else _LEGENDRE_LOG_MAX
    if not math.lgamma(_float(ell + m + 1)) - math.lgamma(_float(ell - m + 1)) <= limit:
        raise DomainError(
            f"associated Legendre ({_shown(ell, str)}, {_shown(params.order, str)}) is refused: it needs "
            "sqrt((l+|m|)!/(l-|m|)!) <= 1e250 if m >= 0, and (l-|m|)!/(l+|m|)! "
            "no smaller than the least normal double if m < 0"
        )
    scalar = np.ndim(z) == 0
    z = _checked(z, "z", lambda v: np.abs(v) <= 1.0 + 1e-14,
                 "associated Legendre requires |z| <= 1 (NaN is refused)", params.__repr__)
    if order:
        _checked(z, "z", lambda v: np.abs(v * v - 1.0) >= 1e-12,
                 "Legendre derivative requires |z| < 1 with margin", params.__repr__)
    _supported("associated Legendre", ell, _MAX_DEGREE)
    # a scalar runs through the same array loops as an array, so both agree
    # bit for bit (numpy's scalar ** calls libm pow, its array ** does not)
    z = np.clip(np.atleast_1d(z), -1.0, 1.0)
    # P_m^m = (-1)^m (2m-1)!! (1-z^2)^(m/2), and P_(m-1)^m = 0
    seed = (-1.0) ** m * math.prod(range(2 * m - 1, 0, -2), start=1.0)
    p = [0.0] * (1 + (order == 2))
    p.append(seed * (1.0 - z * z) ** (m / 2.0) if m else np.full_like(z, seed))
    for k in range(m + 1, ell + 1):
        # ((2k-1) z P_(k-1) - (k-1+m) P_(k-2)) / (k-m) with the operations in
        # the expression's order, so with its bits, but two new arrays, not five
        nxt = (2 * k - 1) * z
        nxt *= p[-1]
        nxt -= (k - 1 + m) * p[-2]
        nxt /= k - m
        p = [*p[1:], nxt]
    out = p[-1]
    if order:
        denom = z * z - 1.0
        out = (ell * z * p[-1] - (ell + m) * p[-2]) / denom
    if order == 2:
        dlow = ((ell - 1) * z * p[-2] - (ell - 1 + m) * p[-3]) / denom
        out = (ell * p[-1] + ell * z * out - (ell + m) * dlow - 2.0 * z * out) / denom
    if params.order < 0:
        # one correctly rounded quotient of ints, which never overflows
        out = (-1) ** m / math.prod(range(ell - m + 1, ell + m + 1)) * out
    return float(out[0]) if scalar else out


def conf_legendre(params: LegendreParams, alpha: float, theta):
    """Conformable associated Legendre factor P_l^m(cos(theta^alpha)).

    All alpha-dependent prefactors of the angular solution live in the
    spherical-harmonic normalization, not here.
    """
    a = alpha_value(alpha)
    where = lambda: f"{params!r} at alpha={a!r}"  # noqa: E731
    th = _checked(theta, "theta", _positive,
                  "conformable Legendre requires theta > 0 (NaN is refused)", where)
    return _conf_legendre(params, a, th, where)


def _conf_legendre(params: LegendreParams, a: float, theta, state, whole=None):
    """P_l^m(cos(theta^a)) on positive theta, refusing theta^a past pi; theta
    may be one block of ``whole`` (see ``calculus._angle_power``)."""
    return legendre_assoc(params, np.cos(_angle_power(theta, a, "theta", "theta", state, whole)))


def laguerre_orthogonality_constant(params: LaguerreParams, alpha: float) -> float:
    """Closed form alpha^(m+1) (m+s)!/s! (2s+m+1) of the diagonal weighted integral."""
    a = alpha_value(alpha)
    s, m = params.degree, params.order
    try:
        value = a ** (m + 1) * _factorial(m + s) / _factorial(s) * (2 * s + m + 1)
    except OverflowError:  # (m + s)! is past the doubles
        value = math.inf
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(
            f"orthogonality constant of {params!r} at alpha={a!r} is not a finite positive double ({value!r})"
        )
    return value
