"""Conformable derivative and integral operators.

The conformable derivative of order ``alpha`` acts on f at t > 0 as
t^(1-alpha) * f'(t); the matching integral uses the measure
d^alpha x = x^(alpha-1) dx.  Both reduce to the classical operators at
alpha = 1.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
# No code of the package uses scipy since the Gauss rules ship as data.  The
# traced benchmark reads import.scipy.special_s out of `import confhydro`, so
# this import and the runtime dependency on scipy go with ROADMAP items 1 and 2.
import scipy.special  # noqa: F401

from .errors import ConvergenceError, DomainError, EvaluationError

_EPS = float(np.finfo(float).eps)
# truncation/round-off balance for central differences, relative to t: a
# step floored at 1 is not small against t near 0 and reaches past it
_H1_FACTOR = _EPS ** (1.0 / 3.0)
_H2_FACTOR = _EPS ** 0.25
# conf_integral compares this many nodes against twice as many
_NODE_COUNT = 128
_RTOL = 1e-9


@dataclass(frozen=True)
class Alpha:
    """Order of the conformable operators, restricted to (0, 1]."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not (0.0 < v <= 1.0):
            raise DomainError(f"alpha must lie in (0, 1], got {self.value!r}")
        object.__setattr__(self, "value", v)


AlphaLike = Union[Alpha, float]


def alpha_value(alpha: AlphaLike) -> float:
    """Coerce an Alpha or bare float to a validated float order."""
    if isinstance(alpha, Alpha):
        return alpha.value
    return Alpha(float(alpha)).value


@dataclass(frozen=True)
class Differentiable:
    """A real function with optional analytic first/second derivatives."""

    f: Callable[[float], float]
    df: Optional[Callable[[float], float]] = None
    d2f: Optional[Callable[[float], float]] = None

    def __call__(self, t: float) -> float:
        return self.f(t)


FuncLike = Union[Differentiable, Callable[[float], float]]


def _as_differentiable(f: FuncLike) -> Differentiable:
    if isinstance(f, Differentiable):
        return f
    return Differentiable(f)


def _eval(f: Callable[[float], float], t: float) -> float:
    try:
        y = float(f(t))
    except Exception as exc:
        raise EvaluationError(f"function not evaluable at t={t!r}") from exc
    if not math.isfinite(y):
        raise EvaluationError(f"function returned non-finite value at t={t!r}")
    return y


def _first_derivative(f: Differentiable, t: float) -> float:
    if f.df is not None:
        return _eval(f.df, t)
    h = t * _H1_FACTOR
    return (_eval(f.f, t + h) - _eval(f.f, t - h)) / (2.0 * h)


def _second_derivative(f: Differentiable, t: float) -> float:
    if f.d2f is not None:
        return _eval(f.d2f, t)
    h = t * _H2_FACTOR
    return (_eval(f.f, t + h) - 2.0 * _eval(f.f, t) + _eval(f.f, t - h)) / (h * h)


def conf_derivative(f: FuncLike, alpha: AlphaLike, t: float) -> float:
    """Conformable derivative t^(1-alpha) * f'(t) at t > 0."""
    a = alpha_value(alpha)
    if not t > 0:
        raise DomainError(f"conformable derivative requires t > 0, got t={t!r}")
    fd = _as_differentiable(f)
    return t ** (1.0 - a) * _first_derivative(fd, t)


def conf_derivative_limit(
    f: FuncLike, alpha: AlphaLike, t: float, epsilon: float
) -> float:
    """Raw difference quotient of the limit definition; oracle for conf_derivative."""
    a = alpha_value(alpha)
    if not t > 0:
        raise DomainError(f"conformable derivative requires t > 0, got t={t!r}")
    if not epsilon > 0:
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")
    fd = _as_differentiable(f)
    shifted = t + epsilon * t ** (1.0 - a)
    return (_eval(fd.f, shifted) - _eval(fd.f, t)) / epsilon


def conf_second_derivative(f: FuncLike, alpha: AlphaLike, t: float) -> float:
    """Twice-iterated conformable derivative.

    Expands to (1-alpha) t^(1-2 alpha) f'(t) + t^(2-2 alpha) f''(t); equals
    the classical second derivative at alpha = 1.
    """
    a = alpha_value(alpha)
    if not t > 0:
        raise DomainError(f"conformable derivative requires t > 0, got t={t!r}")
    fd = _as_differentiable(f)
    d1 = _first_derivative(fd, t)
    d2 = _second_derivative(fd, t)
    return (1.0 - a) * t ** (1.0 - 2.0 * a) * d1 + t ** (2.0 - 2.0 * a) * d2


def _read_only(rule):
    for arr in rule:
        arr.flags.writeable = False
    return rule


# The Gauss rules ship as float.hex tables equal to scipy.special.roots_*,
# so no process solves an eigenproblem (or imports scipy.linalg) to
# integrate.  The table is decoded on the first lookup, not at import, and
# its arrays are read-only, so no caller can corrupt a later integral.
@functools.cache
def _rule_table():
    from ._gauss_rules import RULES

    return {
        kind: {
            n: _read_only(tuple(np.array(list(map(float.fromhex, arr.split()))) for arr in rule))
            for n, rule in rules.items()
        }
        for kind, rules in RULES.items()
    }


def _rule(kind: str, n: int):
    rules = _rule_table()[kind]
    if n not in rules:
        sizes = ", ".join(map(str, rules))
        raise ValueError(f"no shipped Gauss-{kind.capitalize()} rule has {n!r} nodes (sizes: {sizes})")
    return rules[n]


def roots_laguerre(n: int):
    """Shipped Gauss-Laguerre nodes and weights for n = 128 or 256, read-only."""
    return _rule("laguerre", n)


def roots_legendre(n: int):
    """Shipped Gauss-Legendre nodes and weights for n = 128 or 256, read-only."""
    return _rule("legendre", n)


def conf_integral(
    f: Callable[[np.ndarray], np.ndarray],
    alpha: AlphaLike,
    a: float,
    b: float,
) -> float:
    """Integral of f against the measure x^(alpha-1) dx over (a, b).

    The substitution u = x^alpha / alpha removes the endpoint singularity at
    zero and maps the weight into du; the quadrature then runs on the u axis,
    Gauss-Laguerre for b = inf and Gauss-Legendre otherwise, with the nodes t
    of either rule placed at u = mid + half * t.  An axis on which mid and
    half are not finite, on which the spacing of the doubles at mid exceeds
    1e-9 * half, or whose smallest node maps to x = 0.0, cannot resolve
    (a, b) and raises DomainError before f is called.  The
    estimate is accepted only if 128 and 256 nodes agree to a relative 1e-9;
    otherwise a ConvergenceError carrying both estimates is raised.  The four
    rules ship with the package as tables equal to scipy.special.roots_* bit
    for bit; they are decoded once per process, on the first call, and no
    eigenproblem is solved at run time.
    """
    av = alpha_value(alpha)
    if not a >= 0:
        raise DomainError(f"lower limit must be nonnegative, got {a!r}")
    if not b > a:
        raise DomainError(f"upper limit must exceed lower limit, got ({a!r}, {b!r})")

    laguerre = math.isinf(b)
    ua = a**av / av
    if laguerre:
        mid, half = ua, 1.0
    else:
        ub = b**av / av
        mid, half = 0.5 * (ua + ub), 0.5 * (ub - ua)
    rules = []
    if math.isfinite(mid) and math.isfinite(half) and np.spacing(mid) <= _RTOL * half:
        for n in (_NODE_COUNT, 2 * _NODE_COUNT):
            if laguerre:
                t, w = roots_laguerre(n)
                # scaled weights w*exp(t) computed in log space; nodes whose weight
                # underflowed are dropped (their true contribution is below double
                # range for any integrand that decays on the substituted axis)
                keep = w > 0.0
                t = t[keep]
                w = np.exp(np.log(w[keep]) + t)
            else:
                t, w = roots_legendre(n)
            # an abscissa past the doubles reaches f as inf
            with np.errstate(over="ignore"):
                rules.append(((av * (mid + half * t)) ** (1.0 / av), w))
    # the abscissae ascend; one that underflows to 0.0 would hand f the endpoint
    if not rules or not all(x[0] > 0.0 for x, _ in rules):
        raise DomainError(
            f"the axis u = x^alpha / alpha cannot resolve ({a!r}, {b!r}) at alpha={av!r}: "
            f"its nodes sit at {mid!r} + {half!r} * t"
        )
    estimates = []
    for x, w in rules:
        vals = np.asarray(f(x), dtype=float)
        if not np.isfinite(vals).all():
            bad = x[~np.isfinite(np.broadcast_to(vals, x.shape))]
            raise EvaluationError(f"integrand returned non-finite value at x={float(bad[0])!r}")
        # fixed summation order for bit-reproducibility
        estimates.append(half * float(np.sum(w * vals)))
    coarse, fine = estimates
    if abs(fine - coarse) > _RTOL * max(1.0, abs(fine)):
        raise ConvergenceError(coarse, fine, _RTOL)
    return fine
