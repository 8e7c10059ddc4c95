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


# The input rules of the package, each written once.  A refusal names the
# rule, the parameter, the index and value of its first element that breaks
# the rule, and the state, which a callable formats only then.
_T_RULE = "conformable derivative requires t > 0 (NaN is refused)"
_ANGLES = {"theta": (math.pi, "[0, pi]"), "phi": (2.0 * math.pi, "[0, 2 pi]")}
_positive = functools.partial(np.less, 0.0)  # 0 < v, False at NaN
_nonnegative = functools.partial(np.less_equal, 0.0)


def _require_integer(name: str, v) -> None:
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {v!r}")


def _real(value, ok, refusal) -> float:
    """``value`` as a Python float where ``ok`` holds for it, else ``refusal(value)``.

    ``ok`` is False at NaN, which stands in for a bool (refused as the
    quantum numbers refuse one) and for a number past the doubles, so each
    is refused as an out-of-range value is."""
    try:
        v = math.nan if isinstance(value, (bool, np.bool_)) else float(value)
    except OverflowError:  # an int too large to convert to float
        v = math.nan
    if not ok(v):
        raise refusal(value)
    return v


def _refusal(message: str, name: str, values, ok, state=None) -> DomainError:
    i = np.unravel_index(np.argmin(ok), np.shape(ok))  # the first False of ok
    text = f"{message}: {name}{list(map(int, i)) if i else ''} = {float(values[i])!r}"
    return DomainError(f"{text} for {state()}" if state else text)


def _checked(values, name: str, rule, message: str, state=None) -> np.ndarray:
    """``values`` as a float array (not copied if it is one), or the refusal of ``rule``."""
    arr = np.asarray(values, dtype=float)
    ok = rule(arr)
    if not ok.all():
        raise _refusal(message, name, arr, ok, state)
    return arr


def _checked_point(value, name: str, message: str) -> None:
    """Refuse ``value`` unless it is a single positive number: an array, even
    of one element, is refused by its shape before any function sees it."""
    if np.ndim(value):
        raise ValueError(f"{name} must be a single value, got an array of shape {np.shape(value)}")
    _checked(value, name, _positive, message)


def _checked_grid(values, name: str, message: str, state=None) -> np.ndarray:
    """``_checked`` positive, after the grid's shape: nonempty and 1-d."""
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"grid must be a nonempty 1-d array: {name} has shape {grid.shape}")
    return _checked(grid, name, _positive, message, state)


def _angle_power(values, a: float, angle: str, name: str, state, whole=None):
    """values**a, refused past pi (``angle`` theta) or 2 pi (phi) by over 1e-12.
    For a block of ``whole``, it names the first element of whole that fails,
    which is in this block: whole's order meets its elements block by block."""
    top, bounds = _ANGLES[angle]
    x = values**a
    ok = x <= top + 1e-12
    if not ok.all():
        if whole is not None:
            values, ok = whole, whole**a <= top + 1e-12
        raise _refusal(f"{angle}^alpha must lie in {bounds}", name, values, ok, state)
    return x


def _conformable_first(t, a: float, df):
    """D^a f = t^(1-a) f' for differentiable f (libm's pow for floats, numpy's for arrays)."""
    return t ** (1.0 - a) * df


def _conformable_second(t, a: float, df, d2f):
    """D^a D^a f = (1-a) t^(1-2a) f' + t^(2-2a) f'' for twice differentiable f."""
    return (1.0 - a) * t ** (1.0 - 2.0 * a) * df + t ** (2.0 - 2.0 * a) * d2f


def _classical(t, a: float, f, d1, d2):
    """(f, f', f'') from (f, D^a f, D^a D^a f): the inverse of the two above.
    Near t = 0, t^(a-2) can overflow: f' or f'' is then inf or NaN, unwarned."""
    with np.errstate(over="ignore", invalid="ignore"):
        return f, t ** (a - 1.0) * d1, t ** (2.0 * a - 2.0) * d2 + (a - 1.0) * t ** (a - 2.0) * d1


@dataclass(frozen=True)
class Alpha:
    """Order of the conformable operators, restricted to (0, 1]."""

    value: float

    def __post_init__(self):
        v = _real(self.value, lambda v: 0.0 < v <= 1.0,
                  lambda value: DomainError(f"alpha must lie in (0, 1], got {value!r}"))
        object.__setattr__(self, "value", v)


AlphaLike = Union[Alpha, float]


def alpha_value(alpha: AlphaLike) -> float:
    """Coerce an Alpha or bare float to a validated float order."""
    if isinstance(alpha, Alpha):
        return alpha.value
    return Alpha(alpha).value


@dataclass(frozen=True)
class Differentiable:
    """A real function with optional analytic first/second derivatives."""

    f: Callable[[float], float]
    df: Optional[Callable[[float], float]] = None
    d2f: Optional[Callable[[float], float]] = None

    def __call__(self, t: float) -> float:
        return self.f(t)


FuncLike = Union[Differentiable, Callable[[float], float]]


def _eval(f: Callable[[float], float], t: float) -> float:
    try:
        y = float(f(t))
    except Exception as exc:
        raise EvaluationError(f"function not evaluable at t={t!r}") from exc
    if not math.isfinite(y):
        raise EvaluationError(f"function returned non-finite value at t={t!r}")
    return y


def _first_derivative(f: FuncLike, t: float) -> float:
    if isinstance(f, Differentiable) and f.df is not None:
        return _eval(f.df, t)
    h = t * _H1_FACTOR
    return (_eval(f, t + h) - _eval(f, t - h)) / (2.0 * h)


def _second_derivative(f: FuncLike, t: float) -> float:
    if isinstance(f, Differentiable) and f.d2f is not None:
        return _eval(f.d2f, t)
    h = t * _H2_FACTOR
    return (_eval(f, t + h) - 2.0 * _eval(f, t) + _eval(f, t - h)) / (h * h)


def conf_derivative(f: FuncLike, alpha: AlphaLike, t: float) -> float:
    """Conformable derivative t^(1-alpha) * f'(t) at t > 0."""
    a = alpha_value(alpha)
    _checked_point(t, "t", _T_RULE)
    return _conformable_first(t, a, _first_derivative(f, t))


def conf_derivative_limit(
    f: FuncLike, alpha: AlphaLike, t: float, epsilon: float
) -> float:
    """Raw difference quotient of the limit definition; oracle for conf_derivative."""
    a = alpha_value(alpha)
    _checked_point(t, "t", _T_RULE)
    _checked_point(epsilon, "epsilon", "epsilon must be positive")
    shifted = t + epsilon * t ** (1.0 - a)
    return (_eval(f, shifted) - _eval(f, t)) / epsilon


def conf_second_derivative(f: FuncLike, alpha: AlphaLike, t: float) -> float:
    """Twice-iterated conformable derivative; the classical f'' at alpha = 1."""
    a = alpha_value(alpha)
    _checked_point(t, "t", _T_RULE)
    return _conformable_second(t, a, _first_derivative(f, t), _second_derivative(f, t))


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
    _checked(a, "a", _nonnegative, "lower limit must be nonnegative")
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
