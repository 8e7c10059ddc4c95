"""Conformable derivative and integral operators.

The conformable derivative of order ``alpha`` acts on f at t > 0 as
t^(1-alpha) * f'(t); the matching integral uses the measure
d^alpha x = x^(alpha-1) dx.  Both reduce to the classical operators at
alpha = 1.
"""
from __future__ import annotations

import functools
import math
import sys
from typing import Callable

import numpy as np
# No code of the package uses scipy since the Gauss rules ship as data.  The
# traced benchmark reads import.scipy.special_s out of `import confhydro`, so
# this import and the runtime dependency on scipy go with ROADMAP items 1 and 2.
import scipy.special  # noqa: F401

from .errors import ConvergenceError, DomainError, EvaluationError

__all__ = [
    "conf_derivative", "conf_derivative_limit", "conf_integral", "conf_second_derivative",
]

_EPS = float(np.finfo(float).eps)
# for the central difference of order k: the step h = factor * t, which
# balances truncation and round-off relative to t (a step floored at 1 is
# not small against t near 0 and reaches past it), and the tolerance to
# which the quotients at h and h/2 must agree, relative to the one at h or,
# where it is larger, to a floor set by the lower derivatives: |f(t)| / t
# for f', max(|f(t)| / t, |f'(t)|) / t for f''; |f(t)| counts as at least
# the least normal double, as the subnormals resolve f only in absolute steps
_DIFFERENCES = {1: (_EPS ** (1.0 / 3.0), 1e-5), 2: (_EPS**0.25, 1e-3)}
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


def _require_integer(name: str, v) -> int:
    """``v`` as a Python int, which never wraps, as n + l of a numpy int8 would."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return int(v)


def _shown(value, form=repr) -> str:
    """``form(value)``, or for an int past Python's limit on the digits of an
    int's string (4,300 by default) its digit count: a refusal that quotes a
    number can always be formed, and quotes every other number as before."""
    try:
        return form(value)
    except ValueError:
        v = abs(value)
        digits = int(math.log10(v)) + 1  # exact but for rounding at a power of 10
        digits += (v >= 10**digits) - (v < 10 ** (digits - 1))
        return f"{'-' if value < 0 else ''}<int of {digits} digits>"


def _float(value):
    """``value``, but an int as the double it rounds to: +-inf past the doubles,
    where ``float`` raises ``OverflowError``.  Arithmetic with an int converts
    it so, which keeps every bit."""
    if not isinstance(value, int):
        return value
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _floats(values, name: str) -> np.ndarray:
    """``values`` as a float array (not copied if it is one), with ints past the
    doubles read as ``_float`` reads them.  A complex dtype, or a complex
    element of an object array, is refused: numpy would drop its imaginary part."""
    arr = np.asarray(values)
    if arr.dtype.kind == "c" or arr.dtype.kind == "O" and any(map(np.iscomplexobj, arr.flat)):
        raise ValueError(f"{name} must be real, not complex (dtype {arr.dtype})")
    try:
        return np.asarray(arr, dtype=float)
    except OverflowError:
        return np.vectorize(_float, otypes=[float])(np.asarray(arr, dtype=object))


def _single(value, name: str):
    """``value``, refused by its shape if it is an array, even of one element,
    and by its type if it is complex, which ``float`` would read as its real
    part (a numpy complex) or refuse with a bare ``TypeError`` (Python's)."""
    arr = np.asarray(value)
    if arr.ndim:
        raise ValueError(f"{name} must be a single value, got an array of shape {arr.shape}")
    if arr.dtype.kind == "c":
        raise ValueError(f"{name} must be real, not complex (got {value!r})")
    return value


def _real(value, name: str, ok, refusal) -> float:
    """``value``, a single number, as a Python float where ``ok`` holds for it,
    else ``refusal(value)``.

    ``ok`` is False at NaN, which stands in for a bool (refused as the
    quantum numbers refuse one), and at the +-inf of an int past the doubles,
    so each is refused as an out-of-range value is."""
    v = math.nan if isinstance(_single(value, name), (bool, np.bool_)) else float(_float(value))
    if not ok(v):
        raise refusal(value)
    return v


def _refusal(message: str, name: str, values, ok, state=None) -> DomainError:
    i = np.unravel_index(np.argmin(ok), np.shape(ok))  # the first False of ok
    text = f"{message}: {name}{list(map(int, i)) if i else ''} = {float(values[i])!r}"
    return DomainError(f"{text} for {state()}" if state else text)


def _checked(values, name: str, rule, message: str, state=None) -> np.ndarray:
    """``values`` as a float array (not copied if it is one), or the refusal of ``rule``."""
    arr = _floats(values, name)
    ok = rule(arr)
    if not ok.all():
        raise _refusal(message, name, arr, ok, state)
    return arr


def _checked_point(value, name: str, message: str) -> float:
    """``value`` as a Python float, refused unless it is a single positive number:
    an array, even of one element, is refused by its shape before any function
    sees it, and a float32 or a 0-d array is read as the double it holds."""
    return float(_checked(_single(value, name), name, _positive, message))


def _checked_grid(values, name: str, message: str, state=None) -> np.ndarray:
    """``_checked`` positive, after the grid's shape: nonempty and 1-d."""
    grid = _floats(values, name)
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


def alpha_value(alpha: float) -> float:
    """The order of the conformable operators as a Python float in (0, 1]."""
    return _real(alpha, "alpha", lambda v: 0.0 < v <= 1.0,
                 lambda value: DomainError(f"alpha must lie in (0, 1], got {_shown(value)}"))


def _eval(f: Callable[[float], float], t: float) -> float:
    try:
        y = float(f(t))
    except Exception as exc:
        raise EvaluationError(f"function not evaluable at t={t!r}") from exc
    if not math.isfinite(y):
        raise EvaluationError(f"function returned non-finite value at t={t!r}")
    return y


def _difference(f: Callable[[float], float], t: float, ft: float, k: int, a: float, floor: float) -> float:
    """f' (k = 1) or f'' (k = 2) at t, with f(t) = ft: the central quotient at
    the step h of ``_DIFFERENCES``, once the one at h/2 agrees with it."""
    factor, rtol = _DIFFERENCES[k]
    h = t * factor
    # an f'' quotient divides by the square of h and of h/2
    squares = k == 1 or 0.0 < (0.5 * h) * (0.5 * h) and h * h < math.inf
    if not (t - 0.5 * h < t < t + h < math.inf and squares):
        raise DomainError(
            f"central differences of order {k} cannot resolve t={t!r} at alpha={a!r}: the steps h = {h!r} "
            "and h/2 must move t inside the doubles" + (", and their squares be nonzero and finite" if k == 2 else "")
        )

    def quotient(step: float) -> float:
        if k == 1:
            return (_eval(f, t + step) - _eval(f, t - step)) / (2.0 * step)
        return (_eval(f, t + step) - 2.0 * ft + _eval(f, t - step)) / (step * step)

    coarse, fine = _finite(quotient(h), f"derivative of order {k}", t, a), quotient(0.5 * h)
    if not abs(coarse - fine) <= rtol * max(abs(coarse), floor):
        raise EvaluationError(
            f"central differences of order {k} at t={t!r}, alpha={a!r} disagree: "
            f"{coarse!r} at h = {h!r} vs {fine!r} at h/2 (rtol={rtol:g})"
        )
    return coarse


def _finite(value: float, what: str, t: float, a: float) -> float:
    if not math.isfinite(value):
        raise DomainError(f"{what} at t={t!r}, alpha={a!r} leaves the doubles ({value!r})")
    return value


def _operator(f: Callable[[float], float], alpha: float, t: float, order: int) -> float:
    """D^alpha f (order 1) or D^alpha D^alpha f (order 2) at t through the
    identities of ``_conformable_first`` and ``_conformable_second``."""
    a = alpha_value(alpha)
    t = _checked_point(t, "t", _T_RULE)
    ft = _eval(f, t)  # before any step, so t = inf meets f first
    floor, derivatives = max(abs(ft), sys.float_info.min) / t, []
    for k in range(1, order + 1):
        derivatives.append(_difference(f, t, ft, k, a, floor))
        floor = max(floor, abs(derivatives[-1])) / t
    identity = _conformable_first if order == 1 else _conformable_second
    try:
        value = identity(t, a, *derivatives)
    except OverflowError:  # a power of t past the doubles, from Python's float pow
        value = math.inf
    return _finite(value, "conformable derivative", t, a)


def conf_derivative(f: Callable[[float], float], alpha: float, t: float) -> float:
    """Conformable derivative t^(1-alpha) * f'(t) at t > 0.

    f' is the central difference at the step h = t * eps^(1/3), accepted
    where the one at h/2 agrees with it to a relative 1e-5, or to 1e-5 of
    |f(t)| / t where that is larger (``_DIFFERENCES``): otherwise an
    ``EvaluationError`` quotes both.  A t at which h/2 cannot move t, or
    t + h leaves the doubles, and a value that leaves them, raise
    ``DomainError``.
    """
    return _operator(f, alpha, t, 1)


def conf_derivative_limit(
    f: Callable[[float], float], alpha: float, t: float, epsilon: float
) -> float:
    """Raw difference quotient of the limit definition; oracle for conf_derivative.

    Nothing checks the step: where t + epsilon * t^(1-alpha) rounds to t the
    quotient is 0.0 whatever f is, as conf_derivative_limit(lambda t: t, 0.1,
    1e300, 1e10) is, where D^alpha t = 1e270.  A quotient past the doubles
    raises ``DomainError``.
    """
    a = alpha_value(alpha)
    t = _checked_point(t, "t", _T_RULE)
    epsilon = _checked_point(epsilon, "epsilon", "epsilon must be positive")
    shifted = t + epsilon * t ** (1.0 - a)
    return _finite((_eval(f, shifted) - _eval(f, t)) / epsilon, "limit quotient", t, a)


def conf_second_derivative(f: Callable[[float], float], alpha: float, t: float) -> float:
    """Twice-iterated conformable derivative; the classical f'' at alpha = 1.

    f' is formed as in ``conf_derivative``, and f'' by the central second
    difference at h = t * eps^(1/4), whose quotient at h/2 must agree to a
    relative 1e-3, or to 1e-3 of max(|f(t)| / t, |f'(t)|) / t where that is
    larger; the refusals are theirs.
    """
    return _operator(f, alpha, t, 2)


# The Gauss rules ship as the bytes of the doubles scipy.special.roots_*
# returns, so no process solves an eigenproblem (or imports scipy.linalg) to
# integrate.  The table is decoded on the first lookup, not at import, into
# arrays over immutable bytes, which are read-only: no caller can corrupt a
# later integral.
@functools.cache
def _rule_table():
    from ._gauss_rules import RULES

    return {
        kind: {n: tuple(np.frombuffer(bytes.fromhex(arr), "<f8") for arr in rule) for n, rule in rules.items()}
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
    alpha: float,
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
    (a, b) and raises DomainError before f is called.  A value of f that is
    complex or not finite, or an array of f that is neither 0-d nor of its
    nodes' shape, raises EvaluationError.  The estimate is accepted only if
    128 and 256 nodes agree to a relative 1e-9; otherwise a ConvergenceError
    carrying both estimates is raised.  The four rules ship with the package
    as tables equal to scipy.special.roots_* bit for bit; they are decoded
    once per process, on the first call, and no eigenproblem is solved at
    run time.
    """
    av = alpha_value(alpha)
    lo = float(_checked(_single(a, "a"), "a", _nonnegative, "lower limit must be nonnegative"))
    # the limits as given: two ints past the doubles are both inf as floats
    if not _single(b, "b") > a:
        raise DomainError(f"upper limit must exceed lower limit, got ({_shown(a)}, {_shown(b)})")
    hi = float(_float(b))
    laguerre = math.isinf(hi)
    ua = lo**av / av
    if laguerre:
        mid, half = ua, 1.0
    else:
        ub = hi**av / av
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
            f"the axis u = x^alpha / alpha cannot resolve ({_shown(a)}, {_shown(b)}) at alpha={av!r}: "
            f"its nodes sit at {mid!r} + {half!r} * t"
        )
    estimates = []
    for x, w in rules:
        vals = np.asarray(f(x))
        if vals.dtype.kind == "c" or vals.shape not in ((), x.shape):
            raise EvaluationError(f"integrand must return real values of shape () or {x.shape}, "
                                  f"got {vals.dtype} of shape {vals.shape}")
        vals = vals.astype(float, copy=False)
        if not np.isfinite(vals).all():
            bad = x[~np.isfinite(np.broadcast_to(vals, x.shape))]
            raise EvaluationError(f"integrand returned non-finite value at x={float(bad[0])!r}")
        # fixed summation order for bit-reproducibility
        estimates.append(half * float(np.sum(w * vals)))
    coarse, fine = estimates
    if abs(fine - coarse) > _RTOL * max(1.0, abs(fine)):
        raise ConvergenceError(coarse, fine, _RTOL)
    return fine
