"""Associated Laguerre and Legendre functions, classical and conformable.

The conformable families are the classical functions evaluated at the
substituted argument (x^alpha / alpha for Laguerre, cos(theta^alpha) for
Legendre).  The substitution route is certified against an independent
Rodrigues-formula oracle for the Laguerre family.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import AlphaLike, alpha_value
from .errors import DomainError, UnsupportedDegreeError

_RODRIGUES_MAX_DEGREE = 4


@dataclass(frozen=True)
class LaguerreParams:
    degree: int  # s
    order: int  # m

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"degree must be nonnegative, got {self.degree}")
        if self.order < 0:
            raise ValueError(f"order must be nonnegative, got {self.order}")


@dataclass(frozen=True)
class LegendreParams:
    degree: int  # ell
    order: int  # m, may be negative

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"degree must be nonnegative, got {self.degree}")
        if abs(self.order) > self.degree:
            raise ValueError(
                f"|order| must not exceed degree, got ({self.degree}, {self.order})"
            )


def laguerre_assoc(params: LaguerreParams, u):
    """Generalized Laguerre L_s^m(u) by the three-term recurrence in the degree.

    Each step computes ((2k+1+m - u) L_k - (k+m) L_{k-1}) / (k+1) with the
    operations of that expression in the same order, so with the same bits,
    but makes one new array, 2k+1+m - u, and does the rest in place in it
    and in L_{k-1}, which is no longer needed.  ``u`` is never written.
    """
    s, m = params.degree, params.order
    u = np.asarray(u, dtype=float)
    prev = np.ones_like(u)
    if s == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 + m - u
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
        u = np.asarray(u, dtype=float)
        z = np.zeros_like(u)
        return z if z.ndim else 0.0
    out = -np.asarray(laguerre_assoc(LaguerreParams(s - 1, m + 1), u), dtype=float)
    return out if out.ndim else float(out)


def laguerre_assoc_du2(params: LaguerreParams, u):
    """d^2/du^2 L_s^m(u) = L_{s-2}^{m+2}(u)."""
    s, m = params.degree, params.order
    if s < 2:
        u = np.asarray(u, dtype=float)
        z = np.zeros_like(u)
        return z if z.ndim else 0.0
    return laguerre_assoc(LaguerreParams(s - 2, m + 2), u)


def conf_laguerre(params: LaguerreParams, alpha: AlphaLike, x):
    """Conformable associated Laguerre function: L_s^m evaluated at x^alpha/alpha."""
    a = alpha_value(alpha)
    xarr = np.asarray(x, dtype=float)
    if not np.all(xarr > 0):
        raise DomainError("conformable Laguerre requires x > 0 (NaN is refused)")
    return laguerre_assoc(params, xarr**a / a)


def conf_laguerre_rodrigues_oracle(
    params: LaguerreParams, alpha: AlphaLike, x: float
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
    if s > _RODRIGUES_MAX_DEGREE:
        raise UnsupportedDegreeError(
            f"Rodrigues oracle supports degree <= {_RODRIGUES_MAX_DEGREE}, got {s}"
        )
    if not x > 0:
        raise DomainError("Rodrigues oracle requires x > 0 (NaN is refused)")
    terms = {(s + m) * a: 1.0}
    for _ in range(s):
        nxt: dict = {}
        for p, c in terms.items():
            nxt[p - a] = nxt.get(p - a, 0.0) + c * p
            nxt[p] = nxt.get(p, 0.0) - c
        terms = nxt
    # the e^(-x^alpha/alpha) factor cancels against the prefactor
    total = sum(c * x ** (p - m * a) for p, c in sorted(terms.items()))
    return total / (a**s * math.factorial(s))


def legendre_assoc(params: LegendreParams, z):
    """Associated Legendre P_l^m(z), Condon-Shortley phase, upward recurrence."""
    ell, m = params.degree, params.order
    # a scalar runs through the same array loops as an array, so both agree
    # bit for bit (numpy's scalar ** calls libm pow, its array ** does not)
    zarr = np.atleast_1d(np.asarray(z, dtype=float))
    if not np.all(np.abs(zarr) <= 1.0 + 1e-14):
        raise DomainError("associated Legendre requires |z| <= 1 (NaN is refused)")
    zarr = np.clip(zarr, -1.0, 1.0)
    out = _legendre_upward(ell, abs(m), zarr)
    if m < 0:
        mm = -m
        out = (-1.0) ** mm * math.factorial(ell - mm) / math.factorial(ell + mm) * out
    return out if np.ndim(z) else float(out[0])


def _legendre_upward(ell: int, m: int, z: np.ndarray) -> np.ndarray:
    """P_l^m(z) for m >= 0 on an array: P_m^m, then upward in degree."""
    # P_m^m = (-1)^m (2m-1)!! (1-z^2)^(m/2)
    pmm = np.full_like(z, (-1.0) ** m * _double_factorial(2 * m - 1))
    if m > 0:
        pmm = pmm * (1.0 - z * z) ** (m / 2.0)
    if ell == m:
        return pmm
    pm1 = z * (2 * m + 1) * pmm
    for k in range(m + 2, ell + 1):
        pmm, pm1 = pm1, ((2 * k - 1) * z * pm1 - (k - 1 + m) * pmm) / (k - m)
    return pm1


def legendre_assoc_dz(params: LegendreParams, z):
    """d/dz P_l^m(z) away from |z| = 1, via (z^2-1) P' = l z P - (l+m) P_{l-1}."""
    ell, m = params.degree, params.order
    zarr = np.asarray(z, dtype=float)
    denom = zarr * zarr - 1.0
    if np.any(np.abs(denom) < 1e-12):
        raise DomainError("Legendre derivative requires |z| < 1 with margin")
    p = np.asarray(legendre_assoc(params, zarr), dtype=float)
    if ell == 0:
        out = np.zeros_like(zarr)
        return out if out.ndim else 0.0
    if abs(m) > ell - 1:
        plow = np.zeros_like(zarr)
    else:
        plow = np.asarray(legendre_assoc(LegendreParams(ell - 1, m), zarr), dtype=float)
    out = (ell * zarr * p - (ell + m) * plow) / denom
    return out if out.ndim else float(out)


def legendre_assoc_dz2(params: LegendreParams, z):
    """Second z-derivative of P_l^m, from differentiating the lowering relation."""
    ell, m = params.degree, params.order
    zarr = np.asarray(z, dtype=float)
    # first, as legendre_assoc_dz checks |z^2 - 1| for the division below
    dp = np.asarray(legendre_assoc_dz(params, zarr), dtype=float)
    p = np.asarray(legendre_assoc(params, zarr), dtype=float)
    if abs(m) > ell - 1 or ell == 0:
        dplow = np.zeros_like(zarr)
    else:
        dplow = np.asarray(
            legendre_assoc_dz(LegendreParams(ell - 1, m), zarr), dtype=float
        )
    out = (ell * p + ell * zarr * dp - (ell + m) * dplow - 2.0 * zarr * dp) / (zarr * zarr - 1.0)
    return out if out.ndim else float(out)


def _double_factorial(n: int) -> float:
    if n <= 0:
        return 1.0
    out = 1.0
    while n > 0:
        out *= n
        n -= 2
    return out


def conf_legendre(params: LegendreParams, alpha: AlphaLike, theta):
    """Conformable associated Legendre factor P_l^m(cos(theta^alpha)).

    All alpha-dependent prefactors of the angular solution live in the
    spherical-harmonic normalization, not here.
    """
    a = alpha_value(alpha)
    th = np.asarray(theta, dtype=float)
    if not np.all(th > 0):
        raise DomainError("conformable Legendre requires theta > 0 (NaN is refused)")
    x = th**a
    if np.any(x > math.pi + 1e-12):
        raise DomainError("theta^alpha must lie in [0, pi]")
    return legendre_assoc(params, np.cos(x))


def laguerre_orthogonality_constant(params: LaguerreParams, alpha: AlphaLike) -> float:
    """Closed form alpha^(m+1) (m+s)!/s! (2s+m+1) of the diagonal weighted integral."""
    a = alpha_value(alpha)
    s, m = params.degree, params.order
    return (
        a ** (m + 1)
        * math.factorial(m + s)
        / math.factorial(s)
        * (2 * s + m + 1)
    )
