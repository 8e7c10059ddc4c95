"""mpmath oracle for the analytic triples of the package.

Each function below is a closed form evaluated in mpmath at ``DPS`` digits,
and ``triple`` differentiates it numerically with ``mp.diffs`` at that
precision, by finite differences with a step relative to t, for the
classical (f, f', f'') of the public ``*_with_derivatives``.
``conformable_triple`` turns those derivatives into (f, D^a f, D^a D^a f),
the triples of the certifiers, at the same precision.  Nothing here
shares a route with the package: not the product rule of
``hydrogen._power_exp_laguerre``, not the Laguerre three-term recurrence,
not the Legendre lowering relations.  The polynomials come from
exact rational coefficients: the explicit sum for L_s^m and Rodrigues'
formula for P_l^m, which differentiates far faster than ``mp.legenp``.

``TestOracleTriples`` in ``test_verification.py`` makes the comparisons:
``python -m pytest tests/test_verification.py -k TestOracleTriples``.
"""
from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp

DPS = 60
# the step of ``triple`` relative to t.  mp.diffs takes the k-th difference
# of f at t - 3h, t - h, t + h, t + 3h from the first k + 1 of them, centred
# at t - (3 - k) h, so its truncation error is first order, about STEP =
# 1e-20 relative (1.0e-20 in f' and 7.5e-21 in f'' of 1 - 2 sqrt(t) at t = 1).
# It evaluates at about 3 DPS digits, room for the second difference to
# cancel the 40 digits of h^2 and, near t = 0, the many more by which
# f'' h^2 falls short of f (50 more at t = 1e-100)
STEP = "1e-20"


def laguerre_coefficients(s: int, m: int) -> list:
    """L_s^m(y) = sum_k (-1)^k C(s + m, s - k) y^k / k!, lowest degree first."""
    return [
        Fraction((-1) ** k * math.comb(s + m, s - k), math.factorial(k))
        for k in range(s + 1)
    ]


def legendre_coefficients(l: int, m: int) -> list:
    """q with P_l^m(z) = (1 - z^2)^(m/2) q(z), for -l <= m <= l.

    Rodrigues' formula with the Condon-Shortley phase:
    P_l^m = (-1)^m / (2^l l!) (1 - z^2)^(m/2) d^(l+m)/dz^(l+m) (z^2 - 1)^l.
    """
    coeffs = [Fraction(0)] * (2 * l + 1)
    for j in range(l + 1):
        coeffs[2 * j] = Fraction((-1) ** (l - j) * math.comb(l, j))
    for _ in range(l + m):
        coeffs = [k * c for k, c in enumerate(coeffs)][1:]
    scale = Fraction(-1 if m % 2 else 1, 2**l * math.factorial(l))
    return [scale * c for c in coeffs]


def _polynomial(coeffs: list):
    """x -> sum_k coeffs[k] x^k in mpmath, by Horner's rule, with the exact
    coefficients rounded at the precision of each call."""
    exact = [(c.numerator, c.denominator) for c in reversed(coeffs)]

    def p(x):
        out = mp.mpf(0)
        for num, den in exact:
            out = out * x + mp.mpf(num) / den
        return out

    return p


def radial(n: int, l: int, alpha: float, r_b: float, dps: int = DPS):
    """R(r) = N a^l w^l e^(-w/2) L_{n-l-1}^{2l+1}(w), w = 2 r^a / (a^2 r_b n),
    with N formed at ``dps`` digits and R at the precision of each call."""
    with mp.workdps(dps):
        a, rb = mp.mpf(alpha), mp.mpf(r_b)
        N = mp.sqrt(
            (2 / (a * n * rb)) ** 3 * mp.factorial(n - l - 1)
            / (2 * n * a ** (2 * l + 2) * mp.factorial(n + l))
        )
        L = _polynomial(laguerre_coefficients(n - l - 1, 2 * l + 1))

    def R(r):
        w = 2 * r**a / (a * a * rb * n)
        return N * a**l * w**l * mp.exp(-w / 2) * L(w)

    return R


def scaled_u(n: int, l: int, alpha: float, r_b: float):
    """u(rho) = A a^(l+1) y^(l+1) e^(-y/2) L_{n-l-1}^{2l+1}(y), y = rho^a / a."""
    with mp.workdps(DPS):
        a = mp.mpf(alpha)
        k = 1 / (a * mp.mpf(r_b) * n)
        A = mp.sqrt(
            k * mp.factorial(n - l - 1) / (n * a ** (2 * l + 2) * mp.factorial(n + l))
        )
        L = _polynomial(laguerre_coefficients(n - l - 1, 2 * l + 1))

    def u(rho):
        y = rho**a / a
        return A * a ** (l + 1) * y ** (l + 1) * mp.exp(-y / 2) * L(y)

    return u


def conf_laguerre(s: int, m: int, alpha: float):
    """v(t) = L_s^m(t^a / a)."""
    with mp.workdps(DPS):
        a = mp.mpf(alpha)
        L = _polynomial(laguerre_coefficients(s, m))
    return lambda t: L(t**a / a)


def legendre(l: int, m: int):
    """P_l^m(z) on -1 < z < 1."""
    q = _polynomial(legendre_coefficients(l, m))
    return lambda z: (1 - z * z) ** (mp.mpf(m) / 2) * q(z)


def conf_legendre(l: int, m: int, alpha: float):
    """P(t) = P_l^m(cos(t^a))."""
    P = legendre(l, m)
    a = mp.mpf(alpha)
    return lambda t: P(mp.cos(t**a))


def _diffs(f, x) -> list:
    """f, f', f'' at the mpf x, at the working precision."""
    return list(mp.diffs(f, x, 2, h=abs(x) * mp.mpf(STEP)))


def triple(f, t: float) -> tuple:
    """(f, f', f'') at the double t != 0, rounded to doubles.

    The step is |t| ``STEP``.  The step of mp.diffs' ``relative=True``,
    about 2^-(prec + 10) / t, grows as t shrinks; 3 steps pass t itself
    below t of about 6e-32, where t - 3 h < 0 leaves the real line.
    """
    with mp.workdps(DPS):
        return tuple(float(v) for v in _diffs(f, mp.mpf(t)))


def conformable_triple(f, t: float, alpha: float) -> tuple:
    """(f, D^a f, D^a D^a f) at the double t > 0, rounded to doubles.

    The identities D^a f = t^(1-a) f' and D^a D^a f = (1-a) t^(1-2a) f' +
    t^(2-2a) f'' are applied at ``DPS`` digits to the derivatives of
    ``triple``, and only the results are rounded.
    """
    with mp.workdps(DPS):
        x, a = mp.mpf(t), mp.mpf(alpha)
        f0, f1, f2 = _diffs(f, x)
        d1 = x ** (1 - a) * f1
        d2 = (1 - a) * x ** (1 - 2 * a) * f1 + x ** (2 - 2 * a) * f2
        return float(f0), float(d1), float(d2)
