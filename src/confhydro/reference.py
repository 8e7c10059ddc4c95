"""Closed-form reference expressions used for cross-checks.

Two families live here: the published per-state closed forms of the
conformable radial functions and full wavefunctions (n <= 3 radial,
four psi entries), and the textbook alpha = 1 hydrogen functions.  The
psi_211 entry is written with the alpha^9 power that follows from the
general product R * Y; the published table carries alpha^7 there, which
is inconsistent with its own general formula by one factor of alpha
(the two agree at alpha = 1).  In the measure r^(2 alpha) d^alpha r
sin(theta^alpha) d^alpha theta d^alpha phi, over theta^alpha in (0, pi]
and phi^alpha in [0, 2 pi], the published table is normalised alike for
every m: with its alpha^7 each psi entry integrates to (2 pi)^(1 - alpha),
1.735617 at alpha = 0.7, where the alpha^9 gives (2 pi)^(1 - alpha)
alpha^(-2), 3.542076 there (a 120^3-node product Gauss-Legendre rule in
r^alpha, theta^alpha and phi^alpha, within 4.1e-14 relative of the closed
value at alpha = 0.5, 0.6, ..., 1).  The entry keeps alpha^9, which
matches the general formula that ``hydrogen`` implements.

Coordinates are read as every array input of the package is read, so a
complex one is refused, and (alpha, r_b) as ``ModelParams`` reads them.
Each entry of the published table refuses, with ``DomainError``, a value
that it cannot form in doubles (``_refusing``).
"""
from __future__ import annotations

import math

import numpy as np

from .calculus import _floats
from .errors import DomainError
from .hydrogen import ModelParams

_SQ = math.sqrt
_PI = math.pi


def _prep(alpha: float, rb: float, r):
    params = ModelParams(alpha, rb)
    return params.alpha, params.r_b_alpha, _floats(r, "r") ** params.alpha  # r^alpha


def _refusing(family: str, forms: dict) -> dict:
    """``forms``, keyed by quantum numbers, each made to refuse a value it cannot
    form with a ``DomainError`` naming it (``R_20``), alpha and r_b: a Python
    float ``**`` or ``/`` that raises, a constant that is not a finite positive
    double (``_constant``), or a numpy overflow, division by zero or invalid
    value, which would have left inf or NaN in what it returns."""
    def refusing(entry, form):
        def evaluate(alpha, rb, *coordinates):
            try:
                with np.errstate(all="raise", under="ignore"):
                    return form(alpha, rb, *coordinates)
            except ArithmeticError as exc:
                params = ModelParams(alpha, rb)
                raise DomainError(
                    f"the closed form {entry} at alpha={params.alpha!r}, r_b={params.r_b_alpha!r} "
                    f"cannot be formed: {exc}"
                ) from None
        return evaluate
    return {key: refusing(f"{family}_{''.join(map(str, key))}", form) for key, form in forms.items()}


def _constant(c: float) -> float:
    """c, the constant of a closed form, which is a Python float: its ``*``
    and ``/`` round to inf or 0.0 where ``**`` would raise."""
    if 0.0 < c < math.inf:
        return c
    raise FloatingPointError(f"its constant evaluates to {c!r}")


# radial closed forms, keyed by (n, l); rb is the alpha-Bohr radius value

def _R10(alpha, rb, r):
    a, rb, x = _prep(alpha, rb, r)
    return _constant(_SQ(4.0 / (a**5 * rb**3))) * np.exp(-x / (a * a * rb))


def _R20(alpha, rb, r):
    a, rb, x = _prep(alpha, rb, r)
    return (
        _constant(_SQ(1.0 / (8.0 * a**5 * rb**3)))
        * (2.0 - x / (a * a * rb))
        * np.exp(-x / (2.0 * a * a * rb))
    )


def _R21(alpha, rb, r):
    a, rb, x = _prep(alpha, rb, r)
    return _constant(_SQ(1.0 / (6.0 * a**9 * rb**5))) * (x / 2.0) * np.exp(-x / (2.0 * a * a * rb))


def _R30(alpha, rb, r):
    a, rb, x = _prep(alpha, rb, r)
    q = x / (3.0 * a * a * rb)
    return (
        _constant(_SQ(4.0 / (27.0 * a**5 * rb**3)))
        * ((2.0 / 3.0) * q * q - 2.0 * q + 1.0)
        * np.exp(-q)
    )


def _R31(alpha, rb, r):
    a, rb, x = _prep(alpha, rb, r)
    q = x / (3.0 * a * a * rb)
    return _constant(_SQ(8.0 / (3.0**7 * a**9 * rb**5))) * x * (2.0 - q) * np.exp(-q)


def _R32(alpha, rb, r):
    a, rb, x = _prep(alpha, rb, r)
    return (
        _constant(_SQ(1.0 / (10.0 * 3.0**5 * a**9 * rb**3)))
        * (2.0 * x / (3.0 * a * rb)) ** 2
        * np.exp(-x / (3.0 * a * a * rb))
    )


RADIAL_CLOSED_FORMS = _refusing("R", {
    (1, 0): _R10,
    (2, 0): _R20,
    (2, 1): _R21,
    (3, 0): _R30,
    (3, 1): _R31,
    (3, 2): _R32,
})


# full-wavefunction closed forms, keyed by (n, l, m_l)

def _psi100(alpha, rb, r, theta, phi):
    a, rb, x = _prep(alpha, rb, r)
    return _constant(_SQ(2.0 / (a**3 * rb**3 * (2.0 * _PI) ** a))) * np.exp(
        -x / (a * a * rb)
    ) * np.ones_like(_floats(theta, "theta") * _floats(phi, "phi"))


def _psi200(alpha, rb, r, theta, phi):
    a, rb, x = _prep(alpha, rb, r)
    return (
        _constant(_SQ(1.0 / (16.0 * (2.0 * _PI) ** a * a**3 * rb**3)))
        * (2.0 - x / (a * a * rb))
        * np.exp(-x / (2.0 * a * a * rb))
        * np.ones_like(_floats(theta, "theta") * _floats(phi, "phi"))
    )


def _psi210(alpha, rb, r, theta, phi):
    a, rb, x = _prep(alpha, rb, r)
    th = _floats(theta, "theta") ** a
    return (
        _constant(_SQ(1.0 / (4.0 * a**7 * rb**5 * (2.0 * _PI) ** a)))
        * (x / 2.0)
        * np.exp(-x / (2.0 * a * a * rb))
        * np.cos(th)
        * np.ones_like(_floats(phi, "phi"))
    )


def _psi211(alpha, rb, r, theta, phi):
    # alpha^9 (not the published alpha^7): consistent with the general formula
    a, rb, x = _prep(alpha, rb, r)
    th = _floats(theta, "theta") ** a
    ph = _floats(phi, "phi") ** a
    return (
        -_constant(_SQ(1.0 / (8.0 * a**9 * rb**5 * (2.0 * _PI) ** a)))
        * (x / 2.0)
        * np.exp(-x / (2.0 * a * a * rb))
        * np.exp(1j * ph)
        * np.sin(th)
    )


PSI_CLOSED_FORMS = _refusing("psi", {
    (1, 0, 0): _psi100,
    (2, 0, 0): _psi200,
    (2, 1, 0): _psi210,
    (2, 1, 1): _psi211,
})


# textbook alpha = 1 hydrogen (Bohr radius 1), n <= 3

def _of_r(form):
    """``form`` as a function of r, which it receives read as every array input is read."""
    return lambda r: form(_floats(r, "r"))


TEXTBOOK_RADIAL = {
    (1, 0): _of_r(lambda r: 2.0 * np.exp(-r)),
    (2, 0): _of_r(lambda r: (1.0 / _SQ(8.0)) * (2.0 - r) * np.exp(-r / 2.0)),
    (2, 1): _of_r(lambda r: (1.0 / _SQ(24.0)) * r * np.exp(-r / 2.0)),
    (3, 0): _of_r(lambda r: (2.0 / (3.0 * _SQ(3.0))) * (1.0 - 2.0 * r / 3.0 + 2.0 * r**2 / 27.0) * np.exp(-r / 3.0)),
    (3, 1): _of_r(lambda r: (8.0 / (27.0 * _SQ(6.0))) * r * (1.0 - r / 6.0) * np.exp(-r / 3.0)),
    (3, 2): _of_r(lambda r: (4.0 / (81.0 * _SQ(30.0))) * r**2 * np.exp(-r / 3.0)),
}


def textbook_spherical_harmonic(l: int, m: int, theta, phi):
    """Standard Y_l^m with Condon-Shortley phase, l <= 2; only that entry is formed."""
    th, ph = _floats(theta, "theta"), _floats(phi, "phi")
    e = lambda k: np.exp(1j * k * ph)
    ct, st = np.cos(th), np.sin(th)
    table = {
        (0, 0): lambda: 0.5 * _SQ(1.0 / _PI) * np.ones_like(ct) * np.ones_like(ph),
        (1, 0): lambda: 0.5 * _SQ(3.0 / _PI) * ct * np.ones_like(ph),
        (1, 1): lambda: -0.5 * _SQ(3.0 / (2.0 * _PI)) * st * e(1),
        (1, -1): lambda: 0.5 * _SQ(3.0 / (2.0 * _PI)) * st * e(-1),
        (2, 0): lambda: 0.25 * _SQ(5.0 / _PI) * (3.0 * ct * ct - 1.0) * np.ones_like(ph),
        (2, 1): lambda: -0.5 * _SQ(15.0 / (2.0 * _PI)) * st * ct * e(1),
        (2, -1): lambda: 0.5 * _SQ(15.0 / (2.0 * _PI)) * st * ct * e(-1),
        (2, 2): lambda: 0.25 * _SQ(15.0 / (2.0 * _PI)) * st * st * e(2),
        (2, -2): lambda: 0.25 * _SQ(15.0 / (2.0 * _PI)) * st * st * e(-2),
    }
    return table[(l, m)]()
