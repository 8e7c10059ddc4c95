"""Closed-form reference expressions used for cross-checks.

Two families live here: the published per-state closed forms of the
conformable radial functions and full wavefunctions (n <= 3 radial,
four psi entries), and the textbook alpha = 1 hydrogen functions.  The
psi_211 entry is written with the alpha^9 power that follows from the
general product R * Y; the published table carries alpha^7 there, which
is inconsistent with its own general formula by one factor of alpha
(the two agree at alpha = 1).
"""
from __future__ import annotations

import math

import numpy as np

from .calculus import alpha_value

_SQ = math.sqrt
_PI = math.pi


def _prep(alpha: float, rb: float, r):
    a = alpha_value(alpha)
    x = np.asarray(r, dtype=float) ** a  # r^alpha
    return a, float(rb), x


# radial closed forms, keyed by (n, l); rb is the alpha-Bohr radius value

def _R10(alpha, rb, r):
    a, rb, x = _prep(alpha, rb, r)
    return _SQ(4.0 / (a**5 * rb**3)) * np.exp(-x / (a * a * rb))


def _R20(alpha, rb, r):
    a, rb, x = _prep(alpha, rb, r)
    return (
        _SQ(1.0 / (8.0 * a**5 * rb**3))
        * (2.0 - x / (a * a * rb))
        * np.exp(-x / (2.0 * a * a * rb))
    )


def _R21(alpha, rb, r):
    a, rb, x = _prep(alpha, rb, r)
    return _SQ(1.0 / (6.0 * a**9 * rb**5)) * (x / 2.0) * np.exp(-x / (2.0 * a * a * rb))


def _R30(alpha, rb, r):
    a, rb, x = _prep(alpha, rb, r)
    q = x / (3.0 * a * a * rb)
    return (
        _SQ(4.0 / (27.0 * a**5 * rb**3))
        * ((2.0 / 3.0) * q * q - 2.0 * q + 1.0)
        * np.exp(-q)
    )


def _R31(alpha, rb, r):
    a, rb, x = _prep(alpha, rb, r)
    q = x / (3.0 * a * a * rb)
    return _SQ(8.0 / (3.0**7 * a**9 * rb**5)) * x * (2.0 - q) * np.exp(-q)


def _R32(alpha, rb, r):
    a, rb, x = _prep(alpha, rb, r)
    return (
        _SQ(1.0 / (10.0 * 3.0**5 * a**9 * rb**3))
        * (2.0 * x / (3.0 * a * rb)) ** 2
        * np.exp(-x / (3.0 * a * a * rb))
    )


RADIAL_CLOSED_FORMS = {
    (1, 0): _R10,
    (2, 0): _R20,
    (2, 1): _R21,
    (3, 0): _R30,
    (3, 1): _R31,
    (3, 2): _R32,
}


# full-wavefunction closed forms, keyed by (n, l, m_l)

def _psi100(alpha, rb, r, theta, phi):
    a, rb, x = _prep(alpha, rb, r)
    return _SQ(2.0 / (a**3 * rb**3 * (2.0 * _PI) ** a)) * np.exp(
        -x / (a * a * rb)
    ) * np.ones_like(np.asarray(theta, dtype=float) * np.asarray(phi, dtype=float))


def _psi200(alpha, rb, r, theta, phi):
    a, rb, x = _prep(alpha, rb, r)
    return (
        _SQ(1.0 / (16.0 * (2.0 * _PI) ** a * a**3 * rb**3))
        * (2.0 - x / (a * a * rb))
        * np.exp(-x / (2.0 * a * a * rb))
        * np.ones_like(np.asarray(theta, dtype=float) * np.asarray(phi, dtype=float))
    )


def _psi210(alpha, rb, r, theta, phi):
    a, rb, x = _prep(alpha, rb, r)
    th = np.asarray(theta, dtype=float) ** a
    return (
        _SQ(1.0 / (4.0 * a**7 * rb**5 * (2.0 * _PI) ** a))
        * (x / 2.0)
        * np.exp(-x / (2.0 * a * a * rb))
        * np.cos(th)
        * np.ones_like(np.asarray(phi, dtype=float))
    )


def _psi211(alpha, rb, r, theta, phi):
    # alpha^9 (not the published alpha^7): consistent with the general formula
    a, rb, x = _prep(alpha, rb, r)
    th = np.asarray(theta, dtype=float) ** a
    ph = np.asarray(phi, dtype=float) ** a
    return (
        -_SQ(1.0 / (8.0 * a**9 * rb**5 * (2.0 * _PI) ** a))
        * (x / 2.0)
        * np.exp(-x / (2.0 * a * a * rb))
        * np.exp(1j * ph)
        * np.sin(th)
    )


PSI_CLOSED_FORMS = {
    (1, 0, 0): _psi100,
    (2, 0, 0): _psi200,
    (2, 1, 0): _psi210,
    (2, 1, 1): _psi211,
}


# textbook alpha = 1 hydrogen (Bohr radius 1), n <= 3

TEXTBOOK_RADIAL = {
    (1, 0): lambda r: 2.0 * np.exp(-np.asarray(r, dtype=float)),
    (2, 0): lambda r: (1.0 / _SQ(8.0))
    * (2.0 - np.asarray(r, dtype=float))
    * np.exp(-np.asarray(r, dtype=float) / 2.0),
    (2, 1): lambda r: (1.0 / _SQ(24.0))
    * np.asarray(r, dtype=float)
    * np.exp(-np.asarray(r, dtype=float) / 2.0),
    (3, 0): lambda r: (2.0 / (3.0 * _SQ(3.0)))
    * (
        1.0
        - 2.0 * np.asarray(r, dtype=float) / 3.0
        + 2.0 * np.asarray(r, dtype=float) ** 2 / 27.0
    )
    * np.exp(-np.asarray(r, dtype=float) / 3.0),
    (3, 1): lambda r: (8.0 / (27.0 * _SQ(6.0)))
    * np.asarray(r, dtype=float)
    * (1.0 - np.asarray(r, dtype=float) / 6.0)
    * np.exp(-np.asarray(r, dtype=float) / 3.0),
    (3, 2): lambda r: (4.0 / (81.0 * _SQ(30.0)))
    * np.asarray(r, dtype=float) ** 2
    * np.exp(-np.asarray(r, dtype=float) / 3.0),
}


def textbook_spherical_harmonic(l: int, m: int, theta, phi):
    """Standard Y_l^m with Condon-Shortley phase, l <= 2; only that entry is formed."""
    th = np.asarray(theta, dtype=float)
    ph = np.asarray(phi, dtype=float)
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
