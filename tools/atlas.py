"""Build the atlas of the accepted domain: a committed class for each cell.

    python tools/atlas.py [--output tests/golden/atlas.json]

A cell is one call of a public function at one state, alpha and r_b:
``radial_wavefunction`` at a few radii placed by the state's scale w,
``u_function`` at a few rho placed by its variable y = rho^alpha / alpha,
``normalization_report``, and ``angular_Y`` at a few polar angles, from one
pole to the other, which takes no r_b.  Its class is

- "ok": R, u or Y within ``TOLERANCE`` of the state's max|R|, max|u| or
  max|Y| against the mpmath oracle of ``tests/mp_oracle.py``, or |N - 1| <=
  ``TOLERANCE``;
- "refused": one of the ``TYPED`` errors;
- "wrong": any other outcome, a silent wrong number above all.

The oracles of R and u run at ``30 + 2 n`` digits, where the alternating
Laguerre sum at w = 4 n cancels about 1.74 n of them, that of Y at ``60 + l``, and
each of its values must agree with a second run at 40 digits more.  The
file keeps each cell's radii, rho or angles, its oracle values and its scale, so
``tests/test_atlas.py`` classes the cells again without the oracle.  A cell whose error lies within a factor of 10 of
``TOLERANCE`` is left out, so that a last-digit difference of libm or numpy
between platforms cannot move it across the line.  The script prints the
counts of each class per function.
"""
from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
import warnings

import numpy as np
from mpmath import mp

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import mp_oracle  # noqa: E402
from confhydro import (  # noqa: E402
    ConvergenceError, DomainError, ModelParams, QuantumNumbers, UnsupportedDegreeError,
    angular_Y, normalization_report, radial_wavefunction, u_function,
)

OUTPUT = ROOT / "tests" / "golden" / "atlas.json"
TOLERANCE = 1e-9
TYPED = (DomainError, ValueError, ConvergenceError, UnsupportedDegreeError)
# (n, l) from the ground state to n = 160, with the states that ROADMAP
# items 3 and 21 name
STATES = [
    (1, 0), (2, 0), (2, 1), (3, 2), (5, 0), (8, 3), (13, 6), (13, 12), (21, 0), (34, 17),
    (55, 52), (60, 59), (89, 0), (100, 50), (127, 0), (150, 75), (160, 0), (160, 159),
]
RADIAL_ALPHAS = [1e-3, 0.1, 0.5, 0.7, 1.0]
RADIAL_R_BS = [1e-100, 1e-5, 1.0, 1e5, 1e100]
NORM_ALPHAS = [0.5, 0.7, 1.0]
NORM_R_BS = [1e-5, 1.0, 1e5]
# degrees l of Y, each at the orders -l, -1, 0, 1, 2 and l that |m| <= l keeps
DEGREES = [0, 1, 2, 3, 10, 50, 100, 200]
ANGULAR_ALPHAS = [0.5, 1.0]
# theta^alpha = k pi + d of the Y cells, (k, d) next to each pole and
# between; phi^alpha = PHI
POLAR = [(0, "1e-8"), (0, "1e-3"), (0, "1"), (1, "-1e-3"), (1, "-1e-8")]
PHI = (0, "0.3")
EXTRA_DIGITS = 40
DIGITS_KEPT = 20  # of each oracle value and scale in the file


def _digits(n: int) -> int:
    return 30 + 2 * n


def classify(cell: dict) -> tuple:
    """(class, error) of the cell as the package evaluates it today; the
    error is None for a refusal."""
    function, qn = cell["function"], QuantumNumbers(cell["n"], cell["l"], cell.get("m", 0))
    try:
        if function == "normalization_report":
            error = abs(normalization_report(qn, ModelParams(cell["alpha"], cell["r_b"])) - 1.0)
        else:
            if function == "angular_Y":
                values = angular_Y(qn, cell["alpha"], np.array(cell["theta"]), cell["phi"])
            elif function == "u_function":
                values = u_function(qn, ModelParams(cell["alpha"], cell["r_b"]), np.array(cell["rho"]))
            else:
                values = radial_wavefunction(qn, ModelParams(cell["alpha"], cell["r_b"]), np.array(cell["r"]))
            if not np.isfinite(values).all():
                return "wrong", math.inf
            with mp.workdps(DIGITS_KEPT + 5):  # a complex oracle value reads as "(re + imj)"
                error = max(abs(mp.mpmathify(v) - mp.mpmathify(want))
                            for v, want in zip(values.tolist(), cell["oracle"]))
                error = float(error / mp.mpf(cell["scale"]))
    except TYPED:
        return "refused", None
    return ("ok" if error <= TOLERANCE else "wrong"), error


def _shape_argmax(n: int, l: int, p: int) -> mp.mpf:
    """The w of the largest |w^p e^(-w/2) L_(n-l-1)^(2l+1)(w)| on a grid that
    resolves the lobes near 0 and spans w <= 4 n + 20: p = l for R, l + 1 for u."""
    L = mp_oracle._polynomial(mp_oracle.laguerre_coefficients(n - l - 1, 2 * l + 1))
    grid = [0.0, *np.geomspace(1e-3, 4.0, 150), *np.linspace(0.0, 4.0 * n + 20.0, 600)[1:]]
    with mp.workdps(_digits(n)):
        return max((mp.mpf(w) for w in grid), key=lambda w: abs(w**p * mp.exp(-w / 2) * L(w)))


def _radius(w, n: int, alpha: float, r_b: float, dps: int):
    """r with 2 r^alpha / (alpha^2 r_b n) = w, in mpmath."""
    with mp.workdps(dps):
        return (w * mp.mpf(alpha) ** 2 * mp.mpf(r_b) * n / 2) ** (1 / mp.mpf(alpha))


def _rho(y, n: int, alpha: float, r_b: float, dps: int):
    """rho with rho^alpha / alpha = y, in mpmath."""
    with mp.workdps(dps):
        return (y * mp.mpf(alpha)) ** (1 / mp.mpf(alpha))


def _oracle(label: str, digits: int, f, points, peak) -> tuple:
    """f at each double point and |f| at the state's peak, as strings, from
    runs at ``digits`` and 40 more that must agree within 1e-12 of that |f|:
    ``f(dps)`` is the function formed at dps digits, ``peak(dps)`` its peak."""
    runs = []
    for dps in (digits, digits + EXTRA_DIGITS):
        F = f(dps)
        with mp.workdps(dps):
            runs.append([F(mp.mpf(x)) for x in points] + [abs(F(peak(dps)))])
    scale = runs[1][-1]
    with mp.workdps(digits + EXTRA_DIGITS):
        drift = max(abs(x - y) for x, y in zip(*runs)) / scale
    if drift > 1e-12:
        raise RuntimeError(f"the oracle of {label} moves by {drift} of its max")
    return [mp.nstr(v, DIGITS_KEPT) for v in runs[1][:-1]], mp.nstr(scale, DIGITS_KEPT)


def _scaled_cells(function: str, key: str, lift: int, point, oracle) -> list:
    """The cells of R or u: at each state, alpha and r_b, the points ``key``
    where its scaled variable is 0.01, 1, n, 2 n and 4 n, the last two near the
    outer lobe and the classical turning point; points that are not normal
    doubles are left out, and a cell without points with them.
    ``point(s, n, alpha, r_b, dps)`` is the point where the variable is s,
    ``oracle(n, l, alpha, r_b, dps)`` the function, whose shape in the variable
    has the power l + ``lift`` (``_shape_argmax``)."""
    cells = []
    for n, l in STATES:
        peak = _shape_argmax(n, l, l + lift)
        for alpha in RADIAL_ALPHAS:
            for r_b in RADIAL_R_BS:
                points = []
                for s in (0.01, 1.0, n, 2.0 * n, 4.0 * n):
                    x = float(point(mp.mpf(s), n, alpha, r_b, _digits(n)))
                    if sys.float_info.min <= x < math.inf and x not in points:
                        points.append(x)
                if points:
                    values, scale = _oracle(
                        f"{function} ({n}, {l}) at alpha={alpha!r}, r_b={r_b!r}", _digits(n),
                        lambda dps: oracle(n, l, alpha, r_b, dps), points,
                        lambda dps: point(peak, n, alpha, r_b, dps))
                    cells.append(dict(function=function, n=n, l=l, alpha=alpha, r_b=r_b,
                                      **{key: points}, oracle=values, scale=scale))
    return cells


def radial_cells() -> list:
    return _scaled_cells("radial_wavefunction", "r", 0, _radius, mp_oracle.radial)


def u_cells() -> list:
    return _scaled_cells("u_function", "rho", 1, _rho, mp_oracle.scaled_u)


def _root(x: tuple, alpha: float, dps: int) -> float:
    """The double nearest (k pi + d)^(1/alpha), for x = (k, d)."""
    k, d = x
    with mp.workdps(dps):
        return float((k * mp.pi + mp.mpf(d)) ** (1 / mp.mpf(alpha)))


def _angular_norm(l: int, m: int, a) -> mp.mpf:
    """The constant of Y = N e^(i m phi^a) P_l^m(cos theta^a), as
    ``hydrogen._angular_norm`` forms it, at the working precision."""
    return mp.sqrt((2 * l + 1) * mp.factorial(l - m)
                   / (a ** (2 * m - 2) * 2 * mp.factorial(l + m) * (2 * mp.pi) ** a))


def _legendre_argmax(l: int, m: int, dps: int) -> mp.mpf:
    """The x of the largest |P_l^m(cos x)| on [0, pi]: on a grid of about 10
    points a lobe, then on one of 40 across the two steps around the best."""
    P = mp_oracle.legendre(l, m)
    with mp.workdps(dps):
        size = lambda x: abs(P(mp.cos(x)))  # noqa: E731
        grid = mp.linspace(0, mp.pi, 10 * l + 11)
        i = max(range(len(grid)), key=lambda j: size(grid[j]))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        return max(mp.linspace(lo, hi, 41), key=size)


def angular_cells() -> list:
    cells = []
    for l in DEGREES:
        for m in sorted({-l, -1, 0, 1, 2, l} & set(range(-l, l + 1))):
            dps = 60 + l
            peak = _legendre_argmax(l, m, dps)
            for alpha in ANGULAR_ALPHAS:
                theta, phi = [_root(x, alpha, dps) for x in POLAR], _root(PHI, alpha, dps)
                runs = []  # Y at each angle, then max|Y|
                for digits in (dps, dps + EXTRA_DIGITS):
                    with mp.workdps(digits):
                        a, P = mp.mpf(alpha), mp_oracle.legendre(l, m)
                        N, phase = _angular_norm(l, m, a), mp.expj(m * mp.mpf(phi) ** a)
                        runs.append([N * phase * P(mp.cos(mp.mpf(t) ** a)) for t in theta] + [N * abs(P(mp.cos(peak)))])
                scale = runs[1][-1]
                with mp.workdps(dps + EXTRA_DIGITS):
                    drift = max(abs(x - y) for x, y in zip(*runs)) / scale
                if drift > 1e-12:
                    raise RuntimeError(f"the oracle of Y_{l}^{m} at alpha={alpha!r} moves by {drift} of max|Y|")
                # angular_Y takes a state (n, l, m) with n = l + 1, and no r_b
                cells.append(dict(function="angular_Y", n=l + 1, l=l, m=m, alpha=alpha, r_b=None,
                                  theta=theta, phi=phi, oracle=[mp.nstr(v, DIGITS_KEPT) for v in runs[1][:-1]],
                                  scale=mp.nstr(scale, DIGITS_KEPT)))
    return cells


def normalization_cells() -> list:
    return [
        dict(function="normalization_report", n=n, l=l, alpha=alpha, r_b=r_b)
        for n, l in STATES for alpha in NORM_ALPHAS for r_b in NORM_R_BS
    ]


def counts(cells: list) -> dict:
    """{function: {class: count}} in the order ok, refused, wrong."""
    out = {}
    for cell in cells:
        tally = out.setdefault(cell["function"], dict.fromkeys(("ok", "refused", "wrong"), 0))
        tally[cell["class"]] += 1
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=pathlib.Path, default=OUTPUT)
    args = parser.parse_args(argv)
    kept, left_out = [], 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cell in radial_cells() + u_cells() + normalization_cells() + angular_cells():
            cell["class"], error = classify(cell)
            if error is not None and TOLERANCE / 10 < error < TOLERANCE * 10:
                left_out += 1
                continue
            kept.append(cell)
    args.output.write_text("[\n" + ",\n".join(map(json.dumps, kept)) + "\n]\n", encoding="utf-8")  # a cell a line
    for function, tally in counts(kept).items():
        print(f"{function}: {sum(tally.values())} cells, " + ", ".join(f"{v} {k}" for k, v in tally.items()))
    print(f"{left_out} cells left out, their error within a factor of 10 of {TOLERANCE:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
