"""Build the atlas of the accepted domain: a committed class for each cell.

    python tools/atlas.py [--output tests/golden/atlas.json]

A cell is one call of a public function at one state, alpha and r_b:
``radial_wavefunction`` at a few radii placed by the state's scale w, and
``normalization_report``.  Its class is

- "ok": R within ``TOLERANCE`` of the state's max|R| against the mpmath
  oracle of ``tests/mp_oracle.py``, or |N - 1| <= ``TOLERANCE``;
- "refused": one of the ``TYPED`` errors;
- "wrong": any other outcome, a silent wrong number above all.

The oracle runs at ``30 + 2 n`` digits, where the alternating Laguerre sum
at w = 4 n cancels about 1.74 n of them, and each of its values must agree
with a second run at 40 digits more.  The file keeps each cell's radii, its
oracle values and its scale, so ``tests/test_atlas.py`` classes the cells
again without the oracle.  A cell whose error lies within a factor of 10 of
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
    normalization_report, radial_wavefunction,
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
EXTRA_DIGITS = 40
DIGITS_KEPT = 20  # of each oracle value and scale in the file


def _digits(n: int) -> int:
    return 30 + 2 * n


def classify(cell: dict) -> tuple:
    """(class, error) of the cell as the package evaluates it today; the
    error is None for a refusal."""
    qn, params = QuantumNumbers(cell["n"], cell["l"]), ModelParams(cell["alpha"], cell["r_b"])
    try:
        if cell["function"] == "normalization_report":
            error = abs(normalization_report(qn, params) - 1.0)
        else:
            values = radial_wavefunction(qn, params, np.array(cell["r"]))
            if not np.isfinite(values).all():
                return "wrong", math.inf
            with mp.workdps(DIGITS_KEPT + 5):
                error = max(abs(mp.mpf(float(v)) - mp.mpf(want)) for v, want in zip(values, cell["oracle"]))
                error = float(error / mp.mpf(cell["scale"]))
    except TYPED:
        return "refused", None
    return ("ok" if error <= TOLERANCE else "wrong"), error


def _shape_argmax(n: int, l: int) -> mp.mpf:
    """The w of the largest |w^l e^(-w/2) L_(n-l-1)^(2l+1)(w)| on a grid that
    resolves the lobes near 0 and spans w <= 4 n + 20."""
    L = mp_oracle._polynomial(mp_oracle.laguerre_coefficients(n - l - 1, 2 * l + 1))
    grid = [0.0, *np.geomspace(1e-3, 4.0, 150), *np.linspace(0.0, 4.0 * n + 20.0, 600)[1:]]
    with mp.workdps(_digits(n)):
        return max((mp.mpf(w) for w in grid), key=lambda w: abs(w**l * mp.exp(-w / 2) * L(w)))


def _radius(w, n: int, alpha: float, r_b: float, dps: int):
    """r with 2 r^alpha / (alpha^2 r_b n) = w, in mpmath."""
    with mp.workdps(dps):
        return (w * mp.mpf(alpha) ** 2 * mp.mpf(r_b) * n / 2) ** (1 / mp.mpf(alpha))


def _oracle(n: int, l: int, alpha: float, r_b: float, radii, peak) -> tuple:
    """R at each double radius and |R| at the radius of the state's peak, as
    strings, from two precisions that must agree within 1e-12 of the peak."""
    runs = []
    for dps in (_digits(n), _digits(n) + EXTRA_DIGITS):
        R = mp_oracle.radial(n, l, alpha, r_b, dps)
        with mp.workdps(dps):
            runs.append([R(mp.mpf(r)) for r in radii] + [abs(R(_radius(peak, n, alpha, r_b, dps)))])
    scale = runs[1][-1]
    with mp.workdps(_digits(n) + EXTRA_DIGITS):
        drift = max(abs(x - y) for x, y in zip(*runs)) / scale
    if drift > 1e-12:
        raise RuntimeError(f"the oracle of ({n}, {l}) at alpha={alpha!r}, r_b={r_b!r} moves by {drift} of max|R|")
    return [mp.nstr(v, DIGITS_KEPT) for v in runs[1][:-1]], mp.nstr(scale, DIGITS_KEPT)


def radial_cells() -> list:
    cells = []
    for n, l in STATES:
        peak = _shape_argmax(n, l)
        for alpha in RADIAL_ALPHAS:
            for r_b in RADIAL_R_BS:
                # w = 0.01, 1, n, 2 n and 4 n, the last two near the outer lobe
                # and the classical turning point; radii that are not normal
                # doubles are left out, and a cell without radii with them
                radii = []
                for w in (0.01, 1.0, n, 2.0 * n, 4.0 * n):
                    r = float(_radius(mp.mpf(w), n, alpha, r_b, _digits(n)))
                    if sys.float_info.min <= r < math.inf and r not in radii:
                        radii.append(r)
                if radii:
                    oracle, scale = _oracle(n, l, alpha, r_b, radii, peak)
                    cells.append(dict(function="radial_wavefunction", n=n, l=l, alpha=alpha, r_b=r_b,
                                      r=radii, oracle=oracle, scale=scale))
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
        for cell in radial_cells() + normalization_cells():
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
