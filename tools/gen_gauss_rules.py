"""Write src/confhydro/_gauss_rules.py: the Gauss rules conf_integral uses.

Run with scipy installed:

    python tools/gen_gauss_rules.py

Each array of nodes or weights is stored as the hex of the little-endian
doubles that ``scipy.special.roots_laguerre`` / ``roots_legendre`` returns, so
``np.frombuffer(bytes.fromhex(arr), "<f8")`` rebuilds scipy's bits in one call.
An array is one string (adjacent literals, joined by the compiler) of
``PER_LINE`` doubles a line.
"""
import pathlib

import numpy as np
import scipy
import scipy.special

SIZES = (128, 256)
KINDS = (("laguerre", scipy.special.roots_laguerre), ("legendre", scipy.special.roots_legendre))
TARGET = pathlib.Path(__file__).resolve().parents[1] / "src" / "confhydro" / "_gauss_rules.py"
PER_LINE = 6
WIDTH = 16 * PER_LINE  # hex digits: two per byte, eight bytes per double


def _values(arr) -> list:
    digits = np.asarray(arr, "<f8").tobytes().hex()
    return [f'"{digits[i : i + WIDTH]}"' for i in range(0, len(digits), WIDTH)]


def render() -> str:
    lines = [
        '"""Gauss-Laguerre and Gauss-Legendre rules at 128 and 256 nodes.',
        "",
        f"Generated from scipy {scipy.__version__} by ``python tools/gen_gauss_rules.py``;",
        "do not edit.  ``RULES[kind][n]`` is ``(nodes, weights)``, each the hex of the",
        "little-endian doubles that ``scipy.special.roots_laguerre`` / ``roots_legendre``",
        'returns, so ``np.frombuffer(bytes.fromhex(arr), "<f8")`` rebuilds scipy\'s bits.',
        '"""',
        "",
        f'SCIPY_VERSION = "{scipy.__version__}"',
        "",
        "RULES = {",
    ]
    for name, roots in KINDS:
        lines.append(f'    "{name}": {{')
        for n in SIZES:
            x, w = roots(n)
            lines.append(f"        {n}: (")
            for arr in (x, w):
                lines.append("            (")
                lines.extend("                " + row for row in _values(arr))
                lines.append("            ),")
            lines.append("        ),")
        lines.append("    },")
    lines.append("}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    TARGET.write_text(render())
