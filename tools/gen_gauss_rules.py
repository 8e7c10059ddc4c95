"""Write src/confhydro/_gauss_rules.py: the Gauss rules conf_integral uses.

Run with scipy installed:

    python tools/gen_gauss_rules.py

Each node and weight is stored as ``float.hex`` of the double that
``scipy.special.roots_laguerre`` / ``roots_legendre`` returns, so the arrays
rebuilt with ``float.fromhex`` equal scipy's bit for bit.  An array is one
whitespace-separated string (adjacent literals, joined by the compiler): the
module compiles several times faster than with one literal per value, which
matters where no bytecode cache is written.
"""
import pathlib

import scipy
import scipy.special

SIZES = (128, 256)
KINDS = (("laguerre", scipy.special.roots_laguerre), ("legendre", scipy.special.roots_legendre))
TARGET = pathlib.Path(__file__).resolve().parents[1] / "src" / "confhydro" / "_gauss_rules.py"
PER_LINE = 3


def _values(arr) -> list:
    hexes = [float(v).hex() for v in arr]
    return ['"' + " ".join(hexes[i : i + PER_LINE]) + ' "' for i in range(0, len(hexes), PER_LINE)]


def render() -> str:
    lines = [
        '"""Gauss-Laguerre and Gauss-Legendre rules at 128 and 256 nodes.',
        "",
        f"Generated from scipy {scipy.__version__} by ``python tools/gen_gauss_rules.py``;",
        "do not edit.  ``RULES[kind][n]`` is ``(nodes, weights)``, each a string of",
        "whitespace-separated ``float.hex`` values of the doubles that",
        "``scipy.special.roots_laguerre`` / ``roots_legendre`` returns, so",
        "``float.fromhex`` rebuilds scipy's bits.",
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
