"""Command-line front end: evaluate, verify, and export tables and curves.

Every command supports ``--format {csv,json}`` and ``--output PATH``.
CSV output has a single header row and LF line endings; its cells are
floats rendered as %.12e, ints, bools as true/false, and strings.  JSON
output is a single top-level object carrying ``schema_version``.  Exit
codes: 0 success, 1 usage or invalid input (including a non-finite value
about to be emitted or a failed evaluation), 2 verification failure.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from .errors import ConvergenceError, EvaluationError
from .hydrogen import (
    ModelParams,
    QuantumNumbers,
    energy_level,
    full_wavefunction,
    probability_density_radial,
    radial_wavefunction,
)
from .reference import PSI_CLOSED_FORMS, RADIAL_CLOSED_FORMS
from .verification import run_verification, tilt_perturbation

DEFAULT_ALPHAS = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


_FLOAT = "%.12e"


def _column(values):
    """CSV printf spec, cells and first non-finite index of one column.

    A column holds values of one type: floats print as %.12e and are checked
    for non-finite values as one array, bools print as true or false, ints
    as %d and strings as they are.  Any other column is a programming error.
    """
    kinds = set(map(type, values))
    if kinds == {float}:
        bad = np.flatnonzero(~np.isfinite(np.array(values)))
        return _FLOAT, values, int(bad[0]) if bad.size else None
    if kinds == {bool}:
        return "%s", ["true" if v else "false" for v in values], None
    if kinds == {int}:
        return "%d", values, None
    if kinds == {str}:
        return "%s", values, None
    names = sorted(k.__name__ for k in kinds)
    raise TypeError(f"a column holds one of float, bool, int or str, got {names}")


def _emit(command: str, columns, rows, fmt: str, output: Optional[str]) -> None:
    cols = [_column(values) for values in zip(*rows)]
    bad = [(i, j) for j, (_, _, i) in enumerate(cols) if i is not None]
    if bad:
        i, j = min(bad)  # the first in row order
        raise _UsageError(f"refusing to emit non-finite {columns[j]}={rows[i][j]!r} (row {rows[i]})")
    if fmt == "csv":
        line = ",".join(spec for spec, _, _ in cols)
        lines = [",".join(columns)]
        lines.extend(line % row for row in zip(*(cells for _, cells, _ in cols)))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "schema_version": 1,
            "command": command,
            "columns": list(columns),
            "rows": [[float(_FLOAT % v) if type(v) is float else v for v in row] for row in rows],
        }
        text = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    _write(text, output)


def _write(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", default=None, help="write to file instead of stdout")


def _add_r_b(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r-b", type=float, default=1.0, help="alpha-Bohr radius (default: 1, natural units)")


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise _UsageError(message)


def _formed(what: str, evaluate):
    """evaluate(), with a float overflow or division by zero named as ``what``.

    The closed forms and the CLI's own angle arithmetic run in Python
    floats, which raise where numpy would give inf.
    """
    try:
        return evaluate()
    except (OverflowError, ZeroDivisionError) as exc:
        raise _UsageError(f"{what} cannot be formed ({exc})") from None


def _angles_at_order(what: str, evaluate) -> list:
    """The angles c**(1/alpha) that ``evaluate`` forms from classical angles c.

    One that rounds to 0 or inf no longer has c as its alpha-th power, so
    it is refused as a usage error naming ``what``.
    """
    angles = _formed(what, evaluate)
    bad = next((v for v in angles if not 0.0 < v < math.inf), None)
    if bad is not None:
        raise _UsageError(f"{what}: {bad!r} is not a finite positive double")
    return angles


def _where(qn: QuantumNumbers, options: str) -> str:
    return f"state (n, l, m) = ({qn.n}, {qn.l}, {qn.m_l}) at {options}"


def cmd_energy(args) -> int:
    _require(bool(args.alpha_list), "alpha list must not be empty")
    _require(args.n_max >= 1, f"--n-max must be >= 1, got {args.n_max}")
    rows = []
    for alpha in args.alpha_list:
        for n in range(1, args.n_max + 1):
            rows.append([alpha, n, energy_level(n, alpha)])
    _emit("energy", ["alpha", "n", "energy_eV"], rows, args.format, args.output)
    return 0


def cmd_density(args) -> int:
    _require(bool(args.alpha_list), "alpha list must not be empty")
    _require(args.points >= 1, f"--points must be >= 1, got {args.points}")
    qn = QuantumNumbers(args.n, args.l)
    grid = np.linspace(0.0, args.r_max, args.points + 1)[1:]
    rows = []
    for alpha in args.alpha_list:
        curve = probability_density_radial(qn, ModelParams(alpha, args.r_b), grid)
        rows.extend(
            [alpha, args.n, args.l, r, d]
            for r, d in zip(curve.r.tolist(), curve.values.tolist())
        )
    _emit("density", ["alpha", "n", "l", "r", "density"], rows, args.format, args.output)
    return 0


_TABLE_GRID = np.linspace(0.2, 15.0, 50)
_TABLE_COLUMNS = [
    "which", "alpha", "n", "l", "m_l", "r", "general_re", "general_im",
    "closed_re", "closed_im", "abs_deviation", "state_max_deviation",
]


def cmd_table(args) -> int:
    grid = _TABLE_GRID
    # the general formula goes first, so that the library's DomainError names
    # the factor of a constant that leaves the doubles
    if args.which == "radial":
        states = [QuantumNumbers(n, l) for (n, l) in sorted(RADIAL_CLOSED_FORMS)]

        def pair(qn, params, where):
            general = radial_wavefunction(qn, params, grid)
            closed_form = RADIAL_CLOSED_FORMS[qn.n, qn.l]
            a, rb = params.alpha.value, params.r_b_alpha
            return general, _formed(f"the closed form of {where}", lambda: closed_form(a, rb, grid))
    else:
        states = [QuantumNumbers(*state) for state in sorted(PSI_CLOSED_FORMS)]

        def pair(qn, params, where):
            a, rb = params.alpha.value, params.r_b_alpha
            # fixed angles with theta^alpha, phi^alpha inside the classical ranges
            theta, phi = _angles_at_order(
                f"the angles 1.1**(1/alpha), 0.7**(1/alpha) of {where}",
                lambda: (1.1 ** (1.0 / a), 0.7 ** (1.0 / a)),
            )
            general = full_wavefunction(qn, params, grid, theta, phi)
            closed_form = PSI_CLOSED_FORMS[qn.n, qn.l, qn.m_l]
            return general, _formed(
                f"the closed form of {where}", lambda: closed_form(a, rb, grid, theta, phi)
            )

    rows = []
    for alpha in args.alpha_list:
        params = ModelParams(alpha, args.r_b)
        for qn in states:
            where = _where(qn, f"--alpha-list value {alpha!r}, --r-b {args.r_b!r}")
            general, closed = (np.asarray(v, dtype=complex) for v in pair(qn, params, where))
            dev = np.abs(general - closed)
            state_max = float(np.max(dev))
            rows.extend(
                [args.which, alpha, qn.n, qn.l, qn.m_l, *values, state_max]
                for values in zip(
                    grid.tolist(), general.real.tolist(), general.imag.tolist(),
                    closed.real.tolist(), closed.imag.tolist(), dev.tolist(),
                )
            )
    _emit("table", _TABLE_COLUMNS, rows, args.format, args.output)
    return 0


def cmd_verify(args) -> int:
    perturbation = tilt_perturbation() if args.inject_fault else None
    report = run_verification(args.level, perturbation=perturbation)
    if args.format == "csv":
        columns = ["name", "measured", "threshold", "comparison", "passed"]
        rows = [
            [c["name"], c["measured"], c["threshold"], c["comparison"], c["passed"]]
            for c in report["checks"]
        ]
        _emit("verify", columns, rows, "csv", args.output)
    else:
        _write(json.dumps(report, indent=2) + "\n", args.output)
    return 0 if report["passed"] else 2


def cmd_slice(args) -> int:
    _require(args.points >= 1, f"--points must be >= 1, got {args.points}")
    _require(args.extent > 0, f"--extent must be > 0, got {args.extent}")
    qn = QuantumNumbers(args.n, args.l, args.m)
    params = ModelParams(args.alpha, args.r_b)
    a = params.alpha.value
    # cell-centered grid over [-extent, extent]^2; x transverse, y along the
    # polar axis; the half-plane phi^alpha = 0
    step = 2.0 * args.extent / args.points
    coords = (-args.extent + (np.arange(args.points) + 0.5) * step).tolist()
    points = list(itertools.product(coords, coords))  # (y, x), row by row
    # r and theta stay in scalar libm math, point by point: numpy's SIMD
    # hypot, arctan2 and power can differ from libm in the last bit
    r = np.array([max(math.hypot(x, y), 1e-12) for y, x in points])
    # classical polar angle in [0, pi], kept off the poles, then ^(1/alpha)
    inv = 1.0 / a
    theta = np.array(_angles_at_order(
        f"the polar angles theta_c**(1/alpha) of {_where(qn, f'--alpha {args.alpha!r}')}",
        lambda: [min(max(math.atan2(abs(x), y), 1e-9), math.pi - 1e-9) ** inv for y, x in points],
    ))
    psi = full_wavefunction(qn, params, r, theta, 0.0)
    rows = [[x, y, abs(p) ** 2] for (y, x), p in zip(points, psi.tolist())]
    _emit("slice", ["x", "y", "psi_sq"], rows, args.format, args.output)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="confhydro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("energy", help="energy levels per quantum number and order")
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--alpha-list", type=float, nargs="*", default=DEFAULT_ALPHAS)
    _add_common(p)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("density", help="radial probability density curves")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--alpha-list", type=float, nargs="*", default=DEFAULT_ALPHAS)
    p.add_argument("--r-max", type=float, default=20.0)
    p.add_argument("--points", type=int, default=400)
    _add_common(p)
    _add_r_b(p)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("table", help="published closed forms vs the general formulas")
    p.add_argument("--which", choices=["radial", "psi"], required=True)
    p.add_argument("--alpha-list", type=float, nargs="*", default=[0.5, 0.75, 1.0])
    _add_common(p)
    _add_r_b(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run the certification battery")
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help="perturb the radial solution (negative control; must exit 2)",
    )
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("slice", help="|psi|^2 on a planar slice grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--extent", type=float, default=20.0)
    p.add_argument("--points", type=int, default=100)
    _add_common(p)
    _add_r_b(p)
    p.set_defaults(func=cmd_slice)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # overflow shows up as a non-finite value, which _emit refuses
        with np.errstate(all="ignore"):
            return args.func(args)
    except (
        _UsageError, ValueError, EvaluationError, ConvergenceError, OverflowError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; not an error
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
