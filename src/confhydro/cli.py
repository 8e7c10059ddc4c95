"""Command-line front end: evaluate, verify, and export tables and curves.

Every command supports ``--format {csv,json}`` and ``--output PATH``.
CSV output has a single header row and LF line endings; its cells are
floats rendered as %.12e, ints, bools as true/false, and strings.  JSON
output is a single top-level object: the envelope ``schema_version`` and
``command``, then the body.  A table command's body is ``columns`` and
``rows``, with each float rounded to 13 significant digits; ``verify``'s is
the report that ``run_verification`` returns (``level``, ``passed``,
``elapsed_seconds`` and ``checks``), with its floats unrounded.  Exit
codes: 0 success, 1 usage or invalid input (including a non-finite value
about to be emitted or a failed evaluation), 2 verification failure.
"""
from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import itertools
import json
import math
import os
import stat
import sys
from typing import Optional, Sequence

import numpy as np

from .calculus import _shown
from .errors import ConvergenceError, DomainError, EvaluationError
from .hydrogen import (
    ModelParams,
    QuantumNumbers,
    energy_level,
    full_wavefunction,
    probability_density_radial,
    radial_wavefunction,
)
from .reference import PSI_CLOSED_FORMS, RADIAL_CLOSED_FORMS
from .verification import run_verification

DEFAULT_ALPHAS = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
# a row costs 0.37-0.54 KB of peak memory and 4-8 us (energy, density and
# slice at 6 * 10^5 to 6 * 10^6 rows on a 2-core machine), so an export of
# this many rows takes at most about 5.5 GB and a minute; each command counts
# its rows from its options and refuses a larger export before it computes
_MAX_ROWS = 10**7


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


def _emit(command: str, columns, rows, fmt: str, output: Optional[str], _body=None) -> None:
    """Write one export: CSV of ``rows``, or a JSON object of the envelope
    (``schema_version``, ``command``) and ``_body``, which defaults to the
    columns and the rows with each float rounded to 13 significant digits."""
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
        body = _body or {
            "columns": list(columns),
            "rows": [[float(_FLOAT % v) if type(v) is float else v for v in row] for row in rows],
        }
        text = json.dumps({"schema_version": 1, "command": command, **body}, indent=2) + "\n"
    _write(text, output)


def _unwritable(output: str, reason: str) -> _UsageError:
    return _UsageError(f"--output {output!r} cannot be written: {reason}")


def _check_output(output: Optional[str]) -> None:
    """Refuse, before a command computes anything, an --output that open()
    would refuse for naming a directory, or for a parent that is missing or
    is not a directory; nothing is created.  Any other failure to open it
    surfaces in ``_write``, after the command."""
    if not output:
        return
    if os.path.isdir(output):
        raise _unwritable(output, os.strerror(errno.EISDIR))
    try:  # the directory open() creates the file in: "a/b/" names b in a
        mode = os.stat(os.path.dirname(output.rstrip(os.sep)) or os.curdir).st_mode
    except OSError as exc:
        raise _unwritable(output, exc.strerror) from None
    if not stat.S_ISDIR(mode):
        raise _unwritable(output, os.strerror(errno.ENOTDIR))


def _write(text: str, output: Optional[str]) -> None:
    if output:
        try:
            with open(output, "w", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:  # a failure at open writes nothing
            raise _unwritable(output, exc.strerror) from None
    else:
        try:
            if sys.stdout is None:  # the process started with file descriptor 1 closed
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.write(text)
            sys.stdout.flush()  # a full disk fails here, not after main returns
        except BrokenPipeError:
            raise  # main's: a reader that stopped early is not an error
        except OSError as exc:
            if sys.stdout is not None:  # drop the bytes the failed flush kept, or the exit flush fails again
                with contextlib.suppress(OSError):
                    sys.stdout.close()
            raise _UsageError(f"stdout cannot be written: {exc.strerror}") from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", default=None, help="write to file instead of stdout")


def _add_r_b(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r-b", type=float, default=1.0, help="alpha-Bohr radius (default: 1, natural units)")


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise _UsageError(message)


def _require_rows(rows: int, options: str) -> None:
    _require(rows <= _MAX_ROWS, f"{options} makes {_shown(rows, str)} rows, past the ceiling of {_MAX_ROWS} rows")


def _formed(what: str, evaluate):
    """evaluate(), with a float overflow or division by zero named as ``what``.

    The CLI's own angle arithmetic runs in Python floats, which raise where
    numpy would give inf, and a closed form refuses such a value with a
    ``DomainError``.
    """
    try:
        return evaluate()
    except (OverflowError, ZeroDivisionError, DomainError) as exc:
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


def cmd_energy(args) -> tuple:
    _require(bool(args.alpha_list), "alpha list must not be empty")
    _require(args.n_max >= 1, f"--n-max must be >= 1, got {args.n_max}")
    alphas = len(args.alpha_list)
    _require_rows(alphas * args.n_max, f"--n-max {args.n_max} over {alphas} alphas")
    rows = []
    for alpha in args.alpha_list:
        for n in range(1, args.n_max + 1):
            rows.append([alpha, n, energy_level(n, alpha)])
    return ["alpha", "n", "energy_eV"], rows


def cmd_density(args) -> tuple:
    _require(bool(args.alpha_list), "alpha list must not be empty")
    _require(args.points >= 1, f"--points must be >= 1, got {args.points}")
    alphas = len(args.alpha_list)
    _require_rows(alphas * args.points, f"--points {args.points} over {alphas} alphas")
    _require(math.isfinite(args.r_max), f"--r-max must be finite, got {args.r_max}")
    qn = QuantumNumbers(args.n, args.l)
    # linspace forms points * step, which overflows at the top of the doubles, then sets that point to --r-max
    with np.errstate(over="ignore"):
        grid = np.linspace(0.0, args.r_max, args.points + 1)
    # deep in the subnormals, the steps of a positive --r-max round to 0 or repeat
    _require(args.r_max <= 0.0 or (grid[1:] > grid[:-1]).all(),
             f"--r-max {args.r_max!r} is too small for --points {args.points}: the grid steps underflow")
    rows = []
    for alpha in args.alpha_list:
        curve = probability_density_radial(qn, ModelParams(alpha, args.r_b), grid[1:])
        rows.extend(
            [alpha, args.n, args.l, r, d]
            for r, d in zip(curve.r.tolist(), curve.values.tolist())
        )
    return ["alpha", "n", "l", "r", "density"], rows


_TABLE_GRID = np.linspace(0.2, 15.0, 50)
_TABLE_COLUMNS = [
    "which", "alpha", "n", "l", "m_l", "r", "general_re", "general_im",
    "closed_re", "closed_im", "abs_deviation", "state_max_deviation",
]


def cmd_table(args) -> tuple:
    _require(bool(args.alpha_list), "alpha list must not be empty")
    grid = _TABLE_GRID
    psi = args.which == "psi"
    forms = PSI_CLOSED_FORMS if psi else RADIAL_CLOSED_FORMS
    alphas = len(args.alpha_list)
    _require_rows(alphas * len(forms) * grid.size,
                  f"--alpha-list of {alphas} values over {len(forms)} states and {grid.size} radii")
    rows = []
    for alpha in args.alpha_list:
        params = ModelParams(alpha, args.r_b)
        a, rb = params.alpha, params.r_b_alpha
        for state in sorted(forms):
            qn = QuantumNumbers(*state)
            where = _where(qn, f"--alpha-list value {alpha!r}, --r-b {args.r_b!r}")
            # the general formula goes first, so that the library's DomainError
            # names the factor of a constant that leaves the doubles
            if psi:
                # fixed angles with theta^alpha, phi^alpha inside the classical ranges
                angles = _angles_at_order(
                    f"the angles 1.1**(1/alpha), 0.7**(1/alpha) of {where}",
                    lambda: (1.1 ** (1.0 / a), 0.7 ** (1.0 / a)),
                )
                general = full_wavefunction(qn, params, grid, *angles)
            else:
                angles = ()
                general = radial_wavefunction(qn, params, grid)
            closed = _formed(f"the closed form of {where}", lambda: forms[state](a, rb, grid, *angles))
            general, closed = (np.asarray(v, dtype=complex) for v in (general, closed))
            dev = np.abs(general - closed)
            state_max = float(np.max(dev))
            rows.extend(
                [args.which, alpha, qn.n, qn.l, qn.m_l, *values, state_max]
                for values in zip(
                    grid.tolist(), general.real.tolist(), general.imag.tolist(),
                    closed.real.tolist(), closed.imag.tolist(), dev.tolist(),
                )
            )
    return _TABLE_COLUMNS, rows


def cmd_verify(args) -> tuple:
    report = run_verification(args.level, inject_fault=args.inject_fault)
    checks = report["checks"]
    return list(checks[0]), [list(c.values()) for c in checks], report


def cmd_slice(args) -> tuple:
    _require(args.points >= 1, f"--points must be >= 1, got {args.points}")
    _require_rows(args.points**2, f"--points {args.points} squared")
    _require(args.extent > 0, f"--extent must be > 0, got {args.extent}")
    _require(math.isfinite(args.extent), f"--extent must be finite, got {args.extent}")
    _require(math.isfinite(2.0 * args.extent),
             f"--extent must be at most {sys.float_info.max / 2!r}, half the largest double, got {args.extent!r}")
    qn = QuantumNumbers(args.n, args.l, args.m)
    params = ModelParams(args.alpha, args.r_b)
    a = params.alpha
    # cell-centered grid over [-extent, extent]^2; x transverse, y along the
    # polar axis; the half-plane phi^alpha = 0
    step = 2.0 * args.extent / args.points
    coords = -args.extent + (np.arange(args.points) + 0.5) * step
    # deep in the subnormals, neighbouring cell centres round to one double
    _require((coords[1:] > coords[:-1]).all(),
             f"--extent {args.extent!r} is too small for --points {args.points}: the cell centres underflow")
    points = list(itertools.product(coords.tolist(), repeat=2))  # (y, x), row by row
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
    return ["x", "y", "psi_sq"], rows


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
        _check_output(args.output)
        # each command returns its columns and rows, and verify its report,
        # which is its JSON body; _emit writes every export
        columns, rows, *report = args.func(args)
        _emit(args.command, columns, rows, args.format, args.output, *report)
        return 0 if all(r["passed"] for r in report) else 2
    except (
        _UsageError, ValueError, EvaluationError, ConvergenceError, OverflowError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the allocation; Python's own is empty
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; not an error
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


def run() -> int:
    """The process entry point: ``main()``, then the heap frozen for exit.

    Interpreter shutdown runs full garbage collections, and in a CLI process
    they only walk what numpy and scipy.special built at import, which the
    operating system frees anyway; frozen objects are left out of them.
    atexit handlers still run and stdout is still flushed.  In-process
    callers use ``main``, which never freezes.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
