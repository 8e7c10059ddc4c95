"""Correctness gates: one per operation the benchmark runs.

Each gate returns a list of problems; an empty list means the output is
correct.  Gates take the program's raw output (exit code and text for CLI
commands, arrays or numbers for library calls) plus whatever reference the
benchmark computed, so the tests can feed them corrupted copies.
"""
from __future__ import annotations

import json
import math

import numpy as np

VERIFY_CHECKS = (
    "classical_limit_wavefunctions",
    "classical_limit_energies",
    "radial_normalization",
    "laguerre_integral_identity",
    "rodrigues_oracle_equivalence",
    "radial_ode_residual",
    "u_ode_residual",
    "laguerre_ode_residual",
    "angular_ode_residual",
    "negative_control_residual",
)
# CSV floats are printed as %.12e (13 significant digits), so a value read
# back differs from the one computed by at most 5e-13 relative
EXPORT_RTOL = 1e-12
TABLE_TOL = 1e-12
GRID_TOL = 1e-12
NORM_TOL = 1e-8
ENERGY_COLUMNS = ["alpha", "n", "energy_eV"]
DENSITY_COLUMNS = ["alpha", "n", "l", "r", "density"]
SLICE_COLUMNS = ["x", "y", "psi_sq"]
# closed forms per table, each printed on a 50-point r grid
TABLE_ROWS_PER_ALPHA = {"radial": 6 * 50, "psi": 4 * 50}


class GateError(ValueError):
    """The output could not be parsed into the expected shape."""


def _reject_constant(name):
    raise GateError(f"non-standard JSON constant {name}")


def parse_json_strict(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def parse_csv(text: str):
    """Header and rows of the CLI's CSV (single header, LF endings)."""
    if not text.endswith("\n") or "\r" in text:
        raise GateError("CSV must end with LF and contain no CR")
    lines = text[:-1].split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise GateError(f"row {i} has {len(row)} fields, header has {len(header)}")
    return header, rows


def parse_table(text: str, fmt: str):
    """Columns and rows from CSV or JSON CLI output."""
    if fmt == "csv":
        return parse_csv(text)
    doc = parse_json_strict(text)
    if doc.get("schema_version") != 1:
        raise GateError("missing or unexpected schema_version")
    return doc["columns"], doc["rows"]


def _floats(rows, col: int) -> np.ndarray:
    return np.array([float(r[col]) for r in rows], dtype=float)


def _exit_problem(exit_code: int, expected: int):
    if exit_code != expected:
        return [f"exit code {exit_code}, expected {expected}"]
    return []


def _guard(check):
    """Run a gate body, turning parse failures into problems."""
    try:
        return check()
    except (GateError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparseable output: {exc}"]


def close(got, want, rtol: float) -> bool:
    """Elementwise |got - want| <= rtol * |want|, all finite."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return False
    return bool(
        np.all(np.isfinite(got)) and np.all(np.abs(got - want) <= rtol * np.abs(want))
    )


def verify(exit_code: int, text: str, expected_exit: int) -> list[str]:
    """verify: the expected exit code, every check named, verdicts consistent."""

    def check():
        problems = _exit_problem(exit_code, expected_exit)
        header, rows = parse_csv(text)
        if header != ["name", "measured", "threshold", "comparison", "passed"]:
            raise GateError(f"unexpected header {header}")
        names = [r[0] for r in rows]
        missing = [c for c in VERIFY_CHECKS if c not in names]
        if missing:
            problems.append(f"checks missing: {missing}")
        verdicts = [r[4] for r in rows]
        if any(v not in ("true", "false") for v in verdicts):
            problems.append("passed column is not true/false")
        all_passed = all(v == "true" for v in verdicts)
        if all_passed != (expected_exit == 0):
            problems.append(f"verdicts {verdicts} disagree with exit {expected_exit}")
        return problems

    return _guard(check)


def energy(exit_code: int, text: str, alphas, n_max: int) -> list[str]:
    """energy: one row per (alpha, n), values equal the closed form."""

    def check():
        problems = _exit_problem(exit_code, 0)
        header, rows = parse_csv(text)
        if header != ENERGY_COLUMNS:
            raise GateError(f"unexpected header {header}")
        if len(rows) != len(alphas) * n_max:
            return problems + [f"{len(rows)} rows, expected {len(alphas) * n_max}"]
        a = _floats(rows, 0)
        n = _floats(rows, 1)
        want_a = np.repeat(np.asarray(alphas, dtype=float), n_max)
        want_n = np.tile(np.arange(1, n_max + 1, dtype=float), len(alphas))
        want_e = -(13.6**want_a) / (2.0 ** (1.0 - want_a) * want_a**2 * want_n**2)
        if not (close(a, want_a, EXPORT_RTOL) and np.array_equal(n, want_n)):
            problems.append("alpha or n columns differ from the request")
        if not close(_floats(rows, 2), want_e, EXPORT_RTOL):
            problems.append("energies differ from -(13.6)^a / (2^(1-a) a^2 n^2)")
        return problems

    return _guard(check)


def density(
    exit_code: int, text: str, fmt: str, r_ref, density_ref
) -> list[str]:
    """density: rows match the in-process probability_density_radial."""

    def check():
        problems = _exit_problem(exit_code, 0)
        header, rows = parse_table(text, fmt)
        if list(header) != DENSITY_COLUMNS:
            raise GateError(f"unexpected header {header}")
        if len(rows) != len(r_ref):
            return problems + [f"{len(rows)} rows, expected {len(r_ref)}"]
        if not close(_floats(rows, 3), r_ref, EXPORT_RTOL):
            problems.append("r column differs from the grid")
        if not close(_floats(rows, 4), density_ref, EXPORT_RTOL):
            problems.append("density differs from probability_density_radial")
        return problems

    return _guard(check)


def table(exit_code: int, text: str, which: str, n_alphas: int) -> list[str]:
    """table: expected rows, finite, each state within 1e-12 of its closed form.

    The deviation is scaled by max(1, max |closed form|) over the state, as
    in the closed-form reproduction acceptance test.
    """

    def check():
        problems = _exit_problem(exit_code, 0)
        header, rows = parse_csv(text)
        expected = n_alphas * TABLE_ROWS_PER_ALPHA[which]
        if len(rows) != expected:
            return problems + [f"{len(rows)} rows, expected {expected}"]
        col = {name: i for i, name in enumerate(header)}
        values = np.array(
            [[float(r[i]) for i in range(5, len(header))] for r in rows], dtype=float
        )
        if not np.all(np.isfinite(values)):
            problems.append("non-finite value")
        v = {name: values[:, i - 5] for name, i in col.items() if i >= 5}
        general = v["general_re"] + 1j * v["general_im"]
        closed = v["closed_re"] + 1j * v["closed_im"]
        recomputed = np.abs(general - closed)
        states: dict = {}
        for i, row in enumerate(rows):
            key = (row[col["alpha"]], row[col["n"]], row[col["l"]], row[col["m_l"]])
            states.setdefault(key, []).append(i)
        for key, idx in states.items():
            scale = max(1.0, float(np.max(np.abs(closed[idx]))))
            reported = float(np.max(v["state_max_deviation"][idx]))
            if not reported <= TABLE_TOL * scale:
                problems.append(f"state {key} deviates by {reported:.3e}")
            # each printed value carries up to 5e-13 relative rounding
            if not np.max(recomputed[idx]) <= (TABLE_TOL + 1e-12) * scale:
                problems.append(f"state {key}: printed values deviate")
        return problems

    return _guard(check)


def slice_(exit_code: int, text: str, points: int) -> list[str]:
    """slice: points^2 rows, finite, nonnegative |psi|^2."""

    def check():
        problems = _exit_problem(exit_code, 0)
        header, rows = parse_csv(text)
        if header != SLICE_COLUMNS:
            raise GateError(f"unexpected header {header}")
        if len(rows) != points * points:
            return problems + [f"{len(rows)} rows, expected {points * points}"]
        values = np.array(rows, dtype=float)
        if not np.all(np.isfinite(values)):
            problems.append("non-finite value")
        if np.any(values[:, 2] < 0):
            problems.append("negative |psi|^2")
        return problems

    return _guard(check)


def grid(arrays: dict, reference_chunks=()) -> list[str]:
    """grid: every array finite and equal to its closed form, where one exists.

    ``reference_chunks`` yields (slice, {name: closed-form values}); the
    deviation is scaled by max(1, max |closed form|) over the whole array.
    """
    problems = [
        f"{name}: non-finite value"
        for name, values in arrays.items()
        if not np.all(np.isfinite(values))
    ]
    if problems:
        return problems
    worst: dict = {}
    scale: dict = {}
    for sl, refs in reference_chunks:
        for name, ref in refs.items():
            dev = float(np.max(np.abs(arrays[name][sl] - ref)))
            worst[name] = max(worst.get(name, 0.0), dev)
            scale[name] = max(scale.get(name, 1.0), float(np.max(np.abs(ref))))
    return [
        f"{name}: differs from the closed form by {worst[name]:.3e}"
        for name in worst
        if not worst[name] <= GRID_TOL * scale[name]
    ]


def normalization(value: float) -> list[str]:
    """normalize: |N - 1| <= 1e-8."""
    if not (math.isfinite(value) and abs(value - 1.0) <= NORM_TOL):
        return [f"normalization {value!r} is not 1 within {NORM_TOL:g}"]
    return []


def split_pair(lower: float, upper: float) -> list[str]:
    """normalize: conf_integral(0, R) + conf_integral(R, inf) sums to 1."""
    total = lower + upper
    if not (math.isfinite(total) and abs(total - 1.0) <= NORM_TOL):
        return [f"split pair sums to {total!r}, not 1 within {NORM_TOL:g}"]
    return []
