"""One-token edits of the closed forms, and the runner that certifies each.

Each entry of ``MUTANTS`` edits one token of a closed form in a copy of the
package: ``old``, which occurs exactly once in ``file``, becomes ``new``.
It records the checks that ``verify --level quick`` fails with the edit, or
``SURVIVES`` where ``verify`` passes it at both levels: no check certifies
that factor yet (ROADMAP item 14 names the checks that would).  The method is
mutation adequacy (DeMillo, Lipton & Sayward, IEEE Computer 11(4), 1978).

``python tests/mutants.py`` runs ``verify --level quick`` and ``--level
full`` on each edit and prints the exit code and the failing checks of
each run.  An edit is caught at a level where ``verify`` exits non-zero.  It
exits 1 if an edit that the list does not name as a survivor survives a
level, and it prints each listed survivor that is now caught, or each caught
edit whose failing checks differ from the list, so that the list can be
brought up to date.  ``test_cli.py::TestVerifyCommand`` runs edits through
the same runner.
"""
from __future__ import annotations

import csv
import io
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "confhydro"
LEVELS = ("quick", "full")
SURVIVES = "survives"


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    fails: frozenset | str  # the checks that verify --level quick fails, or SURVIVES


MUTANTS = [
    # R's and u's shared alpha^(2l+2)
    Mutant("hydrogen.py", "a ** (2 * l + 2)", "a ** (2 * l + 1)", frozenset({"radial_normalization"})),
    # the density r^(2 alpha) |R|^2 edited to r^2 |R|^2; at the full level
    # verify exits 1 with a ConvergenceError at (1, 0), alpha 0.6
    Mutant("hydrogen.py", "np.where(R == 0.0, 1.0, x) ** (2.0 * a)", "np.where(R == 0.0, 1.0, x) ** 2.0",
           frozenset({"radial_normalization"})),
    # Y taking P_l^|m| for m < 0
    Mutant("hydrogen.py", "LegendreParams(qn.l, qn.m_l)", "LegendreParams(qn.l, abs(qn.m_l))",
           frozenset({"classical_limit_wavefunctions"})),
    # psi = R conj(Y) on the fused path
    Mutant("hydrogen.py", "radial(x) * angular(t, f)", "radial(x) * np.conj(angular(t, f))",
           frozenset({"classical_limit_wavefunctions"})),
    # u's d = 2 alpha edited to 2
    Mutant("hydrogen.py", "qn.l + 1, A, 2.0 * a, a", "qn.l + 1, A, 2.0, a",
           frozenset({"u_ode_residual", "u_radial_relation"})),
    # the angular constant's alpha^(2m-2) and (2 pi)^alpha
    Mutant("hydrogen.py", "a ** (2 * m - 2)", "a ** (2 * m - 1)", SURVIVES),
    Mutant("hydrogen.py", "(2.0 * math.pi) ** a", "(2.0 * math.pi) ** 1", SURVIVES),
    # the phase e^(i m phi^alpha) edited to e^(i m phi^alpha / alpha)
    Mutant("hydrogen.py", "np.exp(1j * m * y)", "np.exp(1j * m * y / a)", SURVIVES),
    # the energy denominator 2^(1-alpha) alpha^2 n^2, and the scale 13.6^alpha
    Mutant("hydrogen.py", "2.0 ** (1.0 - a) * a * a * v * v", "2.0 ** (1.0 - a) * a * a * a * v * v", SURVIVES),
    Mutant("hydrogen.py", "2.0 ** (1.0 - a) * a * a * v * v", "2.0 ** (1.0 - a) * a * a * v ** (1.0 + a)", SURVIVES),
    Mutant("hydrogen.py", "HYDROGEN_ENERGY_SCALE_EV**a", "HYDROGEN_ENERGY_SCALE_EV", SURVIVES),
    # u's constant k and its c = 1, which change u alone
    Mutant("hydrogen.py", "lambda factor: k, 1)", "lambda factor: 2 * k, 1)", frozenset({"u_radial_relation"})),
    Mutant("hydrogen.py", "lambda factor: k, 1)", "lambda factor: k, 2)", frozenset({"u_radial_relation"})),
]


def verify_mutant(directory, old, new, level):
    """(exit code, failing checks, stderr) of ``verify --level <level>`` on a
    copy, made in the empty ``directory``, of the package with ``old``, which must
    occur exactly once in it, edited to ``new``."""
    sources = {p.name: p.read_text() for p in PACKAGE.rglob("*.py")}
    counts = {name: text.count(old) for name, text in sources.items() if old in text}
    assert list(counts.values()) == [1], counts
    copy = pathlib.Path(directory) / "confhydro"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    [name] = counts
    (copy / name).write_text(sources[name].replace(old, new))
    done = subprocess.run(
        [sys.executable, "-m", "confhydro.cli", "verify", "--level", level],
        cwd=directory, env=dict(os.environ, PYTHONPATH=str(directory)), capture_output=True, text=True,
        timeout=120,
    )
    rows = list(csv.DictReader(io.StringIO(done.stdout))) if done.returncode == 2 else []
    return done.returncode, {row["name"] for row in rows if row["passed"] == "false"}, done.stderr


def _failing_checks_of_mutant(directory, old, new, level="quick"):
    """The checks that ``verify --level <level>`` fails on a copy of the
    package with ``old``, which must occur exactly once in it, edited to ``new``."""
    code, failing, stderr = verify_mutant(directory, old, new, level)
    assert code == 2, stderr
    return failing


def main() -> int:
    escaped = []
    for mutant in MUTANTS:
        codes = []
        for level in LEVELS:
            with tempfile.TemporaryDirectory() as directory:
                code, failing, stderr = verify_mutant(directory, mutant.old, mutant.new, level)
            codes.append(code)
            said = ", ".join(sorted(failing)) or (stderr.strip().splitlines() or ["passes"])[-1]
            print(f"{level:5}  exit {code}  {mutant.old!r} -> {mutant.new!r}: {said}")
            if level == "quick" and code and mutant.fails not in (SURVIVES, failing):
                print(f"       the list records {', '.join(sorted(mutant.fails))}")
        if mutant.fails == SURVIVES and any(codes):
            print("       caught, though listed as a survivor: trim it from the list")
        elif mutant.fails != SURVIVES and not all(codes):
            escaped.append(mutant)
    survivors = sum(m.fails == SURVIVES for m in MUTANTS)
    print(f"{len(MUTANTS)} edits: {len(MUTANTS) - survivors} to be caught, {survivors} listed as survivors")
    for mutant in escaped:
        print(f"survives, though not listed as a survivor: {mutant.old!r} -> {mutant.new!r}")
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main())
