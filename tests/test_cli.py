import csv
import errno
import gc
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from confhydro import cli, hydrogen
from confhydro.calculus import conf_integral
from confhydro.cli import main
from confhydro.errors import ConvergenceError, EvaluationError
from confhydro.hydrogen import ModelParams, QuantumNumbers, energy_level, full_wavefunction
from mutants import MUTANTS, PACKAGE, _failing_checks_of_mutant


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    return rows[0], rows[1:]


class TestEnergyCommand:
    def test_csv_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "energy", "--n-max", "3", "--alpha-list", "1.0"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["alpha", "n", "energy_eV"]
        assert len(rows) == 3
        got = [float(r[2]) for r in rows]
        assert got == pytest.approx([-13.6, -3.4, -13.6 / 9.0], rel=1e-12)

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "energy", "--n-max", "2", "--alpha-list", "0.5", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["command"] == "energy"
        assert payload["columns"] == ["alpha", "n", "energy_eV"]
        assert payload["rows"][0][2] == pytest.approx(energy_level(1, 0.5), rel=1e-11)

    def test_float_rendering(self, capsys):
        _, out, _ = run_cli(capsys, "energy", "--n-max", "1", "--alpha-list", "1.0")
        _, rows = parse_csv(out)
        assert rows[0][2] == "-1.360000000000e+01"

    def test_lf_line_endings(self, capsys):
        _, out, _ = run_cli(capsys, "energy", "--n-max", "1", "--alpha-list", "1.0")
        assert "\r" not in out
        assert out.endswith("\n")

    def test_empty_alpha_list_is_usage_error(self, capsys):
        for command in (
            ["energy"],
            ["density", "--n", "1", "--l", "0"],
            ["table", "--which", "radial"],
            ["table", "--which", "psi"],
        ):
            code, out, err = run_cli(capsys, *command, "--alpha-list")
            assert (code, out, err) == (1, "", "error: alpha list must not be empty\n"), command

    def test_repeat_invocations_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "energy", "--n-max", "5")
        _, out2, _ = run_cli(capsys, "energy", "--n-max", "5")
        assert out1 == out2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "energy.csv"
        code, out, _ = run_cli(
            capsys, "energy", "--n-max", "2", "--output", str(target)
        )
        assert code == 0 and out == ""
        _, piped, _ = run_cli(capsys, "energy", "--n-max", "2")
        assert target.read_text() == piped


class TestDensityCommand:
    def test_curve_integrates_to_one(self, capsys):
        # re-quadrature of the emitted samples by the trapezoidal rule in the
        # substituted coordinate; the tail beyond r_max is negligible here
        alpha = 0.8
        code, out, _ = run_cli(
            capsys,
            "density",
            "--n",
            "1",
            "--l",
            "0",
            "--alpha-list",
            str(alpha),
            "--r-max",
            "30",
            "--points",
            "3000",
        )
        assert code == 0
        _, rows = parse_csv(out)
        r = np.array([float(row[3]) for row in rows])
        d = np.array([float(row[4]) for row in rows])
        u = r**alpha / alpha
        total = np.trapezoid(d, u)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_multiple_alphas(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", "--n", "2", "--l", "1", "--alpha-list", "0.5", "0.9",
            "--points", "10",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 20
        assert {row[0] for row in rows} == {
            "5.000000000000e-01",
            "9.000000000000e-01",
        }

    def test_invalid_quantum_numbers(self, capsys):
        code, _, err = run_cli(capsys, "density", "--n", "1", "--l", "1")
        assert code == 1
        assert "error" in err

    def test_densities_nonnegative(self, capsys):
        _, out, _ = run_cli(
            capsys, "density", "--n", "3", "--l", "0", "--alpha-list", "0.6",
            "--points", "50",
        )
        _, rows = parse_csv(out)
        assert all(float(row[4]) >= 0.0 for row in rows)


class TestTableCommand:
    @pytest.mark.parametrize("which", ["radial", "psi"])
    def test_deviation_column_is_tiny(self, capsys, which):
        code, out, _ = run_cli(capsys, "table", "--which", which)
        assert code == 0
        header, rows = parse_csv(out)
        i = header.index("state_max_deviation")
        assert max(float(row[i]) for row in rows) <= 1e-12

    def test_radial_covers_six_states(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--which", "radial", "--alpha-list", "0.75")
        _, rows = parse_csv(out)
        states = {(row[2], row[3]) for row in rows}
        assert len(states) == 6

    def test_which_is_required(self, capsys):
        code, _, _ = run_cli(capsys, "table")
        assert code == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: f"{m.old} -> {m.new}")
def test_each_mutant_edits_one_place_in_its_file(mutant):
    # an edit of the harness's list whose token was rewritten or repeated
    # would apply nowhere, or to a place it does not name
    assert (PACKAGE / mutant.file).read_text().count(mutant.old) == 1


class TestVerifyCommand:
    def test_quick_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--level", "quick", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["schema_version"] == 1

    def test_csv_check_listing(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--level", "quick")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["name", "measured", "threshold", "comparison", "passed"]
        assert all(row[4] == "true" for row in rows)

    def test_json_output_file(self, capsys, tmp_path):
        target = tmp_path / "verify.json"
        code, out, _ = run_cli(
            capsys, "verify", "--level", "quick", "--format", "json", "--output", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_bytes().endswith(b"}\n")
        assert json.loads(target.read_text())["passed"] is True

    def test_injected_fault_exits_two(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--level", "quick", "--inject-fault", "--format", "json"
        )
        assert code == 2
        assert json.loads(out)["passed"] is False

    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_injected_fault_fails_the_same_checks_at_each_level(self, capsys, level):
        # as the "Console script" CI step runs it: the fault reaches the radial
        # and u certifiers, and the negative control's threshold follows them
        code, out, _ = run_cli(capsys, "verify", "--level", level, "--inject-fault", "--format", "csv")
        assert code == 2
        _, rows = parse_csv(out)
        failing = {row[0] for row in rows if row[4] == "false"}
        assert failing == {"radial_ode_residual", "u_ode_residual", "negative_control_residual"}
        assert len(rows) == 11

    @pytest.mark.parametrize(
        "old, new, failing",
        [
            # the density that `density` prints, r^(2 alpha) R^2, edited to r^2 R^2
            ("** (2.0 * a) * R * R", "** 2.0 * R * R", "radial_normalization"),
            # the Laguerre normalisation that R and u share, edited in its alpha power
            ("a ** (2 * l + 2)", "a ** (2 * l)", "radial_normalization"),
        ],
        ids=["density-exponent", "laguerre-norm-alpha-power"],
    )
    def test_radial_normalization_certifies_the_printed_density(self, tmp_path, old, new, failing):
        # each formula is written once, so an edit of it reaches the check
        # that certifies what the CLI prints
        assert _failing_checks_of_mutant(tmp_path, old, new) == {failing}

    def test_state_scale_is_written_once(self, tmp_path):
        # d = alpha^2 r_b n is formed once for R, the density, psi and R's
        # triple, so an edit of it reaches both the normalisation and the
        # ODE certifier (and, through the latter, the negative control)
        old, new = "a * a * params.r_b_alpha * qn.n", "a * params.r_b_alpha * qn.n"
        failing = _failing_checks_of_mutant(tmp_path, old, new)
        assert failing == {
            "radial_normalization", "radial_ode_residual", "u_radial_relation", "negative_control_residual",
        }

    def test_u_radial_relation_certifies_u_constant(self, tmp_path):
        # u's normalisation constant enters u alone, whose equation is
        # homogeneous in it: only R(r) = 2k u(rho) / rho^alpha sees it
        old, new = "lambda factor: k, 1)", "lambda factor: 2 * k, 1)"
        assert _failing_checks_of_mutant(tmp_path, old, new) == {"u_radial_relation"}


_CHECK_NAMES = [
    "classical_limit_wavefunctions", "classical_limit_energies", "radial_normalization",
    "laguerre_integral_identity", "rodrigues_oracle_equivalence", "radial_ode_residual",
    "u_ode_residual", "laguerre_ode_residual", "angular_ode_residual", "u_radial_relation",
    "negative_control_residual",
]


class TestEnvelope:
    """Every JSON export opens with one envelope, and verify's exit code
    follows its report in either format."""

    @pytest.mark.parametrize("argv", [
        ["energy", "--n-max", "2"],
        ["density", "--n", "2", "--l", "1", "--points", "5"],
        ["table", "--which", "radial"],
        ["verify", "--level", "quick"],
        ["slice", "--n", "2", "--l", "1", "--m", "1", "--points", "3"],
    ], ids=lambda argv: argv[0])
    def test_json_opens_with_the_envelope_once(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        keys = []  # every key of every object, at any depth

        def record(pairs):
            keys.extend(k for k, _ in pairs)
            return dict(pairs)

        doc = json.loads(out, object_pairs_hook=record)
        assert list(doc)[:2] == ["schema_version", "command"]
        assert (doc["schema_version"], doc["command"]) == (1, argv[0])
        assert keys.count("schema_version") == keys.count("command") == 1

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_failed_report_exits_2_and_is_written_whole(self, capsys, tmp_path, fmt):
        target = tmp_path / f"verify.{fmt}"
        code, out, err = run_cli(
            capsys, "verify", "--level", "quick", "--inject-fault", "--format", fmt, "--output", str(target)
        )
        assert (code, out, err) == (2, "", "")
        if fmt == "json":
            doc = json.loads(target.read_text())
            assert list(doc) == ["schema_version", "command", "level", "passed", "elapsed_seconds", "checks"]
            assert doc["passed"] is False
            checks = [list(c.values()) for c in doc["checks"]]
        else:
            header, checks = parse_csv(target.read_text())
            assert header == ["name", "measured", "threshold", "comparison", "passed"]
        assert [c[0] for c in checks] == _CHECK_NAMES
        # the control's threshold is 100 times the faulted radial residual, so it fails too
        failed = [c[0] for c in checks if c[4] in (False, "false")]
        assert failed == ["radial_ode_residual", "u_ode_residual", "negative_control_residual"]


class TestSliceCommand:
    def _grid(self, capsys, *extra):
        code, out, _ = run_cli(
            capsys,
            "slice",
            "--extent",
            "12",
            "--points",
            "20",
            *extra,
        )
        assert code == 0
        _, rows = parse_csv(out)
        pts = {
            (row[0], row[1]): float(row[2]) for row in rows
        }
        return rows, pts

    def test_axial_symmetry_for_m_zero(self, capsys):
        rows, pts = self._grid(capsys, "--n", "2", "--l", "1", "--m", "0", "--alpha", "0.8")
        for (x, y), v in pts.items():
            mirrored = pts[("%.12e" % (-float(x)), y)]
            assert v == pytest.approx(mirrored, rel=1e-10, abs=1e-300)

    def test_p_orbital_vanishes_on_polar_axis(self, capsys):
        # |m| = l = 1 carries sin(theta^alpha): at equal radius the density
        # near the polar axis must be far below the equatorial value
        rows, pts = self._grid(capsys, "--n", "2", "--l", "1", "--m", "1")
        coords = sorted({abs(float(row[0])) for row in rows})
        lo, hi = coords[0], coords[len(coords) // 2]
        key = lambda x, y: ("%.12e" % x, "%.12e" % y)
        polar = pts[key(lo, hi)]
        equatorial = pts[key(hi, lo)]
        assert polar < 1e-2 * equatorial

    def test_density_nonnegative(self, capsys):
        rows, pts = self._grid(capsys, "--n", "3", "--l", "2", "--m", "1", "--alpha", "0.6")
        assert all(v >= 0.0 for v in pts.values())


def slice_cells(alpha=1.0, extent=20.0, points=100):
    """(x, y, r, theta) of each cell, y outer, as the per-point loop had them."""
    step = 2.0 * extent / points
    coords = -extent + (np.arange(points) + 0.5) * step
    cells = []
    for y in coords:
        for x in coords:
            r = max(math.hypot(x, y), 1e-12)
            theta_c = min(max(math.atan2(abs(x), y), 1e-9), math.pi - 1e-9)
            cells.append((x, y, r, theta_c ** (1.0 / alpha)))
    return cells


def slice_oracle(n, l, m=0, alpha=1.0, extent=20.0, points=100, r_b=None):
    """CSV lines of ``slice`` by the per-point loop: one scalar psi per cell."""
    qn = QuantumNumbers(n, l, m)
    params = ModelParams(alpha) if r_b is None else ModelParams(alpha, r_b)
    lines = ["x,y,psi_sq"]
    for x, y, r, theta in slice_cells(alpha, extent, points):
        psi = full_wavefunction(qn, params, r, theta, 0.0)
        lines.append("%.12e,%.12e,%.12e" % (x, y, abs(psi) ** 2))
    return lines


def slice_argv(n, l, m=0, alpha=1.0, extent=20.0, points=100, r_b=None):
    argv = ["slice", "--n", str(n), "--l", str(l), "--m", str(m), "--alpha", str(alpha),
            "--extent", str(extent), "--points", str(points)]
    return argv if r_b is None else [*argv, "--r-b", str(r_b)]


class TestSliceMatchesPerPointLoop:
    """``slice`` evaluates psi in one array call; the rows must not change.

    The oracle calls ``full_wavefunction`` once per cell with scalars.  The
    wavefunctions run a scalar through the same array loops as an array, so
    every row must be byte-identical, whatever powers R and Y raise to.
    """

    STATES = {
        "origin-cell": dict(n=1, l=0, points=1),
        "s-state-odd-points": dict(n=3, l=0, alpha=0.6, extent=12.0, points=15),
        "m-zero-r_b": dict(n=2, l=1, alpha=0.8, extent=12.0, points=9, r_b=2.0),
        "m-negative": dict(n=3, l=2, m=-1, alpha=0.7, extent=15.0, points=11),
        "m-positive-r_b": dict(n=4, l=3, m=2, alpha=0.55, extent=10.0, points=13, r_b=2.0),
        "m-negative-wide": dict(n=4, l=3, m=-3, alpha=0.55, extent=9.0, points=31),
    }

    @pytest.mark.parametrize("name", sorted(STATES))
    def test_rows_match_the_per_point_loop(self, capsys, name):
        state = self.STATES[name]
        code, out, _ = run_cli(capsys, *slice_argv(**state))
        assert code == 0
        want = slice_oracle(**state)
        got = out.split("\n")
        assert got.pop() == "" and len(got) == len(want) == 1 + state["points"] ** 2
        assert got == want

    def test_coordinates_are_bit_identical(self, capsys, monkeypatch):
        # numpy's SIMD hypot, arctan2 and power differ from libm in the last
        # bit on some hosts, so r and theta must come from scalar math
        seen = []

        def spy(qn, params, r, theta, phi):
            seen.append((r.tolist(), theta.tolist()))
            return full_wavefunction(qn, params, r, theta, phi)

        monkeypatch.setattr(cli, "full_wavefunction", spy)
        code, _, _ = run_cli(capsys, *slice_argv(2, 1, alpha=0.55, extent=15.0, points=150))
        assert code == 0 and len(seen) == 1
        cells = slice_cells(alpha=0.55, extent=15.0, points=150)
        assert seen[0] == ([c[2] for c in cells], [c[3] for c in cells])

    def test_laguerre_calls_do_not_grow_with_the_grid(self, capsys, monkeypatch):
        calls = []
        original = hydrogen.laguerre_assoc

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(hydrogen, "laguerre_assoc", counting)
        counts = []
        for points in (4, 40):
            calls.clear()
            code, _, _ = run_cli(capsys, *slice_argv(3, 1, 1, alpha=0.7, points=points))
            assert code == 0
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


class TestEmitFormatting:
    """Each column holds one of the four cell types that the commands send."""

    ROWS = [
        ["a", 1, 0.5, True],
        ["b", 2, -1e-300, False],
        ["c", 10**20, 6.02e23, True],
    ]
    COLUMNS = ["s", "i", "f", "b"]

    def test_csv_matches_the_per_value_format(self, tmp_path):
        target = tmp_path / "out.csv"
        cli._emit("t", self.COLUMNS, self.ROWS, "csv", str(target))
        assert target.read_text() == (
            "s,i,f,b\n"
            "a,1,5.000000000000e-01,true\n"
            "b,2,-1.000000000000e-300,false\n"
            "c,100000000000000000000,6.020000000000e+23,true\n"
        )

    def test_json_rows(self, tmp_path):
        target = tmp_path / "out.json"
        cli._emit("t", self.COLUMNS, self.ROWS[:2], "json", str(target))
        rows = json.loads(target.read_text())["rows"]
        assert rows == [["a", 1, 0.5, True], ["b", 2, -1e-300, False]]
        assert [type(row[3]) for row in rows] == [bool, bool]

    def test_header_only_without_rows(self, tmp_path):
        target = tmp_path / "out.csv"
        cli._emit("t", ["a", "b"], [], "csv", str(target))
        assert target.read_text() == "a,b\n"


class _BrokenPipe(io.StringIO):
    def __init__(self, close_fails):
        super().__init__()
        self.close_fails = close_fails

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def close(self):
        super().close()
        if self.close_fails:
            raise BrokenPipeError(32, "Broken pipe")


class TestBrokenPipe:
    @pytest.mark.parametrize("close_fails", [False, True])
    def test_a_closed_reader_exits_0(self, capsys, monkeypatch, close_fails):
        # a consumer such as head that exits early is not an error
        pipe = _BrokenPipe(close_fails)
        monkeypatch.setattr(sys, "stdout", pipe)
        assert main(["energy", "--n-max", "2"]) == 0
        assert pipe.closed
        assert capsys.readouterr().err == ""


class _FullDisk(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestFullDisk:
    @pytest.mark.parametrize(
        "argv",
        [["energy", "--n-max", "2"], ["table", "--which", "radial"], ["slice", "--n", "2", "--l", "1", "--points", "3"],
         ["verify", "--format", "json"]],
        ids=["energy", "table", "slice", "verify-json"],
    )
    def test_a_stdout_that_cannot_be_written_is_one_error_line(self, capsys, monkeypatch, argv):
        # OSError: [Errno 28] No space left on device ended in a traceback
        monkeypatch.setattr(sys, "stdout", _FullDisk())
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: stdout cannot be written: No space left on device\n"

    def test_a_closed_stdout_is_one_error_line(self, capsys, monkeypatch):
        # a process started with file descriptor 1 closed has no sys.stdout:
        # AttributeError: 'NoneType' object has no attribute 'write'
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["energy", "--n-max", "2"]) == 1
        assert capsys.readouterr().err == "error: stdout cannot be written: Bad file descriptor\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_a_process_writing_to_a_full_device_exits_1(self, tmp_path, unbuffered):
        # the interpreter's own flush at exit finds nothing left to write: a
        # buffered stdout keeps the bytes its failed flush could not write
        src = str(pathlib.Path(cli.__file__).parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "confhydro.cli", "energy", "--n-max", "2"], stdout=full,
                cwd=tmp_path, env=env, stderr=subprocess.PIPE, timeout=120,
            )
        assert (proc.returncode, proc.stderr) == (1, b"error: stdout cannot be written: No space left on device\n")


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_missing_subcommand(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    def test_bad_alpha(self, capsys):
        code, _, err = run_cli(capsys, "energy", "--alpha-list", "2.0")
        assert code == 1
        assert "error" in err


class TestTotality:
    """Bad input exits 1 with one ``error:`` line and no partial output."""

    def assert_refused(self, capsys, *argv, says):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert says in err

    def test_slice_zero_points(self, capsys):
        self.assert_refused(capsys, "slice", "--n", "1", "--l", "0", "--points", "0",
                            says="--points must be >= 1")

    def test_density_zero_points(self, capsys):
        self.assert_refused(capsys, "density", "--n", "1", "--l", "0", "--points", "0",
                            says="--points must be >= 1")

    @pytest.mark.parametrize("extent", ["0", "-3"])
    def test_slice_nonpositive_extent(self, capsys, extent):
        self.assert_refused(capsys, "slice", "--n", "1", "--l", "0", "--extent", extent,
                            says="--extent must be > 0")

    def test_slice_infinite_extent(self, capsys):
        self.assert_refused(capsys, "slice", "--n", "1", "--l", "0", "--points", "2", "--extent", "inf",
                            says="--extent must be finite, got inf")

    @pytest.mark.parametrize("extent", ["1e308", "1.7976931348623157e308"])
    def test_slice_extent_whose_width_overflows(self, capsys, extent):
        # the slice spans 2 * extent, which must be a double
        self.assert_refused(capsys, "slice", "--n", "1", "--l", "0", "--points", "3", "--extent", extent,
                            says=f"--extent must be at most 8.988465674311579e+307, half the largest "
                            f"double, got {float(extent)!r}")

    @pytest.mark.parametrize("extent, points", [("5e-324", "3"), ("1e-322", "30")])
    def test_slice_extent_whose_cell_centres_underflow(self, capsys, extent, points):
        # deep in the subnormals, neighbouring centres rounded to one double
        # and the slice repeated its cells
        self.assert_refused(capsys, "slice", "--n", "1", "--l", "0", "--points", points, "--extent", extent,
                            says=f"--extent {float(extent)!r} is too small for --points {points}: "
                            "the cell centres underflow")

    def test_energy_zero_n_max(self, capsys):
        self.assert_refused(capsys, "energy", "--n-max", "0", says="--n-max must be >= 1")

    @pytest.mark.parametrize("alpha", [1e-300, 1e-160])
    def test_energy_beyond_the_doubles(self, capsys, alpha):
        self.assert_refused(
            capsys, "energy", "--alpha-list", "1.0", str(alpha),
            says=f"error: energy level n=1 at alpha={alpha!r} is not a finite nonzero double (-inf)\n",
        )

    @pytest.mark.parametrize(
        "argv, says",
        [
            # the general formula goes before the closed form, which divided by zero
            (["table", "--which", "radial", "--r-b", "1e-300"],
             "radial normalisation of state (n, l, m) = (1, 0, 0) at alpha=0.5, r_b=1e-300 is not "
             "a finite positive double: the factor (2 / (alpha n r_b))**3 overflows"),
            (["table", "--which", "psi", "--alpha-list", "0.3", "--r-b", "1e-300"],
             "radial normalisation of state (n, l, m) = (1, 0, 0) at alpha=0.3, r_b=1e-300"),
            # radial no longer forms the angles that only psi uses
            (["table", "--which", "radial", "--alpha-list", "1e-200"],
             "radial normalisation of state (n, l, m) = (1, 0, 0) at alpha=1e-200"),
            (["table", "--which", "radial", "--r-b", "1e300"],
             "(1, 0, 0) at alpha=0.5, r_b=1e+300 is not a finite positive double: "
             "the factor (2 / (alpha n r_b))**3 evaluates to 0.0"),
            (["table", "--which", "radial", "--r-b", "1e103"],
             "the closed form of state (n, l, m) = (1, 0, 0) at --alpha-list value 0.5, "
             "--r-b 1e+103 cannot be formed"),
            (["table", "--which", "psi", "--alpha-list", "1e-300"],
             "the angles 1.1**(1/alpha), 0.7**(1/alpha) of state (n, l, m) = (1, 0, 0) at "
             "--alpha-list value 1e-300, --r-b 1.0 cannot be formed"),
            (["table", "--which", "psi", "--alpha-list", "3e-4"],
             "--alpha-list value 0.0003, --r-b 1.0: 0.0 is not a finite positive double"),
            (["slice", "--n", "3", "--l", "2", "--m", "-2", "--alpha", "1e-9", "--points", "2"],
             "the polar angles theta_c**(1/alpha) of state (n, l, m) = (3, 2, -2) at "
             "--alpha 1e-09 cannot be formed"),
            (["slice", "--n", "1", "--l", "0", "--alpha", "5e-324", "--points", "2"],
             "(1, 0, 0) at --alpha 5e-324: inf is not a finite positive double"),
        ],
    )
    def test_float_arithmetic_out_of_range_is_named(self, capsys, argv, says):
        # these printed a ZeroDivisionError traceback or a bare errno tuple
        self.assert_refused(capsys, *argv, says=says)

    def test_non_finite_output_refused(self, capsys, monkeypatch):
        def nan_curve(qn, params, grid):
            return hydrogen.DensityCurve(qn, params.alpha, grid, np.full_like(grid, np.nan))

        monkeypatch.setattr(cli, "probability_density_radial", nan_curve)
        self.assert_refused(
            capsys, "density", "--n", "1", "--l", "0", "--format", "json",
            says="non-finite density=nan",
        )

    def test_first_non_finite_value_is_named_with_its_row(self, capsys, monkeypatch):
        def bad_curve(qn, params, grid):
            values = np.ones_like(grid)
            values[[1, 2]] = [np.inf, np.nan]
            return hydrogen.DensityCurve(qn, params.alpha, grid, values)

        monkeypatch.setattr(cli, "probability_density_radial", bad_curve)
        r = float(np.linspace(0.0, 20.0, 5)[2])
        self.assert_refused(
            capsys, "density", "--n", "1", "--l", "0", "--points", "4", "--alpha-list", "0.5",
            says=f"refusing to emit non-finite density=inf (row [0.5, 1, 0, {r!r}, inf])",
        )

    @pytest.mark.parametrize(
        "column, names",
        [
            (["a", math.nan, "c"], "['float', 'str']"),
            ([1, 2.0, 3], "['float', 'int']"),
            ([True, 1, 0], "['bool', 'int']"),
            ([np.float64(1.0), 2.0, 3.0], "['float', 'float64']"),
        ],
    )
    def test_mixed_column_is_a_type_error(self, tmp_path, column, names):
        # the commands send one type per column, so a mix is a programming
        # error, not input that main turns into exit 1
        rows = [[v, 1.0] for v in column]
        with pytest.raises(TypeError, match=re.escape(names)):
            cli._emit("t", ["which", "x"], rows, "csv", str(tmp_path / "out"))

    def test_largest_radii_emit_finite_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", "--n", "2", "--l", "1", "--r-max", "1e308", "--points", "4",
            "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 4 * 6 and [row[4] for row in rows] == [0.0] * 24

    def test_density_at_the_largest_double(self, capsys):
        # linspace's last product overflows before --r-max replaces it, unwarned
        code, out, err = run_cli(
            capsys, "density", "--n", "1", "--l", "0", "--r-max", "1.7976931348623157e308", "--points", "3",
            "--alpha-list", "0.5",
        )
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert len(rows) == 3 and all(math.isfinite(float(v)) for row in rows for v in row)
        assert rows[-1][3] == "%.12e" % sys.float_info.max

    @pytest.mark.parametrize("target", ["missing/energy.csv", "."], ids=["missing-directory", "directory"])
    def test_unwritable_output(self, capsys, monkeypatch, tmp_path, target):
        # refused before the command computes anything
        def computed(*args):
            pytest.fail("energy_level ran before --output was refused")

        monkeypatch.setattr(cli, "energy_level", computed)
        path = tmp_path / target
        reason = "No such file or directory" if target != "." else "Is a directory"
        self.assert_refused(capsys, "energy", "--n-max", "1", "--output", str(path),
                            says=f"--output {str(path)!r} cannot be written: {reason}\n")
        assert list(tmp_path.iterdir()) == []

    def test_output_under_a_regular_file(self, capsys, monkeypatch, tmp_path):
        # refused before the battery runs: open() refused it only after the battery
        def computed(*args, **kwargs):
            pytest.fail("run_verification ran before --output was refused")

        monkeypatch.setattr(cli, "run_verification", computed)
        parent = tmp_path / "file"
        parent.write_text("kept")
        for path in (parent / "v.csv", parent / "sub" / "v.csv"):
            self.assert_refused(capsys, "verify", "--level", "full", "--output", str(path),
                                says=f"--output {str(path)!r} cannot be written: Not a directory\n")
        assert parent.read_text() == "kept"

    def test_output_that_open_refuses_after_the_command_ran(self, capsys, monkeypatch, tmp_path):
        # a name longer than the file system's limit passes _check_output,
        # which looks only at its directory, so open() refuses it in _write
        # once the rows are formed
        formed, level = [], cli.energy_level
        monkeypatch.setattr(cli, "energy_level", lambda *args: formed.append(args) or level(*args))
        path = tmp_path / ("a" * 300 + ".csv")
        code, out, err = run_cli(capsys, "energy", "--n-max", "1", "--output", str(path))
        assert (code, out) == (1, "") and formed
        assert err == f"error: --output {str(path)!r} cannot be written: File name too long\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["density", "slice"])
    def test_allocation_past_the_address_space(self, capsys, command):
        # 10^14 doubles are 728 TiB, more than a 64-bit process can address;
        # numpy refused them ("Unable to allocate 728. TiB"), and the row
        # ceiling now refuses them first
        self.assert_refused(capsys, command, "--n", "1", "--l", "0", "--points", "100000000000000",
                            says=f"rows, past the ceiling of {cli._MAX_ROWS} rows\n")

    @pytest.mark.parametrize(
        "argv,says",
        [
            (["energy", "--n-max", "100000000000000000000000"],
             "--n-max 100000000000000000000000 over 6 alphas makes 600000000000000000000000 rows"),
            (["density", "--n", "2", "--l", "1", "--points", "1666667"],
             "--points 1666667 over 6 alphas makes 10000002 rows"),
            (["table", "--which", "radial", "--alpha-list", *["0.5"] * 33334],
             "--alpha-list of 33334 values over 6 states and 50 radii makes 10000200 rows"),
            (["table", "--which", "psi", "--alpha-list", *["0.5"] * 50001],
             "--alpha-list of 50001 values over 4 states and 50 radii makes 10000200 rows"),
            (["slice", "--n", "2", "--l", "1", "--points", "100000"], "--points 100000 squared makes 10000000000 rows"),
            (["slice", "--n", "2", "--l", "1", "--points", "3163"], "--points 3163 squared makes 10004569 rows"),
            # a count past Python's 4,300-digit limit on int strings is quoted by its digit count
            pytest.param(["slice", "--n", "2", "--l", "1", "--points", "9" * 3000],
                         f"--points {'9' * 3000} squared makes <int of 6000 digits> rows",
                         marks=pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() <= 5000,
                                                  reason="this interpreter quotes an int of 6000 digits in full")),
        ],
        ids=["energy", "density", "table-radial", "table-psi", "slice", "slice-past-by-one-row-of-cells",
             "slice-count-too-long-to-quote"],
    )
    def test_rows_past_the_ceiling_are_refused_before_they_are_formed(self, capsys, monkeypatch, argv, says):
        # energy --n-max 10^23 printed nothing within a minute, and a slice of
        # 10^10 points was killed by the kernel with no error line
        for name in ("energy_level", "probability_density_radial", "radial_wavefunction", "full_wavefunction"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: pytest.fail(f"{name} ran before the count"))
        start = time.perf_counter()
        self.assert_refused(capsys, *argv, says=f"error: {says}, past the ceiling of 10000000 rows\n")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "argv,rows",
        [
            (["energy", "--n-max", "2", "--alpha-list", "0.5", "1.0"], 4),
            (["density", "--n", "2", "--l", "1", "--points", "2", "--alpha-list", "0.5", "1.0"], 4),
            (["slice", "--n", "2", "--l", "1", "--points", "2"], 4),
            (["table", "--which", "psi", "--alpha-list", "1.0"], 200),
        ],
        ids=["energy", "density", "slice", "table"],
    )
    def test_rows_at_the_ceiling_are_emitted(self, capsys, monkeypatch, argv, rows):
        monkeypatch.setattr(cli, "_MAX_ROWS", rows)
        code, out, err = run_cli(capsys, *argv)
        assert (code, err, len(parse_csv(out)[1])) == (0, "", rows)
        monkeypatch.setattr(cli, "_MAX_ROWS", rows - 1)
        self.assert_refused(capsys, *argv, says=f"makes {rows} rows, past the ceiling of {rows - 1} rows\n")

    def test_memory_error_without_a_message(self, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "energy_level", exhausted)
        self.assert_refused(capsys, "energy", says="error: out of memory\n")

    def test_overflow_error(self, capsys):
        # the normalization constant's factorials exceed the float range
        self.assert_refused(
            capsys, "density", "--n", "200", "--l", "0", "--points", "3",
            says="radial normalisation of state (n, l, m) = (200, 0, 0) at alpha=0.5, r_b=1.0 "
            "is not a finite positive double: the (n - l - 1)! factorial overflows a double",
        )

    def test_evaluation_error(self, capsys, monkeypatch):
        def fail(*args):
            raise EvaluationError("function returned non-finite value at t=1.0")

        monkeypatch.setattr(cli, "probability_density_radial", fail)
        self.assert_refused(capsys, "density", "--n", "1", "--l", "0", says="t=1.0")

    def test_convergence_error(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise ConvergenceError(1.0, 2.0, 1e-9)

        monkeypatch.setattr(cli, "run_verification", fail)
        self.assert_refused(capsys, "verify", says="quadrature refinements disagree")


class TestDeletedOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["energy", "--r-b", "2"],
            ["verify", "--r-b", "2"],
            ["slice", "--n", "1", "--l", "0", "--plane", "phi0"],
        ],
    )
    def test_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("command", ["density", "table", "slice"])
    def test_r_b_kept_where_it_is_used(self, capsys, command):
        argv = ["--which", "radial"] if command == "table" else ["--n", "2", "--l", "1"]
        _, natural, _ = run_cli(capsys, command, *argv)
        code, physical, _ = run_cli(capsys, command, *argv, "--r-b", "2")
        assert code == 0 and physical != natural


# values of the float options from the edges of the doubles and past them
_EXTREMES = [5e-324, 1e-310, 1e-300, 1e-200, 1e-100, 1e-9, 0.3, 1.0, 20.0, 1e100, 1e103,
             1e200, 1e300, 1.7e308, math.inf, math.nan, 0.0, -1.0]
_extremes = st.one_of(st.sampled_from(_EXTREMES), st.floats(allow_nan=True, allow_infinity=True))
_alphas = st.one_of(st.sampled_from([5e-324, 1e-300, 1e-9, 1e-4, 3e-4, 0.5, 1.0]),
                    st.floats(5e-324, 1.0))
_formats = st.sampled_from(["csv", "json"])


@st.composite
def _states(draw, with_m=False):
    n = draw(st.integers(1, 4))
    l = draw(st.integers(0, n - 1))
    return (n, l, draw(st.integers(-l, l))) if with_m else (n, l)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["energy", "density", "table", "slice"]))
    alphas = [f"{a!r}" for a in draw(st.lists(_alphas, min_size=1, max_size=2))]
    argv = [command, f"--format={draw(_formats)}"]
    if command == "energy":
        return argv + [f"--n-max={draw(st.integers(1, 3))}", "--alpha-list", *alphas]
    r_b = f"--r-b={draw(st.one_of(st.just(1.0), _extremes))!r}"
    if command == "table":
        return argv + [f"--which={draw(st.sampled_from(['radial', 'psi']))}", r_b, "--alpha-list", *alphas]
    points = f"--points={draw(st.integers(1, 8))}"
    if command == "density":
        n, l = draw(_states())
        return argv + [f"--n={n}", f"--l={l}", r_b, points, f"--r-max={draw(_extremes)!r}",
                       "--alpha-list", *alphas]
    n, l, m = draw(_states(with_m=True))
    return argv + [f"--n={n}", f"--l={l}", f"--m={m}", r_b, points,
                   f"--alpha={alphas[0]}", f"--extent={draw(_extremes)!r}"]


def _refuse_constant(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


class TestCliProperty:
    """Every command either emits output that parses or exits 1 with one named error line."""

    @given(argv=_argv())
    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_output_parses_or_one_error_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        if code == 0:
            assert err == ""
            if "--format=json" in argv:
                assert json.loads(out, parse_constant=_refuse_constant)["schema_version"] == 1
            else:
                header, rows = parse_csv(out)
                assert {len(row) for row in rows} <= {len(header)} and header not in rows
            return
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        # a message that is only an errno tuple names neither state nor option
        assert not re.fullmatch(r"error: \(\d+, '[^']*'\)\n", err), err


class TestProcessEntryPoint:
    """``python -m confhydro.cli`` goes through ``cli.run``: the process exits
    with ``main``'s code and writes its bytes, and only the process freezes."""

    @staticmethod
    def process(tmp_path, *argv):
        src = str(pathlib.Path(cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "confhydro.cli", *argv],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path), capture_output=True, timeout=120,
        )

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["energy"], 0),
            (["verify", "--level", "quick", "--inject-fault", "--output", "{out}"], 2),
            (["slice", "--n", "1", "--l", "0", "--points", "0"], 1),
            (["slice", "--n", "1", "--l", "0", "--points", "2", "--extent", "inf"], 1),
            (["density", "--n", "2", "--l", "1", "--r-max", "inf", "--points", "3"], 1),
            (["density", "--n", "1", "--l", "0", "--r-max", "1.7976931348623157e308", "--points", "3"], 0),
            (["energy", "--n-max", "1", "--output", "{tmp}/missing/energy.csv"], 1),
        ],
        ids=["energy", "verify-fault", "slice-zero-points", "slice-infinite-extent", "density-infinite-r-max",
             "density-largest-r-max", "energy-unwritable-output"],
    )
    def test_process_matches_main(self, capsys, tmp_path, argv, code):
        # the CSV verify listing carries no timing, so its file compares whole
        in_process = [a.format(out=tmp_path / "main.out", tmp=tmp_path) for a in argv]
        as_process = [a.format(out=tmp_path / "run.out", tmp=tmp_path) for a in argv]
        main_code, out, err = run_cli(capsys, *in_process)
        proc = self.process(tmp_path, *as_process)
        assert main_code == code
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
        # a refusal is one error line, and an accepted run writes no warning
        assert err.count("\n") == (code == 1) and "Traceback" not in err
        if "{out}" in argv:
            assert (tmp_path / "run.out").read_bytes() == (tmp_path / "main.out").read_bytes() != b""

    def test_main_in_process_does_not_freeze(self, capsys):
        frozen = gc.get_freeze_count()
        assert run_cli(capsys, "energy", "--n-max", "2")[0] == 0
        assert gc.get_freeze_count() == frozen

    def test_run_freezes_after_main(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 2)
        monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
        assert cli.run() == 2
        assert calls == ["main", "freeze"]
