"""Each correctness gate accepts the program's real output and flags a
deliberately corrupted copy of it."""
import json
import math

import numpy as np
import pytest

import gates
from confhydro import ModelParams, QuantumNumbers, cli, probability_density_radial
from confhydro.reference import PSI_CLOSED_FORMS, RADIAL_CLOSED_FORMS


def run_cli(tmp_path, argv):
    out = tmp_path / "out"
    code = cli.main([*argv, "--output", str(out)])
    return code, out.read_text()


def alter_digit(text: str, line: int, field: int) -> str:
    """Change the first digit after the decimal point of one CSV field."""
    lines = text.split("\n")
    fields = lines[line].split(",")
    value = fields[field]
    i = 3 if value.startswith("-") else 2
    fields[field] = value[:i] + str((int(value[i]) + 1) % 10) + value[i + 1 :]
    lines[line] = ",".join(fields)
    return "\n".join(lines)


# -- verify -------------------------------------------------------------------

VERIFY_HEADER = "name,measured,threshold,comparison,passed\n"


def verify_csv(verdicts):
    rows = [
        f"{name},1.0e-13,1.0e-12,<=,{v}" for name, v in zip(gates.VERIFY_CHECKS, verdicts)
    ]
    return VERIFY_HEADER + "\n".join(rows) + "\n"


def test_verify_fault_run_counts_only_when_it_exits_2(tmp_path):
    code, text = run_cli(tmp_path, ["verify", "--level", "quick", "--inject-fault"])
    assert code == 2
    assert gates.verify(code, text, expected_exit=2) == []
    assert gates.verify(0, text, expected_exit=2)
    assert gates.verify(1, text, expected_exit=2)


def test_verify_fault_run_that_passes_every_check_is_flagged():
    all_true = verify_csv(["true"] * len(gates.VERIFY_CHECKS))
    assert gates.verify(2, all_true, expected_exit=2)
    assert gates.verify(0, all_true, expected_exit=0) == []


def test_verify_missing_check_is_flagged():
    text = verify_csv(["true"] * len(gates.VERIFY_CHECKS))
    lines = text.split("\n")
    del lines[3]
    assert gates.verify(0, "\n".join(lines), expected_exit=0)


def test_verify_garbage_is_flagged_not_raised():
    assert gates.verify(0, "not,a,csv\n1\n", expected_exit=0)
    assert gates.verify(0, "", expected_exit=0)


# -- export -------------------------------------------------------------------

ALPHAS = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]


def test_energy_gate(tmp_path):
    code, text = run_cli(tmp_path, ["energy", "--n-max", "10"])
    assert gates.energy(code, text, ALPHAS, 10) == []
    assert gates.energy(code, alter_digit(text, 7, 2), ALPHAS, 10)
    short = text[: text.rindex("\n", 0, -1) + 1]
    assert gates.energy(code, short, ALPHAS, 10)


@pytest.fixture
def density_case(tmp_path):
    n, l, alpha = 3, 1, 0.7312
    grid = np.linspace(0.0, 20.0, 401)[1:]
    ref = probability_density_radial(QuantumNumbers(n, l), ModelParams.natural(alpha), grid).values
    argv = ["density", "--n", str(n), "--l", str(l), "--alpha-list", repr(alpha)]
    return tmp_path, argv, grid, ref


def test_density_csv_gate(density_case):
    tmp_path, argv, grid, ref = density_case
    code, text = run_cli(tmp_path, argv)
    assert gates.density(code, text, "csv", grid, ref) == []
    assert gates.density(code, alter_digit(text, 57, 4), "csv", grid, ref)
    short = text[: text.rindex("\n", 0, -1) + 1]
    assert gates.density(code, short, "csv", grid, ref)
    assert gates.density(1, text, "csv", grid, ref)


def test_density_json_gate_is_strict(density_case):
    tmp_path, argv, grid, ref = density_case
    code, text = run_cli(tmp_path, [*argv, "--format", "json"])
    assert gates.density(code, text, "json", grid, ref) == []
    doc = json.loads(text)
    doc["rows"][10][4] = math.nan
    assert gates.density(code, json.dumps(doc), "json", grid, ref)
    doc["rows"][10][4] = math.inf
    assert gates.density(code, json.dumps(doc), "json", grid, ref)
    doc = json.loads(text)
    doc["rows"][10][4] *= 1.0 + 1e-9
    assert gates.density(code, json.dumps(doc), "json", grid, ref)


@pytest.mark.parametrize("which", ["radial", "psi"])
def test_table_gate(tmp_path, which):
    code, text = run_cli(tmp_path, ["table", "--which", which, "--alpha-list", "0.5", "1.0"])
    assert gates.table(code, text, which, 2) == []
    assert gates.table(code, text, which, 3)
    assert gates.table(code, alter_digit(text, 120, 6), which, 2)
    lines = text.split("\n")
    fields = lines[5].split(",")
    fields[-1] = "1.000000000000e-06"
    lines[5] = ",".join(fields)
    assert gates.table(code, "\n".join(lines), which, 2)


def test_slice_gate(tmp_path):
    argv = ["slice", "--n", "2", "--l", "1", "--m", "1", "--alpha", "0.8", "--points", "5"]
    code, text = run_cli(tmp_path, argv)
    assert gates.slice_(code, text, 5) == []
    lines = text.split("\n")
    fields = lines[4].split(",")
    fields[2] = "nan"
    lines[4] = ",".join(fields)
    assert gates.slice_(code, "\n".join(lines), 5)
    assert gates.slice_(code, text, 6)


# -- grid ---------------------------------------------------------------------


def test_grid_gate_against_closed_forms():
    import confhydro

    alpha = 0.77
    r = np.geomspace(1e-3, 60.0, 2000)
    theta = np.linspace(0.1, 3.0, r.size) ** (1.0 / alpha)
    phi = np.linspace(0.0, 6.0, r.size) ** (1.0 / alpha)
    qn, params = QuantumNumbers(2, 1, 1), ModelParams.natural(alpha)
    rad = RADIAL_CLOSED_FORMS[(2, 1)](alpha, 1.0, r)
    arrays = {
        "radial": confhydro.radial_wavefunction(qn, params, r),
        "density": probability_density_radial(qn, params, r).values,
        "psi": confhydro.full_wavefunction(qn, params, r, theta, phi),
    }
    refs = {
        "radial": rad,
        "density": r ** (2 * alpha) * rad * rad,
        "psi": PSI_CLOSED_FORMS[(2, 1, 1)](alpha, 1.0, r, theta, phi),
    }
    whole = [(slice(None), refs)]
    assert gates.grid(arrays, whole) == []
    bad = dict(arrays, psi=arrays["psi"] * (1.0 + 1e-9))
    assert gates.grid(bad, whole)
    bad = dict(arrays, density=arrays["density"].copy())
    bad["density"][7] = np.inf
    assert gates.grid(bad)


# -- normalize ----------------------------------------------------------------


def test_normalization_gate():
    assert gates.normalization(1.0 - 3e-12) == []
    assert gates.normalization(1.0 + 2e-8)
    assert gates.normalization(7.9e-18)
    assert gates.normalization(math.nan)


def test_split_pair_gate():
    assert gates.split_pair(0.25, 0.75 + 1e-12) == []
    assert gates.split_pair(0.25, 0.75 * (1 + 1e-7))
    assert gates.split_pair(0.25, math.inf)
