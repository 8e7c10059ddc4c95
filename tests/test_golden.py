"""Byte-exact CLI outputs.

Each file under ``tests/golden/`` is the output of the command listed next
to it below, written with ``--output``.  A refactor that changes any digit,
column or line ending of these exports fails here.  To regenerate a file
after an intended output change, run the command with
``python -m confhydro.cli <args> --output tests/golden/<file>``.
"""
from pathlib import Path

import pytest

from confhydro.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "energy.csv": ["energy"],
    "density_n2_l1.csv": ["density", "--n", "2", "--l", "1"],
    "density_n2_l1.json": ["density", "--n", "2", "--l", "1", "--format", "json"],
    "table_radial.csv": ["table", "--which", "radial"],
    "table_psi.csv": ["table", "--which", "psi"],
    "slice_n2_l1_m1.csv": [
        "slice", "--n", "2", "--l", "1", "--m", "1", "--alpha", "0.8", "--points", "12",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name, tmp_path):
    target = tmp_path / name
    assert main([*CASES[name], "--output", str(target)]) == 0
    assert target.read_bytes() == (GOLDEN / name).read_bytes()
