"""The atlas of the accepted domain: ``tests/golden/atlas.json`` holds the class
(ok, refused or wrong) of each cell that ``python tools/atlas.py`` writes,
with the oracle values that class it.  A cell that becomes wrong, or that
leaves ok, fails the test; a change that mends cells regenerates the file,
so that the counts it prints record the gain."""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import atlas  # noqa: E402

CELLS = json.loads((ROOT / "tests" / "golden" / "atlas.json").read_text(encoding="utf-8"))
# the keys that place a cell; Y's cells have an order m and angles, and no r_b
PLACED_BY = ("function", "n", "l", "m", "alpha", "r_b", "theta", "phi")


def placed(cell: dict) -> dict:
    return {key: cell[key] for key in PLACED_BY if cell.get(key) is not None}


def test_a_cell_is_named_by_every_key_that_places_it():
    # a report of (function, n, l, alpha, r_b) dropped Y's m, so the cells
    # of a +-m pair read alike, and printed None for Y's r_b
    Y = {"function": "angular_Y", "n": 2, "l": 1, "m": -1, "alpha": 0.5, "r_b": None, "theta": [1e-8], "phi": 0.3}
    assert placed(dict(Y, oracle=["1"], scale="1", **{"class": "ok"})) == {k: v for k, v in Y.items() if k != "r_b"}
    assert len({json.dumps(placed(cell)) for cell in CELLS}) == len(CELLS)


def test_no_cell_becomes_wrong_or_leaves_ok():
    now = [dict(cell, **{"class": atlas.classify(cell)[0]}) for cell in CELLS]
    counts = f"committed {atlas.counts(CELLS)}, now {atlas.counts(now)}"
    print(counts)
    worse = [
        (placed(cell), cell["class"], new["class"])
        for cell, new in zip(CELLS, now)
        if cell["class"] == "ok" != new["class"] or new["class"] == "wrong" != cell["class"]
    ]
    assert worse == [], f"{counts}; cells (placed by, committed, now) that got worse: {worse}"

