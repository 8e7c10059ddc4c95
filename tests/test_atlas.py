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


def test_no_cell_becomes_wrong_or_leaves_ok():
    now = [dict(cell, **{"class": atlas.classify(cell)[0]}) for cell in CELLS]
    counts = f"committed {atlas.counts(CELLS)}, now {atlas.counts(now)}"
    print(counts)
    worse = [
        (cell["function"], cell["n"], cell["l"], cell["alpha"], cell["r_b"], cell["class"], new["class"])
        for cell, new in zip(CELLS, now)
        if cell["class"] == "ok" != new["class"] or new["class"] == "wrong" != cell["class"]
    ]
    assert worse == [], f"{counts}; cells (function, n, l, alpha, r_b, committed, now) that got worse: {worse}"

