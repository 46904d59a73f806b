"""Regression over all 302 two-bridge fractions with 5 <= p <= 31.

The fixture (tests/data/bridge_scan.json, written by tests/bridge_scan.py)
records what each `knot|link p/q` answers; see bridge_scan.py for why it
is a characterization rather than a table of true values.
"""

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from bridge_scan import FIXTURE, fractions, scan  # noqa: E402

from jnum import tolerances as tol  # noqa: E402


def test_every_fraction_answers_as_recorded():
    want = json.loads(FIXTURE.read_text())["fractions"]
    assert [w["fraction"] for w in want] == [f"{p}/{q}" for p, q in fractions()]
    assert len(want) == 302
    got = scan()
    for g, w in zip(got, want):
        assert (g["fraction"], g["command"], g["exit"], g["status"], g["index"]) == \
            (w["fraction"], w["command"], w["exit"], w["status"], w["index"])
        assert (g["j"] is None) is (w["j"] is None), g["fraction"]
        if w["j"] is not None:
            assert math.isclose(g["j"], w["j"], rel_tol=1e-9, abs_tol=0.0), g["fraction"]
        # what the screen decided for each root, and the J that rejected it
        assert g["statuses"] == w["statuses"], g["fraction"]
        assert [j is None for j in g["screen_j"]] == \
            [j is None for j in w["screen_j"]], g["fraction"]
        for gj, wj in zip(g["screen_j"], w["screen_j"]):
            if wj is not None:
                assert math.isclose(gj, wj, rel_tol=1e-9, abs_tol=0.0), g["fraction"]
        if g["status"] == "ok":
            # every answer is the screen's survivor, and Jorgensen's
            # inequality holds there: no discrete non-elementary group has J < 1
            assert g["statuses"][g["index"]] == "survivor", g["fraction"]
            assert g["j"] >= 1.0 - tol.J_EPS, g["fraction"]
