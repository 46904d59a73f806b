"""The 302-fraction two-bridge scan behind tests/data/bridge_scan.json.

For every coprime p/q with 5 <= p <= 31 and 0 < q < p, `jnum knot|link p/q
--json` is run in-process and its exit code, status, selected root index
and J are recorded, with each root's screen status and screen_j. The
fixture is a characterization of the program as it answers today, not a
table of true values: the links whose reported J comes from a quotient
rather than the group (ROADMAP item 1) are in it as they answer now.
Regenerate it, after a change meant to move those answers, from the
repository root with

    PYTHONPATH=src python tests/bridge_scan.py
"""

import contextlib
import io
import json
import math
from pathlib import Path

from jnum.cli import main

FIXTURE = Path(__file__).parent / "data" / "bridge_scan.json"
NOTE = ("characterization: exit code, status, selected root index, J and the "
        "per-root screen statuses and screen_j of "
        "`jnum knot|link p/q --json` for every coprime p/q with 5 <= p <= 31, "
        "as the program answers them, quotient links of ROADMAP item 1 included")


def fractions():
    """Every coprime p/q with 5 <= p <= 31 and 0 < q < p: 302 fractions."""
    return [(p, q) for p in range(5, 32) for q in range(1, p) if math.gcd(p, q) == 1]


def outcome(p: int, q: int) -> dict:
    command = "knot" if p % 2 else "link"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, f"{p}/{q}", "--json"])
    env = json.loads(out.getvalue())
    roots = [r for r in env["results"] if r["kind"] == "root"]
    index = next((r["index"] for r in roots if r["selected"]), None)
    j = next((r["jorgensen"] for r in env["results"] if r["kind"] == "report"), None)
    return {"fraction": f"{p}/{q}", "command": command, "exit": code,
            "status": env["status"], "index": index, "j": j,
            "statuses": [r["status"] for r in roots],
            "screen_j": [r["screen_j"] for r in roots]}


def scan() -> list:
    return [outcome(p, q) for p, q in fractions()]


if __name__ == "__main__":
    rows = scan()
    with open(FIXTURE, "w", encoding="utf-8") as f:  # one fraction per line
        f.write(f'{{"note": {json.dumps(NOTE)},\n "fractions": [\n')
        f.write(",\n".join(json.dumps(row) for row in rows))
        f.write("\n]}\n")
    print(f"wrote {len(rows)} fractions to {FIXTURE}")
