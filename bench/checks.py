"""Output checks: every op is classified, none aborts a run.

An op is *answered* when it exits 0 with a schema-valid ``ok`` envelope
that passes the workload's own checks, *refused* when it exits 1 with a
schema-valid ``error`` envelope that carries an error record (a declared
refusal), and failed otherwise. A failure is a *crash* when no envelope
came out (an exception raised out of ``main``, or an exit code outside
{0, 1, 2}, or a usage error on generated input) and *wrong* when an
envelope came out that the checks reject. The checks recompute what they
can with the benchmark's own arithmetic and compare tabulated values
with the fixtures under ``src/jnum/data``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import jsonschema

ANSWERED, REFUSED, CRASH, WRONG = "answered", "refused", "crash", "wrong"

# Relative tolerance of the recomputed two-bridge relation and polynomial
# value, scaled by the size of the entries of W.
BRIDGE_REL = 1e-6
TABLE_EPS = 1e-6
UNIT_J_EPS = 1e-9

# (n_elements, n_candidates) per group of `verify inequality-sweep`,
# recorded from the program before any optimisation of the ball or pairs.
SWEEP_EXPECTED = {
    3: ((52, 2552), (67, 3806), (67, 3824), (67, 3824), (67, 3824), (67, 3824)),
    7: ((3954, 15624976), (3751, 14033236), (3819, 14558436),
        (4001, 15964572), (3903, 15207294), (4227, 17840918)),
}


# ---------------------------------------------------------------------------
# 2x2 complex arithmetic, independent of jnum.linalg


def mat_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_inv(x):
    a, b, c, d = x
    return (d, -b, -c, a)


def bridge_word(p, q, z):
    """W = B^e1 A^e2 B^e3 ... at z, with e_i = (-1)^floor(i q / p)."""
    w = (1, 0, 0, 1)
    for i in range(1, p):
        e = -1 if (i * q // p) % 2 else 1
        letter = (1, 0, e * z, 1) if i % 2 else (1, e, 0, 1)
        w = mat_mul(w, letter)
    return w


def jorgensen(x, y):
    """|tr^2 X - 4| + |tr [X, Y] - 2|."""
    tx = x[0] + x[3]
    k = mat_mul(mat_mul(mat_mul(x, y), mat_inv(x)), mat_inv(y))
    return abs(tx * tx - 4.0) + abs(k[0] + k[3] - 2.0)


def _mat_of(rec):
    return tuple(complex(rec[f"{e}_re"], rec[f"{e}_im"]) for e in "abcd")


# ---------------------------------------------------------------------------


def _records(env, kind):
    return [r for r in env["results"] if r["kind"] == kind]


class Checker:
    """Classifies ops of every workload; loads the schema and fixtures once."""

    def __init__(self, root):
        data = Path(root) / "src" / "jnum" / "data"

        def load(name):
            return json.loads((data / name).read_text(encoding="utf-8"))

        self.validator = jsonschema.Draft202012Validator(load("cli_schema.json"))
        self.knot_rows = load("knot_table.json")["rows"]
        self.families = load("gtk_families.json")
        self.arithcomp = load("arithcomp.json")

    def classify(self, argv, rc, stdout, error=None):
        """(outcome, reason) of one op; reason is None for an answered op."""
        if error is not None:
            return CRASH, error
        if rc not in (0, 1, 2):
            return CRASH, f"exit code {rc}"
        if rc == 2:
            return CRASH, "usage error on generated input"
        try:
            env = json.loads(stdout)
        except ValueError:
            return WRONG, "stdout is not JSON"
        problem = next(iter(self.validator.iter_errors(env)), None)
        if problem is not None:
            return WRONG, f"schema: {problem.message}"
        status = env["status"]
        if rc != (0 if status == "ok" else 1):
            return WRONG, f"exit code {rc} with status {status}"
        if status == "error":
            if not _records(env, "error"):
                return WRONG, "error status without an error record"
            return REFUSED, _records(env, "error")[0]["message"]
        if status != "ok":
            return WRONG, f"status {status}"
        reason = self._check_ok(argv, env)
        return (WRONG, reason) if reason else (ANSWERED, None)

    def _check_ok(self, argv, env):
        cmd = argv[0]
        if cmd in ("knot", "link"):
            return check_bridge(argv, env)
        if cmd == "gtk":
            return self.check_gtk(argv, env)
        if cmd == "bianchi":
            return check_bianchi(argv, env)
        bad = [r for r in env["results"] if r.get("ok") is False]
        if bad:
            return f"record not ok: {bad[0]}"
        suite = argv[1]
        if suite == "knot-table":
            return self.check_knot_table(env)
        if suite == "inequality-sweep":
            return check_sweep(argv, env)
        if suite == "arithcomp":
            return self.check_arithcomp(env)
        if suite == "gtk-families":
            return self.check_gtk_families(env)
        if suite == "elliptic":
            return check_elliptic(env)
        if suite in ("bianchi", "losid"):
            kind = "relator" if suite == "bianchi" else "identity"
            eps = env["tolerances"]["mat_eps"]
            recs = _records(env, kind)
            if not recs or any(r["deviation"] > eps for r in recs):
                return f"{suite}: a {kind} deviates beyond {eps}"
            return None
        return f"no check for {argv}"

    def check_knot_table(self, env):
        rows = _records(env, "knot")
        if [r["label"] for r in rows] != [r["label"] for r in self.knot_rows]:
            return "knot-table rows differ from knot_table.json"
        for got, want in zip(rows, self.knot_rows):
            z = complex(got["z_re"], got["z_im"])
            z_want = complex(want["z"]["re"], want["z"]["im"])
            if min(abs(z - z_want), abs(z - z_want.conjugate())) > TABLE_EPS:
                return f"{want['label']}: z = {z}, table {z_want}"
            for key in ("jorgensen", "alpha"):
                if abs(got[key] - want[key]) > TABLE_EPS:
                    return f"{want['label']}: {key} = {got[key]}, table {want[key]}"
        return None

    def check_gtk(self, argv, env):
        gens = {r["name"]: _mat_of(r) for r in _records(env, "generator")}
        rep = _records(env, "report")
        if set(gens) != {"A", "B"} or len(rep) != 1:
            return "gtk: expected generators A, B and one report"
        rep = rep[0]
        j = jorgensen(gens["A"], gens["B"])
        if abs(j - 1.0) > UNIT_J_EPS or abs(rep["jorgensen"] - j) > UNIT_J_EPS:
            return f"gtk: J = {j}, reported {rep['jorgensen']}"
        row = self._family_of(argv)
        if row is None:
            if rep["family"] is not None:
                return f"gtk: unlisted parameters matched {rep['family']}"
            return None
        if (rep["family"], rep["field_d"], rep["identification"]) != (
                row["label"], row["field_d"], row["identification"]):
            return f"gtk: family {rep['family']}, field {rep['field_d']}, " \
                   f"identification {rep['identification']} differ from {row['label']}"
        return None

    def _family_of(self, argv):
        """The gtk_families.json row the argv lists at multiplier n = 1, else None."""
        num, den = map(int, argv[1].split("/"))
        theta, k = Fraction(num, den), float(argv[2])
        for row in self.families:
            if Fraction(row["theta"]["num"], row["theta"]["den"]) != theta:
                continue
            if abs(k - row["k"]) <= UNIT_J_EPS:
                return row
        return None

    def check_arithcomp(self, env):
        rows = _records(env, "entry")
        if [r["label"] for r in rows] != [r["label"] for r in self.arithcomp]:
            return "arithcomp rows differ from arithcomp.json"
        for got, want in zip(rows, self.arithcomp):
            if abs(got["jorgensen"] - want["expected_j"]) > TABLE_EPS:
                return f"{want['label']}: J = {got['jorgensen']}, table {want['expected_j']}"
        return None

    def check_gtk_families(self, env):
        rows = _records(env, "family")
        if [r["label"] for r in rows] != [r["label"] for r in self.families]:
            return "gtk-families rows differ from gtk_families.json"
        for got, want in zip(rows, self.families):
            if got["field_found"] != want["field_d"] or got["j_dev"] > UNIT_J_EPS:
                return f"{want['label']}: field {got['field_found']}, J dev {got['j_dev']}"
        return None


def check_bridge(argv, env):
    p, q = map(int, argv[1].split("/"))
    knot = argv[0] == "knot"
    if (env["inputs"]["p"], env["inputs"]["q"]) != (p, q):
        return "inputs do not echo the fraction"
    rep = _records(env, "report")
    if len(rep) != 1:
        return "expected one report record"
    rep = rep[0]
    if rep["fraction"] != f"{p}/{q}":
        return f"report for {rep['fraction']}"
    z = complex(rep["z_re"], rep["z_im"])
    selected = [r for r in _records(env, "root") if r["selected"]]
    if len(selected) != 1 or abs(
            complex(selected[0]["z_re"], selected[0]["z_im"]) - z) > 1e-9 * (1.0 + abs(z)):
        return "the selected root record does not carry the reported z"
    if not abs(z) < 4.0:
        return f"|z| = {abs(z)} is not below 4"
    j_want = abs(z) if knot else abs(z) ** 2
    if abs(rep["jorgensen"] - j_want) > 1e-6 * j_want:
        return f"J = {rep['jorgensen']}, expected {j_want}"
    w = bridge_word(p, q, z)
    scale = 1.0 + max(abs(e) for e in w)
    value = w[3] if knot else w[2]
    if abs(value) > BRIDGE_REL * scale:
        return f"W{'22' if knot else '21'}(z) = {abs(value):.3e}, entries up to {scale:.3e}"
    a = (1, 1, 0, 1)
    rhs = mat_mul(w, (1, 0, z, 1) if knot else a)
    dev = max(abs(x - y) for x, y in zip(mat_mul(a, w), rhs))
    if dev > BRIDGE_REL * scale:
        return f"A W = W {'B' if knot else 'A'} fails by {dev:.3e}"
    return None


def check_sweep(argv, env):
    max_len = int(argv[argv.index("--max-len") + 1])
    rows = _records(env, "sweep")
    expected = SWEEP_EXPECTED.get(max_len)
    if expected is None or len(rows) != len(expected):
        return f"no recorded sweep sizes for {len(rows)} groups at length {max_len}"
    for got, (n_elem, n_cand) in zip(rows, expected):
        if got["n_violations"] != 0:
            return f"{got['group']}: {got['n_violations']} violations"
        if (got["n_elements"], got["n_candidates"]) != (n_elem, n_cand):
            return f"{got['group']}: {got['n_elements']} elements, " \
                   f"{got['n_candidates']} candidates; recorded {n_elem}, {n_cand}"
        if got["n_pairs"] != n_elem * n_elem:
            return f"{got['group']}: {got['n_pairs']} pairs"
    return None


def check_bianchi(argv, env):
    d = int(argv[argv.index("--d") + 1])
    rt = 1j * math.sqrt(d)
    alpha = (1 + rt) / 2 if d % 4 == 3 else rt
    gens = {r["name"]: _mat_of(r) for r in _records(env, "generator")}
    if "T" not in gens or abs(gens["T"][1] - alpha) > UNIT_J_EPS:
        return f"bianchi d={d}: T is not the translation by {alpha}"
    eps = env["tolerances"]["mat_eps"]
    relators = _records(env, "relator")
    if not relators or any(r["deviation"] > eps for r in relators):
        return f"bianchi d={d}: a relator deviates beyond {eps}"
    return None


def check_elliptic(env):
    eps = env["tolerances"]["j_eps"]
    orders = _records(env, "order")
    if not orders or any(abs(r["j_value"] - 1.0) > eps for r in orders):
        return "elliptic: an order does not reach J = 1"
    return None
