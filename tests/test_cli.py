"""Command-line surface: envelopes, exit codes, output formats, the --max-len
cap, and tolerances that no environment variable changes."""

import cmath
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jnum import catalog, cli, riley
from jnum import tolerances as tol
from jnum.arith import PASS, ConditionReport
from jnum.cli import main
from jnum.linalg import JReport, jorgensen_pair
from jnum.riley import RILEY_A, riley_b
from jnum.words import GeneratorSet
from oracles import SWEEP_GROUPS, exact_sweep_counts, omega

SCHEMA = json.loads(
    (resources.files("jnum") / "data" / "cli_schema.json").read_text())


def child_env(env):
    """env with this checkout's src first on PYTHONPATH, so that a child
    interpreter runs this tree and not an installed jnum."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**env, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))}


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    env = json.loads(out)
    jsonschema.validate(env, SCHEMA)
    return code, env


def record(env, kind):
    hits = [r for r in env["results"] if r["kind"] == kind]
    assert hits, f"no {kind} record in {env['command']} output"
    return hits[0]


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_ok(capsys):
    assert main(["knot", "7/3"]) == 0
    capsys.readouterr()


def test_exit_code_usage_wrong_parity(capsys):
    assert main(["knot", "6/3"]) == 2
    assert main(["link", "7/3"]) == 2
    err = capsys.readouterr().err
    assert "knot fraction" in err


def test_exit_code_usage_bad_fraction(capsys):
    assert main(["knot", "7:3"]) == 2
    assert main(["knot", "6/4"]) == 2
    assert main(["knot", "7/x"]) == 2
    assert "integer parts, got '7/x'" in capsys.readouterr().err


def test_huge_p_is_a_usage_error_before_any_work(capsys):
    # TwoBridge refuses p > MAX_P before the p - 1 exponents are built
    start = time.perf_counter()
    assert main(["knot", "99999999999/2"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "p must be at most 4001, got 99999999999" in capsys.readouterr().err


def test_q_is_reduced_mod_p(capsys):
    for fraction in ("7/10", "7/-4"):
        code, env = run_json(capsys, ["knot", fraction])
        assert code == 0 and record(env, "report")["fraction"] == "7/3"


def test_exit_code_pipeline_failure(capsys):
    assert main(["link", "4/1"]) == 1
    capsys.readouterr()


def test_exit_code_bianchi_bad_d(capsys):
    assert main(["bianchi", "--d", "5"]) == 2
    assert "--d must be one of" in capsys.readouterr().err


def test_exit_code_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2


def test_one_parser_serves_every_command_of_a_process(capsys, monkeypatch):
    # the parser is built once; a usage error in between changes nothing,
    # so each command reads as it does in a process of its own
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to it
    good = ["knot", "7/3", "--json"]
    for argv in (good, ["verify", "bogus"], ["knot", "6/3"], good):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "jnum.cli", *argv],
                              capture_output=True, text=True, env=child_env(os.environ))
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "0.1.0" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# knot / link envelopes


def test_knot_envelope(capsys):
    code, env = run_json(capsys, ["knot", "7/3"])
    assert code == 0 and env["status"] == "ok"
    rep = record(env, "report")
    assert rep["fraction"] == "7/3"
    assert rep["poly"] == "1,2,1,1"
    assert rep["jorgensen"] == pytest.approx(1.324717957, abs=1e-6)
    assert rep["in_ball"] is True
    assert rep["unit_constant"] is True and rep["unit_leading"] is True
    roots = [r for r in env["results"] if r["kind"] == "root"]
    assert len(roots) == 3
    statuses = {r["status"] for r in roots}
    assert statuses == {"real", "conjugate", "survivor"}
    assert sum(r["selected"] for r in roots) == 1


@pytest.mark.parametrize("argv", [["knot", "7/3", "--root-index", "0"],
                                  ["link", "20/9", "--root-index", "3"]])
def test_no_option_bypasses_the_screen(capsys, argv):
    # the selected root is always the screen's survivor: forcing a root once
    # reported J = 0.5698 < 1 for 7/3 at a real root
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--root-index" in capsys.readouterr().err


def test_link_envelope(capsys):
    code, env = run_json(capsys, ["link", "8/3"])
    assert code == 0
    rep = record(env, "report")
    assert rep["poly"] == "2,2,1"
    assert rep["poly_raw"] == "0,0,-2,-2,-1"
    assert rep["jorgensen"] == pytest.approx(2.0, abs=1e-9)


def test_link_error_envelope(capsys):
    code, env = run_json(capsys, ["link", "4/1"])
    assert code == 1 and env["status"] == "error"
    err = record(env, "error")
    assert err["non_hyperbolic"] is True
    assert "no geometric root" in err["message"]


def _word_at(p, q, z):
    """W = B^e1 A^e2 B^e3 ... at z as nested tuples, letter by letter."""
    w = ((1, 0), (0, 1))
    for i in range(1, p):
        e = -1 if (i * q // p) % 2 else 1
        letter = ((1, 0), (e * z, 1)) if i % 2 else ((1, e), (0, 1))
        w = tuple(tuple(sum(w[r][k] * letter[k][c] for k in range(2))
                        for c in range(2)) for r in range(2))
    return w


# expected status per fraction: W has entries near 10^4 here, so det(W)
# must be judged relative to its terms and the relation residual against
# the accuracy of the computed root
LARGE_WORD_STATUS = {"25/3": "ok", "25/23": "ok", "27/4": "error", "29/3": "ok",
                     "29/5": "ok", "31/3": "ok", "31/25": "ok", "26/3": "ok",
                     "28/5": "ok"}


@pytest.mark.parametrize("fraction", list(LARGE_WORD_STATUS))
def test_large_word_fractions_answer_or_refuse(capsys, fraction):
    p, q = map(int, fraction.split("/"))
    knot = p % 2 == 1
    code, env = run_json(capsys, ["knot" if knot else "link", fraction])
    assert env["status"] == LARGE_WORD_STATUS[fraction]
    assert code == (0 if env["status"] == "ok" else 1)
    if code == 1:
        assert "fails by" in record(env, "error")["message"]
        return
    rep = record(env, "report")
    z = complex(rep["z_re"], rep["z_im"])
    w = _word_at(p, q, z)
    aw = ((w[0][0] + w[1][0], w[0][1] + w[1][1]), w[1])
    if knot:  # W B
        rhs = ((w[0][0] + z * w[0][1], w[0][1]), (w[1][0] + z * w[1][1], w[1][1]))
    else:  # W A
        rhs = ((w[0][0], w[0][0] + w[0][1]), (w[1][0], w[1][0] + w[1][1]))
    scale = 1.0 + max(abs(e) for row in w for e in row)
    dev = max(abs(aw[r][c] - rhs[r][c]) for r in range(2) for c in range(2))
    assert dev <= 1e-6 * scale
    assert rep["jorgensen"] == pytest.approx(abs(z) if knot else abs(z) ** 2, abs=1e-6)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [["link", "58/1"], ["knot", "101/37"],
                                  ["knot", "201/77"], ["link", "500/3"]])
def test_unsolvable_polynomial_is_an_error_envelope(capsys, argv):
    # roots that miss the residual bound are refused, never carried into
    # a non-finite matrix entry; 500/3 has NaN roots, whose NaN residual
    # is refused too, without a numpy warning from the overflowing polish
    code, env = run_json(capsys, argv)
    assert code == 1 and env["status"] == "error"
    assert "residual" in record(env, "error")["message"]


def test_polynomial_past_float64_is_an_error_envelope(capsys):
    # the link polynomial of 1500/7 has coefficients above 1.8e308
    code, env = run_json(capsys, ["link", "1500/7"])
    assert code == 1 and env["status"] == "error"
    assert "float64" in record(env, "error")["message"]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 60).flatmap(lambda p: st.tuples(st.just(p), st.sampled_from(
    [q for q in range(1, p) if math.gcd(p, q) == 1]))))
def test_every_bridge_fraction_answers_or_refuses(fraction):
    # totality: a coprime p/q is an answer or a refusal, never a usage
    # error or a traceback, and its envelope parses against the schema
    p, q = fraction
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["knot" if p % 2 else "link", f"{p}/{q}", "--json"])
    env = json.loads(out.getvalue())
    jsonschema.validate(env, SCHEMA)
    assert (code, env["status"]) in ((0, "ok"), (1, "error")), fraction


@pytest.mark.parametrize("argv", [
    ["knot", "7/3"], ["link", "8/3"], ["link", "4/1"]])
def test_bridge_op_builds_and_solves_once(capsys, monkeypatch, argv):
    calls = {"poly": 0, "solve_roots": 0, "select_geometric_root": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("knot_poly", "link_poly"):
        monkeypatch.setattr(riley, name, counted("poly", getattr(riley, name)))
    for name in ("solve_roots", "select_geometric_root"):
        monkeypatch.setattr(riley, name, counted(name, getattr(riley, name)))
    code, env = run_json(capsys, argv)
    assert code == (1 if argv[1] == "4/1" else 0)
    assert calls == {"poly": 1, "solve_roots": 1, "select_geometric_root": 1}


def test_error_envelope_keeps_the_screen(capsys):
    # 27/16 fails its relation check at the chosen root; the root records
    # still show what the screen decided
    code, env = run_json(capsys, ["knot", "27/16"])
    assert code == 1 and env["status"] == "error"
    roots = [r for r in env["results"] if r["kind"] == "root"]
    rejected = [r for r in roots if r["status"] == "rejected"]
    assert len(rejected) == 4
    assert all(r["screen_j"] < 1.0 for r in rejected)
    assert [r["index"] for r in roots if r["selected"]] == [10]
    assert "A W = W B" in record(env, "error")["message"]


def _far_survivor(tb, *, sample_len):
    # a survivor outside the |z| < 4 disc that bounds every two-bridge root
    roots = riley.RootSet(riley.knot_poly(tb.p, tb.q), (4.5j,), 0.0)
    return riley.RootChoice(roots, None, ("survivor",), (None,), 0)


def _off_pair(x, y):
    # a J(A, W) that disagrees with |z| at the chosen root
    jr = jorgensen_pair(x, y)
    return JReport(jr.value + 0.5, jr.pair, jr.commutator_trace)


@pytest.mark.parametrize("name,fake,message", [
    ("select_geometric_root", _far_survivor, ">= 4"),
    ("jorgensen_pair", _off_pair, "disagrees with |z|")])
def test_bridge_refusals_carry_the_choice(capsys, monkeypatch, name, fake, message):
    monkeypatch.setattr(riley, name, fake)
    with pytest.raises(riley.GeometricRootError, match=re.escape(message)) as exc:
        riley.knot_jreport(7, 3)
    survivor = exc.value.choice.statuses.index("survivor")
    assert exc.value.choice.index == survivor
    code, env = run_json(capsys, ["knot", "7/3"])
    assert code == 1 and env["status"] == "error"
    assert message in record(env, "error")["message"]
    assert [r["index"] for r in env["results"] if r.get("selected")] == [survivor]


# ---------------------------------------------------------------------------
# bianchi / gtk envelopes


def test_bianchi_envelope(capsys):
    code, env = run_json(capsys, ["bianchi", "--d", "3", "--verify"])
    assert code == 0 and env["status"] == "ok"
    assert len([r for r in env["results"] if r["kind"] == "generator"]) == 3
    relators = [r for r in env["results"] if r["kind"] == "relator"]
    assert len(relators) == 6
    assert all(r["ok"] for r in relators)
    rep = record(env, "report")
    assert rep["alpha_re"] == pytest.approx(0.5)


def test_gtk_arithmetic_family(capsys):
    code, env = run_json(capsys, ["gtk", "1/2", "0.5"])
    assert code == 0
    rep = record(env, "report")
    assert rep["jorgensen"] == pytest.approx(1.0, abs=1e-9)
    assert rep["field"] == "Q(sqrt(-1))"
    assert rep["identification"] == "PSL2(O1)"
    assert rep["note"] == "listed family, arithmetic"


def test_gtk_nonarithmetic_family(capsys):
    code, env = run_json(capsys, ["gtk", "1/4", "1.7071067811865475"])
    assert code == 0
    rep = record(env, "report")
    assert rep["note"] == "listed family, not arithmetic"
    assert rep["identification"] is None


def test_gtk_field_holds_every_generator(capsys):
    # tr^2 B lies in Q(sqrt(-3)), but tr A tr B tr AB does not
    code, env = run_json(capsys, ["gtk", "1/3", "0.5"])
    assert code == 0
    rep = record(env, "report")
    assert rep["field_d"] is None and rep["field"] is None


def test_gtk_takes_theta_mod_two_pi_exactly(capsys):
    _, big = run_json(capsys, ["gtk", "99999999999999999999/3", "1"])
    _, pi = run_json(capsys, ["gtk", "3/3", "1"])
    gens = [[r for r in env["results"] if r["kind"] == "generator"]
            for env in (big, pi)]
    assert gens[0] == gens[1] and len(gens[0]) == 2
    rep = record(big, "report")
    assert (rep["commutator_trace_re"], rep["field_d"]) == (1.0, 1)


@pytest.mark.parametrize("theta, k, family", [
    ("3/2", "0.5", "theta = pi/2, k = 1/2"),
    ("5/2", "0.5", "theta = pi/2, k = 1/2"),
    ("7/6", "0.8660254037844386", "theta = pi/6, k = sqrt(3)n/2 (n = 1)")])
def test_gtk_family_lookup_reads_theta_mod_pi(capsys, theta, k, family):
    code, env = run_json(capsys, ["gtk", theta, k])
    rep = record(env, "report")
    assert code == 0 and rep["family"] == family and rep["family_n"] == 1
    assert rep["note"] == "listed family, arithmetic"


@pytest.mark.parametrize("theta, k", [("1/6", "1e16"), ("1/3", "1e200")])
def test_gtk_no_scaled_family_past_float_resolution(capsys, theta, k):
    code, env = run_json(capsys, ["gtk", theta, k])
    rep = record(env, "report")
    assert code == 0 and rep["family"] is None and rep["family_n"] is None
    assert rep["note"] == "not a listed family"


def test_gtk_unlisted(capsys):
    code, env = run_json(capsys, ["gtk", "1/5", "0.9"])
    assert code == 0
    rep = record(env, "report")
    assert rep["note"] == "not a listed family"
    assert rep["family"] is None
    assert rep["jorgensen"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("theta", ["1/2", "1/5", "1/12", "2/7"])
def test_gtk_large_k_answers_j_one(capsys, theta):
    # J(A, B) = 1 for every finite k: the commutator trace is taken from
    # the traceless parts, so no product of huge entries is formed
    for k in ("1e8", "1e10", "1e15", "3.1622776601683795e15", "1e50",
              "1e200", "1e307"):
        code, env = run_json(capsys, ["gtk", theta, k])
        assert code == 0 and env["status"] == "ok", k
        assert abs(record(env, "report")["jorgensen"] - 1.0) <= tol.J_EPS, k


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 12).flatmap(
           lambda den: st.tuples(st.integers(1, 2 * den - 1), st.just(den))),
       st.floats(-3.0, 307.9))
def test_gtk_answers_j_one_for_any_theta_and_k(theta, log_k):
    num, den = theta
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["gtk", f"{num}/{den}", repr(10.0 ** log_k), "--json"])
    env = json.loads(out.getvalue())
    jsonschema.validate(env, SCHEMA)
    assert code == 0
    rep = record(env, "report")
    assert abs(rep["jorgensen"] - 1.0) <= tol.J_EPS
    trace = complex(rep["commutator_trace_re"], rep["commutator_trace_im"])
    assert abs(trace - (2 - cmath.exp(2j * math.pi * num / den))) <= 1e-12


def test_gtk_rejects_bad_k(capsys):
    # 1e308 is finite, but 2 k e^(i theta) overflows
    for k in ("-1.0", "nan", "inf", "1e308"):
        assert main(["gtk", "1/2", k]) == 2, k
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


# ---------------------------------------------------------------------------
# verify suites


@pytest.mark.parametrize("suite", [
    "bianchi", "losid", "arithcomp", "elliptic", "gtk-families"])
def test_verify_suite_ok(capsys, suite):
    code, env = run_json(capsys, ["verify", suite])
    assert code == 0 and env["status"] == "ok"
    assert env["results"], suite


@pytest.fixture
def mutate_fixture(monkeypatch):
    """mutate(name, edit) makes catalog load the fixture name through edit;
    the cached tables are cleared before and after the test."""
    tables = (catalog.gtk_families, catalog.knot_table, catalog.arithcomp_table)
    for table in tables:
        table.cache_clear()
    load = catalog._load_json

    def mutate(name, edit):
        def patched(requested):
            data = load(requested)
            if requested == name:
                edit(data)
            return data
        monkeypatch.setattr(catalog, "_load_json", patched)

    yield mutate
    for table in tables:
        table.cache_clear()


def _failed_labels(env):
    return [r["label"] for r in env["results"] if r.get("ok") is False]


def test_verify_gtk_families_fails_on_a_wrong_field(capsys, mutate_fixture):
    rows = json.loads((resources.files("jnum") / "data" / "gtk_families.json").read_text())
    assert rows[0]["field_d"] == 3

    def edit(data):
        data[0]["field_d"] = 1

    mutate_fixture("gtk_families.json", edit)
    code, env = run_json(capsys, ["verify", "gtk-families"])
    assert code == 1 and env["status"] == "violation"
    assert _failed_labels(env) == [rows[0]["label"]]


def test_verify_knot_table_fails_on_a_wrong_alpha(capsys, mutate_fixture):
    def edit(data):
        data["rows"][1]["alpha"] += 0.01

    mutate_fixture("knot_table.json", edit)
    code, env = run_json(capsys, ["verify", "knot-table"])
    assert code == 1 and env["status"] == "violation"
    assert _failed_labels(env) == ["6_1"]


def test_verify_knot_table_fails_on_a_wrong_minpoly(capsys, mutate_fixture):
    def edit(data):
        data["rows"][0]["minpoly"] = "1,2,2,1"

    mutate_fixture("knot_table.json", edit)
    code, env = run_json(capsys, ["verify", "knot-table"])
    assert code == 1 and env["status"] == "violation"
    assert _failed_labels(env) == ["5_2"]
    assert record(env, "knot")["minpoly_divides"] is False


def test_verify_arithcomp_fails_on_a_wrong_expected_j(capsys, mutate_fixture):
    label = "6^2_3 link group"

    def edit(data):
        row, = (r for r in data if r["label"] == label)
        row["expected_j"] += 0.01

    mutate_fixture("arithcomp.json", edit)
    code, env = run_json(capsys, ["verify", "arithcomp"])
    assert code == 1 and env["status"] == "violation"
    assert _failed_labels(env) == [label]


def test_verify_bianchi_fails_on_a_non_relator(capsys, monkeypatch):
    monkeypatch.setitem(catalog._BIANCHI_RELATORS, 7,
                        catalog._BIANCHI_RELATORS[7] + ("ATAT",))
    code, env = run_json(capsys, ["verify", "bianchi"])
    assert code == 1 and env["status"] == "violation"
    failed = [(r["d"], r["word"]) for r in env["results"] if r["ok"] is False]
    assert failed == [(7, "A T A T")]
    code, env = run_json(capsys, ["bianchi", "--d", "7", "--verify"])
    assert code == 1 and env["status"] == "violation"
    assert [r["word"] for r in env["results"] if r.get("ok") is False] == ["A T A T"]


def test_verify_losid_fails_on_a_moved_k(capsys, monkeypatch):
    build = catalog.gtk_generators
    monkeypatch.setattr(catalog, "gtk_generators", lambda params: build(
        catalog.GtkParams(params.theta_num, params.theta_den, params.k + 1e-3)))
    code, env = run_json(capsys, ["verify", "losid"])
    assert code == 1 and env["status"] == "violation"
    assert len(_failed_labels(env)) == 17


def test_verify_inequality_sweep_fails_on_a_non_discrete_group(capsys, monkeypatch):
    build = cli.bianchi_generators
    near = GeneratorSet(("A", "B"), (RILEY_A, riley_b(0.3 + 0.2j)))
    monkeypatch.setattr(cli, "bianchi_generators",
                        lambda d: near if d == 11 else build(d))
    code, env = run_json(capsys, ["verify", "inequality-sweep", "--max-len", "3"])
    assert code == 1 and env["status"] == "violation"
    failed = [r["group"] for r in env["results"] if r["ok"] is False]
    assert failed == ["Bianchi d = 11"]


def test_verify_elliptic_orders_are_an_identity(capsys, monkeypatch):
    # j_value = 1 at the inadmissible n = 6 as well, so no order fails
    monkeypatch.setattr(cli, "ELLIPTIC_ORDERS", (6,) + cli.ELLIPTIC_ORDERS)
    code, env = run_json(capsys, ["verify", "elliptic"])
    assert code == 0 and record(env, "order")["n"] == 6


def test_verify_elliptic_fails_when_the_screen_passes_everything(capsys, monkeypatch):
    monkeypatch.setattr(cli, "elliptic_type_check",
                        lambda cand: ConditionReport((PASS,) * 6))
    code, env = run_json(capsys, ["verify", "elliptic"])
    assert code == 1 and env["status"] == "violation"
    failed = [r["kind"] for r in env["results"] if r["ok"] is False]
    assert failed == ["candidate", "candidate"]


# ---------------------------------------------------------------------------
# cold start (a fresh interpreter, since this process already holds numpy)

_COLD_START = """
import json, sys
import jnum, jnum.cli
assert "numpy" not in sys.modules, "import jnum, jnum.cli"
for argv in json.loads(sys.argv[1]):
    assert jnum.cli.main(argv + ["--json"]) == 0, argv
    assert "numpy" not in sys.modules, argv
assert jnum.cli.main(["knot", "5/3", "--json"]) == 0
assert "numpy" in sys.modules, "knot 5/3"
"""


def test_catalog_commands_start_without_numpy():
    ops = [["gtk", "1/5", "0.9"], ["gtk", "1/2", "0.5"],
           ["bianchi", "--d", "7", "--verify"]]
    ops += [["verify", s] for s in
            ("bianchi", "losid", "arithcomp", "elliptic", "gtk-families")]
    proc = subprocess.run([sys.executable, "-c", _COLD_START, json.dumps(ops)],
                          capture_output=True, text=True, env=child_env(os.environ))
    assert proc.returncode == 0, proc.stderr


_BARE_IMPORT = """
import sys
import jnum
loaded = sorted(name for name in sys.modules if name.startswith("jnum."))
assert not loaded, loaded
assert "numpy" not in sys.modules
assert jnum.__version__ == "0.1.0", jnum.__version__
"""


def test_the_package_root_imports_nothing():
    # each public name has one import path, its module's
    proc = subprocess.run([sys.executable, "-c", _BARE_IMPORT],
                          capture_output=True, text=True, env=child_env(os.environ))
    assert proc.returncode == 0, proc.stderr


_NO_CODE_GENERATION = """
import sys
import jnum.cli
assert "dataclasses" not in sys.modules and "inspect" not in sys.modules
assert jnum.cli.main(["gtk", "1/5", "0.9", "--json"]) == 0
assert "csv" not in sys.modules, "--json"
assert jnum.cli.main(["gtk", "1/5", "0.9", "--csv"]) == 0
assert "csv" in sys.modules, "--csv"
"""


def test_import_generates_no_code_and_csv_loads_with_csv_output():
    proc = subprocess.run([sys.executable, "-c", _NO_CODE_GENERATION],
                          capture_output=True, text=True, env=child_env(os.environ))
    assert proc.returncode == 0, proc.stderr


def test_verify_inequality_sweep(capsys):
    # each suite group is the oracle's group in PSL(2, O_d), where J >= 1 is
    # a theorem: the suite finds no violation, and its element and candidate
    # counts are the oracle's, decided in exact integers
    suite_gens = [(RILEY_A, riley_b(complex(0.5, math.sqrt(3.0) / 2.0)))]
    suite_gens += [catalog.bianchi_generators(d).mats for d in catalog.BIANCHI_DS]
    for (d, gens), mats in zip(SWEEP_GROUPS, suite_gens, strict=True):
        for g, m in zip(gens, mats, strict=True):
            assert m.entries() == pytest.approx(
                [g[i] + g[i + 1] * omega(d) for i in (0, 2, 4, 6)], abs=1e-15)
    exact = {}
    for max_len in (3, 5):
        code, env = run_json(capsys, ["verify", "inequality-sweep",
                                      "--max-len", str(max_len)])
        assert code == 0
        sweeps = [r for r in env["results"] if r["kind"] == "sweep"]
        assert all(s["n_violations"] == 0 for s in sweeps)
        exact[max_len] = [exact_sweep_counts(d, gens, max_len)
                          for d, gens in SWEEP_GROUPS]
        assert [(s["n_elements"], s["n_candidates"]) for s in sweeps] == exact[max_len]
    assert exact[3] == [(52, 2552), (67, 3806)] + [(67, 3824)] * 4


def test_verify_knot_table(capsys):
    # the slow suite: four knots checked against the table at word length 12
    code, env = run_json(capsys, ["verify", "knot-table"])
    assert code == 0 and env["status"] == "ok"
    knots = [r for r in env["results"] if r["kind"] == "knot"]
    assert len(knots) == 4
    assert all(k["ok"] for k in knots)


def test_verify_knot_table_judges_alpha_at_the_length_asked(capsys):
    # no retry at a longer length: every knot reports the cap it ran with
    code, env = run_json(capsys, ["verify", "knot-table", "--max-len", "2"])
    knots = [r for r in env["results"] if r["kind"] == "knot"]
    assert len(knots) == 4
    assert all(k["max_len"] == 2 for k in knots)
    assert code == 1 and env["status"] == "violation"


def test_verify_error_envelope_reports_the_suite_tolerance(capsys):
    # a length-1 ball holds no loxodromic element; the refusal still shows
    # the tolerance and the word-length cap the suite ran with
    code, env = run_json(capsys, ["verify", "knot-table", "--max-len", "1"])
    assert code == 1 and env["status"] == "error"
    assert env["tolerances"] == {"j_eps": 1e-6}
    assert env["inputs"] == {"suite": "knot-table", "max_len": 1}


# ---------------------------------------------------------------------------
# output formats


def test_human_output(capsys):
    assert main(["knot", "7/3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("knot  status: ok")
    assert "[report]" in out


def test_csv_output(capsys):
    assert main(["verify", "losid", "--csv"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    header = rows[0]
    assert "kind" in header
    assert len(rows) == 38  # header plus one row per identity
    assert all(len(r) == len(header) for r in rows[1:])


# ---------------------------------------------------------------------------
# the --max-len cap


def test_config_max_len_and_flag_precedence(capsys):
    # --max-len is the one setting: the flag sets the screen's cap, and
    # without it the command screens at the default length
    _, env = run_json(capsys, ["knot", "7/3", "--max-len", "4"])
    assert env["inputs"]["max_len"] == 4
    _, env = run_json(capsys, ["knot", "7/3"])
    assert env["inputs"]["max_len"] == 6


UNCAPPED_SUITES = ("bianchi", "losid", "arithcomp", "elliptic", "gtk-families")


@pytest.mark.parametrize("argv", [
    ["verify", "inequality-sweep", "--max-len", "17"],
    ["verify", "knot-table", "--max-len", "17"],
    ["knot", "7/3", "--max-len", "17"],
    *(["verify", suite, "--max-len", "99"] for suite in UNCAPPED_SUITES),
])
def test_max_len_above_the_ball_cap_is_a_usage_error(capsys, argv):
    # refused before any ball is built, not after the screen reaches 17;
    # a suite that builds no word ball takes no --max-len at all
    assert main(argv) == 2
    if argv[1] in UNCAPPED_SUITES:
        expected = ("error: --max-len applies only to knot-table and "
                    f"inequality-sweep, not {argv[1]}\n")
    else:
        expected = "error: --max-len must be at most 16\n"
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize("argv", [["knot", "7/3", "--max-len", "0"],
                                  ["verify", "knot-table", "--max-len", "0"]])
def test_max_len_below_one_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --max-len must be a positive integer\n"


@pytest.mark.parametrize("argv", [["link", "20/9", "--max-len", "1"],
                                  ["knot", "7/3", "--max-len", "1"]])
def test_screen_length_below_two_is_a_usage_error(capsys, argv):
    # the screen runs at lengths 2..max_len: at 1 it would screen nothing,
    # and 20/9 would report a root the default screen rejects at J 0.382
    assert main(argv) == 2
    assert "max_len must be at least 2, got 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# constant tolerances (read at import, so fresh interpreters)


def test_environment_leaves_the_tolerances_alone():
    # JNUM_TOL once rebound CX_EPS, MAT_EPS and J_EPS at import; no value of
    # it, garbage or empty included, changes a byte of the output now
    base = child_env({k: v for k, v in os.environ.items() if k != "JNUM_TOL"})
    outs = []
    for value in (None, "abc", ""):
        env = base if value is None else {**base, "JNUM_TOL": value}
        proc = subprocess.run(
            [sys.executable, "-m", "jnum.cli", "knot", "7/3", "--json"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, (value, proc.stderr)
        outs.append(proc.stdout)
    assert outs[1] == outs[0] and outs[2] == outs[0]
    assert json.loads(outs[0])["tolerances"]["j_eps"] == tol.J_EPS
