"""Command-line surface: envelopes, exit codes, config, and JNUM_TOL."""

import csv
import io
import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from jnum.cli import main

SCHEMA = json.loads(
    (resources.files("jnum") / "data" / "cli_schema.json").read_text())


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
    capsys.readouterr()


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


def test_knot_root_index_bypasses_screen(capsys):
    code, env = run_json(capsys, ["knot", "7/3", "--root-index", "0"])
    assert code == 0
    roots = [r for r in env["results"] if r["kind"] == "root"]
    assert all(r["status"] in ("real", "conjugate", "unscreened") for r in roots)
    rep = record(env, "report")
    assert rep["z_im"] == 0.0
    assert rep["jorgensen"] < 1.0


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


@pytest.mark.parametrize("argv", [
    ["knot", "7/3"], ["link", "8/3"], ["knot", "7/3", "--root-index", "0"],
    ["link", "4/1"]])
def test_bridge_op_builds_and_solves_once(capsys, monkeypatch, argv):
    import jnum.riley as riley
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


def test_gtk_unlisted(capsys):
    code, env = run_json(capsys, ["gtk", "1/5", "0.9"])
    assert code == 0
    rep = record(env, "report")
    assert rep["note"] == "not a listed family"
    assert rep["family"] is None
    assert rep["jorgensen"] == pytest.approx(1.0, abs=1e-9)


def test_gtk_large_k_is_an_error_envelope(capsys):
    # the generators are finite, but a product inside the commutator loses
    # its determinant; 1e30 still answers
    for k in ("1e50", "1e100", "1e200"):
        code, env = run_json(capsys, ["gtk", "1/2", k])
        assert code == 1 and env["status"] == "error", k
        assert "determinant" in record(env, "error")["message"]
    code, env = run_json(capsys, ["gtk", "1/2", "1e30"])
    assert code == 0 and record(env, "report")["jorgensen"] > 0


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


def test_verify_inequality_sweep(capsys):
    code, env = run_json(capsys, ["verify", "inequality-sweep", "--max-len", "3"])
    assert code == 0
    sweeps = [r for r in env["results"] if r["kind"] == "sweep"]
    assert len(sweeps) == 6
    assert all(s["n_violations"] == 0 for s in sweeps)


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


def test_verify_violation_exit_code(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 1e-16}))
    code, env = run_json(capsys, ["verify", "losid", "--config", str(cfg)])
    assert code == 1 and env["status"] == "violation"


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
# config file


def test_config_max_len_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_len": 5}))
    _, env = run_json(capsys, ["knot", "7/3", "--config", str(cfg)])
    assert env["inputs"]["max_len"] == 5
    _, env = run_json(capsys, ["knot", "7/3", "--config", str(cfg),
                               "--max-len", "4"])
    assert env["inputs"]["max_len"] == 4


def test_config_tol_reaches_tolerances(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 0.5}))
    _, env = run_json(capsys, ["verify", "losid", "--config", str(cfg)])
    assert env["tolerances"]["mat_eps"] == 0.5


@pytest.mark.parametrize("payload", [
    "not json at all",
    json.dumps(["list"]),
    json.dumps({"tol": 1.5}),
    json.dumps({"tol": 0}),
    json.dumps({"max_len": 0}),
    json.dumps({"unknown": 1}),
    json.dumps({"max_len": 17}),
    json.dumps({"max_len": True}),
    json.dumps({"max_len": 1}),
])
def test_config_rejects_bad_files(capsys, tmp_path, payload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(payload)
    assert main(["knot", "7/3", "--config", str(cfg)]) == 2
    capsys.readouterr()


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


@pytest.mark.parametrize("argv", [["link", "20/9", "--max-len", "1"],
                                  ["knot", "7/3", "--max-len", "1"]])
def test_screen_length_below_two_is_a_usage_error(capsys, argv):
    # the screen runs at lengths 2..max_len: at 1 it would screen nothing,
    # and 20/9 would report a root the default screen rejects at J 0.382
    assert main(argv) == 2
    assert "max_len must be at least 2, got 1" in capsys.readouterr().err


def test_config_missing_file(capsys):
    assert main(["knot", "7/3", "--config", "/nonexistent/cfg.json"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# JNUM_TOL environment override (import-time, so subprocesses)


def test_jnum_tol_env_override():
    env = {**os.environ, "JNUM_TOL": "1e-7"}
    proc = subprocess.run(
        [sys.executable, "-m", "jnum.cli", "knot", "7/3", "--json"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    tols = json.loads(proc.stdout)["tolerances"]
    assert tols["j_eps"] == 1e-7
    assert tols["mat_eps"] == 1e-7


def test_jnum_tol_rejects_garbage():
    env = {**os.environ, "JNUM_TOL": "abc"}
    proc = subprocess.run(
        [sys.executable, "-m", "jnum.cli", "knot", "7/3"],
        capture_output=True, text=True, env=env)
    assert proc.returncode != 0
    assert "JNUM_TOL" in proc.stderr


def test_jnum_tol_rejects_out_of_range():
    env = {**os.environ, "JNUM_TOL": "2.0"}
    proc = subprocess.run(
        [sys.executable, "-m", "jnum.cli", "knot", "7/3"],
        capture_output=True, text=True, env=env)
    assert proc.returncode != 0
