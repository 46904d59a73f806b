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


@pytest.mark.parametrize("fraction", ["25/3", "25/23", "27/4", "29/5", "31/25"])
def test_large_word_fractions_answer_or_refuse(capsys, fraction):
    # W has polynomial entries with coefficients near 9,000 here; evaluating
    # them at the root used to drift det(W) past 1e-9 and raise out of main
    code, env = run_json(capsys, ["knot", fraction])
    assert code in (0, 1)
    assert env["status"] == ("ok" if code == 0 else "error")
    if code == 1:
        record(env, "error")
        return
    rep = record(env, "report")
    z = complex(rep["z_re"], rep["z_im"])
    p, q = map(int, fraction.split("/"))
    w = _word_at(p, q, z)
    aw = ((w[0][0] + w[1][0], w[0][1] + w[1][1]), w[1])
    wb = ((w[0][0] + z * w[0][1], w[0][1]), (w[1][0] + z * w[1][1], w[1][1]))
    scale = 1.0 + max(abs(e) for row in w for e in row)
    dev = max(abs(aw[r][c] - wb[r][c]) for r in range(2) for c in range(2))
    assert dev <= 1e-6 * scale
    assert rep["jorgensen"] == pytest.approx(abs(z), abs=1e-6)


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


def test_gtk_rejects_bad_k(capsys):
    assert main(["gtk", "1/2", "-1.0"]) == 2
    capsys.readouterr()


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
    cfg.write_text(json.dumps({"max_len": 8}))
    _, env = run_json(capsys, ["knot", "7/3", "--config", str(cfg)])
    assert env["inputs"]["max_len"] == 8
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
])
def test_config_rejects_bad_files(capsys, tmp_path, payload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(payload)
    assert main(["knot", "7/3", "--config", str(cfg)]) == 2
    capsys.readouterr()


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
