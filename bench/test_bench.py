"""Self-tests of the benchmark: its checkers, its inputs and a minimal-size run.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from jnum.cli import main  # noqa: E402

CHECKER = checks.Checker(ROOT)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
FAMILIES = json.loads((ROOT / "src" / "jnum" / "data" / "gtk_families.json")
                      .read_text(encoding="utf-8"))


def jnum(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


def outcome(argv, rc, stdout, error=None):
    return CHECKER.classify(argv, rc, stdout, error)[0]


def planted(argv, edit):
    """(rc, stdout) of a real run of argv with ``edit`` applied to its envelope."""
    rc, out = jnum(argv)
    env = json.loads(out)
    edit(env)
    return rc, json.dumps(env)


REAL = ([["knot", "7/3", "--json"], ["link", "8/3", "--json"],
         ["verify", "knot-table", "--max-len", str(workloads.SMOKE_KNOT_TABLE_MAX_LEN), "--json"],
         ["verify", "inequality-sweep", "--max-len", str(workloads.SMOKE_SWEEP_MAX_LEN), "--json"],
         ["gtk", "3/7", "1.234567", "--json"]]
        + [workloads.gtk_family_argv(row) for row in FAMILIES]
        + [["bianchi", "--d", str(d), "--verify", "--json"] for d in workloads.BIANCHI_DS]
        + [["verify", suite, "--json"] for suite in workloads.VERIFY_SUITES])


@pytest.mark.parametrize("argv", REAL, ids=lambda a: " ".join(a[:3]))
def test_checkers_accept_real_outputs(argv):
    rc, out = jnum(argv)
    assert CHECKER.classify(argv, rc, out) == (checks.ANSWERED, None)


def test_declared_refusal_is_neither_answered_nor_failed():
    argv = ["knot", "9/2", "--json"]
    assert outcome(argv, *jnum(argv)) == checks.REFUSED


@pytest.mark.parametrize("argv", [["knot", "7/3", "--json"], ["link", "8/3", "--json"]])
@pytest.mark.parametrize("dz", [1e-3, 1e-3j])
def test_bridge_check_rejects_moved_root(argv, dz):
    def move(env):
        for rec in env["results"]:
            if rec["kind"] == "report" or (rec["kind"] == "root" and rec["selected"]):
                rec["z_re"] += dz.real
                rec["z_im"] += dz.imag
    assert outcome(argv, *planted(argv, move)) == checks.WRONG


def test_bridge_word_vanishes_at_a_real_root():
    rc, out = jnum(["knot", "7/3", "--json"])
    rep = next(r for r in json.loads(out)["results"] if r["kind"] == "report")
    w = checks.bridge_word(7, 3, complex(rep["z_re"], rep["z_im"]))
    assert abs(w[3]) < 1e-9


def test_sweep_check_rejects_one_violation():
    argv = REAL[3]

    def violate(env):
        env["results"][0]["n_violations"] = 1
    assert outcome(argv, *planted(argv, violate)) == checks.WRONG


def test_knot_table_check_rejects_moved_alpha():
    argv = REAL[2]

    def move(env):
        next(r for r in env["results"] if r["kind"] == "knot")["alpha"] += 1e-3
    assert outcome(argv, *planted(argv, move)) == checks.WRONG


def test_gtk_check_rejects_wrong_family_and_j():
    argv = workloads.gtk_family_argv(FAMILIES[0])

    def rename(env):
        env["results"][-1]["identification"] = "another group"

    def move_b(env):
        env["results"][1]["c_re"] += 1e-3
    assert outcome(argv, *planted(argv, rename)) == checks.WRONG
    assert outcome(argv, *planted(argv, move_b)) == checks.WRONG


def test_schema_invalid_envelope_fails():
    argv = REAL[0]

    def extra_key(env):
        env["extra"] = 1

    def nested(env):
        env["results"][0]["z_re"] = {"value": 1.0}
    assert outcome(argv, *planted(argv, extra_key)) == checks.WRONG
    assert outcome(argv, *planted(argv, nested)) == checks.WRONG
    assert outcome(argv, 0, "not json") == checks.WRONG


def test_exit_code_must_agree_with_status():
    argv = REAL[0]
    rc, out = jnum(argv)
    assert outcome(argv, 1, out) == checks.WRONG


def test_child_exiting_with_3_fails(monkeypatch):
    monkeypatch.setattr(run, "jnum_child",
                        lambda argv, op=None, trace_out=None:
                        [sys.executable, "-c", "import sys; sys.exit(3)"])
    rc, out, error, _ = run._catalog_call(None, [])(0, ["verify", "losid", "--json"])
    assert rc == 3
    assert outcome(["verify", "losid", "--json"], rc, out, error) == checks.CRASH


def test_raising_op_fails():
    assert outcome(REAL[0], None, "", "ValueError: determinant") == checks.CRASH


def test_inputs_come_from_the_seed():
    def scan(seed):
        return workloads.ops("bridge-scan", seed, FAMILIES)
    assert scan(7) == scan(7)
    assert scan(7) != scan(8)
    assert sorted(scan(7)) == sorted(scan(8))
    assert len({tuple(a) for a in scan(7)}) == len(workloads.bridge_set()) == 38
    assert len(workloads.bridge_fractions()) == 302
    cat = workloads.ops("catalog-cli", 3, FAMILIES)
    assert [next(cat) for _ in range(40)] == [
        a for a, _ in zip(workloads.ops("catalog-cli", 3, FAMILIES), range(40))]


def test_benchmark_json_lists_what_the_runner_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracer.LAYER_METRICS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    result, lines = run.measure(workload, seed=1, seconds=0.5, trace=bool(trace), smoke=True)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    text = "\n".join(lines)
    for m in spec:
        assert f" {m['name']} " in text


def test_refuses_to_run_without_the_program():
    empty = ROOT / ".bench_build" / "selftest-empty"
    shutil.rmtree(empty, ignore_errors=True)
    shutil.copytree(BENCH, empty / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", empty)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=empty, capture_output=True, text=True, timeout=180)
    shutil.rmtree(empty)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
