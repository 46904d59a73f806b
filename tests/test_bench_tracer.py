"""The program surface that bench/tracer.py reads, checked from tests/.

The tracer rebinds public names of the jnum modules by string and reads
attributes of their results, so a rename or a deleted member in src/jnum
would crash every traced op. The bench's own smoke test counts wrong
outputs, not crashes, so this file pins the contract instead: it loads the
tracer by path and feeds each attribute reader a real result.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import pytest

from jnum import riley
from jnum.intpoly import IntPoly
from jnum.linalg import Mat2
from jnum.riley import (RILEY_A, TwoBridge, knot_jreport, link_jreport, riley_b,
                        select_geometric_root)
from jnum.words import GeneratorSet, ball_levels, first_violation, inequality_sweep

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py")
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)

FIG8 = GeneratorSet(("A", "B"),
                    (RILEY_A, riley_b(complex(0.5, math.sqrt(3.0) / 2.0))))


def test_every_traced_name_resolves():
    for mod_name, entries in tracer.TRACED.items():
        module = importlib.import_module(f"jnum.{mod_name}")
        for attr, _, _ in entries:
            assert callable(getattr(module, attr)), f"jnum.{mod_name}.{attr}"
    assert "__mul__" in vars(IntPoly)
    assert "__post_init__" in vars(Mat2)


@pytest.mark.parametrize("p,q", [(7, 3), (13, 7)])
def test_root_choice_attrs(p, q):
    tb = TwoBridge(p, q)
    choice = select_geometric_root(tb)
    assert tracer._root_choice((tb,), {}, choice) == {
        "screened": True, "survivors": choice.statuses.count("survivor"),
        "rejected": choice.statuses.count("rejected"),
        "ambiguous": choice.ambiguous}


@pytest.mark.parametrize("report,p,q", [(knot_jreport, 7, 3), (link_jreport, 8, 3)])
def test_the_pipeline_calls_the_screen_as_the_tracer_reads_it(monkeypatch, report, p, q):
    # _root_choice reads a second positional argument as a forced root, so
    # the call the pipeline really makes must read as screened
    calls = []

    def wrapped(*args, **kwargs):
        calls.append((args, kwargs))
        return select_geometric_root(*args, **kwargs)

    monkeypatch.setattr(riley, "select_geometric_root", wrapped)
    choice = report(p, q).choice
    (args, kwargs), = calls
    assert tracer._root_choice(args, kwargs, choice)["screened"] is True


def test_sweep_ball_and_hit_attrs():
    rep = inequality_sweep(FIG8, 2)
    assert tracer._sweep((FIG8, 2), {}, rep) == {"candidates": rep.n_candidates}
    assert tracer._ball((FIG8, 2), {}, ball_levels(FIG8, 2)) == {
        "sizes": [1, 4, 12], "arity": 2}
    assert tracer._hit((FIG8, 4), {}, first_violation(FIG8, 4)) == {"hit": False}
    near = GeneratorSet(("A", "B"), (RILEY_A, riley_b(0.1)))
    assert tracer._hit((near, 2), {}, first_violation(near, 2)) == {"hit": True}
