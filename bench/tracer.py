"""Spans around the public functions of each jnum module, recorded from outside.

The tracer never edits the program. It rebinds each traced public name in
every ``jnum`` module namespace that holds it (``words.first_violation`` is
also bound in ``riley``, ``cli.solve_roots`` is the one from ``riley``, and
so on), wraps ``IntPoly.__mul__`` and counts ``Mat2.__post_init__`` on their
classes, and times the execution of each ``jnum`` module while it is
imported. Spans are kept in memory as ``[name, start, end, parent, op,
attrs]`` and written out as JSON lines when the process ends.

``layer_metrics`` turns the spans of one or more processes into the
per-layer metrics listed in ``LAYER_METRICS``. A span's self time is its
duration minus the time its child spans cover; traced code is single
threaded, so children never overlap and their durations simply add up.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

SETUP_OP = "setup"

# (metric name, unit). Counts and times are per timed op; ratios are taken
# over totals; import and fixture times are per traced process.
LAYER_METRICS = (
    ("words.first_violation.calls", "count/op"),
    ("words.first_violation.self_s", "s/op"),
    ("words.first_violation.hits", "count/op"),
    ("words.pairs", "count/op"),
    ("words.inequality_sweep.self_s", "s/op"),
    ("words.sweep.candidates", "count/op"),
    ("words.pairs_per_s", "1/s"),
    ("words.ball_levels.calls", "count/op"),
    ("words.ball_levels.s", "s/op"),
    ("words.ball_levels.peak_alloc_mb", "MB"),
    ("words.ball.elements", "count/op"),
    ("words.ball.keep_ratio", "ratio"),
    ("words.min_loxodromic_defect.self_s", "s/op"),
    ("riley.select_geometric_root.calls", "count/op"),
    ("riley.select_geometric_root.self_s", "s/op"),
    ("riley.solve_roots.calls", "count/op"),
    ("riley.solve_roots.s", "s/op"),
    ("riley.poly.calls", "count/op"),
    ("riley.poly.s", "s/op"),
    ("riley.word_matrix.s", "s/op"),
    ("riley.screen.roots", "count/op"),
    ("riley.screen.rejected", "count/op"),
    ("riley.screen.ambiguous", "count/op"),
    ("riley.refused", "count/op"),
    ("intpoly.mul.calls", "count/op"),
    ("intpoly.mul.s", "s/op"),
    ("linalg.is_nonelementary.calls", "count/op"),
    ("linalg.is_nonelementary.s", "s/op"),
    ("linalg.is_nonelementary.confirm_ratio", "ratio"),
    ("linalg.jorgensen_pair.calls", "count/op"),
    ("linalg.jorgensen_pair.s", "s/op"),
    ("linalg.mat2.validations", "count/op"),
    ("arith.recognize_invariant_field.calls", "count/op"),
    ("arith.recognize_invariant_field.s", "s/op"),
    ("arith.recognize_invariant_field.hit_ratio", "ratio"),
    ("catalog.family_match.calls", "count/op"),
    ("catalog.family_match.s", "s/op"),
    ("catalog.family_match.hit_ratio", "ratio"),
    ("catalog.fixtures.load_s", "s"),
    ("cli.main.self_s", "s/op"),
    ("cli.build_parser.s", "s/op"),
    ("tolerances.import_s", "s"),
    ("intpoly.import_s", "s"),
    ("linalg.import_s", "s"),
    ("words.import_s", "s"),
    ("riley.import_s", "s"),
    ("arith.import_s", "s"),
    ("catalog.import_s", "s"),
    ("cli.import_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

IMPORTED_MODULES = ("tolerances", "intpoly", "linalg", "words", "riley",
                    "arith", "catalog", "cli")

# Pipeline failures the CLI turns into an "error" envelope.
REFUSALS = ("GeometricRootError", "SearchError")


def _hit(args, kwargs, result):
    return {"hit": result is not None}


def _confirmed(args, kwargs, result):
    return {"hit": bool(result)}


def _ball(args, kwargs, result):
    return {"sizes": [len(level) for level in result],
            "arity": args[0].arity}


def _sweep(args, kwargs, result):
    return {"candidates": result.n_candidates}


def _root_choice(args, kwargs, result):
    screened = kwargs.get("root_index", args[1] if len(args) > 1 else None) is None
    return {"screened": screened, "survivors": len(result.survivors),
            "rejected": len(result.rejected), "ambiguous": result.ambiguous}


# module -> ((public name, span name, attrs from (args, kwargs, result)), ...)
TRACED = {
    "words": (("first_violation", "words.first_violation", _hit),
              ("inequality_sweep", "words.inequality_sweep", _sweep),
              ("ball_levels", "words.ball_levels", _ball),
              ("min_loxodromic_defect", "words.min_loxodromic_defect", None)),
    "riley": (("select_geometric_root", "riley.select_geometric_root", _root_choice),
              ("solve_roots", "riley.solve_roots", None),
              ("knot_poly", "riley.poly", None),
              ("link_poly", "riley.poly", None),
              ("word_matrix", "riley.word_matrix", None),
              ("knot_jreport", "riley.knot_jreport", None),
              ("link_jreport", "riley.link_jreport", None)),
    "linalg": (("is_nonelementary", "linalg.is_nonelementary", _confirmed),
               ("jorgensen_pair", "linalg.jorgensen_pair", None)),
    "arith": (("recognize_invariant_field", "arith.recognize_invariant_field", _hit),),
    "catalog": (("family_match", "catalog.family_match", _hit),
                ("arithcomp_table", "catalog.fixtures", None),
                ("knot_table", "catalog.fixtures", None),
                ("gtk_families", "catalog.fixtures", None),
                ("geodesic_defect_bound", "catalog.fixtures", None)),
    "cli": (("main", "cli.main", None),
            ("build_parser", "cli.build_parser", None)),
}


def _ball_length(args, kwargs):
    return kwargs.get("max_len", args[1] if len(args) > 1 else None)


# Spans that measure their peak traced allocation with tracemalloc, keyed
# by what makes their size: only the first call per key within an op is
# measured, because tracemalloc slows the per-row Python loop of a large
# ball several times over.
ALLOC_KEYS = {"words.ball_levels": _ball_length}


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)  # op -> Mat2 validations
        self.op = SETUP_OP
        self.alloc_seen = set()

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self.stack
        alloc_key = ALLOC_KEYS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            alloc = False
            if alloc_key is not None:
                key = (self.op, alloc_key(args, kwargs))
                alloc = key not in self.alloc_seen
                self.alloc_seen.add(key)
            if alloc:
                tracemalloc.start()
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = {"raised": type(exc).__name__}
                raise
            finally:
                rec[2] = perf_counter()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
            extra = attrs(args, kwargs, result) if attrs else {}
            if alloc:
                extra["peak_bytes"] = peak
            rec[5] = extra or None
            return result

        return traced

    def time_imports(self):
        """Record a span around the execution of every jnum module imported from now on."""
        sys.meta_path.insert(0, _ImportTimer(self))

    def install(self):
        """Rebind the traced public names; call after ``import jnum.cli``."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "jnum" or name.startswith("jnum."))]
        for mod_name, entries in TRACED.items():
            source = sys.modules[f"jnum.{mod_name}"]
            for attr, span_name, attrs in entries:
                original = getattr(source, attr)
                wrapper = self.wrap(span_name, original, attrs)
                for mod in modules:
                    for bound, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, bound, wrapper)
        intpoly = sys.modules["jnum.intpoly"].IntPoly
        intpoly.__mul__ = self.wrap("intpoly.mul", intpoly.__mul__)
        mat2 = sys.modules["jnum.linalg"].Mat2
        validate = mat2.__post_init__
        counts = self.counts

        @functools.wraps(validate)
        def counted(obj):
            counts[self.op] += 1
            validate(obj)

        mat2.__post_init__ = counted

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"counts": dict(self.counts)}, f)
            f.write("\n")
            for rec in self.spans:
                json.dump(rec, f)
                f.write("\n")


class _ImportTimer(importlib.abc.MetaPathFinder):
    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if not fullname.startswith("jnum."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is not None and spec.loader is not None:
            short = fullname[len("jnum."):]
            spec.loader.exec_module = self.tracer.wrap(
                f"import.{short}", spec.loader.exec_module)
        return spec


def load_spans(path):
    """(counts, spans) of one process, as written by ``Tracer.dump``."""
    with open(path, "r", encoding="utf-8") as f:
        counts = json.loads(f.readline())["counts"]
        spans = [json.loads(line) for line in f]
    return counts, spans


def _div(num, den):
    return num / den if den else 0.0


def layer_metrics(processes, timed_ops, overhead_frac):
    """Per-layer metrics from the spans of every traced process.

    ``processes`` is a list of (counts, spans) pairs; ``timed_ops`` the op
    ids of the timed loop (spans of other ops, such as set-up and warm-up,
    only feed the per-process import and fixture times). A ratio whose
    base is zero reads 0.0; its base is the matching ``.calls`` metric.
    """
    timed = {str(op) for op in timed_ops}
    n_ops = len(timed)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    hits = defaultdict(int)
    per_process = defaultdict(float)
    pairs = 0
    candidates = 0
    pair_self = 0.0
    elements = formed = 0
    peak_alloc = 0
    screen = defaultdict(int)
    refused_ops = set()
    validations = 0
    for counts, spans in processes:
        validations += sum(n for op, n in counts.items() if op in timed)
        children = defaultdict(list)
        for i, rec in enumerate(spans):
            if rec[3] >= 0:
                children[rec[3]].append(i)
        for i, (name, start, end, parent, op, attrs) in enumerate(spans):
            dur = end - start
            own = dur - sum(spans[c][2] - spans[c][1] for c in children[i])
            attrs = attrs or {}
            if name.startswith("import.") or name == "catalog.fixtures":
                per_process[name] += own if name.startswith("import.") else dur
                continue
            if str(op) not in timed:
                continue
            calls[name] += 1
            total[name] += dur
            self_s[name] += own
            hits[name] += bool(attrs.get("hit"))
            if attrs.get("raised") in REFUSALS and name.startswith("riley."):
                refused_ops.add(str(op))
            if name in ("words.first_violation", "words.inequality_sweep"):
                for c in children[i]:
                    sizes = (spans[c][5] or {}).get("sizes")
                    if spans[c][0] == "words.ball_levels" and sizes:
                        pairs += sum(sizes[1:]) ** 2
                pair_self += own
                candidates += attrs.get("candidates", 0)
            elif name == "words.ball_levels" and "sizes" in attrs:
                sizes = attrs["sizes"]
                elements += sum(sizes[1:])
                formed += sum(sizes[:-1]) * 2 * attrs["arity"]
                peak_alloc = max(peak_alloc, attrs.get("peak_bytes", 0))
            elif name == "riley.select_geometric_root" and attrs.get("screened"):
                screen["roots"] += attrs["survivors"] + attrs["rejected"]
                screen["rejected"] += attrs["rejected"]
                screen["ambiguous"] += bool(attrs["ambiguous"])
    n_proc = len(processes)

    def per_op(x):
        return _div(x, n_ops)

    values = {
        "words.first_violation.calls": per_op(calls["words.first_violation"]),
        "words.first_violation.self_s": per_op(self_s["words.first_violation"]),
        "words.first_violation.hits": per_op(hits["words.first_violation"]),
        "words.pairs": per_op(pairs),
        "words.inequality_sweep.self_s": per_op(self_s["words.inequality_sweep"]),
        "words.sweep.candidates": per_op(candidates),
        "words.pairs_per_s": _div(pairs, pair_self),
        "words.ball_levels.calls": per_op(calls["words.ball_levels"]),
        "words.ball_levels.s": per_op(total["words.ball_levels"]),
        "words.ball_levels.peak_alloc_mb": peak_alloc / 2 ** 20,
        "words.ball.elements": per_op(elements),
        "words.ball.keep_ratio": _div(elements, formed),
        "words.min_loxodromic_defect.self_s": per_op(self_s["words.min_loxodromic_defect"]),
        "riley.select_geometric_root.calls": per_op(calls["riley.select_geometric_root"]),
        "riley.select_geometric_root.self_s": per_op(self_s["riley.select_geometric_root"]),
        "riley.solve_roots.calls": per_op(calls["riley.solve_roots"]),
        "riley.solve_roots.s": per_op(total["riley.solve_roots"]),
        "riley.poly.calls": per_op(calls["riley.poly"]),
        "riley.poly.s": per_op(total["riley.poly"]),
        "riley.word_matrix.s": per_op(total["riley.word_matrix"]),
        "riley.screen.roots": per_op(screen["roots"]),
        "riley.screen.rejected": per_op(screen["rejected"]),
        "riley.screen.ambiguous": per_op(screen["ambiguous"]),
        "riley.refused": per_op(len(refused_ops)),
        "intpoly.mul.calls": per_op(calls["intpoly.mul"]),
        "intpoly.mul.s": per_op(total["intpoly.mul"]),
        "linalg.is_nonelementary.calls": per_op(calls["linalg.is_nonelementary"]),
        "linalg.is_nonelementary.s": per_op(total["linalg.is_nonelementary"]),
        "linalg.is_nonelementary.confirm_ratio": _div(
            hits["linalg.is_nonelementary"], calls["linalg.is_nonelementary"]),
        "linalg.jorgensen_pair.calls": per_op(calls["linalg.jorgensen_pair"]),
        "linalg.jorgensen_pair.s": per_op(total["linalg.jorgensen_pair"]),
        "linalg.mat2.validations": per_op(validations),
        "arith.recognize_invariant_field.calls": per_op(calls["arith.recognize_invariant_field"]),
        "arith.recognize_invariant_field.s": per_op(total["arith.recognize_invariant_field"]),
        "arith.recognize_invariant_field.hit_ratio": _div(
            hits["arith.recognize_invariant_field"], calls["arith.recognize_invariant_field"]),
        "catalog.family_match.calls": per_op(calls["catalog.family_match"]),
        "catalog.family_match.s": per_op(total["catalog.family_match"]),
        "catalog.family_match.hit_ratio": _div(
            hits["catalog.family_match"], calls["catalog.family_match"]),
        "catalog.fixtures.load_s": _div(per_process["catalog.fixtures"], n_proc),
        "cli.main.self_s": per_op(self_s["cli.main"]),
        "cli.build_parser.s": per_op(total["cli.build_parser"]),
        "trace.overhead_frac": overhead_frac,
    }
    for mod in IMPORTED_MODULES:
        values[f"{mod}.import_s"] = _div(per_process[f"import.{mod}"], n_proc)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in LAYER_METRICS}
