"""Every numeric threshold of the library is named in jnum.tolerances,
and every name there is read by the library."""

import ast
import re
import tokenize
from pathlib import Path

import jnum
from jnum import tolerances

SRC = Path(jnum.__file__).parent


def _scientific_literals(path):
    """(line, text) of each float literal in e-notation in the code of path."""
    with open(path, "rb") as f:
        return [(tok.start[0], tok.string) for tok in tokenize.tokenize(f.readline)
                if tok.type == tokenize.NUMBER
                and re.fullmatch(r"[0-9._]*[eE][+-]?[0-9_]+j?", tok.string)]


def test_no_threshold_outside_tolerances():
    found = {path.name: _scientific_literals(path) for path in sorted(SRC.glob("*.py"))
             if path.name != "tolerances.py"}
    assert len(found) >= 8
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_lint_sees_code_but_not_strings_or_comments(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text('x = 2.5e-3  # 1e-9\ny = "1e-6"\nz = 10 ** 6 + 1E5j\n')
    assert _scientific_literals(sample) == [(1, "2.5e-3"), (3, "1E5j")]


def _tol_reads(path):
    """Names read as tol.NAME in the code of path."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == "tol"}


def test_every_tolerance_has_a_reader():
    public = {name for name in vars(tolerances)
              if name.isupper() and not name.startswith("_")}
    read = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "tolerances.py":
            read |= _tol_reads(path)
    assert len(public) >= 10
    assert public - read == set()


def test_the_reader_lint_sees_tol_attributes_only(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("x = tol.A + other.B\ntol.C = 1\ny = 'tol.D'  # tol.E\n"
                      "z = f(tol.F_EPS).real\n")
    assert _tol_reads(sample) == {"A", "F_EPS"}
