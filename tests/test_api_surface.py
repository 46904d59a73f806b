"""Every name jnum exports, and every private helper it defines, has a
caller in the program itself."""

import ast
from pathlib import Path

import jnum

SRC = Path(jnum.__file__).parent

# exported names whose callers are outside src/jnum, each with the reason
# it stays
KEPT = {
    "word_matrix": "reference oracle for W; bench/tracer.py binds it by name",
    "min_c_entry": "the planned cusp scan of ROADMAP item 7 (|c| >= 1)",
    "is_nonelementary": "the pair oracle of tests/test_words.py; bench/tracer.py "
                        "binds it by name",
}


def _loaded_identifiers(path):
    """Identifiers that the code of path reads, as names or attributes."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def _private_definitions(path):
    """Module-level private names of path: _-prefixed defs, classes and
    assignment targets (dunders such as __all__ excluded)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _orphaned_helpers(paths):
    """Private names defined in one of paths that none of them reads."""
    defined, read = set(), set()
    for path in paths:
        defined |= {(path.name, name) for name in _private_definitions(path)}
        read |= _loaded_identifiers(path)
    return {f"{file}:{name}" for file, name in defined if name not in read}


def test_every_export_has_a_program_caller():
    used = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            used |= _loaded_identifiers(path)
    uncalled = {name for name in jnum.__all__
                if name != "__version__" and name not in used}
    assert uncalled == set(KEPT)


def test_the_lint_sees_loads_but_not_definitions(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("def f(x):\n    y = x.a\n    g.b = 1\n    return h(y)\n")
    assert _loaded_identifiers(sample) == {"x", "a", "g", "h", "y"}


def test_every_private_helper_has_a_reader():
    assert _orphaned_helpers(sorted(SRC.glob("*.py"))) == set()


def test_the_helper_lint_finds_an_orphan(tmp_path):
    user = tmp_path / "user.py"
    user.write_text("from .lib import _used\n\n\ndef public():\n    return _used(_K)\n")
    lib = tmp_path / "lib.py"
    lib.write_text("__all__ = []\n_K, _L = 1, 2\n\n\ndef _used():\n    def _inner():\n"
                   "        pass\n\n\nclass _Orphan:\n    pass\n")
    assert _private_definitions(lib) == {"_K", "_L", "_used", "_Orphan"}
    assert _orphaned_helpers([user, lib]) == {"lib.py:_L", "lib.py:_Orphan"}
