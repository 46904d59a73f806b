"""Every public module-level name of src/jnum, found in the module that
defines it, every private helper it defines and every public member of
its classes has a reader in the program itself."""

import ast
from pathlib import Path

import jnum

SRC = Path(jnum.__file__).parent

# public names whose callers are outside src/jnum, each with the reason
# it stays
KEPT = {
    "word_matrix": "reference oracle for W; bench/tracer.py binds it by name",
    "min_c_entry": "the planned cusp scan of ROADMAP item 7 (|c| >= 1)",
    "is_nonelementary": "the pair oracle of tests/test_words.py; bench/tracer.py "
                        "binds it by name",
}

# public class members (methods, properties, annotated fields) that no code
# in src/jnum reads as an attribute, each with the reason it stays
KEPT_MEMBERS = {
    "rejected": "RootChoice.rejected: read by _root_choice in bench/tracer.py",
    "pair": "BridgeReport.pair and JReport.pair: the knot report's (A, W) "
            "witness, for ROADMAP item 5",
    "k_exact": "GtkFamilyRow.k_exact: the exact k for ROADMAP item 17(b)",
}


def _loaded_identifiers(path):
    """Identifiers that the code of path reads, as names or attributes."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def _module_definitions(path):
    """Module-level names of path: defs, classes and assignment targets
    (imports excluded)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return names


def _private_definitions(path):
    """Module-level private names of path: _-prefixed, dunders such as
    __all__ excluded."""
    return {n for n in _module_definitions(path)
            if n.startswith("_") and not n.startswith("__")}


def _public_definitions(path):
    """Module-level public names of path: those without a leading _."""
    return {n for n in _module_definitions(path) if not n.startswith("_")}


def _unread_definitions(paths, definitions):
    """(file, name) of each name that definitions finds in one of paths
    and that none of paths reads."""
    defined, read = set(), set()
    for path in paths:
        defined |= {(path.name, name) for name in definitions(path)}
        read |= _loaded_identifiers(path)
    return {(file, name) for file, name in defined if name not in read}


def _orphaned_helpers(paths):
    """Private names defined in one of paths that none of them reads."""
    return {f"{file}:{name}"
            for file, name in _unread_definitions(paths, _private_definitions)}


def _public_members(path):
    """(class, name) of every public method, property and annotated
    field defined in a class body of path."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    members = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            else:
                continue
            if not name.startswith("_"):
                members.add((cls.name, name))
    return members


def _unread_members(paths):
    """Public members of the classes of paths whose name none of paths
    reads as an attribute."""
    members, read = set(), set()
    for path in paths:
        members |= _public_members(path)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return {(cls, name) for cls, name in members if name not in read}


def test_every_public_name_has_a_program_caller():
    unread = _unread_definitions(sorted(SRC.glob("*.py")), _public_definitions)
    assert {name for _, name in unread} == set(KEPT), sorted(unread)


def test_the_lint_sees_loads_but_not_definitions(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("def f(x):\n    y = x.a\n    g.b = 1\n    return h(y)\n")
    assert _loaded_identifiers(sample) == {"x", "a", "g", "h", "y"}


def test_every_private_helper_has_a_reader():
    assert _orphaned_helpers(sorted(SRC.glob("*.py"))) == set()


def test_no_module_generates_code():
    # the value classes share hand-written methods (jnum.frozen); re.compile
    # and the like are attributes, not the builtins
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        builtins = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not builtins & {"exec", "eval", "compile"}, path.name


def test_the_helper_lint_finds_an_orphan(tmp_path):
    user = tmp_path / "user.py"
    user.write_text("from .lib import _used\n\n\ndef public():\n    return _used(_K)\n")
    lib = tmp_path / "lib.py"
    lib.write_text("__all__ = []\n_K, _L = 1, 2\n\n\ndef _used():\n    def _inner():\n"
                   "        pass\n\n\nclass _Orphan:\n    pass\n")
    assert _private_definitions(lib) == {"_K", "_L", "_used", "_Orphan"}
    assert _orphaned_helpers([user, lib]) == {"lib.py:_L", "lib.py:_Orphan"}


def test_the_public_name_lint_finds_an_unread_name(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("from .other import Imported\nCAP = 3\nUSED, SPARE = 1, 2\n"
                   "_hidden = 0\n\n\ndef called():\n    pass\n\n\n"
                   "def spare():\n    pass\n\n\nclass Shown:\n    pass\n")
    user = tmp_path / "user.py"
    user.write_text("from . import lib\nfrom .lib import called\n\n\n"
                    "def _run():\n    return called(), lib.USED, lib.Shown\n")
    assert _public_definitions(lib) == {"CAP", "USED", "SPARE", "called",
                                        "spare", "Shown"}
    # called is read as a bare name, USED and Shown as attributes; the
    # private _hidden and _run and the imported Imported are not public names
    assert _unread_definitions([lib, user], _public_definitions) == {
        ("lib.py", "CAP"), ("lib.py", "SPARE"), ("lib.py", "spare")}


def test_every_public_member_has_a_reader():
    unread = _unread_members(sorted(SRC.glob("*.py")))
    assert {name for _, name in unread} == set(KEPT_MEMBERS), sorted(unread)


def test_the_member_lint_finds_an_unread_member(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("class Rec:\n    used: int\n    spare: int\n    _own: int\n"
                   "    plain = 1\n\n    @property\n    def shown(self):\n"
                   "        return self.used\n\n    def dropped(self):\n"
                   "        pass\n\n    def __eq__(self, other):\n        pass\n")
    user = tmp_path / "user.py"
    user.write_text("def show(rec, dropped):\n    spare = dropped\n"
                    "    return rec.shown, spare\n")
    assert _public_members(lib) == {("Rec", "used"), ("Rec", "spare"),
                                    ("Rec", "shown"), ("Rec", "dropped")}
    # a bare name is no attribute read: spare and dropped stay unread
    assert _unread_members([lib, user]) == {("Rec", "spare"), ("Rec", "dropped")}
