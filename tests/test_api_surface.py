"""Every name jnum exports has a caller in the program itself."""

import ast
from pathlib import Path

import jnum

SRC = Path(jnum.__file__).parent

# exported names whose callers are outside src/jnum, each with the reason
# it stays
KEPT = {
    "subset_oracle_poly": "reference oracle for the representation polynomial DP",
    "word_matrix": "reference oracle for W; bench/tracer.py binds it by name",
    "classify": "tests/test_acceptance.py imports it",
    "commutator": "group-product reference the commutator identity is tested against",
    "unit_j_pairs": "tests/test_acceptance.py imports it",
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
