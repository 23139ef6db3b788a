"""The package keeps no public code that nothing calls.

A public module-level function, or a public method of a public class, must
be referenced in ``src/noncongruent`` other than by its own definition, or
be named in a Python file under ``demos/`` or ``bench/`` (read as text).
"""

import ast
import re
from pathlib import Path

import noncongruent

ROOT = Path(__file__).resolve().parents[1]

# Public on purpose though only tests call them.
ALLOWED = {
    "is_norm",  # arith: the factoring norm check that tests compare the symbol routes with
    "window_neg",  # oracles: the window scan that rep_neg is checked against
    "window_a2_8b2",  # oracles: the window scan that rep_a2_8b2 is checked against
    "tangent_data",  # cassels: the searched pairing of ROADMAP items 5 and 6 reads it
}


def _public_defs(tree):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from (m.name for m in node.body if isinstance(m, ast.FunctionDef))


def _referenced(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_public_function_has_a_caller():
    trees = [ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "noncongruent").glob("*.py"))]
    used = {name for tree in trees for name in _referenced(tree)}
    for folder in ("demos", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            used.update(re.findall(r"\w+", path.read_text()))
    public = {name for tree in trees for name in _public_defs(tree) if not name.startswith("_")}
    assert sorted(public - used - ALLOWED) == []
    assert ALLOWED <= public  # an allowed name that is gone should leave the list


def test_package_exports_what_the_demos_import():
    assert noncongruent.__all__ == [
        "classify",
        "factor_squarefree",
        "rep_2mu2_tau2",
        "selmer_elements",
    ]
