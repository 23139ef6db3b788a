"""The package keeps no public code that nothing calls.

A public module-level function, or a public method of a public class, must
be referenced by the code in ``src/noncongruent``, ``demos`` or ``bench``,
read as syntax trees so that docstrings and comments do not count.  A method
counts through any attribute access ``.name``.  A module-level function
counts through ``module.name``, through an import of it from its module, or
through a bare name inside its own module.
"""

import ast
from pathlib import Path

import noncongruent

ROOT = Path(__file__).resolve().parents[1]

# Public on purpose though only tests call them.
ALLOWED = {
    "oracles.is_norm",  # the factoring norm check that tests compare the symbol routes with
}


def _public_defs(module, tree):
    """(qualified name, the reference that uses it) of each public function
    and each public method of a public class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", f"{module}.{node.name}"
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                    yield f"{module}.{node.name}.{m.name}", f".{m.name}"


def _references(module, tree):
    """What the tree references: ``.name`` for each attribute access, and
    ``module.name`` for each function reached through its module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield f".{node.attr}"
            owner = node.value
            if isinstance(owner, ast.Name):
                yield f"{owner.id}.{node.attr}"
            elif isinstance(owner, ast.Attribute):
                yield f"{owner.attr}.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module:
            source = node.module.rpartition(".")[2]
            yield from (f"{source}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Name) and module is not None:
            yield f"{module}.{node.id}"


def test_every_public_function_has_a_caller():
    package = ROOT / "src" / "noncongruent"
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    used = {ref for module, tree in trees.items() for ref in _references(module, tree)}
    for folder in ("demos", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            used.update(_references(None, ast.parse(path.read_text())))
    public = dict(d for module, tree in trees.items() for d in _public_defs(module, tree))
    unused = {name for name, use in public.items() if use not in used}
    assert sorted(unused - ALLOWED) == []
    assert ALLOWED <= set(public)  # an allowed name that is gone should leave the list


def _raised_names(tree):
    """The name of each exception that a ``raise`` in the tree raises, by
    its class or by a call to it, bare or as ``module.Name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
            elif isinstance(exc, ast.Attribute):
                yield exc.attr


def test_every_error_type_has_a_raiser():
    # An error type that nothing in the package raises any more goes with
    # its last raiser; only the base class is never raised itself.
    package = ROOT / "src" / "noncongruent"
    errors = ast.parse((package / "errors.py").read_text())
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = {name for p in package.glob("*.py") for name in _raised_names(ast.parse(p.read_text()))}
    assert sorted(defined - raised) == ["NoncongruentError"]


def _package_imports(tree):
    """The modules of the package that a tree imports, relative or absolute;
    the package itself for ``import noncongruent``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "noncongruent":
                    yield rest.partition(".")[0] or head
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                head, _, module = module.partition(".")
                if head != "noncongruent":
                    continue
            if module:
                yield module.partition(".")[0]
            else:
                yield from (alias.name for alias in node.names)


def test_oracles_import_only_arith_and_errors():
    # The oracles check the other modules' code paths, so they run none of
    # them: only the integer primitives and the error types are shared.
    tree = ast.parse((ROOT / "src" / "noncongruent" / "oracles.py").read_text())
    assert set(_package_imports(tree)) <= {"arith", "errors"}


def test_package_exports_what_the_demos_import():
    assert noncongruent.__all__ == [
        "classify",
        "factor_squarefree",
        "rep_2mu2_tau2",
        "selmer_elements",
    ]
