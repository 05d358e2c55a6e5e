"""Every name a module of the package imports is used in that module
(`__init__`, whose imports are its exports, aside), so a deletion
cannot leave a dead import behind; every export is read outside the
tests; the package imports only the standard library and numpy; and
every module parses under the oldest Python grammar that
pyproject.toml's requires-python admits."""

import ast
import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "fig8torsion"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """The names the module's import statements bind, with their lines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_modules_are_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports unused names: {unused}"


def top_level_functions(tree):
    """The names of the functions a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name


def test_every_function_is_used_or_exported():
    """A function of `src/` is called (or named) somewhere in `src/`
    outside its own definition, or `__init__` exports it; a helper that
    only the tests call belongs in `tests/`."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in MODULES}
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {name for name, _ in imported_names(init)}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [f"{stem}.{name}" for stem, tree in trees.items()
              for name in top_level_functions(tree)
              if name not in used and name not in exported]
    assert not unused, f"functions neither used in src/ nor exported: {unused}"


def top_level_constants(tree):
    """The upper-case names a module binds at its top level, with their
    lines: its constants."""
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if (isinstance(target, ast.Name)
                    and target.id.lstrip("_").isupper()):
                yield target.id, node.lineno


def test_every_constant_is_read_or_exported():
    """A module-level constant of `src/` is read somewhere in `src/`, or
    `__init__` exports it, so a deletion cannot leave a dead tolerance
    behind."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in MODULES}
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {name for name, _ in imported_names(init)}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [f"{stem}.{name} (line {line})"
              for stem, tree in trees.items()
              for name, line in top_level_constants(tree)
              if name not in read and name not in exported]
    assert not unread, f"constants neither read in src/ nor exported: {unread}"


def names_read(tree):
    """The names and attributes a module reads, less each top-level
    function's or class's reads of its own name."""
    for node in tree.body:
        own = getattr(node, "name", None)
        for sub in ast.walk(node):
            name = (sub.id if isinstance(sub, ast.Name) else
                    sub.attr if isinstance(sub, ast.Attribute) else None)
            if name is not None and name != own:
                yield name


# the reference predicate and the reference oracle: the tests compare
# `torsion`'s acyclic mask and the trace form of the solid-torus torsion
# with them, and nothing outside the tests reads them
READ_ONLY_BY_TESTS = {"is_acyclic", "torsion_solid_torus_oracle"}


def test_every_export_is_read_outside_the_tests():
    """Each name `__init__` exports is read in `src/` outside its own
    definition, in `bench/` or in `demos/`, so the package exports no
    name that only the tests call (READ_ONLY_BY_TESTS aside)."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {name for name, _ in imported_names(init)}
    paths = [*MODULES, *(REPO / "bench").glob("*.py"),
             *(REPO / "demos").glob("*.py")]
    read = set()
    for path in paths:
        read.update(names_read(ast.parse(path.read_text(), filename=str(path))))
    assert READ_ONLY_BY_TESTS <= exported - read
    unread = sorted(exported - read - READ_ONLY_BY_TESTS)
    assert not unread, f"exports read only by the tests: {unread}"


def test_package_imports_only_stdlib_and_numpy():
    """numpy is the one runtime dependency in pyproject.toml; sympy,
    mpmath and the other test dependencies stay out of `src/`."""
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            foreign += [f"{path.name}: {top} (line {node.lineno})"
                        for top in tops if top not in allowed]
    assert not foreign, f"imports outside stdlib and numpy: {foreign}"


def test_sources_parse_under_requires_python():
    """Every module of the package parses with the grammar of the
    oldest Python that `requires-python` in pyproject.toml admits, so no
    newer-only syntax (say, `except*`, new in 3.11) slips in.
    `feature_version` is best effort: it rejects the syntax the parser
    knows to be newer, not every newer construct."""
    pyproject = (PACKAGE.parent.parent / "pyproject.toml").read_text()
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject,
                      re.MULTILINE)
    assert found, "pyproject.toml states no requires-python lower bound"
    version = (int(found[1]), int(found[2]))
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path),
                  feature_version=version)
