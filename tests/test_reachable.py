"""The package is what the commands run: every module-level function, class
and table of qgelfand is reached by name from cli.py, or from one of a few
allowlisted roots.  Code that only tests read lives in tests/, so that a
library function without a report cannot come back unseen.

The walk is by name: a definition is reached when cli.py, or a reached
definition, mentions its name, as a name, an attribute or an imported
name.  All of cli.py counts as reached; __init__.py is skipped, since its
re-exports reach nothing."""

import ast
from pathlib import Path

import qgelfand

PACKAGE = Path(qgelfand.__file__).resolve().parent

# roots outside the commands, each with the reader that keeps it
ALLOWLIST = {
    # perfbench/tracing.py patches these by name
    "center_basis": "perfbench/tracing.py traces algebra.center_basis",
    "proj_join": "perfbench/tracing.py traces linalg.proj_join",
    # perfbench/tests builds its lattices with mo_lattice and horizontal_sum
    "lattice_zoo": "the lattice corpus; perfbench/tests imports its builders",
    # the paper's functional-calculus claim; acceptance test 09 checks it
    "cyclic_decompose": "paper claim (i), acceptance test 09",
    "fc_unitary": "paper claim (i), acceptance test 09",
}


def _mentions(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _definitions() -> dict[str, list[ast.AST]]:
    """Name -> the module-level functions, classes and tables of that
    name, over every module but cli.py and __init__.py."""
    defs: dict[str, list[ast.AST]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("cli.py", "__init__.py"):
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                defs.setdefault(name, []).append(node)
    return defs


def _reached(roots: set[str], defs: dict[str, list[ast.AST]]) -> set[str]:
    seen: set[str] = set()
    todo = [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in defs[name]:
            todo.extend(m for m in _mentions(node) if m in defs and m not in seen)
    return seen


def _cli_roots() -> set[str]:
    return _mentions(ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8")))


def test_every_definition_is_reached_from_the_commands_or_the_allowlist():
    defs = _definitions()
    reached = _reached(_cli_roots() | set(ALLOWLIST), defs)
    assert sorted(set(defs) - reached) == []


def test_every_allowlisted_root_is_needed():
    defs = _definitions()
    reached = _reached(_cli_roots(), defs)
    assert sorted(name for name in ALLOWLIST if name in reached or name not in defs) == []
