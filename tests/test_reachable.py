"""The package is what the commands run: every module-level function, class
and table of qgelfand, and every method and property of a class the
commands reach, is reached by name from cli.py, or from one of a few
allowlisted roots.  Code that only tests read lives in tests/, so that a
library function without a report cannot come back unseen.

The walk is by name: a definition is reached when cli.py, or a reached
definition, mentions its name, as a name, an attribute or an imported
name; an attribute of np or math, such as np.pi, reaches nothing.  A
class's own body reaches its dunder methods, such as __post_init__; each
other method or property is a definition of its own, reached by its name.
All of cli.py counts as reached; __init__.py is skipped, since its
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
    "hat": "perfbench/tracing.py traces algebra.hat",
    # perfbench/tests builds its lattices with mo_lattice and horizontal_sum
    "lattice_zoo": "the lattice corpus; perfbench/tests imports its builders",
    # the paper's functional-calculus claim; acceptance test 09 checks it
    "cyclic_decompose": "paper claim (i), acceptance test 09",
    "fc_unitary": "paper claim (i), acceptance test 09",
    # thm3 evaluates the modeled product only at its state; tests check
    # that against QFunction.evaluate of the whole product
    "evaluate": "QFunction.evaluate, the oracle of qfunction_star_at",
}


# modules whose attributes are never the package's
_LIBRARIES = ("np", "math")


def _mentions(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            # np.pi or math.prod names no definition of the package
            if not (isinstance(sub.value, ast.Name) and sub.value.id in _LIBRARIES):
                out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _definitions() -> dict[str, list[tuple[str, str | None, list[ast.AST]]]]:
    """Name -> (label, class or None, nodes) of each definition of that
    name, over every module but cli.py and __init__.py: the module-level
    functions, classes and tables, and the methods and properties of each
    class but its dunder methods, labelled Class.name.  A class's own
    nodes leave those methods out."""
    defs: dict[str, list[tuple[str, str | None, list[ast.AST]]]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("cli.py", "__init__.py"):
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            nodes = [node]
            if isinstance(node, ast.ClassDef):
                methods = [s for s in node.body if isinstance(s, ast.FunctionDef)
                           and not (s.name.startswith("__") and s.name.endswith("__"))]
                for m in methods:
                    defs.setdefault(m.name, []).append((f"{node.name}.{m.name}", node.name, [m]))
                nodes = [*node.bases, *node.keywords, *node.decorator_list,
                         *(s for s in node.body if s not in methods)]
                names = [node.name]
            elif isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                defs.setdefault(name, []).append((name, None, nodes))
    return defs


def _reached(roots: set[str], defs) -> set[str]:
    seen: set[str] = set()
    todo = [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for _, _, nodes in defs[name]:
            for node in nodes:
                todo.extend(m for m in _mentions(node) if m in defs and m not in seen)
    return seen


def _unreached(defs, reached: set[str]) -> list[str]:
    """Labels of the definitions not reached; a method counts only when
    its class is reached."""
    return sorted(label for name, entries in defs.items() if name not in reached
                  for label, cls, _ in entries if cls is None or cls in reached)


def _cli_roots() -> set[str]:
    return _mentions(ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8")))


def test_every_definition_is_reached_from_the_commands_or_the_allowlist():
    defs = _definitions()
    assert _unreached(defs, _reached(_cli_roots() | set(ALLOWLIST), defs)) == []


def test_every_allowlisted_root_is_needed():
    defs = _definitions()
    reached = _reached(_cli_roots(), defs)
    assert sorted(name for name in ALLOWLIST if name in reached or name not in defs) == []
