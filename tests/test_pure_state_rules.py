"""Pure states in one place: qgelfand/algebra.py draws them
(random_pure_state), evaluates an element at one (PureState.value) and
decides when two are equal (same_ray).  No other module of the package may
call vdot, and the claims probes in qspace.py and harness.py may not draw
Haar vectors themselves, so that a second copy of these rules cannot come
back unseen."""

import ast
from pathlib import Path

import qgelfand

PACKAGE = Path(qgelfand.__file__).resolve().parent


def _names(path: Path) -> list[tuple[int, str]]:
    """(line, name) of every name, attribute and imported name in a module."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            out.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            out.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            out.extend((node.lineno, alias.name) for alias in node.names)
    return out


def test_only_algebra_calls_vdot():
    sites = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "algebra.py"
             for line, name in _names(path) if name == "vdot"]
    assert sites == []


def test_claims_probes_draw_no_haar_vector():
    sites = [f"{module}:{line}: {name}" for module in ("qspace.py", "harness.py")
             for line, name in _names(PACKAGE / module)
             if name in ("haar_unit_vector", "haar_unit_vectors")]
    assert sites == []
