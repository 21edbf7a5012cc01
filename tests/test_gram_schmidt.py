"""One Gram-Schmidt kernel: linalg.orthonormalize builds every span the
package orthonormalizes.  Only qgelfand/linalg.py may define a function
whose name contains "orthonormal", so that a second implementation cannot
come back unseen."""

import ast
from pathlib import Path

import qgelfand

PACKAGE = Path(qgelfand.__file__).resolve().parent


def _orthonormalizers(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno}: {node.name}" for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and "orthonormal" in node.name.lower()]


def test_only_linalg_defines_an_orthonormalizer():
    sites = [site for path in sorted(PACKAGE.glob("*.py")) if path.name != "linalg.py"
             for site in _orthonormalizers(path)]
    assert sites == []


def test_linalg_defines_one_orthonormalizer():
    assert [site.rsplit(" ", 1)[1] for site in _orthonormalizers(PACKAGE / "linalg.py")] == [
        "orthonormalize"]
