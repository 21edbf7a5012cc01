"""Every numerical threshold lives in the table at the top of
qgelfand/linalg.py: no other module of the package holds a small float
literal, so a tolerance cannot drift away from the table unseen."""

import ast
from pathlib import Path

import qgelfand

PACKAGE = Path(qgelfand.__file__).resolve().parent


def _small_float_literals(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno}: {node.value!r}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0 < node.value < 1e-3]


def test_thresholds_live_only_in_linalg():
    sites = [site for path in sorted(PACKAGE.glob("*.py")) if path.name != "linalg.py"
             for site in _small_float_literals(path)]
    assert sites == []


def test_linalg_holds_six_threshold_values():
    assert len(_small_float_literals(PACKAGE / "linalg.py")) == 6
