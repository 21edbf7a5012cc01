"""Every numerical threshold lives in the table at the top of
qgelfand/linalg.py: no other module of the package holds a small float
literal, so a tolerance cannot drift away from the table unseen."""

import ast
import re
from pathlib import Path

import qgelfand
from qgelfand import linalg

PACKAGE = Path(qgelfand.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_readme_threshold_table_matches_linalg():
    # both ways: each named row's value equals the constant, and each float
    # constant of linalg has a row
    table = README.read_text(encoding="utf-8").split("### Thresholds", 1)[1].split("\n### ", 1)[0]
    documented = {name: float(value) for name, value in
                  re.findall(r"^\| `([A-Z_]+)` \| ([^ |]+) \|", table, re.MULTILINE)}
    constants = {name: value for name, value in vars(linalg).items()
                 if name.isupper() and type(value) is float}
    assert documented == constants
