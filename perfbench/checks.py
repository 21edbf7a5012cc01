"""Correctness of each command's output against its recorded values.

A command fails when it raises, when it exits with any code but 0 (the only
code these inputs produce), or when its verdict content differs from the
value recorded in expected.json:

* claims: per row the claim and its verdict, and the report's ``ok``;
* spectral report: the two flags and the block count;
* invsub: every ``case_tag``, plus an oracle check computed here: the
  eigenvector-oracle subspace is invariant to 1e-8 * ||a||;
* lattice: ``ok``, ``boolean``, or ``recovery_isomorphic`` and
  ``semigroup_size``.

Separately, a report whose sha256 matches its recorded digest counts as
identical; that count is information and never a failure.  Digests are
recorded only for reports that do not depend on the workload seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

EXPECTED_PATH = Path(__file__).with_name("expected.json")
ORACLE_REL_TOL = 1e-8


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def verdict(name: str, report: dict):
    """The verdict content of a report, as recorded in expected.json."""
    kind = name.split("/")[1]
    if name.startswith("claims/"):
        return {"ok": report["ok"],
                "rows": [[r["claim"], r["verdict"]] for r in report["rows"]]}
    if kind == "report":
        flags = report["flags"]
        return {"sigma_singleton": flags["sigma_singleton"],
                "sigma_equals_big": flags["sigma_equals_big"],
                "blocks": len(report["block_supports"])}
    if kind == "invsub":
        return {"case_tags": [r["case_tag"] for r in report["results"]]}
    if kind == "verify":
        return {"ok": report["ok"]}
    if kind == "boolean":
        return {"boolean": report["boolean"]}
    if kind == "semigroup":
        return {"recovery_isomorphic": report["recovery_isomorphic"],
                "semigroup_size": report["semigroup_size"]}
    raise ValueError(f"no verdict rule for {name}")


def _matrix(obj: dict) -> np.ndarray:
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


def oracle_defect_ok(matrix_path: Path, report: dict) -> bool:
    """||(I - P) a P|| <= 1e-8 ||a|| for the eigenvector-oracle projector."""
    a = _matrix(json.loads(matrix_path.read_text()))
    oracle = [r for r in report["results"] if r["provenance"] == "eigenvector-oracle"]
    if len(oracle) != 1:
        return False
    p = _matrix(oracle[0]["projector"])
    defect = np.linalg.norm((np.eye(len(p)) - p) @ a @ p, 2)
    return bool(defect <= ORACLE_REL_TOL * np.linalg.norm(a, 2))


def check(cmd, code, error: str | None, expected: dict) -> tuple[bool, bool, str]:
    """(passed, identical, reason) for one finished command.

    code is the exit code, error the exception text if the command raised;
    expected is the workload's table from expected.json.
    """
    if error is not None:
        return False, False, f"raised {error}"
    if code != 0:
        return False, False, f"exit code {code}"
    rec = expected.get(cmd.name)
    if rec is None:
        return False, False, "no recorded value"
    try:
        data = cmd.out.read_bytes()
        report = json.loads(data)
        got = verdict(cmd.name, report)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return False, False, f"unreadable report: {exc!r}"
    identical = hashlib.sha256(data).hexdigest() == rec.get("sha256")
    if got != rec["verdict"]:
        return False, identical, f"verdict {got} != recorded {rec['verdict']}"
    if cmd.matrix is not None and not oracle_defect_ok(cmd.matrix, report):
        return False, identical, "oracle subspace not invariant"
    return True, identical, ""
