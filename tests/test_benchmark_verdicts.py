"""The benchmark's recorded verdicts, checked on one cycle of each of its
workloads at workload seed 0.  Each command runs through the CLI as the
benchmark runs it, and each report is checked against
perfbench/expected.json, so a flipped verdict fails here, not only in a
benchmark run.  Each report must also be the canonical JSON of its own
content, so a drift of the report writer from json.dumps(..., sort_keys=True,
indent=2) fails here on real reports.  Nothing under perfbench/ is written."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import checks, workloads  # noqa: E402
from perfbench.run import invoke  # noqa: E402
from qgelfand.cli import main  # noqa: E402


@pytest.mark.parametrize("workload", ["claims", "spectral", "lattice"])
def test_workload_cycle_keeps_recorded_verdicts(tmp_path, workload):
    expected = checks.load_expected()[workload]
    failures = []
    for cmd in workloads.build(workload, 0, tmp_path):
        passed, _, reason = checks.check(cmd, *invoke(main, cmd.argv), expected)
        if not passed:
            failures.append((cmd.name, reason))
            continue
        data = cmd.out.read_text()
        if data != json.dumps(json.loads(data), sort_keys=True, indent=2) + "\n":
            failures.append((cmd.name, "not canonical JSON"))
    assert failures == []
