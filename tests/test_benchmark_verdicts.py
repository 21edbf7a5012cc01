"""The benchmark's recorded verdicts, checked on one cycle of its claims and
spectral workloads at workload seed 0.  Each command runs through the CLI
as the benchmark runs it, and each report is checked against
perfbench/expected.json, so a flipped verdict fails here, not only in a
benchmark run.  Nothing under perfbench/ is written."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import checks, workloads  # noqa: E402
from perfbench.run import invoke  # noqa: E402
from qgelfand.cli import main  # noqa: E402


@pytest.mark.parametrize("workload", ["claims", "spectral"])
def test_workload_cycle_keeps_recorded_verdicts(tmp_path, workload):
    expected = checks.load_expected()[workload]
    failures = []
    for cmd in workloads.build(workload, 0, tmp_path):
        passed, _, reason = checks.check(cmd, *invoke(main, cmd.argv), expected)
        if not passed:
            failures.append((cmd.name, reason))
    assert failures == []
