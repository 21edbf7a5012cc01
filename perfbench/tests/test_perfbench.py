"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import checks, workloads  # noqa: E402
from perfbench.run import REF_NOMINAL_S, Pass, invoke  # noqa: E402
from perfbench.tracing import ROOT_GAP_TOL_S, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_flipped_verdict_counts_as_failure(tmp_path):
    from qgelfand.cli import main

    cycle = workloads.build("claims", 0, tmp_path, smoke=True)
    cmd = next(c for c in cycle if c.name == "claims/prop1/C2")
    expected = checks.load_expected()["claims"]
    code, error = invoke(main, cmd.argv)
    assert checks.check(cmd, code, error, expected) == (True, True, "")

    report = json.loads(cmd.out.read_text())
    assert report["rows"][0]["verdict"] == "holds-within-tol"
    report["rows"][0]["verdict"] = "fails"
    cmd.out.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    passed, identical, reason = checks.check(cmd, code, error, expected)
    assert not passed and not identical and "verdict" in reason


def test_tracer_patches_every_binding_site_and_spans_are_consistent(tmp_path):
    import qgelfand.algebra
    import qgelfand.harness
    import qgelfand.qspace
    import qgelfand.spectral
    from qgelfand.cli import main

    originals = (qgelfand.algebra.generate_algebra, qgelfand.harness.gns,
                 qgelfand.qspace.sasaki_product, qgelfand.qspace.hermitian_eig)
    tracer = Tracer()
    tracer.install()
    try:
        assert qgelfand.spectral.generate_algebra is qgelfand.algebra.generate_algebra
        assert qgelfand.harness.gns is qgelfand.algebra.gns
        assert all(a is not b for a, b in zip(originals, (
            qgelfand.spectral.generate_algebra, qgelfand.harness.gns,
            qgelfand.qspace.sasaki_product, qgelfand.qspace.hermitian_eig)))
        call = tracer.wrap("cli", main)
        cycle = workloads.build("claims", 0, tmp_path, smoke=True)
        durations = []
        for i, cmd in enumerate(cycle):
            tracer.cycle = 0
            tracer.start_command(i)
            t0 = perf_counter()
            assert invoke(call, cmd.argv) == (0, None)
            durations.append(perf_counter() - t0)
    finally:
        tracer.uninstall()
    assert (qgelfand.algebra.generate_algebra, qgelfand.harness.gns,
            qgelfand.qspace.sasaki_product, qgelfand.qspace.hermitian_eig) == originals

    metrics, facts = tracer.reduce(1, durations)
    assert facts["commands"] == len(cycle)
    assert facts["orphan_spans"] == facts["misnested_spans"] == facts["root_mismatches"] == 0
    assert facts["root_gap_median_s"] <= ROOT_GAP_TOL_S
    # prop2 builds one GNS representation per sample on each instance
    assert metrics["algebra.gns.calls"] == 2 * workloads.SUITE_SAMPLES["prop2"]
    assert metrics["linalg.Projector.calls"] > 0
    assert metrics["qspace.sup_norm.calls"] > 0

    # a span outside the CLI call, a child that escapes its parent, a root
    # span longer than the loop's timing of its command, and loop timings
    # far longer than their root spans are each caught
    name, t0, t1, parent, cmd = tracer.spans[1]
    tracer.spans.append(("linalg.op_norm", t0, t1, -1, cmd))
    tracer.spans[1] = (name, t0, t1 + 10.0, parent, cmd)
    assert cmd == 0 and len(cycle) > 2
    durations = [d + 1.0 for d in durations]
    durations[-1] = 0.0
    _, facts = tracer.reduce(1, durations)
    assert (facts["orphan_spans"], facts["misnested_spans"]) == (1, 1)
    # command 0 has two roots; the last command's root outlasts its timing
    assert facts["root_mismatches"] == 2
    assert facts["root_gap_median_s"] > ROOT_GAP_TOL_S


def test_relabelled_lattice_is_isomorphic():
    from qgelfand.oml import FiniteOml, horizontal_sum, mo_lattice

    rng = np.random.default_rng(5)
    lat = workloads.horizontal_sum([workloads.mo_lattice(2), workloads.boolean_lattice(2)])
    assert FiniteOml.from_json(lat) == horizontal_sum(
        [mo_lattice(2), FiniteOml.from_json(workloads.boolean_lattice(2))])
    perm = [int(p) for p in rng.permutation(lat["n"])]
    moved = FiniteOml.from_json(workloads.relabel(lat, perm))
    orig = FiniteOml.from_json(lat)
    for p in range(lat["n"]):
        for q in range(lat["n"]):
            assert moved.leq[p, q] == orig.leq[perm[p], perm[q]]
        assert perm[moved.ortho[p]] == orig.ortho[perm[p]]


def test_command_times_are_scaled_by_the_nearby_references():
    p = Pass(None, [], {})
    nominal = REF_NOMINAL_S
    # a fast stretch, then a host half as fast, 20 s of command time later
    p.refs = [(0.0, nominal), (0.1, nominal), (20.0, 2 * nominal), (20.1, 2 * nominal)]
    p.starts, p.durations = [0.05, 20.05], [0.01, 0.02]
    assert p.scaled() == pytest.approx([0.01, 0.01])
    assert p.cmds_per_s == pytest.approx(100.0)


def test_thread_left_running_fails_the_cycle(tmp_path):
    release = threading.Event()
    threads = []

    def leaky_main(argv, standalone_mode):
        threads.append(threading.Thread(target=release.wait))
        threads[-1].start()

    cycle = [workloads.Command("lattice/verify/B1", ("oml",), tmp_path / "out.json")]
    p = Pass(leaky_main, cycle, {})
    try:
        p.run(0.0, 1)
    finally:
        release.set()
        for t in threads:
            t.join()
    assert any(name == "cycle" and "threads" in reason for name, reason in p.failures)
