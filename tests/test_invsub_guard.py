"""invsub and spectral report are deterministic linear algebra: no
Sigma(a) sweep runs on invsub's path, nothing random runs on either
(tests/test_pure_state_rules.py checks that spectral.py names no
generator), and neither report depends on --seed or --samples, which both
accept and never read."""

import json

import numpy as np
import pytest
from conftest import CliRunner, matrix_to_json
from test_spectral import FIBER_CASES, SCALE_INPUTS

import qgelfand.spectral as spectral
from qgelfand.cli import main


def _forbidden(*args, **kwargs):
    raise AssertionError("invsub ran a sweep")


def test_invariant_subspace_runs_no_sweep_and_no_draw(monkeypatch):
    monkeypatch.setattr(spectral, "support_sweep", _forbidden)
    for a in [*SCALE_INPUTS.values(), *FIBER_CASES.values()]:
        assert len(spectral.invariant_subspace(a, "both")) == 2


@pytest.mark.parametrize("a", [np.eye(3, k=1), FIBER_CASES["generic3"], FIBER_CASES["dsum4"]],
                         ids=["shift3", "generic3", "dsum4"])
def test_invsub_bytes_do_not_depend_on_seed_or_samples(tmp_path, a):
    # spectral report too: its JSON and its --plot-data CSV
    runner = CliRunner()
    path = tmp_path / "a.json"
    path.write_text(json.dumps(matrix_to_json(a)))
    plot = tmp_path / "plot.csv"
    for command, written in ((["invsub", str(path), "--mode", "both"], []),
                             (["spectral", "report", str(path), "--plot-data", str(plot)], [plot])):
        outputs = []
        for flags in ([], ["--seed", "0", "--samples", "1"], ["--seed", "7", "--samples", "2000"]):
            res = runner.invoke(main, [*command, *flags])
            assert res.exit_code == 0
            outputs.append([res.output, *(f.read_bytes() for f in written)])
        assert outputs[0] == outputs[1] == outputs[2]
