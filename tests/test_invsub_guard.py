"""invsub is deterministic linear algebra: no Sigma(a) sweep and no Haar
draw runs on its path, so its report does not depend on --seed or
--samples, which it accepts and never reads."""

import json

import numpy as np
import pytest
from conftest import CliRunner, matrix_to_json
from test_spectral import FIBER_CASES, SCALE_INPUTS

import qgelfand.spectral as spectral
from qgelfand.cli import main


def _forbidden(*args, **kwargs):
    raise AssertionError("invsub ran a sweep or a random draw")


def test_invariant_subspace_runs_no_sweep_and_no_draw(monkeypatch):
    monkeypatch.setattr(spectral, "support_sweep", _forbidden)
    monkeypatch.setattr(spectral, "haar_unit_vectors", _forbidden)
    for a in [*SCALE_INPUTS.values(), *FIBER_CASES.values()]:
        assert len(spectral.invariant_subspace(a, "both")) == 2


@pytest.mark.parametrize("a", [np.eye(3, k=1), FIBER_CASES["generic3"], FIBER_CASES["dsum4"]],
                         ids=["shift3", "generic3", "dsum4"])
def test_invsub_bytes_do_not_depend_on_seed_or_samples(tmp_path, a):
    runner = CliRunner()
    path = tmp_path / "a.json"
    path.write_text(json.dumps(matrix_to_json(a)))
    outputs = []
    for flags in (["--seed", "0", "--samples", "1"], ["--seed", "7", "--samples", "2000"], []):
        res = runner.invoke(main, ["invsub", str(path), "--mode", "both", *flags])
        assert res.exit_code == 0
        outputs.append(res.output)
    assert outputs[0] == outputs[1] == outputs[2]
